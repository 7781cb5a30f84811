import random
import re
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, strategies as st

from fpverify import (
    NoDefiningRelator,
    ParseError,
    Presentation,
    Word,
    abelianized_relation_matrix,
    eliminate_generator,
    homology_h1,
    parse_presentation,
    parse_word,
    print_presentation,
    replay_moves,
    simplify,
)
from fpverify.corpus import list_scenarios, load_corpus_presentation
from fpverify.words import CONVENTIONS
from fpverify.presentation import (
    MAX_NESTING,
    MAX_WORD_LENGTH,
    DropDuplicateRelator,
    dedupe_relators,
)

from conftest import schema


def test_parse_trivial_group():
    p = parse_presentation("< a | a >")
    assert p.generators == ("a",)
    assert p.relators == (Word.gen("a"),)


def test_parse_free_group():
    p = parse_presentation("< a, b | >")
    assert p.generators == ("a", "b") and p.relators == ()
    assert print_presentation(p) == "< a, b | >"


def test_parse_base_presentation_file():
    p = load_corpus_presentation("pi1-E0-tilde.grp")
    assert len(p.generators) == 6 and len(p.relators) == 9
    assert p.name == "pi1-E0-tilde"


def test_parse_reduced_presentation_last_relator():
    p = load_corpus_presentation("pi1-N-reduced.grp")
    assert len(p.generators) == 5 and len(p.relators) == 7
    expected = parse_word("g q^-2 g") * parse_word("q^-1 g q^-1").inverse()
    assert p.relators[-1] == expected


def test_relation_normalization_and_powers():
    p = parse_presentation("< a, q | a q = q a, q^-2 >")
    assert p.relators[0] == parse_word("a q a^-1 q^-1")
    assert p.relators[1] == Word.gen("q", -2)


def test_parse_word_one():
    assert parse_word("1").is_identity()
    assert parse_word("(a b)^-1") == parse_word("b^-1 a^-1")


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse_presentation("< a | a,\n b >")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_presentation("< a | $ >")
    with pytest.raises(ParseError):
        parse_presentation("< a, a | >")  # duplicate generator
    with pytest.raises((ParseError, ValueError)):
        parse_presentation("< a | b >")  # unknown generator
    with pytest.raises(ValueError, match="duplicate generator"):
        Presentation(["a", "a"])
    for parse, text, message in (
            (parse_presentation, "< a | a", "1:8: expected '>'"),
            (parse_presentation, "< a | a > b",
             "1:11: trailing input after presentation"),
            (parse_presentation, "< 1 | a >", "1:3: expected identifier"),
            (parse_presentation, "< a | a^b >",
             "1:9: expected integer exponent"),
            (parse_word, "a b )", "1:5: trailing input after word")):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse(text)


def test_word_length_bound():
    n = MAX_WORD_LENGTH
    assert len(parse_presentation(f"< a | a^{n} >").relators[0]) == n
    assert len(parse_word(f"a^-{n}")) == n
    for text, line, col in [
        (f"< a | a^{n + 1} >", 1, 9),
        (f"< a | a^-{n + 1} >", 1, 9),
        (f"< a, b |\n (a b)^{n // 2 + 1} >", 2, 8),
        (f"< a | (a^{n})^2 >", 1, 18),
        (f"< a | a^{'9' * 5000} >", 1, 9),  # more digits than int() reads
        (f"< a, b | a^{n} b >", 1, 19),
        (f"< a, b | [a^{n // 2}, b] >", 1, 10),
        (f"< a, b | a^{n} = b >", 1, 19),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert (exc.value.line, exc.value.column) == (line, col), text[:40]
        assert str(MAX_WORD_LENGTH) in str(exc.value)


def test_nesting_bound():
    # the recursive descent goes three calls deeper per bracket; past the
    # bound, the bracket that opens one level too many is reported
    n = MAX_NESTING
    for opening, closing in (("(", ")"), ("[1, ", "]")):
        parse_word(opening * n + "a" + closing * n)
        for depth in (n + 1, 330):
            word = opening * depth + "a" + closing * depth
            for parse, text, line, col in (
                    (parse_word, word, 1, 1 + n * len(opening)),
                    (parse_presentation, f"< a |\n {word} >", 2,
                     2 + n * len(opening))):
                with pytest.raises(ParseError) as exc:
                    parse(text)
                assert (exc.value.line, exc.value.column) == (line, col)
                assert f"nested more than {n} deep" in str(exc.value)


def test_parse_errors_point_at_the_offending_token():
    for text, message in (
            # an unknown name where it is read, not at the end of input
            ("< a, b | a z b,\n b^2 >", "1:12: unknown generator 'z'"),
            # a repeated generator at the repetition, not at the "|"
            ("< a, a | a >", "1:6: duplicate generator name"),
            # the end of input just past the last token, whatever follows it
            ("< a | a\n", "1:8: expected '>', got 'end of input'"),
            ("< a | a # open\n\n", "1:8: expected '>', got 'end of input'"),
            ("< a | a^\n", "1:9: expected integer exponent, "
                           "got 'end of input'")):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_presentation(text)


def test_a_power_of_the_identity_is_the_identity():
    # however large the exponent: the identity expands to no letters
    huge = "9" * 30
    for text in (f"(1)^{huge}", f"(a a^-1)^-{huge}", f"[a, a]^{huge}"):
        assert parse_word(text).is_identity()
    assert Word.identity() ** int(huge) == Word.identity()


def test_name_headers_in_a_crlf_file():
    # the last header wins, also after the presentation, and \r\n line
    # ends read as \n ones
    text = ("# a comment\r\nname: first\r\n< a, b |\r\n  a b a^-1 b^-1\r\n"
            ">\r\n  name:  second \r\n")
    p = parse_presentation(text, name="ignored")
    assert p.name == "second"
    assert p == parse_presentation("< a, b | [a, b] >")
    assert parse_presentation(text.replace("\r\n", "\n")).name == "second"
    # a header reads as a blank line, so the lines below keep their numbers
    with pytest.raises(ParseError, match=re.escape("3:4: unknown generator")):
        parse_presentation("name: x\r\n< a, b |\r\n a z >\r\n")


def test_a_word_at_the_length_bound_parses_in_linear_time():
    # in a subprocess with a timeout, so that a quadratic parse fails the
    # test instead of hanging it
    code = ("from fpverify import parse_word; "
            f"print(len(parse_word('a ' * {MAX_WORD_LENGTH})))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{MAX_WORD_LENGTH}\n"
    # the bound is on the freely reduced word
    assert parse_word(f"a^{MAX_WORD_LENGTH} a^-{MAX_WORD_LENGTH}").is_identity()


def test_trivial_relator_dropped():
    # a relator that freely reduces to the identity is dropped on construction
    p = Presentation(["a"], [Word([("a", 1), ("a", -1)]), Word.gen("a")])
    assert p.relators == (Word.gen("a"),)
    p = parse_presentation("< a | 1, a >")
    assert p.relators == (Word.gen("a"),)


def test_with_relators_keeps_its_own_relators():
    # the presentation's own relators are kept as they are, and the result
    # equals a freshly built presentation
    full = load_corpus_presentation("pi1-N-full.grp")
    rest = full.with_relators(full.relators[1:])
    assert rest == Presentation(full.generators, full.relators[1:])
    assert (rest.generators, rest.name) == (full.generators, full.name)
    assert all(a is b for a, b in zip(rest.relators, full.relators[1:]))
    assert full.with_relators(()) == Presentation(full.generators)


def test_with_relators_checks_a_foreign_relator_as_the_constructor_does():
    p = parse_presentation("< a, b | a^2 >")
    foreign = [parse_word("a b a^-1"), Word([("b", 1), ("b", -1)]),
               parse_word("a^2"), p.relators[0]]
    # a foreign relator is cyclically reduced, and a trivial one dropped
    q = p.with_relators(foreign)
    assert q == Presentation(p.generators, foreign)
    assert q.relators == (Word.gen("b"), Word.gen("a", 2), Word.gen("a", 2))
    # and one over an unknown generator is rejected with the same message
    bad = [p.relators[0], parse_word("a z")]
    with pytest.raises(ValueError) as fresh:
        Presentation(p.generators, bad)
    with pytest.raises(ValueError, match="unknown generators") as copied:
        p.with_relators(bad)
    assert str(copied.value) == str(fresh.value)


def test_round_trip_corpus():
    for s in list_scenarios():
        for name in s.files.values():
            if name.endswith(".grp"):
                p = load_corpus_presentation(name)
                assert parse_presentation(print_presentation(p)) == p


def test_eliminate_simple():
    p = parse_presentation("< a, b | a b^-1 >")
    out, move = eliminate_generator(p, "a")
    assert out.generators == ("b",) and out.relators == ()
    assert move.definition == Word.gen("b")


def test_eliminate_substitutes_elsewhere():
    p = parse_presentation("< q, x, y, w | q y^-1, x y x^-1 w y^-1 >")
    out, move = eliminate_generator(p, "y")
    assert move.definition == Word.gen("q")
    assert out.relators == (parse_word("x q x^-1 w q^-1"),)
    out2, move2 = eliminate_generator(
        parse_presentation("< e, g, w | w g^-1, w e^-1 w^-1 e >"), "w")
    assert move2.definition == Word.gen("g")
    assert out2.relators == (parse_word("g e^-1 g^-1 e"),)


def test_eliminate_no_defining_relator():
    p = parse_presentation("< a, b | a b a b >")
    with pytest.raises(NoDefiningRelator) as exc:
        eliminate_generator(p, "a")
    assert exc.value.candidates  # reports the relators containing a


def test_eliminate_uses_the_shortest_defining_relator():
    # relators 1 and 2 both define a in two letters, relator 0 in five
    p = parse_presentation("< a, b, c | a b c b^-1 c^-1, a c^-1, a b^-1 >")
    out, move = eliminate_generator(p, "a")
    assert (move.defining_relator_index, move.definition) == (1, Word.gen("c"))
    # c b c b^-1 c^-1 is stored cyclically reduced
    assert out.relators == (Word.gen("c"), parse_word("c b^-1"))


def test_eliminate_with_chosen_relator():
    p = parse_presentation("< a, b, c | b a b a^-1, b c^-1 >")
    out, move = eliminate_generator(p, "b", using=1)
    assert move.definition == Word.gen("c")
    assert "b" not in out.generators
    with pytest.raises(NoDefiningRelator):
        eliminate_generator(p, "b", using=0)  # b occurs twice in relator 0


def test_simplify_union_matches_staged_counts():
    base = load_corpus_presentation("pi1-E0-tilde.grp")
    new = load_corpus_presentation("eleven-new-relators.grp")
    union = Presentation(new.generators, base.relators + new.relators)
    after_two, _ = simplify(union, budget=2)
    assert len(after_two.generators) == 9
    after_three, moves = simplify(union, budget=3)
    assert set(after_three.generators) == {"a", "c", "g", "h", "q",
                                           "x", "u", "v"}
    assert replay_moves(union, moves) == after_three


def test_simplify_free_group_noop():
    p = parse_presentation("< a | >")
    out, moves = simplify(p)
    assert out == p and moves == []


def test_simplify_never_increases_generators():
    p = parse_presentation("< a, b, c | a b^-1, b c >")
    out, _ = simplify(p)
    assert len(out.generators) <= len(p.generators)


def test_dedupe_relators():
    p = parse_presentation("< a, b | a b, b^-1 a^-1, b a >")  # same class
    out, moves = dedupe_relators(p)
    assert len(out.relators) == 1 and len(moves) == 2
    # simplify records the drops, and replaying them reproduces its output
    p = parse_presentation(
        "< a, b | a^2, a^-2, b a b^-1 a^-1, a b a^-1 b^-1, b^3 >")
    out, moves = simplify(p)
    assert moves == [DropDuplicateRelator(1), DropDuplicateRelator(3)]
    assert len(out.relators) == 3
    assert replay_moves(p, moves) == out


def test_abelianized_matrix_examples():
    assert abelianized_relation_matrix(parse_presentation("< a | a^2 >")) == [[2]]
    p = parse_presentation("< a, c, q | [a, q] = c >")
    assert abelianized_relation_matrix(p) == [[0, -1, 0]]
    p = parse_presentation("< g, q | g q^-2 g = q^-1 g q^-1 >")
    assert abelianized_relation_matrix(p) == [[1, 0]]


def _exponent_sum_matrix(p: Presentation) -> list[list[int]]:
    """The relation matrix by its definition: one exponent sum per
    relator and generator."""
    return [[r.exponent_sum(g) for g in p.generators] for r in p.relators]


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_abelianized_matrix_is_the_exponent_sums(convention):
    names = sorted({name for s in list_scenarios()
                    for name in s.files.values() if name.endswith(".grp")})
    assert len(names) == 9
    for name in names:
        p = load_corpus_presentation(name, convention=convention)
        assert abelianized_relation_matrix(p) == _exponent_sum_matrix(p), name
    rng = random.Random(17)
    for _ in range(300):
        p = _random_presentation(rng)
        assert abelianized_relation_matrix(p) == _exponent_sum_matrix(p)


def test_json_round_trip():
    p = load_corpus_presentation("pi1-N-full.grp")
    assert Presentation.from_json(p.to_json()) == p


def test_from_json_rejects_a_malformed_document():
    good = parse_presentation("< a, b | a b^2 >").to_json()
    # each rejected by the schema too, with the field the error names
    for bad, field in (
            ([], "presentation"),
            ({"name": "", "generators": ["a"]}, "'relators'"),
            ({"generators": ["a"], "relators": []}, "'name'"),
            ({**good, "name": 7}, "name"),
            ({**good, "generators": "ab"}, "generators"),
            ({**good, "generators": ["a", 7]}, "generators[1]"),
            ({**good, "generators": ["a", "1b"]}, "generators[1]"),
            ({**good, "relators": "a"}, "relators"),
            ({**good, "relators": [[["a", True]]]}, "relators[0]"),
            ({**good, "relators": [[], [["a", 2]]]}, "relators[1]"),
            ({**good, "relators": [[["a", 1, 1]]]}, "relators[0]")):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema("presentation"))
        with pytest.raises(ValueError, match=re.escape(field)):
            Presentation.from_json(bad)
    # an integral float, which JSON Schema lets stand for an integer
    with pytest.raises(ValueError, match=re.escape("relators[0]")):
        Presentation.from_json({**good, "relators": [[["a", 1.0]]]})
    # a relator over a name that is not a generator, as the constructor
    # rejects it
    with pytest.raises(ValueError, match="unknown generators"):
        Presentation.from_json({**good, "relators": [[["c", 1]]]})


def test_tietze_moves_reject_what_they_cannot_do():
    p = parse_presentation("< a, b | a b^-1 >")
    with pytest.raises(ValueError, match="'z' is not a generator"):
        eliminate_generator(p, "z")
    for using in (1, -1):  # -1 would read the last relator but not consume it
        with pytest.raises(ValueError, match=f"no relator {using} in"):
            eliminate_generator(p, "b", using=using)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        simplify(p, budget=-1)
    out, moves = simplify(p)
    assert replay_moves(p, moves) == out
    # relator 0 still defines b, but as a^2 where the move recorded a
    with pytest.raises(ValueError, match="replay mismatch eliminating b"):
        replay_moves(parse_presentation("< a, b | a^2 b^-1 >"), moves)


def test_replay_checks_each_run_of_drops_where_it_was_recorded():
    # a drop names a relator that is not a duplicate, or that is not there
    p = parse_presentation("< a, b | a^2, b^3 >")
    with pytest.raises(ValueError, match="replay mismatch dropping relator 7"):
        replay_moves(p, [DropDuplicateRelator(7)])
    p = parse_presentation("< a, b | a^2, a^-2, b^3, b^-3 >")
    assert replay_moves(p, [DropDuplicateRelator(1), DropDuplicateRelator(3)]) \
        == p.with_relators([p.relators[0], p.relators[2]])
    # a run that keeps a duplicate, or names the wrong one
    with pytest.raises(ValueError, match="relator 3 is a duplicate"):
        replay_moves(p, [DropDuplicateRelator(1)])
    with pytest.raises(ValueError, match="replay mismatch dropping relator 2"):
        replay_moves(p, [DropDuplicateRelator(2), DropDuplicateRelator(3)])
    # the drops after an elimination are checked against its output:
    # eliminating b leaves < a | a^2, a^2 >, whose relator 1 copies relator 0
    p = parse_presentation("< a, b | a b^-1, b^2, a^2 >")
    out, moves = simplify(p)
    assert moves[-1] == DropDuplicateRelator(1)
    assert replay_moves(p, moves) == out
    with pytest.raises(ValueError, match="replay mismatch dropping relator 0"):
        replay_moves(p, moves[:-1] + [DropDuplicateRelator(0)])


# -- Tietze soundness (abelian shadow) ---------------------------------------

def _random_presentation(rng: random.Random) -> Presentation:
    gens = list("abcd")[: rng.randrange(1, 5)]
    rels = []
    for _ in range(rng.randrange(5)):
        rels.append(Word((rng.choice(gens), rng.choice((1, -1)))
                         for _ in range(rng.randrange(1, 7))))
    return Presentation(gens, rels)


def test_simplify_preserves_h1_random():
    rng = random.Random(11)
    for _ in range(100):
        p = _random_presentation(rng)
        out, _ = simplify(p)
        # compare as abelian groups: free rank can shift between generator
        # sets only if the invariants differ, which must not happen
        assert homology_h1(out) == homology_h1(p)


def test_simplify_preserves_h1_corpus():
    for s in list_scenarios():
        for name in s.files.values():
            if name.endswith(".grp"):
                p = load_corpus_presentation(name)
                out, _ = simplify(p)
                assert homology_h1(out) == homology_h1(p)


@given(st.integers(0, 2 ** 32 - 1))
def test_simplify_preserves_h1_property(seed):
    rng = random.Random(seed)
    p = _random_presentation(rng)
    out, _ = simplify(p)
    assert homology_h1(out) == homology_h1(p)
