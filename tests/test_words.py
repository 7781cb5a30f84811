import random

import pytest
from hypothesis import given, strategies as st

from fpverify import (
    Presentation,
    Word,
    commutator,
    conjugate,
    cyclic_reduce,
    free_reduce,
    invert,
    substitute,
)
from fpverify.words import CONVENTION_GAP, _product

from conftest import random_letters

GENS = "abcde"

letters = st.lists(
    st.tuples(st.sampled_from(GENS), st.sampled_from((1, -1))), max_size=64)
words = letters.map(Word)


def W(text_pairs):
    return Word(text_pairs)


# -- basic examples ----------------------------------------------------------

def test_full_cancellation():
    assert free_reduce([("a", 1), ("a", -1)]).is_identity()


def test_already_reduced():
    w = Word([("x", 1), ("y", 1), ("x", 1), ("y", -1), ("x", -1), ("y", -1)])
    assert len(w) == 6
    assert free_reduce(w.letters) == w


def test_nested_cancellation():
    seq = [("a", 1), ("b", 1), ("b", -1), ("a", 1), ("a", -1), ("a", -1)]
    assert free_reduce(seq).is_identity()


def test_invert_examples():
    assert invert(Word()).is_identity()
    w = Word([("x", 1), ("q", -1), ("x", -1), ("q", 1)])
    assert invert(w) == Word([("q", -1), ("x", 1), ("q", 1), ("x", -1)])
    assert invert(Word([("q", 1), ("y", -1)])) == Word([("y", 1), ("q", -1)])


def test_conjugate_examples():
    u = Word.gen("u")
    assert conjugate(Word(), u).is_identity()
    assert conjugate(Word.gen("q"), Word.gen("g")) == \
        Word([("g", 1), ("q", 1), ("g", -1)])
    assert conjugate(Word.gen("a"), Word.gen("a")) == Word.gen("a")


def test_commutator_examples():
    a, q, x = Word.gen("a"), Word.gen("q"), Word.gen("x")
    assert commutator(a, a).is_identity()
    assert commutator(x, q.inverse()) == \
        Word([("x", 1), ("q", -1), ("x", -1), ("q", 1)])
    assert commutator(a, q) == Word([("a", 1), ("q", 1), ("a", -1), ("q", -1)])
    assert commutator(a, q, CONVENTION_GAP) == \
        Word([("a", -1), ("q", -1), ("a", 1), ("q", 1)])


def test_commutator_bad_convention():
    with pytest.raises(ValueError):
        commutator(Word.gen("a"), Word.gen("b"), "nonsense")


def test_substitute_examples():
    qy = Word([("q", 1), ("y", -1)])
    assert substitute(qy, "y", Word.gen("q")).is_identity()
    w = Word([("x", 1), ("y", 1), ("x", -1), ("w", 1), ("y", -1)])
    step = substitute(w, "y", Word.gen("q"))
    done = substitute(step, "w", Word.gen("g"))
    assert done == Word([("x", 1), ("q", 1), ("x", -1), ("g", 1), ("q", -1)])
    assert substitute(Word(), "g", Word.gen("a")).is_identity()


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(Word([("a", 1), ("b", 1), ("a", -1)]))
    assert core == Word.gen("b") and conj == Word.gen("a")
    w = Word([("x", 1), ("y", 1), ("x", 1), ("y", -1), ("x", -1), ("y", -1)])
    assert cyclic_reduce(w) == (w, Word())
    assert cyclic_reduce(Word()) == (Word(), Word())


def test_gen_powers_and_pairs():
    assert Word.gen("q", -2) == Word([("q", -1), ("q", -1)])
    assert Word.from_pairs([("g", 1), ("q", -2), ("g", 1)]) == \
        Word([("g", 1), ("q", -1), ("q", -1), ("g", 1)])
    with pytest.raises(ValueError):
        Word.gen("1bad")
    with pytest.raises(ValueError):
        Word([("a", 2)])


@pytest.mark.parametrize("build", [
    lambda: Presentation([7]),
    lambda: Word.gen(7),
    lambda: Word.from_pairs([(7, 1)]),
])
def test_a_name_that_is_not_a_string_is_a_value_error(build):
    with pytest.raises(ValueError, match="invalid generator name: 7"):
        build()


def test_str_power_compression():
    w = Word.from_pairs([("g", 1), ("q", -2), ("g", 1)])
    assert str(w) == "g q^-2 g"
    assert str(Word()) == "1"


# -- laws (property-based) ---------------------------------------------------

@given(letters)
def test_idempotence(seq):
    once = free_reduce(seq)
    assert free_reduce(once.letters) == once


@given(words)
def test_inverse_law(w):
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()
    assert w.inverse().inverse() == w


@given(letters, letters)
def test_homomorphism(s, t):
    assert free_reduce(s + t) == free_reduce(s) * free_reduce(t)


@given(words)
def test_commutator_triviality(u):
    assert commutator(u, u).is_identity()
    assert commutator(u, Word()).is_identity()


@given(words, words)
def test_commutator_conventions_conjugate(u, v):
    # the two expansions are conjugate: [u,v]_gap = (vu)^-1 [u,v] (vu)
    default = commutator(u, v)
    gap = commutator(u, v, CONVENTION_GAP)
    assert gap == default.conjugated_by((v * u).inverse())


@given(words, st.sampled_from(GENS))
def test_substitute_identity(w, g):
    assert w.substitute(g, Word.gen(g)) == w


@given(words)
def test_cyclic_reduce_properties(w):
    core, conj = w.cyclic_reduce()
    assert len(core) <= len(w)
    assert core.conjugated_by(conj) == w
    if core:
        first, last = core.letters[0], core.letters[-1]
        assert not (first[0] == last[0] and first[1] == -last[1])


@given(words, st.integers(-4, 4))
def test_pow(w, n):
    expected = Word()
    base = w if n >= 0 else w.inverse()
    for _ in range(abs(n)):
        expected = expected * base
    assert w ** n == expected


# -- fast paths against full reduction ----------------------------------------
#
# Products, inverses and conjugates of reduced words cancel only at seams and
# skip the full reduction pass; the reference is Word() over the raw letters.

def raw_inverse(w):
    return [(g, -e) for g, e in reversed(w.letters)]


def assert_reduced_as(fast, raw_letters):
    assert fast == Word(raw_letters)
    assert Word(fast.letters) == fast  # nothing left to cancel


@st.composite
def cancelling_pairs(draw):
    """(u, v) where v starts with a prefix of u^-1, so u * v cancels deep."""
    u = draw(words)
    k = draw(st.integers(0, len(u)))
    return u, Word(raw_inverse(u)[:k] + list(draw(words).letters))


@given(st.one_of(st.tuples(words, words), cancelling_pairs()))
def test_seam_product_matches_full_reduction(pair):
    u, v = pair
    assert_reduced_as(u * v, u.letters + v.letters)
    assert_reduced_as(v * u, v.letters + u.letters)


@given(words)
def test_inverse_matches_full_reduction(w):
    assert_reduced_as(w.inverse(), raw_inverse(w))


@given(st.one_of(st.tuples(words, words), cancelling_pairs()))
def test_conjugated_by_matches_full_reduction(pair):
    u, w = pair
    assert_reduced_as(w.conjugated_by(u), list(u.letters + w.letters) + raw_inverse(u))
    assert_reduced_as(u.conjugated_by(w), list(w.letters + u.letters) + raw_inverse(w))


@given(st.lists(st.one_of(words, cancelling_pairs().map(lambda p: p[0] * p[1])),
                max_size=8),
       st.booleans())
def test_streaming_product_matches_full_reduction(ws, with_inverses):
    if with_inverses:  # every prefix cancels completely against its mirror
        ws = ws + [w.inverse() for w in reversed(ws)]
    product = _product([w.letters for w in ws])
    assert_reduced_as(product, [let for w in ws for let in w.letters])
    if with_inverses:
        assert product.is_identity()


@given(words)
def test_cyclic_reduce_matches_reference(w):
    core, conj = w.cyclic_reduce()
    assert Word(core.letters) == core and Word(conj.letters) == conj
    assert Word(list(conj.letters + core.letters) + raw_inverse(conj)) == w


def test_confluence_against_random_order_oracle():
    """Reduce by cancelling adjacent inverse pairs in random order; the
    result must match the canonical left-to-right reduction."""
    rng = random.Random(7)

    def oracle(seq, rng):
        seq = list(seq)
        while True:
            pairs = [i for i in range(len(seq) - 1)
                     if seq[i][0] == seq[i + 1][0]
                     and seq[i][1] == -seq[i + 1][1]]
            if not pairs:
                return tuple(seq)
            i = rng.choice(pairs)
            del seq[i:i + 2]

    for _ in range(500):
        seq = random_letters(rng, gens="ab", max_len=8)
        expected = free_reduce(seq).letters
        for _ in range(5):
            assert oracle(seq, rng) == expected
