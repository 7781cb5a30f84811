import random

import pytest

from fpverify import (
    CONVENTION_DEFAULT,
    CONVENTION_GAP,
    Presentation,
    Word,
    enumerate_cosets,
    homology_h1,
    parse_presentation,
    parse_word,
    permutation_action,
    verify_trivial,
)
from fpverify.certificates import _ProofLog
from fpverify.corpus import load_corpus_presentation
from fpverify.coset import (
    _COLUMN_BLOCK,
    STRATEGIES,
    CosetTable,
    _process_deductions,
    _run,
)

from conftest import random_small_presentation, random_word


# -- independent finite-group oracles ---------------------------------------

def closure_size(perms):
    """Order of the permutation group generated by perms (BFS closure)."""
    n = len(perms[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for p in perms:
            h = tuple(p[g[i]] for i in range(n))
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return len(seen)


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def test_s3_oracle():
    r, s = (1, 2, 0), (1, 0, 2)
    ident = (0, 1, 2)
    assert compose(r, compose(r, r)) == ident
    assert compose(s, s) == ident
    rs = compose(r, s)
    assert compose(rs, rs) == ident
    assert closure_size([r, s]) == 6


def quaternion_perms():
    """Left multiplication by i and j on the 8 quaternion units."""
    units = [(sign, axis) for axis in "eijk" for sign in (1, -1)]
    idx = {u: n for n, u in enumerate(units)}

    def mul(a, b):
        table = {("e", "e"): (1, "e"), ("e", "i"): (1, "i"),
                 ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
                 ("i", "e"): (1, "i"), ("i", "i"): (-1, "e"),
                 ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
                 ("j", "e"): (1, "j"), ("j", "i"): (-1, "k"),
                 ("j", "j"): (-1, "e"), ("j", "k"): (1, "i"),
                 ("k", "e"): (1, "k"), ("k", "i"): (1, "j"),
                 ("k", "j"): (-1, "i"), ("k", "k"): (-1, "e")}
        sign, axis = table[(a[1], b[1])]
        return (sign * a[0] * b[0], axis)

    out = []
    for g in ((1, "i"), (1, "j")):
        out.append(tuple(idx[mul(g, u)] for u in units))
    return out


def test_q8_oracle():
    perms = quaternion_perms()
    assert closure_size(perms) == 8


# -- enumeration over the battery -------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_battery_orders(battery_case, strategy):
    p, order = battery_case
    result = enumerate_cosets(p, (), strategy=strategy)
    assert result.completed and result.index == order
    assert result.index <= result.cosets_live_max <= result.cosets_defined_total


def test_strategies_agree(battery_case):
    p, _ = battery_case
    indices = {s: enumerate_cosets(p, (), strategy=s).index
               for s in STRATEGIES}
    assert len(set(indices.values())) == 1


def test_z3_permutation_action():
    p = parse_presentation("< a | a^3 >")
    result = enumerate_cosets(p, ())
    assert result.index == 3
    table = result.table
    act_a = permutation_action(table, Word.gen("a"))
    assert sorted(act_a) == [0, 1, 2] and act_a != (0, 1, 2)
    assert permutation_action(table, Word.gen("a", 3)) == (0, 1, 2)
    for r in p.relators:
        assert permutation_action(table, r) == tuple(range(result.index))


def test_permutation_action_is_homomorphism():
    p = parse_presentation("< r, s | r^3, s^2, (r s)^2 >")
    table = enumerate_cosets(p, ()).table
    u, v = parse_word("r s"), parse_word("s r^-1")
    au, av = permutation_action(table, u), permutation_action(table, v)
    composed = tuple(au[av[i]] for i in range(len(au)))
    assert composed == permutation_action(table, u * v)


def test_permutation_action_requires_complete_table():
    p = parse_presentation("< a | >")
    result = enumerate_cosets(p, (), max_cosets=10)
    assert result.status == "LimitExceeded"
    with pytest.raises(ValueError):
        permutation_action(result.table, Word.gen("a"))


def test_subgroup_index():
    s3 = parse_presentation("< r, s | r^3, s^2, (r s)^2 >")
    results = [enumerate_cosets(s3, (Word.gen("r"),), strategy=strategy)
               for strategy in STRATEGIES]
    for result in results:
        assert result.completed and result.index == 2
        assert result.table.trace_word(0, Word.gen("r")) == 0
        assert result.table.table == results[0].table.table


def test_felsch_stops_in_its_subgroup_scan():
    # closing the trace of a^5 at coset 0 needs four new cosets
    p = parse_presentation("< a | >")
    result = enumerate_cosets(p, (Word.gen("a", 5),), strategy="felsch",
                              max_cosets=3)
    assert result.status == "LimitExceeded"


@pytest.mark.parametrize("text, subgroup, index, first_definitions", [
    ("< a, b | a^2, b^3, (a b)^2 >", "b a b^-1", 3, [(0, "b")]),
    ("< a, b | a^2, b^3, (a b)^2 >", "a b a^-1", 2, [(0, "a")]),
    ("< a, b | a^2, b^3, (a b)^2 >", "a b a b^-1 a^-1", 3,
     [(0, "a"), (1, "b")]),
    ("< a, b | a^2, b^3, (a b)^5 >", "b a b a b^-1 a^-1 b^-1", 30,
     [(0, "b"), (1, "a"), (2, "b")]),
], ids=["b a b^-1", "a b a^-1", "nested-2", "nested-3"])
def test_a_conjugate_subgroup_word_fills_through_define(
        monkeypatch, text, subgroup, index, first_definitions):
    # at coset 0 a word u v u^-1 has f == b and word[j]^-1 == word[i]: the
    # first new entry also extends the backward trace, so the fill defines
    # one coset through define, not a chain that would overwrite it; each
    # index is |G| / |<w>| for the conjugate w of an element of order 2 or
    # 3 in S3 (order 6) or A5 (order 60)
    calls = []
    define = CosetTable.define

    def spy(ct, alpha, x):
        calls.append((alpha, ct.gens[x // 2]))
        return define(ct, alpha, x)

    monkeypatch.setattr(CosetTable, "define", spy)
    p = parse_presentation(text)
    w = parse_word(subgroup)
    results = []
    for strategy in STRATEGIES:
        calls.clear()
        result = enumerate_cosets(p, (w,), strategy=strategy)
        assert calls[:len(first_definitions)] == first_definitions, strategy
        assert result.completed and result.index == index, strategy
        assert result.table.trace_word(0, w) == 0
        results.append(result.table.table)
    assert results[0] == results[1]


# every run below stops at its limit with cosets_live_max == limit and
# cosets_defined_total == limit + coincidences; the coincidences so far
# step up at the limits given, and from the completing limit on, every
# run completes with the same record
LIMIT_SWEEP = [
    ("< a, b | a^2, b^3 >", "hlt", {1: 0}, None),
    ("< a, b | a^2, b^3 >", "felsch", {1: 0}, None),
    ("< a, b | a^2, b^3, (a b)^5 >", "hlt",
     {1: 0, 44: 1, 56: 2, 62: 7, 63: 9, 67: 14}, (68, 60, 82, 68, 22)),
    ("< a, b | a^2, b^3, (a b)^5 >", "felsch",
     {1: 0}, (60, 60, 60, 60, 0)),
]


@pytest.mark.parametrize("text, strategy, steps, completion", LIMIT_SWEEP,
                         ids=["modular-hlt", "modular-felsch",
                              "triangle-hlt", "triangle-felsch"])
def test_limit_sweep_counts(text, strategy, steps, completion):
    # a fill defines a gap as one chain of cosets; at the limit it must
    # stop after exactly the cosets that fit, as one definition at a time
    p = parse_presentation(text)
    for limit in range(1, 301):
        result = enumerate_cosets(p, (), strategy=strategy, max_cosets=limit)
        record = result.to_json()
        del record["elapsed_ms"]
        if completion is not None and limit >= completion[0]:
            index, defined, live_max, coincidences = completion[1:]
            expected = {"status": "Completed", "index": index,
                        "cosets_defined_total": defined,
                        "cosets_live_max": live_max,
                        "coincidences": coincidences}
        else:
            coincidences = steps[max(k for k in steps if k <= limit)]
            expected = {"status": "LimitExceeded", "index": None,
                        "cosets_defined_total": limit + coincidences,
                        "cosets_live_max": limit,
                        "coincidences": coincidences}
        assert record == dict(expected, strategy=strategy), limit


def test_felsch_compacts_during_the_run():
    # a group of order 10,752 over <a>, where a has order 8: half of the
    # cosets defined die, and the run ends with index > 1, so no index-1
    # shortcut skips the in-run compaction
    p = parse_presentation("< a, b | a^8, b^7, (a b)^2, (a^-1 b)^3 >")
    result = enumerate_cosets(p, (Word.gen("a"),), strategy="felsch")
    assert result.completed and result.index == 1344
    assert (result.cosets_defined_total, result.coincidences) == (2688, 1344)
    # one during the run, and the final renumbering
    assert result.compactions == 2
    assert result.index_one_live == 0


def test_a_partly_closed_row_does_not_stop_the_run(monkeypatch):
    # coset 0's row closes for a but not for b: a is trivial in the first
    # group, and <a> and <a^3> = <a> fix one of S3's three points; the run
    # over <a> merges no cosets
    looks = []
    row_zero_closed = CosetTable._row_zero_closed

    def spy(ct):
        a_fixed = any(ct.table[x][0] is not None and ct.rep(ct.table[x][0]) == 0
                      for x in (0, 1))
        looks.append((row_zero_closed(ct), a_fixed))
        return looks[-1][0]

    monkeypatch.setattr(CosetTable, "_row_zero_closed", spy)
    s3 = "< a, b | a^2, b^3, (a b)^2 >"
    cases = [("< a, b | a, b^3 >", ()),
             (s3, (Word.gen("a"),)),
             (s3, (Word.gen("a", 3),))]
    for text, subgroup in cases:
        for strategy in STRATEGIES:
            result = enumerate_cosets(parse_presentation(text), subgroup,
                                      strategy=strategy)
            assert result.completed and result.index == 3, (text, strategy)
            assert result.index_one_live == 0
    # the row was looked at after the coincidences of the first and the
    # last case, always with a fixing coset 0, and found open every time
    assert len(looks) == 5
    assert all(a_fixed and not closed for closed, a_fixed in looks)


@pytest.mark.parametrize("subgroup", ["", "a"], ids=["trivial", "a"])
def test_pi1_N_full_stops_mid_cascade(subgroup):
    # one entry per generator at coset 0, its own or its inverse's, in
    # coset 0's class proves index 1: a moved entry that cleared the other
    # one does not make the run wait for the cascade's end
    p = load_corpus_presentation("pi1-N-full.grp")
    for strategy in STRATEGIES:
        result = enumerate_cosets(p, [Word.gen(g) for g in subgroup],
                                  strategy=strategy)
        assert result.completed and result.index == 1
        assert result.index_one_live > 1, strategy


@pytest.mark.parametrize("text, subgroup", [
    ("< a | a^6 >", "a^5"),
    ("pi1-N-full.grp", "a"),
], ids=["cyclic-6", "pi1-N-full"])
def test_an_index_one_subgroup_leaves_one_row(text, subgroup):
    p = (load_corpus_presentation(text) if text.endswith(".grp")
         else parse_presentation(text))
    for strategy in STRATEGIES:
        result = enumerate_cosets(p, (parse_word(subgroup),),
                                  strategy=strategy)
        assert result.completed and result.index == 1
        assert result.index_one_live >= 1
        assert result.coincidences == result.cosets_defined_total - 1
        ct = result.table
        assert ct.p == [0] and ct.table == [[0]] * ct.ncols
        ct.validate()
        for g in p.generators:
            assert permutation_action(ct, Word.gen(g)) == (0,)
        assert permutation_action(ct, parse_word(subgroup)) == (0,)


def test_limit_exceeded_statistics():
    p = parse_presentation("< a | >")  # infinite cyclic
    result = enumerate_cosets(p, (), max_cosets=100)
    assert result.status == "LimitExceeded" and result.index is None
    assert result.cosets_live_max >= 100
    # abelianization proves nontrivial where enumeration is inconclusive
    assert homology_h1(p).free_rank == 1


# limits just below, at and past the columns' first growth
BOUNDARY_LIMITS = (_COLUMN_BLOCK - 1, _COLUMN_BLOCK, _COLUMN_BLOCK + 1)


def test_monotone_limits():
    p = parse_presentation("< r, s | r^3, s^2, (r s)^2 >")
    small = enumerate_cosets(p, (), max_cosets=20)
    assert small.completed
    for m in (50, 1000) + BOUNDARY_LIMITS:
        again = enumerate_cosets(p, (), max_cosets=m)
        assert again.completed and again.index == small.index
        assert all(len(c) == again.index for c in again.table.table)
    # cyclic groups whose tables end on either side of the first growth
    for order in BOUNDARY_LIMITS:
        cyclic = Presentation("a", [Word.gen("a", order)])
        results = [enumerate_cosets(cyclic, (), max_cosets=m)
                   for m in BOUNDARY_LIMITS]
        completed = [r.completed for r in results]
        assert completed == sorted(completed) and completed[-1]
        for result in results:
            if result.completed:
                assert result.index == order
                assert all(len(c) == order for c in result.table.table)


@pytest.mark.parametrize("text, limit, index, hlt_defined, hlt_coincidences", [
    ("< a, b | a^2, b^3, (a b)^5 >", 61, 60, 63, 2),
    ("< x, y | x^2, y^3, (x y)^4 >", 25, 24, 25, 0),
    ("< a, b | a^2, b^3, (a b)^7, [a, b]^4 >", 168, 168, 226, 58),
], ids=["(a b)^5", "(x y)^4", "[a, b]^4"])
def test_felsch_completes_where_hlt_stops(text, limit, index, hlt_defined,
                                          hlt_coincidences):
    p = parse_presentation(text)
    hlt = enumerate_cosets(p, (), strategy="hlt", max_cosets=limit)
    assert hlt.status == "LimitExceeded"
    assert (hlt.cosets_defined_total, hlt.coincidences) == (hlt_defined,
                                                          hlt_coincidences)
    result = enumerate_cosets(p, (), strategy="felsch", max_cosets=limit)
    assert result.completed and result.index == index
    # Felsch defines no coset it later merges on these inputs
    assert (result.cosets_defined_total, result.coincidences) == (index, 0)
    unlimited = enumerate_cosets(p, (), strategy="hlt")
    assert result.table.table == unlimited.table.table


MOVED_ENTRY_CASES = [
    # strategy, convention, file, defined, live_max, index_one_live,
    # deductions
    ("hlt", CONVENTION_DEFAULT, "pi1-N-full.grp", 1_340, 1_307, 342, 111),
    ("hlt", CONVENTION_DEFAULT, "pi1-N-reduced.grp",
     8_954, 8_610, 5_330, 978),
    ("hlt", CONVENTION_GAP, "pi1-N-full.grp", 7_685, 7_395, 4_823, 1_949),
    ("felsch", CONVENTION_DEFAULT, "pi1-N-full.grp", 877, 733, 411, 1_457),
    ("felsch", CONVENTION_DEFAULT, "pi1-N-reduced.grp",
     17_068, 16_657, 15_093, 24_548),
    ("felsch", CONVENTION_GAP, "pi1-N-full.grp", 3_154, 2_881, 1_550, 5_197),
]


@pytest.mark.parametrize(
    "strategy, convention, filename, defined, live_max, index_one_live, "
    "deductions",
    MOVED_ENTRY_CASES, ids=["-".join(case[:3]) for case in MOVED_ENTRY_CASES])
def test_strategies_process_coincidence_moved_entries(
        strategy, convention, filename, defined, live_max, index_one_live,
        deductions):
    # processing the entries each coincidence moves as deductions, and
    # the entries their scans close, cuts plain HLT's 17,203 and 32,774
    # definitions on the default inputs; the counts pin both strategies'
    # work in their shared driver.  The run stops once coset 0's row
    # closes, with index_one_live cosets live, but counts every coset it
    # would have merged after that
    p = load_corpus_presentation(filename, convention=convention)
    result = enumerate_cosets(p, (), strategy=strategy)
    assert result.completed and result.index == 1
    assert (result.cosets_defined_total, result.cosets_live_max,
            result.coincidences) == (defined, live_max, defined - 1)
    assert result.index_one_live == index_one_live
    assert result.deductions == deductions


def test_a_deduction_scan_pushes_the_entry_it_closes():
    # Felsch's rule applied to exhaustion: a scan without fill pushes the
    # entry it closes under both strategies, so its own relator cycles
    # are scanned in turn; HLT's fill scans push nothing
    for fill, pushed in ((False, [(2, 0)]), (True, [])):
        ct = CosetTable(parse_presentation("< a | a^3 >"))
        assert not ct.track_deductions
        ct.define(0, 0)
        ct.define(1, 0)
        assert ct.scan(0, ct.relator_cols, fill) == 1
        assert ct.table[0][2] == 0 and ct.table[1][0] == 2
        assert list(ct.deductions) == pushed


def test_deductions_are_scanned_in_the_order_they_were_pushed():
    # the queue is drained first in, first out: both seeded entries are
    # scanned, in the order they were pushed, before any entry their own
    # scans close
    ct = CosetTable(parse_presentation("< a, b | a^2, b^3, (a b)^5 >"))
    ct.define(0, 0)
    ct.define(0, 2)
    ct.deductions.extend([(0, 0), (0, 2)])
    scans = []
    scan = ct.scan

    def recording_scan(alpha, words, fill=False, k=0):
        if k == 0:
            scans.append((alpha, next(x for x, cycles in enumerate(ct.cycles)
                                      if cycles is words)))
        return scan(alpha, words, fill, k)

    ct.scan = recording_scan
    _process_deductions(ct)
    assert scans[:2] == [(0, 0), (0, 2)]
    assert len(scans) == ct.deductions_scanned > 2
    assert not ct.deductions


def test_gap_reduced_limit_run_is_pinned():
    # the GAP-convention pi1-N-reduced run to the 200,000-coset limit,
    # perfbench's enum-limit workload, does the same work whichever end
    # of the deduction queue is drained first; its counts are pinned
    p = load_corpus_presentation("pi1-N-reduced.grp", convention=CONVENTION_GAP)
    result = enumerate_cosets(p, (), strategy="hlt", max_cosets=200_000)
    assert result.status == "LimitExceeded"
    assert (result.cosets_defined_total, result.cosets_live_max,
            result.coincidences, result.deductions) == (
        204_297, 200_000, 4_297, 7_525)


def random_relators(rng, gens, count, max_len=8):
    """count nonempty cyclically reduced words over gens."""
    words = []
    while len(words) < count:
        core, _ = random_word(rng, gens, max_len).cyclic_reduce()
        if not core.is_identity():
            words.append(core)
    return words


# proper powers repeat their own rotations, and the last case holds a
# relator and a rotation of its inverse; no cyclically reduced word is a
# rotation of its own inverse, since a free group has no nontrivial
# element conjugate to its inverse
CONJUGATE_EDGE_CASES = ["< a | a^2 >", "< a, b | (a b)^2 >", "< a, b | [a, b] >",
                        "< a, b | a b^2 a^-1 b^-1, a b^-2 a^-1 b >"]


def test_one_scan_per_deduction_covers_both_directions():
    # the conjugates beginning with x^-1 are exactly the rotated inverses
    # x^-1 u^-1 of those x u beginning with x; scanned at alpha^x and at
    # alpha, the two of a pair walk the same closed path through the entry
    # (alpha, x), so a deduction that scans only the latter loses nothing
    rng = random.Random(14)
    presentations = [parse_presentation(t) for t in CONJUGATE_EDGE_CASES]
    for _ in range(100):
        gens = "abc"[:rng.choice((1, 2, 3))]
        presentations.append(Presentation(
            gens, random_relators(rng, gens, rng.randint(1, 4))))
    for p in presentations:
        ct = CosetTable(p)
        cycles = ct.cycles
        every = {tuple(base[k:] + base[:k])
                 for r in ct.relator_cols
                 for base in (r, [c ^ 1 for c in reversed(r)])
                 for k in range(len(r))}
        assert {tuple(w) for words in cycles for w in words} == every, p
        for x, words in enumerate(cycles):
            keys = [tuple(w) for w in words]
            assert len(set(keys)) == len(keys), (p, x)
            assert [len(w) for w in words] == sorted(map(len, words)), (p, x)
            rotated_inverses = {(x ^ 1, *(c ^ 1 for c in reversed(w[1:])))
                                for w in words}
            assert set(map(tuple, cycles[x ^ 1])) == rotated_inverses, (p, x)


def test_a_logged_table_scans_the_cycles_of_its_relators_and_lemmas():
    # lemmas join the log one at a time, as in a collapse derivation; a
    # lemma may be shorter than earlier relators, or a rotation of one or
    # of its inverse, and every table over p scans the cycles a fresh
    # table over p and the lemmas so far would
    rng = random.Random(15)
    for _ in range(40):
        gens = "abc"[:rng.choice((2, 3))]
        p = Presentation(gens, random_relators(rng, gens, rng.randint(1, 3)))
        rels = list(p.relators)
        log = _ProofLog()
        for _ in range(6):
            ct = CosetTable(p, log=log)
            assert ct.cycles is log.cycles
            assert ct.cycles == CosetTable(Presentation(gens, rels)).cycles, rels
            if rng.random() < 0.3:
                r = rng.choice(rels)
                r = r if rng.random() < 0.5 else r.inverse()
                k = rng.randrange(len(r))
                lemma = Word(r.letters[k:] + r.letters[:k])
            else:
                lemma = random_relators(rng, gens, 1, max_len=12)[0]
            log.add_relator(lemma)
            rels.append(lemma)


def test_an_index_one_stop_leaves_the_counts_right(monkeypatch):
    # _IndexOne leaves the coincidence mid-cascade; the merges it recorded
    # are counted by the time the table is replaced by its one-row quotient
    seen = []
    close = CosetTable._close_index_one

    def check_then_close(ct):
        roots = sum(c == r for c, r in enumerate(ct.p))
        seen.append(ct.live_count)
        assert ct.live_count == roots
        assert ct.defined_total - ct.coincidence_count == ct.live_count
        close(ct)

    monkeypatch.setattr(CosetTable, "_close_index_one", check_then_close)
    p = load_corpus_presentation("pi1-N-full.grp")
    for strategy in STRATEGIES:
        result = enumerate_cosets(p, (), strategy=strategy)
        assert result.index == 1
        assert result.index_one_live == seen[-1] > 1
        assert result.coincidences == result.cosets_defined_total - 1
    assert len(seen) == len(STRATEGIES)


def test_strategies_at_tight_limits_on_random_presentations():
    rng = random.Random(5)

    def word(shortest, longest):
        return Word((rng.choice("ab"), rng.choice((1, -1)))
                    for _ in range(rng.randint(shortest, longest)))

    rescued = 0
    for _ in range(100):
        w = word(3, 5)
        p = Presentation("ab", [parse_word("a^2"), parse_word("b^3"),
                                parse_word("a b") ** rng.randint(5, 8),
                                w ** rng.randint(2, 4)])
        subgroup = (word(1, 4),) if rng.random() < 0.4 else ()
        free = enumerate_cosets(p, subgroup, strategy="hlt", max_cosets=1500)
        if not free.completed:
            continue
        # limits from the index alone, so the cases checked do not move
        # with the counts of the code under test
        n = free.index
        for limit in sorted({n, n + n // 8, n + n // 4, n + n // 2, 2 * n}):
            hlt = enumerate_cosets(p, subgroup, strategy="hlt",
                                   max_cosets=limit)
            felsch = enumerate_cosets(p, subgroup, strategy="felsch",
                                      max_cosets=limit)
            for result in (hlt, felsch):
                if result.completed:
                    assert result.table.table == free.table.table, (
                        p, subgroup, limit, result.strategy)
            rescued += felsch.completed and not hlt.completed
    # felsch completions where hlt stops at the same limit, of 226 cases
    assert rescued == 69


def test_limit_keeps_a_consistent_table():
    p = parse_presentation("< a, b | a^2, b^3, (a b)^5 >")
    counts = {"hlt": (48, 1), "felsch": (47, 0)}
    # the modular group is infinite: every run stops at its limit
    modular = parse_presentation("< a, b | a^2, b^3 >")
    cases = [(p, 47)] + [(modular, limit) for limit in BOUNDARY_LIMITS]
    for strategy in STRATEGIES:
        for presentation, limit in cases:
            result = enumerate_cosets(presentation, (), strategy=strategy,
                                      max_cosets=limit)
            assert result.status == "LimitExceeded"
            if presentation is p:
                assert (result.cosets_defined_total,
                        result.coincidences) == counts[strategy]
            ct = result.table
            # dead rows are kept, not compacted
            n = len(ct.p)
            assert n - ct.live_count == result.coincidences
            assert ct.check_involution()
            for alpha in ct.live_cosets():
                assert all(beta is None or ct.p[beta] == beta
                           for beta in [c[alpha] for c in ct.table])
            # the columns share one length, and the slack past the cosets
            # is empty
            assert len({len(c) for c in ct.table}) == 1
            assert all(len(c) >= n and set(c[n:]) <= {None}
                       for c in ct.table)


def test_engines_agree_on_random_presentations():
    # the proof log keeps one proof node per table event, so it runs at
    # the same limit as the plain strategies
    limit = 64
    rng = random.Random(2)
    indices_seen = set()
    all_completed = 0
    for _ in range(150):
        p = random_small_presentation(rng)
        indices = {}
        for strategy in STRATEGIES:
            result = enumerate_cosets(p, (), strategy=strategy, max_cosets=limit)
            if result.completed:
                indices[strategy] = result.index
        table = CosetTable(p, max_cosets=limit, log=_ProofLog())
        if _run(table, "felsch"):
            indices["proof"] = table.live_count
        assert len(set(indices.values())) <= 1, (p, indices)
        if len(indices) == len(STRATEGIES) + 1:
            all_completed += 1
            indices_seen.add(indices["hlt"])
    assert all_completed >= 90 and len(indices_seen) >= 6


def test_proof_log_survives_a_coincidence_cascade():
    # a coincidence cascade whose proofs are too long to expand at this
    # limit; the log stores them as nodes and expands none of them
    p = parse_presentation("< a, b, c | 1, a^-1 b c^-1 a c^-1, b c^-1 >")
    felsch = enumerate_cosets(p, (), strategy="felsch", max_cosets=64)
    assert felsch.status == "LimitExceeded"
    table = CosetTable(p, max_cosets=64, log=_ProofLog())
    assert not _run(table, "felsch")
    assert table.coincidence_count > 0


def test_verify_trivial():
    ok, result = verify_trivial(parse_presentation("< a | a >"))
    assert ok and result.index == 1
    ok, result = verify_trivial(parse_presentation("< a | >"), max_cosets=50)
    assert not ok and result.status == "LimitExceeded"
    ok, _ = verify_trivial(parse_presentation("< a | a^3 >"))
    assert not ok  # completes with index 3: not trivial


def test_standardized_tables_are_deterministic():
    p = parse_presentation("< r, s | r^3, s^2, (r s)^2 >")
    t1 = enumerate_cosets(p, ()).table
    t2 = enumerate_cosets(p, ()).table
    assert t1.table == t2.table


def test_validate_and_involution():
    p = parse_presentation("< i, j | i^4, i^2 j^-2, j^-1 i j i >")
    result = enumerate_cosets(p, (), strategy="felsch")
    assert result.index == 8
    result.table.validate()
    assert result.table.check_involution()


def test_validate_rejects_an_entry_into_a_dead_coset():
    p = parse_presentation("< a, b | a^2, b^3, (a b)^2 >")
    ct = enumerate_cosets(p, ()).table
    # a dead copy of coset 1, merged into it, and one live entry into it
    copy = len(ct.p)
    for c in ct.table:
        c.append(c[1])
    ct.p.append(1)
    x = next(x for x, c in enumerate(ct.table) if c[0] == 1)
    ct.table[x][0] = copy
    assert ct.check_involution()
    with pytest.raises(AssertionError, match=f"= {copy} is not a live coset"):
        ct.validate()
    # and one past the last coset
    ct.table[x][0] = copy + 1
    with pytest.raises(AssertionError, match=f"= {copy + 1} is not a live coset"):
        ct.validate()


def test_validate_rejects_each_corruption_of_a_completed_table():
    s3 = parse_presentation("< a, b | a^2, b^3, (a b)^2 >")

    def completed(p, subgroup=()):
        ct = enumerate_cosets(p, subgroup).table
        ct.validate()
        return ct

    ct = completed(s3)
    ct.table[ct.alphabet.index[("b", 1)]][0] = None
    with pytest.raises(AssertionError, match="incomplete entry"):
        ct.validate()
    # b sends coset 0 to another live coset, which b^-1 does not send back
    ct = completed(s3)
    col = ct.table[ct.alphabet.index[("b", 1)]]
    col[0] = next(c for c in ct.live_cosets() if c != col[0])
    with pytest.raises(AssertionError, match="involution broken"):
        ct.validate()
    assert not ct.check_involution()
    # a acts as a transposition, consistently with a^-1, where a^3 = 1
    ct = completed(parse_presentation("< a | a^3 >"))
    for letter in (("a", 1), ("a", -1)):
        ct.table[ct.alphabet.index[letter]][:3] = [1, 0, 2]
    with pytest.raises(AssertionError, match="relator open at coset 0"):
        ct.validate()
    # the cosets of <a> with coset 0 swapped for one that a moves: every
    # relator still closes, but a no longer fixes coset 0
    ct = completed(s3, (Word.gen("a"),))
    beta = next(c for c in ct.live_cosets()
                if ct.table[ct.alphabet.index[("a", 1)]][c] != c)
    swap = {0: beta, beta: 0}
    for col in ct.table:
        old = list(col)
        for c in ct.live_cosets():
            col[swap.get(c, c)] = swap.get(old[c], old[c])
    with pytest.raises(AssertionError, match="subgroup generator moves"):
        ct.validate()


def test_bad_inputs():
    p = parse_presentation("< a | a^3 >")
    for strategy in ("nonsense", "hlt-lookahead"):
        with pytest.raises(ValueError):
            enumerate_cosets(p, (), strategy=strategy)
    with pytest.raises(ValueError):
        enumerate_cosets(p, (), max_cosets=0)
    with pytest.raises(ValueError):
        enumerate_cosets(p, (Word.gen("zz"),))
    table = enumerate_cosets(p, ()).table
    with pytest.raises(ValueError, match="unknown generators"):
        permutation_action(table, Word.gen("b"))
    with pytest.raises(ValueError, match="unknown generators"):
        table.trace_word(0, Word.gen("b"))
    s3 = enumerate_cosets(parse_presentation("< a, b | a^2, b^3, (a b)^2 >"),
                          ()).table
    for alpha in (-1, 7):
        with pytest.raises(ValueError, match="not a live coset"):
            s3.trace_word(alpha, Word.gen("a"))
