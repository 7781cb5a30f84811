import ast
import copy
import random
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, strategies as st

from fpverify import (
    Certificate,
    Derivation,
    Factor,
    NotFound,
    Word,
    check_equivalence,
    derivation_to_certificate,
    derive_all,
    derive_by_collapse,
    enumerate_cosets,
    parse_presentation,
    parse_word,
    permutation_action,
    search_certificate,
    verify_certificate,
    verify_derivation,
)
from fpverify import certificates, checker
from fpverify.certificates import (
    SearchStats,
    _collapse,
    _inline,
    _NewTrivialWord,
    _proof_to_factors,
    _ProofLog,
    certificate_product,
)
from fpverify.checker import (Alphabet, check_certificate, check_derivation,
                              product, read_certificate, read_derivation,
                              read_word)
from fpverify.corpus import load_corpus_presentation, load_scenario
from fpverify.coset import STRATEGIES, CosetTable, _run
from fpverify.words import _product

from conftest import random_small_presentation, random_word, schema


def test_relator_is_its_own_consequence():
    p = parse_presentation("< a, b | a b a^-1 b^-1 >")
    cert = Certificate(p.relators[0], (Factor(Word(), 0, 1),))
    assert verify_certificate(p, cert)


def test_empty_certificate_for_identity():
    p = parse_presentation("< a | a >")
    assert verify_certificate(p, Certificate(Word(), ()))


def test_hand_built_two_factor_certificate():
    # target [q^-1,c] from relators {[q^-1,c][g^-1,e], [g,e]}: the first
    # relator followed by the e-conjugated inverse of the second
    p = parse_presentation("< c, e, g, q | [q^-1, c] [g^-1, e], [g, e] >")
    target = parse_word("[q^-1, c]")
    # [g^-1,e] = g^-1 e g e^-1 cancels against g^-1 [g,e] g = e g^-1 e^-1 g
    cert = Certificate(target, (
        Factor(Word(), 0, 1),
        Factor(Word.gen("g", -1), 1, 1),
    ))
    assert verify_certificate(p, cert)
    # and the bounded search finds a witness on its own
    found = search_certificate(p, target, max_factors=4,
                               max_conjugator_len=6)
    assert verify_certificate(p, found)


def test_bad_certificate_rejected():
    p = parse_presentation("< a | a^2 >")
    bad = Certificate(Word.gen("a"), (Factor(Word(), 0, 1),))
    assert not verify_certificate(p, bad)
    with pytest.raises(IndexError):
        verify_certificate(p, Certificate(Word(), (Factor(Word(), 5, 1),)))
    with pytest.raises(ValueError):
        verify_certificate(p, Certificate(Word(), (Factor(Word(), 0, 2),)))


def test_search_on_trivial_group():
    p = parse_presentation("< a | a^2, a^3 >")
    cert = search_certificate(p, Word.gen("a"))
    assert verify_certificate(p, cert)


def test_search_exponent_obstruction():
    p = parse_presentation("< a, b | a^2 >")
    with pytest.raises(NotFound):
        search_certificate(p, Word.gen("b"), max_states=2_000)


def test_search_nontrivial_element_not_found():
    s3 = parse_presentation("< r, s | r^3, s^2, (r s)^2 >")
    with pytest.raises(NotFound):
        search_certificate(s3, Word.gen("r"), max_states=2_000)


def test_search_not_found_names_what_stopped_it():
    # the state budget stops the search for S3's nontrivial r; the words
    # within the length and factor bounds run out for b, of infinite order
    s3 = parse_presentation("< r, s | r^3, s^2, (r s)^2 >")
    with pytest.raises(NotFound, match=r"no certificate for r: "
                       r"max_states=2000 exhausted after 2003 states explored"):
        search_certificate(s3, Word.gen("r"), max_states=2_000)
    p = parse_presentation("< a, b | a^2 >")
    with pytest.raises(NotFound, match=r"no certificate for b: "
                       r"search space exhausted after 41 states explored"):
        search_certificate(p, Word.gen("b"), max_states=2_000)


def test_not_found_carries_the_counters_so_far():
    s3 = parse_presentation("< r, s | r^3, s^2, (r s)^2 >")
    with pytest.raises(NotFound) as search:
        search_certificate(s3, Word.gen("r"), max_states=2_000)
    stats = search.value.stats
    assert f"after {stats.states} states explored" in str(search.value)
    assert 1 <= stats.peak_heap <= stats.states
    # the collapse of S3 completes with six cosets
    with pytest.raises(NotFound, match="not certified trivial") as collapse:
        derive_by_collapse(s3, Word.gen("r"), max_cosets=500)
    stats = collapse.value.stats
    assert stats.enumerations >= 1 and stats.cosets_defined >= 6
    # the first lemma of this collapse is one more than max_steps allows
    p = parse_presentation("< a, b | a b a^-1 b^-2, b a b^-1 a^-2 >")
    with pytest.raises(NotFound, match="no derivation within 0 lemmas") as e:
        derive_by_collapse(p, Word.gen("a"), max_steps=0)
    assert (e.value.stats.enumerations, e.value.stats.lemmas) == (1, 1)
    # a NotFound raised without counters has none
    assert NotFound("no").stats is None


def test_search_results_reverify_and_act_trivially():
    s3 = parse_presentation("< r, s | r^3, s^2, (r s)^2 >")
    table = enumerate_cosets(s3, ()).table
    for text in ("r^6", "s r^3 s^-1", "(r s)^2 r^3", "s^2 r^-3"):
        target = parse_word(text)
        cert = search_certificate(s3, target)
        assert verify_certificate(s3, cert)
        # independent soundness witness: target acts as the identity
        assert permutation_action(table, target) == tuple(range(6))


def test_cancelling_pair_insensitivity():
    p = parse_presentation("< a, b | a b a^-1 b^-1, a^3 >")
    target = parse_word("a^3")
    cert = search_certificate(p, target)
    rng = random.Random(3)
    for _ in range(20):
        conj = random_word(rng, gens="ab", max_len=6)
        k = rng.randrange(len(cert.factors) + 1)
        ridx = rng.randrange(len(p.relators))
        factors = (cert.factors[:k]
                   + (Factor(conj, ridx, 1), Factor(conj, ridx, -1))
                   + cert.factors[k:])
        padded = Certificate(target, factors)
        assert verify_certificate(p, padded)


def test_inline_conjugates_and_inverts_a_lemma():
    p = parse_presentation("< a | a^2, a^3 >")
    n = len(p.relators)
    lemma = search_certificate(p, Word.gen("a")).factors
    # a^2 * a * a^-2, and a^-1, over the relators and the lemma a
    for u, sign, target in ((parse_word("a^2"), 1, "a"), (Word(), -1, "a^-1")):
        inlined = _inline((Factor(u, n, sign),), n, [lemma])
        assert all(f.relator_index < n for f in inlined)
        assert verify_certificate(p, Certificate(parse_word(target), inlined))
    # factors over the relators alone are kept as they are
    assert _inline(lemma, n, []) == lemma


def test_json_round_trip():
    p = parse_presentation("< a | a^2, a^3 >")
    cert = search_certificate(p, Word.gen("a"))
    again = Certificate.from_json(cert.to_json())
    assert again == cert and verify_certificate(p, again)
    # the search's counters are not part of the witness
    assert cert.stats is not None and again.stats is None
    assert "stats" not in cert.to_json()
    assert hash(again) == hash(cert)


def test_search_stats_count_the_states_and_the_heap():
    p = parse_presentation("< a | a^2, a^3 >")
    stats = search_certificate(p, Word.gen("a")).stats
    assert 1 < stats.states and 1 <= stats.peak_heap <= stats.states
    # the identity is found at the start, before any splice
    assert search_certificate(p, Word()).stats == SearchStats(1, 1)
    assert search_certificate(parse_presentation("< a | >"),
                              Word()).stats == SearchStats(1, 1)


def test_derive_all_with_lemma_layering():
    p = parse_presentation("< a | a^2, a^3 >")
    targets = [Word.gen("a"), Word.gen("a", 5)]
    certs = derive_all(p, targets)
    assert sorted(certs) == [0, 1]
    for i, cert in certs.items():
        assert cert.target == targets[i]
        assert verify_certificate(p, cert)


def test_check_equivalence_identity():
    p = parse_presentation("< a, b | a b a^-1 b^-1 >")
    identity = {g: Word.gen(g) for g in p.generators}
    certs = {0: Certificate(p.relators[0], (Factor(Word(), 0, 1),))}
    assert check_equivalence(p, p, identity, certs)
    # a certificate that verifies, but for the relator's inverse
    other = Certificate(p.relators[0].inverse(), (Factor(Word(), 0, -1),))
    assert verify_certificate(p, other)
    assert not check_equivalence(p, p, identity, {0: other})


def test_check_equivalence_wrong_dictionary():
    p1 = parse_presentation("< a | a^2, a^3 >")
    p2 = parse_presentation("< b | b^5 >")
    # b -> a is fine (a^5 is a consequence); b -> identity-violating word
    # with nonzero image in an incompatible group is not derivable
    assert check_equivalence(p1, p2, {"b": Word.gen("a")})
    p3 = parse_presentation("< a | a^4 >")
    assert not check_equivalence(
        p3, p2, {"b": Word.gen("a")}, state_budgets=(2_000,))


def test_check_equivalence_translates_every_letter_at_once():
    # a -> b, b -> a sends a^2 b^-1 to b^2 a^-1, not (a -> b first) b,
    # then (b -> a) a
    p2 = parse_presentation("< a, b | a^2 b^-1 >")
    swap = {"a": Word.gen("b"), "b": Word.gen("a")}
    # b^2 a^-1 is b^2 here, of infinite order
    assert not check_equivalence(parse_presentation("< a, b | a >"), p2,
                                 swap, state_budgets=(500,))
    # and here it is the relator itself
    assert check_equivalence(parse_presentation("< a, b | b^2 a^-1 >"), p2,
                             swap, state_budgets=(500,))


def test_check_equivalence_missing_dictionary_entry():
    p = parse_presentation("< a | a^2 >")
    with pytest.raises(KeyError):
        check_equivalence(p, p, {})


# -- derivation chains -------------------------------------------------------

def test_derivation_json_round_trip_and_verify():
    p = parse_presentation("< a | a^2, a^3 >")
    step1 = search_certificate(p, Word.gen("a"))
    step2 = Certificate(Word.gen("a", 2),
                        (Factor(Word(), 2, 1), Factor(Word(), 2, 1)))
    d = Derivation(Word.gen("a", 2), (step1, step2))
    assert verify_derivation(p, d)
    assert Derivation.from_json(d.to_json()) == d
    # tampering breaks it
    bad = Derivation(Word.gen("a", 3), d.steps)
    assert not verify_derivation(p, bad)


def test_empty_derivation():
    p = parse_presentation("< a | a >")
    assert verify_derivation(p, Derivation(Word(), ()))
    assert not verify_derivation(p, Derivation(Word.gen("a"), ()))


def test_derive_by_collapse_on_trivial_group():
    # a presented trivial group whose triviality needs a genuine collapse
    p = parse_presentation("< a, b | a b a^-1 b^-2, b a b^-1 a^-2 >")
    for gen in ("a", "b"):
        d = derive_by_collapse(p, Word.gen(gen))
        assert d.target == Word.gen(gen)
        assert verify_derivation(p, d)
        assert Derivation.from_json(d.to_json()) == d


def test_derive_by_collapse_rejects_nontrivial_group():
    s3 = parse_presentation("< r, s | r^3, s^2, (r s)^2 >")
    with pytest.raises(NotFound):
        derive_by_collapse(s3, Word.gen("r"), max_cosets=500)
    # an infinite group hits the limit, and the message says how far it got
    z = parse_presentation("< a | >")
    with pytest.raises(NotFound, match=r"after 0 lemmas \(50 live, 50 defined"):
        derive_by_collapse(z, Word.gen("a"), max_cosets=50)


def test_derive_by_collapse_memory_is_linear_on_an_infinite_group():
    # Z^2 never collapses, so the run defines cosets up to the limit; the
    # log keeps one proof node per table event and no definition words,
    # so its memory grows linearly with the cosets
    z2 = parse_presentation("< a, b | a b a^-1 b^-1 >")
    tracemalloc.start()
    try:
        with pytest.raises(NotFound, match="coset limit 4000 exceeded"):
            derive_by_collapse(z2, Word.gen("a"), max_cosets=4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_derive_by_collapse_keeps_the_logged_lemma_proofs(monkeypatch):
    # the collapse of this group surfaces lemmas; their certificates are
    # the proofs the log extracted, with no splice search behind them
    def no_search(*args, **kwargs):
        raise AssertionError("derive_by_collapse ran the splice search")

    monkeypatch.setattr(certificates, "search_certificate", no_search)
    p = parse_presentation("< a, b | a b a^-1 b^-2, b a b^-1 a^-2 >")
    d = derive_by_collapse(p, Word.gen("a"))
    assert len(d.steps) > 1
    assert verify_derivation(p, d)


# redundancy-nine's relators whose frozen derivations are collapse chains,
# with the number of steps a fresh derivation takes
DEEP_REDUNDANT = {5: 9, 6: 10, 7: 15, 8: 19, 9: 11, 11: 15, 15: 10}


@pytest.mark.parametrize("i", DEEP_REDUNDANT)
def test_deep_redundant_relators_derive_fresh(i):
    s = load_scenario("redundancy-nine")
    assert len(s.derivations()[i].steps) > 1
    full = s.presentation()
    rest = full.with_relators(
        [r for j, r in enumerate(full.relators) if j != i])
    d = derive_by_collapse(rest, full.relators[i])
    assert d.target == full.relators[i]
    assert len(d.steps) == DEEP_REDUNDANT[i]
    assert verify_derivation(rest, d)
    # every enumeration but the last stopped at a lemma, and pruning only
    # drops lemmas
    assert d.stats.enumerations == d.stats.lemmas + 1 >= len(d.steps)


def test_collapse_stats_count_the_work():
    s = load_scenario("redundancy-nine")
    full = s.presentation()
    rest = full.with_relators(full.relators[:15] + full.relators[16:])
    d = derive_by_collapse(rest, full.relators[15])
    assert (d.stats.enumerations, d.stats.lemmas, d.stats.cosets_defined) \
        == (10, 9, 1646)
    assert d.stats.longest_proof > 0
    # the counters are not part of the witness
    assert "stats" not in d.to_json()
    again = Derivation.from_json(d.to_json())
    assert again.stats is None and again == d


@pytest.mark.parametrize("convention, enumerations",
                         [("default", 10), ("gap", 15)])
def test_one_collapse_serves_a_trace_of_every_generator(convention,
                                                        enumerations):
    # the lemma steps of one collapse, followed by the trace of any word
    # through its one-coset table, make a derivation of that word
    p = load_corpus_presentation("pi1-N-full.grp", convention=convention)
    steps, log, stats = _collapse(p, 100_000, 500)
    assert stats.enumerations == enumerations == len(steps) + 1
    assert stats.lemmas == len(steps)
    for g in p.generators:
        for w in (Word.gen(g), Word.gen(g, -1)):
            trace = Certificate(w, _proof_to_factors(log.trace(w)))
            assert verify_derivation(p, Derivation(w, (*steps, trace)))


def test_target_outside_the_presentation_is_an_input_error(monkeypatch):
    # rejected before a search or an enumeration starts
    def no_work(*args, **kwargs):
        raise AssertionError("started work on a target it cannot derive")

    monkeypatch.setattr(certificates, "_splice_moves", no_work)
    monkeypatch.setattr(certificates, "CosetTable", no_work)
    p = parse_presentation("< a | a^2, a^3 >")
    for derive in (search_certificate, derive_by_collapse):
        with pytest.raises(ValueError, match="unknown generators"):
            derive(p, Word([("a", 1), ("z", 1)]))


def test_trace_must_return_to_the_base_coset():
    log = _ProofLog()
    ct = CosetTable(parse_presentation("< a | a^2 >"), log=log)
    assert _run(ct, "felsch") and ct.live_count == 2
    with pytest.raises(NotFound, match="does not return"):
        log.trace(Word.gen("a"))


def test_derivation_to_certificate():
    p = parse_presentation("< a | a^2, a^3 >")
    d = derive_by_collapse(p, Word.gen("a"))
    cert = derivation_to_certificate(p, d)
    assert cert.target == Word.gen("a")
    assert verify_certificate(p, cert)


def test_derivation_to_certificate_refuses_a_false_chain():
    # an empty chain derives only the identity, and a chain whose last
    # step proves another word derives nothing: neither is inlined
    p = parse_presentation("< a, b | a^2 >")
    b = Word.gen("b")
    with pytest.raises(ValueError, match="derivation of b does not verify"):
        derivation_to_certificate(p, Derivation(b, ()))
    step = Certificate(p.relators[0], (Factor(Word(), 0, 1),))
    assert verify_certificate(p, step)
    with pytest.raises(ValueError, match="derivation of b does not verify"):
        derivation_to_certificate(p, Derivation(b, (step,)))
    # the identity's empty chain is its empty certificate
    assert derivation_to_certificate(p, Derivation(Word(), ())) \
        == Certificate(Word(), ())


def test_derivation_to_certificate_bounds():
    p = parse_presentation("< a, b | a b a^-1 b^-2, b a b^-1 a^-2 >")
    d = derive_by_collapse(p, Word.gen("a"))
    with pytest.raises(NotFound):
        derivation_to_certificate(p, d, max_factors=1)


def test_certificate_product_matches_manual_expansion():
    p = parse_presentation("< a, b | a b a^-1 b^-1 >")
    rng = random.Random(5)
    for _ in range(50):
        factors = tuple(
            Factor(random_word(rng, gens="ab", max_len=5), 0,
                   rng.choice((1, -1)))
            for _ in range(rng.randrange(4)))
        manual = Word()
        for f in factors:
            r = p.relators[f.relator_index]
            if f.sign == -1:
                r = r.inverse()
            manual = manual * (f.conjugator * r * f.conjugator.inverse())
        assert certificate_product(p.relators, Certificate(manual, factors)) \
            == manual


# -- proof-logging enumeration -----------------------------------------------

TRIVIAL_GROUPS = (
    "< a | a^2, a^3 >",
    "< a, b | a b a^-1 b^-2, b a b^-1 a^-2 >",  # the collapse test group
    "< r, s | r^3, s^2, (r s)^2, r s r >",
    # a coincidence here moves an entry both of whose ends are dead
    "< a, b | a^-1 b a^-1, a^-1 b a^-1 b a^-1, a b^-1 a b^-2 >",
)


def expand(proof, relators):
    """Replace each "@k" symbol of a proof word by relator k (or its
    inverse) and freely reduce from raw letters."""
    out = []
    for name, sign in proof.letters:
        if name.startswith("@"):
            r = relators[int(name[1:])]
            out.extend(r.letters if sign == 1 else r.inverse().letters)
        else:
            out.append((name, sign))
    return Word(out)


def assert_entry_proofs(log, relators):
    """Every set entry of the logged table, in live and dead rows, and
    every merge bridge expands to what it claims; proofs and definition
    words are read through the log's own expansion."""
    W = log.coset_word
    for a in range(len(log.ct.p)):
        for x, b in enumerate([c[a] for c in log.ct.table]):
            if b is not None:
                assert expand(log.expand(log.proofs[x][a]), relators) == \
                    Word(W(a).letters + (log.alphabet.letters[x],)
                         + W(b).inverse().letters)
    for c, (parent, proof) in log.merged.items():
        assert expand(log.expand(proof), relators) == \
            Word(W(c).letters + W(parent).inverse().letters)


@pytest.mark.parametrize("text", TRIVIAL_GROUPS)
def test_proving_table_entry_proofs_expand_to_their_entries(text):
    p = parse_presentation(text)
    log = _ProofLog()
    ct = CosetTable(p, max_cosets=1000, log=log)
    assert _run(ct, "felsch")
    assert ct.live_count == 1
    assert log.merged  # the collapse went through merges
    assert_entry_proofs(log, p.relators)
    for g in p.generators:
        assert expand(log.trace(Word.gen(g)), p.relators) == Word.gen(g)

    # the lemma-surfacing run that derive_by_collapse makes stops mid-merge;
    # the entries recorded so far and the lemma's proof still hold
    log = _ProofLog(novelty=True)
    ct = CosetTable(p, max_cosets=1000, log=log)
    with pytest.raises(_NewTrivialWord) as lemma:
        _run(ct, "felsch")
    assert_entry_proofs(log, p.relators)
    assert expand(lemma.value.proof, p.relators) == lemma.value.word


@pytest.mark.parametrize("text", TRIVIAL_GROUPS)
def test_an_hlt_run_logs_every_fill_definition(text):
    # HLT's fill scans define a trace's gap as one chain of cosets, with a
    # log as without one, and the log records each coset of the chain
    p = parse_presentation(text)
    log = _ProofLog()
    ct = CosetTable(p, max_cosets=1000, log=log)
    assert _run(ct, "hlt") and ct.live_count == 1
    assert len(log.parent) == ct.defined_total
    assert_entry_proofs(log, p.relators)


def _counts(ct):
    return (ct.defined_total, ct.live_count, ct.live_max,
            ct.coincidence_count, ct.deductions_scanned)


def test_a_logged_table_is_the_plain_table():
    # the log is a pure hook: a logged table takes the steps of the plain
    # one, except that the plain one compacts and stops once coset 0's row
    # closes, which a table with a log never does
    rng = random.Random(2)
    runs = {"same": 0, "compacted": 0, "index one": 0}
    for _ in range(150):
        p = random_small_presentation(rng)
        for strategy in STRATEGIES:
            plain = CosetTable(p, max_cosets=64)
            log = _ProofLog()
            logged = CosetTable(p, max_cosets=64, log=log)
            completed = _run(plain, strategy)
            if _run(logged, strategy):
                assert_entry_proofs(log, p.relators)
            if plain.index_one_live:
                runs["index one"] += 1
                assert logged.live_count == 1 or not logged.complete
                continue
            assert logged.complete == completed, (p, strategy)
            assert _counts(logged) == _counts(plain), (p, strategy)
            if plain.compactions:
                # the same table up to the plain one's renumbering
                runs["compacted"] += 1
                logged.compact()
                plain.compact()
            else:
                runs["same"] += 1
                assert logged.p == plain.p, (p, strategy)
            n = len(plain.p)
            assert [c[:n] for c in logged.table] == \
                [c[:n] for c in plain.table], (p, strategy)
    assert runs["same"] >= 250 and runs["compacted"] and runs["index one"]


def test_a_proof_log_needs_the_trivial_subgroup():
    # the log proves entries from relator factors, and has none for a
    # subgroup word
    p = parse_presentation("< a, b | a^2, b^3 >")
    with pytest.raises(ValueError, match="trivial subgroup"):
        CosetTable(p, (parse_word("b"),), log=_ProofLog())
    CosetTable(p, (), log=_ProofLog())


def test_a_proof_log_extends_its_factors_by_add_relator():
    # derive_by_collapse runs every enumeration over p with one log and
    # appends each lemma to it; each new cyclic conjugate of a relator or
    # its inverse gets a factor, and the log refuses a table of another
    # presentation
    log = _ProofLog(novelty=True)
    p = parse_presentation("< a, b | a b a^-1 b^-2 >")
    CosetTable(p, log=log)
    assert len(log.factors) == 10  # five rotations of the relator and its inverse
    log.add_relator(parse_word("a^3"))
    assert len(log.factors) == 12
    log.add_relator(parse_word("b^-2 a b a^-1"))  # a rotation of relator 0
    assert len(log.factors) == 12 and len(log.relators) == 3
    for key, factor in log.factors.items():
        # u^-1 @k^s u expands to the cycle, and k is the relator's index
        cycle = Word(log.alphabet.letters[x] for x in key)
        assert expand(factor.word, log.relators) == cycle
        symbol = "@1" if cycle.generators() == {"a"} else "@0"
        assert symbol in factor.word.generators()
    assert CosetTable(p, log=log).cycles is log.cycles
    with pytest.raises(ValueError, match="one presentation"):
        CosetTable(parse_presentation("< a, b | a^2 >"), log=log)


# -- typed witness loading ---------------------------------------------------

def _sample_certificate():
    cert = Certificate(Word.gen("a", -1), (
        Factor(Word([("b", 1), ("a", -1)]), 1, 1),
        Factor(Word(), 0, -1),
    ))
    return cert.to_json()


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    _get(doc, path[:-1])[path[-1]] = value
    return doc


MISTYPED = [
    (("factors", 0, "sign"), True),
    (("factors", 1, "sign"), False),
    (("factors", 0, "sign"), 2),
    (("factors", 0, "relator"), True),
    (("factors", 0, "relator"), "1"),
    (("factors", 0, "relator"), -1),
    (("target", 0, 1), True),
    (("target", 0, 1), 2),
    (("factors", 0, "conjugator", 0, 1), True),
    (("factors", 0, "conjugator", 0, 0), 7),
    (("factors", 0, "conjugator", 0, 0), "1b"),
    (("factors", 0, "conjugator", 0), ["b", 1, 1]),
]


@pytest.mark.parametrize("path, value", MISTYPED,
                         ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v in MISTYPED])
def test_from_json_rejects_what_the_schemas_reject(path, value):
    good = _sample_certificate()
    assert Certificate.from_json(good).to_json() == good
    bad = _set(good, path, value)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema("certificate"))
    with pytest.raises(ValueError):
        Certificate.from_json(bad)

    derivation = {"target": bad["target"], "steps": [good, bad]}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(derivation, schema("derivation"))
    with pytest.raises(ValueError):
        Derivation.from_json(derivation)


@pytest.mark.parametrize("path", [("factors", 0, "sign"), ("factors", 0, "relator"),
                                  ("factors", 0, "conjugator", 1, 1)])
def test_from_json_rejects_integral_floats(path):
    # JSON Schema lets 1.0 stand for 1; the loader takes only the integers
    # that to_json writes
    good = _sample_certificate()
    bad = _set(good, path, float(_get(good, path)))
    with pytest.raises(ValueError):
        Certificate.from_json(bad)


# every shape of malformed document, and the field its ValueError names
MALFORMED_CERTIFICATES = [
    ([], "certificate must be an object"),
    ({"target": 5, "factors": []}, "target must be a list"),
    ({"target": [], "factors": None}, "factors must be a list"),
    ({"target": [], "factors": [5]}, r"factors\[0\]: factor must be an object"),
    ({"factors": []}, "certificate has no 'target' field"),
    ({"target": []}, "certificate has no 'factors' field"),
    ({"target": [], "factors": [{"relator": 0, "sign": 1}]},
     r"factors\[0\]: factor has no 'conjugator' field"),
    ({"target": [], "factors": [{"conjugator": [], "sign": 1}]},
     r"factors\[0\]: factor has no 'relator' field"),
    ({"target": [], "factors": [{"conjugator": [], "relator": 0}]},
     r"factors\[0\]: factor has no 'sign' field"),
    ({"target": [], "factors": [{"conjugator": 5, "relator": 0, "sign": 1}]},
     r"factors\[0\]: conjugator must be a list"),
    ({"target": [5], "factors": []}, "target letter must be"),
    ({"target": [[["a"], 1]], "factors": []}, "target letter must be"),
]

MALFORMED_DERIVATIONS = [
    ([], "derivation must be an object"),
    ({"target": 5, "steps": []}, "target must be a list"),
    ({"target": [], "steps": "x"}, "steps must be a list"),
    ({"steps": []}, "derivation has no 'target' field"),
    ({"target": []}, "derivation has no 'steps' field"),
]


@pytest.mark.parametrize("doc, field", MALFORMED_CERTIFICATES,
                         ids=[f for _, f in MALFORMED_CERTIFICATES])
def test_a_malformed_certificate_is_a_value_error_naming_its_field(doc, field):
    with pytest.raises(ValueError, match=field):
        Certificate.from_json(doc)
    good = _sample_certificate()
    with pytest.raises(ValueError, match=r"steps\[1\]: " + field):
        Derivation.from_json({"target": [], "steps": [good, doc]})


@pytest.mark.parametrize("doc, field", MALFORMED_DERIVATIONS,
                         ids=[f for _, f in MALFORMED_DERIVATIONS])
def test_a_malformed_derivation_is_a_value_error_naming_its_field(doc, field):
    with pytest.raises(ValueError, match=field):
        Derivation.from_json(doc)


# -- witness kernels ---------------------------------------------------------

json_letters = st.lists(st.tuples(st.sampled_from(("a", "b", "c_1", "Z")),
                                  st.sampled_from((1, -1))), max_size=40)


def word_from_json(pairs, alphabet: Alphabet) -> Word:
    """The Word of a JSON word, as the from_json loaders read it."""
    return alphabet.decode(read_word(pairs, alphabet))


@given(json_letters, json_letters)
def test_word_from_json_reduces_as_word_does(first, second):
    # unreduced input included; a second word of the same document reads
    # the names the first one checked
    alphabet = Alphabet()
    for letters in (first, second, first + second):
        codes = read_word([[g, e] for g, e in letters], alphabet)
        w = alphabet.decode(codes)
        assert w == Word(letters)
        assert Word(w.letters) == w  # nothing left to cancel
        assert all(a != b ^ 1 for a, b in zip(codes, codes[1:]))
        assert alphabet.encode(w.letters) == codes


# names and exponents the schema accepts or rejects, and letters of the
# wrong shape; no integral floats, which JSON Schema lets stand for
# integers (see test_from_json_rejects_integral_floats)
LETTER_NAMES = ("a", "x_2", "1b", "", "a-b", "ab ", 7, None, True, ["a"])
LETTER_EXPONENTS = (1, -1, 0, 2, True, False, "1", None)
MISSHAPEN_LETTERS = (["a"], ["a", 1, 1], ("a", 1), "a", 5, None)


def test_word_from_json_rejects_exactly_what_the_schema_rejects():
    accepted = 0
    for letter in ([[g, e] for g in LETTER_NAMES for e in LETTER_EXPONENTS]
                   + list(MISSHAPEN_LETTERS)):
        # alone, and between valid letters whose names are already checked
        for word in ([letter], [["a", 1], letter, ["a", -1], ["b", 1]]):
            try:
                jsonschema.validate({"target": word, "factors": []},
                                    schema("certificate"))
            except jsonschema.ValidationError:
                for alphabet in (Alphabet(), Alphabet(["a"])):
                    with pytest.raises(ValueError):
                        read_word(word, alphabet)
            else:
                assert word_from_json(word, Alphabet()) == Word(map(tuple, word))
                accepted += 1
    # a and x_2 to the power 1 and -1, in both places
    assert accepted == 8


def test_word_from_json_rejects_the_mistyped_letters():
    # each MISTYPED value inside a word, read through the word's own
    # loader, also after the good names are checked
    good = _sample_certificate()
    for path, value in MISTYPED:
        key = "target" if "target" in path else "conjugator"
        if key not in path:
            continue
        word_path = path[:path.index(key) + 1]
        bad = _get(_set(good, path, value), word_path)
        with pytest.raises(ValueError):
            read_word(bad, Alphabet())
        alphabet = Alphabet()
        read_word(_get(good, word_path), alphabet)
        with pytest.raises(ValueError):
            read_word(bad, alphabet)


def word_level_product(relators, factors) -> Word:
    """The product certificate_product computes, by the Word-level
    _product of u, r^sign, u^-1 for each factor."""
    return _product([w.letters for f in factors
                     for w in (f.conjugator, relators[f.relator_index] ** f.sign,
                               f.conjugator.inverse())])


def raw_product(relators, factors) -> Word:
    """The same product, freely reduced from its raw letters."""
    return Word([let for f in factors
                 for w in (f.conjugator, relators[f.relator_index] ** f.sign,
                           f.conjugator.inverse())
                 for let in w.letters])


kernel_words = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
                        max_size=8).map(Word)


@st.composite
def certificate_factors(draw):
    """Relators and factors whose conjugators are empty, free, or start
    like the last conjugator, so that they cancel across factor seams."""
    relators = tuple(draw(st.lists(kernel_words, min_size=1, max_size=4)))
    factors = []
    last = Word()
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("empty", "free", "seam")))
        if kind == "empty":
            u = Word()
        elif kind == "free":
            u = draw(kernel_words)
        else:
            k = draw(st.integers(0, len(last)))
            u = Word(last.letters[:k] + draw(kernel_words).letters)
        factors.append(Factor(u, draw(st.integers(0, len(relators) - 1)),
                              draw(st.sampled_from((1, -1)))))
        last = u
    return relators, tuple(factors)


@given(certificate_factors())
def test_certificate_product_matches_the_word_level_product(case):
    relators, factors = case
    product = certificate_product(relators, Certificate(Word(), factors))
    assert product == word_level_product(relators, factors)
    assert product == raw_product(relators, factors)
    # the checker's loop on integer letters, fed the factors' JSON
    alphabet = Alphabet()
    words = [alphabet.encode(r.letters) for r in relators]
    _, read = read_certificate(Certificate(Word(), factors).to_json(),
                               alphabet)
    assert alphabet.decode(checker_product(words, read)) == product
    # the factors followed by their inverses in reverse multiply out to 1
    n = len(relators)
    mirror = factors + _inline((Factor(Word(), n, -1),), n, [factors])
    assert certificate_product(relators, Certificate(Word(), mirror)).is_identity()


checker_product = product


@given(st.lists(kernel_words, min_size=1, max_size=3), st.data())
def test_inline_keeps_the_product_of_a_lemma_chain(relators, data):
    # each step is drawn over the relators and the products of the steps
    # before it, and is inlined over the relators alone: it multiplies
    # out to the same word either way, with lemmas nested, inverted and
    # conjugated
    relators = tuple(relators)
    n = len(relators)
    flat: list = []
    for _ in range(3):
        factors = tuple(data.draw(st.lists(st.builds(
            Factor, kernel_words, st.integers(0, len(relators) - 1),
            st.sampled_from((1, -1))), max_size=4)))
        product = certificate_product(relators, Certificate(Word(), factors))
        flat.append(_inline(factors, n, flat))
        assert certificate_product(
            relators[:n], Certificate(Word(), flat[-1])) == product
        relators += (product,)


# (scenario, frozen witness file key, key of the presentation it is over)
FROZEN_CERTIFICATES = [
    ("elimination-y-w", "full_from_raw", "eliminated"),
    ("elimination-y-w", "raw_from_full", "massaged"),
    ("derive-qc-commute", "certificates", "base"),
    ("derive-cx-commute", "certificates", "base"),
    ("derive-gx2", "certificates", "base"),
    ("conjugacy-x", "certificates", "base"),
]


def test_certificate_product_matches_on_every_frozen_witness():
    checked = 0
    for sid, key, over in FROZEN_CERTIFICATES:
        s = load_scenario(sid)
        relators = s.presentation(over).relators
        for cert in s.certificates(key).values():
            product = certificate_product(relators, cert)
            assert product == word_level_product(relators, cert.factors)
            assert product == cert.target
            checked += 1
    s = load_scenario("redundancy-nine")
    full = s.presentation()
    for i, d in s.derivations().items():
        relators = [r for j, r in enumerate(full.relators) if j != i]
        for step in d.steps:
            product = certificate_product(tuple(relators), step)
            assert product == word_level_product(relators, step.factors)
            assert product == step.target
            relators.append(step.target)
            checked += 1
    assert checked > 100


def logged_run(p, raise_at=None):
    """A proof-logged Felsch run over p whose log raises _NewTrivialWord
    at its raise_at-th merge; returns the table, the merges the log was
    shown, and coincidence_count when the last coincidence began."""
    log = _ProofLog()
    ct = CosetTable(p, max_cosets=1000, log=log)
    shown = []
    began = [0]
    merge, coincidence = log.merge, ct.coincidence

    def raising_merge(a, b, proof):
        shown.append((a, b))
        if len(shown) == raise_at:
            raise _NewTrivialWord(Word(), Word())
        merge(a, b, proof)

    def counted(*args):
        began[0] = ct.coincidence_count
        return coincidence(*args)

    log.merge, ct.coincidence = raising_merge, counted
    try:
        assert _run(ct, "felsch") and raise_at is None
    except _NewTrivialWord:
        assert raise_at is not None
    return ct, len(shown), began[0]


@pytest.mark.parametrize("text", TRIVIAL_GROUPS)
def test_a_lemma_raised_mid_cascade_leaves_the_counts_right(text):
    # the log may raise _NewTrivialWord at any merge it is shown, also a
    # merge forced deep in a cascade; a log that raises at its m-th merge,
    # for every m, leaves the merges recorded before it counted
    p = parse_presentation(text)
    _, shown, _ = logged_run(p)
    mid_cascade = 0
    for m in range(1, shown + 1):
        ct, _, began = logged_run(p, raise_at=m)
        roots = sum(c == r for c, r in enumerate(ct.p))
        assert ct.live_count == roots
        assert ct.coincidence_count == len(ct.p) - roots
        assert ct.defined_total == len(ct.p)
        mid_cascade += ct.coincidence_count > began
    assert mid_cascade > 0


# -- the one-pass checker against the object path -----------------------------

def test_the_checker_imports_no_module_of_fpverify_but_words():
    # a reader who trusts a verdict reads checker.py and words.py, and not
    # the engines that found the witness, even those that share its letters
    tree = ast.parse(Path(checker.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                imported.add(node.module)
            elif node.module:  # relative to the fpverify package
                imported.add(f"fpverify.{node.module}")
            else:
                imported.update(f"fpverify.{alias.name}"
                                for alias in node.names)
    assert {m for m in imported if m.split(".")[0] == "fpverify"} == \
        {"fpverify.words"}


def one_pass(p, doc, target) -> bool:
    """The replay's verdict on a JSON certificate over p for target."""
    alphabet = Alphabet(p.generators)
    frozen, factors = read_certificate(doc, alphabet)
    return (frozen == alphabet.encode(target.letters) and check_certificate(
        [alphabet.encode(r.letters) for r in p.relators], frozen, factors))


def one_pass_chain(p, doc, target) -> bool:
    """The replay's verdict on a JSON derivation over p for target."""
    alphabet = Alphabet(p.generators)
    frozen, steps = read_derivation(doc, alphabet)
    return (frozen == alphabet.encode(target.letters) and check_derivation(
        [alphabet.encode(r.letters) for r in p.relators], frozen, steps))


def by_objects(p, doc, target) -> bool:
    cert = Certificate.from_json(doc)
    return cert.target == target and verify_certificate(p, cert)


def by_objects_chain(p, doc, target) -> bool:
    d = Derivation.from_json(doc)
    return d.target == target and verify_derivation(p, d)


def frozen_documents():
    """(presentation, JSON certificate, its target) for every frozen
    certificate and every step of every frozen derivation, each step over
    the relators plus the targets of the steps before it."""
    def documents(s, key):
        return s.witnesses(key, lambda doc: doc)

    for sid, key, over in FROZEN_CERTIFICATES:
        s = load_scenario(sid)
        p = s.presentation(over)
        for doc in documents(s, key).values():
            yield p, doc, Certificate.from_json(doc).target
    s = load_scenario("redundancy-nine")
    full = s.presentation()
    for i, doc in documents(s, "derivations").items():
        relators = [r for j, r in enumerate(full.relators) if j != i]
        for step in doc["steps"]:
            target = Certificate.from_json(step).target
            yield full.with_relators(relators), step, target
            relators.append(target)


def _flip_first_letter(f):
    f["conjugator"][0][1] *= -1


JSON_MUTATIONS = {
    "sign": lambda f, n: f.update(sign=-f["sign"]),
    "relator": lambda f, n: f.update(relator=(f["relator"] + 1) % n),
    "conjugator": lambda f, n: f["conjugator"] and _flip_first_letter(f),
}


def json_mutations(doc, relators):
    """Each kind of single mutation of a JSON certificate over relators,
    applied to its first factor whose value u r^s u^-1 it changes, and
    the certificate with its first factor dropped."""
    def value(f):
        cert = Certificate.from_json({"target": [], "factors": [f]})
        [g] = cert.factors
        r = relators[g.relator_index]
        return (r if g.sign == 1 else r.inverse()).conjugated_by(g.conjugator)

    for kind, mutate in JSON_MUTATIONS.items():
        for k, f in enumerate(doc["factors"]):
            bad = copy.deepcopy(doc)
            if mutate(bad["factors"][k], len(relators)) is None \
                    and bad != doc and value(bad["factors"][k]) != value(f):
                yield kind, bad
                break
    if doc["factors"]:
        yield "dropped", {**doc, "factors": doc["factors"][1:]}


def test_both_paths_give_one_verdict_on_every_frozen_witness():
    kinds = set()
    n = 0
    for p, doc, target in frozen_documents():
        assert one_pass(p, doc, target) and by_objects(p, doc, target)
        for kind, bad in json_mutations(doc, p.relators):
            assert not one_pass(p, bad, target), kind
            assert not by_objects(p, bad, target), kind
            kinds.add(kind)
        n += 1
    assert kinds == {"sign", "relator", "conjugator", "dropped"} and n > 200


def test_both_paths_give_one_verdict_on_every_frozen_chain():
    s = load_scenario("redundancy-nine")
    full = s.presentation()
    chains = s.witnesses("derivations", lambda doc: doc)
    for i, doc in chains.items():
        rest = full.with_relators(
            [r for j, r in enumerate(full.relators) if j != i])
        target = full.relators[i]
        assert one_pass_chain(rest, doc, target)
        assert by_objects_chain(rest, doc, target)
        # checked against another relator's target
        other = full.relators[(i + 1) % len(full.relators)]
        assert not one_pass_chain(rest, doc, other)
        assert not by_objects_chain(rest, doc, other)
        # and with its last step mutated
        relators = rest.relators + tuple(
            Certificate.from_json(step).target for step in doc["steps"][:-1])
        for kind, bad in json_mutations(doc["steps"][-1], relators):
            chain = {**doc, "steps": doc["steps"][:-1] + [bad]}
            assert not one_pass_chain(rest, chain, target), (i, kind)
            assert not by_objects_chain(rest, chain, target), (i, kind)


@pytest.mark.parametrize("doc", [
    doc for doc, _ in MALFORMED_CERTIFICATES + MALFORMED_DERIVATIONS])
def test_both_paths_reject_a_malformed_document_with_one_message(doc):
    for read_json, read in ((Certificate.from_json, read_certificate),
                            (Derivation.from_json, read_derivation)):
        with pytest.raises(ValueError) as by_objects:
            read_json(doc)
        with pytest.raises(ValueError) as by_one_pass:
            read(doc, Alphabet())
        assert str(by_one_pass.value) == str(by_objects.value)
