import random
import time
from collections import Counter

import pytest

import fpverify.corpus as corpus
from fpverify import (
    STRATEGIES,
    Certificate,
    Derivation,
    Factor,
    NotFound,
    Presentation,
    Word,
    enumerate_cosets,
    homology_h1,
    parse_presentation,
    parse_word,
    run_all,
    verify,
    verify_certificate,
)
from fpverify.corpus import Scenario, list_scenarios

from conftest import random_small_presentation


def test_report_step_times_add_up_to_the_run():
    for report in run_all():
        assert report.steps, report.scenario
        for step in report.steps:
            assert step.elapsed_ms > 0, (report.scenario, step.name)
        total = sum(step.elapsed_ms for step in report.steps)
        assert total <= report.elapsed_ms, report.scenario
        # the run outside its steps is only the pipeline dispatch
        assert report.elapsed_ms - total < 0.05 * report.elapsed_ms + 1.0, \
            (report.scenario, total, report.elapsed_ms)


def test_report_time_includes_loading(monkeypatch):
    load = verify.load_scenario

    def slow_load(scenario_id):
        time.sleep(0.02)
        return load(scenario_id)

    monkeypatch.setattr(verify, "load_scenario", slow_load)
    report = verify.run_scenario("derive-gx2")
    assert report.elapsed_ms >= 20
    # the first step absorbs the load, so step times still add up
    assert report.steps[0].elapsed_ms >= 20


def test_redundancy_loads_its_chains_in_a_step_of_their_own():
    # parsing the frozen chains takes most of the scenario's set-up; the
    # relator steps after it time only their checks
    report = verify.run_scenario("redundancy-nine")
    assert report.status == "pass"
    manifest, load, first = report.steps[:3]
    assert manifest.name == "manifest"
    expected = corpus.load_scenario("redundancy-nine").expected
    assert (load.name, first.name) == (
        "load-derivations", f"relator-{expected['certified_indices'][0]}")
    assert load.detail == {"chains": len(expected["certified_indices"])}


def test_presentation_scenario_computes_h1_once(monkeypatch):
    calls = []
    homology_h1 = verify.homology_h1
    monkeypatch.setattr(verify, "homology_h1",
                        lambda p: calls.append(p) or homology_h1(p))
    report = verify.run_scenario("pi1-N-full")
    assert report.status == "pass"
    assert {"h1", "h1-cross-check"} <= {s.name for s in report.steps}
    assert len(calls) == 1


def test_every_scenario_matches_exactly_one_pipeline():
    pipelines = {s.id: verify._pipeline(s) for s in list_scenarios()}
    assert set(pipelines.values()) == set(verify._PIPELINES.values())
    assert pipelines["redundancy-nine"] is verify._run_redundancy_scenario
    for expected in ({"trivial": True}, {"target": "a", "eliminate": ["b"]}):
        s = Scenario("made-up", "", {}, expected, "", "")
        with pytest.raises(KeyError, match="made-up"):
            verify._pipeline(s)


def test_gap_redundancy_derives_by_collapse_alone(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("search_certificate called")

    monkeypatch.setattr(verify, "search_certificate", no_search)
    report = verify.run_scenario("redundancy-nine", convention="gap")
    assert report.status == "pass"
    count = next(s for s in report.steps if s.name == "count")
    assert count.detail["certified"] == 11
    # each fresh derivation reports its collapse counters
    relators = {s.name: s.detail for s in report.steps
                if s.name.startswith("relator-")}
    assert len(relators) == 11
    for detail in relators.values():
        assert detail["enumerations"] == detail["lemmas"] + 1
        assert detail["cosets_defined"] > 0 and detail["longest_proof"] > 0
    assert {k: relators["relator-15"][k] for k in
            ("enumerations", "lemmas", "cosets_defined")} \
        == {"enumerations": 19, "lemmas": 18, "cosets_defined": 4069}


def test_run_all_reads_each_file_once_per_run(monkeypatch):
    # one run reads the manifest, the registry and every file a scenario
    # names once, parses the registry once, from the bytes its manifest
    # steps hash, and parses each presentation file once; a second run
    # reads and parses them all again, because nothing is kept between runs
    named = {name for s in list_scenarios() for name in s.files.values()}
    reads, parses, registries = Counter(), Counter(), Counter()
    read, parse = corpus._read, corpus.parse_presentation
    registry = corpus._registry
    monkeypatch.setattr(corpus, "_read",
                        lambda name: reads.update([name]) or read(name))
    monkeypatch.setattr(corpus, "parse_presentation", lambda text, **kw:
                        parses.update([text]) or parse(text, **kw))
    monkeypatch.setattr(corpus, "_registry", lambda data, snapshot:
                        registries.update([data]) or registry(data, snapshot))
    for _ in range(2):
        reads.clear()
        parses.clear()
        registries.clear()
        assert all(r.status == "pass" for r in run_all())
        assert reads == Counter({corpus.MANIFEST, corpus.REGISTRY, *named})
        assert registries == Counter([read(corpus.REGISTRY)])
        assert parses == Counter(read(name).decode() for name in named
                                 if name.endswith(".grp"))
    # a scenario replayed alone reads only the registry and its own
    # files, once each
    s = corpus.load_scenario("elimination-y-w")
    reads.clear()
    assert verify.run_scenario(s.id).status == "pass"
    assert reads == Counter({corpus.MANIFEST, corpus.REGISTRY,
                             *s.files.values()})


def test_a_failed_derivation_reports_its_error(monkeypatch):
    def not_found(rest, target):
        raise NotFound("no chain within the limit")

    monkeypatch.setattr(verify, "derive_by_collapse", not_found)
    report = verify.run_scenario("redundancy-nine", convention="gap")
    relators = [s for s in report.steps if s.name.startswith("relator-")]
    assert len(relators) == 11
    for step in relators:
        assert step.status == "fail"
        assert step.detail == {"error": "no chain within the limit"}
    assert report.status == "fail"


def frozen(witnesses: dict):
    """A stand-in for `Scenario.witnesses` that reads these witnesses'
    JSON documents, as a replay reads a frozen file."""
    return lambda self, key, read, indices: {
        i: read(w.to_json()) for i, w in witnesses.items()}


def test_a_witness_for_another_word_fails_its_step(monkeypatch):
    # each witness below verifies over its presentation, but proves one of
    # its relators rather than the step's target
    def proves_a_relator(p):
        return Certificate(p.relators[0], (Factor(Word(), 0, 1),))

    s = corpus.load_scenario("derive-qc-commute")
    cert = proves_a_relator(s.presentation("base"))
    assert verify_certificate(s.presentation("base"), cert)
    monkeypatch.setattr(Scenario, "witnesses", frozen({0: cert}))
    report = verify.run_scenario("derive-qc-commute")
    step = next(x for x in report.steps if x.name == "certificate")
    assert (step.status, step.detail) == ("fail", {"factors": 1})

    s = corpus.load_scenario("redundancy-nine")
    full = s.presentation()
    chains = {}
    for i in s.expected["certified_indices"]:
        step = proves_a_relator(full.with_relators(
            [r for j, r in enumerate(full.relators) if j != i]))
        chains[i] = Derivation(step.target, (step,))
    monkeypatch.setattr(Scenario, "witnesses", frozen(chains))
    report = verify.run_scenario("redundancy-nine")
    relators = [x for x in report.steps if x.name.startswith("relator-")]
    assert len(relators) == len(chains)
    for step in relators:
        assert (step.status, step.detail) == ("fail", {"steps_in_chain": 1})
    assert report.status == "fail"


def test_equivalence_steps_report_the_certificates_they_check():
    report = verify.run_scenario("elimination-y-w")
    assert report.status == "pass"
    for name in ("equivalence-forward", "equivalence-backward"):
        step = next(x for x in report.steps if x.name == name)
        assert step.detail == {"certificates": 17}


def test_a_faulty_elimination_fails_only_its_own_step(monkeypatch):
    # the frozen certificates are checked against the frozen
    # presentations, not against what the elimination computed
    monkeypatch.setattr(verify, "eliminate_generator",
                        lambda p, gen: (p, None))
    report = verify.run_scenario("elimination-y-w")
    assert {x.name: x.status for x in report.steps} == {
        "manifest": "pass", "eliminate": "fail",
        "equivalence-forward": "pass", "equivalence-backward": "pass"}


def test_gap_equivalence_steps_report_the_unproven(monkeypatch):
    # a search that proves every target but the first, standing in for
    # the full search of each direction
    calls = []

    def all_but_the_first(p, targets):
        calls.append((p, targets))
        return {i: Certificate(t, ()) for i, t in enumerate(targets) if i}

    monkeypatch.setattr(verify, "derive_all", all_but_the_first)
    report = verify.run_scenario("elimination-y-w", convention="gap")
    s = corpus.load_scenario("elimination-y-w")
    full = s.presentation("massaged", convention="gap")
    # each relator of the massaged presentation over the live
    # elimination's relators, then the other way round; the frozen
    # eliminated file holds the default convention's words
    (raw, forward), (backward_over, backward) = calls
    assert (forward, backward_over) == (list(full.relators), full)
    assert backward == list(raw.relators)
    assert raw != s.presentation("eliminated", convention="gap")
    for name in ("equivalence-forward", "equivalence-backward"):
        step = next(x for x in report.steps if x.name == name)
        assert (step.status, step.detail) == (
            "fail", {"certificates": 16, "unproven": 1})


def test_a_failed_elimination_names_the_relators_that_differ(monkeypatch):
    # under the GAP convention the live elimination differs from the
    # frozen file, which holds the default convention's words; the
    # search is stubbed, as only the eliminate step is looked at
    monkeypatch.setattr(verify, "derive_all", lambda p, targets: {})
    s = corpus.load_scenario("elimination-y-w")
    frozen = s.presentation("eliminated", convention="gap")
    report = verify.run_scenario("elimination-y-w", convention="gap")
    step = next(x for x in report.steps if x.name == "eliminate")
    assert step.status == "fail"
    live = [parse_word(w, convention="gap") for w in step.detail["live_only"]]
    gone = [parse_word(w, convention="gap")
            for w in step.detail["frozen_only"]]
    assert live and gone
    assert not set(live) & set(frozen.relators)
    assert set(gone) <= set(frozen.relators)
    # the frozen relators the live elimination also found, and those
    # named, are all of them
    kept = [r for r in frozen.relators if r not in gone]
    assert len(kept) + len(gone) == len(frozen.relators)
    assert step.detail["relators"] == len(kept) + len(live)
    # a passing step's detail holds no lists of differences
    report = verify.run_scenario("elimination-y-w")
    step = next(x for x in report.steps if x.name == "eliminate")
    assert step.status == "pass"
    assert step.detail == {"generators": list(frozen.generators),
                           "relators": len(frozen.relators)}


def test_gap_certificate_steps_report_the_search():
    # under the GAP convention the certificate is searched afresh, and its
    # step carries the search's counters
    report = verify.run_scenario("derive-cx-commute", convention="gap")
    assert report.status == "pass"
    step = next(s for s in report.steps if s.name == "certificate")
    assert step.detail["factors"] >= 1
    assert 1 <= step.detail["peak_heap"] <= step.detail["states"]


def test_a_failed_step_reports_the_counters_of_its_not_found(monkeypatch):
    # a bounded collapse and a bounded search fail; each step's detail
    # carries the counters next to the error
    derive_by_collapse = verify.derive_by_collapse
    monkeypatch.setattr(verify, "derive_by_collapse", lambda rest, target:
                        derive_by_collapse(rest, target, max_cosets=50))
    report = verify.run_scenario("redundancy-nine", convention="gap")
    relators = [s for s in report.steps if s.name.startswith("relator-")]
    assert relators and all(s.status == "fail" for s in relators)
    for step in relators:
        assert "coset limit 50 exceeded" in step.detail["error"]
        assert step.detail["enumerations"] >= 1
        assert step.detail["cosets_defined"] >= 50
    search_certificate = verify.search_certificate
    monkeypatch.setattr(verify, "search_certificate", lambda p, target:
                        search_certificate(p, target, max_states=200))
    report = verify.run_scenario("derive-gx2", convention="gap")
    step = next(s for s in report.steps if s.name == "certificate")
    assert step.status == "fail"
    assert f"after {step.detail['states']} states" in step.detail["error"]
    assert step.detail["peak_heap"] >= 1


def triviality(text: str, max_cosets: int = 1_000):
    p = parse_presentation(text)
    return verify._triviality(p, homology_h1(p), "hlt", max_cosets)


def test_triviality_is_decided_over_the_first_generator():
    # index 1 over <a> makes G cyclic, so G is trivial exactly when H1 is
    status, detail = triviality("< a | a^5 >")
    assert (status, detail["subgroup"], detail["enumeration"]["index"]) == (
        "fail", ["a"], 1)
    # an index above 1 proves G nontrivial: a failure, not a limit
    status, detail = triviality("< a, b | a^2, b^3, (a b)^2 >")
    assert (status, detail["subgroup"], detail["enumeration"]["index"]) == (
        "fail", ["a"], 3)
    # A5 is perfect: H1 is trivial, and only the index tells it from 1
    status, detail = triviality("< a, b | a^2, b^3, (a b)^5 >")
    assert (status, detail["enumeration"]["index"]) == ("fail", 30)
    status, detail = triviality("< a, b | a b^-1, b^3 >")
    assert (status, detail["enumeration"]["index"]) == ("fail", 1)
    status, detail = triviality("< a, b | a b^-1, b >")
    assert (status, detail["enumeration"]["index"]) == ("pass", 1)
    # a limit decides nothing
    status, detail = triviality("< a, b | a^2 >", max_cosets=50)
    assert (status, detail["enumeration"]["status"]) == (
        "limit", "LimitExceeded")
    # no generators: the trivial subgroup, whose index is 1
    p = Presentation([], [])
    status, detail = verify._triviality(p, homology_h1(p), "hlt", 10)
    assert (status, detail["subgroup"], detail["enumeration"]["index"]) == (
        "pass", [], 1)


def test_corpus_triviality_steps_name_their_subgroup():
    for convention, scenario in (("default", "pi1-N-full"),
                                 ("default", "pi1-N-reduced"),
                                 ("gap", "pi1-N-full")):
        report = verify.run_scenario(scenario, convention=convention)
        assert report.status == "pass", (convention, scenario)
        step = next(s for s in report.steps if s.name == "triviality")
        assert step.detail["subgroup"] == ["a"]
        assert step.detail["enumeration"]["index"] == 1
    report = verify.run_scenario("pi1-N-reduced", convention="gap",
                                 max_cosets=2_000)
    step = next(s for s in report.steps if s.name == "triviality")
    assert (report.status, step.status, step.detail["subgroup"]) == (
        "limit", "limit", ["a"])
    assert step.detail["enumeration"]["cosets_live_max"] == 2_000


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_triviality_over_the_first_generator_agrees_with_the_trivial_subgroup(
        strategy):
    # the route over <a> against enumeration over <1>, whenever both
    # complete; a case where only one completes agrees with nothing
    limit = 64
    rng = random.Random(2)
    cases = Counter()
    for _ in range(150):
        p = random_small_presentation(rng)
        whole = enumerate_cosets(p, (), strategy=strategy, max_cosets=limit)
        status, detail = verify._triviality(p, homology_h1(p), strategy,
                                            limit)
        cyclic = detail["enumeration"]
        if not (whole.completed and cyclic["status"] == "Completed"):
            cases["one-sided" if whole.completed or status != "limit"
                  else "neither"] += 1
            continue
        assert (status == "pass") == (whole.index == 1), (p, whole.index,
                                                          detail)
        # [G : <a>] divides [G : 1] = |G|
        assert whole.index % cyclic["index"] == 0, (p, whole.index, detail)
        cases["agree"] += 1
        if cyclic["index"] == 1 and whole.index > 1:
            # cyclic but nontrivial: only H1 tells it from the trivial group
            cases["cyclic-nontrivial"] += 1
        cases["trivial" if whole.index == 1 else "nontrivial"] += 1
    assert cases["agree"] >= 90 and cases["trivial"] >= 20, cases
    assert cases["cyclic-nontrivial"] >= 30, cases
    assert cases["nontrivial"] - cases["cyclic-nontrivial"] >= 15, cases
