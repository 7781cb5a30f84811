"""Tests of the benchmark's own code.  Run with
``python3 -m pytest perfbench/tests`` from the root of the repository."""

import json
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import child
import reference
import run
import tracing
import workloads
from fpverify import corpus, coset, parse_presentation
from fpverify.certificates import Certificate, Derivation
from fpverify.words import CONVENTION_GAP, Word
from tracing import Span

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_on_synthetic_tree():
    spans = [
        Span(0, "a", 0.0, 10.0, None, 0),
        Span(1, "b", 1.0, 4.0, 0, 0),
        Span(2, "c", 2.0, 3.0, 1, 0),
        Span(3, "d", 5.0, 6.5, 0, 0),
        Span(4, "e", 20.0, 21.0, None, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0})


def test_self_times_clip_overlapping_children():
    # children that overlap each other or stick out of the parent are
    # counted once and only inside the parent
    spans = [
        Span(0, "a", 0.0, 10.0, None, 0),
        Span(1, "b", 2.0, 6.0, 0, 0),
        Span(2, "c", 4.0, 8.0, 0, 0),
        Span(3, "d", 9.0, 12.0, 0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_job_metrics_group_spans():
    spans = [
        Span(0, "certificates.derive_by_collapse", 0.0, 10.0, None, 0,
             {"steps": 3}),
        Span(1, "certificates.search_certificate", 1.0, 2.0, 0, 0),
        Span(2, "certificates.search_certificate", 3.0, 5.0, 0, 0,
             {"raised": "NotFound"}),
        Span(3, "certificates.verify_derivation", 6.0, 9.0, 0, 0),
        Span(4, "certificates.certificate_product", 6.5, 8.5, 3, 0,
             {"factors": 7}),
        Span(5, "certificates.search_certificate", 11.0, 12.0, None, 0),
    ]
    m = tracing.job_metrics(spans, (5, 40))
    assert m["certificates.collapse_s"] == pytest.approx(4.0)
    assert m["certificates.lemmas"] == 2
    assert m["certificates.lemma_search_s"] == pytest.approx(3.0)
    assert m["certificates.lemma_found_ratio"] == 0.5
    assert m["certificates.derivation_steps"] == 3
    assert m["certificates.verify_s"] == pytest.approx(3.0)
    assert m["certificates.factors_verified"] == 7
    assert (m["words.built"], m["words.letters_in"]) == (5, 40)
    assert m["coset.enumerate_s"] == 0 and m["coset.us_per_coset"] == 0


def _fpverify_names():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "fpverify" or name.startswith("fpverify.")
            for attr, value in vars(module).items()}


def test_tracer_restores_every_wrapped_name():
    before = _fpverify_names()
    methods = {(cls, name): cls.__dict__[name]
               for _, cls, names in tracing.METHODS for name in names}
    init = Word.__dict__["__init__"]
    targets = tracing.wrap_targets()
    assert any(owner.__name__ == "fpverify.verify" and attr == "enumerate_cosets"
               for owner, attr, _, _ in targets)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert Word.__dict__["__init__"] is not init
        assert coset.enumerate_cosets is not before[("fpverify.coset",
                                                     "enumerate_cosets")]
        tracer.begin_job(0)
        result = coset.enumerate_cosets(
            parse_presentation("< r, s | r^3, s^2, (r s)^2 >"))
        tracer.end_job()
    finally:
        tracer.restore()

    assert result.index == 6
    assert _fpverify_names() == before
    assert Word.__dict__["__init__"] is init
    for (cls, name), original in methods.items():
        assert cls.__dict__[name] is original
    names = {s.name for s in tracer.spans}
    assert {"coset.enumerate_cosets", "coset.CosetTable.compact",
            "coset.CosetTable.validate"} <= names
    m = tracing.job_metrics(tracer.spans, tracer.word_counts[0])
    assert m["coset.cosets_defined"] == result.cosets_defined_total


def test_calls_outside_a_job_are_not_recorded():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        Word([("a", 1), ("a", -1)])
        coset.enumerate_cosets(parse_presentation("< a | a^2 >"))
    finally:
        tracer.restore()
    assert tracer.spans == [] and tracer.words == [0, 0]


def test_derivation_with_one_sign_flipped_fails():
    w = workloads.CollapseDerive(0)
    good = corpus.load_scenario("redundancy-nine").derivations()[
        workloads.COLLAPSE_RELATOR]
    assert w.check(good)
    step = good.steps[-1]
    flipped = replace(step.factors[0], sign=-step.factors[0].sign)
    bad_step = Certificate(step.target, (flipped,) + step.factors[1:])
    bad = Derivation(good.target, good.steps[:-1] + (bad_step,))
    assert not w.check(bad)
    assert not child._checked(w, bad)
    assert not child._checked(w, None)


def test_seed_zero_variant_is_the_corpus():
    enum = workloads.EnumLimit(0)
    assert enum.presentation == corpus.load_corpus_presentation(
        workloads.ENUM_FILE, convention=CONVENTION_GAP)
    collapse = workloads.CollapseDerive(0)
    full = corpus.load_scenario("redundancy-nine").presentation()
    i = workloads.COLLAPSE_RELATOR
    assert collapse.target == full.relators[i]
    assert collapse.rest == full.with_relators(
        [r for j, r in enumerate(full.relators) if j != i])


@pytest.mark.parametrize("seed", [1, 2, 17, 2**40 + 3])
def test_seeded_variant_renames_in_order(seed):
    gens = ("a", "c", "g", "h", "q", "x", "u", "v")
    names = workloads.rename_map(gens, seed)
    assert names == workloads.rename_map(gens, seed)
    assert sorted(names.values()) == [names[g] for g in sorted(gens)]
    assert len(set(names.values())) == len(gens)
    collapse = workloads.CollapseDerive(seed)
    assert len(collapse.rest.relators) == 16
    assert set(collapse.rest.generators) == set(names.values())


def test_renamed_enumeration_does_the_same_work():
    p = parse_presentation("< a, b, c | a^3, b^2, (a b)^4, c a^-1, [b, c] b >")
    base = coset.enumerate_cosets(p)
    for seed in (1, 5):
        q = workloads.rename_presentation(p, workloads.rename_map(p.generators, seed))
        other = coset.enumerate_cosets(q)
        assert (other.index, other.cosets_defined_total, other.coincidences) == \
            (base.index, base.cosets_defined_total, base.coincidences)


def test_closed_loop_runs_once_past_its_deadline():
    assert len(list(child._closed_loop(time.perf_counter() - 1))) == 1
    deadline = time.perf_counter() + 0.05
    n = 0
    for _ in child._closed_loop(deadline):
        n += 1
        time.sleep(0.02)
    assert 1 <= n <= 3 and time.perf_counter() < deadline + 0.02


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 41))
    assert run.tail(values) == (30, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_reference_unit_is_fixed():
    ref = reference.Reference()
    assert ref.unit() == reference.CHECKSUM
    assert len(ref.timed_loop()) == reference.LOOP_UNITS


def test_sampler_times_units_during_a_job_and_restores_the_handler():
    ref = reference.Reference()
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Sampler(ref) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 2.5 * reference.SAMPLE_EVERY_S:
            pass
    assert len(sampler.units) >= 1
    assert sampler.handler_s >= sum(sampler.units)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_every_metric_has_a_unit_and_every_layer_metric_a_prediction():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(predictions)
    assert all(m["unit"] for m in spec["end_to_end"] + spec["per_layer"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
