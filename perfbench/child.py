"""One workload in its own process: set up, then either stop (a set-up
sample) or run jobs in a closed loop for the given seconds.

Prints ``READY`` once the inputs are built, then, unless ``--setup-only``,
one JSON line with every job's timings and check results.  Started by
``run.py`` with ``PYTHONPATH`` naming the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent


def _import_checkout_fpverify() -> None:
    """Import fpverify, refusing any copy but the checkout's own."""
    import fpverify

    expected = ROOT / "src" / "fpverify"
    if Path(fpverify.__file__).resolve().parent != expected:
        sys.exit(f"perfbench: imported {fpverify.__file__}, expected {expected}")


def _timed_job(workload, ref, sampled: bool = True):
    """Run one job between two reference loops.

    Returns ([job s, ref loop s before, ref loop s after, ref loop s
    estimated over the job], output or None if the job raised).  Traced
    jobs are not sampled, so that no reference time falls inside a span.
    """
    gc.collect()
    before = ref.timed_loop()
    sampler = reference.Sampler(ref)
    with sampler if sampled else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            out = workload.job()
        except Exception as exc:  # a failing job is counted, not fatal
            print(f"perfbench: {workload.name} job raised {exc!r}",
                  file=sys.stderr)
            out = None
        elapsed = perf_counter() - t0
    after = ref.timed_loop()
    units = before + sampler.units + after
    loop_s = statistics.fmean(units) * reference.LOOP_UNITS
    return [elapsed - sampler.handler_s, sum(before), sum(after), loop_s], out


def _checked(workload, out) -> bool:
    if out is None:
        return False
    try:
        return workload.check(out)
    except Exception as exc:
        print(f"perfbench: {workload.name} check raised {exc!r}", file=sys.stderr)
        return False


def _closed_loop(deadline: float):
    """Yield while the next job, taking as long as the last one, would end
    before the deadline; always at least once."""
    last = 0.0
    first = True
    while first or perf_counter() + last < deadline:
        t0 = perf_counter()
        yield
        first = False
        last = perf_counter() - t0


def run_untraced(workload, ref, seconds: float) -> dict:
    jobs = []
    for _ in _closed_loop(perf_counter() + seconds):
        times, out = _timed_job(workload, ref)
        jobs.append(times + [_checked(workload, out)])
        del out  # drop the output before the next job builds its own
    return {"jobs": jobs}


def run_traced(workload, ref, seconds: float, trace_path: Path) -> dict:
    """Untraced jobs for the first half of the time, traced jobs for the
    second; every traced output must equal the first untraced one."""
    import tracing

    start = perf_counter()
    untraced = []
    expected = None
    for _ in _closed_loop(start + seconds / 2):
        times, out = _timed_job(workload, ref)
        ok = _checked(workload, out)
        if ok and expected is None:
            expected = workload.signature(out)
        untraced.append(times + [ok])
        del out
    tracer = tracing.Tracer()
    traced = []
    tracer.install()
    try:
        for _ in _closed_loop(start + seconds):
            tracer.begin_job(len(traced))
            try:
                times, out = _timed_job(workload, ref, sampled=False)
            finally:
                tracer.end_job()
            ok = (_checked(workload, out)
                  and workload.signature(out) == expected)
            traced.append(times + [ok])
            del out
    finally:
        tracer.restore()
    layers = []
    for job in range(len(traced)):
        spans = [s for s in tracer.spans if s.job == job]
        layers.append(tracing.job_metrics(spans, tracer.word_counts[job]))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name,
                   "spans": [s.to_json() for s in tracer.spans],
                   "words": tracer.word_counts}, fh)
    return {"jobs": untraced, "traced": traced, "layers": layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_checkout_fpverify()
    from fpverify import corpus

    import workloads

    corpus.verify_checksums()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    ref = reference.Reference()
    if args.trace:
        out = run_traced(workload, ref, args.seconds, args.trace_file)
    else:
        out = run_untraced(workload, ref, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
