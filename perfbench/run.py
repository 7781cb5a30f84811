"""fpverify benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; ``--workload all`` runs every workload
both ways and prints every metric with its unit and its prediction from
``predictions.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in its own child process (``child.py``) as a closed
loop with one client; further children only set up, so that ``setup_s``
is a median of ``SETUP_SAMPLES``.  Metric names, units and the workload list
come from ``BENCHMARK.json`` at the root of the checkout.

End-to-end metrics: ``job_ref.p50`` and ``job_ref.tail`` are the median and
the highest percentile with ``TAIL_BEYOND`` jobs beyond it (the maximum
when there are fewer) of each job's wall time over the reference loop time
measured around it (``reference.py``); ``ok_ratio`` is the share of jobs
that neither raised nor failed their output check; ``peak_rss_mb`` is the
measured child's peak RSS; ``setup_s`` is wall seconds from starting a
child to its inputs being built.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7     # set-ups per run: half before the measured child, half after
RUN_LIMIT_S = 170.0   # a run must end well inside the three minutes allowed
TAIL_BEYOND = 10      # samples required beyond the tail percentile


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n


def _ratios(jobs) -> list[float]:
    """Each job's time over the reference loop time estimated for it."""
    return [t / loop_s for t, _, _, loop_s, _ in jobs]


def _ref_s(jobs) -> float:
    """Median seconds of the reference loops run just before and after jobs."""
    return statistics.median(r for _, before, after, *_ in jobs
                             for r in (before, after))


class Runner:
    """Starts children for one run and enforces the run's time limit."""

    def __init__(self, seed: int):
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED=str(seed % 2**32))
        self.seed = seed

    def remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left

    def child(self, workload: str, *extra: str) -> tuple[float, str]:
        """Run child.py; returns (seconds from start to READY, last line)."""
        cmd = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", workload, "--seed", str(self.seed), *extra]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
            first = proc.stdout.readline() if ready else ""
            setup_s = perf_counter() - t0
            rest, _ = proc.communicate(timeout=self.remaining())
        except (subprocess.TimeoutExpired, BenchError):
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload} child did not finish in time")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or first.strip() != "READY":
            raise BenchError(f"{workload} child failed (exit {proc.returncode})")
        lines = rest.strip().splitlines()
        return setup_s, lines[-1] if lines else ""


def end_to_end(runner: Runner, workload: str, seconds: float) -> tuple[dict, list]:
    # set-ups before and after the measured child, so that their median
    # spans the run's drift in machine speed
    setups = [runner.child(workload, "--setup-only")[0]
              for _ in range(SETUP_SAMPLES // 2)]
    setup_s, line = runner.child(workload, "--seconds", str(seconds))
    setups.append(setup_s)
    setups += [runner.child(workload, "--setup-only")[0]
               for _ in range(SETUP_SAMPLES - len(setups))]
    out = json.loads(line)
    jobs = out["jobs"]
    ratios = _ratios(jobs)
    tail_value, tail_pct = tail(ratios)
    failed = sum(not ok for *_, ok in jobs)
    notes = [
        f"seed {runner.seed}, hash seed {out['hash_seed']}; {len(jobs)} jobs",
        f"job_ref.tail is p{tail_pct:.1f} of {len(jobs)} jobs",
        f"raw: job_s p50 {statistics.median(t for t, *_ in jobs):.6f} s, "
        f"ref_s p50 {_ref_s(jobs):.6f} s",
        "setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups),
    ]
    metrics = {
        "job_ref.p50": statistics.median(ratios),
        "job_ref.tail": tail_value,
        "ok_ratio": (len(jobs) - failed) / len(jobs),
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return {"attempted": len(jobs), "failed": failed, "metrics": metrics}, notes


def per_layer(runner: Runner, workload: str, seconds: float) -> tuple[dict, list]:
    trace_file = BENCH_DIR / "out" / f"trace-{workload}-seed{runner.seed}.json"
    _, line = runner.child(workload, "--seconds", str(seconds), "--trace", "1",
                           "--trace-file", str(trace_file))
    out = json.loads(line)
    untraced, traced = out["jobs"], out["traced"]
    metrics = {name: statistics.median(job[name] for job in out["layers"])
               for name in out["layers"][0]}
    metrics["bench.job_s.p50"] = statistics.median(t for t, *_ in untraced)
    metrics["bench.ref_s"] = _ref_s(untraced + traced)
    metrics["bench.trace_overhead"] = (
        statistics.median(_ratios(traced)) / statistics.median(_ratios(untraced)))
    jobs = untraced + traced
    notes = [f"seed {runner.seed}, hash seed {out['hash_seed']}; "
             f"{len(untraced)} untraced and "
             f"{len(traced)} traced jobs; spans in {trace_file.relative_to(ROOT)}"]
    return {"attempted": len(jobs), "failed": sum(not ok for *_, ok in jobs),
            "metrics": metrics}, notes


def select_metrics(result: dict, specs: list[dict]) -> dict:
    """Keep exactly the metrics specs name, each with its unit."""
    missing = [s["name"] for s in specs if s["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {s["name"]: {"value": result["metrics"][s["name"]], "unit": s["unit"]}
            for s in specs}


def run_one(spec: dict, workload: str, seed: int, seconds: float,
            trace: int) -> tuple[dict, list]:
    runner = Runner(seed)
    if trace:
        result, notes = per_layer(runner, workload, seconds)
        specs = spec["per_layer"]
    else:
        result, notes = end_to_end(runner, workload, seconds)
        specs = spec["end_to_end"]
    metrics = select_metrics(result, specs)
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise BenchError(f"{name} is not finite")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}, notes


def run_all(spec: dict, seed: int, seconds: float) -> dict:
    with open(BENCH_DIR / "predictions.json", encoding="utf-8") as fh:
        predictions = json.load(fh)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, notes = run_one(spec, w["name"], seed, seconds, trace)
            print(f"== {w['name']} (seed {seed}, trace {trace}): "
                  f"{result['attempted']} jobs, {result['failed']} failed")
            for note in notes:
                print(f"   {note}")
            for name, m in result["metrics"].items():
                line = f"   {name:34s} {m['value']:14.6g} {m['unit']}"
                if trace and name in predictions:
                    line += f"   [{predictions[name]}]"
                print(line)
                merged["metrics"][f"{w['name']}/{name}"] = m
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
    return merged


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "fpverify" / "__init__.py").is_file():
        print(f"perfbench: no fpverify sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(spec, args.seed, args.seconds)
        else:
            result, notes = run_one(spec, args.workload, args.seed,
                                    args.seconds, args.trace)
            for note in notes:
                print(note)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
