"""Benchmark for fallacylab: the oracle (derive, validate) and the gateway
(replay and record).

    python3 perfbench/run.py --workload derive-scaled --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports the program from
``src/`` and writes only under ``.perfbench/``.  Workloads: derive-scaled,
validate-large, replay-pipeline, record-live, or ``all`` to run each in turn.

With ``--trace 0`` it measures the end-to-end metrics: one fresh worker runs
the workload's ``fallacylab`` commands through the click entry point in
passes for about ``--seconds``, and reports throughput over all passes.  With
``--trace 1`` it runs one traced pass of every workload (each per-layer
metric comes from the workload it should move, see ``layers.py``), the
exponent sweep, and one untraced pass of the chosen workload for the tracing
overhead.  Spans are written to ``.perfbench/spans/``.

Every output is checked.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it names
the workload's own figures.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import harness
import layers
from workloads import WORKLOADS, DeriveScaled, Pass, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
STARTUP_PROBES = 10


def measure(name: str, seed: int, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics and the workload's own figures."""
    with contextlib.ExitStack() as stack:
        workload = WORKLOADS[name](work, seed)
        workload.prepare(SRC, stack)
        # Half the start-up probes run before the passes and half after, so
        # that setup_s samples the host over the whole run, not one moment.
        started = harness.startup_probes(SRC, work, STARTUP_PROBES // 2)
        with harness.Worker(SRC, work) as worker:
            started.append(worker)
            passes = []
            start = time.perf_counter()
            elapsed = 0.0
            # Start another pass while its midpoint would fall within the time.
            while not passes or elapsed * (1 + 0.5 / len(passes)) < seconds:
                passes.append(workload.run_pass(worker, tally))
                elapsed = time.perf_counter() - start
            peak_rss_mb = worker.call(op="rss")["peak_rss_mb"]
        started += harness.startup_probes(SRC, work, STARTUP_PROBES // 2)
    run = Pass.total(passes)
    metrics = {
        "items_per_s": (run.items_per_s, "1/s"),
        "geomean_items_per_s": (run.geomean_items_per_s, "1/s"),
        "setup_s": (statistics.median(w.startup_s for w in started), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    figures = {k: (v, "1/s") for k, v in workload.figures(run).items()}
    figures["passes"] = (len(passes), "count")
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            {k: {"value": v, "unit": u} for k, (v, u) in figures.items()})


def profile(name: str, seed: int, work: Path, tally: Tally) -> dict:
    """Per-layer metrics from one traced pass of every workload."""
    summaries, traced_s, sweep = {}, {}, {}
    for other, cls in WORKLOADS.items():
        with contextlib.ExitStack() as stack:
            workload = cls(work, seed)
            workload.prepare(SRC, stack)
            with harness.Worker(SRC, work, "--trace") as worker:
                traced_s[other] = workload.run_pass(worker, tally).seconds
                summaries[other] = worker.call(op="collect", dump=str(OUTPUT / "spans" / f"{other}.jsonl"))
                if cls is DeriveScaled:
                    sweep[workload.groups] = summaries[other]
                    for groups in layers.SWEEP_GROUPS:
                        small = DeriveScaled(work, seed, groups)
                        small.prepare(SRC, stack)
                        small.run_pass(worker, tally)
                        sweep[groups] = worker.call(op="collect", dump=str(OUTPUT / "spans" / f"{other}-{groups}.jsonl"))
            if other == name:
                with harness.Worker(SRC, work) as worker:
                    untraced_s = workload.run_pass(worker, tally).seconds
    return layers.per_layer(summaries, sweep, traced_s[name] - untraced_s)


def run_one(name: str, args: argparse.Namespace, work: Path) -> dict:
    tally = Tally()
    if args.trace:
        metrics, figures = profile(name, args.seed, work, tally), {}
    else:
        metrics, figures = measure(name, args.seed, args.seconds, work, tally)
    for problem in tally.problems:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    figures["failed_ops_ratio"] = {"value": tally.failed / max(tally.attempted, 1), "unit": "ratio"}
    print(f"{name}: " + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in figures.items()))
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fallacylab" / "cli.py").is_file():
        print(f"error: no fallacylab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    work = OUTPUT / f"work-{os.getpid()}"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_one(name, args, work) for name in names]
    except Exception:  # noqa: BLE001 - report and exit without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
