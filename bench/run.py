"""Benchmark for the `descente` CLI.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload arith --seed 1 --trace 1 --out runs.jsonl
    python3 bench/run.py --compare before.jsonl after.jsonl

One client runs the workload's commands as `python -m descente.cli`
subprocesses in a closed loop: each command starts when the previous one has
ended.  The run repeats whole passes over the workload's command list while
another pass still fits in --seconds (at least one pass).  Every command has
a deadline; one that runs past it is killed, counted as failed, and its
latency recorded as the deadline.  Every command's exit code and output are
checked.

--trace 0 prints the end-to-end metrics.  --trace 1 replays the same
commands in-process instead, alternating untraced passes with passes that
record spans around each layer (layers.py), and prints the per-layer
metrics.  The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

from harness import (IMPORT_CLI, OUT_DIR, ROOT, RUN_CAP_S, SRC, Outcome, Pacer, Spawner,
                     another_pass_fits, judge, op_argv, pass_dir)
from workloads import WORKLOADS, Workload

SETUP_SPAWNS = 7


def cli_pass(workload: Workload, spawner: Spawner, t0: float) -> list[Outcome]:
    results = []
    pacer = Pacer()
    with pass_dir() as cache_dir:
        for op in workload.ops:
            if time.perf_counter() - t0 > RUN_CAP_S:
                break
            code, out, err, latency, rss = spawner.run(
                ["-m", "descente.cli", *op_argv(op, cache_dir)], op.deadline)
            results.append(Outcome(op, latency, code is None, judge(op, code, out, err), rss,
                                   pacer.pace()))
    return results


def run_cli_passes(workload: Workload, spawner: Spawner, seconds: float) -> list[list[Outcome]]:
    t0 = time.perf_counter()
    passes = []
    while True:
        start = time.perf_counter()
        passes.append(cli_pass(workload, spawner, t0))
        if not another_pass_fits(t0, seconds, time.perf_counter() - start):
            return passes


def measure_setup(spawner: Spawner) -> list[float]:
    """Interpreter start plus `import descente.cli`, several times, paced."""
    times = []
    pacer = Pacer()
    for _ in range(SETUP_SPAWNS):
        code, _, err, latency, _ = spawner.run(["-c", IMPORT_CLI], 30.0)
        if code != 0:
            raise SystemExit(f"bench: cannot import descente.cli: {err.strip()[-300:]}")
        times.append(latency * pacer.pace())
    return times


def end_to_end(setup: list[float], passes: list[list[Outcome]], ops_per_pass: int) -> dict:
    """{metric: (value, unit)} from paced latencies; rates are over the
    paced time spent inside ops."""
    ops = [o for p in passes for o in p]
    latencies = [o.paced for o in ops]
    busy = sum(latencies)
    whole = [p for p in passes if len(p) == ops_per_pass] or passes
    p90 = quantiles(latencies, n=10, method="inclusive")[-1] if len(ops) > 1 else busy
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(sum(o.paced for o in p) for p in whole), "s"),
        "op_p50_s": (median(latencies), "s"),
        "op_p90_s": (p90, "s"),
        "ops_per_s": (len(ops) / busy, "1/s"),
        "work_per_s": (sum(o.op.work for o in ops if o.reason is None) / busy, "1/s"),
        "peak_rss_mb": (max(o.maxrss_kb for o in ops) / 1024, "MB"),
    }


def failure_causes(outcomes: list[Outcome]) -> dict:
    return dict(Counter(f"{o.reason}: {o.op.label()}" for o in outcomes if o.reason is not None))


def main_run(args) -> int:
    if not (SRC / "descente" / "cli.py").is_file():
        print(f"bench: no descente sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("DESCENTE_CACHE", None)
    workload = WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="run-"))
    try:
        spawner = Spawner(scratch)
        spawner.run(["-c", IMPORT_CLI], 60.0)  # compiles the bytecode cache
        if args.trace:
            import layers  # imports the package in-process; only traced runs need it

            traced = layers.traced_run(workload, args.seed, args.seconds, spawner)
            outcomes, metrics, probes_ok = traced.outcomes, traced.metrics, traced.probes_ok
            passes = traced.passes
        else:
            setup = measure_setup(spawner)
            cli_passes = run_cli_passes(workload, spawner, args.seconds)
            outcomes = [o for p in cli_passes for o in p]
            metrics, probes_ok = end_to_end(setup, cli_passes, len(workload.ops)), True
            passes = len(cli_passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(o.reason is not None for o in outcomes)
    # An op killed at its deadline gave no answer; only a wrong answer (or a
    # failed probe) makes the run incorrect.
    correct = probes_ok and all(o.reason is None or o.killed for o in outcomes)
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "passes": passes, "ops_per_pass": len(workload.ops),
            "samples": len(outcomes), "work_unit": workload.work_unit,
            "failed_ops": failed / len(outcomes), "failure_causes": failure_causes(outcomes)}
    if not args.trace:
        info["raw_op_p50_s"] = median(o.latency for o in outcomes)
        info["median_pace"] = median(o.pace for o in outcomes)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps(info))
    result = {"correct": correct, "attempted": len(outcomes), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**info, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# compare mode


def load_runs(path: str) -> dict:
    """{workload: {metric: (unit, [values])}} from a file written by --out."""
    table: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            metrics = dict(rec["result"]["metrics"])
            metrics["failed_ops"] = {"value": rec["failed_ops"], "unit": "share"}
            for name, m in metrics.items():
                row = table.setdefault(rec["workload"], {}).setdefault(name, (m["unit"], []))
                row[1].append(m["value"])
    return table


def main_compare(base_path: str, new_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better["failed_ops"] = "lower"
    base, new = load_runs(base_path), load_runs(new_path)
    print(f"{'workload':9s} {'metric':40s} {'base median':>13s} {'n':>3s} "
          f"{'new median':>13s} {'n':>3s} {'new/base':>9s}  unit")
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            unit, a = base[workload][name]
            _, b = new[workload][name]
            ma, mb = median(a), median(b)
            ratio = f"{mb / ma:9.4f}" if ma else f"{'-':>9s}"
            print(f"{workload:9s} {name:40s} {ma:13.6g} {len(a):3d} {mb:13.6g} {len(b):3d} "
                  f"{ratio}  {unit}, {better.get(name, '?')} is better")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="medians and ratios per workload and metric of two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return main_compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
