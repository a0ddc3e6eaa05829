"""The traced run: replay a workload's commands in-process through
`descente.cli.main` with spans around each layer, then probe the layer
functions that no command reaches with the workload's own inputs.

The replay alternates untraced and traced passes over the same commands;
the tracing overhead is the median traced pass time minus the median
untraced one.  Per-layer values are per traced pass, plus the run's probes
once.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from statistics import median

from harness import OUT_DIR, SRC, Outcome, Spawner, another_pass_fits, judge, op_argv, pass_dir
from spans import LAYERS, Alarm, Deadline, Tracer
from workloads import Workload, is_prime

IMPORT_SPAWNS = 5
TIMED_IMPORT = ("import time; t = time.perf_counter(); import descente.cli; "
                "print(time.perf_counter() - t)")
# Bound of the serial-versus-workers=2 search probe.
PARALLEL_BOUND = 200_000
PARALLEL_WORKERS = 2
# Largest input the core_arith probe factorizes by trial division.
FACTORIZE_MAX = 2 * 10**13

# (metric, span or counter name, kind, unit); kind "self" is a span's self
# time, "calls" its call count, "count" a counter.
SPAN_METRICS = (
    ("fermat.generator_blocks_s", "fermat.generator_blocks", "self", "s"),
    ("fermat.blocks", "fermat.blocks", "count", "count"),
    ("fermat.scan_s", "fermat.scan", "self", "s"),
    ("fermat.values_scanned", "fermat.values_scanned", "count", "count"),
    ("fermat.solutions", "fermat.solutions", "count", "count"),
    ("fermat.cache_write_s", "fermat.cache_write", "self", "s"),
    ("fermat.cache_read_s", "fermat.cache_read", "self", "s"),
    ("descent_engine.check_id_s", "descent_engine.check_id", "self", "s"),
    ("descent_engine.check_rd_s", "descent_engine.check_rd", "self", "s"),
    ("descent_engine.check_id_prime_s", "descent_engine.check_id_prime", "self", "s"),
    ("descent_engine.values_checked", "descent_engine.values_checked", "count", "count"),
    ("descent_engine.failures", "descent_engine.failures", "count", "count"),
    ("descent_engine.run_descent_s", "descent_engine.run_descent", "self", "s"),
    ("descent_engine.trace_steps", "descent_engine.trace_steps", "count", "count"),
    ("core_arith.is_prime_s", "core_arith.is_prime", "self", "s"),
    ("core_arith.is_prime_calls", "core_arith.is_prime", "calls", "count"),
    ("core_arith.least_prime_divisor_s", "core_arith.least_prime_divisor", "self", "s"),
    ("core_arith.factorize_s", "core_arith.factorize", "self", "s"),
    ("core_arith.proper_divisor_step_s", "core_arith.proper_divisor_step", "self", "s"),
    ("diophantine.primitive_triples_s", "diophantine.primitive_triples", "self", "s"),
    ("diophantine.decompose_s", "diophantine.decompose", "self", "s"),
    ("proportions.split_s", "proportions.split", "self", "s"),
    ("cli.render_s", "cli.render", "self", "s"),
)


@dataclass
class TracedRun:
    outcomes: list[Outcome]
    metrics: dict
    probes_ok: bool
    passes: int


class Totals:
    """Span call counts, self times and counters, summed and scaled."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def add(self, tracer: Tracer, scale: float = 1.0) -> None:
        for name, (calls, self_s) in tracer.acc.items():
            self.calls[name] += calls * scale
            self.self_s[name] += self_s * scale
        for name, value in tracer.counts.items():
            self.counts[name] += value * scale

    def get(self, name: str, kind: str) -> float:
        return {"self": self.self_s, "calls": self.calls, "count": self.counts}[kind][name]

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def run_inprocess(main, argv: list[str], deadline: float, alarm: Alarm, tracer: Tracer):
    """(exit code or None if stopped at the deadline, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        alarm.arm(deadline)
        with contextlib.redirect_stderr(err):
            code = main(argv, out=out)
    except Deadline:
        code = None
    except Exception:  # what the CLI would have died of, as exit code 1
        err.write(traceback.format_exc())
        code = 1
    finally:
        alarm.disarm()
        tracer.stack.clear()
    latency = time.perf_counter() - start if code is not None else deadline
    return code, out.getvalue(), err.getvalue(), latency


def replay_pass(workload: Workload, main, alarm: Alarm, tracer: Tracer):
    """(outcomes, seconds inside ops, bytes of cache files left by the pass)."""
    outcomes, total = [], 0.0
    with pass_dir() as cache_dir:
        for op in workload.ops:
            code, out, err, latency = run_inprocess(
                main, op_argv(op, cache_dir), op.deadline, alarm, tracer)
            total += latency
            outcomes.append(Outcome(op, latency, code is None, judge(op, code, out, err)))
        cache_bytes = sum(f.stat().st_size for f in cache_dir.iterdir())
    return outcomes, total, cache_bytes


def replay_rounds(workload: Workload, seconds: float, tracer: Tracer, cli_main):
    """Rounds of one untraced and one traced pass, while another round fits
    in `seconds` (at least one).  Returns the outcomes, the untraced and the
    traced pass times, and the cache bytes per traced pass."""
    alarm = Alarm()
    traced_main = tracer.wrap("cli.main", cli_main)
    outcomes, untraced, traced, cache_bytes = [], [], [], []
    t0 = time.perf_counter()
    try:
        while True:
            start = time.perf_counter()
            done, seconds_in_ops, _ = replay_pass(workload, cli_main, alarm, tracer)
            outcomes += done
            untraced.append(seconds_in_ops)
            tracer.install()
            try:
                done, seconds_in_ops, written = replay_pass(workload, traced_main, alarm, tracer)
            finally:
                tracer.uninstall()
            outcomes += done
            traced.append(seconds_in_ops)
            cache_bytes.append(written)
            if not another_pass_fits(t0, seconds, time.perf_counter() - start):
                break
    finally:
        alarm.close()
    return outcomes, untraced, traced, cache_bytes


# ---------------------------------------------------------------------------
# probes: layer functions that the commands do not reach, on the workload's
# own inputs.  Each returns False if the package gave a wrong answer.


def probe_import(spawner: Spawner, metrics: dict) -> bool:
    times = []
    for _ in range(IMPORT_SPAWNS):
        code, out, _, _, _ = spawner.run(["-c", TIMED_IMPORT], 30.0)
        try:
            times.append(float(out))
        except ValueError:
            return False
        if code != 0:
            return False
    metrics["cli.import_s"] = (median(times), "s")
    return True


def probe_parallel(metrics: dict) -> bool:
    """Serial search against workers=2 at the same bound."""
    from descente import fermat

    start = time.perf_counter()
    serial = fermat.exhaustive_search(PARALLEL_BOUND)
    serial_s = time.perf_counter() - start
    try:
        start = time.perf_counter()
        parallel = fermat.exhaustive_search(PARALLEL_BOUND, workers=PARALLEL_WORKERS)
        parallel_s = time.perf_counter() - start
    except TypeError:  # the package no longer has a workers option
        return serial == []
    metrics["fermat.parallel_search_s"] = (parallel_s, "s")
    metrics["fermat.parallel_speedup"] = (serial_s / parallel_s, "ratio")
    return serial == parallel == []


def probe_cantor(workload: Workload, metrics: dict) -> bool:
    """Decode and re-encode every Cantor code the gcd check covers."""
    from descente.descent_engine import pair_decode, pair_encode as encode

    n = max((op.work for op in workload.ops if op.argv[1:3] == ("rd", "gcd")), default=0)
    if not n:
        return True
    start = time.perf_counter()
    ok = all(encode(*pair_decode(v)) == v for v in range(n))
    metrics["descent_engine.cantor_roundtrips_per_s"] = (n / (time.perf_counter() - start), "1/s")
    return ok


def probe_arith(workload: Workload, tracer: Tracer) -> bool:
    """factorize and least_prime_divisor on the vii31 inputs, and
    primitive_triples_up_to over the primitive triple inputs."""
    from descente import core_arith, diophantine

    ok = True
    walks = {int(op.argv[2]) for op in workload.ops if op.argv[:2] == ("descent", "vii31")}
    triples = set()
    for op in workload.ops:
        if op.argv[:2] == ("decompose", "triple"):
            x0, x1, x2 = map(int, op.argv[2:5])
            if x0 * x0 + x1 * x1 == x2 * x2 and math.gcd(x0, x1) == 1:
                triples.add((min(x0, x1), max(x0, x1), x2))
    tracer.install()
    try:
        for n in sorted(n for n in walks if n <= FACTORIZE_MAX):
            factors = core_arith.factorize(n).factors
            ok &= math.prod(p**e for p, e in factors) == n and all(is_prime(p) for p, _ in factors)
            ok &= core_arith.least_prime_divisor(n) == factors[0][0]
        if triples and hasattr(diophantine, "primitive_triples_up_to"):
            listing = diophantine.primitive_triples_up_to(max(t[2] for t in triples))
            ok &= triples <= {(*sorted(t.legs()), t.x2) for t, _ in listing}
    finally:
        tracer.uninstall()
    return ok


def traced_run(workload: Workload, seed: int, seconds: float, spawner: Spawner) -> TracedRun:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import descente.cli

    tracer = Tracer()
    outcomes, untraced, traced, cache_bytes = replay_rounds(
        workload, seconds, tracer, descente.cli.main)
    passes = len(traced)
    totals = Totals()
    totals.add(tracer, 1 / passes)

    probe_tracer = Tracer(keep=0)
    metrics: dict = {"fermat.parallel_search_s": (0.0, "s"), "fermat.parallel_speedup": (0.0, "ratio"),
                     "descent_engine.cantor_roundtrips_per_s": (0.0, "1/s")}
    probes_ok = probe_import(spawner, metrics)
    if workload.name == "certify":
        probes_ok &= probe_parallel(metrics)
    if workload.name == "schemas":
        probes_ok &= probe_cantor(workload, metrics)
    if workload.name == "arith":
        probes_ok &= probe_arith(workload, probe_tracer)
    totals.add(probe_tracer)
    if totals.counts["trace.counter_errors"]:
        print("bench: some span counters did not fit the package's signatures", file=sys.stderr)

    for metric, name, kind, unit in SPAN_METRICS:
        metrics[metric] = (totals.get(name, kind), unit)
    metrics["fermat.cache_bytes"] = (median(cache_bytes), "bytes")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (totals.layer_self_s(layer), "s")
    metrics["trace.overhead_s"] = (median(traced) - median(untraced), "s")
    metrics["trace.spans"] = (tracer.total_spans / passes, "count")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-{seed}.jsonl",
                 {"workload": workload.name, "seed": seed, "passes": passes})
    return TracedRun(outcomes, dict(sorted(metrics.items())), probes_ok, passes)
