"""Traced in-process replay: spans around calls into each descente layer.

The package is not instrumented.  While a replay runs, this file swaps the
traced public functions (and the two cache helpers of `fermat`) for
wrappers, in every descente module that bound them, and restores them
afterwards.  Each wrapper records a span (id, parent, name, start, end);
spans stay in memory and are written out once the run ends.  A layer's self
time is its spans' time minus the time of the spans nested inside them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import signal
import sys
import time
from collections import Counter

LAYERS = ("core_arith", "proportions", "diophantine", "descent_engine", "fermat", "cli")

# (module, attribute, span name); several functions may share one span name.
TRACED = (
    ("core_arith", "is_prime", "core_arith.is_prime"),
    ("core_arith", "least_prime_divisor", "core_arith.least_prime_divisor"),
    ("core_arith", "factorize", "core_arith.factorize"),
    ("core_arith", "proper_divisor_step", "core_arith.proper_divisor_step"),
    ("proportions", "split_coprime_square", "proportions.split"),
    ("proportions", "split_coprime_double_square", "proportions.split"),
    ("proportions", "split_sum_diff_square", "proportions.split"),
    ("diophantine", "primitive_triples_up_to", "diophantine.primitive_triples"),
    ("diophantine", "decompose_sum_of_squares", "diophantine.decompose"),
    ("diophantine", "decompose_primitive_triple", "diophantine.decompose"),
    ("diophantine", "decompose_two_square", "diophantine.decompose"),
    ("diophantine", "decompose_primitive_two_square", "diophantine.decompose"),
    ("diophantine", "frenicle_xxxviii", "diophantine.decompose"),
    ("descent_engine", "check_id", "descent_engine.check_id"),
    ("descent_engine", "check_rd", "descent_engine.check_rd"),
    ("descent_engine", "check_id_prime", "descent_engine.check_id_prime"),
    ("descent_engine", "run_descent", "descent_engine.run_descent"),
    ("fermat", "generator_blocks", "fermat.generator_blocks"),
    ("fermat", "scan_generator_block", "fermat.scan"),
    ("fermat", "exhaustive_search", "fermat.exhaustive_search"),
    ("fermat", "_load_cache", "fermat.cache_read"),
    ("fermat", "_mark_done", "fermat.cache_write"),
)
# Rendering of reports and traces is the CLI's output path.
TRACED_METHODS = (
    ("descent_engine", "Report", "to_text", "cli.render"),
    ("descent_engine", "Report", "to_jsonl", "cli.render"),
    ("descent_engine", "DescentTrace", "to_text", "cli.render"),
    ("descent_engine", "DescentTrace", "to_jsonl", "cli.render"),
)


class Deadline(BaseException):
    """Raised by SIGALRM inside an in-process op that ran past its deadline.

    A BaseException, so that the checkers' `except Exception` cannot turn it
    into a reported failure."""


class Alarm:
    """A per-op deadline for in-process calls, on SIGALRM."""

    def __init__(self):
        self.armed = False
        self.previous = signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Deadline()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, self.previous)


def _count_scan(counts, args, result):
    p, q, bound = args[:3]
    counts["fermat.blocks"] += 1
    counts["fermat.values_scanned"] += bound // (p * p + q * q)
    counts["fermat.solutions"] += len(result)


def _count_check(counts, args, result):
    inst, bound = args[:2]
    counts["descent_engine.values_checked"] += (bound + 1) * len(getattr(inst, "predicates", (0,)))
    counts["descent_engine.failures"] += len(result.failures)


def _count_descent(counts, args, result):
    counts["descent_engine.trace_steps"] += len(result.entries) - 1


COUNTERS = {
    "fermat.scan": _count_scan,
    "descent_engine.check_id": _count_check,
    "descent_engine.check_rd": _count_check,
    "descent_engine.check_id_prime": _count_check,
    "descent_engine.run_descent": _count_descent,
}


def _module(name: str):
    """descente.<name>, or None if the package no longer has it."""
    try:
        return importlib.import_module(f"descente.{name}")
    except ImportError:
        return None


class Tracer:
    """Spans in memory.  Per-name call counts and self times are exact for
    every call; the span records themselves are kept up to `keep`."""

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[list] = []  # [span id, seconds spent in children]
        self.ids = itertools.count(1)
        self.acc: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack, spans, ids, keep, counts = self.stack, self.spans, self.ids, self.keep, self.counts
        acc = self.acc.setdefault(name, [0, 0.0])
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                spent = end - start
                if stack and stack[-1] is frame:
                    stack.pop()
                    if stack:
                        stack[-1][1] += spent
                acc[0] += 1
                acc[1] += spent - frame[1]
                if len(spans) < keep:
                    spans.append((frame[0], stack[-1][0] if stack else 0, name, start, end))
            if counter is not None:
                try:
                    counter(counts, args, result)
                except (TypeError, ValueError, AttributeError):
                    counts["trace.counter_errors"] += 1
            return result

        return traced

    @property
    def total_spans(self) -> int:
        return sum(calls for calls, _ in self.acc.values())

    def install(self) -> None:
        """Swap every traced function for its wrapper wherever a descente
        module bound it; functions the package no longer has are skipped."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "descente" or n.startswith("descente."))]
        for mod_name, attr, name in TRACED:
            orig = getattr(_module(mod_name), attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        for mod_name, cls_name, attr, name in TRACED_METHODS:
            cls = getattr(_module(mod_name), cls_name, None)
            orig = getattr(cls, attr, None)
            if orig is not None:
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "spans_total": self.total_spans,
                                 "spans_written": len(self.spans),
                                 "fields": ["id", "parent", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
