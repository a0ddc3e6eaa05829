"""Paths, child processes, deadlines and pass bookkeeping shared by the
untraced and the traced runs."""

from __future__ import annotations

import contextlib
import os
import select
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# No new op starts after this many seconds, so a run ends well inside 180 s
# even when every op runs into its deadline.
RUN_CAP_S = 120.0
IMPORT_CLI = "import descente.cli"
# The machine's speed drifts by tens of percent over seconds (other tenants
# share its cores), and a child's CPU time drifts with it.  So the untraced
# run times a fixed pure-Python loop before and after every op, and scales
# the op's latency by REF_NOMINAL_S over the mean of the two.  REF_NOMINAL_S
# is the loop's time on an uncontended core (2.1 GHz x86-64, CPython 3.11),
# so paced latencies read as seconds on that machine when it is quiet.
REF_LOOPS = 300_000
REF_NOMINAL_S = 0.020


@dataclass
class Outcome:
    op: Op
    latency: float
    killed: bool
    reason: str | None  # None when the op succeeded
    maxrss_kb: int = 0
    pace: float = 1.0  # REF_NOMINAL_S over the reference time around the op

    @property
    def paced(self) -> float:
        """The latency at nominal machine speed; a kill stays at its deadline."""
        return self.latency if self.killed else self.latency * self.pace


def reference_seconds() -> float:
    """Time of the fixed reference loop, now."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Pacer:
    """Speed factors from reference loops timed between consecutive ops."""

    def __init__(self):
        self.last = reference_seconds()

    def pace(self) -> float:
        """Factor for the op that just ended: nominal over the mean of the
        reference times before and after it."""
        before, self.last = self.last, reference_seconds()
        return REF_NOMINAL_S / ((before + self.last) / 2)


def child_env() -> dict:
    """The caller's environment without DESCENTE_CACHE (it would turn an
    uncached search into a resumed one), with the checkout's sources first."""
    env = {k: v for k, v in os.environ.items() if k not in ("DESCENTE_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs one child at a time with stdout and stderr in files, and reads
    that child's own peak RSS with wait4 (RUSAGE_CHILDREN would report the
    high-water mark over every child so far)."""

    def __init__(self, scratch: Path):
        self.env = child_env()
        self.out_path = scratch / "stdout"
        self.err_path = scratch / "stderr"

    def run(self, args: list[str], deadline: float):
        """(exit code, or None if killed at the deadline; stdout; stderr;
        latency in seconds; peak RSS in KiB)."""
        argv = [sys.executable, *args]
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            actions = [(os.POSIX_SPAWN_CLOSE, 0),
                       (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        killed = False
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], deadline)
            latency = time.perf_counter() - start
            if not ready:
                # The child is not reaped yet, so its pid cannot be reused.
                os.kill(pid, signal.SIGKILL)
                killed, latency = True, deadline
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        code = None if killed else os.waitstatus_to_exitcode(status)
        return (code, self.out_path.read_text(errors="replace"),
                self.err_path.read_text(errors="replace"), latency, usage.ru_maxrss)


def judge(op: Op, code: int | None, out: str, err: str) -> str | None:
    """None if the op's answer is right, else why not."""
    if code is None:
        return f"deadline {op.deadline:g} s"
    try:
        return op.check(code, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {exc!r}"


@contextlib.contextmanager
def pass_dir():
    """A fresh directory for one pass's cache files, deleted afterwards."""
    tmp_root = OUT_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def op_argv(op: Op, cache_dir: Path) -> list[str]:
    return [a.replace("{cache}", str(cache_dir)) for a in op.argv]


def another_pass_fits(t0: float, seconds: float, last_pass: float) -> bool:
    elapsed = time.perf_counter() - t0
    return elapsed + last_pass <= seconds and elapsed < RUN_CAP_S
