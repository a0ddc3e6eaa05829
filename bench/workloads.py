"""Seeded inputs and output checks for the four benchmark workloads.

A workload is a fixed list of `descente` commands (one "pass"), generated
from the seed alone.  Each op carries its own deadline, the work it
certifies when it succeeds, and a check that judges the command's exit code
and output.  The checks recompute every answer with this file's own
arithmetic; nothing here imports the package under test.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

# A check gets (exit code, stdout, stderr) and returns None when the output
# is right, otherwise a one-line reason.
Check = Callable[[int, str, str], Optional[str]]

SEARCH_DEADLINE_S = 60.0
CHECK_DEADLINE_S = 30.0
ARITH_DEADLINE_S = 3.0

EXIT_OK = 0
EXIT_PRECONDITION = 65

# Deterministic Miller-Rabin bases: exact below 3.3e24 (Sorenson-Webster).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

HOSTILE_VII31 = 10_000_000_000_000_000_000_000_000_000_000_000_057


@dataclass(frozen=True)
class Op:
    """One CLI command.  `{cache}` in argv is replaced by a file in the
    pass's fresh temporary directory."""

    argv: tuple[str, ...]
    deadline: float
    work: int
    check: Check

    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    work_unit: str


# ---------------------------------------------------------------------------
# independent arithmetic


def is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below MR_EXACT_BELOW, and with the extra
    bases a strong probable-prime test beyond it."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = MR_BASES if n < MR_EXACT_BELOW else MR_BASES + (43, 47, 53, 59, 61, 67, 71)
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def least_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# output parsing and checks


def _expect_exit(code: int, want: int, err: str) -> Optional[str]:
    if code != want:
        return f"exit {code}, expected {want}: {err.strip()[:120]}"
    return None


def search_check(bound: int, fmt: str) -> Check:
    """search must exit 0 and its footer must report 0 counterexamples for
    exactly this bound."""

    def check(code, out, err):
        bad = _expect_exit(code, EXIT_OK, err)
        if bad:
            return bad
        lines = out.strip().splitlines()
        if not lines:
            return "no output"
        if fmt == "jsonl":
            recs = [json.loads(line) for line in lines]
            foot = recs[-1]
            if foot.get("record") != "footer" or len(recs) != 1:
                return f"unexpected records: {lines[:2]}"
            if foot.get("bound") != bound or foot.get("count") != 0:
                return f"footer {foot}"
            return None
        m = re.fullmatch(r"bound (\d+): (\d+) counterexample\(s\) in [0-9.]+s", lines[-1])
        if len(lines) != 1 or not m or int(m[1]) != bound or int(m[2]) != 0:
            return f"footer {lines[-1]!r}"
        return None

    return check


def report_check(schema: str, instance: str, report_bound: int, fmt: str) -> Check:
    """check must exit 0 and report ok for the stated (encoded) bound."""

    def check(code, out, err):
        bad = _expect_exit(code, EXIT_OK, err)
        if bad:
            return bad
        lines = out.strip().splitlines()
        if len(lines) != 1:
            return f"{len(lines)} lines, expected one summary"
        if fmt == "jsonl":
            rec = json.loads(lines[0])
            want = {"record": "report", "schema": schema, "instance": instance,
                    "bound": report_bound, "failures": 0, "ok": True}
            return None if rec == want else f"report {rec}"
        want = f"{schema} check of '{instance}' up to {report_bound}: ok"
        return None if lines[0] == want else f"summary {lines[0]!r}"

    return check


def parse_trace(out: str, fmt: str) -> tuple[list[tuple[int, str]], str]:
    """(weight, label) per trace entry, and the outcome."""
    lines = out.strip().splitlines()
    if fmt == "jsonl":
        recs = [json.loads(line) for line in lines]
        entries = [(r["weight"], r["label"]) for r in recs if r["record"] == "trace-entry"]
        summary = recs[-1]
        if summary["record"] != "trace" or summary["entries"] != len(entries):
            raise ValueError(f"bad trace summary {summary}")
        return entries, summary["outcome"]
    entries = []
    for line in lines[:-1]:
        m = re.fullmatch(r"\s*weight\s+(\d+)\s+(.*)", line)
        if not m:
            raise ValueError(f"bad trace line {line!r}")
        entries.append((int(m[1]), m[2]))
    if not lines[-1].startswith("outcome: "):
        raise ValueError(f"bad outcome line {lines[-1]!r}")
    return entries, lines[-1][len("outcome: "):]


def trace_check(expected: Callable[[list[tuple[int, str]], str], Optional[str]], fmt: str,
                reject_ok: bool = False) -> Check:
    """descent must exit 0 with a trace whose weights strictly decrease and
    which `expected` accepts.  With reject_ok, a clean precondition
    rejection (exit 65) is also a right answer."""

    def check(code, out, err):
        if reject_ok and code == EXIT_PRECONDITION:
            return None
        bad = _expect_exit(code, EXIT_OK, err)
        if bad:
            return bad
        try:
            entries, outcome = parse_trace(out, fmt)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparsable trace: {exc}"
        if not entries:
            return "empty trace"
        weights = [w for w, _ in entries]
        if any(b >= a for a, b in zip(weights, weights[1:])):
            return f"weights not strictly decreasing: {weights[:6]}"
        return expected(entries, outcome)

    return check


def vii31_expected(start: int) -> Callable:
    """A divisor walk from start: each value a proper divisor of the one
    before, every value composite until the last, and the last prime."""

    def expected(entries, outcome):
        values = [int(label.split()[0]) for _, label in entries]
        if values[0] != start or [w for w, _ in entries] != values:
            return f"walk does not start at {start} or weight != value"
        for a, b in zip(values, values[1:]):
            if a % b or b >= a:
                return f"{b} is not a proper divisor of {a}"
            if is_prime(a):
                return f"walk continued past prime {a}"
        if not is_prime(values[-1]) or outcome != "predicate-holds":
            return f"walk ends at {values[-1]} ({outcome}), not at a prime"
        return None

    return expected


PAIR_LABEL = r"pair \((\d+), (\d+)\)"
PROPORTION_LABEL = r"proportion (\d+):(\d+)"


def _pairs(entries, pattern: str) -> list[tuple[int, int]]:
    """The two numbers in each entry's label."""
    out = []
    for _, label in entries:
        m = re.fullmatch(pattern, label)
        if not m:
            raise ValueError(label)
        out.append((int(m[1]), int(m[2])))
    return out


def gcd_expected(a: int, b: int) -> Callable:
    """The remainder walk (a, b) -> (b, a mod b) down to (gcd, 0)."""

    def expected(entries, outcome):
        want = [(a, b)]
        while want[-1][1]:
            x, y = want[-1]
            want.append((y, x % y))
        try:
            got = _pairs(entries, PAIR_LABEL)
        except ValueError as exc:
            return f"bad label {exc}"
        if got != want or outcome != "predicate-holds" or want[-1][0] != math.gcd(a, b):
            return f"gcd walk {got[:3]}... ({outcome}) differs from {want[:3]}..."
        return None

    return expected


def pentagon_expected(m: int, n: int) -> Callable:
    """The pentagram shrink m:n -> (m-n):(2n-m) while n < m < 2n."""

    def expected(entries, outcome):
        want = [(m, n)]
        while 1 <= want[-1][1] <= want[-1][0] and want[-1][1] < want[-1][0] < 2 * want[-1][1]:
            x, y = want[-1]
            want.append((x - y, 2 * y - x))
        x, y = want[-1]
        want_outcome = "step-undefined" if 1 <= y <= x else "predicate-holds"
        try:
            got = _pairs(entries, PROPORTION_LABEL)
        except ValueError as exc:
            return f"bad label {exc}"
        if got != want or outcome != want_outcome:
            return f"pentagon walk {got[:3]}... ({outcome}) differs"
        return None

    return expected


def rejected_check() -> Check:
    """An invalid decomposition must exit 65 with a precondition message."""

    def check(code, out, err):
        bad = _expect_exit(code, EXIT_PRECONDITION, err)
        if bad:
            return bad
        return None if err.startswith("precondition failure") else f"stderr {err[:80]!r}"

    return check


def _decomposition_check(verify: Callable[[dict], Optional[str]], pattern: str) -> Check:
    def check(code, out, err):
        bad = _expect_exit(code, EXIT_OK, err)
        if bad:
            return bad
        m = re.fullmatch(pattern, out.strip())
        if not m:
            return f"output {out.strip()[:80]!r}"
        return verify({k: int(v) if v is not None else None for k, v in m.groupdict().items()})

    return check


def triple_check(x0: int, x1: int, x2: int) -> Check:
    """i names the even leg (0 on ties); 4ab is its square, a-b the other
    leg, a+b the hypotenuse; a common prime is reported iff the triple is
    not primitive, and it is the least one."""

    def verify(g):
        i, a, b = g["i"], g["a"], g["b"]
        legs = (x0, x1)
        want_i = 0 if x0 % 2 == 0 else 1
        if i != want_i or 4 * a * b != legs[i] ** 2 or a - b != legs[1 - i] or a + b != x2:
            return f"i={i} a={a} b={b} does not split ({x0}, {x1}, {x2})"
        common = math.gcd(math.gcd(x0, x1), x2)
        want_z = least_prime_factor(common) if common > 1 else None
        if g["z"] != want_z:
            return f"common factor {g['z']}, expected {want_z}"
        return None

    return _decomposition_check(
        verify, r"i=(?P<i>\d+) a=(?P<a>\d+) b=(?P<b>\d+)(?:  \(non-primitive, common factor (?P<z>\d+)\))?"
    )


def two_square_check(x0: int, x1: int, x2: int) -> Check:
    def verify(g):
        m, k = g["m"], g["k"]
        if (x0, x1, x2) != (abs(2 * m * m - k * k), 2 * m * k, 2 * m * m + k * k) or math.gcd(2 * m, k) != 1:
            return f"m={m} k={k} does not parametrize ({x0}, {x1}, {x2})"
        return None

    return _decomposition_check(verify, r"m=(?P<m>\d+) k=(?P<k>\d+)")


def frenicle_check(x2: int) -> Check:
    def verify(g):
        m, k = g["m"], g["k"]
        if (2 * m * m) ** 2 + (k * k) ** 2 != x2 or math.gcd(2 * m, k) != 1:
            return f"m={m} k={k}: (2m^2)^2 + (k^2)^2 != {x2}"
        return None

    return _decomposition_check(verify, r"m=(?P<m>\d+) k=(?P<k>\d+)")


# ---------------------------------------------------------------------------
# workloads


def certify(seed: int) -> Workload:
    """One uncached serial search; the bound varies by under 1% with the seed."""
    rng = random.Random(f"certify:{seed}")
    bound = 250_000 + rng.randrange(2_500)
    fmt = rng.choice(("text", "jsonl"))
    op = Op(("search", "--bound", str(bound), "--format", fmt),
            SEARCH_DEADLINE_S, bound, search_check(bound, fmt))
    return Workload("certify", (op,), "x2 certified")


def resume(seed: int) -> Workload:
    """Two fresh cache files per pass, each written once (cold) and read
    twice (warm), in both formats, so warm ops set the median and cold ops
    the tail."""
    rng = random.Random(f"resume:{seed}")
    bound = 300_000 + rng.randrange(3_000)
    ops = []
    for cache, first, second in (("a", "text", "jsonl"), ("b", "jsonl", "text")):
        for fmt in (first, first, second):
            ops.append(Op(("search", "--bound", str(bound), "--format", fmt,
                           "--cache", "{cache}/" + cache + ".txt"),
                          SEARCH_DEADLINE_S, bound, search_check(bound, fmt)))
    return Workload("resume", tuple(ops), "x2 certified")


def pair_encode(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def schemas(seed: int) -> Workload:
    """Every registered schema check, in text and jsonl.  Bounds vary by
    under 1% with the seed; work is the number of values examined."""
    rng = random.Random(f"schemas:{seed}")

    def jitter(n: int) -> int:
        return n + rng.randrange(n // 100)

    gcd_side = jitter(200)
    checks = [
        # (schema, argv instance, report instance, bound, report bound, predicates)
        ("id", "vii31", "vii31", jitter(60_000), None, 1),
        ("id", "fermat", "fermat", jitter(80_000), None, 1),
        ("rd", "vii31", "vii31-rd", jitter(50_000), None, 1),
        ("rd", "gcd", "gcd", gcd_side, pair_encode(gcd_side, gcd_side), 1),
        ("idprime", "walsh", "walsh", jitter(150_000), None, 2),
    ]
    ops = []
    for fmt in ("text", "jsonl"):
        for schema, name, shown, bound, shown_bound, preds in checks:
            shown_bound = shown_bound or bound
            ops.append(Op(("check", schema, name, str(bound), "--format", fmt),
                          CHECK_DEADLINE_S, (shown_bound + 1) * preds,
                          report_check(schema, shown, shown_bound, fmt)))
    rng.shuffle(ops)
    return Workload("schemas", tuple(ops), "values examined")


def _descent(rng, name: str, values: tuple[int, ...], expected, reject_ok=False) -> Op:
    fmt = rng.choice(("text", "jsonl"))
    return Op(("descent", name, *map(str, values), "--format", fmt), ARITH_DEADLINE_S, 1,
              trace_check(expected, fmt, reject_ok))


def _vii31_inputs(rng) -> list[int]:
    """Primes, balanced semiprimes and 47-smooth numbers, stratified by
    decade from 1e6 to 1e13 so that every seed has the same cost profile;
    the large decades appear twice because they set the tail."""
    out = []
    for k in list(range(6, 14)) + [10, 11, 12, 13]:
        lo = 10**k
        out.append(next_prime(lo + rng.randrange(lo // 4)))
        half = math.isqrt(lo)
        p = next_prime(half + rng.randrange(half // 4 + 1))
        out.append(p * next_prime(p + 1 + rng.randrange(half // 4 + 1)))
        x = 1
        while x < lo:
            x *= rng.choice(SMALL_PRIMES)
        out.append(x)
    return out


def _valid_generators(rng, top: int) -> tuple[int, int]:
    while True:
        p = rng.randrange(2, top)
        q = rng.randrange(1, p)
        if (p + q) % 2 and math.gcd(p, q) == 1:
            return p, q


def arith(seed: int) -> Workload:
    """100 short commands: divisor walks, remainder and pentagon walks,
    valid and invalid decompositions, and the hostile vii31 input."""
    rng = random.Random(f"arith:{seed}")
    ops = []
    for n in _vii31_inputs(rng):
        ops.append(_descent(rng, "vii31", (n,), vii31_expected(n)))
    for _ in range(13):
        k = rng.randrange(20, 90)
        a, b = fibonacci(k + 1), fibonacci(k)
        ops.append(_descent(rng, "gcd", (a, b), gcd_expected(a, b)))
    for i in range(14):
        if i % 2:
            k = rng.randrange(10, 80)
            m, n = fibonacci(k + 1), fibonacci(k)
        else:
            n = rng.randrange(1, 10**9)
            m = n + rng.randrange(0, n)
        ops.append(_descent(rng, "pentagon", (m, n), pentagon_expected(m, n)))

    def decompose(kind, values, check):
        return Op(("decompose", kind, *map(str, values)), ARITH_DEADLINE_S, 1, check)

    for i in range(12):
        p, q = _valid_generators(rng, 200)
        d = 1 if i < 6 else rng.randrange(2, 30)
        legs = [2 * p * q * d, (p * p - q * q) * d]
        rng.shuffle(legs)
        x2 = (p * p + q * q) * d
        if i % 3 == 2:
            ops.append(decompose("triple", (*legs, x2 + 1), rejected_check()))
        else:
            ops.append(decompose("triple", (*legs, x2), triple_check(*legs, x2)))
    for i in range(12):
        while True:
            m, k = rng.randrange(1, 300), rng.randrange(1, 600, 2)
            if math.gcd(2 * m, k) == 1 and 2 * m * m != k * k:
                break
        x0, x1, x2 = abs(2 * m * m - k * k), 2 * m * k, 2 * m * m + k * k
        if i % 3 == 2:
            ops.append(decompose("two-square", (x0, x1 + 2, x2), rejected_check()))
        else:
            ops.append(decompose("two-square", (x0, x1, x2), two_square_check(x0, x1, x2)))
    for i in range(12):
        while True:
            m, k = rng.randrange(1, 40), rng.randrange(1, 80, 2)
            if math.gcd(2 * m, k) == 1 and 2 * m * m != k * k:
                break
        p, q = sorted((2 * m * m, k * k), reverse=True)
        even, odd, x2 = 2 * p * q, p * p - q * q, p * p + q * q
        legs = (even, odd) if rng.random() < 0.5 else (odd, even)
        v = 2 * m * k
        if i % 3 == 2:
            ops.append(decompose("frenicle", (*legs, x2, v + 1), rejected_check()))
        else:
            ops.append(decompose("frenicle", (*legs, x2, v), frenicle_check(x2)))
    # Beyond the range where primality can be decided exactly and fast, a
    # clean rejection is a right answer; a hang is killed at the deadline.
    ops.append(_descent(rng, "vii31", (HOSTILE_VII31,), vii31_expected(HOSTILE_VII31), reject_ok=True))
    rng.shuffle(ops)
    return Workload("arith", tuple(ops), "answers")


WORKLOADS = {w.__name__: w for w in (certify, resume, schemas, arith)}
