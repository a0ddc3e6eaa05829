"""Bounded verifier for the descent schemas and a trace executor.

An instance, one DescentInstance record for every schema, packages
decidable predicates over naturals, a natural-valued weight (which makes
well-foundedness free), a partial step per predicate producing a smaller
counterexample, and optionally a base class.  The checkers certify the
schema obligations for every value up to a bound and report violations, a
step that raises included, as data.  The predicates, base, weight and
describe must be total: their exceptions reach the caller of a check or a
trace.

Tuple-valued descents are packed through the invertible Cantor pairing
owned by this module (pair_encode / pair_decode).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import count

from . import EXIT_COUNTEREXAMPLE, EXIT_OK, CheckedRecord, DomainError, UsageError

Predicate = Callable[[int], bool]
Weight = Callable[[int], int]
Step = Callable[[int], int | None]


# ---------------------------------------------------------------------------
# pairing


def pair_encode(a: int, b: int) -> int:
    """Cantor pairing: a bijection between pairs of naturals and naturals."""
    return (a + b) * (a + b + 1) // 2 + b


def pair_decode(v: int) -> tuple[int, int]:
    s = (math.isqrt(8 * v + 1) - 1) // 2
    b = v - s * (s + 1) // 2
    return s - b, b


def quad_encode(x0: int, x1: int, x2: int, x3: int) -> int:
    return pair_encode(pair_encode(x0, x1), pair_encode(x2, x3))


def quad_decode(v: int) -> tuple[int, int, int, int]:
    left, right = pair_decode(v)
    x0, x1 = pair_decode(left)
    x2, x3 = pair_decode(right)
    return x0, x1, x2, x3


def tagged(tag: int, pred: Predicate) -> Predicate:
    """The predicate over pair codes that holds where the first component is
    not tag, and is pred of the second component where it is.  Its
    candidates(bound) are the codes pair_encode(tag, t) <= bound, in
    increasing t, for t in pred's candidates, or for every t when pred has
    none."""

    def holds(v: int) -> bool:
        first, second = pair_decode(v)
        return first != tag or pred(second)

    def candidates(bound: int) -> Iterator[int]:
        cap = math.isqrt(2 * bound)  # pair_encode(tag, t) >= t(t + 1)/2
        inner = getattr(pred, "candidates", None)
        for t in range(cap + 1) if inner is None else inner(cap):
            if (v := pair_encode(tag, t)) > bound:
                break
            yield v

    holds.candidates = candidates
    return holds


# ---------------------------------------------------------------------------
# the descent record


class DescentInstance(
    CheckedRecord, namedtuple("DescentInstance", "name predicates weight steps describe base")
):
    """A descent: predicates P_0, ..., P_{n-1} with one step each, a
    natural-valued weight, and optionally a base class.  The schemas differ
    in what they prove of it: check_id takes one predicate and no base,
    check_rd one predicate and a base, and check_id_prime any family.

    predicates, weight, steps and base must be pure.  A check calls steps[i]
    only where predicates[i] and the base fail, and a walk only where its
    test fails (the base if there is one, else predicates[i]).  So a step
    need test neither, but with a base it must be defined off the base.
    """

    __slots__ = ()

    def __new__(cls, name: str, predicates: tuple[Predicate, ...], weight: Weight,
                steps: tuple[Step, ...], describe: Callable[[int], str] = str,
                base: Predicate | None = None):
        if not predicates:
            raise DomainError("predicate family must be nonempty")
        if len(steps) != len(predicates):
            raise DomainError("one step per predicate required")
        return tuple.__new__(cls, (name, predicates, weight, steps, describe, base))


# ---------------------------------------------------------------------------
# reports and traces


# A report's or trace's rows() yields its output as JSONL records, and its
# text function turns a record into its text line; cli.main calls only the
# one of dumps and text that --format names.  Failure and TraceEntry keep
# their fields in the order that their records list them, so that rows()
# spreads _asdict().
Failure = namedtuple("Failure", "value index kind detail")


class Report(namedtuple("Report", "schema instance bound failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def rows(self) -> Iterator[dict]:
        head = {"record": "failure", "schema": self.schema, "instance": self.instance}
        for f in self.failures:
            yield {**head, **f._asdict()}
        # "record" keeps its first place in the dict when head's value is replaced.
        yield {**head, "record": "report", "bound": self.bound,
               "failures": len(self.failures), "ok": self.ok}

    @staticmethod
    def text(row: dict) -> str:
        if row["record"] == "failure":
            index = "" if row["index"] is None else f"P_{row['index']}"
            return f"{row['value']:>12}  {index:<4}  {row['kind']:<24}  {row['detail']}"
        verdict = "ok" if row["ok"] else f"{row['failures']} failure(s)"
        return f"{row['schema']} check of '{row['instance']}' up to {row['bound']}: {verdict}"


TraceEntry = namedtuple("TraceEntry", "value weight label")

OUTCOMES = (
    "predicate-holds",
    "step-undefined",
    "bound-exceeded",
    "weight-not-decreased",
    "step-error",
)


class DescentTrace(CheckedRecord, namedtuple("DescentTrace", "instance entries outcome")):
    """The values a descent visited, with their weights, and why it ended.

    The weights strictly decrease, except that a weight-not-decreased trace
    ends on the entry whose weight is not below the one before it.
    """

    __slots__ = ()

    def __new__(cls, instance: str, entries: tuple[TraceEntry, ...], outcome: str):
        if outcome not in OUTCOMES:
            raise DomainError(f"unknown outcome {outcome!r}")
        weights = [e.weight for e in entries]
        steps = list(zip(weights, weights[1:]))
        if outcome == "weight-not-decreased":
            if not steps or steps[-1][1] < steps[-1][0]:
                raise DomainError("weight-not-decreased, but the last step lowers the weight")
            steps.pop()
        if any(b >= a for a, b in steps):
            raise DomainError("trace weights must strictly decrease")
        return tuple.__new__(cls, (instance, entries, outcome))

    def rows(self) -> Iterator[dict]:
        head = {"record": "trace-entry", "instance": self.instance}
        for e in self.entries:
            yield {**head, **e._asdict()}
        yield {**head, "record": "trace", "outcome": self.outcome, "entries": len(self.entries)}

    def text(self) -> Callable[[dict], str]:
        """The text line of a row, each weight aligned to the widest."""
        # The weights are ints, so the widest decimal is the largest's or the
        # smallest's: the width takes two conversions, not one per entry.
        # cmd_descent makes this function in both forms, so a JSONL walk
        # makes these two and no other.
        weights = [e.weight for e in self.entries] or [0]
        width = max(len(str(max(weights))), len(str(min(weights))))
        return lambda row: (f"outcome: {row['outcome']}" if row["record"] == "trace" else
                            f"  weight {row['weight']!s:>{width}}  {row['label']}")


# ---------------------------------------------------------------------------
# checkers


def _check(schema: str, inst: DescentInstance, bound: int,
           obligations: list[tuple[int | None, Predicate, Step, Predicate]]) -> Report:
    """The one loop over check values, for ID, RD and ID'.  For each (index,
    predicate, step, target) obligation and each value <= bound where the
    predicate fails, a value in inst's base is a failure, and any other must
    step to a lower-weight value where target fails.  Base is read only
    there, which for a pure instance gives the report of reading it first.

    A predicate may carry candidates(bound): the values <= bound, distinct
    and increasing, outside which it cannot fail.  The loop then visits only
    those, and still tests the predicate at each, so the report is the one
    of visiting every value.  A candidate set may leave out only values
    where a structural part of the failure condition is false (a tag, an
    equation); a constant predicate has none, since an empty set would
    assume the claim its check certifies."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    base, weight = inst.base, inst.weight
    failures: list[Failure] = []
    for index, predicate, step, target in obligations:
        candidates = getattr(predicate, "candidates", None)
        for v in range(bound + 1) if candidates is None else candidates(bound):
            if predicate(v):
                continue
            if base is not None and base(v):
                failures.append(
                    Failure(v, index, "base-without-predicate", "base holds but predicate fails")
                )
                continue
            try:
                u = step(v)
            except Exception as exc:  # malformed instances become data, not exceptions
                failures.append(Failure(v, index, "step-error", f"step raised {exc!r}"))
                continue
            if u is None:
                failures.append(
                    Failure(v, index, "step-undefined", "no smaller counterexample produced")
                )
                continue
            if weight(u) >= weight(v):
                detail = f"weight {weight(v)} -> {weight(u)}"
                failures.append(Failure(v, index, "weight-not-decreased", detail))
            if target(u):
                detail = f"step output {u} satisfies the predicate"
                failures.append(Failure(v, index, "step-not-counterexample", detail))
    return Report(schema, inst.name, bound, tuple(failures))


def _self_obligation(schema: str, inst: DescentInstance, base: bool) -> list:
    """The one obligation of ID or RD, the predicate stepping into itself.
    The schema takes one predicate, and a base for RD, none for ID."""
    if len(inst.predicates) != 1 or (inst.base is not None) != base:
        shape = "a base" if base else "no base"
        raise DomainError(f"the {schema} schema takes one predicate and {shape}")
    (predicate,), (step,) = inst.predicates, inst.steps
    return [(None, predicate, step, predicate)]


def check_id(inst: DescentInstance, bound: int) -> Report:
    """Certify the indefinite-descent obligations for all values <= bound."""
    return _check("id", inst, bound, _self_obligation("id", inst, base=False))


def check_rd(inst: DescentInstance, bound: int) -> Report:
    """Certify both reduction-descent obligations for all values <= bound."""
    return _check("rd", inst, bound, _self_obligation("rd", inst, base=True))


def check_id_prime(fam: DescentInstance, bound: int) -> Report:
    """Certify the per-index obligations of the varying-predicate schema:
    P_i steps into P_{i+1}, and the last predicate into itself."""
    preds = fam.predicates
    obligations = list(zip(range(len(preds)), preds, fam.steps, preds[1:] + preds[-1:]))
    return _check("idprime", fam, bound, obligations)


def rd_to_id(inst: DescentInstance) -> DescentInstance:
    """The classical transformation: check the disjunction base-or-predicate
    as a single indefinite descent.  The step is the instance's own, since
    the engine calls it only where the disjunction fails."""
    _self_obligation("rd", inst, base=True)  # one predicate and a base
    (predicate,), base = inst.predicates, inst.base
    return inst._replace(
        name=f"{inst.name}-as-id", predicates=(lambda z: predicate(z) or base(z),), base=None
    )


def run_descent(inst: DescentInstance, start: int, max_steps: int) -> DescentTrace:
    """Walk inst from start, recording weights.  At its k-th value the walk
    tests tests[min(k, last)] and steps by steps[min(k, last)], where tests
    is (base,) if inst has a base and its predicates otherwise: an RD walk
    ends where its base holds, and a family's follows the pairing that
    check_id_prime certifies.

    The test comes before the step cap, so a walk whose test holds after
    exactly max_steps steps ends predicate-holds, and one where it still
    fails there (at the start, for max_steps <= 0) ends bound-exceeded.
    A step that does not lower the weight ends the trace weight-not-decreased,
    with its output as the last entry.  A step that raises ends it step-error,
    unless it raises DomainError: that is a precondition the arithmetic cannot
    meet (a factor beyond the proven prime range, say), and it reaches the
    caller.
    """
    tests = inst.predicates if inst.base is None else (inst.base,)
    last = len(tests) - 1
    entries = [TraceEntry(start, inst.weight(start), inst.describe(start))]
    v = start
    for k in count():
        if tests[min(k, last)](v):
            outcome = "predicate-holds"
            break
        if k >= max_steps:
            outcome = "bound-exceeded"
            break
        try:
            u = inst.steps[min(k, last)](v)
        except DomainError:
            raise
        except Exception:  # a malformed step ends the trace as data
            outcome = "step-error"
            break
        if u is None:
            outcome = "step-undefined"
            break
        entries.append(TraceEntry(u, inst.weight(u), inst.describe(u)))
        if entries[-1].weight >= entries[-2].weight:
            outcome = "weight-not-decreased"
            break
        v = u
    return DescentTrace(inst.name, tuple(entries), outcome)


# ---------------------------------------------------------------------------
# builtin historical descents


def pentagon_step(m: int, n: int) -> tuple[int, int]:
    """One pentagram shrink: the proportion m:n becomes (m-n):(2n-m).

    Only valid inside the geometric window n < m < 2n; leaving the window is
    exactly the contradiction the descent manufactures (the golden ratio is
    irrational, so every integer start exits in finitely many steps).
    """
    if not n < m < 2 * n:
        raise DomainError(f"proportion {m}:{n} outside the window n < m < 2n")
    return m - n, 2 * n - m


def _memo(compute: Callable) -> tuple[Callable, Callable]:
    """read(v) is compute(v), kept for the last v only; seed(v, result)
    stores what a step knows of its output v, and returns v.  A walk that
    seeds each step's output computes at its start only, any other value is
    computed afresh, and the memo holds one entry however much is read."""
    last = (None, None)

    def read(v: int):
        nonlocal last
        key, result = last
        if key != v:
            key, result = last = v, compute(v)
        return result

    def seed(v: int, result) -> int:
        nonlocal last
        last = v, result
        return v

    return read, seed


def pentagon_instance() -> DescentInstance:
    """Golden-ratio descent over Cantor-encoded (m, n) proportions.

    Counterexamples are the claims "the golden proportion is m:n" with
    1 <= n <= m; the step is defined only inside the geometric window, so a
    trace ends step-undefined once the side is no longer less than the
    diagonal.
    """
    decode, seed = _memo(pair_decode)

    def predicate(v: int) -> bool:
        m, n = decode(v)
        return not 1 <= n <= m

    def step(v: int) -> int | None:
        try:
            pair = pentagon_step(*decode(v))
        except DomainError:  # outside the window: run_descent would re-raise it
            return None
        return seed(pair_encode(*pair), pair)

    weight, describe = lambda v: decode(v)[0], lambda v: "proportion {}:{}".format(*decode(v))
    return DescentInstance("pentagon", (predicate,), weight, (step,), describe)


def _has_prime_divisor(x: int) -> bool:
    """Constant true: 0 and 1 are outside the claim, and the least divisor
    above 1 of any x > 1 is prime, so no x can fail."""
    return True


def vii31_rd_instance() -> DescentInstance:
    """VII.31 in reduction-descent form: primes (and 0, 1) are the base
    class, and a step divides out the largest prime factor, so the walk
    from x lands on the least prime of x.

    It reads factor lists through _memo, so a walk factors its start only:
    a step seeds its output with the input's list, the largest prime's
    exponent lowered, and a value is prime iff its list is one prime to the
    first power.  core_arith is imported only where a value is factored,
    which no check does (the predicate holds everywhere), so
    `check id|rd vii31` does not load it.
    """

    def factorize(x: int) -> list[tuple[int, int]]:
        from .core_arith import _prime_factors, check_natural

        check_natural(x)
        return _prime_factors(x)

    factors, seed = _memo(factorize)

    def prime(x: int) -> bool:
        return factors(x) == [(x, 1)]  # 0 and 1 have no factors

    def step(x: int) -> int | None:
        if prime(x) or x <= 1:  # prime(x) first: it rejects a non-natural x
            return None
        *rest, (p, e) = factors(x)
        return seed(x // p, rest + [(p, e - 1)] if e > 1 else rest)

    return DescentInstance(
        "vii31-rd",
        predicates=(_has_prime_divisor,),
        weight=lambda x: x,
        steps=(step,),
        describe=lambda x: f"{x}" + (" (prime)" if prime(x) else ""),
        base=lambda x: x <= 1 or prime(x),
    )


def vii31_instance() -> DescentInstance:
    """Every number other than 1 has a prime divisor, as an indefinite
    descent: vii31_rd_instance without its base.

    The predicate holds everywhere, so the obligations are vacuous below any
    bound; the divisor-walk step is still wired in for completeness.
    """
    return vii31_rd_instance()._replace(name="vii31", base=None)


def _euclid_terminates(v: int) -> bool:
    """Constant true: each remainder step strictly lowers the second
    component, so Euclid's loop ends on every pair."""
    return True


def gcd_instance() -> DescentInstance:
    """Termination of the remainder descent over Cantor-encoded (a, b) pairs.

    Base class: the second component is 0 (the gcd has been reached).  The
    weight is the second component, which one remainder step strictly
    decreases.
    """
    decode, seed = _memo(pair_decode)

    def step(v: int) -> int:
        a, b = decode(v)
        return seed(pair_encode(b, a % b), (b, a % b))

    return DescentInstance(
        "gcd",
        predicates=(_euclid_terminates,),
        weight=lambda v: decode(v)[1],
        steps=(step,),
        describe=lambda v: "pair ({}, {})".format(*decode(v)),
        base=lambda v: decode(v)[1] == 0,
    )


# ---------------------------------------------------------------------------
# instance registry and the descent and check commands


def _fermat():
    from . import fermat

    return fermat


# The named instances: name -> (start-value count, trace factory taking the
# start values to (instance, encoded start), {schema: (largest bound the
# check accepts, report factory taking the bound)}).  The fermat and walsh
# entries reach descente.fermat through _fermat(), which imports it only when
# a factory runs.  Every check factory calls check_id, check_rd or
# check_id_prime by its module-global name, so a wrapper put on that name
# sees each check.
#
# Each check's limit keeps it to a few seconds as a subprocess (Python 3.11,
# 2 CPUs, 5 spawns without a bytecode cache): 2*10**7 for vii31 takes
# 0.77-0.81 s, and 3,000 for the gcd side 0.71-0.73 s.  The fermat check
# grows as the square root of the bound: 10**11 takes 0.82-0.86 s, and
# 10**12 about 3 s.  The walsh check visits only the triple codes of its two
# fibers, 301 each at 10**11, and takes 0.04-0.05 s there, mostly start-up;
# it keeps the fermat check's limit.
INSTANCES = {
    "pentagon": (2, lambda v: (pentagon_instance(), pair_encode(*v)), {}),
    "vii31": (
        1,
        lambda v: (vii31_rd_instance()._replace(name="vii31"), v[0]),
        {
            "id": (2 * 10**7, lambda bound: check_id(vii31_instance(), bound)),
            "rd": (2 * 10**7, lambda bound: check_rd(vii31_rd_instance(), bound)),
        },
    ),
    "gcd": (
        2,
        lambda v: (gcd_instance(), pair_encode(*v)),
        # The bound is over pair components, translated to the Cantor encoding.
        {"rd": (3000, lambda bound: check_rd(gcd_instance(), pair_encode(bound, bound)))},
    ),
    "fermat": (
        4,
        lambda v: (_fermat().fermat_instance(), quad_encode(*v)),
        {"id": (10**11, lambda bound: check_id(_fermat().fermat_instance(), bound))},
    ),
    "walsh": (
        4,
        lambda v: (
            (f := _fermat()).walsh_family(), f.encode_walsh_candidate(f.CandidateSolution(*v))
        ),
        {"idprime": (10**11, lambda bound: check_id_prime(_fermat().walsh_family(), bound))},
    ),
}


# Start values must be below this.  A trace prints Cantor codes, and the
# code of a pair below it has at most 4,001 digits: within the 4,300 that
# int() converts to str by default, which longer starts would exceed.
START_LIMIT = 10**2000


# The text of a guard-rejection record: one fixed message, filled from the
# record by str.format_map.
_GUARD = ("guard rejection: ({x0}, {x1}, {x2}, {x3}) is not a counterexample (needs positive "
          "legs, x0^2 + x1^2 = x2^2 and x0*x1 = 2*x3^2)\nno descent to run; see "
          "`check id fermat N` and `search --bound N` for the vacuity certificates")


def cmd_descent(name: str, values: list[int]) -> tuple:
    if any(v < 0 for v in values):
        raise UsageError("start values must be naturals")
    if any(v >= START_LIMIT for v in values):
        raise UsageError("start values must be below 10**2000")
    if name not in INSTANCES:
        raise UsageError(f"unknown instance {name!r}")
    arity, trace_factory, _ = INSTANCES[name]
    if len(values) != arity:
        raise UsageError(f"instance {name!r} takes {arity} start value(s)")
    inst, start = trace_factory(values)
    # A fermat or walsh descent starts only from a counterexample, which the
    # theorem rules out; it is wired anyway so a falsifying input descends.
    # Any other start is rejected here: its walk would end at once, where
    # the first predicate holds.
    if name in ("fermat", "walsh") and inst.predicates[0](start):
        quad = dict(zip(("x0", "x1", "x2", "x3"), values))
        return EXIT_OK, [{"record": "guard-rejection", "instance": name, **quad}], _GUARD.format_map
    trace = run_descent(inst, start, max_steps=10_000)
    return EXIT_OK, trace.rows(), trace.text()


def cmd_check(schema: str, name: str, bound: int) -> tuple:
    if bound < 1:
        raise UsageError("bound must be >= 1")
    check = INSTANCES[name][2].get(schema) if name in INSTANCES else None
    if check is None:
        raise UsageError(f"no registered {schema} instance named {name!r}")
    limit, factory = check
    if bound > limit:
        raise UsageError(f"bound must be <= {limit}")
    report = factory(bound)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE, report.rows(), report.text
