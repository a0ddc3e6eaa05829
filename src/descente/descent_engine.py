"""Bounded verifier for the descent schemas and a trace executor.

An instance packages a decidable predicate over naturals, a natural-valued
weight (which makes well-foundedness free), and a partial step function
producing a smaller counterexample.  The checkers certify the schema
obligations for every value up to a bound and report violations, a step
that raises included, as data.  The predicate, base, weight and describe
must be total: their exceptions reach the caller of a check or a trace.

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
# instance types


class DescentInstance(
    namedtuple("DescentInstance", "name predicate weight step describe", defaults=(str,))
):
    """Indefinite descent: every counterexample steps to a smaller one.

    predicate, weight, and step must be pure functions.  The engine calls
    step only on a value where predicate fails, so a step need not test it.
    """

    __slots__ = ()


class ReductionDescentInstance(
    namedtuple(
        "ReductionDescentInstance", "name base predicate weight step describe", defaults=(str,)
    )
):
    """Reduction-descent: a base class satisfies the predicate directly;
    everything else must step down to a smaller counterexample.

    The checker calls step only on a value where both predicate and base
    fail, and a trace wherever the base fails, so a step must be defined off
    the base and need test neither.
    """

    __slots__ = ()


class IndexedDescentFamily(
    CheckedRecord, namedtuple("IndexedDescentFamily", "name predicates weight steps describe")
):
    """Varying-predicate descent: a counterexample of P_i steps to a smaller
    counterexample of P_{i+1}.

    Indexing beyond the list saturates at the final predicate.  The engine
    calls steps[i] only on a value where predicates[i] fails, so a step need
    not test it.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        predicates: tuple[Predicate, ...],
        weight: Weight,
        steps: tuple[Step, ...],
        describe: Callable[[int], str] = str,
    ):
        if not predicates:
            raise DomainError("predicate family must be nonempty")
        if len(steps) != len(predicates):
            raise DomainError("one step per predicate required")
        return tuple.__new__(cls, (name, predicates, weight, steps, describe))


# ---------------------------------------------------------------------------
# reports and traces


# A report's or trace's rows() yields its output, each row a text line and
# its JSONL record; cli.main writes one of the two.  Failure and TraceEntry
# keep their fields in the order that their records list them, so that
# rows() spreads _asdict().
Failure = namedtuple("Failure", "value index kind detail")


class Report(namedtuple("Report", "schema instance bound failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def rows(self) -> Iterator[tuple[str, dict]]:
        head = {"record": "failure", "schema": self.schema, "instance": self.instance}
        for f in self.failures:
            index = "" if f.index is None else f"P_{f.index}"
            yield f"{f.value:>12}  {index:<4}  {f.kind:<24}  {f.detail}", {**head, **f._asdict()}
        verdict = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        # "record" keeps its first place in the dict when head's value is replaced.
        yield (f"{self.schema} check of '{self.instance}' up to {self.bound}: {verdict}",
               {**head, "record": "report", "bound": self.bound,
                "failures": len(self.failures), "ok": self.ok})


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

    def rows(self) -> Iterator[tuple[str, dict]]:
        weights = [str(e.weight) for e in self.entries]  # one decimal conversion each
        width = max(map(len, weights), default=1)
        head = {"record": "trace-entry", "instance": self.instance}
        for e, weight in zip(self.entries, weights):
            yield f"  weight {weight:>{width}}  {e.label}", {**head, **e._asdict()}
        yield (f"outcome: {self.outcome}",
               {**head, "record": "trace", "outcome": self.outcome, "entries": len(self.entries)})


# ---------------------------------------------------------------------------
# checkers


def _check(
    schema: str,
    name: str,
    bound: int,
    weight: Weight,
    obligations: list[tuple[int | None, Predicate, Step, Predicate]],
    base: Predicate | None = None,
) -> Report:
    """The one loop over check values, for ID, RD and ID'.  For each (index,
    predicate, step, target) obligation and each value <= bound where the
    predicate fails, a value in base is a failure, and any other must step to
    a lower-weight value where target fails.  Base is read only there, which
    for a pure instance gives the report of reading it first.

    A predicate may carry candidates(bound): the values <= bound, distinct
    and increasing, outside which it cannot fail.  The loop then visits only
    those, and still tests the predicate at each, so the report is the one
    of visiting every value.  A candidate set may leave out only values
    where a structural part of the failure condition is false (a tag, an
    equation); a constant predicate has none, since an empty set would
    assume the claim its check certifies."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
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
    return Report(schema, name, bound, tuple(failures))


def check_id(inst: DescentInstance, bound: int) -> Report:
    """Certify the indefinite-descent obligations for all values <= bound."""
    obligation = (None, inst.predicate, inst.step, inst.predicate)
    return _check("id", inst.name, bound, inst.weight, [obligation])


def check_rd(inst: ReductionDescentInstance, bound: int) -> Report:
    """Certify both reduction-descent obligations for all values <= bound."""
    obligation = (None, inst.predicate, inst.step, inst.predicate)
    return _check("rd", inst.name, bound, inst.weight, [obligation], inst.base)


def check_id_prime(fam: IndexedDescentFamily, bound: int) -> Report:
    """Certify the per-index obligations of the varying-predicate schema:
    P_i steps into P_{i+1}, and the last predicate into itself."""
    preds = fam.predicates
    obligations = list(zip(range(len(preds)), preds, fam.steps, preds[1:] + preds[-1:]))
    return _check("idprime", fam.name, bound, fam.weight, obligations)


def rd_to_id(inst: ReductionDescentInstance) -> DescentInstance:
    """The classical transformation: check the disjunction base-or-predicate
    as a single indefinite descent.  The step is the instance's own, since
    the engine calls it only where the disjunction fails."""
    return DescentInstance(
        name=f"{inst.name}-as-id",
        predicate=lambda z: inst.predicate(z) or inst.base(z),
        weight=inst.weight,
        step=inst.step,
        describe=inst.describe,
    )


def run_descent(
    inst: DescentInstance | ReductionDescentInstance | IndexedDescentFamily,
    start: int,
    max_steps: int,
) -> DescentTrace:
    """Walk inst from start by its own schema's rule, recording weights.

    A DescentInstance steps until its predicate holds.  A
    ReductionDescentInstance steps until its base holds: its step is
    defined off the base, whatever the predicate says there.  An
    IndexedDescentFamily of n predicates reads predicates[min(k, n - 1)] and
    steps[min(k, n - 1)] at its k-th step, the pairing that check_id_prime
    certifies: P_i steps into P_{i+1}, and the last predicate into itself.

    The predicate is tested before the step cap, so a walk whose predicate
    holds after exactly max_steps steps ends predicate-holds, and one where it
    still fails there (at the start, for max_steps <= 0) ends bound-exceeded.
    A step that does not lower the weight ends the trace weight-not-decreased,
    with its output as the last entry.  A step that raises ends it step-error,
    unless it raises DomainError: that is a precondition the arithmetic cannot
    meet (a factor beyond the proven prime range, say), and it reaches the
    caller.
    """
    if isinstance(inst, IndexedDescentFamily):
        predicates, steps = inst.predicates, inst.steps
    elif isinstance(inst, ReductionDescentInstance):
        predicates, steps = (inst.base,), (inst.step,)
    else:
        predicates, steps = (inst.predicate,), (inst.step,)
    last = len(predicates) - 1
    entries = [TraceEntry(start, inst.weight(start), inst.describe(start))]
    v = start
    for k in count():
        if predicates[min(k, last)](v):
            outcome = "predicate-holds"
            break
        if k >= max_steps:
            outcome = "bound-exceeded"
            break
        try:
            u = steps[min(k, last)](v)
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


def _pair_memo() -> tuple[Callable[[int], tuple[int, int]], Callable[[int, int], int]]:
    """pair_decode and pair_encode with a closure-local memo of the last code:
    a walk that reads each value's pair several times decodes only its start.
    A code the memo does not hold is decoded afresh, so the instance is pure."""
    last = [None, None]

    def decode(v: int) -> tuple[int, int]:
        if last[0] != v:
            last[:] = v, pair_decode(v)
        return last[1]

    def encode(a: int, b: int) -> int:
        last[:] = pair_encode(a, b), (a, b)
        return last[0]

    return decode, encode


def pentagon_instance() -> DescentInstance:
    """Golden-ratio descent over Cantor-encoded (m, n) proportions.

    Counterexamples are the claims "the golden proportion is m:n" with
    1 <= n <= m; the step is defined only inside the geometric window, so a
    trace ends step-undefined once the side is no longer less than the
    diagonal.
    """
    decode, encode = _pair_memo()

    def predicate(v: int) -> bool:
        m, n = decode(v)
        return not 1 <= n <= m

    def step(v: int) -> int | None:
        try:
            return encode(*pentagon_step(*decode(v)))
        except DomainError:  # outside the window: run_descent would re-raise it
            return None

    weight, describe = lambda v: decode(v)[0], lambda v: "proportion {}:{}".format(*decode(v))
    return DescentInstance("pentagon", predicate, weight, step, describe)


def _has_prime_divisor(x: int) -> bool:
    """Constant true: 0 and 1 are outside the claim, and the least divisor
    above 1 of any x > 1 is prime, so no x can fail."""
    return True


def vii31_rd_instance() -> ReductionDescentInstance:
    """VII.31 in reduction-descent form: primes (and 0, 1) are the base
    class, and a step divides out the largest prime factor, so the walk
    from x lands on the least prime of x.

    It factors a value once.  A step's output gets the input's factor list
    with the largest prime's exponent lowered, and a value is prime iff its
    list is one prime to the first power.  The memo is closure-local, and a
    value it does not hold is factored afresh, so the instance stays pure.
    core_arith is imported only where a value is factored, which no check
    does (the predicate holds everywhere), so `check id|rd vii31` does not
    load it.
    """
    memo: dict[int, list[tuple[int, int]]] = {}

    def factors(x: int) -> list[tuple[int, int]]:
        from .core_arith import _prime_factors, check_natural

        check_natural(x)
        if x not in memo:
            memo[x] = _prime_factors(x)
        return memo[x]

    def prime(x: int) -> bool:
        return factors(x) == [(x, 1)]  # 0 and 1 have no factors

    def step(x: int) -> int | None:
        if prime(x) or x <= 1:  # prime(x) first: it rejects a non-natural x
            return None
        *rest, (p, e) = factors(x)
        memo[x // p] = rest + [(p, e - 1)] if e > 1 else rest
        return x // p

    return ReductionDescentInstance(
        "vii31-rd",
        base=lambda x: x <= 1 or prime(x),
        predicate=_has_prime_divisor,
        weight=lambda x: x,
        step=step,
        describe=lambda x: f"{x}" + (" (prime)" if prime(x) else ""),
    )


def vii31_instance() -> DescentInstance:
    """Every number other than 1 has a prime divisor, as an indefinite
    descent: vii31_rd_instance seen without its base.

    The predicate holds everywhere, so the obligations are vacuous below any
    bound; the divisor-walk step is still wired in for completeness.
    """
    rd = vii31_rd_instance()
    return DescentInstance("vii31", _has_prime_divisor, rd.weight, rd.step, rd.describe)


def _euclid_terminates(v: int) -> bool:
    """Constant true: each remainder step strictly lowers the second
    component, so Euclid's loop ends on every pair."""
    return True


def gcd_instance() -> ReductionDescentInstance:
    """Termination of the remainder descent over Cantor-encoded (a, b) pairs.

    Base class: the second component is 0 (the gcd has been reached).  The
    weight is the second component, which one remainder step strictly
    decreases.
    """
    decode, encode = _pair_memo()

    def step(v: int) -> int:
        a, b = decode(v)
        return encode(b, a % b)

    return ReductionDescentInstance(
        "gcd",
        base=lambda v: decode(v)[1] == 0,
        predicate=_euclid_terminates,
        weight=lambda v: decode(v)[1],
        step=step,
        describe=lambda v: "pair ({}, {})".format(*decode(v)),
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
            _fermat().walsh_family(),
            _fermat().encode_walsh_candidate(_fermat().CandidateSolution(*v)),
        ),
        {"idprime": (10**11, lambda bound: check_id_prime(_fermat().walsh_family(), bound))},
    ),
}


# Start values must be below this.  A trace prints Cantor codes, and the
# code of a pair below it has at most 4,001 digits: within the 4,300 that
# int() converts to str by default, which longer starts would exceed.
START_LIMIT = 10**2000


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
    trace = run_descent(inst, start, max_steps=10_000)
    # A fermat or walsh descent starts only from a counterexample, which the
    # theorem rules out; it is wired anyway so a falsifying input descends.
    # Any other start ends its trace at once, where the predicate holds.
    if name in ("fermat", "walsh") and (
        trace.outcome == "predicate-holds" and len(trace.entries) == 1
    ):
        text = (f"guard rejection: ({', '.join(map(str, values))}) is not a counterexample (needs "
                "positive legs, x0^2 + x1^2 = x2^2 and x0*x1 = 2*x3^2)\nno descent to run; see "
                "`check id fermat N` and `search --bound N` for the vacuity certificates")
        coords = dict(zip(("x0", "x1", "x2", "x3"), values))
        return EXIT_OK, [(text, {"record": "guard-rejection", "instance": name, **coords})]
    return EXIT_OK, trace.rows()


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
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE, report.rows()
