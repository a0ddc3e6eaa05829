"""Schema checkers, the RD-to-ID transformation, traces, serialization, and
the built-in historical descents."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descente import DomainError
from descente.descent_engine import (
    DescentInstance,
    DescentTrace,
    Failure,
    IndexedDescentFamily,
    ReductionDescentInstance,
    Report,
    TraceEntry,
    check_id,
    check_id_prime,
    check_rd,
    gcd_instance,
    pair_decode,
    pair_encode,
    pentagon_instance,
    pentagon_step,
    quad_decode,
    quad_encode,
    rd_to_id,
    run_descent,
    tagged,
    vii31_instance,
    vii31_rd_instance,
    _step_obligations,
)

from . import oracles


# ---------------------------------------------------------------------------
# pairing


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_pair_round_trip(a, b):
    assert pair_decode(pair_encode(a, b)) == (a, b)


@given(st.integers(0, 10**6))
def test_pair_decode_then_encode(v):
    assert pair_encode(*pair_decode(v)) == v


def test_pair_is_bijective_on_prefix():
    seen = set()
    for a in range(50):
        for b in range(50):
            v = pair_encode(a, b)
            assert v not in seen
            seen.add(v)
    assert pair_encode(0, 0) == 0


@given(st.tuples(*[st.integers(0, 10**4)] * 4))
def test_quad_round_trip(t):
    assert quad_decode(quad_encode(*t)) == t


# ---------------------------------------------------------------------------
# check_id


def test_check_id_vii31_vacuous():
    report = check_id(vii31_instance(), 10**4)
    assert report.ok and report.failures == ()
    assert report.schema == "id" and report.bound == 10**4


def test_check_id_always_true_predicate():
    inst = DescentInstance("trivial", lambda v: True, lambda v: v, lambda v: None)
    assert check_id(inst, 100).ok


def test_check_id_detects_weight_increase():
    # A step to a larger weight, and one that keeps the weight.
    for target in (7, 5):
        inst = DescentInstance(
            "bad-weight",
            predicate=lambda v: v != 5,
            weight=lambda v: v,
            step=lambda v: target if v == 5 else None,
        )
        report = check_id(inst, 10)
        assert not report.ok
        assert all(f.value == 5 for f in report.failures)
        assert "weight-not-decreased" in {f.kind for f in report.failures}


def test_check_id_detects_undefined_step_and_bad_target():
    inst = DescentInstance(
        "bad-step",
        predicate=lambda v: v not in (4, 6),
        weight=lambda v: v,
        step=lambda v: {6: 3}.get(v),  # undefined at 4; 3 satisfies P at 6
    )
    report = check_id(inst, 10)
    kinds = {f.value: f.kind for f in report.failures}
    assert kinds == {4: "step-undefined", 6: "step-not-counterexample"}


def test_check_id_captures_step_exceptions_as_data():
    def step(v):
        raise RuntimeError("boom")

    inst = DescentInstance("raises", lambda v: v != 3, lambda v: v, step)
    report = check_id(inst, 5)
    assert [f.kind for f in report.failures] == ["step-error"]


def test_check_id_rejects_bad_bound():
    with pytest.raises(DomainError):
        check_id(vii31_instance(), 0)


# ---------------------------------------------------------------------------
# check_rd


def test_check_rd_gcd_pairs_up_to_200():
    report = check_rd(gcd_instance(), pair_encode(200, 200))
    assert report.ok


def test_check_rd_trivial():
    inst = ReductionDescentInstance(
        "trivial", lambda v: True, lambda v: True, lambda v: v, lambda v: None
    )
    assert check_rd(inst, 50).ok


def test_check_rd_base_without_predicate():
    inst = ReductionDescentInstance(
        "s-not-p",
        base=lambda v: v == 3,
        predicate=lambda v: False,
        weight=lambda v: v,
        step=lambda v: 0 if v else None,
    )
    report = check_rd(inst, 5)
    assert any(f.value == 3 and f.kind == "base-without-predicate" for f in report.failures)


# ---------------------------------------------------------------------------
# rd_to_id


def test_rd_to_id_gcd():
    bound = pair_encode(120, 120)
    assert check_rd(gcd_instance(), bound).ok
    assert check_id(rd_to_id(gcd_instance()), bound).ok


def test_rd_to_id_vii31():
    assert check_rd(vii31_rd_instance(), 10**4).ok
    assert check_id(rd_to_id(vii31_rd_instance()), 10**4).ok


def test_rd_to_id_trivial_all_true():
    inst = ReductionDescentInstance(
        "true", lambda v: True, lambda v: True, lambda v: v, lambda v: None
    )
    out = rd_to_id(inst)
    assert all(out.predicate(v) for v in range(100))


def _random_rd_instance(rng: random.Random, bound: int) -> ReductionDescentInstance:
    """A well-formed RD instance over [0, bound]: S subset of P, and every
    non-P value steps to a strictly smaller non-P value (descending chains
    through the non-P set, escaping above the bound at the chain's end)."""
    style = rng.randrange(3)
    if style == 0:
        # P covers everything; S is a random subset.  Obligations vacuous.
        s = {v for v in range(bound + 1) if rng.random() < 0.3}
        return ReductionDescentInstance(
            f"rand-vacuous-{rng.randrange(10**6)}",
            base=lambda v, s=s: v in s,
            predicate=lambda v: True,
            weight=lambda v: v,
            step=lambda v: None,
        )
    # Non-P values inside the window step to non-P partners above the bound
    # with strictly smaller weight; the checker certifies obligations only at
    # values <= bound, so the partners carry no obligations of their own.
    bad = rng.sample(range(bound + 1), rng.randrange(1, 12))
    partners = {v: bound + 1 + v for v in bad}
    bad_set = set(bad) | set(partners.values())
    s = {v for v in range(bound + 1) if v not in bad_set and rng.random() < 0.2}

    def weight(v: int) -> int:
        # source v has weight 2(v+1); its partner has 2(v+1) - 1
        return 2 * (v + 1) if v <= bound else 2 * (v - bound) - 1

    return ReductionDescentInstance(
        f"rand-chain-{rng.randrange(10**6)}",
        base=lambda v, s=s: v in s,
        predicate=lambda v, b=bad_set: v not in b,
        weight=weight,
        step=lambda v, n=partners: n.get(v),
    )


def test_rd_to_id_preserves_empty_reports_randomized():
    """100 randomized well-formed RD instances: check_rd empty implies
    check_id(rd_to_id(.)) empty over the same bound."""
    rng = random.Random(20260823)
    bound = 500
    for _ in range(100):
        inst = _random_rd_instance(rng, bound)
        rd_report = check_rd(inst, bound)
        assert rd_report.ok, rd_report.failures[:3]
        id_report = check_id(rd_to_id(inst), bound)
        assert id_report.ok, id_report.failures[:3]


def _base_first_check_rd(inst: ReductionDescentInstance, bound: int) -> Report:
    """check_rd as it read base at every value, before the predicate."""
    failures = []
    for v in range(bound + 1):
        if inst.base(v):
            if not inst.predicate(v):
                failures.append(
                    Failure(v, "base-without-predicate", "base holds but predicate fails")
                )
        elif not inst.predicate(v):
            _step_obligations(inst.step, inst.weight, inst.predicate, v, failures)
    return Report("rd", inst.name, bound, tuple(failures))


def _base_first_rd_to_id(inst: ReductionDescentInstance) -> DescentInstance:
    def holds(z: int) -> bool:
        return inst.base(z) or inst.predicate(z)

    return DescentInstance(
        f"{inst.name}-as-id", holds, inst.weight, lambda z: None if holds(z) else inst.step(z)
    )


def _step_outcome(step, v):
    try:
        return step(v)
    except ValueError as exc:
        return exc.args


def _random_broken_rd_instance(rng: random.Random, bound: int) -> ReductionDescentInstance:
    """An RD instance over tables, most of them broken: base values off the
    predicate, steps that are undefined, raise, do not lower the weight, or
    land where the predicate holds."""
    fails = {v for v in range(bound + 1) if rng.random() < rng.choice((0.0, 0.2, 0.6))}
    base = {v for v in range(bound + 1) if rng.random() < rng.choice((0.0, 0.3))}
    weights = [rng.randrange(bound) for _ in range(bound + 3)]
    steps = {v: rng.choice((None, "raise", rng.randrange(bound + 3))) for v in fails}

    def step(v: int) -> int | None:
        u = steps.get(v)
        if u == "raise":
            raise ValueError(v)
        return u

    return ReductionDescentInstance(
        f"broken-{rng.randrange(10**6)}",
        base=base.__contains__,
        predicate=lambda v: v not in fails,
        weight=weights.__getitem__,
        step=step,
    )


def test_check_rd_and_rd_to_id_match_base_first_order_randomized():
    """Reading base only where the predicate fails gives the report of
    reading it first, on 200 pure instances with every kind of failure."""
    rng = random.Random(20261018)
    bound = 40
    kinds = set()
    for _ in range(200):
        inst = _random_broken_rd_instance(rng, bound)
        report = check_rd(inst, bound)
        assert report == _base_first_check_rd(inst, bound)
        as_id, base_first = rd_to_id(inst), _base_first_rd_to_id(inst)
        assert check_id(as_id, bound) == check_id(base_first, bound)
        for v in range(bound + 1):
            assert as_id.predicate(v) == base_first.predicate(v)
            # The engine calls a step only where the predicate fails.
            if not as_id.predicate(v):
                assert _step_outcome(as_id.step, v) == _step_outcome(base_first.step, v)
        kinds |= {f.kind for f in report.failures}
    assert kinds == {
        "base-without-predicate",
        "step-error",
        "step-undefined",
        "weight-not-decreased",
        "step-not-counterexample",
    }


class _ContractSpy:
    """Wraps an instance's predicates, base and steps.  A step call is a
    violation unless each test it names was last evaluated at the step's
    value and found false there.  Violations are recorded rather than
    raised, since the checkers turn a raising step into a failure record."""

    def __init__(self):
        self.last = {}
        self.steps = 0
        self.violations = []

    def test(self, tag, fn):
        def spied(v):
            self.last[tag] = (v, fn(v))
            return self.last[tag][1]

        return spied

    def step(self, needs, fn):
        def spied(v):
            self.steps += 1
            self.violations += [(t, v) for t in needs if self.last.get(t) != (v, False)]
            return fn(v)

        return spied


def test_engine_calls_a_step_only_where_the_predicate_just_failed():
    """check_id, check_rd, check_id_prime, check_id(rd_to_id(.)) and
    run_descent call a step only at a value where they have just found the
    predicate false, and for RD the base false too, on 100 table instances
    of all three types, most of them broken."""
    rng = random.Random(20261019)
    bound = 40
    steps = 0
    for _ in range(100):
        rd, other = _random_broken_rd_instance(rng, bound), _random_broken_rd_instance(rng, bound)
        spy = _ContractSpy()
        p, base = spy.test("P", rd.predicate), spy.test("B", rd.base)
        inst = DescentInstance("id", p, rd.weight, spy.step("P", rd.step))
        as_rd = ReductionDescentInstance("rd", base, p, rd.weight, spy.step("PB", rd.step))
        fam = IndexedDescentFamily(
            "idprime",
            (p, spy.test("Q", other.predicate)),
            rd.weight,
            (inst.step, spy.step("Q", other.step)),
        )
        check_id(inst, bound)
        check_rd(as_rd, bound)
        check_id(rd_to_id(as_rd), bound)
        check_id_prime(fam, bound)
        for start in range(bound + 1):
            run_descent(inst, start, 50)
            run_descent(rd_to_id(as_rd), start, 50)
        assert spy.violations == []
        steps += spy.steps
    assert steps > 5_000


def _tangled_step(v: int) -> int | None:
    """A step with every outcome: undefined, raising, not lowering the
    weight, and landing on either side of a predicate."""
    if v % 7 == 0:
        return None
    if v % 11 == 0:
        raise ValueError(v)
    return v + 1 if v % 5 == 0 else v // 2


@settings(max_examples=40, deadline=None)
@given(
    tag=st.integers(0, 120),
    k=st.integers(2, 9),
    r=st.integers(0, 8),
    bound=st.integers(1, 2 * 10**4),
)
def test_tagged_candidates_lose_no_failure(tag, k, r, bound):
    """Over tagged(tag, u % k != r), a check that walks the tag's fiber gives
    the report of one that visits every value, for ID, ID' and RD with a
    failing base."""
    fast = tagged(tag, lambda u: u % k != r)
    other = tagged(tag + 1, lambda u: u % k != r % 3)
    plain, plain_other = (lambda v: fast(v)), (lambda v: other(v))
    assert not hasattr(plain, "candidates")
    fiber = list(fast.candidates(bound))
    assert fiber == sorted(set(fiber)) and all(0 <= v <= bound for v in fiber)
    assert fiber == [pair_encode(tag, t) for t in range(len(fiber))]
    assert pair_encode(tag, len(fiber)) > bound

    def weight(v: int) -> int:
        return v

    report = check_id(DescentInstance("t", fast, weight, _tangled_step), bound)
    assert report == check_id(DescentInstance("t", plain, weight, _tangled_step), bound)
    undefined = check_id(DescentInstance("t", fast, weight, lambda v: None), bound)
    assert [f.value for f in undefined.failures] == [
        pair_encode(tag, t) for t in range(len(fiber)) if t % k == r
    ]

    def fam(p0, p1):
        return IndexedDescentFamily("t", (p0, p1), weight, (_tangled_step, _tangled_step))

    assert check_id_prime(fam(fast, other), bound) == check_id_prime(fam(plain, plain_other), bound)

    def rd(p):
        return ReductionDescentInstance("t", lambda v: v % 3 == 0, p, weight, _tangled_step)

    assert check_rd(rd(fast), bound) == check_rd(rd(plain), bound)


@pytest.mark.parametrize("tag", [0, 1, 2, 7])
def test_tagged_candidates_compose_the_inner_candidates(tag):
    """Where pred carries candidates, tagged(tag, pred) walks
    pair_encode(tag, c) for the c in pred's candidates up to last, the
    largest t with pair_encode(tag, t) <= bound: at each fiber code, one
    below it and one above it."""

    def inner(u: int) -> bool:
        return u % 3 != 1

    def inner_candidates(cap: int) -> range:
        return range(1, cap + 1, 3)

    inner.candidates = inner_candidates
    composed = tagged(tag, inner)
    fiber = [pair_encode(tag, t) for t in range(80)]
    for bound in {v + d for v in fiber[:60] for d in (-1, 0, 1)} - {-1, 0}:
        last = sum(v <= bound for v in fiber) - 1
        want = [pair_encode(tag, c) for c in range(1, last + 1, 3)]
        assert list(composed.candidates(bound)) == want


def test_check_rd_vii31_makes_no_is_prime_call(monkeypatch):
    """The vii31 predicate always holds, so `check rd vii31` never reads the
    base, which factors its value."""
    import io

    from descente import core_arith
    from descente.cli import main

    calls = {"is_prime": [], "_prime_factors": []}
    for name, seen in calls.items():
        f = getattr(core_arith, name)
        monkeypatch.setattr(core_arith, name, lambda x, f=f, seen=seen: seen.append(x) or f(x))
    assert main(["check", "rd", "vii31", "5000"], out=io.StringIO()) == 0
    assert calls == {"is_prime": [], "_prime_factors": []}
    # The spies do see the base, which factors 97 and finds it prime by
    # trial division.
    assert vii31_rd_instance().base(97)
    assert calls == {"is_prime": [], "_prime_factors": [97]}


def test_id_prime_single_family_agrees_with_id_randomized():
    """ID' with a one-element family gives the same verdict (and the same
    failure values) as ID, on 100 randomized instances including broken ones."""
    rng = random.Random(96)
    bound = 300
    for _ in range(100):
        bad = set(rng.sample(range(bound + 1), rng.randrange(0, 20)))
        nxt = {v: rng.randrange(0, bound + 1) for v in bad}
        pred = lambda v, b=bad: v not in b
        step = lambda v, n=nxt: n.get(v)
        weight = lambda v: v
        inst = DescentInstance("rand", pred, weight, step)
        fam = IndexedDescentFamily("rand", (pred,), weight, (step,))
        id_report = check_id(inst, bound)
        idp_report = check_id_prime(fam, bound)
        assert id_report.ok == idp_report.ok
        assert [(f.value, f.kind) for f in id_report.failures] == [
            (f.value, f.kind) for f in idp_report.failures
        ]


def test_id_prime_detects_step_landing_on_satisfying_value():
    fam = IndexedDescentFamily(
        "two",
        predicates=(lambda v: v != 7, lambda v: True),
        weight=lambda v: v,
        steps=(lambda v: 5 if v == 7 else None, lambda v: None),
    )
    report = check_id_prime(fam, 10)
    assert [f.kind for f in report.failures] == ["step-not-counterexample"]
    assert report.failures[0].index == 0


def test_id_prime_steps_into_the_next_predicate_and_the_last_into_itself():
    fam = IndexedDescentFamily(
        "shift",
        predicates=(lambda v: v != 9, lambda v: v not in (3, 5)),
        weight=lambda v: v,
        steps=({9: 5}.get, {5: 3}.get),
    )
    report = check_id_prime(fam, 10)
    assert [(f.value, f.kind, f.index) for f in report.failures] == [(3, "step-undefined", 1)]


def test_id_prime_requires_nonempty_family():
    with pytest.raises(DomainError):
        IndexedDescentFamily("empty", (), lambda v: v, ())


def test_id_prime_requires_one_step_per_predicate():
    with pytest.raises(DomainError, match="one step per predicate required"):
        IndexedDescentFamily("short", (lambda v: True,), lambda v: v, (None, None))
    with pytest.raises(DomainError, match="one step per predicate required"):
        IndexedDescentFamily("long", (lambda v: True,) * 2, lambda v: v, (None,))


def test_family_make_and_replace_check_like_the_constructor():
    """_make and _replace build a family through __new__, so neither drops a
    step or every predicate; a replacement that keeps the counts works."""
    fam = IndexedDescentFamily("two", (lambda v: True,) * 2, lambda v: v, (None, None))
    with pytest.raises(DomainError, match="^one step per predicate required$"):
        fam._replace(steps=fam.steps[:1])
    with pytest.raises(DomainError, match="^predicate family must be nonempty$"):
        IndexedDescentFamily._make(("x", (), lambda v: v, (), str))
    assert fam._replace(name="renamed") == ("renamed", *fam[1:])


# ---------------------------------------------------------------------------
# traces


def test_run_descent_pentagon_8_5():
    trace = run_descent(pentagon_instance(), pair_encode(8, 5), 100)
    values = [pair_decode(e.value) for e in trace.entries]
    assert values == [(8, 5), (3, 2), (1, 1)]
    assert trace.outcome == "step-undefined"
    assert [e.weight for e in trace.entries] == [8, 3, 1]


def vii31_walk() -> ReductionDescentInstance:
    """The walk that `descent vii31` runs: the RD instance, under the name
    its trace records carry."""
    return vii31_rd_instance()._replace(name="vii31")


# Trial division cannot split this start in test time, so its walk is
# pinned by hand: p*q over its largest prime q is the prime p.
PINNED_VII31_WALKS = {1000000007 * 1000000009: [1000000007 * 1000000009, 1000000007]}


def vii31_reference(start: int) -> DescentTrace:
    """The trace of the VII.31 walk from start >= 2, built from the
    package-free trial-division walk of oracles: each value is its own
    weight, and the last, where the walk stops, is the only prime."""
    walk = PINNED_VII31_WALKS.get(start) or oracles.vii31_walk(start)
    entries = tuple(
        TraceEntry(v, v, f"{v}" + (" (prime)" if v == walk[-1] else "")) for v in walk
    )
    return DescentTrace("vii31", entries, "predicate-holds")


def vii31_reference_at(v: int) -> tuple:
    """(base, step, describe) of the VII.31 walk at v, from the
    package-free oracles.vii31_step."""
    step = oracles.vii31_step(v)
    prime = v >= 2 and step is None
    return v <= 1 or prime, step, f"{v}" + (" (prime)" if prime else "")


def test_run_descent_start_satisfies_predicate():
    trace = run_descent(vii31_walk(), 13, 100)
    assert len(trace.entries) == 1
    assert trace.outcome == "predicate-holds"


def test_run_descent_vii31_360():
    trace = run_descent(vii31_walk(), 360, 100)
    assert [e.value for e in trace.entries] == [360, 72, 24, 8, 4, 2]
    assert trace.outcome == "predicate-holds"


@pytest.mark.parametrize(
    "start", [2**40, 360, 97, 1000000007 * 1000000009, 2**100 * 3**5 * 1000000007]
)
def test_vii31_walk_factors_its_start_once(start, monkeypatch):
    """The walk factors its start and nothing else, and tests no primality
    outside that factorization; its trace is the one of the package-free
    reference walk, which refactors at every step."""
    from descente import core_arith

    reference = vii31_reference(start)
    calls = {"factors": 0, "is_prime outside": 0}
    depth = [0]
    prime_factors, is_prime = core_arith._prime_factors, core_arith.is_prime

    def spy_factors(x):
        calls["factors"] += 1
        depth[0] += 1
        try:
            return prime_factors(x)
        finally:
            depth[0] -= 1

    def spy_is_prime(x):
        calls["is_prime outside"] += not depth[0]
        return is_prime(x)

    monkeypatch.setattr(core_arith, "_prime_factors", spy_factors)
    monkeypatch.setattr(core_arith, "is_prime", spy_is_prime)
    assert run_descent(vii31_walk(), start, 1000) == reference
    assert calls == {"factors": 1, "is_prime outside": 0}


def test_vii31_walk_is_pure_off_its_memo():
    """Called in any order, on values no walk reached, the memoized walk,
    the ID instance and the CLI's walk agree with the reference at every
    value."""
    from descente.descent_engine import INSTANCES

    walk, inst, (cli_walk, _) = vii31_walk(), vii31_instance(), INSTANCES["vii31"][1]([0])
    values = list(range(400)) + [2**40, 2**39 * 3, 7**5]
    for v in values[::-1] + values:
        expected = vii31_reference_at(v)
        assert (walk.base(v), walk.step(v), walk.describe(v)) == expected
        assert (cli_walk.base(v), cli_walk.step(v), cli_walk.describe(v)) == expected
        assert (inst.predicate(v), inst.step(v), inst.describe(v)) == (True, *expected[1:])
    for i in (walk, inst, cli_walk):
        for v in (-1, -12):
            with pytest.raises(DomainError):
                i.step(v)
            with pytest.raises(DomainError):
                i.describe(v)


def test_run_descent_bound_exceeded():
    inst = DescentInstance(
        "down", lambda v: False, lambda v: v, lambda v: v - 1 if v else None
    )
    trace = run_descent(inst, 50, 3)
    assert trace.outcome == "bound-exceeded"
    assert len(trace.entries) == 4


def test_run_descent_gcd():
    trace = run_descent(gcd_instance(), pair_encode(12, 9), 100)
    assert [pair_decode(e.value) for e in trace.entries] == [(12, 9), (9, 3), (3, 0)]
    assert trace.outcome == "predicate-holds"


def trace_entry_records(instance: str, walk: list[tuple[int, str]]) -> list[dict]:
    """The JSONL records of the entries of a walk whose weight is its value."""
    return [
        {"record": "trace-entry", "instance": instance, "value": v, "weight": v, "label": label}
        for v, label in walk
    ]


def test_run_descent_ends_weight_not_decreased_as_data():
    # Steps from 5 to 3, then to 4: the second step raises the weight.
    inst = DescentInstance("up", lambda v: v == 0, lambda v: v, lambda v: {5: 3, 3: 4}[v])
    trace = run_descent(inst, 5, 10)
    assert trace.outcome == "weight-not-decreased"
    assert [e.weight for e in trace.entries] == [5, 3, 4]
    assert [json.loads(line) for line in trace.to_jsonl()] == [
        *trace_entry_records("up", [(5, "5"), (3, "3"), (4, "4")]),
        {"record": "trace", "instance": "up", "outcome": "weight-not-decreased", "entries": 3},
    ]
    assert trace.to_text()[-1] == "outcome: weight-not-decreased"
    flat = DescentInstance("flat", lambda v: False, lambda v: 7, lambda v: v + 1)
    assert [e.value for e in run_descent(flat, 1, 10).entries] == [1, 2]


def test_run_descent_ends_step_error_as_data():
    inst = DescentInstance("div", lambda v: v == 1, lambda v: v, lambda v: 12 // (v - 4))
    trace = run_descent(inst, 4, 10)
    assert (trace.outcome, len(trace.entries)) == ("step-error", 1)
    assert [json.loads(line) for line in trace.to_jsonl()] == [
        *trace_entry_records("div", [(4, "4")]),
        {"record": "trace", "instance": "div", "outcome": "step-error", "entries": 1},
    ]


def test_run_descent_passes_domain_errors_through():
    def step(v):
        raise DomainError("beyond the proven range")

    with pytest.raises(DomainError, match="proven range"):
        run_descent(DescentInstance("x", lambda v: False, lambda v: v, step), 9, 10)


def test_trace_weights_must_strictly_decrease():
    with pytest.raises(DomainError):
        DescentTrace(
            "x",
            (TraceEntry(1, 5, "a"), TraceEntry(2, 5, "b")),
            "predicate-holds",
        )
    with pytest.raises(DomainError):
        DescentTrace("x", (), "no-such-outcome")
    # Only the last step of a weight-not-decreased trace may keep the weight,
    # and it must.
    entries = (TraceEntry(1, 5, "a"), TraceEntry(2, 5, "b"), TraceEntry(3, 6, "c"))
    with pytest.raises(DomainError):
        DescentTrace("x", entries, "weight-not-decreased")
    with pytest.raises(DomainError):
        DescentTrace("x", entries[2:] + entries[:1], "weight-not-decreased")
    with pytest.raises(DomainError):
        DescentTrace("x", entries[:1], "weight-not-decreased")
    assert DescentTrace("x", entries[1:], "weight-not-decreased").entries == entries[1:]


def test_trace_replace_checks_like_the_constructor():
    trace = DescentTrace("x", (TraceEntry(1, 5, "a"),), "predicate-holds")
    with pytest.raises(DomainError, match="^unknown outcome 'bogus'$"):
        trace._replace(outcome="bogus")
    with pytest.raises(DomainError, match="^trace weights must strictly decrease$"):
        trace._replace(entries=trace.entries * 2)
    assert trace._replace(outcome="bound-exceeded").outcome == "bound-exceeded"


# ---------------------------------------------------------------------------
# pentagon arithmetic


def test_pentagon_step_examples():
    assert pentagon_step(8, 5) == (3, 2)
    assert pentagon_step(13, 8) == (5, 3)
    assert pentagon_step(3, 2) == (1, 1)
    with pytest.raises(DomainError):
        pentagon_step(1, 1)
    with pytest.raises(DomainError):
        pentagon_step(5, 2)


def test_pentagon_fibonacci_pairs():
    fib = [0, 1]
    while len(fib) < 33:
        fib.append(fib[-1] + fib[-2])
    for k in range(3, 31):
        assert pentagon_step(fib[k + 1], fib[k]) == (fib[k - 1], fib[k - 2])


# ---------------------------------------------------------------------------
# serialization


# A report with a failure row of each kind: without an index, and of P_1.
DEMO_REPORT = Report(
    "id",
    "demo",
    42,
    (Failure(5, "weight-not-decreased", "weight 5 -> 7"), Failure(6, "step-undefined", "x", 1)),
)


def test_report_jsonl_round_trip():
    lines = DEMO_REPORT.to_jsonl()
    assert all(isinstance(json.loads(line), dict) for line in lines)
    assert [json.dumps(json.loads(line)) for line in lines] == lines
    assert [json.loads(line) for line in lines] == [
        {"record": "failure", "schema": "id", "instance": "demo", "value": 5, "index": None,
         "kind": "weight-not-decreased", "detail": "weight 5 -> 7"},
        {"record": "failure", "schema": "id", "instance": "demo", "value": 6, "index": 1,
         "kind": "step-undefined", "detail": "x"},
        {"record": "report", "schema": "id", "instance": "demo", "bound": 42, "failures": 2,
         "ok": False},
    ]
    # fixed key order
    assert list(json.loads(lines[-1]).keys()) == [
        "record", "schema", "instance", "bound", "failures", "ok",
    ]
    assert list(json.loads(lines[0]).keys()) == [
        "record", "schema", "instance", "value", "index", "kind", "detail",
    ]


def test_report_text_rendering():
    report = check_id(vii31_instance(), 10)
    text = report.to_text()
    assert text[-1] == "id check of 'vii31' up to 10: ok"
    assert DEMO_REPORT.to_text() == [
        "           5        weight-not-decreased      weight 5 -> 7",
        "           6  P_1   step-undefined            x",
        "id check of 'demo' up to 42: 2 failure(s)",
    ]


def test_trace_jsonl_round_trip():
    trace = run_descent(vii31_walk(), 360, 100)
    lines = trace.to_jsonl()
    assert [json.dumps(json.loads(line)) for line in lines] == lines
    walk = [(360, "360"), (72, "72"), (24, "24"), (8, "8"), (4, "4"), (2, "2 (prime)")]
    assert [json.loads(line) for line in lines] == [
        *trace_entry_records("vii31", walk),
        {"record": "trace", "instance": "vii31", "outcome": "predicate-holds", "entries": 6},
    ]
    assert list(json.loads(lines[0]).keys()) == ["record", "instance", "value", "weight", "label"]
    assert list(json.loads(lines[-1]).keys()) == ["record", "instance", "outcome", "entries"]


# ---------------------------------------------------------------------------
# builtin instances stay clean at scale


@pytest.mark.parametrize("bound", [10, 100, 1000, 10**4])
def test_builtin_checks_empty_at_all_bounds(bound):
    assert check_id(vii31_instance(), bound).ok
    assert check_rd(vii31_rd_instance(), bound).ok
    assert check_rd(gcd_instance(), bound).ok
