"""The square-area theorem surface: counterexample predicate, claim chain,
descent wiring, and the exhaustive searches with their oracle."""

import bisect
import importlib
import math
import os
import pkgutil
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import descente
from descente import CheckedRecord, DomainError, certificate, fermat
from descente.certificate import primitive_triples, scan_generator_block
from descente.core_arith import Factorization, coprime
from descente.descent_engine import (
    DescentInstance,
    DescentTrace,
    TraceEntry,
    check_id,
    check_id_prime,
    pair_decode,
    pair_encode,
    quad_decode,
    quad_encode,
    run_descent,
)
from descente.diophantine import Generators, PythTriple
from descente.fermat import (
    CandidateSolution,
    ClaimIData,
    ClaimIIData,
    claim_i,
    degenerate_solutions,
    exhaustive_search,
    fermat_instance,
    frenicle_descend,
    is_counterexample,
    reduce_area_witness,
    reduce_triple_by_prime,
    walsh_claim_iii,
    walsh_family,
    walsh_start_weight,
    walsh_state_weight,
)
from descente.proportions import NormalForm

from .oracles import quad_code_is_counterexample


# ---------------------------------------------------------------------------
# predicate and degenerate set


def test_is_counterexample_examples():
    for x3 in range(10):
        assert not is_counterexample(CandidateSolution(3, 4, 5, x3))
    assert not is_counterexample(CandidateSolution(0, 1, 1, 0))  # zero leg
    assert not is_counterexample(CandidateSolution(1, 1, 2, 1))  # not a triple
    # the shape a counterexample would need (no integer instance exists)
    assert is_counterexample(CandidateSolution(0, 0, 0, 0)) is False


def test_degenerate_solutions_exact():
    got = {tuple(c) for c in degenerate_solutions()}
    assert got == {(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)}


def test_degenerate_solutions_against_brute_force_to_10():
    """No further coprime (or all-zero) solutions appear below 10."""
    found = set()
    for x0 in range(11):
        for x1 in range(11):
            for x2 in range(11):
                for x3 in range(11):
                    if x0 * x0 + x1 * x1 != x2 * x2 or x0 * x1 != 2 * x3 * x3:
                        continue
                    if (x0, x1, x2) == (0, 0, 0) or coprime([x0, x1, x2]):
                        found.add((x0, x1, x2, x3))
    assert found == {tuple(c) for c in degenerate_solutions()}


# ---------------------------------------------------------------------------
# first descent case


def test_reduce_triple_by_prime():
    assert reduce_triple_by_prime(PythTriple(6, 8, 10), 2) == PythTriple(3, 4, 5)
    assert reduce_triple_by_prime(PythTriple(9, 12, 15), 3) == PythTriple(3, 4, 5)
    assert reduce_triple_by_prime(PythTriple(0, 0, 0), 2) == PythTriple(0, 0, 0)
    with pytest.raises(DomainError):
        reduce_triple_by_prime(PythTriple(3, 4, 5), 2)
    with pytest.raises(DomainError):
        reduce_triple_by_prime(PythTriple(6, 8, 10), 4)


def test_reduce_triple_by_prime_preserves_equation_up_to_300():
    from .oracles import brute_triples

    for x0, x1, x2 in brute_triples(300, include_zero_legs=True):
        for z in (2, 3, 5, 7, 11, 13):
            if x0 % z == 0 and x1 % z == 0:
                reduced = reduce_triple_by_prime(PythTriple(x0, x1, x2), z)
                assert reduced.x0**2 + reduced.x1**2 == reduced.x2**2


def test_reduce_area_witness():
    assert reduce_area_witness(6, 2) == 3
    assert reduce_area_witness(15, 3) == 5
    with pytest.raises(DomainError):
        reduce_area_witness(7, 2)
    with pytest.raises(DomainError):
        reduce_area_witness(6, 4)


# ---------------------------------------------------------------------------
# claim data invariants


def test_claim_i_data_validation():
    # (p, q) = (25, 16): not opposite parity?  25 odd, 16 even: ok, but
    # p^2 - q^2 = 369 is not a square, so no valid instance exists there.
    with pytest.raises(DomainError):
        ClaimIData(p=25, q=16, c=19, e=5, f=4)
    with pytest.raises(DomainError):
        ClaimIData(p=4, q=1, c=0, e=2, f=1)  # 16 - 1 = 15 not c^2
    with pytest.raises(DomainError):
        ClaimIData(p=9, q=4, c=0, e=3, f=2)  # 81 - 16 = 65 not a square


def test_claim_ii_data_validation():
    with pytest.raises(DomainError):
        ClaimIIData(e=5, f=4, g=3, h=3)  # 25+16=41 != 9
    with pytest.raises(DomainError):
        ClaimIIData(e=1, f=1, g=1, h=1)  # needs e > f
    with pytest.raises(DomainError):
        ClaimIIData(e=5, f=0, g=5, h=5)  # needs f > 0


@pytest.mark.parametrize(
    "fields, message",
    [
        ((6, 4, 0, 0, 0), "6 and 4 are not coprime"),
        ((5, 3, 4, 0, 0), "exactly one of p, q must be odd"),
        ((2, 3, 0, 0, 0), "need p > q, got p=2, q=3"),
        ((5, 2, 0, 2, 1), "p and q must be the squares of e and f"),
        ((4, 1, 0, 2, 1), r"p\^2 - q\^2 must equal c\^2"),
        ((1, 0, 1, 1, 0), "need e > f > 0"),
    ],
)
def test_claim_i_data_messages(fields, message):
    """Each check of ClaimIData, reached past all the ones before it."""
    with pytest.raises(DomainError, match=f"^{message}$"):
        ClaimIData(*fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((5, 4, 3, 3), "g and h must be positive and coprime"),
        ((5, 0, 5, 4), "need e > f > 0"),
        ((5, 4, 6, 1), r"e\^2 \+ f\^2 must equal g\^2"),
        ((4, 3, 5, 2), r"e\^2 - f\^2 must equal h\^2"),
    ],
)
def test_claim_ii_data_messages(fields, message):
    """Each check of ClaimIIData, reached past all the ones before it."""
    with pytest.raises(DomainError, match=f"^{message}$"):
        ClaimIIData(*fields)


@pytest.mark.parametrize(
    "cls, good, other, bad",
    [
        (PythTriple, (3, 4, 5), (4, 3, 5), (3, 4, 6)),
        (Generators, (0, 2, 1), (1, 2, 1), (0, 2, 2)),
        (NormalForm, (1, 2, 3, 1), (5, 2, 3, 1), (1, 2, 4, 1)),
        (Factorization, (((2, 1),),), (((3, 2),),), (((4, 1),),)),
        # No claim record is valid (that is the theorem): only bad is tried.
        (ClaimIData, None, None, (1, 0, 1, 1, 0)),
        (ClaimIIData, None, None, (1, 2, 3, 4)),
        (
            DescentInstance,
            ("f", (bool,), abs, (abs,), str),
            ("g", (bool, bool), abs, (abs, abs), str),
            ("f", (bool,), abs, (), str),
        ),
        (
            DescentTrace,
            ("x", (TraceEntry(1, 5, "a"),), "predicate-holds"),
            ("y", (TraceEntry(2, 6, "b"), TraceEntry(1, 5, "a")), "bound-exceeded"),
            ("x", (TraceEntry(1, 5, "a"),), "bogus"),
        ),
    ],
)
def test_checked_records_make_and_replace_check_like_the_constructor(cls, good, other, bad):
    """_make, and so _replace, build each checked record through __new__:
    a replaced field that breaks a record raises, and a valid one is kept."""
    with pytest.raises(DomainError):
        cls._make(bad)
    if good is not None:
        record = cls(*good)
        with pytest.raises(DomainError):
            record._replace(**{k: b for k, g, b in zip(cls._fields, good, bad) if g != b})
        assert record._replace(**dict(zip(cls._fields, other))) == cls(*other)


def test_every_record_that_checks_its_fields_is_a_checked_record():
    """A namedtuple record of the package whose __new__ checks its fields
    derives from CheckedRecord, whose _make builds through that __new__."""
    records = {}
    for info in pkgutil.iter_modules(descente.__path__):
        module = importlib.import_module(f"descente.{info.name}")
        for name, cls in vars(module).items():
            # A bare namedtuple, with tuple as its base, checks nothing.
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and hasattr(cls, "_fields") and "__new__" in vars(cls)
                    and tuple not in cls.__bases__):
                records[name] = cls
    assert {"Factorization", "DescentInstance", "DescentTrace", "PythTriple",
            "Generators", "ClaimIData", "ClaimIIData", "NormalForm"} <= set(records)
    assert [name for name, cls in records.items() if not issubclass(cls, CheckedRecord)] == []


def test_no_claim_i_data_exists_up_to_e_200():
    """Exhaustive vacuity: no (e, f) with e <= 200 yields squares p = e^2,
    q = f^2 of opposite parity with p^2 - q^2 square."""
    from .oracles import is_perfect_square

    for e in range(1, 201):
        for f in range(1, e):
            p, q = e * e, f * f
            if (p + q) % 2 == 0 or math.gcd(p, q) != 1:
                continue
            assert not is_perfect_square(p * p - q * q), (e, f)


def test_no_claim_ii_data_exists_up_to_e_500():
    """Exhaustive vacuity: no coprime-context (e, f) with e <= 500 has both
    e^2 + f^2 and e^2 - f^2 square."""
    from .oracles import is_perfect_square

    for e in range(1, 501):
        for f in range(1, e):
            if is_perfect_square(e * e + f * f) and is_perfect_square(e * e - f * f):
                raise AssertionError((e, f))


# ---------------------------------------------------------------------------
# claim operations (guards + constructive fragments)


def test_claim_i_guards():
    with pytest.raises(DomainError):
        claim_i(CandidateSolution(1, 1, 2, 1))  # not a triple
    with pytest.raises(DomainError):
        claim_i(CandidateSolution(3, 4, 5, 1))  # 12 != 2
    with pytest.raises(DomainError):
        claim_i(CandidateSolution(0, 1, 1, 0))  # zero leg


def test_descend_claim_ii_identity_fragment():
    """(2m^2+k^2)^2 - (2mk)^2 = (2m^2)^2 + (k^2)^2 for all m, k <= 50."""
    for m in range(51):
        for k in range(51):
            assert (2 * m * m + k * k) ** 2 - (2 * m * k) ** 2 == (2 * m * m) ** 2 + (
                k * k
            ) ** 2
    # spot value
    m, k = 3, 2
    assert (2 * m * m + k * k) ** 2 - (2 * m * k) ** 2 == 484 - 144 == 340
    assert (2 * m * m) ** 2 + (k * k) ** 2 == 324 + 16 == 340


def test_walsh_claim_iii_identity_fragment():
    """(x0+x1)^2 = x0^2+x1^2+2*x0*x1 and, for x0 >= x1, the difference form;
    this is the content of the e^2 +- f^2 = (x0 +- x1)^2 step."""
    for x0 in range(101):
        for x1 in range(101):
            assert (x0 + x1) ** 2 == x0 * x0 + x1 * x1 + 2 * x0 * x1
            if x0 >= x1:
                assert (x0 - x1) ** 2 == x0 * x0 + x1 * x1 - 2 * x0 * x1


def test_walsh_claim_iii_guard():
    with pytest.raises(DomainError):
        walsh_claim_iii(CandidateSolution(3, 4, 5, 1))


def test_frenicle_descend_fragment_and_guard():
    from descente.diophantine import frenicle_xxxviii

    assert frenicle_xxxviii(PythTriple(4, 3, 5), 2) == (1, 1)
    # c even is rejected before anything else; bypass the ClaimIData
    # validator to exercise the guard (no valid instance exists to reach it)
    d = tuple.__new__(ClaimIData, (9, 4, 2, 3, 2))  # p, q, c, e, f
    with pytest.raises(DomainError, match="odd"):
        frenicle_descend(d)


# ---------------------------------------------------------------------------
# descent-engine wiring


def test_fermat_instance_check_id_vacuous():
    assert check_id(fermat_instance(), 2000).ok


def test_fermat_instance_weights():
    assert fermat_instance().weight(quad_encode(3, 4, 5, 1)) == 5


def test_walsh_family_check_vacuous_at_500():
    report = check_id_prime(walsh_family(), 500)
    assert report.ok and report.bound == 500


def _fiber_last(tag: int, bound: int) -> int:
    """The largest t with pair_encode(tag, t) <= bound, or -1, by bisection."""
    lo, hi = -1, bound
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if pair_encode(tag, mid) <= bound else (lo, mid - 1)
    return lo


def test_walsh_candidates_are_the_triple_codes_of_each_fiber():
    """P_0 and P_1 visit pair_encode(tag, c) for the triple codes c of
    their tag's fiber, the only codes where a counterexample or a Claim II
    state can sit.  The bounds are the fiber codes of triple codes, the
    codes one below them, and the fiber's own edges."""
    from .oracles import brute_triple_codes

    codes = brute_triple_codes(3000)
    for tag, pred in enumerate(walsh_family().predicates):
        bounds = {1, 2, 3, 10**6}
        for t in [*codes[::4], codes[-1]]:
            bounds |= {pair_encode(tag, t), pair_encode(tag, t) - 1}
        for t in (0, 1, 100, 1000):
            bounds |= {pair_encode(tag, t), pair_encode(tag, t) + 1}
        for bound in sorted(bounds):
            last = _fiber_last(tag, bound)
            assert last <= 3000
            want = [pair_encode(tag, c) for c in codes if c <= last]
            assert list(pred.candidates(bound)) == want


def test_walsh_check_over_candidates_reports_what_every_value_gives(monkeypatch):
    """With the area condition and the difference equation dropped, P_0 and
    P_1 fail at some codes.  The check over the candidates then reports
    what the same family reports when it visits every value <= 10^6: three
    failures."""
    for name, relaxed in FORMS["relaxed"].items():
        monkeypatch.setattr(fermat, name, relaxed)
    fam = walsh_family()._replace(steps=(lambda v: None, lambda v: None))
    every = fam._replace(predicates=tuple((lambda v, p=p: p(v)) for p in fam.predicates))
    report = check_id_prime(fam, 10**6)
    assert report == check_id_prime(every, 10**6)
    assert [f.index for f in report.failures] == [0, 0, 1]


def test_walsh_weight_drop_is_exactly_one():
    """For the formal state (e, f) = (x2, 2*x3), the state weight e^2 + f^2
    is exactly one less than the start weight x2^2 + (2*x3)^2 + 1."""
    for x2 in range(100):
        for x3 in range(100):
            assert (
                walsh_start_weight(x2, x3) - walsh_state_weight(x2, 2 * x3) == 1
            )


def test_walsh_family_weights_on_tagged_encodings():
    fam = walsh_family()
    c = CandidateSolution(3, 4, 5, 1)
    from descente.fermat import encode_walsh_candidate

    v = pair_encode(1, pair_encode(pair_encode(5, 2), pair_encode(7, 1)))
    assert fam.weight(v) == 5 * 5 + 2 * 2  # (e, f) state weight
    assert fam.weight(encode_walsh_candidate(c)) == walsh_start_weight(5, 1)


def test_run_descent_walks_a_family_by_its_index():
    """The k-th step of a family's walk reads P_min(k, n-1) and
    step_min(k, n-1): P_0 and step0 at the start, then P_1 and step1 at
    every later value, the pairing that check_id_prime certifies.  No
    claim-II state exists, so the real family's steps cannot tell which one
    ran; a stand-in family records each predicate and step it calls."""
    calls = []

    def pred(i):
        return lambda v: calls.append((f"P{i}", v)) or v == 0

    def step(i):
        return lambda v: calls.append((f"step{i}", v)) or v - 1

    fam = DescentInstance("two", (pred(0), pred(1)), lambda v: v, (step(0), step(1)))
    trace = run_descent(fam, 3, 10)
    assert [e.value for e in trace.entries] == [3, 2, 1, 0]
    assert trace.outcome == "predicate-holds"
    assert calls == [
        ("P0", 3), ("step0", 3), ("P1", 2), ("step1", 2), ("P1", 1), ("step1", 1), ("P1", 0)
    ]


def test_walsh_descent_from_a_state_ends_where_p0_holds():
    """A walk of the family starts under P_0, which holds off tag 0: the ID'
    trace starts from a P_0 counterexample, so a state start ends at once."""
    state = pair_encode(1, quad_encode(5, 4, 3, 3))
    trace = run_descent(walsh_family(), state, 10)
    assert (len(trace.entries), trace.outcome) == (1, "predicate-holds")


# The forms the checked predicates must agree with: decode the whole code,
# build the record, and test the condition.  The real counterexample
# condition is the package-free oracle's.  Besides the real conditions,
# relaxed ones (the area or the difference equation dropped) make some
# values fail, so that the agreement is not only on True.
def _by_full_decoding(v, form):
    def solves(code):
        if form == "real":
            return quad_code_is_counterexample(code)
        return is_counterexample(CandidateSolution(*quad_decode(code)))

    tag, payload = pair_decode(v)
    return (
        not solves(v),
        tag != 0 or not solves(payload),
        tag != 1 or not fermat._is_claim_ii_tuple(*quad_decode(payload)),
    )


def _by_checked_predicates(v):
    p0, p1 = walsh_family().predicates
    return fermat_instance().predicates[0](v), p0(v), p1(v)


FORMS = {
    "real": {},
    "relaxed": {
        "_solves": lambda x0, x1, x2, x3: x0 >= 1 and x1 >= 1 and x0 * x0 + x1 * x1 == x2 * x2,
        "_is_claim_ii_tuple": lambda e, f, g, h: e > f > 0 and e * e + f * f == g * g,
    },
}


@pytest.mark.parametrize("form", FORMS)
def test_checked_predicates_agree_with_full_decoding_below_200000(form, monkeypatch):
    for name, relaxed in FORMS[form].items():
        monkeypatch.setattr(fermat, name, relaxed)
    (fermat_p,) = fermat_instance().predicates
    p0, p1 = walsh_family().predicates
    values = range(200_000)
    got = [(fermat_p(v), p0(v), p1(v)) for v in values]
    assert got == [_by_full_decoding(v, form) for v in values]
    if form == "relaxed":
        assert not all(p for p, _, _ in got)


_big = st.integers(0, 10**40)


@st.composite
def _pythagorean(draw):
    """A multiple of a primitive triple, legs in either order, with a fourth
    component at or next to the square root of half the leg product: mostly
    triples whose area is not twice a square."""
    p = draw(st.integers(2, 10**15))
    q = draw(st.integers(1, p - 1))
    d = draw(st.integers(1, 10**6))
    legs = [d * (p * p - q * q), d * 2 * p * q]
    if draw(st.booleans()):
        legs.reverse()
    x3 = max(0, math.isqrt(legs[0] * legs[1] // 2) + draw(st.integers(-1, 1)))
    return legs[0], legs[1], d * (p * p + q * q), x3


@settings(max_examples=300, deadline=None)
@example(quad=(3, 4, 5, 2), tag=0, form="relaxed")  # P and P_0 fail
@example(quad=(4, 3, 5, 2), tag=1, form="relaxed")  # P_1 fails
@given(
    quad=st.one_of(st.tuples(_big, _big, _big, _big), _pythagorean()),
    tag=st.one_of(st.integers(0, 2), _big),
    form=st.sampled_from(sorted(FORMS)),
)
def test_checked_predicates_agree_with_full_decoding_on_large_codes(quad, tag, form):
    code = quad_encode(*quad)
    # A state (e, f, g, h) with e > f: a triple's larger leg, smaller leg and
    # hypotenuse for the relaxed form.
    state = quad_encode(max(quad[:2]), min(quad[:2]), *quad[2:])
    with pytest.MonkeyPatch.context() as mp:
        for name, relaxed in FORMS[form].items():
            mp.setattr(fermat, name, relaxed)
        for v in (code, pair_encode(tag, code), pair_encode(tag, state)):
            assert _by_checked_predicates(v) == _by_full_decoding(v, form)


def test_fermat_candidates_are_the_brute_triple_codes():
    """The fermat check visits exactly the codes <= bound with positive legs
    and a hypotenuse as third component: 91 at 80,000, 234 at 300,000.  The
    bounds include codes of the set itself, and the codes one below them."""
    from .oracles import brute_triple_codes

    codes = brute_triple_codes(300_000)
    counts = {80_000: 91, 300_000: 234}
    exact = codes[::37] + codes[-1:]
    for bound in [1, 2, 100, 5000, 80_000, 123_457, 300_000, *exact, *(v - 1 for v in exact)]:
        oracle = [v for v in codes if v <= bound]
        assert fermat._not_counterexample.candidates(bound) == oracle
        assert len(oracle) == counts.get(bound, len(oracle))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 10**10))
@example(10**6)
@example(10**8)
@example(10**10)
def test_fermat_candidates_are_the_left_code_walk(bound):
    """The candidates walk primitive_triples under a hypotenuse cap; the
    oracle walks every left code.  They agree where a cap without its
    factor 8 would lose codes (10^8 and 10^10), not only below 300,000."""
    from .oracles import left_code_triple_codes

    codes = left_code_triple_codes(10**10)
    oracle = list(codes[: bisect.bisect_right(codes, bound)])
    assert fermat._not_counterexample.candidates(bound) == oracle


def test_check_without_the_area_conjunct_fails_at_exactly_the_triple_codes(monkeypatch):
    """With the area conjunct dropped, the predicate fails on every triple
    code, and the check over its candidates reports each one, in order."""
    from .oracles import brute_triple_codes

    monkeypatch.setattr(fermat, "_solves", FORMS["relaxed"]["_solves"])
    inst = fermat_instance()._replace(steps=(lambda v: None,))
    report = check_id(inst, 300_000)
    assert [f.value for f in report.failures] == list(brute_triple_codes(300_000))


# With the area condition dropped, a Pythagorean triple passes the guard,
# and the claim chain runs up to its first broken precondition.
@pytest.mark.parametrize(
    "quad, message",
    [
        ((3, 4, 5, 1), "2*3 != 1^2"),
        ((6, 8, 10, 2), "2*3 != 1^2"),  # reduced by 2 to (3, 4, 5, 1) first
        ((6, 8, 10, 1), "2 does not divide 1"),
    ],
)
def test_fermat_step_runs_to_its_first_broken_precondition(quad, message, monkeypatch):
    for name, relaxed in FORMS["relaxed"].items():
        monkeypatch.setattr(fermat, name, relaxed)
    with pytest.raises(DomainError) as exc:
        fermat_instance().steps[0](quad_encode(*quad))
    assert str(exc.value) == message


def test_walsh_steps_run_to_their_first_broken_precondition(monkeypatch):
    for name, relaxed in FORMS["relaxed"].items():
        monkeypatch.setattr(fermat, name, relaxed)
    step0, step1 = walsh_family().steps
    with pytest.raises(DomainError) as exc:
        step0(pair_encode(0, quad_encode(3, 4, 5, 1)))
    assert str(exc.value) == "e^2 + f^2 must equal g^2"
    with pytest.raises(DomainError) as exc:
        step1(pair_encode(1, quad_encode(4, 3, 5, 1)))
    assert str(exc.value) == "e^2 - f^2 must equal h^2"


def test_relaxed_fermat_descent_and_check_report_the_broken_precondition(monkeypatch, capsys):
    """`descent` exits 65 on the step's DomainError; the check turns the same
    error into one step-error per triple code."""
    from descente.cli import main

    from .oracles import brute_triple_codes

    for name, relaxed in FORMS["relaxed"].items():
        monkeypatch.setattr(fermat, name, relaxed)
    assert main(["descent", "fermat", "6", "8", "10", "2"]) == 65
    assert capsys.readouterr().err == "precondition failure: 2*3 != 1^2\n"
    report = check_id(fermat_instance(), 2000)
    assert [f.value for f in report.failures] == list(brute_triple_codes(2000))
    assert {f.kind for f in report.failures} == {"step-error"}


def test_run_descent_fermat_trivially_holds():
    inst = fermat_instance()
    trace = run_descent(inst, quad_encode(3, 4, 5, 1), 10)
    assert trace.outcome == "predicate-holds"
    assert len(trace.entries) == 1


def test_candidate_encoding_round_trip():
    for t in ((0, 0, 0, 0), (3, 4, 5, 1), (20, 99, 101, 30)):
        code = quad_encode(*CandidateSolution(*t))
        assert CandidateSolution(*quad_decode(code)) == t


# ---------------------------------------------------------------------------
# exhaustive search


def test_exhaustive_search_empty_at_100_and_300():
    assert exhaustive_search(100) == []
    assert exhaustive_search(300) == []


def test_exhaustive_search_agrees_with_naive_at_300():
    from .oracles import naive_exhaustive_search

    assert [tuple(c) for c in exhaustive_search(300)] == naive_exhaustive_search(300)


def test_scan_generator_block_agrees_with_multiples_oracle_at_1e5():
    from .oracles import brute_multiples_scan

    bound = 10**5
    hits = []
    # (1, 0) is no generator pair, but its half leg product 0 is a square:
    # its block is every (0, d, d, 0), the multiples of the degenerate
    # solution (0, 1, 1, 0), so the exact test's hit path runs too.
    for p, q in [(1, 0), *((p, q) for *_, p, q in primitive_triples(bound))]:
        block = scan_generator_block(p, q, bound)
        assert block == brute_multiples_scan(p, q, bound)
        hits += block
    assert hits


def _twice_a_square(n: int) -> bool:
    from .oracles import is_perfect_square

    return n % 2 == 0 and is_perfect_square(n // 2)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**4))
@example(1, 2, 3)  # a hit: 1*2 and 9*1*2 are both twice a square
def test_multiple_is_twice_a_square_iff_primitive_is(a, b, d):
    # The lemma behind scan_generator_block: d^2 | 2*x3^2 forces d | x3.
    assert _twice_a_square(d * d * a * b) == _twice_a_square(a * b)


def test_multiples_emits_every_multiple_up_to_the_bound():
    """p = q = 1 is no generator pair, but its half leg product 0 is a
    square, and its legs 2 and 0 and hypotenuse 2 tell each formula of the
    hit path from its sign or factor flipped."""
    assert scan_generator_block(1, 1, 10) == [(0, 2 * d, 2 * d, 0) for d in range(1, 6)]
    assert scan_generator_block(1, 1, 1) == []


def test_exhaustive_search_zeros_admitted():
    # Once zero legs are admitted, the degenerate set is all there is.
    from .oracles import naive_exhaustive_search

    got = sorted(tuple(c) for c in degenerate_solutions())
    assert got == [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)]
    assert got == naive_exhaustive_search(10, allow_zero=True)
    # stable under larger bounds too
    assert got == naive_exhaustive_search(50, allow_zero=True)


def test_exhaustive_search_rejects_bad_bound():
    with pytest.raises(DomainError):
        exhaustive_search(0)


def test_generator_pairs_cover_all_primitive_triples():
    from .oracles import brute_primitive_triples

    bound = 200
    covered = set()
    for x0, x1, x2, p, q in primitive_triples(bound):
        for sol in scan_generator_block(p, q, bound):
            covered.add(sol)
        covered.add((x0, x1, x2))
    primitive_legs = {
        tuple(sorted((x0, x1))) + (x2,) for x0, x1, x2 in brute_primitive_triples(bound)
    }
    assert covered == primitive_legs


def test_generator_pairs_equal_a_brute_listing_to_400():
    for bound in range(1, 401):
        brute = [
            (min(2 * p * q, p * p - q * q), max(2 * p * q, p * p - q * q), p * p + q * q, p, q)
            for p in range(2, 21)
            for q in range(1, p)
            if (p + q) % 2 and math.gcd(p, q) == 1 and p * p + q * q <= bound
        ]
        assert list(primitive_triples(bound)) == brute


def test_search_with_cache_resumes(tmp_path):
    cache = tmp_path / "resume.txt"
    first = exhaustive_search(200, cache_path=str(cache))
    assert cache.read_text() == "upto 200\n"  # one mark per run
    # resuming searches nothing and returns the same (empty) result
    second = exhaustive_search(200, cache_path=str(cache))
    assert second == first == []
    assert cache.read_text() == "upto 200\n"
    # Each run that searches appends the mark of its own bound.
    for bound in (16, 17, 337, 338):
        cache = tmp_path / f"resume{bound}.txt"
        exhaustive_search(bound, cache_path=str(cache))
        assert cache.read_text() == f"upto {bound}\n"


def _spy_tested(mp, tested):
    """Append to tested every pair (p, q) the search hands to the exact test."""
    scan = certificate.scan_generator_block

    def spy(p, q, bound_x2):
        tested.append((p, q))
        return scan(p, q, bound_x2)

    mp.setattr(certificate, "scan_generator_block", spy)


# Lines of the older cache formats, none of which is an `upto` mark:
# `p q done` (the first), `p q bound done` (one line per pair),
# `row p bound done` (one line per generator row p), and `erow e bound done`
# (one line per e row of the Claim I search), which cover only part of the
# pairs up to their bound; and lines that only look like a mark.
OLD_LINES = (
    "2 1 done", "12 5 done", "2 1 {n} done", "5 2 {n} done", "row 2 {n} done",
    "erow 5 {n} done", "upto {n} done", "upto x", "upto -{n}", "uptoo {n}",
)


def test_search_cache_is_keyed_by_bound(tmp_path, monkeypatch):
    from .oracles import claim_ii_pairs

    cache = str(tmp_path / "bounds.txt")
    exhaustive_search(100, cache_path=cache)
    scanned = []
    _spy_tested(monkeypatch, scanned)
    # A mark made at 100 does not cover 2000: (16, 9) has x2 = 337.
    assert exhaustive_search(2000, cache_path=cache) == []
    assert scanned == claim_ii_pairs(2000) == [(16, 9)]
    # A mark made at 2000 covers every smaller bound.
    scanned.clear()
    assert exhaustive_search(1000, cache_path=cache) == []
    assert scanned == []
    for old in OLD_LINES:
        (tmp_path / "bounds.txt").write_text(old.format(n=10**6) + "\n")
        scanned.clear()
        exhaustive_search(400, cache_path=cache)
        assert scanned == [(16, 9)], old


def test_warm_search_enumerates_no_pair(tmp_path, monkeypatch):
    from .oracles import claim_ii_pairs

    cache = str(tmp_path / "warm.txt")
    assert exhaustive_search(10**6, cache_path=cache) == []
    tested = []
    _spy_tested(monkeypatch, tested)
    # The mark covers the bound, so no pair is tested.
    assert exhaustive_search(10**6, cache_path=cache) == []
    assert tested == []
    # The spy does see the pairs of an uncached run.
    assert exhaustive_search(10**6) == []
    assert sorted(tested) == claim_ii_pairs(10**6)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10**8), data=st.data())
def test_interrupted_search_resumes_without_skipping(n, data):
    from .oracles import claim_ii_pairs

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        cache = os.path.join(tmp, "cache.txt")
        # A cache file: lines of older formats, then the mark of a run at n.
        olds = data.draw(st.lists(st.sampled_from(OLD_LINES), max_size=3), label="olds")
        with open(cache, "w") as fh:
            fh.write("".join(old.format(n=n) + "\n" for old in olds))
        assert exhaustive_search(n, cache_path=cache) == []
        with open(cache) as fh:
            text = fh.read()
        assert text.endswith(f"\nupto {n}\n" if olds else f"upto {n}\n")
        # An interruption keeps a prefix of the file, perhaps cut mid-line.
        prefix = text[: data.draw(st.integers(0, len(text)), label="cut")]
        with open(cache, "w") as fh:
            fh.write(prefix)

        bound = data.draw(st.integers(1, n), label="bound")
        uncached = exhaustive_search(bound)
        covered = any(int(m) >= bound for m in re.findall(r"^upto (\d+)$", prefix, re.M))
        tested = []
        _spy_tested(mp, tested)
        assert exhaustive_search(bound, cache_path=cache) == uncached
        assert sorted(tested) == ([] if covered else claim_ii_pairs(bound))
        with open(cache) as fh:
            after = fh.read()
        if covered:
            assert after == prefix
        else:
            cut_off = prefix and not prefix.endswith("\n")
            assert after == prefix + ("\n" if cut_off else "") + f"upto {bound}\n"


def test_search_at_2000_is_empty_within_time_budget():
    import time

    start = time.monotonic()
    assert exhaustive_search(2000) == []
    assert time.monotonic() - start < 60
