"""The square-area theorem: no Pythagorean triangle with positive integer
sides has a square area.  Precisely, x0^2 + x1^2 = x2^2 with x0, x1 >= 1
excludes x0*x1 = 2*x3^2, since the area x0*x1/2 would be x3^2.

The claims of the descent are runnable code even though their shared
precondition (a genuine counterexample) is unsatisfiable: that emptiness is
the theorem, and the Claims I and II search of the certificate module
certifies it at desk scale.
Each claim's constructive core is independently satisfiable and tested
through the proportions and diophantine modules.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .descent_engine import (
    DescentInstance,
    IndexedDescentFamily,
    pair_decode,
    pair_encode,
    quad_decode,
    quad_encode,
    tagged,
)
from . import DomainError

# core_arith, diophantine and proportions are imported inside the functions
# that use them: the predicates that the checks evaluate need none of them,
# and the step path that does runs only from a counterexample.  So is
# certificate, which only the fermat and walsh checks' candidates and
# exhaustive_search need.


class CandidateSolution(namedtuple("CandidateSolution", "x0 x1 x2 x3")):
    """A quadruple to classify; deliberately admits non-solutions."""

    __slots__ = ()


class ClaimIData(namedtuple("ClaimIData", "p q c e f")):
    """First waypoint of the descent: the generators are squares and their
    squares differ by a square."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, c: int, e: int, f: int):
        from .core_arith import coprime

        if not coprime([p, q]):
            raise DomainError("p and q must be coprime")
        if (p + q) % 2 == 0:
            raise DomainError("exactly one of p, q must be odd")
        if not p > q:
            raise DomainError("need p > q")
        if p != e**2 or q != f**2:
            raise DomainError("p and q must be the squares of e and f")
        if p**2 - q**2 != c**2:
            raise DomainError("p^2 - q^2 must equal c^2")
        if not e > f > 0:
            raise DomainError("need e > f > 0")
        return tuple.__new__(cls, (p, q, c, e, f))


class ClaimIIData(namedtuple("ClaimIIData", "e f g h")):
    """Two squares whose sum and difference are both squares."""

    __slots__ = ()

    def __new__(cls, e: int, f: int, g: int, h: int):
        from .core_arith import coprime

        if g < 1 or h < 1 or not coprime([g, h]):
            raise DomainError("g and h must be positive and coprime")
        if not e > f > 0:
            raise DomainError("need e > f > 0")
        if e**2 + f**2 != g**2:
            raise DomainError("e^2 + f^2 must equal g^2")
        if e**2 - f**2 != h**2:
            raise DomainError("e^2 - f^2 must equal h^2")
        return tuple.__new__(cls, (e, f, g, h))


def _solves(x0: int, x1: int, x2: int, x3: int) -> bool:
    """The counterexample condition: positive legs, a Pythagorean triple, and
    a leg product twice a square."""
    return x0 >= 1 and x1 >= 1 and x0 * x0 + x1 * x1 == x2 * x2 and x0 * x1 == 2 * x3 * x3


def is_counterexample(c: CandidateSolution) -> bool:
    """True iff c has positive legs, is a Pythagorean triple, and its leg
    product is twice a square."""
    return _solves(*c)


def degenerate_solutions() -> frozenset[CandidateSolution]:
    """The solutions that appear once zeros are admitted: the all-zero
    quadruple and the two coprime unit triangles.

    A zero leg makes the leg product 0, so x3 = 0, and makes the other leg
    equal x2; (x0, x1, x2) coprime then makes that leg 1, unless all three
    are 0.  With both legs positive there is no solution: that is the theorem.
    """
    return frozenset(
        CandidateSolution(*t) for t in ((0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0))
    )


def reduce_triple_by_prime(t: PythTriple, z: int) -> PythTriple:
    """Divide a triple through by a prime dividing both legs (it then divides
    the hypotenuse as well, since z^2 | x2^2 forces z | x2)."""
    from .core_arith import is_prime
    from .diophantine import PythTriple

    if not is_prime(z):
        raise DomainError(f"{z} is not prime")
    if t.x0 % z or t.x1 % z:
        raise DomainError(f"{z} does not divide both legs")
    assert t.x2 % z == 0
    return PythTriple(t.x0 // z, t.x1 // z, t.x2 // z)


def reduce_area_witness(x3: int, z: int) -> int:
    """The matching reduction of the area witness in the first descent case."""
    from .core_arith import is_prime

    if not is_prime(z):
        raise DomainError(f"{z} is not prime")
    if x3 % z:
        raise DomainError(f"{z} does not divide {x3}")
    return x3 // z


def _counterexample_guard(c: CandidateSolution) -> None:
    from .core_arith import common_prime_witness, coprime

    if not is_counterexample(c):
        raise DomainError(
            f"({c.x0}, {c.x1}, {c.x2}, {c.x3}) is not a counterexample: "
            "either not a positive-leg triple or the leg product is not twice a square"
        )
    if not coprime([c.x0, c.x1]):
        raise DomainError(
            f"legs {c.x0}, {c.x1} share a factor; reduce by "
            f"{common_prime_witness([c.x0, c.x1])} first"
        )


def claim_i(c: CandidateSolution) -> ClaimIData:
    """From a coprime counterexample, extract generators p = e^2, q = f^2
    with p^2 - q^2 = c^2.  The precondition is unsatisfiable; the pieces are
    individually satisfiable and tested."""
    from .diophantine import PythTriple, decompose_primitive_triple
    from .proportions import split_coprime_square

    _counterexample_guard(c)
    gens = decompose_primitive_triple(PythTriple(c.x0, c.x1, c.x2))
    p, q = gens.p, gens.q
    # x0*x1 = 2*x3^2 gives p*q*(p^2 - q^2) = x3^2 with coprime factors.
    b, cc = split_coprime_square(p * q, p**2 - q**2, c.x3)
    e, f = split_coprime_square(p, q, b)
    data = ClaimIData(p=p, q=q, c=cc, e=e, f=f)
    assert c.x2 > e > f > 0
    return data


def claim_ii(d: ClaimIData) -> ClaimIIData:
    """Split p+q and p-q (coprime, both squares times each other = c^2) to
    obtain two squares whose sum and difference are squares."""
    from .proportions import split_sum_diff_square

    g, h = split_sum_diff_square(d.p, d.q, d.c)
    return ClaimIIData(e=d.e, f=d.f, g=g, h=h)


def descend_claim_ii(d: ClaimIIData) -> tuple[int, int, int, int]:
    """Build the strictly smaller counterexample (y0, y1, y2, y3) from a
    sum-and-difference-of-squares state."""
    from .diophantine import decompose_primitive_two_square

    # Claim IIa / IIb are one-line consequences of the invariants:
    assert d.h**2 + d.f**2 == d.e**2
    assert d.h**2 + 2 * d.f**2 == d.g**2
    m, k = decompose_primitive_two_square(d.h, d.f, d.g)
    y0, y1, y2, y3 = 2 * m**2, k**2, d.e, m * k
    assert y0 * y1 == 2 * y3**2
    assert y0**2 + y1**2 == y2**2
    return y0, y1, y2, y3


def walsh_claim_iii(c: CandidateSolution) -> ClaimIIData:
    """Walsh's direct construction: e = x2, f = 2*x3, g = x0 + x1,
    h = |x0 - x1|; then e^2 +- f^2 = (x0 +- x1)^2."""
    _counterexample_guard(c)
    return ClaimIIData(
        e=c.x2, f=2 * c.x3, g=c.x0 + c.x1, h=abs(c.x0 - c.x1)
    )


def frenicle_descend(d: ClaimIData) -> tuple[int, int]:
    """Frenicle's shortcut: apply Proposition XXXVIII to the triple
    (q, c, p) with even-leg square witness f, giving (2m^2)^2 + (k^2)^2 = e^2."""
    from .diophantine import PythTriple, frenicle_xxxviii

    if d.c % 2 == 0:
        raise DomainError("c must be odd")
    m, k = frenicle_xxxviii(PythTriple(d.q, d.c, d.p), d.f)
    assert (2 * m**2) ** 2 + (k**2) ** 2 == d.e**2
    return m, k


# ---------------------------------------------------------------------------
# descent-engine wiring


def walsh_start_weight(x2: int, x3: int) -> int:
    """Weight of a candidate quadruple in Walsh's schedule."""
    return x2**2 + (2 * x3) ** 2 + 1


def walsh_state_weight(e: int, f: int) -> int:
    """Weight of a sum-and-difference state in Walsh's schedule."""
    return e**2 + f**2


def encode_walsh_candidate(c: CandidateSolution) -> int:
    return pair_encode(0, quad_encode(*c))


def encode_walsh_state(d: ClaimIIData) -> int:
    return pair_encode(1, quad_encode(d.e, d.f, d.g, d.h))


def _is_claim_ii_tuple(e: int, f: int, g: int, h: int) -> bool:
    if not (g >= 1 and h >= 1 and e > f > 0 and e**2 + f**2 == g**2 and e**2 - f**2 == h**2):
        return False
    # No state gets past the two equalities (that is the theorem), so the
    # checks never load core_arith for this.
    from .core_arith import coprime

    return coprime([g, h])


def _not_counterexample(v: int) -> bool:
    return not _solves(*quad_decode(v))


def _triple_codes(bound: int) -> list[int]:
    """The quad codes <= bound with positive legs whose third component is
    their hypotenuse, increasing: outside them _not_counterexample holds.

    A code pair_encode(L, R) is at least L(L + 1)/2 > L^2/2, and as
    x0 + x1 > x2, L = pair_encode(x0, x1) > x2(x2 + 1)/2 > x2^2/2.  So each
    such code <= bound has x2^4 < 8*bound: it is a code of a multiple, in
    either leg order, of a triple of primitive_triples(cap), cap =
    (8*bound)^(1/4), with R = pair_encode(x2, t) in increasing t while the
    code stays <= bound (Cantor pairing increases in each argument).
    """
    from .certificate import primitive_triples

    codes = []
    # isqrt(isqrt(n)) is the integer fourth root of n.
    cap = math.isqrt(math.isqrt(8 * bound))
    for a, b, c, _, _ in primitive_triples(cap):
        for d in range(1, cap // c + 1):
            for left in (pair_encode(d * a, d * b), pair_encode(d * b, d * a)):
                t = 0
                while (v := pair_encode(left, pair_encode(d * c, t))) <= bound:
                    codes.append(v)
                    t += 1
    return sorted(codes)


_not_counterexample.candidates = _triple_codes


def _not_claim_ii_code(v: int) -> bool:
    return not _is_claim_ii_tuple(*quad_decode(v))


# A Claim II state has e > f > 0 and e^2 + f^2 = g^2: a triple code.
_not_claim_ii_code.candidates = _triple_codes


def _reduce_to_coprime(c: CandidateSolution) -> CandidateSolution:
    from .core_arith import common_prime_witness, coprime
    from .diophantine import PythTriple

    while not coprime([c.x0, c.x1]):
        z = common_prime_witness([c.x0, c.x1])
        t = reduce_triple_by_prime(PythTriple(c.x0, c.x1, c.x2), z)
        c = CandidateSolution(t.x0, t.x1, t.x2, reduce_area_witness(c.x3, z))
    return c


def fermat_instance() -> DescentInstance:
    """Theorem-level indefinite descent over Cantor-encoded quadruples.

    It descends on x2 and steps through the primitivity reduction and
    Claims I, II.  Walsh's weights belong to walsh_family.
    """

    def weight(v: int) -> int:
        return quad_decode(v)[2]

    def step(v: int) -> int:
        c = _reduce_to_coprime(CandidateSolution(*quad_decode(v)))
        return quad_encode(*descend_claim_ii(claim_ii(claim_i(c))))

    def describe(v: int) -> str:
        return "candidate ({}, {}, {}, {})".format(*quad_decode(v))

    return DescentInstance("fermat", _not_counterexample, weight, step, describe)


def walsh_family() -> IndexedDescentFamily:
    """Walsh's varying-predicate schedule: the theorem predicate feeds the
    sum-and-difference predicate once via Claim III (weight drop exactly 1),
    then Claims I and II keep descending at the state level.

    Values are tagged pairs: tag 0 encodes candidate quadruples, tag 1
    encodes (e, f, g, h) states.
    """

    def weight(v: int) -> int:
        tag, payload = pair_decode(v)
        x0, x1, x2, x3 = quad_decode(payload)  # a state is (e, f, g, h)
        return walsh_start_weight(x2, x3) if tag == 0 else walsh_state_weight(x0, x1)

    # P_0 fails only on a counterexample tagged 0 and P_1 only on a claim-II
    # state tagged 1, so each step reads its payload without a test.
    def step0(v: int) -> int:
        c = CandidateSolution(*quad_decode(pair_decode(v)[1]))
        d = walsh_claim_iii(_reduce_to_coprime(c))
        return encode_walsh_state(d)

    def step1(v: int) -> int:
        y = descend_claim_ii(ClaimIIData(*quad_decode(pair_decode(v)[1])))
        nxt = claim_ii(claim_i(CandidateSolution(*y)))
        return encode_walsh_state(nxt)

    def describe(v: int) -> str:
        tag, payload = pair_decode(v)
        kind = "candidate" if tag == 0 else "state"
        return "{} ({}, {}, {}, {})".format(kind, *quad_decode(payload))

    return IndexedDescentFamily(
        "walsh",
        (tagged(0, _not_counterexample), tagged(1, _not_claim_ii_code)),
        weight,
        (step0, step1),
        describe,
    )


# ---------------------------------------------------------------------------
# exhaustive desk-scale search


def exhaustive_search(
    bound_x2: int, cache_path: str | None = None
) -> list[CandidateSolution]:
    """All quadruples with 1 <= x0 <= x1, x0^2 + x1^2 = x2^2, x2 <= bound_x2
    and x0*x1 = 2*x3^2, from certificate.search, which also documents the
    resume cache at cache_path.  Expected result: none.  With zero legs
    admitted, degenerate_solutions() lists the rest.
    """
    from .certificate import search

    return [CandidateSolution(*sol) for sol in search(bound_x2, cache_path)]
