"""Parametrizations of x0^2 + x1^2 = x2^2 and x0^2 + 2*x1^2 = x2^2.

Decompositions use closed-form arithmetic (half-sum / half-difference of the
hypotenuse and the odd leg); the brute-force searches live in the tests as
independent oracles.
"""

from __future__ import annotations

from collections import namedtuple

from .core_arith import check_coprime, check_natural, check_primitive, common_prime_witness
from . import EXIT_OK, CheckedRecord, DomainError, UsageError

# The largest max_x2 triples accepts.  Its rows grow as max_x2 log max_x2:
# 10^5 prints 161,436 rows as a subprocess with PYTHONUNBUFFERED=1 in about
# 0.6 s in text and 1.3-1.4 s in JSONL (0.45 s and 1.25 s buffered), the
# first after about 0.05 s, with a peak RSS of 18 MB against 14 MB for
# `triples 5` (Python 3.11.7, 2 CPUs): the heap holds the next multiple of
# each of the 15,919 primitive triples.
MAX_X2 = 10**5

# proportions is imported inside the three functions that split squares, so
# that `decompose triple` and `triples` do not load it, and certificate, the
# home of primitive_triples, inside cmd_triples, so that `decompose` does not
# load it.


class PythTriple(CheckedRecord, namedtuple("PythTriple", "x0 x1 x2")):
    __slots__ = ()

    def __new__(cls, x0: int, x1: int, x2: int):
        check_natural(x0, x1, x2)
        if x0**2 + x1**2 != x2**2:
            raise DomainError(f"({x0}, {x1}, {x2}) is not a Pythagorean triple")
        return tuple.__new__(cls, (x0, x1, x2))


class Generators(CheckedRecord, namedtuple("Generators", "i p q")):
    """Coprime opposite-parity pair (p, q) with p > q; i marks the even leg."""

    __slots__ = ()

    def __new__(cls, i: int, p: int, q: int):
        check_natural(p, q)
        if i not in (0, 1):
            raise DomainError("leg index must be 0 or 1")
        check_coprime(p, q)
        if (p + q) % 2 == 0:
            raise DomainError("exactly one of p, q must be odd")
        if not p > q:
            raise DomainError(f"need p > q, got p={p}, q={q}")
        return tuple.__new__(cls, (i, p, q))


def decompose_sum_of_squares(t: PythTriple) -> tuple[int, int, int]:
    """Split a triple as x_i = 2*sqrt(a*b), x_{1-i} = a-b, x2 = a+b with a >= b.

    i is the index of an even leg (index 0 on ties, including the zero
    triple).  Neither a nor b need be a square.
    """
    i = 0 if t.x0 % 2 == 0 else 1
    odd_leg = t.x1 if i == 0 else t.x0
    a = (t.x2 + odd_leg) // 2
    b = (t.x2 - odd_leg) // 2
    even_leg = t.x0 if i == 0 else t.x1
    assert 4 * a * b == even_leg**2, "even-leg split failed"
    return i, a, b


def decompose_primitive_triple(t: PythTriple) -> Generators:
    """Recover the generators of a primitive triple: x_i = 2pq, x_{1-i} = p^2-q^2."""
    from .proportions import exact_sqrt

    if (t.x0, t.x1, t.x2) == (0, 0, 0):
        raise DomainError("the zero triple has no generators")
    check_primitive(t.x0, t.x1, t.x2)
    i, a, b = decompose_sum_of_squares(t)
    p = exact_sqrt(a)
    q = exact_sqrt(b)
    assert p is not None and q is not None, "primitive split produced non-squares"
    return Generators(i=i, p=p, q=q)


def generate_triple(g: Generators) -> PythTriple:
    """The (always primitive) triple with 2pq at leg index g.i."""
    even = 2 * g.p * g.q
    odd = g.p**2 - g.q**2
    legs = (even, odd) if g.i == 0 else (odd, even)
    return PythTriple(legs[0], legs[1], g.p**2 + g.q**2)


def frenicle_xxxviii(t: PythTriple, v: int) -> tuple[int, int]:
    """Frenicle's Proposition XXXVIII: if a primitive triple's even leg is v^2,
    then x2 == (2*m^2)^2 + (k^2)^2 for coprime 2m, k.  Returns (m, k)."""
    from .proportions import split_coprime_double_square

    check_natural(v)
    g = decompose_primitive_triple(t)
    even_leg = t.x0 if g.i == 0 else t.x1
    if even_leg != v * v:
        raise DomainError(f"even leg {even_leg} is not {v}^2")
    # 2pq == v^2 with p, q coprime: split {p, q} as {2m^2, k^2}.
    m, k = split_coprime_double_square(2, g.p, g.q, v)
    assert (2 * m**2) ** 2 + (k**2) ** 2 == t.x2
    assert (m == 0) == (even_leg == 0)
    return m, k


def decompose_two_square(x0: int, x1: int, x2: int) -> tuple[int, int]:
    """Split x0^2 + 2*x1^2 == x2^2 as x0 = a-b, 2ab = x1^2, x2 = a+b with a >= b."""
    check_natural(x0, x1, x2)
    if x0**2 + 2 * x1**2 != x2**2:
        raise DomainError(f"{x0}^2 + 2*{x1}^2 != {x2}^2")
    a = (x2 + x0) // 2
    b = (x2 - x0) // 2
    assert 2 * a * b == x1**2, "two-square split failed"
    return a, b


def decompose_primitive_two_square(x0: int, x1: int, x2: int) -> tuple[int, int]:
    """Parametrize a coprime solution of x0^2 + 2*x1^2 == x2^2.

    Returns (m, k) with 2m, k coprime, 2m^2 != k^2, x0 == |2m^2 - k^2|,
    x1 == 2mk, and x2 == 2m^2 + k^2.
    """
    from .proportions import split_coprime_double_square

    a, b = decompose_two_square(x0, x1, x2)
    check_primitive(x0, x1, x2)
    m, k = split_coprime_double_square(2, a, b, x1)
    assert 2 * m**2 != k**2
    assert x0 == abs(2 * m**2 - k**2) and x1 == 2 * m * k and x2 == 2 * m**2 + k**2
    return m, k


# ---------------------------------------------------------------------------
# the triples and decompose commands


def cmd_triples(max_x2: int, primitive_only: bool) -> tuple:
    """Each triple with x2 <= max_x2 as a multiple of its primitive triple,
    in (x2, smaller leg) order.  The multiples of each primitive triple are
    already in that order, so a heap of the next multiple of each merges
    them as they are printed."""
    from heapq import heapify, heappop, heapreplace

    from .certificate import primitive_triples

    if max_x2 < 1:
        raise UsageError("max_x2 must be >= 1")
    if max_x2 > MAX_X2:
        raise UsageError(f"max_x2 must be <= {MAX_X2}")

    def rows():
        # [x2, x0, x1, factor, then the primitive triple's x0, x1, x2, p, q].
        # x2 and x0 fix the triple, so the heap compares nothing after them.
        heap = [[c, a, b, 1, a, b, c, p, q] for a, b, c, p, q in primitive_triples(max_x2)]
        heapify(heap)
        while heap:
            x2, x0, x1, d, a, b, c, p, q = top = heap[0]
            tail = "" if d == 1 else f"  non-primitive, factor {d}"
            yield (f"({x0}, {x1}, {x2})  p={p} q={q}{tail}",
                   {"record": "triple", "x0": x0, "x1": x1, "x2": x2, "p": p, "q": q,
                    "factor": d, "primitive": d == 1})
            if primitive_only or x2 + c > max_x2:
                heappop(heap)
            else:
                top[:4] = x2 + c, x0 + a, x1 + b, d + 1
                heapreplace(heap, top)

    return EXIT_OK, rows()


def cmd_decompose(kind: str, values: list[int]) -> tuple:
    """The decomposition of kind of values.  The command line's parser has
    already checked the kind; the count of values is checked before their
    signs, so `decompose triple -1 2` reports the count.  It has no JSONL
    form, so its one row's record is None."""
    n = 4 if kind == "frenicle" else 3
    if len(values) != n:
        raise UsageError(f"decompose {kind} takes {n} values")
    if any(v < 0 for v in values):
        raise UsageError("values must be naturals")
    if kind == "triple":
        t = PythTriple(*values)
        line = "i={} a={} b={}".format(*decompose_sum_of_squares(t))
        z = common_prime_witness(values) if t.x2 else None
        if z is not None:
            line += f"  (non-primitive, common factor {z})"
    elif kind == "two-square":
        line = "m={} k={}".format(*decompose_primitive_two_square(*values))
    else:
        line = "m={} k={}".format(*frenicle_xxxviii(PythTriple(*values[:3]), values[3]))
    return EXIT_OK, [(line, None)]
