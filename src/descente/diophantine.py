"""Parametrizations of x0^2 + x1^2 = x2^2 and x0^2 + 2*x1^2 = x2^2.

Decompositions use closed-form arithmetic (half-sum / half-difference of the
hypotenuse and the odd leg); the brute-force searches live in the tests as
independent oracles.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .core_arith import check_natural, common_prime_witness, coprime
from . import EXIT_OK, EXIT_PRECONDITION, DomainError, UsageError

# The largest max_x2 triples accepts.  Its rows grow as max_x2 log max_x2:
# 10^5 prints 161,436 rows in 2-3 s as a subprocess, the first after about
# 0.15 s, with a peak RSS of 26 MB (Python 3.11, 2 CPUs), mostly the merge's
# one pending multiple for each of the 15,919 primitive triples.
MAX_X2 = 10**5

# proportions is imported inside the three functions that split squares, so
# that `decompose triple` and `triples` do not load it, and certificate, the
# home of primitive_triples, inside cmd_triples, so that `decompose` does not
# load it.


class PythTriple(namedtuple("PythTriple", "x0 x1 x2")):
    __slots__ = ()

    def __new__(cls, x0: int, x1: int, x2: int):
        check_natural(x0, x1, x2)
        if x0**2 + x1**2 != x2**2:
            raise DomainError(f"({x0}, {x1}, {x2}) is not a Pythagorean triple")
        return tuple.__new__(cls, (x0, x1, x2))

    def is_primitive(self) -> bool:
        return coprime([self.x0, self.x1, self.x2])


class Generators(namedtuple("Generators", "i p q")):
    """Coprime opposite-parity pair (p, q) with p > q; i marks the even leg."""

    __slots__ = ()

    def __new__(cls, i: int, p: int, q: int):
        check_natural(p, q)
        if i not in (0, 1):
            raise DomainError("leg index must be 0 or 1")
        if not coprime([p, q]):
            raise DomainError(f"{p} and {q} are not coprime")
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
    if not t.is_primitive():
        z = common_prime_witness([t.x0, t.x1, t.x2])
        raise DomainError(f"({t.x0}, {t.x1}, {t.x2}) shares the prime factor {z}")
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
    if not coprime([x0, x1, x2]):
        z = common_prime_witness([x0, x1, x2])
        raise DomainError(f"({x0}, {x1}, {x2}) shares the prime factor {z}")
    m, k = split_coprime_double_square(2, a, b, x1)
    assert 2 * m**2 != k**2
    assert x0 == abs(2 * m**2 - k**2) and x1 == 2 * m * k and x2 == 2 * m**2 + k**2
    return m, k


# ---------------------------------------------------------------------------
# the triples and decompose commands


def cmd_triples(max_x2: int, primitive_only: bool, fmt: str, out) -> int:
    """Each triple with x2 <= max_x2 as a multiple of its primitive triple,
    in (x2, smaller leg) order: the multiples of each primitive triple are
    already in that order, so a heap merges them as they are printed."""
    from heapq import merge

    from .certificate import primitive_triples

    if max_x2 < 1:
        raise UsageError("max_x2 must be >= 1")
    if max_x2 > MAX_X2:
        raise UsageError(f"max_x2 must be <= {MAX_X2}")
    if fmt == "jsonl":
        from .jsonl import dumps

    def multiples(x0: int, x1: int, x2: int, p: int, q: int):
        for d in range(1, 2 if primitive_only else max_x2 // x2 + 1):
            yield d * x2, d * x0, d * x1, p, q, d

    for x2, x0, x1, p, q, d in merge(*(multiples(*t) for t in primitive_triples(max_x2))):
        if fmt == "jsonl":
            rec = dict(record="triple", x0=x0, x1=x1, x2=x2, p=p, q=q, factor=d, primitive=d == 1)
            print(dumps(rec), file=out)
        else:
            tail = "" if d == 1 else f"  non-primitive, factor {d}"
            print(f"({x0}, {x1}, {x2})  p={p} q={q}{tail}", file=out)
    return EXIT_OK


def cmd_decompose(kind: str, values: list[int], out) -> int:
    """The decomposition of kind of values.  The command line's parser has
    already checked the kind; the count of values is checked before their
    signs, so `decompose triple -1 2` reports the count."""
    n = 4 if kind == "frenicle" else 3
    if len(values) != n:
        raise UsageError(f"decompose {kind} takes {n} values")
    if any(v < 0 for v in values):
        raise UsageError("values must be naturals")
    try:
        if kind == "triple":
            t = PythTriple(values[0], values[1], values[2])
            i, a, b = decompose_sum_of_squares(t)
            line = f"i={i} a={a} b={b}"
            z = common_prime_witness([t.x0, t.x1, t.x2]) if t.x2 else None
            if z is not None:
                line += f"  (non-primitive, common factor {z})"
            print(line, file=out)
        elif kind == "two-square":
            m, k = decompose_primitive_two_square(values[0], values[1], values[2])
            print(f"m={m} k={k}", file=out)
        else:
            t = PythTriple(values[0], values[1], values[2])
            m, k = frenicle_xxxviii(t, values[3])
            print(f"m={m} k={k}", file=out)
    except DomainError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK
