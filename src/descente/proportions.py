"""Book VIII material: continued proportions and coprime square splitting.

The square-splitting operations here are the constructive engines behind
the area-is-not-a-square proof: they turn "a coprime product is a square"
facts into explicit square roots.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core_arith import check_coprime, check_natural, check_prime, coprime
from . import CheckedRecord, DomainError


def exact_sqrt(n: int) -> int | None:
    """Integer square root when n is a perfect square, else None."""
    r = math.isqrt(n)
    return r if r * r == n else None


class ContinuedProportion(tuple):
    """Positive terms with each interior term the geometric mean of its neighbors.

    Length 2 is allowed (no interior constraint), so the degenerate n = 0
    case of the generalized VIII.2 is representable.  The record is the
    tuple of its terms.
    """

    __slots__ = ()

    def __new__(cls, terms: tuple[int, ...]):
        if len(terms) < 2:
            raise DomainError("a continued proportion needs at least 2 terms")
        check_natural(*terms)
        if any(t < 1 for t in terms):
            raise DomainError("continued proportion terms must be positive")
        for i in range(1, len(terms) - 1):
            if terms[i - 1] * terms[i + 1] != terms[i] ** 2:
                raise DomainError(
                    f"terms {terms[i - 1]}:{terms[i]}:{terms[i + 1]} "
                    "are not in continued proportion"
                )
        return tuple.__new__(cls, terms)

    def __repr__(self) -> str:
        return f"ContinuedProportion(terms={tuple(self)!r})"


class NormalForm(CheckedRecord, namedtuple("NormalForm", "k y z n")):
    """Geometric normal form: terms[i] == k * y**(n+1-i) * z**i with y, z coprime."""

    __slots__ = ()

    def __new__(cls, k: int, y: int, z: int, n: int):
        check_natural(k, y, z, n)
        if k < 1 or y < 1 or z < 1:
            raise DomainError("k, y, z must be positive")
        if not coprime([y, z]):
            raise DomainError("y and z must be coprime")
        return tuple.__new__(cls, (k, y, z, n))

    def reconstruct(self) -> ContinuedProportion:
        top = self.n + 1
        return ContinuedProportion(
            tuple(self.k * self.y ** (top - i) * self.z**i for i in range(top + 1))
        )


def lowest_terms(x0: int, x1: int) -> tuple[int, int, int]:
    """Reduce the ratio x0:x1 to coprime lowest terms (y0, y1) with scale k."""
    check_natural(x0, x1)
    if x0 == 0 or x1 == 0:
        raise DomainError("lowest_terms requires positive inputs")
    k = math.gcd(x0, x1)
    return x0 // k, x1 // k, k


def scale_between(xs: ContinuedProportion, ys: ContinuedProportion) -> int:
    """The k with k*xs[i] == ys[i] for proportions sharing their leading ratio."""
    if len(xs) != len(ys):
        raise DomainError("proportions must have equal length")
    if xs[0] * ys[1] != ys[0] * xs[1]:
        raise DomainError("proportions do not share the leading ratio")
    # Coprime endpoints of xs guarantee k exists; with them absent the scale
    # is still returned whenever it happens to be uniform (identity included).
    k, rem = divmod(ys[0], xs[0])
    if rem != 0 or k == 0 or any(k * a != b for a, b in zip(xs, ys)):
        raise DomainError("no uniform positive scale exists")
    return k


def normal_form(xs: ContinuedProportion) -> NormalForm:
    """Express a continued proportion as k * y^(n+1-i) * z^i with y, z coprime.

    k == 1 whenever the endpoints are coprime.
    """
    n = len(xs) - 2
    y, z, _ = lowest_terms(xs[0], xs[1])
    k, rem = divmod(xs[0], y ** (n + 1))
    if rem != 0:
        raise DomainError("terms do not admit a geometric normal form")
    nf = NormalForm(k=k, y=y, z=z, n=n)
    if nf.reconstruct() != xs:
        raise DomainError("terms do not admit a geometric normal form")
    return nf


def split_coprime_square(a: int, b: int, x: int) -> tuple[int, int]:
    """Split a coprime product a*b == x*x into squares: a == y*y, b == z*z, x == y*z.

    The zero case follows the source case split: if one of a, b is 0 the
    other is 1 and x is 0.
    """
    check_natural(a, b, x)
    check_coprime(a, b)
    if a * b != x * x:
        raise DomainError(f"{a}*{b} != {x}^2")
    y = exact_sqrt(a)
    z = exact_sqrt(b)
    assert y is not None and z is not None and y * z == x, "coprime square split failed"
    return y, z


def coprime_side_with_prime(p: int, a: int, b: int) -> int:
    """Which side a prime can join while preserving coprimality: 1 for (p*a, b), else 2."""
    check_natural(p, a, b)
    check_prime(p)
    check_coprime(a, b)
    if coprime([p * a, b]):
        return 1
    assert coprime([a, p * b]), "neither side stayed coprime"
    return 2


def split_coprime_double_square(p: int, a: int, b: int, v: int) -> tuple[int, int]:
    """Given prime p, coprime a, b with p*a*b == v*v, split {a, b} as {p*m*m, k*k}.

    Returns (m, k) with p*m and k coprime.
    """
    check_natural(p, a, b, v)
    check_prime(p)
    check_coprime(a, b)
    if p * a * b != v * v:
        raise DomainError(f"{p}*{a}*{b} != {v}^2")
    # p*a*b is a square, so the prime p divides a*b: one of the coprime a, b.
    pm2, k2 = (a, b) if a % p == 0 else (b, a)
    return split_coprime_square(pm2 // p, k2, v // p)


def split_sum_diff_square(p: int, q: int, c: int) -> tuple[int, int]:
    """Split p^2 - q^2 == c^2 into p+q == g^2, p-q == h^2 with g, h coprime.

    Requires p, q coprime and of opposite parity with p > q >= 1, so that
    p+q and p-q are themselves coprime.
    """
    check_natural(p, q, c)
    check_coprime(p, q)
    if (p + q) % 2 == 0:
        raise DomainError(f"{p} and {q} must have opposite parity")
    if not p > q >= 1:
        raise DomainError(f"need p > q >= 1, got p={p}, q={q}")
    if p * p - q * q != c * c:
        raise DomainError(f"{p}^2 - {q}^2 != {c}^2")
    return split_coprime_square(p + q, p - q, c)
