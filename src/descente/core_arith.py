"""Exact natural-number arithmetic and Book VII primitives.

Naturals are plain Python ints restricted to values >= 0; every operation
validates its arguments and raises DomainError outside its precondition.
Four guards state the shared preconditions once each: check_natural,
check_prime, check_coprime and check_primitive.
Divisibility follows the classical convention: 1 is the minimum and 0 the
maximum of the divides ordering, so divides(x, 0) is always true.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator

from . import CheckedRecord, DomainError


def check_natural(*values: int) -> None:
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DomainError(f"expected a natural number, got {v!r}")


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def check_coprime(a: int, b: int) -> None:
    if not coprime([a, b]):
        raise DomainError(f"{a} and {b} are not coprime")


def check_primitive(*values: int) -> None:
    if (z := common_prime_witness(list(values))) is not None:
        raise DomainError(f"{values} shares the prime factor {z}")


def divides(x: int, y: int) -> bool:
    """True iff some k satisfies k*x == y (so every x divides 0)."""
    check_natural(x, y)
    if x == 0:
        return y == 0
    return y % x == 0


def gcd(x: int, y: int) -> int:
    """Greatest common divisor; undefined (DomainError) for (0, 0)."""
    check_natural(x, y)
    if x == 0 and y == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(x, y)


# Strong Miller-Rabin with the first 13 primes as bases is exact below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015), so these 13 bases decide every p below it.  Fewer bases are
# exact below smaller limits (Jaeschke 1993), but they save only microseconds
# per call.  No fixed set of bases used here decides primality at or above
# PRIME_LIMIT.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
# Factors below this are found by trial division before rho is tried.
_TRIAL_LIMIT = 1024


def is_prime(p: int) -> bool:
    """Exact primality: trial division by the primes up to 47, then strong
    Miller-Rabin with the first 13 primes as bases, exact below PRIME_LIMIT.

    At or above PRIME_LIMIT a witness still proves p composite; when none
    is found, primality cannot be decided and DomainError is raised.
    """
    check_natural(p)
    if p < 2:
        return False
    if math.gcd(p, _SMALL_PRIMORIAL) != 1:
        return p <= _SMALL_PRIMES[-1] and p in _SMALL_PRIMES
    if p < _SMALL_PRIMES[-1] ** 2:
        return True
    # Strong test: p - 1 = d * 2**s with d odd; base a is a witness unless
    # a**d is 1 or a**(d * 2**i) is p - 1 for some i < s.
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= PRIME_LIMIT:
        raise DomainError(f"primality of {p} is not decided at or above {PRIME_LIMIT}")
    return True


def least_prime_divisor(x: int) -> int:
    """Smallest prime dividing x: the first that _ascending_factors yields,
    so what is left of x above it is never factored."""
    check_natural(x)
    if x in (0, 1):
        raise DomainError(f"least_prime_divisor undefined for {x}")
    return next(_ascending_factors(x))[0]


def _prime_factors(x: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of x >= 1, primes increasing.  The same
    factorization backs the builtin 'vii31' descent instance."""
    return list(_ascending_factors(x))


def _ascending_factors(x: int) -> Iterator[tuple[int, int]]:
    """Yield the (prime, exponent) pairs of x >= 1, primes increasing.

    Trial division yields the factors below _TRIAL_LIMIT as it finds them;
    Pollard-Brent rho splits what is left, and each factor is certified by
    is_prime.  A cofactor at or above PRIME_LIMIT raises DomainError, which
    also bounds the work: every composite below it has a factor under
    2*10**12.
    """
    n, d, stop = x, 2, _TRIAL_LIMIT
    while d * d <= n and d < stop:
        if n % d == 0:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            yield d, e
        d += 1 if d == 2 else 2
    if d * d > n:  # what is left is 1 or a prime
        if n > 1:
            yield n, 1
        return
    if n >= PRIME_LIMIT:
        raise DomainError(f"cannot factor {x}: cofactor {n} is at or above {PRIME_LIMIT}")
    large = []
    pending = [n]
    while pending:
        m = pending.pop()
        if is_prime(m):
            large.append(m)
        else:
            f = _pollard_brent(m)
            pending += [f, m // f]
    yield from ((p, large.count(p)) for p in sorted(set(large)))


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's variant of rho
    with deterministic polynomials x*x + c."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # The batch overshot: retrace it one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


class Factorization(CheckedRecord, namedtuple("Factorization", "factors")):
    """Canonical prime factorization: (prime, exponent) pairs, primes increasing."""

    __slots__ = ()

    def __new__(cls, factors: tuple[tuple[int, int], ...]):
        primes = [p for p, _ in factors]
        if primes != sorted(set(primes)):
            raise DomainError("factorization primes must be strictly increasing")
        for p, e in factors:
            if e < 1:
                raise DomainError(f"exponent of {p} must be positive")
            check_prime(p)
        return tuple.__new__(cls, (factors,))


def factorize(x: int) -> Factorization:
    """Canonical factorization; factorize(1) is empty."""
    check_natural(x)
    if x == 0:
        raise DomainError("cannot factorize 0")
    # _prime_factors has certified every prime it returns, so the checks of
    # Factorization.__new__ are skipped rather than proving them again.
    return tuple.__new__(Factorization, (tuple(_prime_factors(x)),))


def valuation(p: int, x: int) -> int:
    """Largest n with p^n dividing x."""
    check_natural(p, x)
    check_prime(p)
    if x == 0:
        raise DomainError("valuation undefined at 0")
    n = 0
    while x % p == 0:
        n += 1
        x //= p
    return n


def split_valuation(p: int, m: int, x0: int, x1: int) -> tuple[int, int]:
    """Split an exponent m with p^m | x0*x1 into n0 + n1 with p^ni | xi.

    Canonical choice puts as much as possible on x0: n0 = min(m, valuation(p, x0)).
    """
    check_natural(p, m, x0, x1)
    check_prime(p)
    if x0 * x1 == 0:
        raise DomainError("split_valuation requires x0*x1 >= 1")
    if not divides(p**m, x0 * x1):
        raise DomainError(f"{p}^{m} does not divide {x0}*{x1}")
    n0 = min(m, valuation(p, x0))
    return n0, m - n0


def coprime(values: list[int]) -> bool:
    """True iff the only common divisor of all values is 1."""
    if not values:
        raise DomainError("coprime undefined for the empty list")
    check_natural(*values)
    return math.gcd(*values) == 1


def common_prime_witness(values: list[int]) -> int | None:
    """Least prime dividing every value, or None when the list is coprime."""
    if not values:
        raise DomainError("common_prime_witness undefined for the empty list")
    check_natural(*values)
    g = math.gcd(*values)
    if g == 1:
        return None
    if g == 0:
        return 2  # every prime divides 0; 2 is the least
    return least_prime_divisor(g)


def euclid_lemma_side(p: int, x1: int, x2: int) -> int:
    """Index in {1, 2} of a factor divisible by p, given prime p | x1*x2.

    Canonical tie-break: 1 whenever p | x1.
    """
    check_natural(p, x1, x2)
    check_prime(p)
    if not divides(p, x1 * x2):
        raise DomainError(f"{p} does not divide {x1}*{x2}")
    return 1 if divides(p, x1) else 2


def divides_via_valuations(x: int, y: int) -> bool:
    """divides(x, y) computed purely from the prime-power criterion.

    Exists as an independent cross-check: x | y iff every prime power
    dividing x also divides y.
    """
    check_natural(x, y)
    if x == 0 or y == 0:
        raise DomainError("divides_via_valuations requires positive inputs")
    return all(divides(p**e, y) for p, e in factorize(x).factors)
