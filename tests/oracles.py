"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (trial division, exhaustive loops) and
shares no code with the package under test beyond the Python integers.
"""

import math
from functools import lru_cache


def brute_is_prime(x: int) -> bool:
    return x >= 2 and all(x % d for d in range(2, x))


@lru_cache(maxsize=None)
def sieve_is_prime(n: int) -> tuple[bool, ...]:
    """Primality flags for 0..n by the sieve of Eratosthenes, for ranges
    where brute_is_prime is too slow."""
    flags = [x >= 2 for x in range(n + 1)]
    for d in range(2, math.isqrt(n) + 1):
        if flags[d]:
            for m in range(d * d, n + 1, d):
                flags[m] = False
    return tuple(flags)


@lru_cache(maxsize=None)
def brute_divisors(y: int, cap: int) -> tuple[int, ...]:
    """All x <= cap with x | y (convention: everything divides 0)."""
    if y == 0:
        return tuple(range(cap + 1))
    return tuple(x for x in range(1, min(y, cap) + 1) if y % x == 0)


def vii31_step(x: int):
    """One step of Euclid's VII.31 walk by trial division: x over its largest
    prime factor, or None where x <= 1 or x is prime."""
    n, d, largest = x, 2, None
    while d * d <= n:
        while n % d == 0:
            n, largest = n // d, d
        d += 1
    if n > 1:
        largest = n  # the cofactor left is a prime above every d tried
    return None if x <= 1 or largest == x else x // largest


def vii31_walk(start: int) -> list[int]:
    """The values of the VII.31 walk from start, ending where vii31_step
    gives None."""
    walk = [start]
    while (nxt := vii31_step(walk[-1])) is not None:
        walk.append(nxt)
    return walk


def brute_triples(max_x2: int, include_zero_legs: bool = False):
    """All (x0, x1, x2) with x0^2 + x1^2 = x2^2, x2 <= max_x2, legs >= lo."""
    lo = 0 if include_zero_legs else 1
    out = []
    for x0 in range(lo, max_x2 + 1):
        for x1 in range(lo, max_x2 + 1):
            s = x0 * x0 + x1 * x1
            x2 = math.isqrt(s)
            if x2 * x2 == s and x2 <= max_x2:
                out.append((x0, x1, x2))
    return out


def brute_primitive_triples(max_x2: int):
    return [
        t for t in brute_triples(max_x2)
        if math.gcd(math.gcd(t[0], t[1]), t[2]) == 1
    ]


def brute_two_square_solutions(max_x2: int, include_zero: bool = True):
    """All (x0, x1, x2) with x0^2 + 2*x1^2 = x2^2, x2 <= max_x2."""
    lo = 0 if include_zero else 1
    out = []
    for x2 in range(lo, max_x2 + 1):
        for x1 in range(lo, x2 + 1):
            rest = x2 * x2 - 2 * x1 * x1
            if rest < 0:
                break
            x0 = math.isqrt(rest)
            if x0 * x0 == rest:
                out.append((x0, x1, x2))
    return out


def is_perfect_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def cantor_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs with Cantor codes 0..n in code order, by walking the
    diagonals: (s, 0), (s - 1, 1), ..., (0, s), then (s + 1, 0)."""
    pairs = [(0, 0)]
    while len(pairs) <= n:
        a, b = pairs[-1]
        pairs.append((b + 1, 0) if a == 0 else (a - 1, b + 1))
    return pairs


@lru_cache(maxsize=None)
def brute_triple_codes(bound: int) -> tuple[int, ...]:
    """Every code v <= bound of a quadruple ((x0, x1), (x2, x3)) with
    x0, x1 >= 1 and x0^2 + x1^2 = x2^2, each code decoded through
    cantor_pairs."""
    pairs = cantor_pairs(bound)
    out = []
    for v, (left, right) in enumerate(pairs):
        x0, x1 = pairs[left]
        x2 = pairs[right][0]
        if x0 >= 1 and x1 >= 1 and x0 * x0 + x1 * x1 == x2 * x2:
            out.append(v)
    return tuple(out)


def _cantor_encode(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def _cantor_decode(v: int) -> tuple[int, int]:
    s = (math.isqrt(8 * v + 1) - 1) // 2
    b = v - s * (s + 1) // 2
    return s - b, b


def quad_code_is_counterexample(v: int) -> bool:
    """Whether the quadruple that v codes by nested Cantor pairing,
    ((x0, x1), (x2, x3)), has positive legs, x0^2 + x1^2 = x2^2 and
    x0*x1 = 2*x3^2."""
    left, right = _cantor_decode(v)
    x0, x1 = _cantor_decode(left)
    x2, x3 = _cantor_decode(right)
    return x0 >= 1 and x1 >= 1 and x0 * x0 + x1 * x1 == x2 * x2 and x0 * x1 == 2 * x3 * x3


@lru_cache(maxsize=None)
def left_code_triple_codes(bound: int) -> tuple[int, ...]:
    """The codes that brute_triple_codes lists, for bounds too large for it,
    increasing: every left code L = (x0, x1) with L(L + 1)/2 <= bound is
    decoded, and for each with a square sum of squares the right codes
    R = (x2, t) in increasing t while the code stays <= bound.  A code is
    at least L(L + 1)/2, so no other left code has one; that is
    O(sqrt(bound)) left codes."""
    codes = []
    left = 0
    while left * (left + 1) // 2 <= bound:
        x0, x1 = _cantor_decode(left)
        squares = x0 * x0 + x1 * x1
        x2 = math.isqrt(squares)
        if x0 and x1 and x2 * x2 == squares:
            t = 0
            while (v := _cantor_encode(left, _cantor_encode(x2, t))) <= bound:
                codes.append(v)
                t += 1
        left += 1
    return tuple(sorted(codes))


def brute_multiples_scan(p: int, q: int, bound_x2: int):
    """Every multiple d*(x0, x1, x2) with d*x2 <= bound_x2 of the triple with
    generators (p, q), legs sorted, whose leg product is twice a square, as
    (x0, x1, x2, x3) quadruples in increasing d: each multiple tested alone."""
    sols = []
    base = p * p + q * q
    for d in range(1, bound_x2 // base + 1):
        x0, x1 = sorted((2 * p * q * d, (p * p - q * q) * d))
        half = x0 * x1 // 2  # one leg is always even
        x3 = math.isqrt(half)
        if x3 * x3 == half:
            sols.append((x0, x1, base * d, x3))
    return sols


def square_generator_pairs(bound_x2: int) -> list[tuple[int, int]]:
    """The generator pairs p > q >= 1, coprime and of opposite parity, with
    p^2 + q^2 <= bound_x2 and both p and q perfect squares, in increasing
    (p, q): every p is walked, and only the square ones are searched for a
    square q."""
    out = []
    p = 2
    while p * p + 1 <= bound_x2:
        if is_perfect_square(p):
            for f in range(1, math.isqrt(p - 1) + 1):
                q = f * f
                if p * p + q * q > bound_x2:
                    break
                if (p + q) % 2 and math.gcd(p, q) == 1:
                    out.append((p, q))
        p += 1
    return out


def claim_ii_pairs(bound_x2: int) -> list[tuple[int, int]]:
    """The square generator pairs (p, q) whose sum p + q is a square too, in
    increasing (p, q)."""
    return [(p, q) for p, q in square_generator_pairs(bound_x2) if is_perfect_square(p + q)]


def naive_exhaustive_search(bound_x2: int, allow_zero: bool = False):
    """Every (x0, x1, x2, x3) with x0^2 + x1^2 = x2^2, x2 <= bound_x2 and
    x0*x1 = 2*x3^2, sorted, by a double loop over the legs; O(bound^2).

    Without allow_zero the legs are positive and x0 <= x1.  With allow_zero
    a leg may be 0, both leg orders are listed, and only coprime triples
    (plus the all-zero one) count.
    """
    results = set()
    lo = 0 if allow_zero else 1
    for x1 in range(lo, bound_x2 + 1):
        for x0 in range(lo, x1 + 1):
            s = x0 * x0 + x1 * x1
            x2 = math.isqrt(s)
            if x2 * x2 != s or x2 > bound_x2:
                continue
            prod = x0 * x1
            if prod % 2:
                continue
            x3 = math.isqrt(prod // 2)
            if 2 * x3 * x3 != prod:
                continue
            if allow_zero and math.gcd(math.gcd(x0, x1), x2) not in (0, 1):
                continue
            results.add((x0, x1, x2, x3))
            if allow_zero and x0 != x1:
                results.add((x1, x0, x2, x3))
    return sorted(results)


def primitive_triple_count(max_x2: int) -> int:
    """The number of primitive Pythagorean triples with positive legs and
    x2 <= max_x2, about max_x2 / (2*pi) (D. N. Lehmer, 1900).

    These are the coprime pairs p > q >= 1 of opposite parity with
    p^2 + q^2 <= max_x2.  A common divisor d of such a pair is odd, so a
    Moebius sum over odd d of opposite-parity lattice points counts them.
    """
    root = math.isqrt(max_x2)
    mu = [1] * (root + 1)
    composite = [False] * (root + 1)
    for d in range(2, root + 1):
        if not composite[d]:
            for k in range(d, root + 1, d):
                composite[k] = True
                mu[k] = -mu[k]
            for k in range(d * d, root + 1, d * d):
                mu[k] = 0

    def opposite_parity_points(m: int) -> int:
        # Pairs p > q >= 1 of opposite parity with p^2 + q^2 <= m: for each
        # q, the p in q+1, q+3, ... up to isqrt(m - q^2).
        total, q = 0, 1
        while q * q + (q + 1) ** 2 <= m:
            total += (math.isqrt(m - q * q) - q + 1) // 2
            q += 1
        return total

    return sum(mu[d] * opposite_parity_points(max_x2 // (d * d)) for d in range(1, root + 1, 2))
