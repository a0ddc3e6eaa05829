"""The vacuity certificate: no Pythagorean triangle with x2 <= N has a leg
product twice a square, checked by a row sieve over the generator pairs.

Every primitive triple with positive legs and x2 <= N has generators
p > q >= 1, coprime and of opposite parity, with p^2 + q^2 <= N.  The row of
a p holds its pairs as the bits of one Python int, q at bit q - q0 of a block
that starts at q0.  The sieve keeps the q of opposite parity and clears the
multiples of each odd prime factor of p: the bits left are exactly the
generator pairs of the row.  It then ANDs in one residue mask per modulus m
of MODULI, which keeps the q for which half = pq(p^2 - q^2) is a square mod m
(a necessary condition for half to be a square).  Only the surviving pairs
get the exact test of scan_generator_block.

This module imports nothing from the package but its errors, so that
`descente search` loads nothing else.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext

from .errors import DomainError

# The square test of Cohen, A Course in Computational Algebraic Number
# Theory, section 1.7 (64, 63, 65, 11), and four more primes; at 2.5e5 the
# masks leave 69 of 39,788 pairs for the exact test.
MODULI = (64, 63, 65, 11, 17, 19, 23)
# Coprime factors of the composite moduli, whose masks _masks builds from
# the masks of the factors: 324 residue evaluations instead of 8,194.
CRT_SPLITS = {63: (7, 9), 65: (5, 13)}
# The most bits a row handles at once; longer rows are sieved block by
# block, so memory stays bounded at any bound.
BLOCK_BITS = 1 << 16


def _residue_masks(m: int) -> list[int]:
    """mask[a] has bit b set, for a, b < m, iff a*b*(a^2 - b^2) is a square
    mod m."""
    squares = {x * x % m for x in range(m)}
    bits = [1 << b for b in range(m)]
    return [
        sum([bits[b] for b in range(m) if a * b * (a * a - b * b) % m in squares])
        for a in range(m)
    ]


def _masks(m: int) -> list[int]:
    """_residue_masks(m).  For m in CRT_SPLITS, with coprime factors m1, m2,
    it is built from the masks mod m1 and mod m2: by the Chinese remainder
    theorem a residue is a square mod m iff it is one mod m1 and mod m2."""
    if m not in CRT_SPLITS:
        return _residue_masks(m)
    m1, m2 = CRT_SPLITS[m]
    low = (1 << m) - 1
    t1 = [_tile(mask, m1, m) & low for mask in _residue_masks(m1)]
    t2 = [_tile(mask, m2, m) & low for mask in _residue_masks(m2)]
    return [t1[a % m1] & t2[a % m2] for a in range(m)]


def _tile(pattern: int, period: int, width: int) -> int:
    """pattern, whose bits lie below period, repeated every period bits over
    at least width bits."""
    while period < width:
        pattern |= pattern << period
        period *= 2
    return pattern


def _residue_tiles(bound_x2: int) -> list[tuple[int, list[int]]]:
    """(m, masks) for each m of MODULI, each mask of _masks(m) tiled
    over m more bits than the widest block at bound_x2, so that it still
    covers the block when shifted by q0 % m."""
    # No row is wider than isqrt(bound_x2 // 2) + 1 bits.
    span = min(BLOCK_BITS, math.isqrt(bound_x2 // 2) + 1)
    return [(m, [_tile(mask, m, span + m) for mask in _masks(m)]) for m in MODULI]


def _odd_prime_factors(n: int, primes: list[int]) -> list[int]:
    """The distinct odd primes dividing n, increasing.  primes must hold
    every odd prime up to isqrt(n), in increasing order."""
    factors = []
    n >>= (n & -n).bit_length() - 1  # drop the factors 2
    for r in primes:
        if r * r > n:
            break
        if n % r == 0:
            factors.append(r)
            while n % r == 0:
                n //= r
    if n > 1:
        factors.append(n)
    return factors


def _rows(bound_x2: int, first: int):
    """Yield (p, qmax, odd prime factors of p) for every p >= first that has
    a generator pair, in increasing p; the pairs of the row have
    q <= qmax = min(p - 1, isqrt(bound_x2 - p^2)).  A row's least q (1 for
    even p, 2 for odd p) is coprime to p, so every yielded row has a pair."""
    primes: list[int] = []
    checked = 2  # primes holds every odd prime up to checked
    p = max(first, 2)
    while p * p + 1 <= bound_x2:
        root = math.isqrt(p)
        while checked < root:
            checked += 1
            if checked % 2 and _odd_prime_factors(checked, primes) == [checked]:
                primes.append(checked)
        qmax = min(p - 1, math.isqrt(bound_x2 - p * p))
        if qmax >= 1 + p % 2:
            yield p, qmax, _odd_prime_factors(p, primes)
        p += 1


def _coprime_bits(p: int, factors: list[int], q0: int, width: int) -> int:
    """Bit i is set, for i < width, iff q = q0 + i has the parity opposite to
    p and is divisible by none of factors, the odd prime factors of p."""
    # 0x55 sets the even bits and 0xaa the odd ones; q0 + i must be odd for
    # even p and even for odd p.
    parity = b"\xaa" if (p + q0) % 2 == 0 else b"\x55"
    bits = int.from_bytes(parity * (width // 8 + 1), "little") & ((1 << width) - 1)
    for r in factors:
        first = -q0 % r  # bit of the least multiple of r at or above q0
        if first < width:
            bits &= ~_tile(1 << first, r, width)
    return bits


def _multiples(
    primitive: tuple[int, int, int, int], bound_x2: int
) -> list[tuple[int, int, int, int]]:
    """Every multiple (d*x0, d*x1, d*x2, d*x3), d >= 1, with d*x2 <= bound_x2."""
    x0, x1, x2, x3 = primitive
    return [(d * x0, d * x1, d * x2, d * x3) for d in range(1, bound_x2 // x2 + 1)]


def scan_generator_block(p: int, q: int, bound_x2: int) -> list[tuple[int, int, int, int]]:
    """Solutions among all multiples of the primitive triple of (p, q).

    The primitive triple has legs a, b = 2pq, p^2 - q^2 and hypotenuse
    p^2 + q^2, so a*b/2 = pq(p^2 - q^2).  Lemma: for d >= 1, d^2*a*b is twice
    a square exactly when a*b is.  Proof: if d^2*a*b = 2*x3^2, each prime's
    exponent gives 2*v(d) <= v(2) + 2*v(x3), so d | x3 and a*b = 2*(x3/d)^2;
    the converse multiplies by d^2.  So one isqrt decides the whole block, and
    multiples are emitted only on a hit.
    """
    half = p * q * (p * p - q * q)
    x3 = math.isqrt(half)
    if x3 * x3 != half:
        return []
    x0, x1 = sorted((2 * p * q, p * p - q * q))
    return _multiples((x0, x1, p * p + q * q, x3), bound_x2)


def _load_cache(cache_path: str, bound_x2: int) -> int:
    """The largest p of a `row p bound done` mark with bound >= bound_x2, or
    0 if there is none.  Lines of any other shape, lines whose numbers do not
    parse, and bytes that are not UTF-8 are ignored."""
    last = 0
    if os.path.exists(cache_path):
        with open(cache_path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) != 4 or parts[0] != "row" or parts[3] != "done":
                    continue
                try:
                    p, bound = int(parts[1]), int(parts[2])
                except ValueError:
                    continue
                if bound >= bound_x2:
                    last = max(last, p)
    return last


def _ends_mid_line(path: str) -> bool:
    """True iff the file at path is non-empty and does not end in a newline."""
    with open(path, "rb") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return False
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) != b"\n"


def search(
    bound_x2: int, cache_path: str | None = None
) -> list[tuple[int, int, int, int]]:
    """Every (x0, x1, x2, x3) with 1 <= x0 <= x1, x0^2 + x1^2 = x2^2,
    x2 <= bound_x2 and x0*x1 = 2*x3^2, sorted: the primitive solutions that
    the row sieve finds, with all their multiples.  By the theorem the list
    is empty.

    With cache_path, a mark `row p bound done` follows each generator row p:
    every pair with p' <= p and p'^2 + q^2 <= bound was scanned without a
    solution.  The run starts at the row after the largest p marked at a
    bound >= bound_x2.  Once a solution is found no more marks are written,
    so a resumed run scans and reports it again.
    """
    if bound_x2 < 1:
        raise DomainError("bound must be >= 1")
    last = _load_cache(cache_path, bound_x2) if cache_path else 0
    found: list[tuple[int, int, int, int]] = []
    tiles = None
    # Line buffering hands each done mark to the OS as soon as it is written.
    with (
        open(cache_path, "a", encoding="utf-8", buffering=1) if cache_path else nullcontext()
    ) as cache:
        if cache and _ends_mid_line(cache_path):
            cache.write("\n")  # so a cut-off last line cannot merge with a new mark
        for p, qmax, factors in _rows(bound_x2, last + 1):
            if tiles is None:  # built at the first row, so a warm run skips it
                tiles = _residue_tiles(bound_x2)
            for q0 in range(0, qmax + 1, BLOCK_BITS):
                bits = _coprime_bits(p, factors, q0, min(BLOCK_BITS, qmax + 1 - q0))
                for m, masks in tiles:
                    bits &= masks[p % m] >> q0 % m
                while bits:  # the survivors, largest q first
                    i = bits.bit_length() - 1
                    bits ^= 1 << i
                    found.extend(scan_generator_block(p, q0 + i, bound_x2))
            if cache and not found:
                cache.write(f"row {p} {bound_x2} done\n")
    return sorted(set(found))
