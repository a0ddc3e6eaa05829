"""The vacuity certificate: no Pythagorean triangle with x2 <= N has a leg
product twice a square, checked over the generator pairs of Claim I.

Every primitive triple with positive legs and x2 <= N has generators
p > q >= 1, coprime and of opposite parity, with p^2 + q^2 <= N, and half
its leg product is pq(p^2 - q^2).  By Claim I, proved in search, that is a
square only if p = e^2 and q = f^2.  So search gives the exact test of
scan_generator_block to the pairs (e^2, f^2) with e^4 + f^4 <= N alone:
about sqrt(N)/5.3 pairs instead of about N/2pi.

This module imports nothing from the package but its errors, so that
`descente search` loads nothing else.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext

from .errors import DomainError

# The largest bound search accepts.  Its work grows as sqrt(bound): 10^16
# tests about 1.9e7 pairs in 10-25 s, and 10^20 would take 100 times as long.
MAX_BOUND = 10**16


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
    """The largest e of an `erow e bound done` mark with bound >= bound_x2,
    or 0 if there is none.  Lines of any other shape, lines whose numbers do
    not parse, and bytes that are not UTF-8 are ignored."""
    last = 0
    if os.path.exists(cache_path):
        with open(cache_path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) != 4 or parts[0] != "erow" or parts[3] != "done":
                    continue
                try:
                    e, bound = int(parts[1]), int(parts[2])
                except ValueError:
                    continue
                if bound >= bound_x2:
                    last = max(last, e)
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
    the exact test finds among the pairs of Claim I, with all their
    multiples.  By the theorem the list is empty.

    Claim I: if p > q >= 1 are coprime and of opposite parity, and
    pq(p^2 - q^2) is a square, then p = e^2 and q = f^2 for coprime e > f >= 1
    of opposite parity.  Proof: a prime dividing two of p, q, p - q, p + q
    divides p and q, or else it divides 2p and 2q (from p - q and p + q) and
    is 2; neither can happen, as p and q are coprime and p + q is odd.  So
    the four are pairwise coprime, and since their product pq(p^2 - q^2) is a
    square, each prime's exponent lies in one factor and is even there: each
    factor is a square.  Then e and f are coprime because p and q are, and
    of opposite parity because e^2 = e and f^2 = f (mod 2).  Conversely every
    such (e, f) gives the generator pair (e^2, f^2), with
    p^2 + q^2 = e^4 + f^4.  So the loop below tests exactly the generator
    pairs with x2 <= bound_x2 whose half leg product can be a square; by
    the lemma of scan_generator_block, no multiple of any other pair's
    triple is a solution either.

    With cache_path, a mark `erow e bound done` follows each e >= 2 with
    e^4 < bound: every pair with e' <= e and e'^4 + f^4 <= bound was
    scanned without a solution.  The run starts at the row after the largest
    e marked at a bound >= bound_x2.  Once a solution is found no more marks
    are written, so a resumed run scans and reports it again.

    A bound below 1 or above MAX_BOUND raises DomainError before the cache
    is opened.
    """
    if bound_x2 < 1:
        raise DomainError("bound must be >= 1")
    if bound_x2 > MAX_BOUND:
        raise DomainError(f"bound must be <= {MAX_BOUND}")
    e = max(_load_cache(cache_path, bound_x2) if cache_path else 0, 1) + 1
    found: list[tuple[int, int, int, int]] = []
    # Line buffering hands each done mark to the OS as soon as it is written.
    with (
        open(cache_path, "a", encoding="utf-8", buffering=1) if cache_path else nullcontext()
    ) as cache:
        if cache and _ends_mid_line(cache_path):
            cache.write("\n")  # so a cut-off last line cannot merge with a new mark
        while e**4 < bound_x2:
            # isqrt(isqrt(n)) is the integer fourth root of n.
            fmax = min(e - 1, math.isqrt(math.isqrt(bound_x2 - e**4)))
            for f in range(1 + e % 2, fmax + 1, 2):  # f of the other parity
                if math.gcd(e, f) == 1:
                    found.extend(scan_generator_block(e * e, f * f, bound_x2))
            if cache and not found:
                cache.write(f"erow {e} {bound_x2} done\n")
            e += 1
    return sorted(set(found))
