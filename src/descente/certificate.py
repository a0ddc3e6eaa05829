"""The vacuity certificate: no Pythagorean triangle with x2 <= N has a leg
product twice a square, checked over the generator pairs of Claims I and II.

Every primitive triple with positive legs and x2 <= N has generators
p > q >= 1, coprime and of opposite parity, with p^2 + q^2 <= N, and half
its leg product is pq(p^2 - q^2).  By Claims I and II, proved in search,
that is a square only if p = e^2 and q = f^2 where e and f are the legs of
a primitive triple.  So search gives the exact test of scan_generator_block
to those pairs (e^2, f^2) with e^4 + f^4 <= N alone: about N^(1/4)/5.8
pairs instead of about N/2pi.

This module imports nothing from the package but the package module's
errors and exit codes, so that `descente search` loads nothing else.
It also holds that command's body, cmd_search, which returns its rows.
"""

from __future__ import annotations

import math
import os
import time

from . import EXIT_COUNTEREXAMPLE, EXIT_OK, DomainError, UsageError

# The largest bound search accepts.  Its work grows as sqrt(sqrt(bound)):
# 10^28 tests 1,725,872 pairs in about 2.7 s as a subprocess (2.4-3.0 s over
# 5 spawns without a bytecode cache), with a peak RSS of 14 MB (Python 3.11,
# 2 CPUs), and 10^32 would take over 10 times as long.
MAX_BOUND = 10**28


def primitive_triples(max_x2: int):
    """Yield (x0, x1, x2, p, q) for every primitive triple with positive legs
    x0 < x1 and hypotenuse x2 <= max_x2, where p > q >= 1 are its generators:
    coprime, of opposite parity, with legs 2pq and p^2 - q^2 and hypotenuse
    p^2 + q^2.  The pairs come in increasing p, then increasing q.
    """
    p = 2
    while p * p + 1 <= max_x2:
        for q in range(1 if p % 2 == 0 else 2, min(p, math.isqrt(max_x2 - p * p) + 1), 2):
            if math.gcd(p, q) == 1:
                a, b, c = 2 * p * q, p * p - q * q, p * p + q * q
                yield (a, b, c, p, q) if a < b else (b, a, c, p, q)
        p += 1


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
    x2 = p * p + q * q
    # A loop, not a comprehension: under Python 3.11 a comprehension makes
    # x0..x3 closure cells, allocated on every call, misses included, and
    # that made search(10**24) about 5% slower (in-process, 2 CPUs).
    found = []
    for d in range(1, bound_x2 // x2 + 1):
        found.append((d * x0, d * x1, d * x2, d * x3))
    return found


def _load_cache(cache_path: str) -> int:
    """The largest N of an `upto N` mark in the file at cache_path, or 0 if
    there is none.  N is ASCII digits, as search writes it.  Lines of any
    other shape, numbers too long for int() to convert, and bytes that are
    not UTF-8 are ignored."""
    last = 0
    if os.path.exists(cache_path):
        with open(cache_path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                # Exactly `upto N`: `upto N ` (a cut-off `upto N done`) is none.
                tag, _, number = line.rstrip("\n").partition(" ")
                if tag == "upto" and number.isascii() and number.isdigit():
                    try:
                        last = max(last, int(number))
                    except ValueError:  # more digits than int() converts
                        pass
    return last


def search(
    bound_x2: int, cache_path: str | None = None
) -> list[tuple[int, int, int, int]]:
    """Every (x0, x1, x2, x3) with 1 <= x0 <= x1, x0^2 + x1^2 = x2^2,
    x2 <= bound_x2 and x0*x1 = 2*x3^2, sorted: the primitive solutions that
    the exact test finds among the pairs of Claims I and II, with all their
    multiples.  By the theorem the list is empty.

    Claim I: if p > q >= 1 are coprime and of opposite parity, and
    pq(p^2 - q^2) is a square, then p = e^2 and q = f^2 for coprime e > f >= 1
    of opposite parity, and e^4 - f^4 = p^2 - q^2 is a square.  Proof: a
    prime dividing two of p, q, p - q, p + q divides p and q, or else it
    divides 2p and 2q (from p - q and p + q) and is 2; neither can happen, as
    p and q are coprime and p + q is odd.  So the four are pairwise coprime,
    and since their product pq(p^2 - q^2) is a square, each prime's exponent
    lies in one factor and is even there: each factor is a square.  Then e
    and f are coprime because p and q are, and of opposite parity because
    e^2 = e and f^2 = f (mod 2).

    Claim II: if e > f >= 1 are coprime and of opposite parity, and
    e^4 - f^4 is a square, then e^2 + f^2 and e^2 - f^2 are squares.  Proof:
    e^4 - f^4 = (e^2 + f^2)(e^2 - f^2), and both factors are odd.  A prime
    dividing both divides their sum 2e^2 and difference 2f^2, so, being odd,
    it divides e and f; so the factors are coprime, and as their product is
    a square, each of them is one.  So e^2 + f^2 = g^2: e and f are the legs
    of a primitive triple, whose generators (r, s) give the legs 2rs and
    r^2 - s^2 and the hypotenuse g = r^2 + s^2, with
    g^4 = (e^2 + f^2)^2 <= 2(e^4 + f^4).

    So the loop below tests every generator pair with x2 <= bound_x2 whose
    half leg product can be a square: (e^2, f^2) for the legs e > f of each
    primitive triple with hypotenuse at most (2*bound_x2)^(1/4) and
    e^4 + f^4 <= bound_x2.  By the lemma of scan_generator_block, no multiple
    of any other pair's triple is a solution either.  Claim III, the descent
    step that makes a smaller solution from (r, s), is not trusted: it would
    empty the pair set by induction, and a certificate that assumed it
    would certify nothing.

    With cache_path, a run that finds nothing appends the mark `upto N`,
    N = bound_x2: no solution has x2 <= N.  A run whose file holds a mark
    >= bound_x2 returns [] and tests no pair.  A run that finds a solution
    writes no mark, so a resumed run finds and reports it again.

    A bound below 1 or above MAX_BOUND raises DomainError before the cache
    is opened.  A cache_path that cannot be appended to raises its OSError
    before any pair is tested.
    """
    if bound_x2 < 1:
        raise DomainError("bound must be >= 1")
    if bound_x2 > MAX_BOUND:
        raise DomainError(f"bound must be <= {MAX_BOUND}")
    if cache_path is not None:
        if _load_cache(cache_path) >= bound_x2:
            return []
        # Fail now, not after the search, if the mark could not be appended;
        # a file made only to find that out goes again, so that a run that
        # finds a solution writes no file.
        existed = os.path.exists(cache_path)
        with open(cache_path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(cache_path)
    found: list[tuple[int, int, int, int]] = []
    # isqrt(isqrt(n)) is the integer fourth root of n.
    for f, e, _, _, _ in primitive_triples(math.isqrt(math.isqrt(2 * bound_x2))):
        p, q = e * e, f * f
        if p * p + q * q <= bound_x2:
            found.extend(scan_generator_block(p, q, bound_x2))
    if cache_path is not None and not found:
        with open(cache_path, "a+b") as cache:
            # A cut-off last line must not merge with the new mark.
            cut = False
            if cache.seek(0, os.SEEK_END):
                cache.seek(-1, os.SEEK_END)
                cut = cache.read(1) != b"\n"
            cache.write(b"\n" * cut + b"upto %d\n" % bound_x2)
    # No tuple repeats: distinct pairs have distinct primitive triples, and
    # the multiples of distinct primitive triples are disjoint.
    return sorted(found)


# ---------------------------------------------------------------------------
# the search command


def cmd_search(bound: int, cache_path: str | None) -> tuple:
    # The command states search's own limits as usage errors, before the
    # cache is touched, as triples and check state theirs.
    if bound < 1:
        raise UsageError("bound must be >= 1")
    if bound > MAX_BOUND:
        raise UsageError(f"bound must be <= {MAX_BOUND}")
    start = time.monotonic()
    found = search(bound, cache_path)
    elapsed = round(time.monotonic() - start, 3)
    rows = [(f"counterexample: ({x0}, {x1}, {x2}, {x3})",
             {"record": "solution", "x0": x0, "x1": x1, "x2": x2, "x3": x3})
            for x0, x1, x2, x3 in found]
    rows.append((f"bound {bound}: {len(found)} counterexample(s) in {elapsed}s",
                 {"record": "footer", "bound": bound, "count": len(found), "elapsed": elapsed}))
    return EXIT_COUNTEREXAMPLE if found else EXIT_OK, rows
