"""Arithmetic-layer tests: divisibility order, primes, factorizations,
valuations, coprimality.  Frozen expected values were computed with
independent brute-force oracles (see oracles.py)."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descente import DomainError
from descente.core_arith import (
    PRIME_LIMIT,
    Factorization,
    common_prime_witness,
    coprime,
    divides,
    divides_via_valuations,
    euclid_lemma_side,
    factorize,
    gcd,
    is_prime,
    least_prime_divisor,
    split_valuation,
    valuation,
)
from descente.descent_engine import vii31_rd_instance
from descente.diophantine import (
    Generators,
    PythTriple,
    decompose_primitive_triple,
    decompose_primitive_two_square,
)
from descente.fermat import reduce_area_witness, reduce_triple_by_prime
from descente.proportions import (
    coprime_side_with_prime,
    split_coprime_double_square,
    split_coprime_square,
    split_sum_diff_square,
)

from .oracles import brute_divisors, brute_is_prime, sieve_is_prime


# ---------------------------------------------------------------------------
# divides


def test_divides_examples():
    assert divides(3, 12)
    assert not divides(5, 12)
    assert divides(7, 0)  # 0 is the maximum of the ordering
    assert divides(0, 0)
    assert not divides(0, 3)
    assert divides(1, 999)


def test_divides_rejects_negatives_and_non_ints():
    with pytest.raises(DomainError):
        divides(-1, 3)
    with pytest.raises(DomainError):
        divides(3, -1)
    with pytest.raises(DomainError):
        divides(True, 3)


def test_divides_is_partial_order_with_min_1_max_0():
    """Reflexive, antisymmetric, transitive; 1 bottom, 0 top; x, y <= 200."""
    n = 200
    divisors = {y: brute_divisors(y, n) for y in range(n + 1)}
    for x in range(n + 1):
        assert divides(x, x)
        assert divides(1, x)
        assert divides(x, 0)
    for y in range(n + 1):
        for x in divisors[y]:
            assert divides(x, y)
            if x != y:
                assert not divides(y, x) or y == 0
            # transitivity: divisors of x all divide y
            for w in brute_divisors(x, n):
                assert divides(w, y)
    # agreement with the oracle
    for x in range(n + 1):
        for y in range(n + 1):
            expected = (x in divisors[y]) or (y == 0) or (x != 0 and y % x == 0)
            assert divides(x, y) == expected


def test_divisibility_of_sums():
    """x | y0 implies (x | y1 iff x | y0 + y1), for x, y0, y1 <= 200."""
    for x in range(1, 201):
        for y0 in range(0, 201, x):
            for y1 in range(201):
                assert divides(x, y1) == divides(x, y0 + y1)


def test_divisibility_scaling():
    """(x = 0 or y | z) iff x*y | x*z, for x, y, z <= 100."""
    for x in range(101):
        for y in range(101):
            for z in range(0, 101, max(y, 1)) if y else range(101):
                lhs = x == 0 or divides(y, z)
                assert lhs == divides(x * y, x * z)
    # dense check on a smaller cube (above only samples z multiples of y)
    for x in range(31):
        for y in range(31):
            for z in range(31):
                assert (x == 0 or divides(y, z)) == divides(x * y, x * z)


def test_coprime_comparable_pairs_are_strict_or_units():
    """Coprime p >= q (q | p) forces p > q or p = q = 1, for p, q <= 200."""
    for q in range(1, 201):
        for p in range(q, 201, q):
            if coprime([p, q]):
                assert p > q or p == q == 1


# ---------------------------------------------------------------------------
# gcd / primes


def test_gcd_examples():
    assert gcd(12, 9) == 3
    assert gcd(0, 7) == 7
    assert gcd(7, 0) == 7
    with pytest.raises(DomainError):
        gcd(0, 0)


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(91)  # 7 * 13
    assert is_prime(97)


def test_is_prime_matches_oracle_up_to_2000():
    for x in range(2001):
        assert is_prime(x) == brute_is_prime(x), x


def test_sieve_oracle_matches_brute_oracle_up_to_2000():
    assert list(sieve_is_prime(2000)) == [brute_is_prime(x) for x in range(2001)]


def test_is_prime_matches_sieve_up_to_1e5():
    flags = sieve_is_prime(10**5)
    assert [x for x in range(10**5 + 1) if is_prime(x) != flags[x]] == []


@pytest.mark.parametrize(
    "n",
    [
        # the least strong pseudoprime to the first k primes, k = 1 .. 11
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
        # Carmichael numbers
        561,
        41041,
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_undecided_at_prime_limit():
    """PRIME_LIMIT is a strong pseudoprime to every base the test uses, so
    it must be refused, never reported prime."""
    with pytest.raises(DomainError):
        is_prime(PRIME_LIMIT)
    assert not is_prime(PRIME_LIMIT + 1)  # even: decided above the limit too


def test_least_prime_divisor():
    assert least_prime_divisor(15) == 3
    assert least_prime_divisor(13) == 13
    assert least_prime_divisor(2**5) == 2
    for x in (0, 1):
        with pytest.raises(DomainError):
            least_prime_divisor(x)
    for x in range(2, 1000):
        expected = next(d for d in range(2, x + 1) if x % d == 0 and brute_is_prime(d))
        assert least_prime_divisor(x) == expected


def test_proper_divisor_step():
    # The VII.31 step that `descent vii31` runs divides out the largest prime.
    (step,) = vii31_rd_instance().steps
    assert step(1) is None
    assert step(13) is None
    assert step(15) == 3  # divide out 5
    assert step(360) == 72  # divide out 5
    for x in range(2, 500):
        u = step(x)
        if brute_is_prime(x):
            assert u is None
        else:
            assert u is not None and 1 < u < x and x % u == 0


# ---------------------------------------------------------------------------
# factorization / valuation


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(24).factors == ((2, 3), (3, 1))
    assert factorize(97).factors == ((97, 1),)
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_fermat_number():
    """2^(2^5) + 1 = 641 * 6700417, the classical counterexample to the
    primality of the fifth term of the doubly exponential sequence."""
    f5 = 2**32 + 1
    assert factorize(f5).factors == ((641, 1), (6700417, 1))
    assert divides(641, f5)
    assert not is_prime(f5)
    assert is_prime(641) and is_prime(6700417)
    assert 641 == 2**7 * 5 + 1


def test_factorization_value_round_trip():
    for x in range(1, 2000):
        f = factorize(x)
        assert math.prod(p**e for p, e in f.factors) == x
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(brute_is_prime(p) for p in primes)


PRIMES_BELOW_1E6 = [x for x, prime in enumerate(sieve_is_prime(10**6)) if prime]


@given(st.sampled_from(PRIMES_BELOW_1E6), st.sampled_from(PRIMES_BELOW_1E6))
def test_factorize_semiprime(p, q):
    primes = sorted((p, q))
    expected = ((p, 2),) if p == q else tuple((r, 1) for r in primes)
    assert factorize(p * q).factors == expected
    assert least_prime_divisor(p * q) == primes[0]


def test_balanced_semiprime_near_1e18():
    x = 1000000007 * 1000000009
    assert factorize(x).factors == ((1000000007, 1), (1000000009, 1))
    assert least_prime_divisor(x) == 1000000007


def test_least_prime_divisor_does_not_factor_the_cofactor():
    """2 * P^2 with P prime and P^2 beyond PRIME_LIMIT cannot be factored,
    but trial division finds 2 first, and that is returned at once."""
    x = 2 * 10000000000037**2
    assert 10000000000037**2 >= PRIME_LIMIT
    with pytest.raises(DomainError):
        factorize(x)
    assert least_prime_divisor(x) == 2
    assert common_prime_witness([3 * x, 4 * x, 5 * x]) == 2


def test_factorize_beyond_prime_limit():
    # Small factors are still found; a large cofactor is refused.
    assert factorize(2**100 * 3**5).factors == ((2, 100), (3, 5))
    for x in (PRIME_LIMIT, 10**37 + 57):
        with pytest.raises(DomainError):
            factorize(x)
        with pytest.raises(DomainError):
            vii31_rd_instance().steps[0](x)


def test_factorize_does_not_prove_its_primes_again(monkeypatch):
    import descente.core_arith as core_arith

    calls = []
    real = core_arith.is_prime
    monkeypatch.setattr(core_arith, "is_prime", lambda p: calls.append(p) or real(p))
    for n in range(2, 501):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        assert f == core_arith.Factorization(f.factors)
    calls.clear()
    # Trial division proves the factors below 1024**2 without is_prime;
    # rho certifies each large factor once.
    assert factorize(2 * 3 * 1009).factors == ((2, 1), (3, 1), (1009, 1))
    assert calls == []
    big = 1_000_003 * 1_000_033
    assert factorize(big).factors == ((1_000_003, 1), (1_000_033, 1))
    assert sorted(calls) == [1_000_003, 1_000_033, big]


def test_factorization_validation():
    with pytest.raises(DomainError):
        Factorization(((3, 1), (2, 1)))  # out of order
    with pytest.raises(DomainError):
        Factorization(((2, 0),))  # non-positive exponent
    with pytest.raises(DomainError):
        Factorization(((4, 1),))  # not prime


def test_valuation():
    assert valuation(2, 24) == 3
    assert valuation(3, 1) == 0
    assert valuation(5, 50) == 2
    with pytest.raises(DomainError):
        valuation(4, 10)
    with pytest.raises(DomainError):
        valuation(2, 0)


def test_split_valuation_examples():
    assert split_valuation(2, 3, 4, 6) == (2, 1)
    assert split_valuation(7, 0, 3, 5) == (0, 0)
    assert split_valuation(3, 2, 9, 5) == (2, 0)
    with pytest.raises(DomainError):
        split_valuation(2, 3, 0, 6)
    with pytest.raises(DomainError):
        split_valuation(2, 5, 4, 6)  # 2^5 does not divide 24
    with pytest.raises(DomainError, match="4 is not prime"):
        split_valuation(4, 1, 4, 6)


def test_split_valuation_postconditions():
    """n0 + n1 = m, p^n0 | x0, p^n1 | x1; all p in {2,3,5}, x0, x1 <= 100."""
    for p in (2, 3, 5):
        for x0 in range(1, 101):
            for x1 in range(1, 101):
                top = valuation(p, x0 * x1)
                for m in range(top + 1):
                    n0, n1 = split_valuation(p, m, x0, x1)
                    assert n0 + n1 == m
                    assert x0 % p**n0 == 0
                    assert x1 % p**n1 == 0
                    assert n0 == min(m, valuation(p, x0))


# ---------------------------------------------------------------------------
# coprimality


def test_coprime_examples():
    assert coprime([9, 16])
    assert coprime([1, 12345])
    assert coprime([6, 10, 15])  # pairwise non-coprime, jointly coprime
    assert not coprime([6, 10])
    assert not coprime([0, 0])
    assert coprime([0, 1])
    with pytest.raises(DomainError):
        coprime([])


def test_common_prime_witness():
    assert common_prime_witness([6, 10]) == 2
    assert common_prime_witness([9, 16]) is None
    assert common_prime_witness([0, 0]) == 2
    assert common_prime_witness([15, 25]) == 5
    with pytest.raises(DomainError):
        common_prime_witness([])
    for a in range(1, 200):
        for b in range(1, 200):
            w = common_prime_witness([a, b])
            if coprime([a, b]):
                assert w is None
            else:
                assert w is not None and brute_is_prime(w)
                assert a % w == 0 and b % w == 0


def test_euclid_lemma_side():
    assert euclid_lemma_side(3, 6, 5) == 1
    assert euclid_lemma_side(5, 6, 5) == 2
    assert euclid_lemma_side(2, 2, 2) == 1  # canonical tie-break
    with pytest.raises(DomainError):
        euclid_lemma_side(3, 5, 5)
    with pytest.raises(DomainError):
        euclid_lemma_side(4, 4, 4)


def test_euclid_lemma_exhaustive():
    """For prime p | x1*x2, the returned side is divisible by p."""
    for p in (2, 3, 5, 7, 11, 13):
        for x1 in range(101):
            for x2 in range(101):
                if (x1 * x2) % p == 0:
                    side = euclid_lemma_side(p, x1, x2)
                    assert (x1, x2)[side - 1] % p == 0


def test_coprime_closure_under_restriction():
    """x | y with coprime(y, z) forces coprime(x, z); x, y, z <= 150."""
    for y in range(1, 151):
        for x in brute_divisors(y, 150):
            if x == 0:
                continue
            for z in range(151):
                if coprime([y, z]):
                    assert coprime([x, z])


def test_coprime_closure_products_and_powers():
    """Coprime pairs below 100 stay coprime under products and powers <= 4."""
    pairs = [(a, b) for a in range(1, 100) for b in range(1, 100) if math.gcd(a, b) == 1]
    for a, b in pairs:
        assert coprime([a * a, b])
        assert coprime([a, b * b])
    for a, b in pairs[::5]:  # thinned for runtime; still ~1200 pairs
        for ea in range(1, 5):
            for eb in range(1, 5):
                assert coprime([a**ea, b**eb])


def test_prime_not_dividing_is_coprime():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        for x in range(201):
            if x % p:
                assert coprime([p, x])


def test_square_divisibility_equivalence():
    """x | y iff x^2 | y^2, for x, y <= 200."""
    for x in range(201):
        for y in range(201):
            assert divides(x, y) == divides(x * x, y * y)


def test_divides_via_valuations_agrees():
    assert divides_via_valuations(12, 36)
    assert divides_via_valuations(1, 7)
    assert not divides_via_valuations(8, 12)
    with pytest.raises(DomainError):
        divides_via_valuations(0, 5)
    for x in range(1, 501):
        for y in range(1, 501):
            assert divides_via_valuations(x, y) == divides(x, y)


# ---------------------------------------------------------------------------
# the prime, coprime and primitivity guards, at every use


@pytest.mark.parametrize(
    "function, args, message",
    [
        (Factorization, (((4, 1),),), "4 is not prime"),
        (valuation, (4, 8), "4 is not prime"),
        (split_valuation, (4, 1, 2, 2), "4 is not prime"),
        (euclid_lemma_side, (4, 2, 2), "4 is not prime"),
        (coprime_side_with_prime, (4, 1, 1), "4 is not prime"),
        (split_coprime_double_square, (4, 1, 1, 2), "4 is not prime"),
        (reduce_triple_by_prime, (PythTriple(6, 8, 10), 4), "4 is not prime"),
        (reduce_area_witness, (8, 4), "4 is not prime"),
        (Generators, (0, 4, 2), "4 and 2 are not coprime"),
        (split_coprime_square, (4, 6, 0), "4 and 6 are not coprime"),
        (coprime_side_with_prime, (2, 4, 6), "4 and 6 are not coprime"),
        (split_coprime_double_square, (2, 2, 4, 4), "2 and 4 are not coprime"),
        (split_sum_diff_square, (6, 4, 2), "6 and 4 are not coprime"),
        (decompose_primitive_triple, (PythTriple(6, 8, 10),),
         "(6, 8, 10) shares the prime factor 2"),
        (decompose_primitive_two_square, (3, 6, 9), "(3, 6, 9) shares the prime factor 3"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_guard_messages(function, args, message):
    """Each prime, coprime and primitivity guard's exact message, on an input
    that passes every check before it."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        function(*args)
