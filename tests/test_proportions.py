"""Continued proportions, lowest terms, and the coprime square-splitting
lemmas that drive the square-area descent."""

import math

import pytest

from descente import DomainError
from descente.core_arith import coprime
from descente.proportions import (
    ContinuedProportion,
    NormalForm,
    coprime_side_with_prime,
    exact_sqrt,
    lowest_terms,
    normal_form,
    scale_between,
    split_coprime_double_square,
    split_coprime_square,
    split_sum_diff_square,
)

from .oracles import is_perfect_square


# ---------------------------------------------------------------------------
# exact_sqrt


def test_exact_sqrt():
    assert exact_sqrt(0) == 0
    assert exact_sqrt(1) == 1
    assert exact_sqrt(144) == 12
    assert exact_sqrt(2) is None
    for n in range(5000):
        r = exact_sqrt(n)
        assert (r is not None) == is_perfect_square(n)
        if r is not None:
            assert r * r == n


# ---------------------------------------------------------------------------
# ContinuedProportion / NormalForm


def test_continued_proportion_validation():
    ContinuedProportion((1, 2))  # length 2: no interior constraint
    ContinuedProportion((4, 6, 9))
    ContinuedProportion((8, 12, 18, 27))
    with pytest.raises(DomainError):
        ContinuedProportion((4,))
    with pytest.raises(DomainError):
        ContinuedProportion((4, 0, 9))
    with pytest.raises(DomainError):
        ContinuedProportion((4, 6, 10))


def test_power_form_from_the_unit():
    """A proportion starting at 1 is the powers of its second term, so the
    third term is a square, the fourth a cube, the seventh both."""
    for base in range(1, 21):
        for length in range(2, 9):
            terms = tuple(base**i for i in range(length))
            xs = ContinuedProportion(terms)
            for i in range(length):
                assert xs[i] == xs[1] ** i
            if length > 2:
                assert is_perfect_square(xs[2])
            if length > 3:
                assert xs[3] == base**3  # a cube
            if length > 6:
                assert exact_sqrt(xs[6]) == base**3  # both a square
                assert (base**2) ** 3 == xs[6]  # ... and a cube


def test_lowest_terms():
    assert lowest_terms(12, 9) == (4, 3, 3)
    assert lowest_terms(5, 7) == (5, 7, 1)
    assert lowest_terms(100, 10) == (10, 1, 10)
    with pytest.raises(DomainError):
        lowest_terms(0, 5)
    for x0 in range(1, 200):
        for x1 in range(1, 200):
            y0, y1, k = lowest_terms(x0, x1)
            assert coprime([y0, y1])
            assert k * y0 == x0 and k * y1 == x1
            # minimality: any y0' with x0*y1' == y0'*x1 is a multiple of y0
            assert x0 % y0 == 0 and x1 % y1 == 0


def test_lowest_terms_minimality_biconditional():
    """y0:y1 is the minimal pair in the ratio x0:x1: every (z0, z1) with
    x0*z1 == z0*x1 is a common multiple of (y0, y1)."""
    for x0 in range(1, 60):
        for x1 in range(1, 60):
            y0, y1, _ = lowest_terms(x0, x1)
            for z0 in range(1, 61):
                if (z0 * x1) % x0:
                    continue
                z1 = z0 * x1 // x0
                assert z0 % y0 == 0 and z1 % y1 == 0
                assert z0 // y0 == z1 // y1


def test_scale_between():
    assert scale_between(ContinuedProportion((1, 2, 4)), ContinuedProportion((3, 6, 12))) == 3
    assert scale_between(ContinuedProportion((2, 6, 18)), ContinuedProportion((2, 6, 18))) == 1
    assert scale_between(ContinuedProportion((1, 3, 9)), ContinuedProportion((2, 6, 18))) == 2
    with pytest.raises(DomainError):
        scale_between(ContinuedProportion((1, 2, 4)), ContinuedProportion((1, 3, 9)))
    with pytest.raises(DomainError):
        scale_between(ContinuedProportion((1, 2)), ContinuedProportion((1, 2, 4)))
    with pytest.raises(DomainError):  # shared ratio but no uniform scale
        scale_between(ContinuedProportion((2, 4, 8)), ContinuedProportion((3, 6, 12)))


def test_normal_form_examples():
    assert normal_form(ContinuedProportion((4, 6, 9))) == NormalForm(k=1, y=2, z=3, n=1)
    assert normal_form(ContinuedProportion((8, 12, 18))) == NormalForm(k=2, y=2, z=3, n=1)
    assert normal_form(ContinuedProportion((1, 5, 25))) == NormalForm(k=1, y=1, z=5, n=1)


def test_normal_form_reconstruction_exhaustive():
    """Exact reconstruction over ratios y:z <= 20, k <= 10, terms <= 10^4."""
    for y in range(1, 21):
        for z in range(1, 21):
            if math.gcd(y, z) != 1:
                continue
            for n in range(1, 14):
                top = n + 1
                if max(y, z) ** top > 10**4:
                    break
                for k in range(1, 11):
                    terms = tuple(k * y ** (top - i) * z**i for i in range(top + 1))
                    if max(terms) > 10**4:
                        break
                    xs = ContinuedProportion(terms)
                    nf = normal_form(xs)
                    assert tuple(nf.reconstruct()) == terms
                    assert coprime([nf.y, nf.z])
                    if coprime([terms[0], terms[-1]]):
                        assert nf.k == 1


# ---------------------------------------------------------------------------
# square splitting


def test_split_coprime_square_examples():
    assert split_coprime_square(9, 16, 12) == (3, 4)
    assert split_coprime_square(1, 0, 0) == (1, 0)
    assert split_coprime_square(0, 1, 0) == (0, 1)
    assert split_coprime_square(25, 4, 10) == (5, 2)
    with pytest.raises(DomainError):
        split_coprime_square(4, 6, 0)  # not coprime
    with pytest.raises(DomainError):
        split_coprime_square(9, 16, 11)  # product mismatch


def test_split_coprime_square_round_trip():
    for y in range(61):
        for z in range(61):
            if (y or z) and math.gcd(y, z) == 1:
                assert split_coprime_square(y * y, z * z, y * z) == (y, z)


def test_coprime_side_with_prime():
    assert coprime_side_with_prime(2, 3, 5) == 1
    assert coprime_side_with_prime(5, 3, 10) == 2
    assert coprime_side_with_prime(2, 1, 1) == 1
    with pytest.raises(DomainError):
        coprime_side_with_prime(4, 3, 5)
    with pytest.raises(DomainError):
        coprime_side_with_prime(2, 4, 6)
    for p in (2, 3, 5, 7):
        for a in range(1, 80):
            for b in range(1, 80):
                if math.gcd(a, b) != 1:
                    continue
                side = coprime_side_with_prime(p, a, b)
                if side == 1:
                    assert coprime([p * a, b])
                else:
                    assert coprime([a, p * b])


def test_split_coprime_double_square_examples():
    assert split_coprime_double_square(2, 2, 1, 2) == (1, 1)
    assert split_coprime_double_square(2, 1, 8, 4) == (2, 1)
    assert split_coprime_double_square(3, 3, 1, 3) == (1, 1)
    with pytest.raises(DomainError):
        split_coprime_double_square(4, 2, 1, 2)  # p not prime
    with pytest.raises(DomainError):
        split_coprime_double_square(2, 2, 4, 4)  # a, b not coprime
    with pytest.raises(DomainError):
        split_coprime_double_square(2, 2, 1, 3)  # product mismatch


def test_split_coprime_double_square_exhaustive():
    """All admissible (p, a, b, v) with p in {2, 3, 5} and p*m, k bounded."""
    for p in (2, 3, 5):
        for m in range(1, 30):
            for k in range(1, 30):
                if math.gcd(p * m, k) != 1:
                    continue
                a, b, v = p * m * m, k * k, p * m * k
                assert p * a * b == v * v
                assert split_coprime_double_square(p, a, b, v) == (m, k)
                assert split_coprime_double_square(p, b, a, v) == (m, k)


def test_split_sum_diff_square_examples():
    assert split_sum_diff_square(5, 4, 3) == (3, 1)
    assert split_sum_diff_square(13, 12, 5) == (5, 1)
    assert split_sum_diff_square(25, 24, 7) == (7, 1)
    with pytest.raises(DomainError):
        split_sum_diff_square(9, 4, 8)  # 81 - 16 = 65 not a square
    with pytest.raises(DomainError):
        split_sum_diff_square(6, 4, 2)  # not coprime
    with pytest.raises(DomainError):
        split_sum_diff_square(5, 3, 4)  # parity


def test_split_sum_diff_square_exhaustive():
    """Every admissible (p, q) with p <= 2000 splits into coprime (g, h)."""
    found = 0
    for g in range(1, 45):
        for h in range(1, g + 1):
            # p + q = g^2, p - q = h^2  =>  p = (g^2+h^2)/2, q = (g^2-h^2)/2
            # (g and h must both be odd for p, q to be opposite-parity ints)
            if math.gcd(g, h) != 1 or g % 2 == 0 or h % 2 == 0:
                continue
            p = (g * g + h * h) // 2
            q = (g * g - h * h) // 2
            if q < 1 or p > 2000:
                continue
            c = g * h
            assert split_sum_diff_square(p, q, c) == (g, h)
            found += 1
    assert found > 50  # the sweep is not vacuous


def test_split_sum_diff_square_postconditions():
    g, h = split_sum_diff_square(5, 4, 3)
    assert 5 + 4 == g * g and 5 - 4 == h * h and g * h == 3 and coprime([g, h])


# ---------------------------------------------------------------------------
# difference/sum divisor lemmas


def test_common_divisor_of_sum_and_difference():
    """x | a-b and x | a+b force x | 2a and x | 2b; coprime a, b force x <= 2."""
    for a in range(201):
        for b in range(a + 1):
            diff, tot = a - b, a + b
            for x in range(1, 201):
                if (diff % x == 0) and (tot % x == 0):
                    assert (2 * a) % x == 0 and (2 * b) % x == 0
                    if (a or b) and coprime([a, b]):
                        assert x <= 2


def test_divisor_of_even_product_transfers():
    """x | 2pq makes x | p^2-q^2 and x | p^2+q^2 equivalent (p >= q <= 100)."""
    for p in range(1, 101):
        for q in range(p + 1):
            n = 2 * p * q
            diff, tot = p * p - q * q, p * p + q * q
            for lo in range(1, math.isqrt(n) + 1):
                if n % lo:
                    continue
                for x in (lo, n // lo):
                    assert (diff % x == 0) == (tot % x == 0)


def test_generator_products_coprime():
    """Coprime p >= q <= 100: pq is coprime to p^2-q^2 and to p^2+q^2."""
    for p in range(1, 101):
        for q in range(1, p + 1):
            if math.gcd(p, q) != 1:
                continue
            if p * q > 0 and (p * p + q * q) > 0:
                assert coprime([p * q, p * p + q * q])
            if p > q:
                assert coprime([p * q, p * p - q * q])
