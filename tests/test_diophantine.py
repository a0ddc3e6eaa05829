"""Parametrizations of the two quadratic forms and Frenicle's proposition,
cross-checked against brute-force enumerations."""

import math

import pytest

from descente import DomainError
from descente.certificate import primitive_triples
from descente.core_arith import coprime
from descente.diophantine import (
    Generators,
    PythTriple,
    decompose_primitive_triple,
    decompose_primitive_two_square,
    decompose_sum_of_squares,
    decompose_two_square,
    frenicle_xxxviii,
    generate_triple,
)

from .oracles import (
    brute_primitive_triples,
    brute_triples,
    brute_two_square_solutions,
    is_perfect_square,
)


def test_pyth_triple_validation():
    PythTriple(3, 4, 5)
    PythTriple(0, 0, 0)
    with pytest.raises(DomainError):
        PythTriple(3, 4, 6)
    with pytest.raises(DomainError):
        PythTriple(-3, 4, 5)


def test_generators_validation():
    Generators(i=0, p=2, q=1)
    Generators(i=1, p=1, q=0)
    with pytest.raises(DomainError):
        Generators(i=2, p=2, q=1)
    with pytest.raises(DomainError):
        Generators(i=0, p=3, q=1)  # both odd
    with pytest.raises(DomainError):
        Generators(i=0, p=4, q=2)  # not coprime
    with pytest.raises(DomainError):
        Generators(i=0, p=1, q=2)  # p <= q


def test_decompose_sum_of_squares_examples():
    assert decompose_sum_of_squares(PythTriple(12, 9, 15)) == (0, 12, 3)
    assert decompose_sum_of_squares(PythTriple(0, 0, 0)) == (0, 0, 0)
    assert decompose_sum_of_squares(PythTriple(4, 3, 5)) == (0, 4, 1)
    assert decompose_sum_of_squares(PythTriple(3, 4, 5)) == (1, 4, 1)


def test_decompose_sum_of_squares_rejected_square_candidates():
    """(12, 9, 15) splits as (a, b) = (12, 3), and the nearby *square* pairs
    (9, 4) and (36, 1) belong to other triples entirely: (a-b, 2*sqrt(ab), a+b)
    gives (5, 12, 13) and (35, 12, 37)."""
    i, a, b = decompose_sum_of_squares(PythTriple(12, 9, 15))
    assert (i, a, b) == (0, 12, 3)
    assert not (is_perfect_square(a) and is_perfect_square(b))
    for aa, bb, x1, x2 in ((9, 4, 5, 13), (36, 1, 35, 37)):
        assert aa * bb == 36  # same even leg 12 = 2*sqrt(ab)
        assert aa - bb == x1 and aa + bb == x2
        PythTriple(12, x1, x2)  # the triples these pairs actually generate


def test_decompose_sum_of_squares_exhaustive():
    for x0, x1, x2 in brute_triples(300, include_zero_legs=True):
        t = PythTriple(x0, x1, x2)
        i, a, b = decompose_sum_of_squares(t)
        legs = (t.x0, t.x1)
        assert legs[i] % 2 == 0
        assert a >= b
        assert a + b == x2
        assert a - b == legs[1 - i]
        assert is_perfect_square(a * b) and 2 * math.isqrt(a * b) == legs[i]


def test_decompose_primitive_triple_examples():
    assert decompose_primitive_triple(PythTriple(4, 3, 5)) == Generators(i=0, p=2, q=1)
    assert decompose_primitive_triple(PythTriple(1, 0, 1)) == Generators(i=1, p=1, q=0)
    assert decompose_primitive_triple(PythTriple(12, 35, 37)) == Generators(i=0, p=6, q=1)
    with pytest.raises(DomainError):
        decompose_primitive_triple(PythTriple(0, 0, 0))


def test_decompose_primitive_triple_nonprimitive_carries_witness():
    with pytest.raises(DomainError, match="shares the prime factor 3"):
        decompose_primitive_triple(PythTriple(9, 12, 15))
    with pytest.raises(DomainError, match="shares the prime factor 2"):
        decompose_primitive_triple(PythTriple(6, 8, 10))


def test_generate_triple_examples():
    assert generate_triple(Generators(i=0, p=2, q=1)) == PythTriple(4, 3, 5)
    assert generate_triple(Generators(i=1, p=1, q=0)) == PythTriple(1, 0, 1)
    assert generate_triple(Generators(i=0, p=6, q=1)) == PythTriple(12, 35, 37)


def test_round_trip_generators_up_to_40():
    """decompose_primitive_triple(generate_triple(g)) == g for all p <= 40."""
    count = 0
    for p in range(1, 41):
        for q in range(p):
            if math.gcd(p, q) != 1 or (p + q) % 2 == 0:
                continue
            for i in (0, 1):
                g = Generators(i=i, p=p, q=q)
                t = generate_triple(g)
                assert coprime([t.x0, t.x1, t.x2])
                assert decompose_primitive_triple(t) == g
                count += 1
    assert count > 400


def test_parametrization_five_equations_up_to_1000():
    """Every brute-force primitive triple with x2 <= 1000 satisfies the five
    parametrization equations exactly."""
    triples = brute_primitive_triples(1000)
    assert triples, "oracle produced no primitive triples"
    for x0, x1, x2 in triples:
        g = decompose_primitive_triple(PythTriple(x0, x1, x2))
        legs = (x0, x1)
        p, q = g.p, g.q
        assert legs[g.i] == 2 * p * q
        assert legs[1 - g.i] == p * p - q * q
        assert x2 == p * p + q * q
        assert coprime([p, q])
        assert (p + q) % 2 == 1 and p > q


def test_generator_pairs_enumerate_the_primitive_triples():
    got = set()
    for x0, x1, x2, p, q in primitive_triples(300):
        a, b, c = generate_triple(Generators(0, p, q))
        # Both statements of the parametrization give the same triple.
        assert (x0, x1, x2) == (min(a, b), max(a, b), c), (p, q)
        got.add((a, b, c))
    want = {(x0, x1, x2) for x0, x1, x2 in brute_primitive_triples(300) if x0 % 2 == 0}
    assert got == want
    assert (4, 3, 5) in got


def test_frenicle_examples():
    assert frenicle_xxxviii(PythTriple(4, 3, 5), 2) == (1, 1)
    assert frenicle_xxxviii(PythTriple(1, 0, 1), 0) == (0, 1)
    with pytest.raises(DomainError):
        frenicle_xxxviii(PythTriple(4, 3, 5), 3)  # even leg is not 9
    with pytest.raises(DomainError, match="shares the prime factor 2"):
        frenicle_xxxviii(PythTriple(6, 8, 10), 0)


def test_frenicle_identity_up_to_500():
    """For every primitive triple with x2 <= 500 whose even leg is a perfect
    square v^2: (2m^2)^2 + (k^2)^2 == x2 exactly."""
    hits = 0
    for x0, x1, x2 in brute_primitive_triples(500):
        legs = (x0, x1)
        even = legs[0] if legs[0] % 2 == 0 else legs[1]
        if not is_perfect_square(even):
            continue
        v = math.isqrt(even)
        m, k = frenicle_xxxviii(PythTriple(x0, x1, x2), v)
        assert (2 * m * m) ** 2 + (k * k) ** 2 == x2
        assert coprime([2 * m, k])
        assert (m == 0) == (even == 0)
        hits += 1
    assert hits >= 2  # e.g. (4,3,5) and (36,77,85)


def test_frenicle_36_77_85():
    """(36, 77, 85) has even leg 36 = 6^2; the oracle over m, k <= 10
    confirms the unique representation 85 = (2m^2)^2 + (k^2)^2."""
    want = [
        (m, k)
        for m in range(11)
        for k in range(11)
        if (2 * m * m) ** 2 + (k * k) ** 2 == 85 and math.gcd(2 * m, k) == 1
    ]
    got = frenicle_xxxviii(PythTriple(36, 77, 85), 6)
    assert got in want
    assert got == (1, 3)  # 4 + 81 = 85


def test_decompose_two_square_examples():
    assert decompose_two_square(1, 2, 3) == (2, 1)
    assert decompose_two_square(0, 0, 0) == (0, 0)
    assert decompose_two_square(7, 4, 9) == (8, 1)
    with pytest.raises(DomainError):
        decompose_two_square(1, 2, 4)


def test_decompose_primitive_two_square_examples():
    assert decompose_primitive_two_square(1, 2, 3) == (1, 1)
    assert decompose_primitive_two_square(7, 4, 9) == (2, 1)
    assert decompose_primitive_two_square(1, 0, 1) == (0, 1)
    with pytest.raises(DomainError, match="shares the prime factor 2"):
        decompose_primitive_two_square(2, 4, 6)


def test_two_square_exhaustive_up_to_500():
    """decompose_two_square reconstructs every solution with x2 <= 500; the
    primitive ones satisfy all four parametrization equations."""
    sols = brute_two_square_solutions(500)
    assert sols, "oracle produced no solutions"
    for x0, x1, x2 in sols:
        a, b = decompose_two_square(x0, x1, x2)
        assert a >= b and a - b == x0 and a + b == x2 and 2 * a * b == x1 * x1
        if (x0, x1, x2) != (0, 0, 0) and coprime([x0, x1, x2]):
            m, k = decompose_primitive_two_square(x0, x1, x2)
            assert coprime([2 * m, k])
            assert 2 * m * m != k * k
            assert x0 == abs(2 * m * m - k * k)
            assert x1 == 2 * m * k
            assert x2 == 2 * m * m + k * k
