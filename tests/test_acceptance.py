"""Top-level acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so a full run
reads as a checklist.  The package's result is a nonexistence theorem, so
most criteria are exhaustive desk-scale certificates.
"""

import math
import random
import time

import pytest

from descente.core_arith import coprime, divides, is_prime
from descente.descent_engine import (
    check_id,
    check_id_prime,
    check_rd,
    gcd_instance,
    pair_encode,
    rd_to_id,
    vii31_instance,
)
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
from descente.fermat import (
    degenerate_solutions,
    exhaustive_search,
    walsh_family,
    walsh_start_weight,
    walsh_state_weight,
)

from . import test_core_arith, test_proportions
from .oracles import (
    brute_primitive_triples,
    brute_two_square_solutions,
    is_perfect_square,
    naive_exhaustive_search,
)
from .test_descent import _random_rd_instance


@pytest.fixture
def announce(request, capsys):
    """Print one PASS/FAIL line per criterion, visible even under capture."""
    outcome = {"failed": False}
    yield outcome
    label = request.node.name.replace("test_", "", 1)
    verdict = "FAIL" if outcome["failed"] else "PASS"
    with capsys.disabled():
        print(f"[{verdict}] {label}")


def check(announce, condition, detail=""):
    if not condition:
        announce["failed"] = True
        pytest.fail(detail or "acceptance condition failed")


def test_criterion_01_vacuity_at_desk_scale(announce):
    """exhaustive_search to 2000 finds nothing, under 60s single-threaded;
    generator and naive oracles agree exactly at 300."""
    start = time.monotonic()
    found = exhaustive_search(2000)
    elapsed = time.monotonic() - start
    check(announce, found == [], f"counterexamples found: {found[:3]}")
    check(announce, elapsed < 60, f"search took {elapsed:.1f}s")
    got = [tuple(c) for c in exhaustive_search(300)]
    check(announce, got == naive_exhaustive_search(300))


def test_criterion_02_degenerate_solution_set(announce):
    got = {tuple(c) for c in degenerate_solutions()}
    check(announce, got == {(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)}, str(got))
    for bound in (10, 50):
        check(announce, sorted(got) == naive_exhaustive_search(bound, allow_zero=True), str(bound))


def test_criterion_03_parametrization_bijection(announce):
    for p in range(1, 41):
        for q in range(p):
            if math.gcd(p, q) != 1 or (p + q) % 2 == 0:
                continue
            for i in (0, 1):
                g = Generators(i=i, p=p, q=q)
                check(announce, decompose_primitive_triple(generate_triple(g)) == g)
    for x0, x1, x2 in brute_primitive_triples(1000):
        g = decompose_primitive_triple(PythTriple(x0, x1, x2))
        legs = (x0, x1)
        ok = (
            legs[g.i] == 2 * g.p * g.q
            and legs[1 - g.i] == g.p**2 - g.q**2
            and x2 == g.p**2 + g.q**2
            and coprime([g.p, g.q])
            and (g.p + g.q) % 2 == 1
        )
        check(announce, ok, f"parametrization failed at {(x0, x1, x2)}")


def test_criterion_04_worked_example_regression(announce):
    check(announce, decompose_sum_of_squares(PythTriple(12, 9, 15)) == (0, 12, 3))
    # the rejected square candidates belong to other triple classes entirely
    for a, b, x1, x2 in ((9, 4, 5, 13), (36, 1, 35, 37)):
        check(announce, a - b == x1 and a + b == x2)
        check(announce, 12 * 12 + x1 * x1 == x2 * x2)


def test_criterion_05_frenicle_identity(announce):
    hits = 0
    for x0, x1, x2 in brute_primitive_triples(500):
        legs = (x0, x1)
        even = legs[0] if legs[0] % 2 == 0 else legs[1]
        if not is_perfect_square(even):
            continue
        m, k = frenicle_xxxviii(PythTriple(x0, x1, x2), math.isqrt(even))
        check(announce, (2 * m * m) ** 2 + (k * k) ** 2 == x2, f"at {(x0, x1, x2)}")
        hits += 1
    check(announce, hits >= 2, "hypothesis never satisfied below 500")


def test_criterion_06_two_square_forms(announce):
    for x0, x1, x2 in brute_two_square_solutions(500):
        a, b = decompose_two_square(x0, x1, x2)
        check(announce, a >= b and a - b == x0 and a + b == x2 and 2 * a * b == x1 * x1)
        if (x0, x1, x2) != (0, 0, 0) and coprime([x0, x1, x2]):
            m, k = decompose_primitive_two_square(x0, x1, x2)
            ok = (
                coprime([2 * m, k])
                and 2 * m * m != k * k
                and x0 == abs(2 * m * m - k * k)
                and x1 == 2 * m * k
                and x2 == 2 * m * m + k * k
            )
            check(announce, ok, f"four equations failed at {(x0, x1, x2)}")


def test_criterion_07_schema_engine(announce):
    check(announce, check_id(vii31_instance(), 10**4).ok)
    check(announce, check_rd(gcd_instance(), pair_encode(200, 200)).ok)
    rng = random.Random(20260823)
    for _ in range(100):
        inst = _random_rd_instance(rng, 500)
        check(announce, check_rd(inst, 500).ok, f"rd not clean: {inst.name}")
        check(announce, check_id(rd_to_id(inst), 500).ok, f"rd_to_id broke: {inst.name}")
    check(announce, check_id_prime(walsh_family(), 500).ok)
    for x2 in range(60):
        for x3 in range(60):
            check(announce, walsh_start_weight(x2, x3) - walsh_state_weight(x2, 2 * x3) == 1)


def test_criterion_08_descend_identity(announce):
    for m in range(51):
        for k in range(51):
            lhs = (2 * m * m + k * k) ** 2 - (2 * m * k) ** 2
            rhs = (2 * m * m) ** 2 + (k * k) ** 2
            check(announce, lhs == rhs, f"identity failed at m={m}, k={k}")


def test_criterion_09_historical_constants(announce):
    f5 = 2**32 + 1
    check(announce, divides(641, f5))
    check(announce, not is_prime(f5))


def test_criterion_10_elements_property_suite(announce):
    """All bounded arithmetic/proportion invariants, combined under 120s."""
    suite = [
        test_core_arith.test_divides_is_partial_order_with_min_1_max_0,
        test_core_arith.test_divisibility_of_sums,
        test_core_arith.test_divisibility_scaling,
        test_core_arith.test_coprime_comparable_pairs_are_strict_or_units,
        test_core_arith.test_coprime_closure_under_restriction,
        test_core_arith.test_coprime_closure_products_and_powers,
        test_core_arith.test_prime_not_dividing_is_coprime,
        test_core_arith.test_square_divisibility_equivalence,
        test_core_arith.test_divides_via_valuations_agrees,
        test_core_arith.test_split_valuation_postconditions,
        test_proportions.test_power_form_from_the_unit,
        test_proportions.test_normal_form_reconstruction_exhaustive,
        test_proportions.test_split_coprime_square_round_trip,
        test_proportions.test_common_divisor_of_sum_and_difference,
        test_proportions.test_divisor_of_even_product_transfers,
        test_proportions.test_generator_products_coprime,
    ]
    start = time.monotonic()
    for fn in suite:
        try:
            fn()
        except AssertionError as exc:
            check(announce, False, f"{fn.__name__}: {exc}")
    elapsed = time.monotonic() - start
    check(announce, elapsed < 120, f"suite took {elapsed:.1f}s")
