"""The row sieve behind `search`: its residue masks, its coverage, its
blocks, and the modules and memory a search needs."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from descente import certificate
from descente.diophantine import generator_pairs

from .oracles import primitive_triple_count

SRC = str(Path(__file__).parents[1] / "src")


def _squares(m):
    return {x * x % m for x in range(m)}


def _run(bound, covered=None, survivors=None):
    """certificate.search(bound), appending each pair the sieve covers (the
    row's parity-and-coprime bits, before the residue masks) to covered and
    each pair that reaches the exact test to survivors."""
    coprime_bits, scan = certificate._coprime_bits, certificate.scan_generator_block

    def count_covered(p, factors, q0, width):
        bits = coprime_bits(p, factors, q0, width)
        covered.extend((p, q0 + i) for i in range(width) if bits >> i & 1)
        return bits

    def record_survivor(p, q, bound_x2):
        survivors.append((p, q))
        return scan(p, q, bound_x2)

    with pytest.MonkeyPatch.context() as mp:
        if covered is not None:
            mp.setattr(certificate, "_coprime_bits", count_covered)
        if survivors is not None:
            mp.setattr(certificate, "scan_generator_block", record_survivor)
        return certificate.search(bound)


@pytest.mark.parametrize("m", certificate.MODULI)
def test_residue_mask_keeps_exactly_the_square_products(m):
    squares = _squares(m)
    masks = certificate._residue_masks(m)
    assert len(masks) == m
    for a in range(m):
        for b in range(m):
            assert (masks[a] >> b & 1) == (a * b * (a * a - b * b) % m in squares), (a, b)
        assert masks[a] >> m == 0


@pytest.mark.parametrize("m", sorted(certificate.CRT_SPLITS))
def test_crt_masks_equal_the_direct_masks(m):
    assert certificate._masks(m) == certificate._residue_masks(m)


def test_survivors_equal_a_per_pair_residue_filter_at_1e5():
    bound = 10**5
    squares = {m: _squares(m) for m in certificate.MODULI}
    expected = [
        (p, q)
        for p, q in generator_pairs(bound)
        if all(p * q * (p * p - q * q) % m in squares[m] for m in squares)
    ]
    survivors = []
    assert _run(bound, survivors=survivors) == []
    assert sorted(survivors) == expected
    assert len(survivors) == 21


def test_coverage_equals_generator_pairs_at_every_bound_to_3000(monkeypatch):
    # Coverage is read before the residue masks, so they are left out here
    # to keep 3000 searches fast.
    monkeypatch.setattr(certificate, "MODULI", ())
    for bound in range(1, 3001):
        covered = []
        assert _run(bound, covered=covered) == []
        assert covered == list(generator_pairs(bound)), bound


@pytest.mark.parametrize("bound", [123_457, 10**6])
def test_coverage_equals_generator_pairs(bound):
    covered = []
    assert _run(bound, covered=covered) == []
    assert covered == list(generator_pairs(bound))


def test_coverage_at_1e7_equals_the_moebius_count(monkeypatch):
    covered = 0
    coprime_bits = certificate._coprime_bits

    def count(p, factors, q0, width):
        nonlocal covered
        bits = coprime_bits(p, factors, q0, width)
        covered += bin(bits).count("1")
        return bits

    monkeypatch.setattr(certificate, "_coprime_bits", count)
    assert certificate.search(10**7) == []
    assert covered == primitive_triple_count(10**7) == 1_591_579


def test_rows_split_into_blocks_give_the_same_sieve(monkeypatch):
    bound = 10**5  # rows up to 223 bits wide
    whole_covered, whole_survivors = [], []
    assert _run(bound, whole_covered, whole_survivors) == []
    monkeypatch.setattr(certificate, "BLOCK_BITS", 13)  # prime to every modulus
    covered, survivors = [], []
    assert _run(bound, covered, survivors) == []
    assert covered == whole_covered == list(generator_pairs(bound))
    assert sorted(survivors) == sorted(whole_survivors)


def _python(code, *flags):
    env = {k: v for k, v in os.environ.items() if k != "DESCENTE_CACHE"}
    env["PYTHONPATH"] = SRC
    return subprocess.Popen(
        [sys.executable, *flags, "-c", code],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_search_loads_only_the_certificate():
    proc = _python(
        "import sys\n"
        "from descente.cli import main\n"
        "main(['search', '--bound', '10'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'descente'))\n"
        "print('dataclasses' in sys.modules)\n"
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.splitlines()[-2:] == [
        "['descente', 'descente.certificate', 'descente.cli', 'descente.errors']",
        "False",
    ]


def _assert_loads_none_of(argv, banned):
    proc = _python(
        "import io, sys\n"
        "from descente.cli import main\n"
        f"print(main({argv.split()!r}, out=io.StringIO()))\n"
        f"print([m for m in {banned!r} if m in sys.modules])\n",
        "-S",
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.splitlines() == ["0", "[]"]


# No command below may load these: the record classes are tuples, and only
# the fermat and walsh instances import descente.fermat.
HEAVY = ("dataclasses", "inspect", "descente.fermat", "descente.certificate")
# descent and check run descent_engine, and only the vii31 walk core_arith.
ENGINE = HEAVY + ("descente.diophantine", "descente.proportions")
NO_ARITH = ENGINE + ("descente.core_arith",)


@pytest.mark.parametrize(
    "argv, banned",
    [
        pytest.param(argv, banned, id=argv)
        for argv, banned in (
            ("descent gcd 89 55", NO_ARITH),
            ("descent pentagon 8 5", NO_ARITH),
            ("descent vii31 360", ENGINE),
            ("decompose triple 3 4 5", HEAVY),
            ("decompose two-square 1 2 3", HEAVY),
            ("decompose frenicle 4 3 5 2", HEAVY),
            ("check rd gcd 50", NO_ARITH),
            ("check id vii31 50", ENGINE),
        )
    ],
)
def test_command_loads_no_dataclasses_and_no_fermat(argv, banned):
    _assert_loads_none_of(argv, banned)


# The fermat and walsh checks evaluate only their predicates, which need no
# arithmetic module; `decompose triple` and `triples` split no squares.
CHECK_DEPS = ("descente.diophantine", "descente.proportions", "descente.core_arith")


@pytest.mark.parametrize(
    "argv, banned",
    [
        pytest.param(argv, banned, id=argv)
        for argv, banned in (
            ("check id fermat 100", CHECK_DEPS),
            ("check idprime walsh 100", CHECK_DEPS),
            ("decompose triple 3 4 5", ("descente.proportions",)),
            ("triples 30", ("descente.proportions",)),
        )
    ],
)
def test_command_loads_only_what_it_evaluates(argv, banned):
    _assert_loads_none_of(argv, banned)


def test_huge_bound_search_runs_in_bounded_memory():
    limit = 256 * 2**20
    proc = _python(
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from descente.cli import main\n"
        f"main(['search', '--bound', '{10**16}'])\n"
    )
    try:
        proc.wait(timeout=3)
    except subprocess.TimeoutExpired:
        proc.kill()
    _, err = proc.communicate(timeout=60)
    # Still searching when killed: it did not run out of its 256 MB first.
    assert proc.returncode == -signal.SIGKILL, err
