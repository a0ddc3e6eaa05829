"""The Claims I and II search behind `search`: the pairs it gives the exact
test, the lemmas that let it skip every other generator pair, the coverage of
the one generator enumeration, and the modules and memory a search needs."""

import ast
import math
import os
import signal
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from descente import certificate
from descente.certificate import primitive_triples

from .oracles import claim_ii_pairs, is_perfect_square, primitive_triple_count

SRC = str(Path(__file__).parents[1] / "src")


def _tested(bound):
    """The pairs (p, q) that certificate.search(bound) hands to the exact
    test, sorted, after checking that the search finds nothing."""
    tested, scan = [], certificate.scan_generator_block

    def spy(p, q, bound_x2):
        tested.append((p, q))
        return scan(p, q, bound_x2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificate, "scan_generator_block", spy)
        assert certificate.search(bound) == []
    return sorted(tested)


def _claim_ii_pairs(bound):
    """The generator pairs of primitive_triples(bound) with square p, q and
    p + q."""
    return [
        (p, q)
        for *_, p, q in primitive_triples(bound)
        if is_perfect_square(p) and is_perfect_square(q) and is_perfect_square(p + q)
    ]


def test_coverage_equals_generator_pairs_at_every_bound_to_3000():
    # The generator pairs with square p, q and p + q, the only ones that
    # Claims I and II admit.
    admitted = _claim_ii_pairs(3000)
    for bound in range(1, 3001):
        expected = [(p, q) for p, q in admitted if p * p + q * q <= bound]
        assert _tested(bound) == expected == claim_ii_pairs(bound), bound


@pytest.mark.parametrize("bound", [123_457, 10**6])
def test_coverage_equals_generator_pairs(bound):
    assert _tested(bound) == _claim_ii_pairs(bound) == claim_ii_pairs(bound)


def test_tested_pairs_change_exactly_at_each_pair_bound():
    pairs = claim_ii_pairs(10**8)
    for p, q in pairs:
        for bound in (p * p + q * q - 1, p * p + q * q):
            assert _tested(bound) == [t for t in pairs if t[0] ** 2 + t[1] ** 2 <= bound]


@pytest.mark.parametrize("bound, count", [(10**6, 5), (10**8, 18), (10**10, 56)])
def test_tested_pairs_are_the_claim_ii_pairs(bound, count):
    tested = _tested(bound)
    assert tested == claim_ii_pairs(bound)
    assert len(tested) == count


def test_generator_pairs_meet_the_claim_i_hypothesis():
    # The lemma in certificate.search: p, q, p - q and p + q are pairwise
    # coprime for every generator pair.  For p = e^2 and q = f^2 that is
    # also Claim II's: e^2 - f^2 and e^2 + f^2 are coprime.
    for *_, p, q in primitive_triples(10**5):
        for a, b in combinations((p, q, p - q, p + q), 2):
            assert math.gcd(a, b) == 1, (p, q)


def test_coverage_at_1e7_equals_the_moebius_count():
    # primitive_triples, the one enumeration of the generator pairs, yields
    # each primitive triple once.
    covered = sum(1 for _ in primitive_triples(10**7))
    assert covered == primitive_triple_count(10**7) == 1_591_579


def _python(code, *flags):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, *flags, "-c", code],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_search_loads_only_the_certificate():
    # and the JSONL writer, for JSONL output.
    for fmt, jsonl in (("text", []), ("jsonl", ["descente.jsonl"])):
        proc = _python(
            "import sys\n"
            "from descente.cli import main\n"
            f"main(['search', '--bound', '10', '--format', {fmt!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'descente'))\n"
            "print('dataclasses' in sys.modules)\n"
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        loaded = ["descente", "descente.certificate", "descente.cli", *jsonl]
        assert out.splitlines()[-2:] == [str(loaded), "False"], fmt


# No command loads these: the record classes are tuples and the annotations
# stay strings.  The check runs under -S, which skips the site hooks, since a
# .pth file there may import typing before the package runs.
NEVER = ("typing", "dataclasses")


def _assert_loads_none_of(argv, banned):
    banned = NEVER + tuple(banned)
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


# No command below may load these: only the fermat and walsh instances
# import descente.fermat.
HEAVY = ("inspect", "descente.fermat", "descente.certificate")
# descent and check run descent_engine, and only the vii31 walk core_arith:
# the vii31 checks never call the step, describe or base that would load it.
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
            ("check id vii31 50", NO_ARITH),
            ("check rd vii31 50", NO_ARITH),
        )
    ],
)
def test_command_loads_no_dataclasses_and_no_fermat(argv, banned):
    _assert_loads_none_of(argv, banned)


# The fermat and walsh checks evaluate only their predicates, which need no
# arithmetic module; `decompose triple` and `triples` split no squares.  A
# fermat or walsh descent from a non-counterexample evaluates only its first
# predicate, so it does not load certificate either.
CHECK_DEPS = ("descente.diophantine", "descente.proportions", "descente.core_arith")
GUARD_DEPS = CHECK_DEPS + ("descente.certificate",)


@pytest.mark.parametrize(
    "argv, banned",
    [
        pytest.param(argv, banned, id=argv)
        for argv, banned in (
            ("check id fermat 100", CHECK_DEPS),
            ("check idprime walsh 100", CHECK_DEPS),
            ("descent fermat 3 4 5 1", GUARD_DEPS),
            ("descent walsh 3 4 5 1", GUARD_DEPS),
            ("decompose triple 3 4 5", ("descente.proportions",)),
            ("triples 30", ("descente.proportions",)),
        )
    ],
)
def test_command_loads_only_what_it_evaluates(argv, banned):
    _assert_loads_none_of(argv, banned)


def test_cli_import_loads_no_argparse_and_no_json():
    proc = _python(
        "import sys, descente.cli\nprint([m for m in ('argparse', 'json') if m in sys.modules])",
        "-S",
    )
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (0, "[]\n"), err


# No command loads json or argparse, and no text run loads the JSONL writer
# or the C encoder it builds on.
TEXT_ARGVS = [
    "search --bound 10",
    "triples 30",
    "descent gcd 12 9",
    "descent vii31 360",
    "descent fermat 3 4 5 1",
    "check id vii31 50",
    "check rd gcd 50",
    "check id fermat 100",
    "check idprime walsh 100",
    "decompose triple 3 4 5",
    "decompose two-square 1 2 3",
    "decompose frenicle 4 3 5 2",
]


@pytest.mark.parametrize("argv", TEXT_ARGVS)
def test_text_output_loads_no_json(argv):
    _assert_loads_none_of(argv, ("json", "argparse", "descente.jsonl", "_json"))


# Every command above that takes --format writes its JSONL records without
# json.
@pytest.mark.parametrize("argv", [argv for argv in TEXT_ARGVS if not argv.startswith("decompose")])
def test_jsonl_output_loads_no_json(argv):
    _assert_loads_none_of(f"{argv} --format jsonl", ("json", "argparse"))


BANNED_IMPORTS = ("json", "typing", "dataclasses", "argparse")


def test_no_package_module_imports_json():
    # The package only writes JSONL, through descente.jsonl, and reads none;
    # its records are tuples, its annotations are strings, and cli parses
    # the command line itself.
    importers = []
    for path in sorted(Path(SRC, "descente").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in BANNED_IMPORTS for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


ERROR_MAPPING_NAMES = {"stderr", "EXIT_IO", "EXIT_PRECONDITION", "EXIT_USAGE"}


def test_only_cli_maps_errors_to_exit_codes():
    # A command's body raises; cli.main alone writes the error line on
    # stderr and picks the exit code for a usage, precondition or I/O error.
    mappers = []
    for path in sorted(Path(SRC, "descente").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                banned = {alias.name for alias in node.names} & ERROR_MAPPING_NAMES
            elif isinstance(node, ast.Attribute):
                banned = node.attr == "stderr"
            else:
                banned = isinstance(node, ast.Name) and node.id == "stderr"
            if banned:
                mappers.append(f"{path.name}:{node.lineno}")
    assert mappers == []


# One argv per command, in each format it has, and one usage error.  No
# package module imports descente.cli, which `python -m descente.cli` runs
# as __main__: such an import would compile it a second time.  Its process
# entry raises SystemExit with main's exit code after freezing the
# collector's heap, and the atexit handlers still run.
@pytest.mark.parametrize(
    "argv",
    [
        "search --bound 10",
        "triples 30",
        "descent gcd 12 9",
        "check rd gcd 50",
        "decompose triple 3 4 5",
        "search --bound 10 --format jsonl",
        "triples 30 --format jsonl",
        "descent gcd 12 9 --format jsonl",
        "check rd gcd 50 --format jsonl",
        "search --bound 0",
    ],
)
def test_running_the_cli_as_main_never_imports_it(argv):
    proc = _python(
        "import atexit, gc, io, runpy, sys\n"
        "atexit.register(print, 'atexit')\n"
        f"sys.argv = ['descente', *{argv.split()!r}]\n"
        "sys.stdout = io.StringIO()\n"
        "try:\n"
        "    runpy.run_module('descente.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, 'descente.cli' in sys.modules, gc.get_freeze_count() > 0)\n",
        "-S",
    )
    out, err = proc.communicate(timeout=60)
    code = 64 if argv == "search --bound 0" else 0
    assert out.splitlines() == [f"{code} False True", "atexit"], err


def test_huge_bound_search_runs_in_bounded_memory():
    limit = 256 * 2**20
    proc = _python(
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from descente.certificate import MAX_BOUND\n"
        "from descente.cli import main\n"
        "raise SystemExit(main(['search', '--bound', str(MAX_BOUND)]))\n"
    )
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
    _, err = proc.communicate(timeout=60)
    # It certified MAX_BOUND, or it was still searching at the deadline: it
    # did not run out of its 256 MB first.
    assert proc.returncode in (0, -signal.SIGKILL), err
    assert "MemoryError" not in err
