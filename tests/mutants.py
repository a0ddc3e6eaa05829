"""Mutation checks: each entry changes one piece of text in a temporary copy
of the repository and runs the tests that must then fail.  A mutant that
survives shows a line that its tests no longer decide.

    python tests/mutants.py             # every entry
    python tests/mutants.py cap-8 ...   # the named entries

Each entry replaces exactly one occurrence of its old text (an entry whose
old text is gone or ambiguous is an error), then runs `pytest -x -q` on its
test files alone, and is killed when pytest reports a failed test.  An entry
marked equivalent changes nothing that an input can observe, as its reason
says; it is checked to apply but not run.  pytest does not collect this
file, and tier-1 does not run it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")

Mutant = namedtuple("Mutant", "name file old new tests reason equivalent", defaults=(False,))

CLI = "src/descente/cli.py"
CERT = "src/descente/certificate.py"
FERMAT = "src/descente/fermat.py"
ENGINE = "src/descente/descent_engine.py"
ARITH = "src/descente/core_arith.py"
DIOPH = "src/descente/diophantine.py"
INIT = "src/descente/__init__.py"

# The two parts of Report.rows, the failure records and then the verdict record.
_FAILURE_ROWS = (
    "        for f in self.failures:\n"
    "            yield {**head, **f._asdict()}\n"
)
_VERDICT_ROW = (
    "        # \"record\" keeps its first place in the dict when head's value is replaced.\n"
    '        yield {**head, "record": "report", "bound": self.bound,\n'
    '               "failures": len(self.failures), "ok": self.ok}\n'
)

MUTANTS = [
    Mutant(
        "search-builds-text", CERT,
        '    return EXIT_COUNTEREXAMPLE if found else EXIT_OK, rows, _search_text\n',
        '    rows = [(_search_text(row), row)[1] for row in rows]\n'
        '    return EXIT_COUNTEREXAMPLE if found else EXIT_OK, rows, _search_text\n',
        ("tests/test_cli.py::test_each_run_builds_only_the_form_it_writes",),
        "search makes each row's text line before main picks the form, and JSONL "
        "discards it",
    ),
    Mutant(
        "search-bound", CERT,
        "if p * p + q * q <= bound_x2:", "if p * p + q * q < bound_x2:",
        ("tests/test_certificate.py",),
        "a pair with e^4 + f^4 equal to the bound is not tested",
    ),
    Mutant(
        "fourth-root-2", CERT,
        "primitive_triples(math.isqrt(math.isqrt(2 * bound_x2)))",
        "primitive_triples(math.isqrt(math.isqrt(bound_x2)))",
        ("tests/test_certificate.py",),
        "Claim II's hypotenuse cap (2N)^(1/4) without its 2 drops pairs",
    ),
    Mutant(
        "triple-leg-order", CERT,
        "if a < b else", "if a > b else",
        ("tests/test_fermat.py",),
        "the enumeration yields the larger leg first",
    ),
    Mutant(
        "triple-even-leg", CERT,
        "a, b, c = 2 * p * q,", "a, b, c = 3 * p * q,",
        ("tests/test_fermat.py",),
        "the enumeration's even leg is 3pq",
    ),
    Mutant(
        "triple-hypotenuse", CERT,
        "p * p - q * q, p * p + q * q", "p * p - q * q, p * p - q * q",
        ("tests/test_fermat.py",),
        "the enumeration's hypotenuse is p^2 - q^2",
    ),
    Mutant(
        "exact-test", CERT,
        "    if x3 * x3 != half:\n        return []\n", "    return []\n",
        ("tests/test_fermat.py",),
        "the exact test never hits; the degenerate pair (1, 0) must",
    ),
    Mutant(
        "drop-found", CERT,
        "found.extend(scan_generator_block(p, q, bound_x2))",
        "scan_generator_block(p, q, bound_x2)",
        ("tests/test_cli.py",),
        "a planted hit is lost",
    ),
    Mutant(
        "mark-after-hit", CERT,
        "if cache_path is not None and not found:", "if cache_path is not None:",
        ("tests/test_cli.py",),
        "a run that finds a solution marks its bound done",
    ),
    Mutant(
        "empty-cache-path", CERT,
        "if cache_path is not None:\n", "if cache_path:\n",
        ("tests/test_cli.py",),
        "`--cache ''` searches before its path fails",
    ),
    Mutant(
        "probe-removes-link", CERT,
        "os.remove(os.path.realpath(cache_path))", "os.remove(cache_path)",
        ("tests/test_cli.py",),
        "a cache path that is a dangling symlink loses its link to a regular file",
    ),
    Mutant(
        "multiples-primitive", CERT,
        "range(1, bound_x2 // x2 + 1)", "range(1, 2)",
        ("tests/test_fermat.py",),
        "a hit reports its primitive triple without the multiples",
    ),
    Mutant(
        "scan-leg-factor", CERT,
        "sorted((2 * p * q, p * p - q * q))", "sorted((3 * p * q, p * p - q * q))",
        ("tests/test_fermat.py",),
        "a hit's even leg is 3pq",
    ),
    Mutant(
        "scan-leg-sum", CERT,
        "sorted((2 * p * q, p * p - q * q))", "sorted((2 * p * q, p * p + q * q))",
        ("tests/test_fermat.py",),
        "a hit's odd leg is p^2 + q^2",
    ),
    Mutant(
        "scan-hypotenuse", CERT,
        "x2 = p * p + q * q", "x2 = p * p - q * q",
        ("tests/test_fermat.py",),
        "a hit's hypotenuse is p^2 - q^2",
    ),
    Mutant(
        "exact-test-sum", CERT,
        "half = p * q * (p * p - q * q)", "half = p * q * (p * p + q * q)",
        ("tests/test_fermat.py",),
        "the exact test reads pq(p^2 + q^2), and the hit at p = q = 1 is lost",
    ),
    Mutant(
        "elapsed-sum", CERT,
        "round(time.monotonic() - start, 3)", "round(time.monotonic() + start, 3)",
        ("tests/test_cli.py",),
        "a search reports twice the clock reading as its time",
    ),
    Mutant(
        "mid-line-newline", CERT,
        'b"\\n" * cut + ', "",
        ("tests/test_cli.py",),
        "a mark appended to a cut-off last line merges with it",
    ),
    Mutant(
        "cache-strip", CERT,
        'line.rstrip("\\n")', "line.strip()",
        ("tests/test_cli.py",),
        "`upto N ` (a cut-off `upto N done`) reads as a mark",
    ),
    Mutant(
        "cache-unicode-digits", CERT,
        "number.isascii() and number.isdigit()", "number.isdigit()",
        ("tests/test_cli.py",),
        "`upto` in Arabic-Indic digits certifies a bound",
    ),
    Mutant(
        "cache-long-number", CERT,
        "                    try:\n"
        "                        last = max(last, int(number))\n"
        "                    except ValueError:  # more digits than int() converts\n"
        "                        pass\n",
        "                    last = max(last, int(number))\n",
        ("tests/test_cli.py",),
        "a 5,000-digit mark crashes the search in int()",
    ),
    Mutant(
        "search-limit", CERT,
        "if bound > MAX_BOUND:", "if bound >= MAX_BOUND:",
        ("tests/test_cli.py::test_search_accepts_its_own_limit",),
        "`search` rejects the bound at its own limit",
    ),
    Mutant(
        "precondition-exit", CLI,
        "        return EXIT_PRECONDITION\n", "        return EXIT_USAGE\n",
        ("tests/test_cli.py::test_descent_vii31_beyond_prime_limit_exits_65",
         "tests/test_cli.py::test_decompose_precondition_failure_exits_65"),
        "a precondition failure exits 64, as a usage error",
    ),
    Mutant(
        "jsonl-builds-text", CLI,
        '    if fmt == "jsonl":\n        from .jsonl import dumps as text\n',
        '    rows = [(text(row), row)[1] for row in rows]\n'
        '    if fmt == "jsonl":\n        from .jsonl import dumps as text\n',
        ("tests/test_cli.py::test_each_run_builds_only_the_form_it_writes",),
        "every row is formatted as text before main picks the form, and JSONL "
        "discards it",
    ),
    Mutant(
        "no-freeze", CLI,
        "    gc.freeze()\n", "",
        ("tests/test_certificate.py",),
        "the process entry leaves the heap to the collections at exit",
    ),
    Mutant(
        "no-output-flush", CLI,
        "        if sys.stdout is not None:  # None when the process started with fd 1 closed\n"
        "            sys.stdout.flush()\n",
        "",
        ("tests/test_cli.py",),
        "a buffered write that fails at exit ends in `Exception ignored` and exit 120",
    ),
    Mutant(
        "no-devnull-redirect", CLI,
        "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", "pass",
        ("tests/test_cli.py",),
        "the flush at exit retries the failed write and prints a second message",
    ),
    Mutant(
        "always-not-counterexample", FERMAT,
        "return not _solves(*quad_decode(v))", "return True",
        ("tests/test_fermat.py",),
        "the fermat predicate holds even on a counterexample",
    ),
    Mutant(
        "solves-not-pythagorean", FERMAT,
        "x0 * x0 + x1 * x1 == x2 * x2", "x0 * x0 + x1 * x1 != x2 * x2",
        ("tests/test_fermat.py",),
        "a non-triple whose leg product is twice a square, code 57 = (1, 2, 0, 1), "
        "counts as a counterexample",
    ),
    Mutant(
        "cap-8", FERMAT,
        "math.isqrt(math.isqrt(8 * bound))", "math.isqrt(math.isqrt(bound))",
        ("tests/test_fermat.py",),
        "the hypotenuse cap without its 8 loses codes at 10^8 and 10^10, "
        "though none at or below 300,000",
    ),
    Mutant(
        "claim-ii-no-candidates", FERMAT,
        "_not_claim_ii_code.candidates = _triple_codes\n", "",
        ("tests/test_fermat.py",),
        "the walsh check walks P_1's whole fiber",
    ),
    Mutant(
        "skip-every-value", ENGINE,
        "for v in range(bound + 1) if candidates is None else candidates(bound):",
        "for v in ():",
        ("tests/test_descent.py",),
        "the check loop visits no value",
    ),
    Mutant(
        "base-no-continue", ENGINE,
        '"base holds but predicate fails")\n                )\n                continue\n',
        '"base holds but predicate fails")\n                )\n',
        ("tests/test_descent.py",),
        "a value in the base where the predicate fails is also stepped",
    ),
    Mutant(
        "weight-kept", ENGINE,
        "if weight(u) >= weight(v):", "if weight(u) > weight(v):",
        ("tests/test_descent.py",),
        "a step that keeps the weight passes",
    ),
    Mutant(
        "trace-index", ENGINE,
        "u = inst.steps[min(k, last)](v)", "u = inst.steps[last](v)",
        ("tests/test_fermat.py",),
        "a family's walk takes its last step from the start",
    ),
    Mutant(
        "walk-cap", ENGINE,
        "if k >= max_steps:", "if k > max_steps:",
        ("tests/test_descent.py",),
        "a walk takes one step more than max_steps",
    ),
    Mutant(
        "rd-walks-predicate", ENGINE,
        "tests = inst.predicates if inst.base is None else (inst.base,)",
        "tests = inst.predicates",
        ("tests/test_descent.py",),
        "an RD walk stops where its predicate holds, not at its base",
    ),
    Mutant(
        "schema-shape-base", ENGINE,
        "if len(inst.predicates) != 1 or (inst.base is not None) != base:",
        "if len(inst.predicates) != 1:",
        ("tests/test_descent.py",),
        "check_id checks an RD instance as RD, and check_rd an ID instance as ID",
    ),
    Mutant(
        "tagged-drops-inner", ENGINE,
        'inner = getattr(pred, "candidates", None)', "inner = None",
        ("tests/test_descent.py",),
        "a tagged predicate walks its whole fiber, not its inner candidates",
    ),
    Mutant(
        "tagged-cap", ENGINE,
        "cap = math.isqrt(2 * bound)", "cap = math.isqrt(bound)",
        ("tests/test_fermat.py",),
        "a tagged predicate asks its inner candidates only up to the square root "
        "of the bound, and loses the fiber codes above it",
    ),
    Mutant(
        "tagged-no-break", ENGINE,
        "                break\n            yield v\n", "                continue\n            yield v\n",
        (),
        "the inner candidates increase and so do their codes: past the first code "
        "above the bound, none is yielded",
        equivalent=True,
    ),
    Mutant(
        "report-verdict-first", ENGINE,
        _FAILURE_ROWS + _VERDICT_ROW, _VERDICT_ROW + _FAILURE_ROWS,
        ("tests/test_descent.py",),
        "a report's rows give the verdict before the failure rows",
    ),
    Mutant(
        "width-from-max", ENGINE,
        "width = max(len(str(max(weights))), len(str(min(weights))))",
        "width = len(str(max(weights)))",
        ("tests/test_descent.py",),
        "a trace's text aligns its weights to the largest, and a wider negative "
        "weight pushes its column out",
    ),
    Mutant(
        "trace-rows-format-weight", ENGINE,
        "        for e in self.entries:\n",
        "        weights = [str(e.weight) for e in self.entries]\n        for e in self.entries:\n",
        ("tests/test_descent.py::test_rows_are_records_that_convert_nothing_to_text",),
        "a trace's rows make a decimal of each weight, which a JSONL run discards",
    ),
    Mutant(
        "report-rows-build-text", ENGINE,
        "            yield {**head, **f._asdict()}\n",
        "            yield (self.text({**head, **f._asdict()}), {**head, **f._asdict()})[1]\n",
        ("tests/test_descent.py::test_rows_are_records_that_convert_nothing_to_text",),
        "a report's rows make each failure's text line, which a JSONL run discards",
    ),
    Mutant(
        "memo-no-seed", ENGINE,
        "        last = v, result\n        return v\n", "        return v\n",
        ("tests/test_descent.py",),
        "a gcd, pentagon or vii31 walk decodes or factors each step's output again",
    ),
    Mutant(
        "memo-no-store", ENGINE,
        "key, result = last = v, compute(v)", "result = compute(v)",
        ("tests/test_descent.py",),
        "the memo keeps only what a step seeds, so a walk decodes or factors its "
        "start once for each read",
    ),
    Mutant(
        "pentagon-window", ENGINE,
        "if not n < m < 2 * n:", "if not n < m <= 2 * n:",
        ("tests/test_descent.py",),
        "the proportion 2:1, at the window's open upper end, steps to 1:0",
    ),
    Mutant(
        "check-bound-1", ENGINE,
        "if bound < 1:\n        raise UsageError", "if bound <= 1:\n        raise UsageError",
        ("tests/test_cli.py",),
        "`check` rejects the bound 1",
    ),
    Mutant(
        "check-limit", ENGINE,
        "if bound > limit:", "if bound >= limit:",
        ("tests/test_cli.py",),
        "`check` rejects the bound at its own limit",
    ),
    Mutant(
        "descent-start-0", ENGINE,
        "if any(v < 0 for v in values):", "if any(v <= 0 for v in values):",
        ("tests/test_cli.py",),
        "`descent` rejects the start value 0",
    ),
    Mutant(
        "start-limit", ENGINE,
        "if any(v >= START_LIMIT for v in values):", "if any(v > START_LIMIT for v in values):",
        ("tests/test_cli.py",),
        "the start 10**2000 is walked",
    ),
    Mutant(
        "triples-last-multiple", DIOPH,
        "x2 + c > max_x2", "x2 + c >= max_x2",
        ("tests/test_cli.py",),
        "`triples` drops a multiple whose hypotenuse is max_x2",
    ),
    Mutant(
        "decompose-count", DIOPH,
        "if len(values) != n:", "if len(values) < n:",
        ("tests/test_cli.py",),
        "`decompose` with too many values decomposes the first ones",
    ),
    Mutant(
        "record-make-unchecked", INIT,
        "lambda cls, values: cls(*values)", "lambda cls, values: tuple.__new__(cls, values)",
        ("tests/test_fermat.py",),
        "every checked record's _make, and so _replace, skips its checks",
    ),
    Mutant(
        "check-prime-accepts", ARITH,
        '    if not is_prime(p):\n        raise DomainError(f"{p} is not prime")\n',
        "    return\n",
        ("tests/test_core_arith.py",),
        "every prime guard passes a composite",
    ),
    Mutant(
        "check-coprime-accepts", ARITH,
        '    if not coprime([a, b]):\n        raise DomainError(f"{a} and {b} are not coprime")\n',
        "    return\n",
        ("tests/test_core_arith.py",),
        "every coprime guard passes a pair with a common factor",
    ),
    Mutant(
        "check-primitive-accepts", ARITH,
        "    if (z := common_prime_witness(list(values))) is not None:\n"
        '        raise DomainError(f"{values} shares the prime factor {z}")\n',
        "    return\n",
        ("tests/test_core_arith.py",),
        "every primitivity guard passes values with a common prime factor",
    ),
    Mutant(
        "least-divisor-factors-all", ARITH,
        "return next(_ascending_factors(x))[0]", "return _prime_factors(x)[0][0]",
        ("tests/test_core_arith.py",),
        "least_prime_divisor factors the cofactor above the least prime, and "
        "refuses 2 * P^2 when P^2 is beyond PRIME_LIMIT",
    ),
    Mutant(
        "12-bases", ARITH,
        "for a in _SMALL_PRIMES[:13]:", "for a in _SMALL_PRIMES[:12]:",
        ("tests/test_core_arith.py",),
        "12 Miller-Rabin bases are not exact below PRIME_LIMIT",
    ),
    Mutant(
        "prime-limit", ARITH,
        "if p >= PRIME_LIMIT:", "if p > PRIME_LIMIT:",
        ("tests/test_core_arith.py",),
        "PRIME_LIMIT itself, a strong pseudoprime, is called prime",
    ),
    Mutant(
        "oracle-left-bound", "tests/oracles.py",
        "while left * (left + 1) // 2 <= bound:", "while left * (left + 1) // 2 < bound:",
        (),
        "the left code L with L(L + 1)/2 = bound has only the code pair(L, 0), "
        "whose x2 is 0, so it never lists a code",
        equivalent=True,
    ),
]


def _mutate(copy: Path, m: Mutant) -> str:
    """Write m's mutated file into copy and return the original text."""
    text = (ROOT / m.file).read_text(encoding="utf-8")
    count = text.count(m.old)
    if count != 1:
        raise ValueError(f"{m.name}: old text occurs {count} times in {m.file}")
    (copy / m.file).write_text(text.replace(m.old, m.new), encoding="utf-8")
    return text


def run(mutants: list[Mutant]) -> bool:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        # No bytecode is written: a mutant of the same size written in the
        # same second as the source would otherwise load the cached original.
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        for m in mutants:
            try:
                original = _mutate(copy, m)
            except ValueError as exc:
                print(f"STALE     {exc}")
                ok = False
                continue
            if m.equivalent:
                status, seconds = "equivalent", 0.0
            else:
                start = time.monotonic()
                argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
                result = subprocess.run(
                    [*argv, *m.tests], cwd=copy, env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                seconds = time.monotonic() - start
                # pytest exits 1 when a test failed; 0 means the mutant
                # survived, and anything else (a collection error) decides
                # nothing.
                status = {0: "SURVIVED", 1: "killed"}.get(result.returncode, "ERROR")
                ok = ok and status == "killed"
            (copy / m.file).write_text(original, encoding="utf-8")
            print(f"{status:<10} {m.name:<26} {seconds:5.1f}s  {m.reason}", flush=True)
    return ok


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    return 0 if run([m for m in MUTANTS if not names or m.name in names]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
