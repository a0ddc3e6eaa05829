"""Command-line behavior: output formats, exit codes, cache resume."""

import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from descente import (
    EXIT_COUNTEREXAMPLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
)
from descente.cli import main


SRC = str(Path(__file__).parents[1] / "src")


def run_cli(*argv: str):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue().splitlines()


def records(lines: list[str]) -> list[dict]:
    """Each JSONL line as a dict, with a search footer's `elapsed`, which
    varies from run to run, checked to be a float and dropped."""
    recs = [json.loads(line) for line in lines]
    for r in recs:
        if "elapsed" in r:
            assert isinstance(r.pop("elapsed"), float)
    return recs


# ---------------------------------------------------------------------------
# triples


def test_triples_primitive_only_max_5():
    code, lines = run_cli("triples", "5", "--primitive-only")
    assert code == EXIT_OK
    assert lines == ["(3, 4, 5)  p=2 q=1"]


def test_triples_max_4_is_empty():
    code, lines = run_cli("triples", "4")
    assert code == EXIT_OK
    assert lines == []


def test_triples_max_15_includes_marked_nonprimitive():
    code, lines = run_cli("triples", "15")
    assert code == EXIT_OK
    assert "(9, 12, 15)  p=2 q=1  non-primitive, factor 3" in lines
    assert lines.index("(3, 4, 5)  p=2 q=1") == 0


def test_triples_jsonl_round_trip():
    code, lines = run_cli("triples", "15", "--format", "jsonl")
    assert code == EXIT_OK
    assert [json.dumps(json.loads(line)) for line in lines] == lines
    recs = records(lines)
    assert recs == [
        {"record": "triple", "x0": 3, "x1": 4, "x2": 5, "p": 2, "q": 1, "factor": 1,
         "primitive": True},
        {"record": "triple", "x0": 6, "x1": 8, "x2": 10, "p": 2, "q": 1, "factor": 2,
         "primitive": False},
        {"record": "triple", "x0": 5, "x1": 12, "x2": 13, "p": 3, "q": 2, "factor": 1,
         "primitive": True},
        {"record": "triple", "x0": 9, "x1": 12, "x2": 15, "p": 2, "q": 1, "factor": 3,
         "primitive": False},
    ]
    assert {(r["x0"], r["x1"], r["x2"]) for r in recs} == {
        (3, 4, 5), (6, 8, 10), (5, 12, 13), (9, 12, 15),
    }
    for r in recs:
        assert list(r.keys()) == [
            "record", "x0", "x1", "x2", "p", "q", "factor", "primitive",
        ]
        assert r["primitive"] == (r["factor"] == 1)
        assert json.loads(json.dumps(r)) == r


def test_triples_text_and_jsonl_contain_same_rows():
    _, text = run_cli("triples", "30")
    _, jsonl = run_cli("triples", "30", "--format", "jsonl")
    assert len(text) == len(jsonl)
    for line, rec in zip(text, records(jsonl)):
        assert list(rec) == ["record", "x0", "x1", "x2", "p", "q", "factor", "primitive"]
        assert rec["record"] == "triple" and rec["primitive"] == (rec["factor"] == 1)
        head = f"({rec['x0']}, {rec['x1']}, {rec['x2']})"
        assert line.startswith(head)
        tail = "" if rec["primitive"] else f"  non-primitive, factor {rec['factor']}"
        assert line == f"{head}  p={rec['p']} q={rec['q']}{tail}"


def test_triples_above_the_limit_exits_64_before_any_pair(monkeypatch, capsys):
    import descente.certificate as certificate

    called = []
    monkeypatch.setattr(certificate, "primitive_triples", lambda *a: called.append(a) or iter(()))
    for fmt in ("text", "jsonl"):
        assert run_cli("triples", str(10**5 + 1), "--format", fmt) == (EXIT_USAGE, [])
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: descente triples")
        assert err[1:] == ["descente: error: max_x2 must be <= 100000"]
    assert called == []
    assert run_cli("triples", str(10**5), "--primitive-only") == (EXIT_OK, [])
    assert called == [(10**5,)]


def test_triples_at_the_limit_prints_one_row_per_primitive_triple():
    from .oracles import primitive_triple_count

    code, lines = run_cli("triples", str(10**5), "--primitive-only")
    assert code == EXIT_OK
    assert len(lines) == primitive_triple_count(10**5) == 15_919


# ---------------------------------------------------------------------------
# search


def test_search_bound_500_jsonl():
    code, lines = run_cli("search", "--bound", "500", "--format", "jsonl")
    assert code == EXIT_OK
    # Only the process entry, cli.run, freezes the collector's heap.
    assert gc.get_freeze_count() == 0
    assert list(json.loads(lines[-1]).keys()) == ["record", "bound", "count", "elapsed"]
    recs = records(lines)
    assert recs == [{"record": "footer", "bound": 500, "count": 0}]
    assert recs[-1]["record"] == "footer"
    assert recs[-1]["bound"] == 500 and recs[-1]["count"] == 0
    assert all(r["record"] == "solution" for r in recs[:-1])
    assert recs[:-1] == []


def test_search_elapsed_is_within_the_measured_wall_time():
    """The footer's elapsed, in text and in JSONL, is the search's own time:
    at least 0 and at most the wall time around the whole command, give or
    take its rounding to milliseconds."""
    for fmt in ("text", "jsonl"):
        start = time.monotonic()
        code, lines = run_cli("search", "--bound", "1000000000000", "--format", fmt)
        wall = time.monotonic() - start
        assert code == EXIT_OK
        if fmt == "jsonl":
            elapsed = json.loads(lines[-1])["elapsed"]
        else:
            elapsed = float(re.fullmatch(r"bound \d+: 0 counterexample\(s\) in (.*)s", lines[-1])[1])
        assert 0 <= elapsed <= wall + 0.0005


def test_search_resume_identical_footer(tmp_path):
    cache = str(tmp_path / "cache.txt")
    code1, lines1 = run_cli("search", "--bound", "500", "--format", "jsonl", "--cache", cache)
    code2, lines2 = run_cli("search", "--bound", "500", "--format", "jsonl", "--cache", cache)
    assert code1 == code2 == EXIT_OK
    assert records(lines1) == records(lines2)


def test_search_unwritable_cache_exits_1(tmp_path):
    # An empty path names no file that can be appended to.
    for cache in (str(tmp_path / "no" / "c.txt"), ""):
        code, _ = run_cli("search", "--bound", "100", "--cache", cache)
        assert code == EXIT_IO, cache


def test_search_unwritable_cache_fails_before_any_pair(tmp_path, monkeypatch, capsys):
    import descente.certificate as certificate

    tested = []
    monkeypatch.setattr(certificate, "scan_generator_block", lambda *a: tested.append(a) or [])
    for cache in (str(tmp_path / "no" / "c.txt"), ""):
        assert run_cli("search", "--bound", str(10**24), "--cache", cache) == (EXIT_IO, [])
        assert capsys.readouterr().err.startswith("cache error: ")
        assert tested == []
    # A writable path leaves no file behind while the search runs.
    cache = tmp_path / "c.txt"
    monkeypatch.setattr(
        certificate, "scan_generator_block", lambda *a: tested.append(cache.exists()) or []
    )
    assert run_cli("search", "--bound", "1000000", "--cache", str(cache))[0] == EXIT_OK
    assert tested == [False] * 5 and cache.read_text() == "upto 1000000\n"


def test_search_through_a_dangling_symlink_keeps_the_link(tmp_path, monkeypatch):
    """The writability probe removes the file it made, the link's target,
    and the mark lands there; the link itself stays a link."""
    import descente.certificate as certificate

    link, target = tmp_path / "link.txt", tmp_path / "target.txt"
    link.symlink_to(target.name)
    tested = []
    monkeypatch.setattr(
        certificate, "scan_generator_block", lambda *a: tested.append(target.exists()) or []
    )
    assert run_cli("search", "--bound", "1000000", "--cache", str(link))[0] == EXIT_OK
    assert tested == [False] * 5
    assert link.is_symlink() and target.read_text() == "upto 1000000\n"


@pytest.mark.parametrize(
    "content",
    [
        b"upto x\n",
        b"2 1 x done\n",
        b"\xff\xfeupto 100000\n\x80 9\n",
        b"erow 1000 100000 done\n",
        b"row 1000 100000 done\n",
        b"12 5 done\n",
        b"upto 100000 done\n",
        b"upto 100000 \n",
        b"upto " + b"1" * 5000 + b"\n",
        "upto \u0661\u0660\u0660\u0660\n".encode(),
    ],
    ids=["bad-number", "old-bad-number", "not-utf8", "erow", "row", "p-q", "upto-done",
         "upto-space", "too-long", "arabic-indic"],
)
def test_search_ignores_unparsable_cache_lines(tmp_path, content):
    cache = tmp_path / "cache.txt"
    cache.write_bytes(content)
    code, lines = run_cli("search", "--bound", "400", "--format", "jsonl", "--cache", str(cache))
    assert code == EXIT_OK
    assert records(lines) == [{"record": "footer", "bound": 400, "count": 0}]
    # No line is an `upto` mark, so the run searches and appends its own.
    assert cache.read_bytes() == content + b"upto 400\n"


def test_search_ends_cut_off_cache_line(tmp_path):
    cache = tmp_path / "cache.txt"
    # The new mark starts a line of its own instead of extending the last
    # one.  A cut-off mark is a digit prefix, so it reads as less than its
    # run covered: `upto 12` of `upto 1234` covers no bound above 12.
    for cut in (b"1", b"upto 12"):
        cache.write_bytes(cut)
        code, _ = run_cli("search", "--bound", "200", "--cache", str(cache))
        assert code == EXIT_OK
        assert cache.read_bytes() == cut + b"\nupto 200\n"


def test_search_bad_bound_or_format_exits_64(tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    assert run_cli("search", "--bound", "0", "--cache", str(cache)) == (EXIT_USAGE, [])
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: descente search")
    assert err[1:] == ["descente: error: bound must be >= 1"]
    assert not cache.exists()
    assert run_cli("search", "--bound", "5", "--format", "xml") == (EXIT_USAGE, [])
    err = capsys.readouterr().err
    assert err.startswith("usage: descente search")
    assert "argument --format: invalid choice: 'xml'" in err
    assert run_cli("search", "--bound") == (EXIT_USAGE, [])
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: descente search")
    assert err[1:] == ["descente: error: argument --bound: expected one argument"]


def test_search_bound_above_the_limit_exits_64(tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    argv = ("search", "--bound", str(10**28 + 1), "--cache", str(cache))
    assert run_cli(*argv) == (EXIT_USAGE, [])
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: descente search")
    assert err[1:] == [f"descente: error: bound must be <= {10**28}"]
    assert not cache.exists()


def test_search_accepts_its_own_limit(tmp_path, monkeypatch, capsys):
    import descente.certificate as certificate

    monkeypatch.setattr(certificate, "MAX_BOUND", 10**6)
    assert run_cli("search", "--bound", "1000000")[0] == EXIT_OK
    cache = tmp_path / "cache.txt"
    assert run_cli("search", "--bound", "1000001", "--cache", str(cache)) == (EXIT_USAGE, [])
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: descente search")
    assert err[1:] == ["descente: error: bound must be <= 1000000"]
    assert not cache.exists()


def test_search_removed_options_exit_64():
    assert run_cli("search", "--bound", "300", "--workers", "2") == (EXIT_USAGE, [])
    assert run_cli("search", "--bound", "300", "--weight-mode", "walsh") == (EXIT_USAGE, [])


def test_search_resume_keeps_found_counterexample(tmp_path, monkeypatch):
    import descente.certificate as certificate

    scan = certificate.scan_generator_block

    def planted(p, q, bound_x2):
        return [(3, 4, 5, 1)] if (p, q) == (16, 9) else scan(p, q, bound_x2)

    monkeypatch.setattr(certificate, "scan_generator_block", planted)
    cache = tmp_path / "cache.txt"
    for _ in range(2):
        argv = ("search", "--bound", "400", "--format", "jsonl", "--cache", str(cache))
        code, lines = run_cli(*argv)
        assert code == EXIT_COUNTEREXAMPLE
        assert records(lines) == [
            {"record": "solution", "x0": 3, "x1": 4, "x2": 5, "x3": 1},
            {"record": "footer", "bound": 400, "count": 1},
        ]
        assert not cache.exists()  # no mark, so the next run searches again


def test_search_prints_a_planted_hit_in_text(monkeypatch):
    """A hit prints one `counterexample:` line per solution before the
    footer, and the search exits 2."""
    import descente.certificate as certificate

    scan = certificate.scan_generator_block
    hits = [(3, 4, 5, 1), (6, 8, 10, 2)]
    monkeypatch.setattr(
        certificate, "scan_generator_block",
        lambda p, q, bound_x2: hits if (p, q) == (16, 9) else scan(p, q, bound_x2),
    )
    code, lines = run_cli("search", "--bound", "400")
    assert code == EXIT_COUNTEREXAMPLE
    assert lines[:-1] == ["counterexample: (3, 4, 5, 1)", "counterexample: (6, 8, 10, 2)"]
    assert re.fullmatch(r"bound 400: 2 counterexample\(s\) in [0-9.]+s", lines[-1])


# ---------------------------------------------------------------------------
# descent


def test_descent_pentagon():
    code, lines = run_cli("descent", "pentagon", "8", "5")
    assert code == EXIT_OK
    assert lines[-1] == "outcome: step-undefined"
    assert len(lines) == 4  # three entries + outcome


@pytest.mark.parametrize(
    "argv, lines",
    [
        # 2:1 claims the golden proportion (1 <= n <= m), but m = 2n lies
        # outside the open window n < m < 2n, so no step is defined.
        ("descent pentagon 2 1", ["  weight 2  proportion 2:1", "outcome: step-undefined"]),
        # The start 0 is a natural, and (0, 0) is in the gcd base.
        ("descent gcd 0 0", ["  weight 0  pair (0, 0)", "outcome: predicate-holds"]),
    ],
)
def test_descent_ends_at_its_start(argv, lines):
    assert run_cli(*argv.split()) == (EXIT_OK, lines)


def test_descent_vii31_360_ends_at_2():
    code, lines = run_cli("descent", "vii31", "360")
    assert code == EXIT_OK
    assert lines[-1] == "outcome: predicate-holds"
    assert "2 (prime)" in lines[-2]


def test_descent_jsonl_round_trip():
    code, lines = run_cli("descent", "vii31", "360", "--format", "jsonl")
    assert code == EXIT_OK
    assert [json.dumps(json.loads(line)) for line in lines] == lines
    walk = [(360, "360"), (72, "72"), (24, "24"), (8, "8"), (4, "4"), (2, "2 (prime)")]
    assert records(lines) == [
        *({"record": "trace-entry", "instance": "vii31", "value": v, "weight": v, "label": label}
          for v, label in walk),
        {"record": "trace", "instance": "vii31", "outcome": "predicate-holds", "entries": 6},
    ]


def test_descent_gcd():
    code, lines = run_cli("descent", "gcd", "12", "9")
    assert code == EXIT_OK
    assert lines[-1] == "outcome: predicate-holds"


def test_descent_fermat_prints_guard_and_certificate_pointer():
    code, lines = run_cli("descent", "fermat", "3", "4", "5", "1")
    assert code == EXIT_OK
    assert lines[0].startswith("guard rejection:")
    assert "vacuity" in lines[1]
    code, lines = run_cli("descent", "walsh", "3", "4", "5", "1")
    assert code == EXIT_OK
    assert lines[0].startswith("guard rejection:")


def test_descent_fermat_guard_rejects_a_non_triple_with_square_area():
    """x0*x1 = 2 = 2*1^2, but 1 + 4 != 49: no counterexample, no step."""
    code, lines = run_cli("descent", "fermat", "1", "2", "7", "1")
    assert code == EXIT_OK
    assert lines[0].startswith("guard rejection: (1, 2, 7, 1) is not a counterexample")


def test_guard_pointer_and_readme_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, lines = run_cli("descent", "fermat", "3", "4", "5", "1")
    pointed = re.findall(r"`([^`]*)`", lines[1])
    assert len(pointed) == 2
    for command in pointed:
        assert run_cli(*command.replace("N", "100").split())[0] == EXIT_OK, command
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "descente"]
    assert len(commands) >= 10
    for argv in commands:
        assert run_cli(*argv[1:])[0] == EXIT_OK, argv


@pytest.mark.parametrize("instance", ["fermat", "walsh"])
def test_descent_guard_rejection_jsonl(instance):
    code, lines = run_cli("descent", instance, "3", "4", "5", "1", "--format", "jsonl")
    assert code == EXIT_OK
    assert [json.loads(line) for line in lines] == [
        {"record": "guard-rejection", "instance": instance, "x0": 3, "x1": 4, "x2": 5, "x3": 1}
    ]
    assert list(json.loads(lines[0])) == ["record", "instance", "x0", "x1", "x2", "x3"]


def test_descent_walsh_runs_the_walsh_family():
    from descente.descent_engine import INSTANCES, run_descent
    from descente.fermat import CandidateSolution, encode_walsh_candidate, walsh_start_weight

    inst, start = INSTANCES["walsh"][1]([3, 4, 5, 1])
    assert inst.name == "walsh"
    assert start == encode_walsh_candidate(CandidateSolution(3, 4, 5, 1))
    trace = run_descent(inst, start, 10)
    assert trace.outcome == "predicate-holds"
    assert [(e.weight, e.label) for e in trace.entries] == [
        (walsh_start_weight(5, 1), "candidate (3, 4, 5, 1)")
    ]


def test_descent_vii31_beyond_prime_limit_exits_65(capsys):
    code, lines = run_cli("descent", "vii31", "10000000000000000000000000000000000057")
    assert (code, lines) == (EXIT_PRECONDITION, [])
    assert capsys.readouterr().err.startswith("precondition failure:")


@pytest.mark.parametrize("instance", ["gcd", "pentagon"])
def test_descent_jsonl_just_below_the_start_limit(instance, capsys):
    """Every Cantor code of a start below 10**2000 fits in the digits that
    int() converts to str; 10**2000 itself is rejected before any walk."""
    top = 10**2000 - 1
    code, lines = run_cli("descent", instance, str(top), str(top - 1), "--format", "jsonl")
    assert code == EXIT_OK
    assert records(lines)[-1]["record"] == "trace"
    assert run_cli("descent", instance, str(top + 1), "1") == (EXIT_USAGE, [])
    err = capsys.readouterr().err
    assert err.endswith("\ndescente: error: start values must be below 10**2000\n")


def test_the_step_cap_never_ends_a_descent_walk(monkeypatch):
    """The deepest walk `descent` takes below its start limit, gcd from the
    two largest consecutive Fibonacci numbers below 10**2000 (the smaller
    first, so the walk begins with a swap), ends where its predicate holds,
    within the step cap that the command passes.  The walk is rebuilt from
    the arguments the command gave run_descent, so that 9,571 trace lines
    need not be rendered."""
    from descente import descent_engine
    from descente.descent_engine import START_LIMIT, pair_decode, pair_encode, run_descent

    small, large = 1, 2
    while small + large < START_LIMIT:
        small, large = large, small + large
    calls = []

    def spy(inst, start, max_steps):
        calls.append((inst, start, max_steps))
        return run_descent(inst, pair_encode(1, 0), max_steps)

    monkeypatch.setattr(descent_engine, "run_descent", spy)
    assert run_cli("descent", "gcd", str(small), str(large))[0] == EXIT_OK
    ((inst, start, max_steps),) = calls
    assert pair_decode(start) == (small, large)
    trace = run_descent(inst, start, max_steps)
    assert (trace.outcome, len(trace.entries)) == ("predicate-holds", 9571)


@pytest.mark.parametrize(
    "argv, command, message",
    [
        ("check id vii31 0", "check", "bound must be >= 1"),
        ("check rd gcd 0", "check", "bound must be >= 1"),
        ("triples 0", "triples", "max_x2 must be >= 1"),
    ],
)
def test_a_bound_below_1_exits_64_with_the_usage_line(argv, command, message, capsys):
    assert run_cli(*argv.split()) == (EXIT_USAGE, [])
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: descente {command} [-h]")
    assert err[1:] == [f"descente: error: {message}"]


def test_descent_unknown_instance_exits_64():
    code, _ = run_cli("descent", "unknown", "3")
    assert code == EXIT_USAGE


def test_descent_wrong_arity_exits_64():
    code, _ = run_cli("descent", "pentagon", "8")
    assert code == EXIT_USAGE


_GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", list(_GOLDEN))
def test_checks_and_descents_match_golden_output(command, capsys):
    """Exit code and stdout, byte for byte, of each schema check and each
    descent kind (walks, guard rejections) in text and jsonl, as recorded in
    golden_cli.json; nothing on stderr."""
    out = io.StringIO()
    code = main(command.split(), out=out)
    want = _GOLDEN[command]
    assert (code, out.getvalue()) == (want["exit"], "".join(f"{line}\n" for line in want["stdout"]))
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# check


def test_check_id_vii31_10000():
    code, lines = run_cli("check", "id", "vii31", "10000")
    assert code == EXIT_OK
    assert lines[-1].endswith("ok")


@pytest.mark.parametrize(
    "argv, last",
    [
        ("check id vii31 1", "id check of 'vii31' up to 1: ok"),
        # The gcd bound is over pair components: pair_encode(1, 1) = 4.
        ("check rd gcd 1", "rd check of 'gcd' up to 4: ok"),
        ("check idprime walsh 100000000000", "idprime check of 'walsh' up to 100000000000: ok"),
    ],
)
def test_check_runs_at_bound_1_and_at_its_limit(argv, last):
    assert run_cli(*argv.split()) == (EXIT_OK, [last])


def test_check_rd_gcd_200():
    code, lines = run_cli("check", "rd", "gcd", "200")
    assert code == EXIT_OK


def test_check_idprime_walsh_500_jsonl_round_trip():
    code, lines = run_cli("check", "idprime", "walsh", "500", "--format", "jsonl")
    assert code == EXIT_OK
    assert [json.dumps(json.loads(line)) for line in lines] == lines
    assert records(lines) == [
        {"record": "report", "schema": "idprime", "instance": "walsh", "bound": 500,
         "failures": 0, "ok": True},
    ]


def test_check_id_fermat_has_no_weight_mode(capsys):
    assert run_cli("check", "id", "fermat", "2000")[0] == EXIT_OK
    capsys.readouterr()
    for argv in (
        ("check", "id", "fermat", "2000", "--weight-mode", "walsh"),
        ("descent", "pentagon", "8", "5", "--weight-mode", "modern"),
    ):
        assert run_cli(*argv) == (EXIT_USAGE, [])
        err = capsys.readouterr().err
        assert f"descente: error: unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_check_unknown_instance_exits_64():
    code, _ = run_cli("check", "id", "nosuch", "100")
    assert code == EXIT_USAGE
    code, _ = run_cli("check", "rd", "walsh", "100")
    assert code == EXIT_USAGE


def test_check_bad_schema_exits_64():
    code, _ = run_cli("check", "xyz", "vii31", "100")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# decompose


def test_decompose_triple_worked_example():
    code, lines = run_cli("decompose", "triple", "12", "9", "15")
    assert code == EXIT_OK
    assert lines[0].startswith("i=0 a=12 b=3")
    assert "common factor 3" in lines[0]


def test_decompose_two_square():
    code, lines = run_cli("decompose", "two-square", "7", "4", "9")
    assert code == EXIT_OK
    assert lines == ["m=2 k=1"]


def test_decompose_frenicle():
    code, lines = run_cli("decompose", "frenicle", "4", "3", "5", "2")
    assert code == EXIT_OK
    assert lines == ["m=1 k=1"]


def test_decompose_parse_failure_exits_64():
    code, _ = run_cli("decompose", "triple", "12", "x", "15")
    assert code == EXIT_USAGE
    code, _ = run_cli("decompose", "triple", "12", "-9", "15")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, count",
    [
        ("decompose triple 3 4", 3),
        ("decompose triple 3 4 5 6", 3),
        ("decompose two-square 7 4", 3),
        ("decompose two-square 7 4 9 1", 3),
        ("decompose frenicle 4 3 5", 4),
        ("decompose frenicle 4 3 5 2 1", 4),
        # the count is checked before the signs
        ("decompose triple -1 2", 3),
    ],
)
def test_decompose_wrong_value_count_exits_64(argv, count, capsys):
    assert run_cli(*argv.split()) == (EXIT_USAGE, [])
    kind = argv.split()[1]
    assert capsys.readouterr().err == (
        "usage: descente decompose [-h] {triple,two-square,frenicle} [values ...]\n"
        f"descente: error: decompose {kind} takes {count} values\n"
    )


def test_decompose_precondition_failure_exits_65():
    code, _ = run_cli("decompose", "triple", "12", "9", "16")
    assert code == EXIT_PRECONDITION
    code, _ = run_cli("decompose", "frenicle", "4", "3", "5", "3")
    assert code == EXIT_PRECONDITION


# (3, 4, 5) and (1, 2, 3), a solution of x0^2 + 2*x1^2 = x2^2, times 2P^2,
# where P = 10000000000037 is prime and P^2 is beyond the proven prime range.
_BIG_345 = "600000000004440000000008214 800000000005920000000010952 1000000000007400000000013690"
_BIG_123 = "200000000001480000000002738 400000000002960000000005476 600000000004440000000008214"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (f"decompose triple {_BIG_345}", EXIT_OK,
         ["i=0 a=900000000006660000000012321 b=100000000000740000000001369"
          "  (non-primitive, common factor 2)"], ""),
        (f"decompose frenicle {_BIG_345} 2", EXIT_PRECONDITION, [],
         f"precondition failure: ({_BIG_345.replace(' ', ', ')}) shares the prime factor 2\n"),
        (f"decompose two-square {_BIG_123}", EXIT_PRECONDITION, [],
         f"precondition failure: ({_BIG_123.replace(' ', ', ')}) shares the prime factor 2\n"),
        # Not a solution of the two-square equation: that is reported first.
        (f"decompose two-square {_BIG_345}", EXIT_PRECONDITION, [],
         "precondition failure: 600000000004440000000008214^2 + 2*800000000005920000000010952^2"
         " != 1000000000007400000000013690^2\n"),
    ],
    ids=["triple", "frenicle", "two-square", "two-square-not-a-solution"],
)
def test_decompose_finds_a_small_common_factor_beside_a_cofactor_it_cannot_factor(
    argv, code, out, err, capsys
):
    assert run_cli(*argv.split()) == (code, out)
    assert capsys.readouterr().err == err


def test_unknown_command_exits_64():
    code, _ = run_cli("nosuchcmd")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        "",
        "nosuchcmd",
        "search",
        "search --bound x",
        "search --bound 5 --format xml",
        "check id vii31 100 200",
        "check id fermat 2000 --weight-mode walsh",
        "decompose triple 12 -9 15",
        "check xyz vii31 100",
        "descent unknown 3",
        "descent pentagon 8",
        "check rd walsh 100",
        "decompose triple 3 4",
        "search --bound 0",
        f"search --bound {10**28 + 1}",
        f"check id vii31 {2 * 10**7 + 1}",
        f"check rd vii31 {2 * 10**7 + 1}",
        "check rd gcd 3001",
        f"check id fermat {10**11 + 1}",
        f"check idprime walsh {10**11 + 1}",
        pytest.param(
            f"descent gcd {10**2999} {10**2999 + 1} --format jsonl",
            id="descent gcd 10**2999 10**2999+1 --format jsonl",
        ),
    ],
)
def test_usage_error_prints_usage_and_one_error_line(argv, capsys):
    assert run_cli(*argv.split()) == (EXIT_USAGE, [])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: descente")
    assert [line.startswith("descente: error: ") for line in captured.err.splitlines()] == [
        False,
        True,
    ]


@pytest.mark.parametrize(
    "argv, error",
    [
        ("decompose triple 12 -9 15", "values must be naturals"),
        ("descent gcd -1 5", "start values must be naturals"),
    ],
)
def test_negative_number_is_a_value_not_an_option(argv, error, capsys):
    assert run_cli(*argv.split()) == (EXIT_USAGE, [])
    assert capsys.readouterr().err.endswith(f"\ndescente: error: {error}\n")


@pytest.mark.parametrize("command", ["", "triples", "search", "descent", "check", "decompose"])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_and_exits_0(command, flag, capsys):
    code, lines = run_cli(*command.split(), flag)
    assert code == EXIT_OK
    assert lines[0].startswith(f"usage: descente {command}".rstrip() + " [-h]")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        "triples 15 --format jsonl",
        "descent vii31 360 --format jsonl",
        "descent walsh 3 4 5 1 --format jsonl",
        "check idprime walsh 500 --format jsonl",
    ],
)
def test_option_equals_value_is_the_same_as_option_space_value(argv):
    assert run_cli(*argv.replace(" --format jsonl", " --format=jsonl").split()) == run_cli(
        *argv.split()
    )


def test_search_bound_equals_value_and_no_option_prefix():
    code, lines = run_cli("search", "--bound=500", "--format=jsonl")
    assert code == EXIT_OK
    assert records(lines) == [{"record": "footer", "bound": 500, "count": 0}]
    assert run_cli("search", "--bou", "500") == (EXIT_USAGE, [])
    assert run_cli("triples", "5", "--primitive") == (EXIT_USAGE, [])


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_IO, EXIT_COUNTEREXAMPLE, EXIT_USAGE, EXIT_PRECONDITION}) == 5


# ---------------------------------------------------------------------------
# a failed write of the output


def _child_env(unbuffered: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize(
    "argv",
    [("search", "--bound", "10"), ("descent", "gcd", "89", "55"), ("triples", "100000"),
     ("-h",), ("search", "--bound", "10", "--cache", "{tmp}/c.txt")],
    ids=" ".join,
)
def test_a_failed_write_of_the_output_exits_1_with_one_line(argv, sink, unbuffered, tmp_path):
    """A full device or a pipe with no reader exits 1 with one `write error:`
    line and no traceback, whether stdout is buffered (the error comes from
    the flush after main) or not (it comes from a print inside main).  The
    help text and a search that writes its cache fail the same way: main
    writes its output after the try that turns the cache's errors into
    `cache error:`."""
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full on this system")
        stdout = os.open(sink, os.O_WRONLY)
    else:
        read, stdout = os.pipe()
        os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "descente.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, env=_child_env(unbuffered), text=True,
            timeout=60,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("write error: "), lines


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_is_not_a_write_error(unbuffered):
    """Started with fd 1 closed, the process has no sys.stdout: print writes
    nothing and run has nothing to flush, so search exits 0 in silence."""
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m descente.cli search --bound 10 >&-', sys.executable],
        stderr=subprocess.PIPE, env=_child_env(unbuffered), text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
