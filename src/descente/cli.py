"""Command-line surface: triples, search, descent, check, decompose.

Exit codes are stable and documented:
  0   success (and, for `search`, theorem upheld: nothing found)
  1   I/O error (for example an unwritable cache path)
  2   `search` found a counterexample (a bug by theorem; CI must fail loudly)
  64  usage error (unknown command, instance, or malformed arguments)
  65  precondition failure in `decompose` or `descent` (valid numbers,
      invalid data, or a walk that needs a prime beyond the proven range)

JSON-lines output is UTF-8, one object per line, keys in fixed order; every
record type round-trips through its parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import DomainError

# Each command imports the package modules it uses when it runs, so that a
# command loads, and compiles, no module it does not use.

EXIT_OK = 0
EXIT_IO = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_USAGE = 64
EXIT_PRECONDITION = 65


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# triples


def triple_record(t: PythTriple, p: int, q: int, factor: int) -> dict:
    lo, hi = sorted(t.legs())
    return {
        "record": "triple",
        "x0": lo,
        "x1": hi,
        "x2": t.x2,
        "p": p,
        "q": q,
        "factor": factor,
        "primitive": factor == 1,
    }


def parse_triple_record(line: str) -> dict:
    rec = json.loads(line)
    if rec.get("record") != "triple":
        raise ValueError(f"not a triple record: {line!r}")
    return rec


def cmd_triples(max_x2: int, primitive_only: bool, fmt: str, out) -> int:
    from .diophantine import PythTriple, primitive_triples_up_to

    rows = []
    for t, g in primitive_triples_up_to(max_x2):
        top = 1 if primitive_only else max_x2 // t.x2
        for d in range(1, top + 1):
            scaled = PythTriple(t.x0 * d, t.x1 * d, t.x2 * d)
            rows.append((scaled, g, d))
    rows.sort(key=lambda r: (r[0].x2, min(r[0].legs())))
    for t, g, d in rows:
        rec = triple_record(t, g.p, g.q, d)
        if fmt == "jsonl":
            print(json.dumps(rec), file=out)
        else:
            line = f"({rec['x0']}, {rec['x1']}, {rec['x2']})  p={g.p} q={g.q}"
            if d != 1:
                line += f"  non-primitive, factor {d}"
            print(line, file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


def solution_record(solution: tuple[int, int, int, int]) -> dict:
    x0, x1, x2, x3 = solution
    return {"record": "solution", "x0": x0, "x1": x1, "x2": x2, "x3": x3}


def footer_record(bound: int, count: int, elapsed: float) -> dict:
    return {"record": "footer", "bound": bound, "count": count, "elapsed": elapsed}


def parse_search_record(line: str) -> dict:
    rec = json.loads(line)
    if rec.get("record") not in ("solution", "footer"):
        raise ValueError(f"not a search record: {line!r}")
    return rec


def cmd_search(bound: int, fmt: str, cache_path: str | None, out) -> int:
    from .certificate import search

    start = time.monotonic()
    try:
        found = search(bound, cache_path)
    except OSError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_IO
    elapsed = round(time.monotonic() - start, 3)
    footer = footer_record(bound, len(found), elapsed)
    if fmt == "jsonl":
        for c in found:
            print(json.dumps(solution_record(c)), file=out)
        print(json.dumps(footer), file=out)
    else:
        for x0, x1, x2, x3 in found:
            print(f"counterexample: ({x0}, {x1}, {x2}, {x3})", file=out)
        print(
            f"bound {footer['bound']}: {footer['count']} counterexample(s) "
            f"in {footer['elapsed']}s",
            file=out,
        )
    return EXIT_COUNTEREXAMPLE if found else EXIT_OK


# ---------------------------------------------------------------------------
# instance registry


class _Instance:
    """A named instance: its start-value count, a trace factory taking the
    start values to (instance, encoded start), and a report factory per
    schema taking the bound."""

    __slots__ = ("arity", "trace", "checks")

    def __init__(self, arity: int, trace, checks: dict):
        self.arity, self.trace, self.checks = arity, trace, checks


def instances() -> dict[str, _Instance]:
    """The registry of named instances, keyed by name.  Only the fermat and
    walsh entries import descente.fermat, when they run."""
    from .descent_engine import (
        check_id,
        check_id_prime,
        check_rd,
        gcd_instance,
        gcd_trace_instance,
        pair_encode,
        pentagon_instance,
        vii31_instance,
        vii31_rd_instance,
        vii31_trace_instance,
    )

    def fermat_trace(values: list[int]) -> tuple[object, int]:
        from .fermat import CandidateSolution, encode_candidate, fermat_instance

        return fermat_instance(), encode_candidate(CandidateSolution(*values))

    def fermat_id(bound: int):
        from .fermat import fermat_instance

        return check_id(fermat_instance(), bound)

    def walsh_trace(values: list[int]) -> tuple[object, int]:
        from .fermat import CandidateSolution, encode_walsh_candidate, walsh_trace_instance

        return walsh_trace_instance(), encode_walsh_candidate(CandidateSolution(*values))

    def walsh_idprime(bound: int):
        from .fermat import walsh_family

        return check_id_prime(walsh_family(), bound)

    return {
        "pentagon": _Instance(2, lambda v: (pentagon_instance(), pair_encode(*v)), {}),
        "vii31": _Instance(
            1,
            lambda v: (vii31_trace_instance(), v[0]),
            {
                "id": lambda bound: check_id(vii31_instance(), bound),
                "rd": lambda bound: check_rd(vii31_rd_instance(), bound),
            },
        ),
        "gcd": _Instance(
            2,
            lambda v: (gcd_trace_instance(), pair_encode(*v)),
            # The bound is over pair components, translated to the Cantor encoding.
            {"rd": lambda bound: check_rd(gcd_instance(), pair_encode(bound, bound))},
        ),
        "fermat": _Instance(4, fermat_trace, {"id": fermat_id}),
        "walsh": _Instance(4, walsh_trace, {"idprime": walsh_idprime}),
    }


# ---------------------------------------------------------------------------
# descent traces


def cmd_descent(name: str, values: list[int], fmt: str, out) -> int:
    from .descent_engine import run_descent

    entry = instances().get(name)
    if entry is None:
        print(f"unknown instance {name!r}", file=sys.stderr)
        return EXIT_USAGE
    if len(values) != entry.arity:
        print(f"instance {name!r} takes {entry.arity} start value(s)", file=sys.stderr)
        return EXIT_USAGE
    inst, start = entry.trace(values)
    # A fermat or walsh descent starts only from a counterexample, which the
    # theorem rules out; it is wired anyway so a falsifying input descends.
    if name in ("fermat", "walsh") and inst.predicate(start):
        x0, x1, x2, x3 = values
        if fmt == "jsonl":
            rec = {
                "record": "guard-rejection",
                "instance": name,
                "x0": x0,
                "x1": x1,
                "x2": x2,
                "x3": x3,
            }
            print(json.dumps(rec), file=out)
            return EXIT_OK
        print(
            f"guard rejection: ({x0}, {x1}, {x2}, {x3}) is not a "
            "counterexample (needs positive legs, x0^2 + x1^2 = x2^2 and "
            "x0*x1 = 2*x3^2)",
            file=out,
        )
        print(
            "no descent to run; see `check id fermat N` and "
            "`search --bound N` for the vacuity certificates",
            file=out,
        )
        return EXIT_OK
    try:
        trace = run_descent(inst, start, max_steps=10_000)
    except DomainError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    lines = trace.to_jsonl() if fmt == "jsonl" else trace.to_text()
    for line in lines:
        print(line, file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# schema checks


def cmd_check(schema: str, name: str, bound: int, fmt: str, out) -> int:
    registry = instances()
    factory = registry[name].checks.get(schema) if name in registry else None
    if factory is None:
        print(f"no registered {schema} instance named {name!r}", file=sys.stderr)
        return EXIT_USAGE
    report = factory(bound)
    lines = report.to_jsonl() if fmt == "jsonl" else report.to_text()
    for line in lines:
        print(line, file=out)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# decompositions


def cmd_decompose(kind: str, values: list[int], out) -> int:
    from .core_arith import common_prime_witness
    from .diophantine import (
        PythTriple,
        decompose_primitive_two_square,
        decompose_sum_of_squares,
        frenicle_xxxviii,
    )

    # argparse's choices have already rejected an unknown kind.
    arity = {"triple": 3, "two-square": 3, "frenicle": 4}
    if len(values) != arity[kind]:
        print(f"decompose {kind} takes {arity[kind]} values", file=sys.stderr)
        return EXIT_USAGE
    try:
        if kind == "triple":
            t = PythTriple(values[0], values[1], values[2])
            i, a, b = decompose_sum_of_squares(t)
            line = f"i={i} a={a} b={b}"
            z = common_prime_witness([t.x0, t.x1, t.x2]) if t.x2 else None
            if z is not None:
                line += f"  (non-primitive, common factor {z})"
            print(line, file=out)
        elif kind == "two-square":
            m, k = decompose_primitive_two_square(values[0], values[1], values[2])
            print(f"m={m} k={k}", file=out)
        else:
            t = PythTriple(values[0], values[1], values[2])
            m, k = frenicle_xxxviii(t, values[3])
            print(f"m={m} k={k}", file=out)
    except DomainError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="descente", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triples", parents=[], help="enumerate Pythagorean triples")
    p.add_argument("max_x2", type=int)
    p.add_argument("--primitive-only", action="store_true")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("search", help="exhaustive square-area counterexample search")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.add_argument("--cache", default=None)

    p = sub.add_parser("descent", help="run and print one descent trace")
    p.add_argument("instance")
    p.add_argument("values", type=int, nargs="*")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("check", help="bounded schema-obligation check")
    p.add_argument("schema", choices=("id", "rd", "idprime"))
    p.add_argument("instance")
    p.add_argument("bound", type=int)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("decompose", help="triple / two-square / frenicle decompositions")
    p.add_argument("kind", choices=("triple", "two-square", "frenicle"))
    p.add_argument("values", type=int, nargs="*")

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        if args.command == "triples":
            if args.max_x2 < 1:
                parser.error("max_x2 must be >= 1")
            return cmd_triples(args.max_x2, args.primitive_only, args.format, out)
        if args.command == "search":
            cache = args.cache or os.environ.get("DESCENTE_CACHE") or None
            return cmd_search(args.bound, args.format, cache, out)
        if args.command == "descent":
            if any(v < 0 for v in args.values):
                parser.error("start values must be naturals")
            return cmd_descent(args.instance, args.values, args.format, out)
        if args.command == "check":
            if args.bound < 1:
                parser.error("bound must be >= 1")
            return cmd_check(args.schema, args.instance, args.bound, args.format, out)
        if args.command == "decompose":
            if any(v < 0 for v in args.values):
                parser.error("values must be naturals")
            return cmd_decompose(args.kind, args.values, out)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
