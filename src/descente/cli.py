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


class UsageError(Exception):
    """A malformed command line; main prints the command's usage before it."""


def _jsonl(record: dict) -> str:
    import json  # only JSONL output loads json

    return json.dumps(record)


# ---------------------------------------------------------------------------
# triples


def triple_record(t: PythTriple, p: int, q: int, factor: int) -> dict:
    lo, hi = sorted(t.legs())
    return dict(
        record="triple", x0=lo, x1=hi, x2=t.x2, p=p, q=q, factor=factor, primitive=factor == 1
    )


def parse_triple_record(line: str) -> dict:
    import json

    rec = json.loads(line)
    if rec.get("record") != "triple":
        raise ValueError(f"not a triple record: {line!r}")
    return rec


def cmd_triples(max_x2: int, primitive_only: bool, fmt: str, out) -> int:
    if max_x2 < 1:
        raise UsageError("max_x2 must be >= 1")

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
            print(_jsonl(rec), file=out)
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
    import json

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
            print(_jsonl(solution_record(c)), file=out)
        print(_jsonl(footer), file=out)
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
        pair_encode,
        pentagon_instance,
        vii31_instance,
        vii31_rd_instance,
        walk_to_base,
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
            lambda v: (walk_to_base(vii31_rd_instance(), "vii31"), v[0]),
            {
                "id": lambda bound: check_id(vii31_instance(), bound),
                "rd": lambda bound: check_rd(vii31_rd_instance(), bound),
            },
        ),
        "gcd": _Instance(
            2,
            lambda v: (walk_to_base(gcd_instance(), "gcd"), pair_encode(*v)),
            # The bound is over pair components, translated to the Cantor encoding.
            {"rd": lambda bound: check_rd(gcd_instance(), pair_encode(bound, bound))},
        ),
        "fermat": _Instance(4, fermat_trace, {"id": fermat_id}),
        "walsh": _Instance(4, walsh_trace, {"idprime": walsh_idprime}),
    }


# ---------------------------------------------------------------------------
# descent traces


def cmd_descent(name: str, values: list[int], fmt: str, out) -> int:
    if any(v < 0 for v in values):
        raise UsageError("start values must be naturals")

    from .descent_engine import run_descent

    entry = instances().get(name)
    if entry is None:
        raise UsageError(f"unknown instance {name!r}")
    if len(values) != entry.arity:
        raise UsageError(f"instance {name!r} takes {entry.arity} start value(s)")
    inst, start = entry.trace(values)
    # A fermat or walsh descent starts only from a counterexample, which the
    # theorem rules out; it is wired anyway so a falsifying input descends.
    if name in ("fermat", "walsh") and inst.predicate(start):
        x0, x1, x2, x3 = values
        if fmt == "jsonl":
            rec = dict(record="guard-rejection", instance=name, x0=x0, x1=x1, x2=x2, x3=x3)
            print(_jsonl(rec), file=out)
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
    if bound < 1:
        raise UsageError("bound must be >= 1")

    registry = instances()
    factory = registry[name].checks.get(schema) if name in registry else None
    if factory is None:
        raise UsageError(f"no registered {schema} instance named {name!r}")
    report = factory(bound)
    lines = report.to_jsonl() if fmt == "jsonl" else report.to_text()
    for line in lines:
        print(line, file=out)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# decompositions


# Each decompose kind and the number of values it takes.
DECOMPOSE_ARITY = {"triple": 3, "two-square": 3, "frenicle": 4}


def cmd_decompose(kind: str, values: list[int], out) -> int:
    if any(v < 0 for v in values):
        raise UsageError("values must be naturals")

    from .core_arith import common_prime_witness
    from .diophantine import (
        PythTriple,
        decompose_primitive_two_square,
        decompose_sum_of_squares,
        frenicle_xxxviii,
    )

    # parse's choices have already rejected an unknown kind.
    if len(values) != DECOMPOSE_ARITY[kind]:
        raise UsageError(f"decompose {kind} takes {DECOMPOSE_ARITY[kind]} values")
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


REQUIRED = object()
FORMAT = {"--format": (("text", "jsonl"), "text", "text or jsonl (default: text)")}

# Each command: the function that runs it, which takes its positionals and
# then its options in this order, and then out; its help line; its
# positionals as (name, type or choices), where list takes every remaining
# value as an int; and its options as name: (type or choices, default, help
# line), where bool makes a flag.
COMMANDS = {
    "triples": (cmd_triples, "enumerate Pythagorean triples", [("max_x2", int)],
                {"--primitive-only": (bool, False, "primitive triples only"), **FORMAT}),
    "search": (cmd_search, "exhaustive square-area counterexample search", [],
               {"--bound": (int, REQUIRED, "search every x2 <= BOUND"), **FORMAT,
                "--cache": (str, None, "resume file")}),
    "descent": (cmd_descent, "run and print one descent trace",
                [("instance", str), ("values", list)], FORMAT),
    "check": (cmd_check, "bounded schema-obligation check",
              [("schema", ("id", "rd", "idprime")), ("instance", str), ("bound", int)], FORMAT),
    "decompose": (cmd_decompose, "triple / two-square / frenicle decompositions",
                  [("kind", tuple(DECOMPOSE_ARITY)), ("values", list)], {}),
}


def _metavar(name: str, kind) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(kind) + "}"
    return f"[{name} ...]" if kind is list else name.lstrip("-").upper() if name[0] == "-" else name


def _option(name: str, spec: tuple) -> str:
    kind, default, _ = spec
    word = name if kind is bool else f"{name} {_metavar(name, kind)}"
    return word if default is REQUIRED else f"[{word}]"


def usage(command: str | None) -> str:
    if command is None:
        return f"usage: descente [-h] {_metavar('command', tuple(COMMANDS))} ..."
    _, _, positionals, options = COMMANDS[command]
    words = [_option(*o) for o in options.items()] + [_metavar(*p) for p in positionals]
    return " ".join([f"usage: descente {command} [-h]", *words])


def help_text(command: str | None) -> str:
    if command is None:
        about, rows = __doc__.splitlines()[0], [(name, c[1]) for name, c in COMMANDS.items()]
    else:
        _, about, _, options = COMMANDS[command]
        rows = [(_option(*o), o[1][2]) for o in options.items()]
    rows = [("-h, --help", "show this help and exit"), *rows]
    return "\n".join([usage(command), "", about, ""] + [f"  {a:<25} {b}" for a, b in rows])


def _convert(name: str, kind, value: str):
    if isinstance(kind, tuple) and value not in kind:
        choices = ", ".join(map(repr, kind))
        raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    try:
        return value if isinstance(kind, tuple) else kind(value)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None


def parse(argv: list[str]) -> list | None:
    """The arguments of argv's command in COMMANDS order, or None if argv
    asks for help.  An option's value follows it as `--opt value` or
    `--opt=value`; an unknown option makes it and all after it unrecognized."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    if "-h" in argv or "--help" in argv:
        return None
    _, _, positionals, options = COMMANDS[_convert("command", tuple(COMMANDS), argv[0])]
    args = {name: REQUIRED for name, _ in positionals} | {o: s[1] for o, s in options.items()}
    words, values, unknown = iter(argv[1:]), [], []
    for arg in words:
        name, eq, value = arg.partition("=")
        kind = options[name][0] if name in options else None
        if not arg.startswith("-") or arg == "-" or arg[1:].isdigit():  # -5 is a value
            values.append(arg)
        elif kind is bool and not eq:
            args[name] = True
        elif kind in (None, bool):
            unknown = [arg, *words]
        else:
            value = value if eq else next(words, None)
            if value is None:
                raise UsageError(f"argument {name}: expected one argument")
            args[name] = _convert(name, kind, value)
    for name, kind in positionals:
        if kind is list:
            args[name], values = [_convert(name, int, v) for v in values], []
        elif values:
            args[name] = _convert(name, kind, values.pop(0))
    missing = [name for name, value in args.items() if value is REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if values or unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(values + unknown)}")
    return list(args.values())


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = parse(argv)
        if args is None:
            print(help_text(command), file=out)
            return EXIT_OK
        return COMMANDS[command][0](*args, out)
    except UsageError as exc:
        print(usage(command), f"descente: error: {exc}", sep="\n", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
