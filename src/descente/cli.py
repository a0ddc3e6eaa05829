"""Command-line surface: triples, search, descent, check, decompose.

This module holds only the command table, the parser, usage, help, main
and run, the process entry.  Each command's body lives beside the layer it
drives (cmd_search in certificate, cmd_triples and cmd_decompose in
diophantine, cmd_descent and cmd_check in descent_engine), and main imports
that module when the command runs, so a command compiles no other command's
code.  No package module imports this one: under `python -m descente.cli`
it runs as __main__, and an import would compile it a second time.

A body returns its exit code, its rows (its JSONL records, in output
order) and text, which makes a row's text line (str for decompose and help,
whose rows are their lines), or raises: main alone maps UsageError,
DomainError and OSError to 64, 65 and 1, each with one stderr line, and
writes text(row) or, under --format jsonl, descente.jsonl's dumps(row).
"""

from __future__ import annotations

import gc
import os
import sys

from . import EXIT_IO, EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE, DomainError, UsageError

REQUIRED = object()
FORMAT = {"--format": (("text", "jsonl"), "text", "text or jsonl (default: text)")}

# Each command: the module whose cmd_<command> runs it, which takes its
# positionals and then its options other than --format, in this order, and
# returns (exit code, rows, text); its help line; its positionals as (name,
# type or choices), where list takes every remaining value as an int; and
# its options as name: (type or choices, default, help line), where bool
# makes a flag.
COMMANDS = {
    "triples": ("diophantine", "enumerate Pythagorean triples", [("max_x2", int)],
                {"--primitive-only": (bool, False, "primitive triples only"), **FORMAT}),
    "search": ("certificate", "exhaustive square-area counterexample search", [],
               {"--bound": (int, REQUIRED, "search every x2 <= BOUND"), **FORMAT,
                "--cache": (str, None, "resume file")}),
    "descent": ("descent_engine", "run and print one descent trace",
                [("instance", str), ("values", list)], FORMAT),
    "check": ("descent_engine", "bounded schema-obligation check",
              [("schema", ("id", "rd", "idprime")), ("instance", str), ("bound", int)], FORMAT),
    "decompose": ("diophantine", "triple / two-square / frenicle decompositions",
                  [("kind", ("triple", "two-square", "frenicle")), ("values", list)],
                  {}),
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


def parse(argv: list[str]) -> dict | None:
    """The arguments of argv's command by name, in COMMANDS order, or None
    if argv asks for help.  An option's value follows it as `--opt value` or
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
    return args


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = parse(argv)
        if args is None:
            fmt, code, rows, text = "text", EXIT_OK, [help_text(command)], str
        else:
            from importlib import import_module

            fmt = args.pop("--format", "text")
            module = import_module(f"descente.{COMMANDS[command][0]}")
            code, rows, text = getattr(module, f"cmd_{command}")(*args.values())
    except UsageError as exc:
        print(usage(command), f"descente: error: {exc}", sep="\n", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:  # search's cache is the only file a body opens
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_IO
    if fmt == "jsonl":
        from .jsonl import dumps as text
    for row in rows:
        print(text(row), file=out)
    return code


def run() -> int:
    """The process entry of `python -m descente.cli` and of the `descente`
    script: main's exit code, after gc.freeze() has moved every live object
    to the permanent generation.  The collections that the interpreter runs
    at exit then have nothing to traverse; the atexit handlers, the flush of
    stdio and module teardown run as before.  main itself leaves the
    collector alone, for callers in the same process.

    An OSError from main, or from the flush of stdout after it, is a failed
    write of the output (a full disk, a closed pipe): main maps the others,
    from parsing and the body, before it writes the help text or the rows.
    It prints one `write error:` line and returns EXIT_IO, whether stdout is
    buffered or not.  fd 1 then points at os.devnull, so that the flush at
    interpreter exit finds no failing stream."""
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        print(f"write error: {exc}", file=sys.stderr)
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # a stdout with no file descriptor
            pass
        code = EXIT_IO
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
