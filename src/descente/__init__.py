"""Exact natural-number arithmetic, Pythagorean-triple parametrizations, and
a bounded verifier for descent schemas, built around one theorem: no
Pythagorean triangle with positive integer sides has its leg product equal to
twice a square (equivalently, square area).

This module holds the shared exception types, the base of the checked
records, and the command-line exit codes, which are stable and documented:
  0   success (and, for `search`, theorem upheld: nothing found)
  1   I/O error: an unwritable cache path, or a failed write of the output
      (`write error: ...` on stderr, whether stdout is buffered or not)
  2   `search` found a counterexample (a bug by theorem; CI must fail loudly)
  64  usage error (unknown command, instance, or malformed arguments)
  65  precondition failure in `decompose` or `descent` (valid numbers,
      invalid data, or a walk that needs a prime beyond the proven range)
"""

__version__ = "0.1.0"

EXIT_OK = 0
EXIT_IO = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_USAGE = 64
EXIT_PRECONDITION = 65


class DomainError(ValueError):
    """An operation was called outside its stated precondition."""


class UsageError(Exception):
    """A malformed command line; main prints the command's usage before it."""


class CheckedRecord:
    """Base of the namedtuple records whose __new__ checks their fields: its
    _make, and so _replace, builds through __new__ and checks them too."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))
