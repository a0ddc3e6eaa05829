"""Shared exception types and the command-line exit codes.

Exit codes are stable and documented:
  0   success (and, for `search`, theorem upheld: nothing found)
  1   I/O error (for example an unwritable cache path)
  2   `search` found a counterexample (a bug by theorem; CI must fail loudly)
  64  usage error (unknown command, instance, or malformed arguments)
  65  precondition failure in `decompose` or `descent` (valid numbers,
      invalid data, or a walk that needs a prime beyond the proven range)
"""

EXIT_OK = 0
EXIT_IO = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_USAGE = 64
EXIT_PRECONDITION = 65


class DomainError(ValueError):
    """An operation was called outside its stated precondition."""


class NonPrimitiveError(DomainError):
    """A primitive-triple operation received a non-primitive triple.

    Carries the least common prime so callers can reduce by it.
    """

    def __init__(self, message, common_prime):
        super().__init__(message)
        self.common_prime = common_prime


class UsageError(Exception):
    """A malformed command line; main prints the command's usage before it."""
