"""Exact natural-number arithmetic, Pythagorean-triple parametrizations, and
a bounded verifier for descent schemas, built around one theorem: no
Pythagorean triangle with positive integer sides has its leg product equal to
twice a square (equivalently, square area)."""

# Where each public name lives.  A name is imported on first access
# (PEP 562), so importing the package loads none of its modules, and
# importing one module loads only the modules that it imports.
_EXPORTS = {
    "core_arith": (
        "Factorization", "coprime", "divides", "factorize", "gcd", "is_prime",
        "least_prime_divisor", "valuation",
    ),
    "descent_engine": (
        "DescentInstance", "DescentTrace", "Failure", "IndexedDescentFamily",
        "ReductionDescentInstance", "Report", "check_id", "check_id_prime",
        "check_rd", "pair_decode", "pair_encode", "rd_to_id", "run_descent",
    ),
    "diophantine": ("Generators", "PythTriple", "decompose_primitive_triple", "generate_triple"),
    "errors": ("DomainError", "NonPrimitiveError"),
    "fermat": (
        "CandidateSolution", "degenerate_solutions", "exhaustive_search",
        "fermat_instance", "is_counterexample", "walsh_family",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
