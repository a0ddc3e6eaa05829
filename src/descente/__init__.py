"""Exact natural-number arithmetic, Pythagorean-triple parametrizations, and
a bounded verifier for descent schemas, built around one theorem: no
Pythagorean triangle with positive integer sides has its leg product equal to
twice a square (equivalently, square area)."""

__version__ = "0.1.0"
