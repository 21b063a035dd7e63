"""Exact rational scalars and their canonical "p/q" string form.

Every verification path in the package computes over `fractions.Fraction`,
which already guarantees the canonical invariants (positive denominator,
reduced to lowest terms). Floats are rejected at the boundary so that no
inexact value can leak into an exact computation. Hot exact kernels put a
list of rationals over one common denominator and work on the integer
numerators, dividing once at the end.

An integer pair becomes a `Fraction` through one of two constructors, so
each quotient is reduced once and only where a factor can cancel (the
classical rule for rational arithmetic: P. Henrici, J. ACM 3, 1956; Knuth,
TAOCP Vol. 2, 4.5.1). `reduced_fraction` runs one gcd, and none for a zero
numerator, which gets a shared exact zero: the entries of a vanishing
residual table cost no gcd at all. `coprime_fraction` runs none, for a
caller that knows its pair is already in lowest terms. `parse_rational`
reads a literal through `reduced_fraction`. This module is the only one
that reaches into the `Fraction` slots.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

from .errors import RationalParseError

Rational = Fraction

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")
# Longest digit string a literal may hold. CPython 3.11 refuses int(str) past
# 4300 digits; `decimal` converts past that, at a cost that grows like the
# square of the length: 0.5 s for 10^5 digits and 49 s for 10^6 on one core
# of a 2-vCPU Xeon VM. Refusing longer strings keeps each literal's cost
# bounded.
MAX_LITERAL_DIGITS = 100_000


def _parse_int(digits: str, text: str) -> int:
    """int(digits), also past the interpreter's int/str digit limit, which `decimal` does not have."""
    if len(digits) > MAX_LITERAL_DIGITS:
        raise RationalParseError(f"literal with more than {MAX_LITERAL_DIGITS} digits: {text[:40]!r}...")
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0) into an exact rational, in lowest terms by one gcd."""
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise RationalParseError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    if den is None:
        return coprime_fraction(_parse_int(num, text), 1)
    q = _parse_int(den, text)
    if q == 0:
        raise RationalParseError(f"zero denominator: {text!r}")
    return reduced_fraction(_parse_int(num, text), q)


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p/q", or "p" alone when the denominator is 1."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past the int/str digit limit: decimal writes the same digits
        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


def as_rational(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def over_common_denominator(values) -> tuple[int, list[int]]:
    """(D, [x * D for x in values]) with D the least common denominator of the values."""
    D = lcm(*(x.denominator for x in values))
    return D, [x.numerator * (D // x.denominator) for x in values]


def coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """The `Fraction` numerator/denominator, trusted to be in lowest terms with denominator > 0.

    What `Fraction._from_coprime_ints` does in CPython 3.12+: set the two
    slots that `Fraction` itself fills after its gcd (named alike in
    3.10-3.13), so the caller's reduction is not repeated. Not checked here:
    a caller that passes a common factor or a nonpositive denominator gets a
    value that compares and hashes wrongly.
    """
    value = object.__new__(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


_ZERO = Fraction(0)


def reduced_fraction(numerator: int, denominator: int) -> Fraction:
    """The `Fraction` numerator/denominator for denominator > 0, by one gcd and none for a zero numerator.

    Equal to `Fraction(numerator, denominator)` in value, type, hash and
    string, without its argument dispatch. Every zero is one shared exact
    `Fraction(0)`, which is safe since a `Fraction` is immutable.
    """
    if not numerator:
        return _ZERO
    g = gcd(numerator, denominator)
    return coprime_fraction(numerator // g, denominator // g)


def format_float(value: float) -> str:
    """17-significant-digit decimal, enough to round-trip a double."""
    return f"{value:.17g}"
