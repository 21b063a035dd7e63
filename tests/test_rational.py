"""`rational.coprime_fraction` against `Fraction` on seeded coprime pairs.

The helper fills the `Fraction` slots itself, so it must give the very
object `Fraction(n, d)` gives: equal value, the same type, hash and string,
and the same results in arithmetic with `Fraction` and `int`. It reaches
into CPython's private slots, so these checks also run without pytest, as
a plain script under every supported interpreter:

    python3 tests/test_rational.py
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starlattice.rational import coprime_fraction  # noqa: E402


def coprime_pairs(seed: int, count: int):
    """(n, d) with gcd(n, d) = 1 and d > 0: zero, +-1, small, and big numerators over 1, small and big denominators."""
    rng = random.Random(seed)
    yield 0, 1
    yield 1, 1
    yield -1, 1
    for _ in range(count):
        n = rng.choice((rng.randrange(-9, 10), rng.randrange(-(2**200), 2**200), rng.randrange(-(2**40), 0)))
        d = rng.choice((1, rng.randrange(1, 100), rng.randrange(1, 2**150)))
        common = gcd(n, d)
        yield n // common, d // common


def test_coprime_fraction_is_the_normalised_fraction():
    seen = 0
    for n, d in coprime_pairs(1, 300):
        built, reference = coprime_fraction(n, d), Fraction(n, d)
        assert type(built) is Fraction
        assert built == reference and not built != reference
        assert (built.numerator, built.denominator) == (reference.numerator, reference.denominator) == (n, d)
        assert hash(built) == hash(reference)
        assert str(built) == str(reference) and repr(built) == repr(reference)
        assert {built: 1}[reference] == 1
        seen += n < 0
    assert seen > 50


def test_coprime_fraction_takes_part_in_arithmetic_like_fraction():
    pairs = list(coprime_pairs(2, 120))
    rng = random.Random(3)
    for (n, d), (m, e) in zip(pairs, reversed(pairs)):
        a, b = coprime_fraction(n, d), Fraction(n, d)
        other = Fraction(m, e)
        k = rng.randrange(-5, 6)
        assert a + other == b + other and a - other == b - other and a * other == b * other
        assert a + k == b + k and k - a == k - b and a * k == b * k and -a == -b and abs(a) == abs(b)
        assert (a < other) == (b < other) and (a <= k) == (b <= k)
        if m:
            assert a / other == b / other
        if n:
            assert 1 / a == 1 / b and a ** -2 == b ** -2
        assert type(a + other) is Fraction and type(a * k) is Fraction
        assert float(a) == float(b) and int(a) == int(b) and round(a) == round(b)


if __name__ == "__main__":
    test_coprime_fraction_is_the_normalised_fraction()
    test_coprime_fraction_takes_part_in_arithmetic_like_fraction()
    print(f"coprime_fraction checks passed on Python {sys.version.split()[0]}")
