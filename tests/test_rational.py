"""The integer-pair constructors of `rational` against `Fraction`, and the literal parser.

`coprime_fraction` (on seeded coprime pairs) and `reduced_fraction` (on
seeded pairs with common factors, zero numerators over huge denominators
and parts past the int/str digit limit) fill the `Fraction` slots
themselves, so each must give the very object `Fraction(n, d)` gives:
equal value, the same type, hash and string, and the same results in
arithmetic with `Fraction` and `int`. `parse_rational` is pinned by a
table of accepted and refused literals. The constructors reach into
CPython's private slots, so these checks also run without pytest, as a
plain script under every supported interpreter:

    python3 tests/test_rational.py
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starlattice import rational  # noqa: E402
from starlattice.errors import RationalParseError  # noqa: E402
from starlattice.rational import MAX_LITERAL_DIGITS, coprime_fraction, parse_rational, reduced_fraction  # noqa: E402


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


def integer_pairs(seed: int, count: int):
    """(n, d) with d > 0 and often a common factor: zero over huge d, negative n, d = 1, parts past 4300 digits."""
    rng = random.Random(seed)
    huge = 10**4400 + 7
    yield 0, 1
    yield 0, huge
    yield 0, 2**300
    yield -6, 4
    yield huge * 3, 6
    yield -huge * huge, huge * 10
    for _ in range(count):
        common = rng.choice((1, 2, rng.randrange(1, 10**6), rng.randrange(1, 2**90)))
        n = rng.choice((0, rng.randrange(-9, 10), rng.randrange(-(2**200), 2**200), rng.randrange(-(2**40), 0)))
        d = rng.choice((1, rng.randrange(1, 100), rng.randrange(1, 2**150), rng.randrange(1, huge)))
        yield n * common, d * common


def outcome(f, *args):
    """f(*args), or the type of what it raised: str of a part past the digit limit raises on 3.11+."""
    try:
        return f(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


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


def test_reduced_fraction_is_the_fraction_of_the_pair():
    zeros = negative = long = 0
    for n, d in integer_pairs(4, 400):
        built, reference = reduced_fraction(n, d), Fraction(n, d)
        assert type(built) is Fraction
        assert built == reference and not built != reference
        assert (built.numerator, built.denominator) == (reference.numerator, reference.denominator)
        assert hash(built) == hash(reference)
        assert outcome(str, built) == outcome(str, reference) and outcome(repr, built) == outcome(repr, reference)
        assert {built: 1}[reference] == 1
        zeros, negative = zeros + (n == 0), negative + (n < 0)
        long += max(n.bit_length(), d.bit_length()) > 14300  # more than 4300 decimal digits
    assert zeros > 20 and negative > 50 and long > 20


def test_reduced_fraction_of_a_zero_runs_no_gcd():
    def no_gcd(*args):
        raise AssertionError("gcd called for a zero numerator")

    rational.gcd = no_gcd
    try:
        zeros = [reduced_fraction(0, d) for d in (1, 7, 2**64, 10**5000)]
    finally:
        rational.gcd = gcd
    assert all(type(z) is Fraction and (z.numerator, z.denominator) == (0, 1) for z in zeros)


def test_coprime_fraction_takes_part_in_arithmetic_like_fraction():
    check_arithmetic(coprime_fraction, list(coprime_pairs(2, 120)))


def test_reduced_fraction_takes_part_in_arithmetic_like_fraction():
    check_arithmetic(reduced_fraction, list(integer_pairs(5, 120)))


def check_arithmetic(make, pairs):
    rng = random.Random(3)
    for (n, d), (m, e) in zip(pairs, reversed(pairs)):
        a, b = make(n, d), Fraction(n, d)
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
        assert outcome(float, a) == outcome(float, b) and int(a) == int(b) and round(a) == round(b)


# (literal, value): each accepted literal and the rational it denotes.
ACCEPTED = [
    (" 3/4 ", Fraction(3, 4)),
    ("+3", Fraction(3)),
    ("-0", Fraction(0)),
    ("0/7", Fraction(0)),
    ("6/4", Fraction(3, 2)),
    ("-6/4", Fraction(-3, 2)),
    ("\n-12/18\t", Fraction(-2, 3)),
    ("\u0663/\u0664", Fraction(3, 4)),  # Arabic-Indic digits
    ("\uff11\uff12/\uff18", Fraction(3, 2)),  # full-width digits
    ("1" + "0" * 4999 + "/3", Fraction(10**4999, 3)),  # past the int/str limit: the decimal path
    ("2" + "0" * 4999 + "/" + "4" + "0" * 4999, Fraction(1, 2)),
]

LONG = "1" * (MAX_LITERAL_DIGITS + 1)
# (literal, message): each refused literal and the message of its RationalParseError.
REFUSED = [
    ("3/-4", "not a rational literal: '3/-4'"),
    ("1_000", "not a rational literal: '1_000'"),
    ("3.5", "not a rational literal: '3.5'"),
    ("", "not a rational literal: ''"),
    (" ", "not a rational literal: ' '"),
    ("3/", "not a rational literal: '3/'"),
    ("3/0", "zero denominator: '3/0'"),
    (LONG, f"literal with more than {MAX_LITERAL_DIGITS} digits: {LONG[:40]!r}..."),
    ("1/" + LONG, f"literal with more than {MAX_LITERAL_DIGITS} digits: {('1/' + LONG)[:40]!r}..."),
]


def test_parse_rational_table():
    for text, value in ACCEPTED:
        parsed = parse_rational(text)
        assert type(parsed) is Fraction, text[:20]
        assert parsed == value and parsed.denominator > 0, text[:20]
        assert gcd(parsed.numerator, parsed.denominator) == 1, text[:20]
    for text, message in REFUSED:
        try:
            parse_rational(text)
        except RationalParseError as exc:
            assert str(exc) == message, text[:20]
        else:
            raise AssertionError(f"accepted {text[:20]!r}")


if __name__ == "__main__":
    test_coprime_fraction_is_the_normalised_fraction()
    test_reduced_fraction_is_the_fraction_of_the_pair()
    test_reduced_fraction_of_a_zero_runs_no_gcd()
    test_coprime_fraction_takes_part_in_arithmetic_like_fraction()
    test_reduced_fraction_takes_part_in_arithmetic_like_fraction()
    test_parse_rational_table()
    print(f"coprime_fraction, reduced_fraction and parse_rational checks passed on Python {sys.version.split()[0]}")
