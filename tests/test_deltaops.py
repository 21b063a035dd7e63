from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest

from starlattice import ConstraintViolation, IndexOutOfRange, LatticeSeq, NotInvertible, falling_factorial
from starlattice.deltaops import (
    FORWARD_DIFFERENCE,
    SYMMETRIC_DIFFERENCE,
    DeltaStencil,
    FormalSeries,
    apply_stencil,
    basic_sequence,
    series_compose,
    series_inverse,
    stencil_apply_poly,
    symbol_coefficients,
    validate_stencil,
)
from starlattice.series import mul_trunc, pow_trunc

FOUR_POINT_CUBIC = DeltaStencil(
    Fraction(1), -1, (Fraction(-1, 3), Fraction(-1, 2), Fraction(1), Fraction(-1, 6))
)


def reciprocal_trunc(a: list[Fraction], D: int) -> list[Fraction]:
    """1/a(x) modulo x^(D+1) by the recurrence of the series product; requires a(0) != 0."""
    if not a or a[0] == 0:
        raise ZeroDivisionError("series has no reciprocal: constant term is zero")
    out = [Fraction(0)] * (D + 1)
    out[0] = 1 / Fraction(a[0])
    for m in range(1, D + 1):
        s = Fraction(0)
        for k in range(1, min(m, len(a) - 1) + 1):
            s += a[k] * out[m - k]
        out[m] = -s / a[0]
    return out


def lagrange_inverse(F: FormalSeries) -> FormalSeries:
    # G_d = (1/d) [u^(d-1)] (u/F(u))^d, an oracle independent of the solver.
    D = F.degree
    ratio = reciprocal_trunc(list(F.coeffs), D - 1) if D > 1 else [1 / F.coeffs[0]]
    out = []
    for d in range(1, D + 1):
        powered = pow_trunc(ratio, d, d - 1)
        out.append(powered[d - 1] / d)
    return FormalSeries(tuple(out))


def test_validate_orders():
    assert validate_stencil(FORWARD_DIFFERENCE, 6) == 1
    assert validate_stencil(SYMMETRIC_DIFFERENCE, 6) == 2
    assert validate_stencil(FOUR_POINT_CUBIC, 8) == 3


def test_validate_rejects_bad_moments():
    with pytest.raises(ConstraintViolation):
        validate_stencil(DeltaStencil(1, 0, (1, -1)), 4)
    with pytest.raises(ConstraintViolation):
        validate_stencil(DeltaStencil(1, 0, (1, 1)), 4)
    with pytest.raises(ConstraintViolation):
        validate_stencil(DeltaStencil(1, 0, (0, Fraction(1), Fraction(-1))), 4)


def test_validate_respects_sigma():
    # halving the spacing leaves the order alone: the error term scales, not the degree
    half = DeltaStencil(Fraction(1, 2), 0, (-1, 1))
    assert validate_stencil(half, 5) == 1
    coeffs = symbol_coefficients(half, 3)
    assert coeffs[0] == 0 and coeffs[1] == 1
    assert coeffs[2] == Fraction(1, 2) * Fraction(1, 2)


def test_apply_stencil_values():
    z = LatticeSeq((0, 1, 4, 9))
    assert apply_stencil(FORWARD_DIFFERENCE, z, 1) == 3
    assert apply_stencil(SYMMETRIC_DIFFERENCE, z, 1) == 2
    const = LatticeSeq((5, 5, 5, 5))
    assert apply_stencil(FORWARD_DIFFERENCE, const, 2) == 0
    with pytest.raises(IndexOutOfRange):
        apply_stencil(FORWARD_DIFFERENCE, z, 3)
    with pytest.raises(IndexOutOfRange):
        apply_stencil(SYMMETRIC_DIFFERENCE, z, 0)


def test_symbol_matches_monomial_differencing():
    # j! * c_j must equal the stencil applied to x^j at x = 0, exactly.
    for s in (FORWARD_DIFFERENCE, SYMMETRIC_DIFFERENCE, FOUR_POINT_CUBIC):
        coeffs = symbol_coefficients(s, 6)
        for j in range(7):
            mono = [Fraction(0)] * j + [Fraction(1)]
            image = stencil_apply_poly(s, mono)
            at_zero = image[0] if image else Fraction(0)
            assert coeffs[j] * factorial(j) == at_zero


def test_series_inverse_identity():
    F = FormalSeries((1, 0, 0, 0))
    assert series_inverse(F).coeffs == (1, 0, 0, 0)


def test_series_inverse_log_exp_pair():
    D = 8
    log_coeffs = tuple(Fraction((-1) ** (k - 1), k) for k in range(1, D + 1))
    exp_coeffs = tuple(Fraction(1, factorial(k)) for k in range(1, D + 1))
    assert series_inverse(FormalSeries(log_coeffs)).coeffs == exp_coeffs
    assert series_inverse(FormalSeries(exp_coeffs)).coeffs == log_coeffs


def test_series_inverse_composes_to_identity():
    F = FormalSeries((1, Fraction(1, 2), 0, 0, 0, 0))
    G = series_inverse(F)
    composed = series_compose(F, G)
    assert composed.coeffs == (1, 0, 0, 0, 0, 0)


def test_series_inverse_matches_lagrange_oracle():
    for coeffs in [
        (1, Fraction(1, 2), 0, 0, 0, 0),
        (1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)),
        (Fraction(2), Fraction(1), Fraction(3, 7), 0),
    ]:
        F = FormalSeries(coeffs)
        assert series_inverse(F) == lagrange_inverse(F)


def test_series_inverse_involution():
    F = FormalSeries((1, Fraction(2, 3), Fraction(-1, 5), Fraction(7, 2), 0, 1))
    assert series_inverse(series_inverse(F)) == F


def test_series_inverse_rejects_zero_linear_term():
    with pytest.raises(NotInvertible):
        series_inverse(FormalSeries((0, 1)))


def test_basic_sequence_forward_is_falling_factorial():
    basis = basic_sequence(FORWARD_DIFFERENCE, 12)
    for n in range(13):
        for k in range(n + 1):
            assert basis.evaluate(k, Fraction(n)) == falling_factorial(n, k)


def test_basic_sequence_defining_properties():
    for s in (FORWARD_DIFFERENCE, SYMMETRIC_DIFFERENCE, FOUR_POINT_CUBIC):
        D = 6
        basis = basic_sequence(s, D)
        assert basis.polys[0] == (1,)
        for n in range(1, D + 1):
            poly = list(basis.polys[n])
            assert poly[0] == 0  # q_n(0) = 0
            assert len(poly) == n + 1 and poly[-1] != 0
            image = stencil_apply_poly(s, poly)
            expected = [n * c for c in basis.polys[n - 1]]
            padded = image + [Fraction(0)] * (len(expected) - len(image))
            assert padded == expected


def test_basic_sequence_q1_is_x():
    for s in (FORWARD_DIFFERENCE, SYMMETRIC_DIFFERENCE, FOUR_POINT_CUBIC):
        assert basic_sequence(s, 1).polys[1] == (0, 1)


def test_basic_sequence_matches_generating_function_route():
    # Independent construction: q_n(x) = n! * sum_j [t^n](G^j)/j! * x^j with
    # G the compositional inverse of the stencil symbol.
    for s in (SYMMETRIC_DIFFERENCE, FOUR_POINT_CUBIC):
        D = 6
        sym = symbol_coefficients(s, D)
        assert sym[0] == 0
        G = series_inverse(FormalSeries(tuple(sym[1:])))
        g = G.padded()
        via_gf: list[tuple[Fraction, ...]] = []
        for n in range(D + 1):
            coeffs = [Fraction(0)] * (n + 1)
            gpow = [Fraction(1)] + [Fraction(0)] * D
            for j in range(n + 1):
                coeffs[j] = factorial(n) * gpow[n] / factorial(j)
                gpow = mul_trunc(gpow, g, D)
            via_gf.append(tuple(coeffs))
        direct = basic_sequence(s, D)
        assert direct.polys == tuple(via_gf)
