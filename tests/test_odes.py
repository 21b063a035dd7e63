from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from starlattice import (
    IndexOutOfRange,
    LatticeSeq,
    LengthMismatch,
    NotForwardSolvable,
    OrderTooLarge,
    TaylorCoeffs,
    inverse_transform,
    taylor_to_lattice,
)
from starlattice.fourier import fourier_step
from starlattice.odes import (
    LinearOde,
    NonlinearOde,
    PolyCoeff,
    delta_power,
    lin_residual,
    lin_residual_kernel,
    lin_residuals,
    lin_step,
    local_stencil,
    nonlin_residual,
    nonlin_residuals,
    nonlin_step,
    taylor_solution_linear,
    taylor_solution_nonlinear,
)

ONE = PolyCoeff.constant(1)


def harmonic(omega: Fraction = Fraction(1)) -> LinearOde:
    return LinearOde((PolyCoeff.constant(omega**2), PolyCoeff(()), ONE))


def gaussian_eq() -> LinearOde:
    # z' + t z = 0
    return LinearOde((PolyCoeff(((1, Fraction(1)),)), ONE))


def square_eq() -> NonlinearOde:
    # z' = z^2
    return NonlinearOde(1, (PolyCoeff(()), PolyCoeff(()), ONE))


def sin_coeffs(L: int) -> TaylorCoeffs:
    out = []
    for k in range(L + 1):
        if k % 2 == 0:
            out.append(Fraction(0))
        else:
            sign = -1 if ((k - 1) // 2) % 2 else 1
            out.append(Fraction(sign, factorial(k)))
    return TaylorCoeffs(tuple(out))


def gauss_coeffs(L: int) -> TaylorCoeffs:
    out = []
    for k in range(L + 1):
        if k % 2:
            out.append(Fraction(0))
        else:
            j = k // 2
            out.append(Fraction((-1) ** j, 2**j * factorial(j)))
    return TaylorCoeffs(tuple(out))


def test_delta_power_examples():
    z = LatticeSeq((0, 1, 4, 9, 16))
    assert delta_power(z, 0) == z
    assert delta_power(z, 2).values == (2, 2, 2)
    two = LatticeSeq(tuple(Fraction(2) ** n for n in range(8)))
    assert delta_power(two, 1).values == two.values[:7]
    with pytest.raises(OrderTooLarge):
        delta_power(z, 5)


def test_lin_residual_zero_solution():
    eq = harmonic()
    z = LatticeSeq((0,) * 8)
    assert all(r == 0 for r in lin_residuals(eq, z))


def test_lin_residual_harmonic_sin_map():
    eq = harmonic()
    z = taylor_to_lattice(sin_coeffs(24), 22)
    assert z.values[:6] == (0, 1, 2, 2, 0, -4)
    assert all(lin_residual(eq, z, n) == 0 for n in range(21))


def test_lin_residual_matches_closed_recurrence():
    # For constant coefficients the machinery must reduce to the local stencil.
    rng = random.Random(3)
    eq = harmonic()
    z = LatticeSeq(tuple(Fraction(rng.randrange(-9, 10)) for _ in range(10)))
    for n in range(8):
        assert lin_residual(eq, z, n) == z[n + 2] - 2 * z[n + 1] + 2 * z[n]
    assert local_stencil(eq) == (1, -2, 2)
    assert local_stencil(gaussian_eq()) is None


def test_lin_residual_gaussian():
    eq = gaussian_eq()
    z = taylor_to_lattice(gauss_coeffs(24), 21)
    assert z.values[:3] == (1, 1, 0)
    assert all(lin_residual(eq, z, n) == 0 for n in range(21))


def test_lin_residual_kernel_form_agrees():
    eq = gaussian_eq()
    z = taylor_to_lattice(gauss_coeffs(16), 12)
    for n in range(11):
        assert lin_residual_kernel(eq, z, n) == lin_residual(eq, z, n)


def test_lin_residual_index_guard():
    eq = harmonic()
    z = LatticeSeq((0, 1, 2))
    with pytest.raises(IndexOutOfRange):
        lin_residual(eq, z, 1)


SQUARE_2 = NonlinearOde(2, (PolyCoeff(()), PolyCoeff(()), ONE))  # z'' = z^2


def test_residual_tables_refuse_a_sequence_with_no_complete_window():
    # An empty table would pass every "all residuals vanish" check while checking nothing.
    z = LatticeSeq((1, 2))
    for table, eq in ((lin_residuals, harmonic()), (nonlin_residuals, SQUARE_2)):
        with pytest.raises(IndexOutOfRange, match=r"^residual at n=0 needs index 2, stored 0\.\.1$"):
            table(eq, z)
        assert len(table(eq, LatticeSeq((1, 2, 3)))) == 1


@pytest.mark.parametrize(
    "solve, eq, noun",
    [
        (lin_step, harmonic(), "values"),
        (taylor_solution_linear, harmonic(), "Taylor coefficients"),
        (nonlin_step, SQUARE_2, "values"),
        (taylor_solution_nonlinear, SQUARE_2, "Taylor coefficients"),
        (fourier_step, SQUARE_2, "coefficients"),
    ],
    ids=["lin_step", "taylor_solution_linear", "nonlin_step", "taylor_solution_nonlinear", "fourier_step"],
)
def test_every_solver_route_checks_its_initial_data_alike(solve, eq, noun):
    with pytest.raises(LengthMismatch, match=rf"^need exactly 2 initial {noun}, got 1$"):
        solve(eq, (1,), 5)
    with pytest.raises(IndexOutOfRange, match=rf"^length L=0 shorter than the 2 initial {noun}$"):
        solve(eq, (1, 2), 0)
    assert len(solve(eq, (1, 2), 1)) == 2


def test_lin_step_harmonic_flagship():
    eq = harmonic()
    stepped = lin_step(eq, (0, 1), 10)
    assert stepped.values[:6] == (0, 1, 2, 2, 0, -4)
    assert stepped == taylor_to_lattice(sin_coeffs(12), 10)


def test_lin_step_requires_constant_leading_term():
    # t z'' + z = 0 cannot be stepped: a_N(0) = 0.
    eq = LinearOde((ONE, PolyCoeff(()), PolyCoeff(((1, Fraction(1)),))))
    with pytest.raises(NotForwardSolvable):
        lin_step(eq, (1, 0), 6)


def test_lin_step_inhomogeneous():
    # z' - 1 = 0 has solution z = t + const; image (c, c+1, c+2, ...).
    eq = LinearOde((PolyCoeff(()), ONE), c0=PolyCoeff.constant(-1))
    stepped = lin_step(eq, (5,), 6)
    assert stepped.values == tuple(Fraction(5 + n) for n in range(7))
    sol = taylor_solution_linear(eq, (5,), 6)
    assert stepped == taylor_to_lattice(sol, 6)


def test_nonlin_residual_square_equation():
    eq = square_eq()
    z = taylor_to_lattice(TaylorCoeffs((1,) * 15), 13)
    assert all(nonlin_residual(eq, z, n) == 0 for n in range(13))
    # hand value at n = 1: the star square contributes -z_0^2 + 2 z_0 z_1
    assert z[2] - z[1] == -z[0] ** 2 + 2 * z[0] * z[1]


def test_nonlin_residual_trivial():
    eq = NonlinearOde(1, (PolyCoeff(()), PolyCoeff(()), ONE))
    z = LatticeSeq((0,) * 6)
    assert nonlin_residuals(eq, z) == [0] * 5  # one residual per n = 0..5 - m


def test_nonlin_step_square_equation():
    eq = square_eq()
    stepped = nonlin_step(eq, (1,), 4)
    assert stepped.values == (1, 2, 5, 16, 65)
    assert nonlin_step(eq, (1,), 12) == taylor_to_lattice(TaylorCoeffs((1,) * 13), 12)


def test_nonlinear_needs_nonzero_leading_coefficient():
    with pytest.raises(ValueError):
        NonlinearOde(1, (PolyCoeff(()), PolyCoeff(())))


def test_lin_step_constant_solution():
    # z' = 0: any constant initial value stays put.
    eq = LinearOde((PolyCoeff(()), ONE))
    stepped = lin_step(eq, (Fraction(7, 3),), 5)
    assert all(v == Fraction(7, 3) for v in stepped)


def test_stepping_matches_taylor_map_harmonic():
    eq = harmonic()
    b = taylor_solution_linear(eq, (0, 1), 14)
    assert b.coeffs[:6] == sin_coeffs(5).coeffs
    z = taylor_to_lattice(b, 12)
    assert lin_step(eq, (z[0], z[1]), 12) == z


def test_truncation_correspondence_linear():
    # Inverse transform of a stepped solution recovers the continuous Taylor
    # coefficients, checked against the t-space recurrence solver.
    eq = harmonic(Fraction(2, 3))
    L = 14
    b = taylor_solution_linear(eq, (Fraction(1), Fraction(-1, 2)), L)
    z = lin_step(eq, (b[0], b[0] + b[1]), L)
    assert inverse_transform(z).coeffs == b.coeffs


def test_truncation_correspondence_nonlinear():
    eq = square_eq()
    L = 12
    b = taylor_solution_nonlinear(eq, (Fraction(1, 2),), L)
    z0 = b[0]
    z = nonlin_step(eq, (z0,), L)
    assert inverse_transform(z).coeffs == b.coeffs


def test_taylor_solution_nonlinear_all_ones():
    eq = square_eq()
    b = taylor_solution_nonlinear(eq, (1,), 10)
    assert b.coeffs == (1,) * 11
