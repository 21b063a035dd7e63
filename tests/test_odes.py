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
    falling_factorial,
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
    solve_newton,
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


def test_poly_coeff_is_constant_when_no_power_of_t_occurs():
    assert PolyCoeff(()).is_constant and ONE.is_constant
    assert PolyCoeff(((0, Fraction(0)), (3, Fraction(0)))).is_constant  # zero monomials are dropped
    assert not PolyCoeff(((1, Fraction(1)),)).is_constant
    assert not PolyCoeff(((0, Fraction(2)), (5, Fraction(-1, 3)))).is_constant


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
        (lambda eq, init, L: solve_newton(eq, init, L).W, SQUARE_2, "coefficients"),
    ],
    ids=["lin_step", "taylor_solution_linear", "nonlin_step", "taylor_solution_nonlinear", "fourier_step", "solve_newton"],
)
def test_every_solver_route_checks_its_initial_data_alike(solve, eq, noun):
    with pytest.raises(LengthMismatch, match=rf"^need exactly 2 initial {noun}, got 1$"):
        solve(eq, (1,), 5)
    with pytest.raises(IndexOutOfRange, match=rf"^length L=0 shorter than the 2 initial {noun}$"):
        solve(eq, (1, 2), 0)
    assert len(solve(eq, (1, 2), 1)) == 2


def test_solve_newton_leaves_out_powers_past_the_last_index():
    # z' = 1/3 + z + z^2 plus (1/2) t^r z: W_{k+1} reads t^r only from k = r on, so at L = 5
    # r = 5 changes nothing, not even E (6 with it, 3 without), while r = 4 reaches W_5.
    L = 5
    base = solve_newton(NonlinearOde(1, (PolyCoeff.constant(Fraction(1, 3)), ONE, ONE)), (1,), L)

    def with_power(r):
        linear = PolyCoeff(((0, Fraction(1)), (r, Fraction(1, 2))))
        return solve_newton(NonlinearOde(1, (PolyCoeff.constant(Fraction(1, 3)), linear, ONE)), (1,), L)

    assert base.E == with_power(L).E == 3
    assert with_power(L).taylor_coeffs() == base.taylor_coeffs()
    assert with_power(L).lattice_values() == base.lattice_values()
    assert with_power(L - 1).taylor_coeffs()[:L] == base.taylor_coeffs()[:L]
    assert with_power(L - 1).taylor_coeffs()[L] == base.taylor_coeffs()[L] + Fraction(1, 2 * L)


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


def test_nonlin_residual_is_entry_n_of_the_table():
    # z' = z^2 steps 1, 2, 5, 16, 65; a last entry 60 puts the defect -5 at n = 3 only.
    eq, z = square_eq(), LatticeSeq((1, 2, 5, 16, 60))
    assert nonlin_residuals(eq, z) == [nonlin_residual(eq, z, n) for n in range(4)] == [0, 0, 0, -5]


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


def reference_taylor_solution_linear(eq: LinearOde, init, L: int) -> list[Fraction]:
    """The t-space coefficient recurrence in `Fraction` arithmetic, one term at a time.

    The per-term form that the integer solve of `taylor_solution_linear` replaced, kept as its oracle.
    """
    N = eq.order
    lead = eq.coeffs[-1].constant_term
    b = [Fraction(v) for v in init]
    for s in range(L - N + 1):
        acc = eq.c0.coefficient(s)
        for l, a_l in enumerate(eq.coeffs):
            for power, coeff in a_l.monomials:
                if (l == N and power == 0) or s < power:
                    continue  # the unknown slot, or a term that starts later
                k = s - power + l
                acc += coeff * b[k] * falling_factorial(k, l)
        b.append(-acc / (lead * falling_factorial(s + N, N)))
    return b


def test_taylor_solution_linear_matches_the_fraction_recurrence():
    rng = random.Random(27)

    def rational():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))

    def poly():
        return PolyCoeff.from_pairs((rng.randrange(0, 4), rational()) for _ in range(rng.randrange(0, 4)))

    seen = set()
    for _ in range(240):
        N = rng.randrange(1, 5)
        lead = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 8))
        extra = [(rng.randrange(1, 3), rational()) for _ in range(rng.randrange(0, 2))]
        top = PolyCoeff.from_pairs([(0, lead), *extra])
        eq = LinearOde((*(poly() for _ in range(N)), top), c0=poly())
        init = [rational() for _ in range(N)]
        L = rng.randrange(N - 1, 31)
        got = taylor_solution_linear(eq, init, L).coeffs
        expected = reference_taylor_solution_linear(eq, init, L)
        assert [(type(v), v.numerator, v.denominator) for v in got] == [
            (Fraction, v.numerator, v.denominator) for v in expected
        ]
        seen.add((N, lead < 0, not eq.c0.is_zero))
    assert seen == {(N, negative, c0) for N in range(1, 5) for negative in (False, True) for c0 in (False, True)}


def test_taylor_solution_linear_refusals_and_late_powers():
    with pytest.raises(NotForwardSolvable, match=r"^a_N\(0\) = 0: origin is a singular point of the equation$"):
        taylor_solution_linear(LinearOde((ONE, PolyCoeff(((1, Fraction(1)),)))), (1,), 5)
    with pytest.raises(LengthMismatch, match=r"^need exactly 1 initial Taylor coefficients, got 2$"):
        taylor_solution_linear(gaussian_eq(), (1, 2), 5)
    # A power past L - N never enters b_0..b_L, so it must not size a weight or a power of S.
    huge = PolyCoeff(((0, Fraction(1)), (10**18, Fraction(1))))
    late = LinearOde((huge, PolyCoeff.constant(-3)), c0=huge)
    init = (Fraction(1, 2),)
    assert list(taylor_solution_linear(late, init, 8)) == reference_taylor_solution_linear(late, init, 8)


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
