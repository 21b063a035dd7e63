from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from starlattice import IndexOutOfRange, LengthMismatch, TaylorCoeffs, forward_transform, inverse_transform
from starlattice.fourier import constrained_convolution, fourier_solution, fourier_step
from starlattice.odes import NonlinearOde, PolyCoeff, nonlin_step


def const_ode(m: int, *coeffs) -> NonlinearOde:
    """z^(m) = sum_j a_j z^j with constant a_0..a_N."""
    return NonlinearOde(m, tuple(PolyCoeff.constant(c) for c in coeffs))


def test_linear_degenerate_case():
    # z' = z gives the scalar recurrence (n+1) zeta_{n+1} = zeta_n.
    eq = const_ode(1, 0, 1)
    zeta = fourier_step(eq, (1,), 12)
    assert zeta.coeffs == tuple(Fraction(1, factorial(n)) for n in range(13))


def test_square_equation_all_ones():
    eq = const_ode(1, 0, 0, 1)
    zeta = fourier_step(eq, (1,), 30)
    assert zeta.coeffs == (Fraction(1),) * 31


def test_zero_dynamics():
    eq = const_ode(1, 0, 0, 1)
    zeta = fourier_step(eq, (0,), 8)
    assert zeta.coeffs == (Fraction(0),) * 9


def test_inhomogeneous_term_only_at_origin():
    # z' = 2z + 5/2: z = (c + 5/4) e^(2t) - 5/4, stream ((c + 5/4) 2^n / n! - 5/4 [n = 0]).
    # b0 enters the recurrence at n = 0 only. (z' = b0 alone has a_N = 0 and is no NonlinearOde.)
    eq = const_ode(1, Fraction(5, 2), 2)
    zeta = fourier_step(eq, (Fraction(3),), 12)
    scale = Fraction(3) + Fraction(5, 4)
    assert zeta.coeffs == tuple(scale * 2**n / factorial(n) - (Fraction(5, 4) if n == 0 else 0) for n in range(13))


def test_consistency_with_lattice_stepping():
    # One equation object serves both routes.
    L = 30
    for eq in (const_ode(1, 0, 0, 1), const_ode(1, 0, 2, -1), const_ode(2, Fraction(1, 3), 1)):
        init = tuple(Fraction(1, k + 1) for k in range(eq.m))
        z = forward_transform(fourier_step(eq, init, L))
        assert nonlin_step(eq, z.values[: eq.m], L) == z


def test_time_dependent_equation_streams_the_lattice_solution():
    # z'' = t z + (1 - t^2/3) z^2 + 1/2: the library runs any NonlinearOde, and the
    # stream is the inverse transform of the lattice solution of the same object.
    a = (PolyCoeff.constant(Fraction(1, 2)), PolyCoeff(((1, 1),)), PolyCoeff(((0, 1), (2, Fraction(-1, 3)))))
    eq = NonlinearOde(2, a)
    zeta = inverse_transform(nonlin_step(eq, (Fraction(1, 2), Fraction(-2, 3)), 24))
    assert fourier_step(eq, zeta.coeffs[:2], 24) == zeta


def test_constrained_convolution_degenerate():
    zeta = [Fraction(1), Fraction(2), Fraction(3)]
    assert constrained_convolution(zeta, 1, 2) == 3
    # j = 2: ordinary Cauchy term sum_{l<=n} zeta_l zeta_{n-l}
    assert constrained_convolution(zeta, 2, 2) == 1 * 3 + 2 * 2 + 3 * 1


def test_fourier_solution_examples():
    c = Fraction(9, 4)
    assert fourier_solution(TaylorCoeffs((c, 0)), 0) == c
    b = TaylorCoeffs((Fraction(5), Fraction(-2)))
    assert fourier_solution(b, 1) == -2


def test_fourier_solution_collapses_to_coefficients():
    rng = random.Random(71)
    for _ in range(25):
        length = rng.randrange(1, 22)
        b = TaylorCoeffs(
            tuple(Fraction(rng.randrange(-30, 31), rng.randrange(1, 9)) for _ in range(length))
        )
        for n in range(21):
            expected = b[n] if n < length else Fraction(0)
            assert fourier_solution(b, n) == expected


def test_init_length_validation():
    eq = const_ode(2, 0, 1)
    with pytest.raises(LengthMismatch, match=r"^need exactly 2 initial coefficients, got 1$"):
        fourier_step(eq, (1,), 10)
    with pytest.raises(IndexOutOfRange, match=r"^length L=0 shorter than the 2 initial coefficients$"):
        fourier_step(eq, (1, 2), 0)
    assert len(fourier_step(eq, (1, 2), 1).coeffs) == 2
