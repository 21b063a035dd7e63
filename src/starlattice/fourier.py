"""Auxiliary dynamics on the transform coefficients.

For a `NonlinearOde` z^(m) = sum_j a_j z^j with constant a_j, b_0 = a_0
the free term, the coefficient stream obeys

    (n+m)!/n! * zeta_{n+m} = sum_{j>=2} a_j * conv_j(zeta, n) + a_1 zeta_n + b_0 [n = 0],

where conv_j is the j-term constrained convolution
sum_{l_1+...+l_{j-1} <= n} zeta_{l_1} ... zeta_{l_{j-1}} zeta_{n - l_1 - ... - l_{j-1}}.
The constant b_0 enters only at n = 0 because the constant function has
coefficient stream (b_0, 0, 0, ...). Forward-transforming the stream
reproduces the lattice recurrence exactly.

conv_j(zeta, n) is coefficient n of the Cauchy power zeta^j, so the stream
is the Taylor-coefficient recurrence of the same equation: `fourier_step`
hands the `NonlinearOde` that `nonlin_step` and `taylor_solution_nonlinear`
read to `odes.solve_newton`, which runs on integer scaled Newton
coefficients k! c E^k zeta_k and divides once per entry. With polynomial
a_j(t) the stream is still the inverse transform of `nonlin_step`'s
solution; only the formula above needs constant coefficients, and the CLI
refuses any other. `solve_newton` checks the initial values, as for every
`odes` solver. `constrained_convolution` (through `series.pow_trunc`) and
`fourier_solution` keep the paper's literal formulas as its cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .odes import NonlinearOde, solve_newton
from .sequences import FourierSeq, TaylorCoeffs
from .series import pow_trunc
from .transforms import recip_factorial


def constrained_convolution(zeta, j: int, n: int) -> Fraction:
    """conv_j at index n: sum_s [x^s] Z(x)^(j-1) * zeta_{n-s}, Z the prefix zeta_0..zeta_n."""
    head = [zeta[l] for l in range(n + 1)]
    power = pow_trunc(head, j - 1, n)
    return sum((power[s] * head[n - s] for s in range(n + 1)), Fraction(0))


def fourier_step(eq: NonlinearOde, zeta_init, L: int) -> FourierSeq:
    """Coefficient stream zeta_0..zeta_L of eq from the first m values, checked by `odes.solve_newton`."""
    return FourierSeq(tuple(solve_newton(eq, zeta_init, L).taylor_coeffs()))


def fourier_solution(b: TaylorCoeffs, n: int) -> Fraction:
    """Literal double sum sum_{l<=n} sum_{k<=l} (-1)^(n-l) b_k / ((n-l)!(l-k)!).

    The inner alternating sum telescopes to a Kronecker delta, so the value
    is b_n (zero beyond the stored prefix).
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    acc = Fraction(0)
    for l in range(n + 1):
        sign = -1 if (n - l) % 2 else 1
        for k in range(min(l, len(b) - 1) + 1):
            acc += sign * b[k] * recip_factorial(n - l) * recip_factorial(l - k)
    return acc
