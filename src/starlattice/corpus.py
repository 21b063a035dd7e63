"""Self-verifying example families: classic equations with known solutions.

Each case bundles an equation, exact series solutions, and parameters; its
residual table must vanish identically over the verification range. The
families cover oscillators (plain and damped), the bell-curve equation,
the hypergeometric equation at its regular point, a first-order quadratic
equation with a two-parameter solution family, and the Hermite and Jacobi
polynomial equations.

The residual tables go through `odes.taylor_residuals`: the equation's
Newton-space defect on the integers of the forward map, read out alone.
For a series solution that defect is zero, so no lattice image and no
Pascal row is built (the forward map sends the continuous residual to the
discrete one). The termwise image in
the Jacobi extras goes through `transforms.taylor_to_lattice`, and the
Jacobi shifted form through its Newton readout, `transforms.ScaledNewton`.
`gauss_sum` keeps the literal sum over (n)_k as a cross-check of the
forward map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .errors import GammaPole, PochhammerPole, SingularAtOrigin
from .rational import as_rational, format_rational, over_common_denominator
from .sequences import TaylorCoeffs
from .series import mul_trunc, pow_trunc, reciprocal_trunc
from .odes import LinearOde, NonlinearOde, PolyCoeff, taylor_residuals, taylor_solution_linear
from .transforms import ScaledNewton, falling_factorial, taylor_to_lattice

# Every builder self-checks over this range, so its series prefix must cover it too.
_BUILD_CHECK_RANGE = 6


@dataclass(frozen=True)
class CorpusCase:
    name: str
    equation: LinearOde | NonlinearOde
    solutions: tuple[TaylorCoeffs, ...]
    parameters: tuple[tuple[str, Fraction], ...] = ()
    extras: dict = field(default_factory=dict)

    def residual_table(self, length: int) -> list[list[Fraction]]:
        """Residuals per solution for n = 0..length, by `odes.taylor_residuals` on the series integers."""
        return [taylor_residuals(self.equation, sol, length) for sol in self.solutions]

    def verify(self, length: int) -> bool:
        return all(r == 0 for table in self.residual_table(length) for r in table)


def _checked(case: CorpusCase) -> CorpusCase:
    if not case.verify(_BUILD_CHECK_RANGE):
        raise AssertionError(f"corpus case {case.name} fails its own residual check")
    return case


def _trig_coeffs(omega: Fraction, L: int, parity: int) -> TaylorCoeffs:
    """Series of sin(omega t) (parity 1) or cos(omega t) (parity 0) to t^L.

    Entry k is (-1)^(k//2) omega^k / k! where k % 2 equals the parity, and 0 elsewhere.
    """
    return TaylorCoeffs(
        tuple(
            (-1) ** (k // 2) * omega**k / factorial(k) if k % 2 == parity else Fraction(0)
            for k in range(L + 1)
        )
    )


def harmonic_case(omega=Fraction(1), length: int = 20) -> CorpusCase:
    """z'' + omega^2 z = 0 with the sine and cosine series."""
    omega = as_rational(omega)
    eq = LinearOde((PolyCoeff.constant(omega**2), PolyCoeff(()), PolyCoeff.constant(1)))
    L = max(length, _BUILD_CHECK_RANGE) + 4
    return _checked(
        CorpusCase(
            name="harmonic",
            equation=eq,
            solutions=(_trig_coeffs(omega, L, 1), _trig_coeffs(omega, L, 0)),
            parameters=(("omega", omega),),
        )
    )


def damped_case(omega=Fraction(1), q=Fraction(1, 2), length: int = 20) -> CorpusCase:
    """z'' + 2 q omega z' + omega^2 z = 0, underdamped branch q <= 1.

    The closed-form solution has transcendental coefficients; exactness is
    kept by generating the series from rational initial data through the
    coefficient recurrence.
    """
    omega, q = as_rational(omega), as_rational(q)
    if q > 1:
        raise ValueError("damped case is restricted to q <= 1")
    eq = LinearOde(
        (PolyCoeff.constant(omega**2), PolyCoeff.constant(2 * q * omega), PolyCoeff.constant(1))
    )
    L = max(length, _BUILD_CHECK_RANGE) + 4
    sols = (
        taylor_solution_linear(eq, (Fraction(1), Fraction(0)), L),
        taylor_solution_linear(eq, (Fraction(0), Fraction(1)), L),
    )
    return _checked(
        CorpusCase(
            name="damped",
            equation=eq,
            solutions=sols,
            parameters=(("omega", omega), ("q", q)),
        )
    )


def gaussian_case(length: int = 20) -> CorpusCase:
    """z' + t z = 0 with the bell-curve series exp(-t^2/2)."""
    eq = LinearOde((PolyCoeff(((1, Fraction(1)),)), PolyCoeff.constant(1)))
    L = max(length, _BUILD_CHECK_RANGE) + 4
    coeffs = []
    for k in range(L + 1):
        if k % 2:
            coeffs.append(Fraction(0))
        else:
            j = k // 2
            coeffs.append(Fraction((-1) ** j, 2**j * factorial(j)))
    return _checked(
        CorpusCase(name="gaussian", equation=eq, solutions=(TaylorCoeffs(tuple(coeffs)),))
    )


def _gauss_coefficients(a: Fraction, b: Fraction, c: Fraction, L: int) -> list[Fraction]:
    """(a)_k (b)_k / ((c)_k k!) for k = 0..L.

    The rising factorials and k! are running products, one factor per k.
    Raises PochhammerPole at the first k with (c)_k = 0.
    """
    out = []
    pa = pb = pc = Fraction(1)
    k_factorial = 1
    for k in range(L + 1):
        if k:
            pa *= a + k - 1
            pb *= b + k - 1
            pc *= c + k - 1
            k_factorial *= k
        if pc == 0:
            raise PochhammerPole(f"(c)_{k} = 0 for c = {format_rational(c)}")
        out.append(pa * pb / pc / k_factorial)
    return out


def gauss_sum(n: int, a, b, c) -> Fraction:
    """Lattice image of the Gauss hypergeometric series at index n:

        G(n; a, b, c) = sum_{k<=n} (a)_k (b)_k / ((c)_k k!) * (n)_k.

    Requires (c)_k != 0 for every k <= n.
    """
    a, b, c = as_rational(a), as_rational(b), as_rational(c)
    if n < 0:
        raise ValueError("index must be nonnegative")
    return sum(
        (g * falling_factorial(n, k) for k, g in enumerate(_gauss_coefficients(a, b, c, n))),
        Fraction(0),
    )


def hypergeometric_case(
    a=Fraction(1, 2), b=Fraction(1, 3), c=Fraction(5, 4), length: int = 20
) -> CorpusCase:
    """t(1-t) z'' + [c - (a+b+1) t] z' - a b z = 0 at its regular point.

    Verification only: the leading coefficient vanishes at t = 0, so the
    recurrence cannot be forward-stepped; the Gauss-series image is checked
    to have zero residual instead.
    """
    a, b, c = as_rational(a), as_rational(b), as_rational(c)
    eq = LinearOde(
        (
            PolyCoeff.constant(-a * b),
            PolyCoeff(((0, c), (1, -(a + b + 1)))),
            PolyCoeff(((1, Fraction(1)), (2, Fraction(-1)))),
        )
    )
    L = max(length, _BUILD_CHECK_RANGE) + 4
    return _checked(
        CorpusCase(
            name="hypergeometric",
            equation=eq,
            solutions=(TaylorCoeffs(tuple(_gauss_coefficients(a, b, c, L))),),
            parameters=(("a", a), ("b", b), ("c", c)),
        )
    )


def riccati_case(k: int = 1, c1=Fraction(-2), c2=Fraction(0), length: int = 20) -> CorpusCase:
    """z' = t^k z^2 with the closed-form family -(k+1) / (t^(k+1) + c1 + k c2).

    The series is produced by exact division; c1 + k c2 must be nonzero or
    the solution has a pole at the origin.
    """
    c1, c2 = as_rational(c1), as_rational(c2)
    if k < 0:
        raise ValueError("k must be nonnegative")
    pole = c1 + k * c2
    if pole == 0:
        raise SingularAtOrigin("c1 + k c2 = 0 puts the solution's pole at t = 0")
    eq = NonlinearOde(1, (PolyCoeff(()), PolyCoeff(()), PolyCoeff(((k, Fraction(1)),))))
    L = max(length, _BUILD_CHECK_RANGE) + 4
    denominator = [Fraction(0)] * (k + 2)
    denominator[0] = pole
    denominator[k + 1] = Fraction(1)
    inv = reciprocal_trunc(denominator, L)
    coeffs = tuple(-(k + 1) * v for v in inv)
    return _checked(
        CorpusCase(
            name=f"riccati-k{k}",
            equation=eq,
            solutions=(TaylorCoeffs(coeffs),),
            parameters=(("k", Fraction(k)), ("c1", c1), ("c2", c2)),
        )
    )


def hermite_polynomial(m: int) -> list[Fraction]:
    """Probabilists' Hermite polynomial coefficients (monic family)."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    prev = [Fraction(1)]
    if m == 0:
        return prev
    cur = [Fraction(0), Fraction(1)]
    for n in range(1, m):
        nxt = [Fraction(0), *cur]
        for i, c in enumerate(prev):
            nxt[i] -= n * c
        prev, cur = cur, nxt
    return cur


def hermite_case(m: int = 2, length: int = 20) -> CorpusCase:
    """z'' - t z' + m z = 0 solved by the degree-m Hermite polynomial image."""
    eq = LinearOde(
        (PolyCoeff.constant(m), PolyCoeff(((1, Fraction(-1)),)), PolyCoeff.constant(1))
    )
    coeffs = TaylorCoeffs(tuple(hermite_polynomial(m)))
    return _checked(
        CorpusCase(
            name=f"hermite-m{m}",
            equation=eq,
            solutions=(coeffs,),
            parameters=(("m", Fraction(m)),),
        )
    )


def _binomial_general(x: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= (x - i) / (i + 1)
    return out


def jacobi_polynomial(m: int, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """Classical Jacobi polynomial expanded into monomial coefficients."""
    half_minus = [Fraction(-1, 2), Fraction(1, 2)]  # (t-1)/2
    half_plus = [Fraction(1, 2), Fraction(1, 2)]  # (t+1)/2
    total = [Fraction(0)] * (m + 1)
    for s in range(m + 1):
        term = mul_trunc(pow_trunc(half_minus, s, m), pow_trunc(half_plus, m - s, m), m)
        w = _binomial_general(m + alpha, m - s) * _binomial_general(m + beta, s)
        for i, c in enumerate(term):
            total[i] += w * c
    return total


def jacobi_shifted_values(m: int, alpha: Fraction, beta: Fraction, length: int) -> list[Fraction]:
    """Alternate lattice polynomial built from shifted falling factorials, n = 0..length:

        (1/m!) sum_k C(m,k) (alpha+beta+m+1)_k (1/2)^k (n-1)(n-2)...(n-k).

    With the weights over one common denominator D as integers W_k, D z_n is
    sum_k W_k (n-1)_k, whose Newton coefficients at n = 1 are u_k = k! W_k;
    one backward Pascal step, u_l - u_{l+1} from the top down, moves them to
    n = 0. Kept for side-by-side comparison with the termwise image; the two
    do not agree in general and only the residual test is authoritative.
    """
    x = alpha + beta + m + 1
    weights = []
    rising = Fraction(1)  # (x)_k
    for k in range(m + 1):
        if k:
            rising *= x + k - 1
        weights.append(comb(m, k) * rising / (2**k * factorial(m)))
    D, W = over_common_denominator(weights)
    u = [factorial(k) * w for k, w in enumerate(W)]
    for l in range(m - 1, -1, -1):
        u[l] -= u[l + 1]
    return ScaledNewton(D, 1, tuple(u)).lattice_values(length + 1)


def jacobi_case(
    m: int = 2, alpha=Fraction(1, 2), beta=Fraction(1, 3), length: int = 20
) -> CorpusCase:
    """(1-t^2) z'' + [beta-alpha-(alpha+beta+2)t] z' + m(m+alpha+beta+1) z = 0.

    The normative solution is the termwise image of the expanded Jacobi
    polynomial. The shifted-form evaluation is reported alongside it.
    """
    alpha, beta = as_rational(alpha), as_rational(beta)
    for probe in (alpha + m + 1, alpha + beta + m + 1):
        if probe.denominator == 1 and probe <= 0:
            raise GammaPole(f"prefactor pole: {format_rational(probe)} is a nonpositive integer")
    eq = LinearOde(
        (
            PolyCoeff.constant(m * (m + alpha + beta + 1)),
            PolyCoeff(((0, beta - alpha), (1, -(alpha + beta + 2)))),
            PolyCoeff(((0, Fraction(1)), (2, Fraction(-1)))),
        )
    )
    coeffs = TaylorCoeffs(tuple(jacobi_polynomial(m, alpha, beta)))
    termwise = list(taylor_to_lattice(coeffs, length).values)
    shifted = jacobi_shifted_values(m, alpha, beta, length)
    extras = {
        "termwise_values": [format_rational(v) for v in termwise],
        "shifted_form_values": [format_rational(v) for v in shifted],
        "shifted_form_agrees": termwise == shifted,
    }
    return _checked(
        CorpusCase(
            name=f"jacobi-m{m}",
            equation=eq,
            solutions=(coeffs,),
            parameters=(("m", Fraction(m)), ("alpha", alpha), ("beta", beta)),
            extras=extras,
        )
    )


def standard_cases(length: int = 20) -> list[CorpusCase]:
    cases = [
        harmonic_case(length=length),
        damped_case(length=length),
        gaussian_case(length=length),
        hypergeometric_case(length=length),
        riccati_case(k=0, c1=Fraction(-1), length=length),
        riccati_case(k=1, c1=Fraction(-2), length=length),
    ]
    cases.extend(hermite_case(m, length=length) for m in range(7))
    cases.extend(jacobi_case(m, length=length) for m in (2, 3))
    return cases


def run_corpus(length: int = 20) -> dict:
    """Run every standard case and collect a JSON-ready report."""
    report_cases = []
    all_pass = True
    for case in standard_cases(length):
        tables = case.residual_table(length)
        flat = [r for table in tables for r in table]
        passed = all(r == 0 for r in flat)
        all_pass = all_pass and passed
        worst = max((abs(r) for r in flat), default=Fraction(0))
        report_cases.append(
            {
                "name": case.name,
                "parameters": {k: format_rational(v) for k, v in case.parameters},
                "solutions": len(case.solutions),
                "checked_range": length,
                "residuals_zero": passed,
                "max_abs_residual": format_rational(worst),
                "extras": case.extras,
            }
        )
    return {"length": length, "all_pass": all_pass, "cases": report_cases}
