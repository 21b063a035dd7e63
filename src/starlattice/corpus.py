"""Self-verifying example families: classic equations with known solutions.

Each case bundles an equation, exact series solutions, and parameters; its
residual table must vanish identically over the verification range. The
families cover oscillators (plain and damped), the bell-curve equation,
the hypergeometric equation at its regular point, a first-order quadratic
equation with a two-parameter solution family, and the Hermite and Jacobi
polynomial equations.

Every series is built on integers and read out once: each builder forms
the integers W_k = k! c E^k b_k of `transforms.ScaledNewton` from its
closed form's term ratio, or as integer coefficient sums over one
denominator, and `taylor_coeffs` divides each entry once (one gcd, none
for a zero). The sine and cosine take W_k = +-p^k for omega = p/q, the
bell curve W_2j = -(2j-1) W_(2j-2), the Gauss series prefix and suffix
products of its Pochhammer factors, the Riccati family its geometric
series, and the damped oscillator `odes.taylor_solution_linear`, itself
an integer solve. No case is kept between calls, and each still checks
its own residuals when built.

The residual tables go through `odes.taylor_residuals`: the equation's
Newton-space defect on the integers of the forward map, read out alone.
For a series solution that defect is zero, so no lattice image and no
Pascal row is built (the forward map sends the continuous residual to the
discrete one). The termwise image in
the Jacobi extras goes through `transforms.taylor_to_lattice`, and the
Jacobi shifted form through its Newton readout, `transforms.ScaledNewton`.
`gauss_sum` keeps the literal sum over (n)_k, on the running `Fraction`
products of `_gauss_coefficients`, as a cross-check of the forward map
and of the integer Gauss series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, perm, prod
from operator import mul

from .errors import GammaPole, PochhammerPole, SingularAtOrigin
from .rational import as_rational, format_rational, over_common_denominator
from .sequences import TaylorCoeffs
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

    Entry k is (-1)^(k//2) omega^k / k! where k % 2 equals the parity, and 0
    elsewhere. With omega = p/q that is W_k / (k! q^k) for W_k = (-1)^(k//2) p^k,
    each term -p^2 times the one two places before, read out once by
    `ScaledNewton(1, q, W)`.
    """
    p, q = omega.numerator, omega.denominator
    W = [0] * (L + 1)
    term = p**parity
    for k in range(parity, L + 1, 2):
        W[k] = term
        term *= -p * p
    return TaylorCoeffs(tuple(ScaledNewton(1, q, tuple(W)).taylor_coeffs()))


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
    # W_k = k! b_k: W_2j = (-1)^j (2j)! / (2^j j!) = -(2j-1) W_(2j-2), and 0 at odd k.
    W = [0] * (L + 1)
    term = 1
    for k in range(0, L + 1, 2):
        W[k] = term
        term *= -(k + 1)
    coeffs = ScaledNewton(1, 1, tuple(W)).taylor_coeffs()
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


def _gauss_newton(a: Fraction, b: Fraction, c: Fraction, L: int) -> ScaledNewton:
    """The coefficients (a)_k (b)_k / ((c)_k k!), k = 0..L, of `_gauss_coefficients` on integers.

    With a = a'/a'', b = b'/b'', c = c'/c'' and the Pochhammer factors
    f_i = c' + i c'', i < L, whose product P is c''^L (c)_L, they are
    W_k / (k! |P| E^k) for E = a'' b'' and
    W_k = sign(P) prod_(i<k) (a' + i a'')(b' + i b'') c'' * prod_(k<=i<L) f_i,
    a prefix product of the numerator factors times a suffix product of
    the f_i, so no index divides. Raises PochhammerPole at the first k
    with (c)_k = 0, as `_gauss_coefficients` does.
    """
    poles = [c.numerator + i * c.denominator for i in range(L)]
    if 0 in poles:
        raise PochhammerPole(f"(c)_{poles.index(0) + 1} = 0 for c = {format_rational(c)}")
    suffix = list(accumulate(reversed(poles), mul, initial=1))[::-1]
    a1, a2, b1, b2 = a.numerator, a.denominator, b.numerator, b.denominator
    numerators = [(a1 + i * a2) * (b1 + i * b2) * c.denominator for i in range(L)]
    prefix = accumulate(numerators, mul, initial=1 if suffix[0] > 0 else -1)
    return ScaledNewton(abs(suffix[0]), a2 * b2, tuple(map(mul, prefix, suffix)))


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
            solutions=(TaylorCoeffs(tuple(_gauss_newton(a, b, c, L).taylor_coeffs())),),
            parameters=(("a", a), ("b", b), ("c", c)),
        )
    )


def riccati_case(k: int = 1, c1=Fraction(-2), c2=Fraction(0), length: int = 20) -> CorpusCase:
    """z' = t^k z^2 with the closed-form family -(k+1) / (t^(k+1) + c1 + k c2).

    The series is the geometric one of 1 / (1 + t^(k+1) / pole), pole =
    c1 + k c2, by its term ratio; the pole must be nonzero or the solution
    has it at the origin.
    """
    c1, c2 = as_rational(c1), as_rational(c2)
    if k < 0:
        raise ValueError("k must be nonnegative")
    pole = c1 + k * c2
    if pole == 0:
        raise SingularAtOrigin("c1 + k c2 = 0 puts the solution's pole at t = 0")
    eq = NonlinearOde(1, (PolyCoeff(()), PolyCoeff(()), PolyCoeff(((k, Fraction(1)),))))
    L = max(length, _BUILD_CHECK_RANGE) + 4
    # -(k+1) / (t^K + pole), K = k + 1, is the geometric series b_(jK) = -K (-1)^j / pole^(j+1),
    # zero elsewhere. With pole = n/d, ScaledNewton(|n|, |n|, W) holds the integers
    # W_(jK) = (jK)! |n|^(jK+1) b_(jK), each (jK-K+1)...(jK) times -d |n|^K / n times W_(jK-K).
    K, n, d = k + 1, pole.numerator, pole.denominator
    W = [0] * (L + 1)
    W[0] = -K * d * abs(n) // n
    for i in range(K, L + 1, K):
        W[i] = W[i - K] * perm(i, K) * (-d * abs(n) ** K // n)
    coeffs = tuple(ScaledNewton(abs(n), abs(n), tuple(W)).taylor_coeffs())
    return _checked(
        CorpusCase(
            name=f"riccati-k{k}",
            equation=eq,
            solutions=(TaylorCoeffs(coeffs),),
            parameters=(("k", Fraction(k)), ("c1", c1), ("c2", c2)),
        )
    )


def hermite_polynomial(m: int) -> list[Fraction]:
    """Probabilists' Hermite polynomial coefficients (monic family).

    He_m(t) = sum_j (-1)^j m! / (j! 2^j (m-2j)!) t^(m-2j), so W_i = i! h_i is
    (-1)^(m//2) times the odd numbers up to m at i = m % 2, and
    W_(i+2) = -(m-i) W_i: integers, read out once by `ScaledNewton(1, 1, W)`.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    W = [0] * (m + 1)
    W[m % 2] = (-1) ** (m // 2) * prod(range(1, m + 1, 2))
    for i in range(m % 2, m - 1, 2):
        W[i + 2] = -(m - i) * W[i]
    return ScaledNewton(1, 1, tuple(W)).taylor_coeffs()


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


def jacobi_polynomial(m: int, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """Classical Jacobi polynomial expanded into monomial coefficients.

    P_m = sum_s C(m+alpha, m-s) C(m+beta, s) ((t-1)/2)^s ((t+1)/2)^(m-s).
    With alpha = a/a'' and beta = b/b'', term s is the integer polynomial
    C(m,s) A_(m-s) B_s a''^s b''^(m-s) (t-1)^s (t+1)^(m-s) over one
    denominator D = 2^m m! a''^m b''^m, where A_j = prod_(i<j) (m a'' + a - i a'')
    and B_j alike. The integer coefficient sums N_i are read out once as
    `ScaledNewton(D, 1, i! N_i)`.
    """
    a, a2, b, b2 = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    A = list(accumulate((m * a2 + a - i * a2 for i in range(m)), mul, initial=1))
    B = list(accumulate((m * b2 + b - i * b2 for i in range(m)), mul, initial=1))
    N = [0] * (m + 1)
    for s in range(m + 1):
        weight = comb(m, s) * A[m - s] * B[s] * a2**s * b2 ** (m - s)
        for i in range(s + 1):  # t^i of (t-1)^s times t^j of (t+1)^(m-s)
            for j in range(m - s + 1):
                N[i + j] += weight * (-1) ** (s - i) * comb(s, i) * comb(m - s, j)
    W = map(mul, N, accumulate(range(1, m + 1), mul, initial=1))  # i! N_i
    return ScaledNewton(2**m * factorial(m) * a2**m * b2**m, 1, tuple(W)).taylor_coeffs()


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
        worst = Fraction(0) if passed else max(map(abs, flat))
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
