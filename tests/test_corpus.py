from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import factorial

import pytest

from starlattice import (
    LatticeSeq,
    PochhammerPole,
    SingularAtOrigin,
    TaylorCoeffs,
    corpus,
    falling_factorial,
    inverse_transform,
    taylor_to_lattice,
)
from starlattice.cli import run
from starlattice.corpus import (
    CorpusCase,
    damped_case,
    gauss_sum,
    gaussian_case,
    harmonic_case,
    hermite_case,
    hermite_polynomial,
    hypergeometric_case,
    jacobi_case,
    jacobi_polynomial,
    jacobi_shifted_values,
    riccati_case,
    run_corpus,
    standard_cases,
)
from starlattice.errors import GammaPole
from starlattice.odes import LinearOde, lin_residual, lin_residual_kernel, lin_step, local_stencil, nonlin_step
from starlattice.rational import format_rational
from starlattice.series import mul_trunc, pow_trunc
from test_deltaops import reciprocal_trunc
from test_odes import reference_taylor_solution_linear


def reference_binomial(x: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= (x - i) / (i + 1)
    return out


def reference_jacobi_shifted_form(m: int, alpha: Fraction, beta: Fraction, n: int) -> Fraction:
    """(1/m!) sum_k C(m,k) (alpha+beta+m+1)_k (1/2)^k (n-1)(n-2)...(n-k), one index at a time.

    The per-index `Fraction` form that `jacobi_shifted_values` replaced, kept as its oracle.
    """
    x = alpha + beta + m + 1
    acc = Fraction(0)
    rising = Fraction(1)  # (x)_k
    shifted = 1  # (n-1)(n-2)...(n-k)
    for k in range(m + 1):
        if k:
            rising *= x + k - 1
            shifted *= n - k
        acc += reference_binomial(Fraction(m), k) * rising * Fraction(shifted, 2**k)
    return acc / factorial(m)


def reference_trig_coeffs(omega: Fraction, L: int, parity: int) -> list[Fraction]:
    """(-1)^(k//2) omega^k / k! where k % 2 equals the parity, else 0: the replaced per-term form."""
    return [(-1) ** (k // 2) * omega**k / factorial(k) if k % 2 == parity else Fraction(0) for k in range(L + 1)]


def reference_gaussian_coeffs(L: int) -> list[Fraction]:
    """exp(-t^2/2) term by term, (-1)^j / (2^j j!) at k = 2j: the replaced per-term form."""
    return [
        Fraction(0) if k % 2 else Fraction((-1) ** (k // 2), 2 ** (k // 2) * factorial(k // 2)) for k in range(L + 1)
    ]


def reference_riccati_coeffs(k: int, pole: Fraction, L: int) -> list[Fraction]:
    """-(k+1) / (t^(k+1) + pole) by series division: the replaced `Fraction` route."""
    denominator = [Fraction(0)] * (k + 2)
    denominator[0], denominator[k + 1] = pole, Fraction(1)
    return [-(k + 1) * v for v in reciprocal_trunc(denominator, L)]


def reference_hermite_polynomial(m: int) -> list[Fraction]:
    """He_(n+1) = t He_n - n He_(n-1) on `Fraction` lists: the replaced recurrence."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if m == 0:
        return prev
    for n in range(1, m):
        nxt = [Fraction(0), *cur]
        for i, c in enumerate(prev):
            nxt[i] -= n * c
        prev, cur = cur, nxt
    return cur


def reference_jacobi_polynomial(m: int, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """sum_s C(m+alpha, m-s) C(m+beta, s) ((t-1)/2)^s ((t+1)/2)^(m-s) by series products: the replaced form."""
    half_minus, half_plus = [Fraction(-1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]
    total = [Fraction(0)] * (m + 1)
    for s in range(m + 1):
        term = mul_trunc(pow_trunc(half_minus, s, m), pow_trunc(half_plus, m - s, m), m)
        w = reference_binomial(m + alpha, m - s) * reference_binomial(m + beta, s)
        for i, c in enumerate(term):
            total[i] += w * c
    return total


def exact_entries(values) -> list[tuple[type, int, int]]:
    """Type, numerator and denominator of each entry: equal lists mean equal values in lowest terms."""
    return [(type(v), v.numerator, v.denominator) for v in values]


def fractions_of(values) -> list[tuple[type, int, int]]:
    """What `exact_entries` must read for the reference values: every entry a `Fraction`."""
    return [(Fraction, v.numerator, v.denominator) for v in values]


def test_every_builder_matches_its_fraction_reference():
    rng = random.Random(27)

    def rational(span=13, den=9):
        return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, den))

    for length in range(41):
        L = max(length, 6) + 4  # the prefix every builder stores
        omega = rational()
        sine, cosine = harmonic_case(omega, length).solutions
        assert exact_entries(sine) == fractions_of(reference_trig_coeffs(omega, L, 1))
        assert exact_entries(cosine) == fractions_of(reference_trig_coeffs(omega, L, 0))
        omega, q = rational(), Fraction(rng.randrange(0, 9), rng.randrange(8, 12))
        damped = damped_case(omega, q, length)
        for solution, init in zip(damped.solutions, ((1, 0), (0, 1))):
            assert exact_entries(solution) == fractions_of(reference_taylor_solution_linear(damped.equation, init, L))
        assert exact_entries(gaussian_case(length).solutions[0]) == fractions_of(reference_gaussian_coeffs(L))
        a, b = rational(), rational()
        c = Fraction(2 * rng.randrange(-8, 9) + 1, 2 * rng.randrange(1, 5))  # never an integer: no pole
        (gauss,) = hypergeometric_case(a, b, c, length).solutions
        assert exact_entries(gauss) == fractions_of(corpus._gauss_coefficients(a, b, c, L))
        k, c1, c2 = rng.randrange(0, 5), rational(), rational()
        if c1 + k * c2:
            (riccati,) = riccati_case(k, c1, c2, length).solutions
            assert exact_entries(riccati) == fractions_of(reference_riccati_coeffs(k, c1 + k * c2, L))
        m = rng.randrange(0, 13)
        (hermite,) = hermite_case(m, length).solutions
        assert exact_entries(hermite) == fractions_of(reference_hermite_polynomial(m))
        m, alpha, beta = rng.randrange(0, 7), rational(40, 13), rational(40, 13)
        expected = fractions_of(reference_jacobi_polynomial(m, alpha, beta))
        assert exact_entries(jacobi_polynomial(m, alpha, beta)) == expected
        if (alpha + m + 1).denominator != 1 and (alpha + beta + m + 1).denominator != 1:  # no GammaPole
            assert exact_entries(jacobi_case(m, alpha, beta, length).solutions[0]) == expected


def test_builders_refuse_what_their_references_refuse():
    rng = random.Random(28)
    outcomes = set()
    for length in range(0, 41, 4):
        L = max(length, 6) + 4
        # (c)_k = 0 at the first k with c + k - 1 = 0, within the prefix or past it.
        c = Fraction(-rng.randrange(0, 2 * L))
        a, b = Fraction(rng.randrange(-9, 10), 7), Fraction(1, 3)
        try:
            corpus._gauss_coefficients(a, b, c, L)
        except PochhammerPole as refusal:
            outcomes.add("pole")
            with pytest.raises(PochhammerPole, match=rf"^{re.escape(str(refusal))}$"):
                hypergeometric_case(a, b, c, length)
        else:
            outcomes.add("pole past the prefix")
            assert exact_entries(hypergeometric_case(a, b, c, length).solutions[0]) == fractions_of(
                corpus._gauss_coefficients(a, b, c, L)
            )
        k = rng.randrange(1, 5)
        c1 = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        with pytest.raises(SingularAtOrigin):
            riccati_case(k, c1, -c1 / k, length)
        with pytest.raises(ValueError, match=r"^damped case is restricted to q <= 1$"):
            damped_case(Fraction(rng.randrange(1, 5)), 1 + Fraction(1, rng.randrange(1, 9)), length)
    assert outcomes == {"pole", "pole past the prefix"}
    with pytest.raises(PochhammerPole, match=r"^\(c\)_3 = 0 for c = -2$"):
        hypergeometric_case(Fraction(1, 2), Fraction(1, 3), Fraction(-2))


def test_every_standard_case_verifies():
    for case in standard_cases(length=14):
        assert case.verify(14), case.name


def test_harmonic_stencil_and_stepping():
    case = harmonic_case(Fraction(1))
    assert local_stencil(case.equation) == (1, -2, 2)
    stepped = lin_step(case.equation, (0, 1), 10)
    assert stepped.values[:6] == (0, 1, 2, 2, 0, -4)
    assert stepped == taylor_to_lattice(case.solutions[0], 10)


def test_damped_matches_closed_recurrence():
    omega, q = Fraction(1), Fraction(1, 2)
    case = damped_case(omega, q)
    rng = random.Random(4)
    z = LatticeSeq(tuple(Fraction(rng.randrange(-9, 10)) for _ in range(8)))
    for n in range(6):
        expected = z[n + 2] + 2 * (q * omega - 1) * z[n + 1] + (omega**2 - 2 * q * omega + 1) * z[n]
        assert lin_residual(case.equation, z, n) == expected
    assert local_stencil(case.equation) == (
        Fraction(1),
        2 * (q * omega - 1),
        omega**2 - 2 * q * omega + 1,
    )


def test_damped_degenerates_to_harmonic():
    assert damped_case(Fraction(2), Fraction(0)).equation == harmonic_case(Fraction(2)).equation
    with pytest.raises(ValueError):
        damped_case(Fraction(1), Fraction(3, 2))


def test_gaussian_first_values_and_parity():
    case = gaussian_case()
    sol = case.solutions[0]
    z = taylor_to_lattice(sol, 10)
    assert z.values[:3] == (1, 1, 0)
    assert all(sol[k] == 0 for k in range(1, len(sol), 2))
    # inverse transform of the lattice image recovers the coefficients,
    # odd-index zeros included
    recovered = inverse_transform(z)
    assert recovered.coeffs == sol.coeffs[:11]


def test_kernel_form_redundancy_on_all_linear_cases():
    for case in standard_cases(length=10):
        if not isinstance(case.equation, LinearOde):
            continue
        z = taylor_to_lattice(case.solutions[0], 10 + case.equation.order)
        for n in range(11):
            shift = lin_residual(case.equation, z, n)
            kernel = lin_residual_kernel(case.equation, z, n)
            assert shift == kernel == 0, case.name


def test_gauss_sum_values():
    a, b, c = Fraction(1, 2), Fraction(1, 3), Fraction(5, 4)
    assert gauss_sum(0, a, b, c) == 1
    assert gauss_sum(1, a, b, c) == 1 + a * b / c
    with pytest.raises(PochhammerPole):
        gauss_sum(4, a, b, Fraction(-2))


def test_hypergeometric_residuals_vanish():
    case = hypergeometric_case()
    assert case.verify(20)
    # the solution sequence is exactly the finite Gauss-sum image
    a, b, c = (dict(case.parameters)[k] for k in ("a", "b", "c"))
    z = taylor_to_lattice(case.solutions[0], 8)
    for n in range(9):
        assert z[n] == gauss_sum(n, a, b, c)


def test_riccati_all_ones_normalization():
    case = riccati_case(k=0, c1=Fraction(-1))
    assert case.solutions[0].coeffs[:5] == (1, 1, 1, 1, 1)
    stepped = nonlin_step(case.equation, (1,), 4)
    assert stepped.values == (1, 2, 5, 16, 65)


def test_riccati_k1_series_and_stepping():
    case = riccati_case(k=1, c1=Fraction(-2), c2=Fraction(0))
    sol = case.solutions[0]
    assert sol[0] == 1  # -2 / (0 - 2)
    z = taylor_to_lattice(sol, 12)
    assert nonlin_step(case.equation, (z[0],), 12) == z
    with pytest.raises(SingularAtOrigin):
        riccati_case(k=1, c1=Fraction(2), c2=Fraction(-2))


def test_hermite_polynomials_and_case():
    assert hermite_polynomial(2) == [-1, 0, 1]
    assert hermite_polynomial(3) == [0, -3, 0, 1]
    case = hermite_case(2)
    z = taylor_to_lattice(case.solutions[0], 8)
    assert z.values == tuple(Fraction(n * n - n - 1) for n in range(9))
    assert hermite_case(0).verify(10)
    assert hermite_case(3).verify(15)


def test_hermite_stepping_reproduces_polynomial():
    case = hermite_case(2)
    z = taylor_to_lattice(case.solutions[0], 12)
    assert lin_step(case.equation, (z[0], z[1]), 12) == z


def test_jacobi_case_residuals_and_comparison():
    case = jacobi_case(2, Fraction(1, 2), Fraction(1, 3))
    assert case.verify(14)
    assert case.extras["shifted_form_agrees"] is False
    assert len(case.extras["termwise_values"]) == len(case.extras["shifted_form_values"])
    with pytest.raises(GammaPole):
        jacobi_case(2, Fraction(-4), Fraction(1))


def test_jacobi_extras_match_the_per_index_forms():
    # n = 0 makes every running product (n-1)...(n-k) nonzero with sign (-1)^k.
    rng = random.Random(10)
    checked = 0
    while checked < 60:
        m = checked % 6
        alpha = Fraction(rng.randrange(-40, 41), rng.randrange(1, 13))
        beta = Fraction(rng.randrange(-40, 41), rng.randrange(1, 13))
        try:
            case = jacobi_case(m, alpha, beta, length=30)
        except GammaPole:
            continue
        values = jacobi_shifted_values(m, alpha, beta, 30)
        assert values == [reference_jacobi_shifted_form(m, alpha, beta, n) for n in range(31)]
        assert all(type(v) is Fraction for v in values)
        assert case.extras["shifted_form_values"] == [format_rational(v) for v in values]
        poly = case.solutions[0]
        termwise = [sum(c * falling_factorial(n, k) for k, c in enumerate(poly)) for n in range(31)]
        assert case.extras["termwise_values"] == [format_rational(v) for v in termwise]
        checked += 1


def test_jacobi_polynomial_known_value():
    # P_1^(a,b)(t) = (a - b)/2 + (a + b + 2)/2 * t
    a, b = Fraction(1, 2), Fraction(1, 3)
    assert jacobi_polynomial(1, a, b) == [(a - b) / 2, (a + b + 2) / 2]


def test_jacobi_degree_zero_is_constant():
    case = jacobi_case(0, Fraction(1, 2), Fraction(1, 3))
    assert case.solutions[0].coeffs == (1,)
    assert case.verify(12)
    assert case.extras["shifted_form_agrees"] is True


def test_run_corpus_report():
    report = run_corpus(length=10)
    assert report["all_pass"] is True
    names = [c["name"] for c in report["cases"]]
    assert "harmonic" in names and "hypergeometric" in names
    for case in report["cases"]:
        assert case["residuals_zero"] is True
        assert case["max_abs_residual"] == "0"


def perturbed_sine_cases(length: int, delta: Fraction) -> list[CorpusCase]:
    """The harmonic sine series, z'' + z = 0, off by delta in one coefficient.

    Its residual table is F R, R_k = (k+2)(k+1) b_{k+2} + b_k the continuous
    residual, so moving b_{length+2} by delta moves only R_length, by
    (length+2)(length+1) delta, and leaves the residual (length+2)! delta at
    the last checked index n = length alone. Moving b_3 moves R_1 by 6 delta
    and R_3 by delta: the residual at n is 6 delta n + delta (n)_3.
    """
    harmonic = harmonic_case(length=length)
    sine = harmonic.solutions[0].coeffs

    def off_at(k: int) -> tuple[TaylorCoeffs, ...]:
        return (TaylorCoeffs(sine[:k] + (sine[k] + delta,) + sine[k + 1 :]),)

    return [
        CorpusCase("sine-off-at-the-last-index", harmonic.equation, off_at(length + 2)),
        harmonic,
        CorpusCase("sine-off-at-b3", harmonic.equation, off_at(3)),
    ]


def test_run_corpus_fails_a_perturbed_case_and_the_cli_exits_1(monkeypatch, tmp_path):
    length, delta = 8, Fraction(-1, 3)
    monkeypatch.setattr(corpus, "standard_cases", lambda length: perturbed_sine_cases(length, delta))
    report = run_corpus(length)
    assert report["all_pass"] is False
    verdicts = [(c["name"], c["residuals_zero"], c["max_abs_residual"]) for c in report["cases"]]
    assert verdicts == [
        ("sine-off-at-the-last-index", False, format_rational(factorial(length + 2) * abs(delta))),
        ("harmonic", True, "0"),
        ("sine-off-at-b3", False, format_rational(abs(delta) * (6 * length + falling_factorial(length, 3)))),
    ]
    out = tmp_path / "report.json"
    assert run(["corpus", "--length", str(length), "--out", str(out)]) == 1
    assert json.loads(out.read_text()) == {"command": "corpus", **report}
