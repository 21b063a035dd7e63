from __future__ import annotations

import random
import time
from dataclasses import replace
from fractions import Fraction
from math import copysign, factorial, isqrt

import pytest

from starlattice import FloatOverflow, LatticeSeq, RootCertificationError, SingularSystem, TaylorCoeffs, taylor_to_lattice
from starlattice.deltaops import SYMMETRIC_DIFFERENCE, apply_stencil
from starlattice import galois, series
from starlattice.galois import (
    ConstLinearEq,
    QuadExt,
    RootDatum,
    apply_operator,
    build_fundamental_system,
    char_roots,
    map_solution,
    modified_wronskian,
    system_from_sequences,
    verify_fundamental,
)
from starlattice.rational import over_common_denominator
from starlattice.transforms import falling_factorial


def sin_cos_system(L: int):
    sin_b = []
    cos_b = []
    for k in range(L + 2):
        if k % 2 == 0:
            sin_b.append(Fraction(0))
            cos_b.append(Fraction((-1) ** (k // 2), factorial(k)))
        else:
            sin_b.append(Fraction((-1) ** ((k - 1) // 2), factorial(k)))
            cos_b.append(Fraction(0))
    z1 = taylor_to_lattice(TaylorCoeffs(tuple(sin_b)), L)
    z2 = taylor_to_lattice(TaylorCoeffs(tuple(cos_b)), L)
    return z1, z2


def test_char_roots_difference_of_squares():
    roots = char_roots(ConstLinearEq((Fraction(-1), Fraction(0))))
    values = sorted((r.value, r.multiplicity) for r in roots)
    assert values == [(Fraction(-1), 1), (Fraction(1), 1)]
    assert all(r.exact for r in roots)


def test_char_roots_double_zero():
    roots = char_roots(ConstLinearEq((Fraction(0), Fraction(0))))
    assert len(roots) == 1
    assert roots[0].value == 0 and roots[0].multiplicity == 2


def test_char_roots_gaussian_pair():
    roots = char_roots(ConstLinearEq((Fraction(1), Fraction(0))))
    assert all(isinstance(r.value, QuadExt) and r.exact for r in roots)
    assert {complex(r.value) for r in roots} == {1j, -1j}


def test_char_roots_float_fallback():
    # x^3 - x - 1 has no rational roots; certified floats expected.
    roots = char_roots(ConstLinearEq((Fraction(-1), Fraction(-1), Fraction(0))))
    assert len(roots) == 3
    assert all(not r.exact for r in roots)


def test_map_solution_examples():
    zero = RootDatum(Fraction(0), 1, True)
    assert map_solution(zero, 0, 5) == (1,) * 6
    one = RootDatum(Fraction(1), 1, True)
    assert map_solution(one, 0, 5) == tuple(Fraction(2) ** n for n in range(6))
    double_zero = RootDatum(Fraction(0), 2, True)
    assert map_solution(double_zero, 1, 5) == tuple(Fraction(n) for n in range(6))
    with pytest.raises(ValueError):
        map_solution(zero, 1, 5)


def test_eigen_relation():
    lam = Fraction(3, 2)
    sol = map_solution(RootDatum(lam, 1, True), 0, 10)
    for n in range(10):
        assert sol[n + 1] - sol[n] == lam * sol[n]


def test_wronskian_single_geometric():
    sys = system_from_sequences([tuple(Fraction(2) ** n for n in range(4))])
    assert modified_wronskian(sys) == 1


def test_wronskian_harmonic_sin_cos():
    z1, z2 = sin_cos_system(8)
    sys = system_from_sequences([z1.values, z2.values])
    assert modified_wronskian(sys) == -1


def test_wronskian_constant_and_ramp():
    sys = system_from_sequences([(1, 1, 1), (0, 1, 2)])
    assert modified_wronskian(sys) == 1


def test_wronskian_detects_dependence():
    sys = system_from_sequences([(1, 2, 4), (2, 4, 8)])
    with pytest.raises(SingularSystem):
        modified_wronskian(sys)


def test_verify_fundamental_harmonic_exact_surds():
    report = verify_fundamental(ConstLinearEq((Fraction(1), Fraction(0))), 14)
    assert report.ok and report.all_exact
    assert report.dimension == 2
    w = complex(report.wronskian)
    assert w.real == pytest.approx(0.0) and abs(w.imag) == pytest.approx(2.0)


def test_verify_fundamental_first_order():
    report = verify_fundamental(ConstLinearEq((Fraction(-1),)), 12)
    assert report.ok
    sol = map_solution(report.roots[0], 0, 6)
    assert sol == tuple(Fraction(2) ** n for n in range(7))


def test_verify_fundamental_triple_root():
    report = verify_fundamental(ConstLinearEq((Fraction(0), Fraction(0), Fraction(0))), 12)
    assert report.ok and report.dimension == 3
    sys = build_fundamental_system(ConstLinearEq((0, 0, 0)), 8)
    assert sys.solutions[0] == (1,) * 9
    assert sys.solutions[1] == tuple(Fraction(n) for n in range(9))
    assert sys.solutions[2] == tuple(Fraction(n * (n - 1)) for n in range(9))


def test_verify_fundamental_damped():
    # characteristic roots of x^2 + x + 1: exact surd pair with d = -3
    report = verify_fundamental(ConstLinearEq((Fraction(1), Fraction(1))), 12)
    assert report.ok and report.all_exact
    assert all(isinstance(r.value, QuadExt) for r in report.roots)


def test_operator_on_constants():
    # T[Delta] of a constant sequence is a_0 * constant.
    eq = ConstLinearEq((Fraction(5, 3), Fraction(-2)))
    c = Fraction(7, 2)
    values = (c,) * 6
    for n in range(4):
        assert apply_operator(eq, values, n) == eq.a[0] * c


def test_random_rational_systems_map_isomorphically():
    rng = random.Random(20250414)
    pool = sorted({Fraction(k, d) for d in (1, 2, 3) for k in range(-3 * d, 3 * d + 1)})
    for _ in range(20):
        N = rng.randrange(1, 5)
        roots = rng.sample(pool, N)
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [Fraction(0), *coeffs]
            nxt = list(coeffs)
            for i in range(len(coeffs) - 1):
                nxt[i] -= r * coeffs[i + 1]
            coeffs = nxt
        eq = ConstLinearEq(tuple(coeffs[:-1]))
        L = 20 + N
        sys = build_fundamental_system(eq, L)
        for sol in sys.solutions:
            for n in range(L - N + 1):
                assert apply_operator(eq, sol, n) == 0
        w = modified_wronskian(sys)
        # distinct eigenvalues: the base matrix is Vandermonde in the roots
        expected = Fraction(1)
        ordered = [g[0] for g in sys.generators]
        for i in range(N):
            for j in range(i + 1, N):
                expected *= ordered[j] - ordered[i]
        assert w == expected


def test_multiplicity_block_independent():
    eq = ConstLinearEq((Fraction(1), Fraction(-2)))  # (x-1)^2
    report = verify_fundamental(eq, 12)
    assert report.ok
    assert [r.multiplicity for r in report.roots] == [2]


def test_generic_stencil_solution_space_exceeds_order():
    # First-order equation Q z = 0 for the symmetric stencil admits two
    # independent solutions, so the solution space is larger than the order.
    ones = LatticeSeq((1,) * 10)
    alt = LatticeSeq(tuple(Fraction((-1) ** n) for n in range(10)))
    for n in range(1, 9):
        assert apply_stencil(SYMMETRIC_DIFFERENCE, ones, n) == 0
        assert apply_stencil(SYMMETRIC_DIFFERENCE, alt, n) == 0
    det = ones[0] * alt[1] - ones[1] * alt[0]
    assert det != 0


def test_float_residual_bound_is_relative_and_still_fails_a_perturbed_root():
    # x^4 + x^3 + 3x^2 - 2x + 2: four float roots, two with |1 + root| > 1, so
    # their columns grow and only a bound relative to the stencil scale holds.
    eq = ConstLinearEq(tuple(Fraction(c) for c in (2, -2, 3, 1)))
    roots = char_roots(eq)
    assert not any(r.exact for r in roots)
    assert verify_fundamental(eq, 30, roots).residuals_ok
    for i, root in enumerate(roots):
        perturbed = roots[:i] + [replace(root, value=root.value + 1e-6)] + roots[i + 1 :]
        assert not verify_fundamental(eq, 30, perturbed).residuals_ok


# ---------------------------------------------------------------- stencil residuals and running generators


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


def _rational_roots_by_divisors(poly: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Oracle: all rational roots (with repetition) by the rational root theorem's divisor search, and the cofactor.

    Trial division up to the square roots of the constant and leading
    integer coefficients: fast only for small heights.
    """
    poly = series.poly_trim(poly)
    roots: list[Fraction] = []
    while len(poly) > 1 and poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]
    if len(poly) <= 1:
        return roots, poly
    _, ints = over_common_denominator(poly)
    candidates = [Fraction(sp * p, q) for p in _divisors(ints[0]) for q in _divisors(ints[-1]) for sp in (1, -1)]
    for cand in dict.fromkeys(candidates):
        while len(poly) > 1 and series.poly_eval(poly, cand) == 0:
            roots.append(cand)
            poly = series.poly_deflate(poly, cand)
    return roots, poly


def _random_operator(rng: random.Random) -> ConstLinearEq:
    """Monic operator of order <= 5: distinct rational roots of multiplicity <= 3,
    one real or complex surd pair of multiplicity <= 2, or both."""
    kind = rng.choice(("rational", "surd", "mixed"))
    poly = [Fraction(1)]
    if kind != "rational":
        while True:
            p, q = (Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(2))
            if _rational_sqrt(p * p - 4 * q) is None:
                break
        for _ in range(rng.randint(1, 2)):
            poly = _poly_mul(poly, [q, p, Fraction(1)])
    if kind != "surd":
        pool = sorted({Fraction(k, d) for d in (1, 2, 3) for k in range(-2 * d, 2 * d + 1)})
        for r in rng.sample(pool, 5):
            for _ in range(rng.randint(1, min(3, 6 - len(poly)))):
                poly = _poly_mul(poly, [-r, Fraction(1)])
            if len(poly) == 6 or rng.random() < 0.4:
                break
    return ConstLinearEq(tuple(poly[:-1]))


def _checks_by_apply_operator(eq, system) -> bool:
    """Whether the literal operator vanishes at every checked index of every column."""
    N, L = eq.order, system.length - 1
    values = (apply_operator(eq, sol, n) for sol in system.solutions for n in range(L - N + 1))
    return all(v.is_zero if isinstance(v, QuadExt) else v == 0 for v in values)


def _with_entry(column, m, entry):
    return column[:m] + (entry,) + column[m + 1 :]


def _verify_with_column(monkeypatch, eq, L, roots, index, m, corrupt):
    """verify_fundamental with entry m of generator `index` replaced by corrupt(entry)."""
    pairs = [(root, j) for root in roots for j in range(root.multiplicity)]
    original = galois.map_solution

    def faulty(root, j, length):
        column = original(root, j, length)
        return _with_entry(column, m, corrupt(column[m])) if (root, j) == pairs[index] else column

    with monkeypatch.context() as patch:
        patch.setattr(galois, "map_solution", faulty)
        return verify_fundamental(eq, L, roots)


def test_seeded_sweep_stencil_residuals_agree_with_apply_operator(monkeypatch):
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(60):
        eq = _random_operator(rng)
        N = eq.order
        L = N + rng.randrange(0, 16)
        roots = char_roots(eq)
        assert all(root.exact for root in roots)
        kinds.update(type(root.value).__name__ for root in roots)
        report = verify_fundamental(eq, L, roots)
        for (value, j), sol in zip(report.system.generators, report.system.solutions):
            assert sol == tuple(
                Fraction(0) if n < j else falling_factorial(n, j) * (1 + value) ** (n - j) for n in range(L + 1)
            )
        assert report.residuals_ok is _checks_by_apply_operator(eq, report.system) is True
        # One changed entry: both checks see the same residuals, so they agree again.
        index = rng.randrange(N)
        m = rng.randrange(L + 1)
        bad = _verify_with_column(monkeypatch, eq, L, roots, index, m, lambda v: v + Fraction(1, 7))
        assert bad.residuals_ok is _checks_by_apply_operator(eq, bad.system)
        if m >= N:  # the window at n = m - N reads z_m with the leading stencil weight 1
            assert bad.residuals_ok is False
    assert kinds == {"Fraction", "QuadExt"}


QUINTIC = ConstLinearEq((Fraction(-4, 9), Fraction(8, 3), Fraction(-37, 9), Fraction(7, 9), Fraction(-5, 3)))


@pytest.mark.parametrize(
    "index, m, corrupt",
    [
        (1, 9, lambda v: v + Fraction(1, 10**30)),  # a Fraction entry of the j = 1 column of 1/3
        (3, 7, lambda v: replace(v, a=v.a + Fraction(1, 3**40))),  # rational part of a QuadExt entry
        (4, 7, lambda v: replace(v, b=v.b - Fraction(1, 2**60))),  # its sqrt(d) part
        (0, 30, lambda v: v * Fraction(2**50 + 1, 2**50)),  # the last entry z_L, read only at n = L - N
        (4, 30, lambda v: replace(v, b=v.b + 1)),  # the same for a QuadExt column
    ],
    ids=["fraction", "quad-rational-part", "quad-sqrt-part", "last-index", "last-index-quad"],
)
def test_fault_injection_fails_the_integer_check(monkeypatch, index, m, corrupt):
    # (x - 1/3)^2 (x - 2) (x^2 + x + 2): generators 1/3 (j = 0, 1), 2, and the sqrt(-7) pair.
    L = 30
    roots = char_roots(QUINTIC)
    assert verify_fundamental(QUINTIC, L, roots).residuals_ok
    bad = _verify_with_column(monkeypatch, QUINTIC, L, roots, index, m, corrupt)
    assert bad.residuals_ok is False
    assert not _checks_by_apply_operator(QUINTIC, bad.system)


def test_map_solution_exact_roots_use_no_pow(monkeypatch):
    def forbidden(*args):
        raise AssertionError("pow called")

    roots = char_roots(QUINTIC)
    expected = [map_solution(root, j, 25) for root in roots for j in range(root.multiplicity)]
    monkeypatch.setattr(Fraction, "__pow__", forbidden)
    monkeypatch.setattr(QuadExt, "__pow__", forbidden)
    assert [map_solution(root, j, 25) for root in roots for j in range(root.multiplicity)] == expected


def test_stencil_residual_loop_builds_no_exact_scalars(monkeypatch):
    # With the columns given, the objects verify_fundamental builds do not grow with L.
    roots = char_roots(QUINTIC)
    original_new = Fraction.__new__
    original_post_init = QuadExt.__post_init__
    built = []
    for L in (20, 60):
        columns = {(root, j): map_solution(root, j, L) for root in roots for j in range(root.multiplicity)}
        count = [0]

        def counting_new(cls, *args, **kwargs):
            count[0] += 1
            return original_new(cls, *args, **kwargs)

        def counting_post_init(self):
            count[0] += 1
            original_post_init(self)

        with monkeypatch.context() as patch:
            patch.setattr(galois, "map_solution", lambda root, j, length: columns[root, j])
            patch.setattr(Fraction, "__new__", counting_new)
            patch.setattr(QuadExt, "__post_init__", counting_post_init)
            assert verify_fundamental(QUINTIC, L, roots).residuals_ok
        built.append(count[0])
    assert built[0] == built[1] > 0


def running_product_generator(root: RootDatum, j: int, L: int) -> tuple:
    """(n)_j (1+root)^(n-j) for an exact root as a running product: one field product per index."""
    one_plus = 1 + root.value
    values = [Fraction(0)] * min(j, L + 1)
    power = QuadExt(Fraction(1), Fraction(0), one_plus.d) if isinstance(one_plus, QuadExt) else Fraction(1)
    for n in range(j, L + 1):
        values.append(falling_factorial(n, j) * power if j else power)
        power = power * one_plus
    return tuple(values)


def test_seeded_sweep_integer_recurrence_matches_the_running_product():
    rng = random.Random(20261019)
    roots = [
        Fraction(-1),  # 1 + root = 0
        Fraction(0),
        QuadExt(Fraction(-1, 4), Fraction(1, 2), Fraction(-13, 12)),  # x^2 + x/2 + 1/3
        QuadExt(Fraction(-1, 4), Fraction(-1, 2), Fraction(-13, 12)),
        QuadExt(Fraction(0), Fraction(1, 2), Fraction(-4 * 10**300)),  # x^2 + 10^300
        QuadExt(Fraction(-1), Fraction(3, 7), Fraction(5, 3)),  # 1 + root has no rational part
    ]
    for _ in range(30):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        b, d = (Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, 9)) for top in (9, 40))
        roots += [a, QuadExt(a, b, d)]
    for _ in range(20):
        roots += [r.value for r in char_roots(_random_operator(rng))]
    seen = set()
    for value in roots:
        for m in (1, 2, 3):
            root = RootDatum(value, m, exact=True)
            for j in range(m):
                for L in sorted({0, j - 1, j, j + 1, 40, rng.randrange(60)} - {-1}):
                    column, expected = map_solution(root, j, L), running_product_generator(root, j, L)
                    assert column == expected
                    assert [type(v) for v in column] == [type(v) for v in expected]
                    seen.add((type(value).__name__, j, L > j))
    assert {(kind, j, True) for kind in ("Fraction", "QuadExt") for j in range(3)} <= seen
    assert ("QuadExt", 2, False) in seen  # columns that end at or before z_j, mostly the Fraction(0) prefix


# ---------------------------------------------------------------- square-free split


def _monic(p):
    return [c / p[-1] for c in p]


def _power(p, e):
    out = [Fraction(1)]
    for _ in range(e):
        out = _poly_mul(out, p)
    return out


def _coprime(p, q) -> bool:
    return len(series.poly_gcd(p, q)) == 1


def _random_squarefree(rng: random.Random):
    while True:
        p = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(rng.randint(2, 4))]
        if p[-1] and _coprime(p, series.poly_derivative(p)):
            return p


def _check_squarefree_split(parts, lead):
    """_squarefree_factors of lead * prod p^e over (p, e) in parts, p squarefree and pairwise coprime."""
    poly = [lead]
    for p, e in parts:
        poly = _poly_mul(poly, _power(p, e))
    expected = {}
    for p, e in parts:
        if e:
            expected[e] = _poly_mul(expected.get(e, [Fraction(1)]), p)
    factors = galois._squarefree_factors(poly)
    assert sorted(m for _, m in factors) == sorted(expected)
    product = [Fraction(1)]
    for factor, m in factors:
        assert len(factor) > 1 and _monic(factor) == _monic(expected[m])
        product = _poly_mul(product, _power(factor, m))
    assert _monic(product) == _monic(poly)


def test_squarefree_split_pure_powers():
    f, g = [Fraction(-2), Fraction(0), Fraction(1)], [Fraction(1), Fraction(3), Fraction(1)]
    _check_squarefree_split([(f, 4)], Fraction(1))
    _check_squarefree_split([(_poly_mul(f, g), 3)], Fraction(-5, 2))
    assert galois._squarefree_factors(_power(f, 4)) == [(f, 4)]


def test_seeded_sweep_squarefree_split_multiplies_back():
    # Products f^a g^b h^c of pairwise coprime squarefree factors, multiplicities
    # up to 4, each factor found once with its multiplicity.
    rng = random.Random(1976)
    checked = 0
    while checked < 200:
        f, g, h = (_random_squarefree(rng) for _ in range(3))
        if not (_coprime(f, g) and _coprime(f, h) and _coprime(g, h)):
            continue
        exponents = [rng.randint(0, 4) for _ in range(3)]
        if not any(exponents):
            continue
        lead = Fraction(rng.choice((-3, -1, 1, 2, 7)), rng.choice((1, 4)))
        _check_squarefree_split(list(zip((f, g, h), exponents)), lead)
        checked += 1


# ---------------------------------------------------------------- certified float roots


def _irreducible_quadratic(rng):
    """x^2 + p x + q with rational p, q and no rational root; its number of real roots."""
    while True:
        p, q = (Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(2))
        disc = p * p - 4 * q
        if _rational_sqrt(disc) is None:
            return [q, p, Fraction(1)], 2 if disc > 0 else 0


def _cubic_without_rational_root(rng):
    """Monic rational cubic with no rational root, and its number of real roots by the discriminant's sign."""
    while True:
        c = [Fraction(rng.randint(-7, 7), rng.choice((1, 2))) for _ in range(3)] + [Fraction(1)]
        if not _rational_roots_by_divisors(c)[0]:
            d, cc, b, _ = c
            disc = 18 * b * cc * d - 4 * b**3 * d + b * b * cc * cc - 4 * cc**3 - 27 * d * d
            return c, 3 if disc > 0 else 1


def test_seeded_sweep_rational_roots_stay_rational_and_no_surd_is_rational():
    # Rational roots come back exact with their multiplicities, whichever route
    # finds them (closed forms up to degree 2, Aberth approximations above),
    # and a surd pair only for a quadratic whose discriminant is no rational square.
    rng = random.Random(2984)
    pool = sorted({Fraction(k, d) for d in (1, 2, 3) for k in range(-2 * d, 2 * d + 1)})
    for _ in range(300):
        poly, rational = [Fraction(1)], {}
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("linear", "split", "irreducible", "cubic"))
            roots = rng.sample(pool, {"linear": 1, "split": 2}.get(kind, 0))
            if kind == "irreducible":
                factor, _ = _irreducible_quadratic(rng)
            elif kind == "cubic":
                factor, _ = _cubic_without_rational_root(rng)
            else:
                factor = [Fraction(1)]
                for r in roots:
                    factor = _poly_mul(factor, [-r, Fraction(1)])
            mult = rng.randint(1, 2)
            for _ in range(mult):
                poly = _poly_mul(poly, factor)
            for r in roots:
                rational[r] = rational.get(r, 0) + mult
        found = char_roots(ConstLinearEq(tuple(poly[:-1])))
        assert sum(root.multiplicity for root in found) == len(poly) - 1
        assert {root.value: root.multiplicity for root in found if type(root.value) is Fraction} == rational
        assert all(root.exact for root in found if type(root.value) is Fraction)
        surds = [root.value for root in found if isinstance(root.value, QuadExt)]
        assert all(_rational_sqrt(q.d) is None for q in surds)


def _random_float_factor(rng):
    """A monic factor of degree 3..8 that char_roots sends to the float route, and its real-root count if known."""
    kind = rng.choice(("products", "perfbench", "cluster", "large"))
    if kind == "perfbench":  # the shape perfbench generates: monic cubic or quartic, integers in [-3, 3]
        factor = [Fraction(rng.randint(-3, 3)) for _ in range(rng.choice((3, 4)))] + [Fraction(1)]
        real = None
    elif kind == "cluster":  # two roots about 10^-k apart, real or complex, maybe times a cubic
        k = rng.randint(3, 6)
        sign = rng.choice((1, -1))
        base = Fraction(rng.choice((2, 3, 5)))
        factor = _poly_mul([-sign * base, Fraction(0), Fraction(1)], [-sign * (base + Fraction(1, 10**k)), Fraction(0), Fraction(1)])
        real = 4 if sign == 1 else 0
        if rng.random() < 0.5:
            cubic, n = _cubic_without_rational_root(rng)
            factor, real = _poly_mul(factor, cubic), real + n
    elif kind == "large":  # coefficients up to 10^4 with a small constant term: roots from 10^-4 to 10^4
        factor, real = [Fraction(1)], 0
        for _ in range(rng.choice((2, 3))):
            while True:
                p, q = Fraction(rng.randint(-10**4, 10**4)), Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                if _rational_sqrt(p * p - 4 * q) is None:
                    break
            factor, real = _poly_mul(factor, [q, p, Fraction(1)]), real + (2 if p * p > 4 * q else 0)
    else:  # products of irreducible quadratics and at most one cubic, degree 3..8
        factor, real = [Fraction(1)], 0
        parts = rng.choice(((3,), (2, 2), (3, 2), (2, 2, 2), (3, 3), (3, 2, 2), (2, 2, 2, 2), (3, 3, 2)))
        for degree in parts:
            part, n = _irreducible_quadratic(rng) if degree == 2 else _cubic_without_rational_root(rng)
            factor, real = _poly_mul(factor, part), real + n
    if galois._squarefree_factors(factor) != [(factor, 1)] or _rational_roots_by_divisors(factor)[0]:
        return _random_float_factor(rng)
    return factor, real


def _expand(roots):
    """Coefficients of prod (x - r), low to high, in complex doubles."""
    out = [1 + 0j]
    for r in roots:
        out = [(out[k - 1] if k else 0) - r * (out[k] if k < len(out) else 0) for k in range(len(out) + 1)]
    return out


def test_seeded_sweep_float_roots_are_certified_symmetric_and_reproduce_the_factor():
    rng = random.Random(20261018)
    kinds = {"real": 0, "pair": 0}
    for _ in range(150):
        factor, real = _random_float_factor(rng)
        roots = char_roots(ConstLinearEq(tuple(factor[:-1])))
        values = [r.value for r in roots]
        assert len(values) == len(factor) - 1
        assert all(not r.exact and r.multiplicity == 1 and isinstance(r.value, complex) for r in roots)
        # Exact symmetry: real roots carry +0.0, the others come in exact conjugate pairs.
        assert all(copysign(1.0, v.imag) == 1.0 for v in values if v.imag == 0)
        key = lambda v: (v.real, v.imag)
        assert sorted(values, key=key) == sorted((v.conjugate() for v in values), key=key)
        if real is not None:
            assert sum(v.imag == 0 for v in values) == real
        kinds["real"] += sum(v.imag == 0 for v in values)
        kinds["pair"] += sum(v.imag > 0 for v in values)
        # prod (x - r_i) gives back the factor, relative to the scale prod (x + |r_i|).
        scale = [abs(c) for c in _expand([-abs(v) for v in values])]
        for got, want, s in zip(_expand(values), factor, scale):
            assert abs(got - complex(want)) <= 1e-12 * s
        # The certificate accepts these centres, and refuses them once one is
        # moved halfway to its nearest neighbour: that disc then reaches the neighbour.
        ints = over_common_denominator(factor)[1]
        galois._smith_certificate(ints, values)
        i = rng.randrange(len(values))
        j = min((j for j in range(len(values)) if j != i), key=lambda j: abs(values[j] - values[i]))
        nudged = values[:i] + [(values[i] + values[j]) / 2] + values[i + 1 :]
        with pytest.raises(RootCertificationError):
            galois._smith_certificate(ints, nudged)
    assert kinds["real"] > 100 and kinds["pair"] > 100


def test_exact_refinement_separates_a_mignotte_pair():
    # x^12 - 2(100x - 1)^2: two real roots 1/100 +- 0.01^6 / (100 sqrt 2), 1.4e-14
    # apart. In doubles |p| there is below its own rounding error; the sweeps
    # with p/p' evaluated exactly still pull the two approximations apart.
    roots = char_roots(ConstLinearEq((Fraction(-2), Fraction(400), Fraction(-20000)) + (Fraction(0),) * 9))
    near = sorted(r.value.real for r in roots if abs(r.value - 0.01) < 1e-6)
    assert len(near) == 2 and all(r.value.imag == 0 for r in roots if abs(r.value - 0.01) < 1e-6)
    assert near[1] - near[0] == pytest.approx(2 * 0.01**6 / (100 * 2**0.5), rel=1e-3)


# ---------------------------------------------------------------- rational roots from the approximations


def _from_roots(roots):
    """Monic polynomial prod (x - r), low to high."""
    poly = [Fraction(1)]
    for r in roots:
        poly = _poly_mul(poly, [-r, Fraction(1)])
    return poly


def test_seeded_sweep_rational_roots_match_the_divisor_search():
    # Heights where the divisor search is fast; factors of degree >= 3 mix
    # rational roots with irreducible quadratics and cubics, so char_roots
    # finds their rational roots from the Aberth approximations.
    rng = random.Random(1414)
    from_approximations = 0
    for _ in range(250):
        poly = [Fraction(1)]
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("linear", "linear", "zero", "irreducible", "cubic"))
            if kind == "linear":
                factor = [Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 5, 7))), Fraction(1)]
            elif kind == "zero":
                factor = [Fraction(0), Fraction(1)]
            elif kind == "irreducible":
                factor, _ = _irreducible_quadratic(rng)
            else:
                factor, _ = _cubic_without_rational_root(rng)
            for _ in range(rng.randint(1, 2)):
                poly = _poly_mul(poly, factor)
        expected = {}
        for r in _rational_roots_by_divisors(poly)[0]:
            expected[r] = expected.get(r, 0) + 1
        found = char_roots(ConstLinearEq(tuple(poly[:-1])))
        assert {root.value: root.multiplicity for root in found if type(root.value) is Fraction} == expected
        assert all(root.exact is (type(root.value) is not complex) for root in found)
        assert sum(root.multiplicity for root in found) == len(poly) - 1
        from_approximations += any(len(f) > 3 for f, _ in galois._squarefree_factors(poly)) and bool(expected)
    assert from_approximations > 50


# Each of these inputs finishes in milliseconds; the divisor search took 15.7 s
# on x^3 - (10^16 + 1) and never finished on the 40-digit constants below.
# The bound leaves room for a slow or loaded machine.
TIME_BOUND_S = 5.0


def _timed_roots(poly):
    start = time.perf_counter()
    roots = char_roots(ConstLinearEq(tuple(poly[:-1])))
    assert time.perf_counter() - start < TIME_BOUND_S
    return roots


def test_large_constant_cubic_gives_certified_float_roots_quickly():
    # x^3 - (10^40 + 1): the divisor search would need about 10^20 trial divisions.
    roots = _timed_roots([Fraction(-(10**40) - 1), Fraction(0), Fraction(0), Fraction(1)])
    assert len(roots) == 3 and not any(r.exact for r in roots)
    (real,) = [r.value.real for r in roots if r.value.imag == 0]
    assert float(Fraction(real) ** 3 / (10**40 + 1)) == pytest.approx(1, rel=1e-15)


def test_huge_rational_root_is_exact_next_to_surds_and_floats():
    big = Fraction(10**40)
    roots = _timed_roots(_poly_mul(_from_roots([big]), [Fraction(1), Fraction(0), Fraction(1)]))
    assert [r.value for r in roots if type(r.value) is Fraction] == [big]
    assert {complex(r.value) for r in roots if isinstance(r.value, QuadExt)} == {1j, -1j}
    # The rational root is k/7, 10^40 of it beyond 2^50 grid steps: Newton steps first.
    root = big + Fraction(1, 7)
    roots = _timed_roots(_poly_mul(_from_roots([root]), [Fraction(-1), Fraction(-1), Fraction(0), Fraction(1)]))
    assert [(r.value, r.exact) for r in roots if type(r.value) is Fraction] == [(root, True)]
    assert sum(not r.exact for r in roots) == 3


def test_rational_roots_closer_than_the_doubles_are_refused():
    # (x - 1/3)(x - 1/3 - 10^-30)(x^2 + x + 2): both rational roots round to one
    # double, so neither approximation names its grid point and no disc separates them.
    third = Fraction(1, 3)
    poly = _poly_mul(_from_roots([third, third + Fraction(1, 10**30)]), [Fraction(2), Fraction(1), Fraction(1)])
    start = time.perf_counter()
    with pytest.raises(RootCertificationError):
        char_roots(ConstLinearEq(tuple(poly[:-1])))
    assert time.perf_counter() - start < TIME_BOUND_S


def test_rational_root_next_to_roots_beyond_the_double_range():
    # (x - 1)(x^2 + 10^400 x + 1): the other roots are near -10^400 and -10^-400,
    # which no double holds; each approximation carries its own exponent.
    big = 10**400
    roots = _timed_roots(_poly_mul(_from_roots([Fraction(1)]), [Fraction(1), Fraction(big), Fraction(1)]))
    assert all(r.exact for r in roots) and roots[0].value == 1
    assert {(r.value.a, r.value.b, r.value.d) for r in roots[1:]} == {
        (Fraction(-big, 2), sign, Fraction(big * big - 4)) for sign in (Fraction(1, 2), Fraction(-1, 2))
    }
    roots = _timed_roots(_poly_mul(_from_roots([Fraction(big)]), [Fraction(1), Fraction(0), Fraction(1)]))
    assert [r.value for r in roots if type(r.value) is Fraction] == [big]
    tiny = Fraction(1, big)
    roots = _timed_roots(_poly_mul(_from_roots([tiny]), [Fraction(-1), Fraction(-1), Fraction(0), Fraction(1)]))
    assert [(r.value, r.exact) for r in roots if type(r.value) is Fraction] == [(tiny, True)]
    assert sum(not r.exact for r in roots) == 3


def test_roots_hundreds_of_orders_of_magnitude_apart_are_certified():
    # x^3 + 10^300 x^2 + 1: roots near -10^300 and +-10^-150 i. A start on one
    # circle did not reach the small pair in 100 sweeps; the Newton polygon
    # starts each group on its own circle.
    roots = _timed_roots([Fraction(1), Fraction(0), Fraction(10**300), Fraction(1)])
    assert not any(r.exact for r in roots)
    assert sorted(abs(r.value) for r in roots) == pytest.approx([1e-150, 1e-150, 1e300], rel=1e-15)


def test_float_roots_beyond_the_double_range_are_refused():
    # x^3 - 10^1000 - 1: roots of modulus about 10^333, no rational one.
    with pytest.raises(RootCertificationError, match="leaves the double range"):
        _timed_roots([Fraction(-(10**1000) - 1), Fraction(0), Fraction(0), Fraction(1)])


# ---------------------------------------------------------------- Wronskian from the roots


def test_seeded_sweep_root_wronskian_equals_the_column_determinant():
    rng = random.Random(314)
    kinds = set()
    for _ in range(60):
        eq = _random_operator(rng)
        report = verify_fundamental(eq, eq.order + rng.randrange(0, 6))
        kinds.add((type(report.wronskian).__name__, max(r.multiplicity for r in report.roots) > 1))
        assert report.wronskian_nonzero and report.wronskian == modified_wronskian(report.system)
    assert kinds == {("Fraction", False), ("Fraction", True), ("QuadExt", False), ("QuadExt", True)}
    # Float roots: the cubics and quartics perfbench generates, squared or next to
    # a rational root, where the column determinant in doubles is well conditioned.
    checked = 0
    while checked < 60:
        factor = [Fraction(rng.randint(-3, 3)) for _ in range(rng.choice((3, 4)))] + [Fraction(1)]
        if galois._squarefree_factors(factor) != [(factor, 1)] or _rational_roots_by_divisors(factor)[0]:
            continue
        if rng.random() < 0.3:  # a repeated float factor
            factor = _poly_mul(factor, factor)
        factor = _poly_mul(factor, _from_roots([Fraction(rng.randint(-3, 3), 2)] * rng.randint(0, 1)))
        eq = ConstLinearEq(tuple(factor[:-1]))
        checked += 1
        report = verify_fundamental(eq, eq.order)
        columns = modified_wronskian(report.system)
        assert report.wronskian_nonzero and isinstance(report.wronskian, complex)
        assert abs(report.wronskian - columns) <= 1e-9 * abs(columns)


def test_root_wronskian_of_roots_far_apart_in_size():
    # x^3 + 10^30 x^2 - 1: roots near -10^30 and +-10^-15. Differenced in doubles
    # the columns cancel to exactly zero; from the roots the value is about 2e45.
    eq = ConstLinearEq((Fraction(-1), Fraction(0), Fraction(10**30)))
    report = verify_fundamental(eq, 4)
    assert report.ok and report.wronskian_nonzero
    assert abs(report.wronskian) == pytest.approx(2e45, rel=1e-9)
    with pytest.raises(SingularSystem):
        modified_wronskian(report.system)


def test_root_wronskian_is_exact_in_one_quadratic_field():
    # (x - 1/2)^2 (x^2 + x + 2): generators 1/2 (j = 0, 1) and the sqrt(-7) pair.
    poly = _poly_mul(_from_roots([Fraction(1, 2)] * 2), [Fraction(2), Fraction(1), Fraction(1)])
    report = verify_fundamental(ConstLinearEq(tuple(poly[:-1])), 6)
    values = [r.value for r in report.roots]
    assert type(values[0]) is Fraction and all(isinstance(v, QuadExt) for v in values[1:])
    half, p, q = values
    assert report.wronskian == (p - half) ** 2 * (q - half) ** 2 * (q - p)
    assert report.wronskian == modified_wronskian(report.system)


def _float_root_wronskian(report) -> complex:
    """The Wronskian of the same roots taken as doubles: the complex product, no field lift."""
    float_roots = [RootDatum(complex(r.value), r.multiplicity, False) for r in report.roots]
    return galois._root_wronskian(float_roots)


def test_wronskian_of_one_field_through_two_discriminants_is_exact():
    # (x^2 - 2x - 1)(x^2 - 1/2)^2: roots 1 +- 1/2 sqrt(8) and +- 1/2 sqrt(2), all in
    # Q(sqrt(2)). As doubles the Wronskian was 34.648232278140831, 49/2 sqrt(2).
    poly = _poly_mul([Fraction(-1), Fraction(-2), Fraction(1)], _poly_mul(*[[Fraction(-1, 2), 0, Fraction(1)]] * 2))
    report = verify_fundamental(ConstLinearEq(tuple(poly[:-1])), 6)
    assert report.ok and report.all_exact
    assert {r.value.d for r in report.roots} == {2, 8}
    assert report.wronskian == QuadExt(Fraction(0), Fraction(49, 2), Fraction(2))
    assert report.wronskian == modified_wronskian(report.system)
    assert complex(report.wronskian) == pytest.approx(_float_root_wronskian(report), rel=1e-12)
    # Seeded: two or three surd pairs of discriminants d s^2, d fixed, each of its own
    # multiplicity, so that Yun's split gives every quadratic a factor of its own.
    rng = random.Random(2718)
    two_discriminants = 0
    for _ in range(40):
        d = Fraction(rng.choice((-7, -3, -1, 2, 3, 5)), rng.choice((1, 2, 3)))
        if _rational_sqrt(d) is not None:
            continue
        poly, roots = [Fraction(1)], set()
        for multiplicity in rng.sample((1, 2, 3), rng.randint(2, 3)):
            centre, s = Fraction(rng.randint(-4, 4), rng.choice((1, 2))), Fraction(rng.randint(1, 4), rng.choice((1, 3)))
            if (centre, s * s) in roots:
                continue
            roots.add((centre, s * s))
            for _ in range(multiplicity):  # (x - centre)^2 - s^2 d / 4, discriminant s^2 d
                poly = _poly_mul(poly, [centre * centre - s * s * d / 4, -2 * centre, Fraction(1)])
        eq = ConstLinearEq(tuple(poly[:-1]))
        report = verify_fundamental(eq, eq.order + rng.randrange(0, 4))
        two_discriminants += len({r.value.d for r in report.roots}) > 1
        assert report.ok and isinstance(report.wronskian, QuadExt)
        assert report.wronskian == modified_wronskian(report.system)
        assert complex(report.wronskian) == pytest.approx(_float_root_wronskian(report), rel=1e-9)
    assert two_discriminants >= 30


def test_wronskian_of_two_quadratic_fields_stays_complex():
    # (x^2 + 1)(x^2 + 2)^2: sqrt(-4) and sqrt(-8) lie in two different fields.
    poly = _poly_mul([Fraction(1), 0, Fraction(1)], _poly_mul(*[[Fraction(2), 0, Fraction(1)]] * 2))
    report = verify_fundamental(ConstLinearEq(tuple(poly[:-1])), 8)
    assert report.ok and report.all_exact and isinstance(report.wronskian, complex)
    assert report.wronskian == pytest.approx(128j, rel=1e-12)


def test_smith_certificate_refuses_discs_that_overlap_past_the_squared_radii():
    # x^2 - 1 with centres +-t: r = 2 |t^2 - 1| / (2t) each, d = 2t. At t = 11/16,
    # r = 0.767 and d = 1.375, so r^2 + r^2 < d^2 <= (r + r)^2: d^2 beats the sum of
    # the squared radii, yet the discs overlap. At t = 3/4, d exceeds 2r = 1.167.
    with pytest.raises(RootCertificationError):
        galois._smith_certificate([-1, 0, 1], [complex(0.6875), complex(-0.6875)])
    galois._smith_certificate([-1, 0, 1], [complex(0.75), complex(-0.75)])


def test_smith_radius_is_n_not_sqrt_n_times_the_quotient():
    # x^3 - x with centres 0 and +-t: r_0 = 0 and r_t = 3 |t^2 - 1| / (2t). At
    # t = 3/4, r_t = 0.875 reaches the centre 0 at distance 0.75, while a radius
    # smaller by sqrt(3), 0.505, would leave every pair disjoint. At t = 7/8,
    # r_t = 0.402 and the three discs are disjoint.
    with pytest.raises(RootCertificationError):
        galois._smith_certificate([0, -1, 0, 1], [complex(0.75), complex(0.0), complex(-0.75)])
    galois._smith_certificate([0, -1, 0, 1], [complex(0.875), complex(0.0), complex(-0.875)])


def test_repeated_roots_give_a_vanishing_wronskian():
    # (x - 1)^2 given as two simple roots at 1: both columns are 2^n, so the
    # residuals pass and the Wronskian, exactly zero, fails the report.
    eq = ConstLinearEq((Fraction(1), Fraction(-2)))
    report = verify_fundamental(eq, 8, [RootDatum(Fraction(1), 1, True)] * 2)
    assert report.residuals_ok and not report.wronskian_nonzero and not report.ok
    assert report.wronskian is None
    # As doubles the repeat leaves no complex Wronskian to report, so it is refused.
    with pytest.raises(FloatOverflow):
        verify_fundamental(eq, 8, [RootDatum(complex(1.0), 1, False)] * 2)
