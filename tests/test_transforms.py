from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import comb, factorial, isfinite, perm
from operator import add

import pytest

from starlattice import (
    FourierSeq,
    LatticeSeq,
    TaylorCoeffs,
    falling_factorial,
    floatmode,
    forward_transform,
    inverse_transform,
    recip_factorial,
    taylor_to_lattice,
)
from starlattice.floatmode import geometric_lattice
from starlattice.galois import QuadExt
from starlattice.odes import delta_power
from starlattice.transforms import ScaledNewton, lattice_to_newton, newton_to_lattice


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-99, 100), rng.randrange(1, 30))


def test_falling_factorial_values():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(2, 5) == 0
    assert falling_factorial(5, 3) == 60
    with pytest.raises(ValueError):
        falling_factorial(-1, 2)


def test_recip_factorial_values():
    assert recip_factorial(0) == 1
    assert recip_factorial(4) == Fraction(1, 24)
    assert recip_factorial(-2) == 0


def test_forward_transform_examples():
    assert forward_transform(FourierSeq((1, 0, 0))).values == (1, 1, 1)
    assert forward_transform(FourierSeq((0, 1, 0, 0))).values == (0, 1, 2, 3)
    assert forward_transform(FourierSeq((1, 1, 1))).values == (1, 2, 5)


def test_inverse_transform_examples():
    c = Fraction(7, 3)
    assert inverse_transform(LatticeSeq((c, c, c))).coeffs == (c, 0, 0)
    assert inverse_transform(LatticeSeq((0, 1, 2, 3))).coeffs == (0, 1, 0, 0)
    assert inverse_transform(LatticeSeq((1, 2, 5))).coeffs == (1, 1, 1)


def test_round_trip_random():
    rng = random.Random(2024)
    for _ in range(50):
        length = rng.randrange(1, 65)
        zeta = FourierSeq(tuple(rand_fraction(rng) for _ in range(length)))
        assert inverse_transform(forward_transform(zeta)) == zeta
        z = LatticeSeq(tuple(rand_fraction(rng) for _ in range(length)))
        assert forward_transform(inverse_transform(z)) == z


def test_triangularity():
    rng = random.Random(7)
    zeta = [rand_fraction(rng) for _ in range(10)]
    base = forward_transform(FourierSeq(tuple(zeta)))
    bumped = list(zeta)
    bumped[7] += 5
    changed = forward_transform(FourierSeq(tuple(bumped)))
    assert base.values[:7] == changed.values[:7]
    assert base.values[7:] != changed.values[7:]


def test_kronecker_identity():
    # The alternating factorial sum behind the transform pair collapses to a delta.
    for n in range(21):
        for k in range(n + 1):
            acc = Fraction(0)
            for l in range(k, n + 1):
                term = Fraction(1, factorial(n - l) * factorial(l - k))
                acc += term if (n - l) % 2 == 0 else -term
            assert acc == (1 if n == k else 0)


def test_taylor_to_lattice_constant():
    c = Fraction(5, 2)
    z = taylor_to_lattice(TaylorCoeffs((c, 0, 0, 0)), 6)
    assert all(v == c for v in z)


def test_taylor_to_lattice_exponential():
    L = 12
    b = TaylorCoeffs(tuple(Fraction(1, factorial(k)) for k in range(L + 1)))
    assert taylor_to_lattice(b, L).values == tuple(Fraction(2) ** n for n in range(L + 1))


def test_taylor_to_lattice_scaled_exponential():
    L = 10
    lam = Fraction(2)
    b = TaylorCoeffs(tuple(lam**k / factorial(k) for k in range(L + 1)))
    assert taylor_to_lattice(b, L).values == tuple(Fraction(3) ** n for n in range(L + 1))


def test_taylor_to_lattice_matches_forward_transform():
    rng = random.Random(99)
    for _ in range(20):
        length = rng.randrange(1, 13)
        b = tuple(rand_fraction(rng) for _ in range(length))
        L = length - 1
        assert taylor_to_lattice(TaylorCoeffs(b), L) == forward_transform(FourierSeq(b))


def binomial_delta_power(z: list[Fraction], l: int) -> list[Fraction]:
    """Reference: (Delta^l z)_n = sum_j (-1)^(l-j) C(l,j) z_{n+j}."""
    return [
        sum((-1) ** (l - j) * comb(l, j) * z[n + j] for j in range(l + 1))
        for n in range(len(z) - l)
    ]


def factorial_inverse(z: list[Fraction]) -> list[Fraction]:
    """Reference: zeta_n = sum_l (-1)^(n-l) z_l / (l!(n-l)!)."""
    return [
        sum(Fraction((-1) ** (n - l), factorial(l) * factorial(n - l)) * z[l] for l in range(n + 1))
        for n in range(len(z))
    ]


def falling_factorial_forward(zeta: list[Fraction]) -> list[Fraction]:
    """Reference: z_n = sum_l zeta_l (n)_l."""
    return [sum(zeta[l] * perm(n, l) for l in range(n + 1)) for n in range(len(zeta))]


def test_newton_core_matches_closed_formulas_on_every_scalar():
    rng = random.Random(2024)
    for _ in range(25):
        length = rng.randrange(1, 16)
        z = [rand_fraction(rng) for _ in range(length)]
        seq = LatticeSeq(tuple(z))
        for l in range(length):
            assert list(delta_power(seq, l).values) == binomial_delta_power(z, l)
        assert list(inverse_transform(seq).coeffs) == factorial_inverse(z)
        assert list(forward_transform(FourierSeq(tuple(z))).values) == falling_factorial_forward(z)
        # The table is linear, so a surd sequence splits into its two rational parts.
        y = [rand_fraction(rng) for _ in range(length)]
        d = Fraction(rng.choice((2, 3, 5, 7)))
        surd = [QuadExt(a, b, d) for a, b in zip(z, y)]
        w = lattice_to_newton(surd)
        assert w == [QuadExt(a, b, d) for a, b in zip(lattice_to_newton(z), lattice_to_newton(y))]
        assert newton_to_lattice(w) == surd
        # Small integers difference exactly in floats.
        ints = [rng.randrange(-50, 51) for _ in range(length)]
        assert lattice_to_newton([float(v) for v in ints]) == [float(v) for v in lattice_to_newton(ints)]


def test_newton_to_lattice_is_the_weighted_binomial_sum():
    rng = random.Random(2027)
    assert newton_to_lattice([]) == []
    for E in (1, 1, 2, 3, 10, 2**20 + 7):
        W = [rng.randrange(-10**9, 10**9) for _ in range(rng.randrange(1, 25))]
        sums = newton_to_lattice(W, E)
        assert sums == [sum(comb(n, l) * E ** (n - l) * W[l] for l in range(n + 1)) for n in range(len(W))]
        assert all(type(s) is int for s in sums)
    W = [rng.randrange(-10**9, 10**9) for _ in range(12)]
    assert newton_to_lattice(lattice_to_newton(W)) == W


def weighted_binomial_sums(w: list, E: int) -> list:
    """Reference: z_n = sum_l C(n,l) E^(n-l) w_l, summed term by term."""
    return [sum((comb(n, l) * E ** (n - l) * w[l] for l in range(1, n + 1)), w[0] * E**n) for n in range(len(w))]


def padded_call(w: list, E: int, length: int, zero) -> list:
    """Reference for newton_to_lattice(w, E, length): w padded with zeros to length, cut to length."""
    return newton_to_lattice(w + [zero] * (length - len(w)), E)[:length]


def test_newton_to_lattice_sweep_over_exact_and_float_scalars():
    """One map for every scalar: Fraction, QuadExt and floats that hold small integers exactly.

    The length argument reads w as zero past its end: below, at and past
    len(w) it equals the call on w padded with zeros.
    """
    rng = random.Random(2031)
    for i in range(40):
        length = rng.randrange(1, 18)
        E = rng.choice((1, 1, 2, 3, 5))
        below, past = rng.randrange(0, length), rng.randrange(length + 1, 19)
        n = (below, length, past)[i % 3]
        w = [rand_fraction(rng) for _ in range(length)]
        got = newton_to_lattice(w, E)
        assert got == weighted_binomial_sums(w, E)
        assert all(type(v) is Fraction for v in got)
        got = newton_to_lattice(w, E, n)
        assert got == padded_call(w, E, n, Fraction(0))
        assert all(type(v) is Fraction for v in got)
        d = Fraction(rng.choice((2, 3, 5, 7)))
        surd = [QuadExt(a, rand_fraction(rng), d) for a in w]
        got = newton_to_lattice(surd, E)
        assert got == weighted_binomial_sums(surd, E)
        assert all(type(v) is QuadExt for v in got)
        got = newton_to_lattice(surd, E, n)
        assert got == padded_call(surd, E, n, QuadExt(Fraction(0), Fraction(0), d))
        assert all(type(v) is QuadExt for v in got)
        # every partial sum is below 50 (E+1)^17 < 2^53, so the floats are exact.
        ints = [rng.randrange(-50, 51) for _ in range(length)]
        floats = [float(v) for v in ints]
        got = newton_to_lattice(floats, E)
        assert got == [float(v) for v in newton_to_lattice(ints, E)]
        assert all(type(v) is float for v in got)
        got = newton_to_lattice(floats, E, n)
        assert got == padded_call(floats, E, n, 0.0) == [float(v) for v in newton_to_lattice(ints, E, n)]
        assert all(type(v) is float for v in got)


def test_scaled_newton_readouts_ignore_trailing_zeros():
    """The Pascal rule reads W as zero past its end, so cutting its zero tail changes no readout.

    Lengths below, at and past len(W), E in {1, 2, 5}, and W all zeros;
    `taylor_coeffs` still returns one entry per stored W_k.
    """
    rng = random.Random(2033)
    for i in range(36):
        E = (1, 2, 5)[i % 3]
        head = [] if i % 4 == 0 else [rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(1, 8))]
        W = head + [0] * rng.randrange(0 if head and i % 4 == 1 else 1, 6)
        c = rng.randrange(1, 50)
        scaled = ScaledNewton(c, E, tuple(W))
        for length in (rng.randrange(0, len(W)), len(W), len(W) + rng.randrange(1, 6)):
            numerators = scaled.lattice_numerators(length)
            assert numerators == weighted_binomial_sums(W + [0] * (length - len(W)), E)[:length]
            assert all(type(s) is int for s in numerators)
            values = scaled.lattice_values(length)
            assert values == [Fraction(s, c * E**n) for n, s in enumerate(numerators)]
            assert all(type(v) is Fraction for v in values)
        assert scaled.lattice_numerators() == newton_to_lattice(W, E)
        assert scaled.lattice_values() == scaled.lattice_values(len(W))
        zeta = scaled.taylor_coeffs()
        assert zeta == [Fraction(w, c * factorial(k) * E**k) for k, w in enumerate(W)]
        assert all(type(x) is Fraction for x in zeta)
    assert ScaledNewton(3, 2, ()).lattice_numerators(4) == [0] * 4
    assert ScaledNewton(3, 2, ()).taylor_coeffs() == []


def row_lattice_to_newton(z) -> list:
    """Reference: w_l = (Delta^l z)_0, the leading entry of each row of the difference table, row by row."""
    row, out = list(z), []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def row_newton_to_lattice(w, E: int = 1, length: int | None = None) -> list:
    """Reference: the Pascal rule row by row, T_{n+1}[l] = E T_n[l] + T_n[l+1], z_n = T_n[0].

    Past len(w) a row gets a zero appended before each step, so its width
    stays len(w) and its last entry is the one before plus 0.
    """
    row = list(w)
    if length is None:
        length = len(row)
    del row[length:]
    out = []
    for _ in range(length - len(row)):
        row.append(0)
        out.append(row[0])
        row = list(map(add, row, islice(row, 1, None))) if E == 1 else [E * a + b for a, b in zip(row, row[1:])]
    while row:
        out.append(row[0])
        row = list(map(add, row, islice(row, 1, None))) if E == 1 else [E * a + b for a, b in zip(row, row[1:])]
    return out


def same_entries(got: list, want: list) -> bool:
    """Equal length, types and values, with NaN (real or complex) at the same positions."""
    return len(got) == len(want) and all(
        type(x) is type(y) and (x == y or (x != x and y != y)) for x, y in zip(got, want)
    )


def scalar_columns(rng: random.Random, size: int) -> list[list]:
    """One column of each scalar the maps serve: int, Fraction, QuadExt behind Fraction(0) entries, complex, float.

    The QuadExt and complex columns start with zeros like the generator
    columns j >= 1 of `galois.map_solution`; the floats span many binades
    and hold signed zeros, an infinity and a NaN.
    """
    zeros = rng.randrange(0, min(size, 3) + 1)
    d = Fraction(rng.choice((2, 3, 5)))
    floats = [rng.choice((1.0, -1.0)) * rng.random() * 10.0 ** rng.randrange(-30, 30) for _ in range(size)]
    for special in (0.0, -0.0, float("inf"), float("nan")):
        if size and rng.random() < 0.4:
            floats[rng.randrange(size)] = special
    return [
        [rng.randrange(-2**70, 2**70) for _ in range(size)],
        [rand_fraction(rng) for _ in range(size)],
        [Fraction(0)] * zeros + [QuadExt(rand_fraction(rng), rand_fraction(rng), d) for _ in range(size - zeros)],
        [0j] * zeros + [complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(size - zeros)],
        floats,
    ]


def test_newton_maps_match_their_row_forms():
    """Both maps give the row forms' values and types on every scalar, length and E.

    The Pascal rule forms every float entry by the same addition, so its
    floats are repr-identical; the anti-diagonals of the difference table
    negate exactly, so only the sign of a zero may differ there.
    """
    rng = random.Random(2035)
    cases = [[], [0] * 5, [Fraction(0)] * 4, [0.0, -0.0, 0.0], [-0.0], [2.5, -0.0]]
    for _ in range(30):
        cases += scalar_columns(rng, rng.randrange(1, 16))
    for z in cases:
        assert same_entries(lattice_to_newton(z), row_lattice_to_newton(z))
        K = len(z)
        for E in (1, 2, 5):
            lengths = {None, 0, K, K + rng.randrange(1, 6)} | ({rng.randrange(0, K)} if K else set())
            for length in lengths:
                got, want = newton_to_lattice(z, E, length), row_newton_to_lattice(z, E, length)
                assert same_entries(got, want)
                assert repr(got) == repr(want)


def test_float_star_power_is_repr_identical_to_the_row_forms(monkeypatch):
    """The benchmark's float route gives the bits it gave through the row forms.

    Geometric inputs reach past l = 170, where the route turns non-finite
    (known defect (b)), and must do so at the same entries. On a constant
    input the odd Newton coefficients cancel exactly and come out as -0.0,
    not 0.0; they compare equal and the output is unchanged.
    """
    routes = {}
    for maps in ((lattice_to_newton, newton_to_lattice), (row_lattice_to_newton, row_newton_to_lattice)):
        monkeypatch.setattr(floatmode, "lattice_to_newton", maps[0])
        monkeypatch.setattr(floatmode, "newton_to_lattice", maps[1])
        routes[maps[0]] = [
            floatmode.star_power_convolution(geometric_lattice(ratio, L + 1), p)
            for L, ratio in ((171, 0.5), (240, 0.7), (600, 0.45))
            for p in (2, 3, 4)
        ] + [floatmode.star_power_convolution([1.5] * 10, p) for p in (1, 2, 3)]
    assert repr(routes[lattice_to_newton]) == repr(routes[row_lattice_to_newton])
    assert all(isfinite(x) for out in routes[lattice_to_newton][:9] for x in out[:171])
    assert all(not isfinite(out[171]) for out in routes[lattice_to_newton][:9])
    w, w_rows = lattice_to_newton([1.5] * 10), row_lattice_to_newton([1.5] * 10)
    assert w == w_rows == [1.5] + [0.0] * 9
    assert [repr(x) for x in w[1:]] == ["-0.0", "0.0"] * 4 + ["-0.0"]
    assert [repr(x) for x in w_rows[1:]] == ["0.0"] * 9


def rand_height(rng: random.Random) -> Fraction:
    """Signed rational whose numerator and denominator heights vary from 1 to ~100 bits."""
    num = rng.randrange(-(2 ** rng.randrange(1, 100)), 2 ** rng.randrange(1, 100))
    return Fraction(num, rng.randrange(1, 2 ** rng.randrange(1, 60)))


def perm_sum_image(b: list[Fraction], L: int) -> list[Fraction]:
    """Reference: z_n = sum_{k<=n} b_k (n)_k with b zero past its prefix."""
    return [sum((b[k] * perm(n, k) for k in range(min(n, len(b) - 1) + 1)), Fraction(0)) for n in range(L + 1)]


def test_integer_taylor_to_lattice_matches_newton_map_and_definition():
    rng = random.Random(2026)
    cases = []
    for _ in range(30):  # mixed heights and signs, prefix as long as L+1
        L = rng.randrange(0, 40)
        cases.append(([rand_height(rng) for _ in range(L + 1)], L))
    for _ in range(10):  # whole numbers
        L = rng.randrange(0, 30)
        cases.append(([Fraction(rng.randrange(-10**6, 10**6)) for _ in range(L + 1)], L))
    for _ in range(10):  # L = 0 with a longer prefix
        cases.append(([rand_height(rng) for _ in range(rng.randrange(1, 6))], 0))
    for _ in range(20):  # prefixes shorter than L+1 are zero-extended
        b = [rand_height(rng) for _ in range(rng.randrange(1, 8))]
        cases.append((b, rng.randrange(len(b), 35)))
    for _ in range(6):  # polynomials: rows of fixed width run far past the prefix
        b = [rand_height(rng) for _ in range(rng.randrange(1, 10))]
        cases.append((b, rng.randrange(100, 201)))
    for _ in range(4):  # L = 0 with prefixes of 6 to 19 coefficients
        cases.append(([rand_height(rng) for _ in range(rng.randrange(6, 20))], 0))
    for b, L in cases:
        z = list(taylor_to_lattice(TaylorCoeffs(tuple(b)), L).values)
        padded = b[: L + 1] + [Fraction(0)] * (L + 1 - len(b))
        assert z == newton_to_lattice([b_k * factorial(k) for k, b_k in enumerate(padded)])
        assert z == perm_sum_image(b, L)
        assert all(type(v) is Fraction for v in z)


def test_sequences_reject_floats_and_out_of_range():
    with pytest.raises(TypeError):
        LatticeSeq((0.5, 1))
    z = LatticeSeq((1, 2, 3))
    with pytest.raises(IndexError):
        z[3]
    with pytest.raises(IndexError):
        z[-1]
    assert z.last_index == 2
