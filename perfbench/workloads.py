"""Seeded input generator for the four benchmark workloads.

Every workload is a fixed list of slots: an equation family, a length L
and a height class for its rationals. The seed picks the coefficients and
initial data within those classes, which residual documents carry a
perturbed solution, the float inputs, and the order in which the pool of
operations runs. Keeping the slots fixed keeps the cost of a pool nearly
the same from seed to seed while the inputs themselves change.

Every pool holds POOL_SIZE operations, an odd number: the timed loop runs
whole passes, so each document has the same number of latency samples,
and with an odd count of documents the median latency falls among the
repeats of one document instead of between the slowest repeat of one and
the fastest of the next.

Each operation is a plain dict, so a whole pool serialises to canonical
JSON; the determinism self-test compares those bytes. Known answers for
the residual documents come from closed forms or from recurrences written
here, not from the package under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial, perm

POOL_SIZE = 11


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rat(rng: random.Random, nums, den: int, signed: bool = True) -> Fraction:
    """A rational of fixed height class: numerator from nums, fixed denominator.

    Bit growth, and with it the cost of an operation, follows the height of
    its coefficients; fixing the class per slot keeps the cost of a slot
    nearly the same from seed to seed while the values change.
    """
    sign = rng.choice((1, -1)) if signed else 1
    return Fraction(sign * rng.choice(nums), den)


def _poly(pairs) -> list:
    """Monomial list [[power, "p/q"], ...] with zero coefficients dropped."""
    return [[p, fmt(c)] for p, c in pairs if c != 0]


def _lattice_from_taylor(b: list[Fraction], count: int) -> list[Fraction]:
    """z_n = sum_{k<=n} b_k (n)_k for n < count."""
    return [sum((b[k] * perm(n, k) for k in range(min(n, len(b) - 1) + 1)), Fraction(0)) for n in range(count)]


def _init_arg(values) -> str:
    # The '=' form keeps argparse from reading a leading '-' as an option.
    return "--init=" + ",".join(fmt(v) for v in values)


# ---------------------------------------------------------------- step


def _solve_op(doc_id, document, taylor_init, L):
    order = document["order"] if document["type"] == "linear" else document["m"]
    z0 = _lattice_from_taylor(taylor_init, order)
    return {
        "id": doc_id,
        "command": "solve",
        "L": L,
        "document": document,
        "argv": ["solve", "--input", "{doc}", "--length", str(L), _init_arg(z0)],
        "expect": {"taylor_init": [fmt(v) for v in taylor_init]},
    }


def _nl_doc(m, coeff_pairs):
    return {"type": "nonlinear", "m": m, "coeffs": [_poly(pairs) for pairs in coeff_pairs]}


def _lin_doc(coeff_pairs, c0=()):
    return {
        "type": "linear",
        "order": len(coeff_pairs) - 1,
        "coeffs": [_poly(pairs) for pairs in coeff_pairs],
        "c0": _poly(c0),
    }


def _step_pool(rng: random.Random) -> list[dict]:
    A, B, C = (1, 2), (2, 3), (3, 5)  # numerator classes
    ops = []

    def quadratic(i, L):
        doc = _nl_doc(1, [[(0, _rat(rng, A, 5))], [], [(0, _rat(rng, A, 3))]])
        ops.append(_solve_op(f"step-{i:02d}-quadratic", doc, [_rat(rng, A, 7)], L))

    def cubic(i, L):
        doc = _nl_doc(1, [[], [], [], [(0, _rat(rng, A, 3))]])
        ops.append(_solve_op(f"step-{i:02d}-cubic", doc, [_rat(rng, A, 5)], L))

    def riccati(k):
        def make(i, L):
            doc = _nl_doc(1, [[], [], [(k, _rat(rng, A, 3))]])
            ops.append(_solve_op(f"step-{i:02d}-riccati-k{k}", doc, [_rat(rng, A, 5)], L))

        return make

    def second_order(i, L):
        doc = _nl_doc(2, [[], [(0, _rat(rng, A, 3))], [(0, _rat(rng, A, 5))]])
        ops.append(_solve_op(f"step-{i:02d}-m2", doc, [_rat(rng, A, 7), _rat(rng, A, 7)], L))

    def hermite(i, L):
        doc = _lin_doc([[(0, _rat(rng, C, 2))], [(1, _rat(rng, (1,), 1))], [(0, 1)]])
        ops.append(_solve_op(f"step-{i:02d}-hermite", doc, [_rat(rng, A, 3), _rat(rng, A, 3)], L))

    def jacobi(i, L):
        al, be = _rat(rng, A, 3, signed=False), _rat(rng, A, 5, signed=False)
        mu = _rat(rng, C, 2, signed=False)
        doc = _lin_doc([[(0, mu * (mu + al + be + 1))], [(0, be - al), (1, -(al + be + 2))], [(0, 1), (2, -1)]])
        ops.append(_solve_op(f"step-{i:02d}-jacobi", doc, [_rat(rng, A, 3), _rat(rng, A, 3)], L))

    def airy(i, L):
        doc = _lin_doc([[(0, _rat(rng, A, 3)), (1, _rat(rng, B, 5))], [], [(0, 1)]])
        ops.append(_solve_op(f"step-{i:02d}-airy", doc, [_rat(rng, A, 3), _rat(rng, A, 3)], L))

    slots = [
        (quadratic, 40), (cubic, 38), (riccati(1), 48), (riccati(2), 56), (second_order, 38),
        (hermite, 120), (hermite, 160), (jacobi, 110), (jacobi, 140), (airy, 150), (airy, 190),
    ]
    for i, (make, L) in enumerate(slots):
        make(i, L)
    return ops


# ---------------------------------------------------------------- verify


def _pochhammer(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


def _hyp_series(a, b, c, K):
    return [_pochhammer(a, k) * _pochhammer(b, k) / (_pochhammer(c, k) * factorial(k)) for k in range(K)]


def _hermite_series(kappa, mu, b0, b1, K):
    # z'' + kappa t z' + mu z = 0:  b_{k+2} = -(kappa k + mu) b_k / ((k+1)(k+2))
    b = [b0, b1]
    for k in range(K - 2):
        b.append(-(kappa * k + mu) * b[k] / ((k + 1) * (k + 2)))
    return b[:K]


def _gaussian_series(alpha, r, b0, K):
    # z' + alpha t^r z = 0:  z = b0 exp(-alpha t^(r+1) / (r+1))
    b = [Fraction(0)] * K
    for j in range(0, (K - 1) // (r + 1) + 1):
        b[j * (r + 1)] = b0 * (-alpha / (r + 1)) ** j / factorial(j)
    return b


def _inhomogeneous_series(kappa, alpha, g0, g1, b0, b1, K):
    # z'' + kappa t z' + alpha z + g0 + g1 t = 0
    b = [b0, b1]
    for k in range(K - 2):
        c_k = g0 if k == 0 else (g1 if k == 1 else 0)
        b.append(-((kappa * k + alpha) * b[k] + c_k) / ((k + 1) * (k + 2)))
    return b[:K]


def _riccati_series(k, a, C, K):
    # z' = a t^k z^2:  z = -(k+1) / (a (t^(k+1) + C))
    b = [Fraction(0)] * K
    for j in range(0, (K - 1) // (k + 1) + 1):
        b[j * (k + 1)] = -(k + 1) / (a * C) * (Fraction(-1) / C) ** j
    return b


def _residual_op(rng, doc_id, document, series, order, L, perturbed):
    series = list(series[: L + order + 1])
    if perturbed:
        # Changing b_k adds the image of a nonzero polynomial whose lowest
        # term sits at degree <= k-1, so some residual in 0..L is nonzero.
        k = rng.randrange(max(order, 2), L + 1)
        series[k] += _rat(rng, (1, 2), 3)
    document = dict(document, solution={"taylor": [fmt(v) for v in series]})
    return {
        "id": doc_id + ("-perturbed" if perturbed else ""),
        "command": "residual",
        "L": L,
        "document": document,
        "argv": ["residual", "--input", "{doc}", "--length", str(L)],
        "expect": {"verdict": 1 if perturbed else 0},
    }


def _verify_pool(rng: random.Random) -> list[dict]:
    A, C = (1, 2), (3, 5)
    perturbed = set(rng.sample(range(10), 3))
    ops = []

    def add(i, name, doc, series, order, L):
        ops.append(_residual_op(rng, f"verify-{i:02d}-{name}", doc, series, order, L, i in perturbed))

    def hyp(i, L):
        a, b, c = _rat(rng, (1, 3), 4), _rat(rng, A, 3), _rat(rng, (5, 7), 4, signed=False)
        doc = _lin_doc([[(0, -a * b)], [(0, c), (1, -(a + b + 1))], [(1, 1), (2, -1)]])
        add(i, "hypergeometric", doc, _hyp_series(a, b, c, L + 3), 2, L)

    def hermite(i, L):
        kappa, mu = _rat(rng, (1,), 1), _rat(rng, C, 2)
        doc = _lin_doc([[(0, mu)], [(1, kappa)], [(0, 1)]])
        add(i, "hermite", doc, _hermite_series(kappa, mu, _rat(rng, A, 3), _rat(rng, A, 3), L + 3), 2, L)

    def gaussian(r):
        def make(i, L):
            alpha = _rat(rng, A, 3)
            doc = _lin_doc([[(r, alpha)], [(0, 1)]])
            add(i, f"gaussian-r{r}", doc, _gaussian_series(alpha, r, _rat(rng, A, 5), L + 2), 1, L)

        return make

    def inhomogeneous(i, L):
        kappa, alpha, g0, g1 = _rat(rng, (1,), 2), _rat(rng, A, 3), _rat(rng, A, 5), _rat(rng, A, 5)
        doc = _lin_doc([[(0, alpha)], [(1, kappa)], [(0, 1)]], c0=[(0, g0), (1, g1)])
        series = _inhomogeneous_series(kappa, alpha, g0, g1, _rat(rng, A, 3), _rat(rng, A, 3), L + 3)
        add(i, "inhomogeneous", doc, series, 2, L)

    def riccati(k):
        def make(i, L):
            a, C0 = _rat(rng, A, 3), _rat(rng, (2, 3), 5)
            add(i, f"riccati-k{k}", _nl_doc(1, [[], [], [(k, a)]]), _riccati_series(k, a, C0, L + 2), 1, L)

        return make

    slots = [
        (hyp, 72), (hyp, 86), (hermite, 92), (hermite, 112), (gaussian(1), 112),
        (gaussian(2), 142), (inhomogeneous, 92), (inhomogeneous, 112), (riccati(1), 28), (riccati(2), 33),
    ]
    for i, (make, L) in enumerate(slots):
        make(i, L)
    ops.append(
        {
            "id": "verify-10-corpus",
            "command": "corpus",
            "L": 20,
            "document": None,
            "argv": ["corpus", "--length", "20"],
            "expect": {},
        }
    )
    return ops


# ---------------------------------------------------------------- const


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _has_rational_root(monic_int: list[int]) -> bool:
    """Rational root test for a monic integer polynomial (coefficients low to high)."""
    c0 = monic_int[0]
    if c0 == 0:
        return True
    for d in range(1, abs(c0) + 1):
        if c0 % d == 0:
            for x in (d, -d):
                if sum(c * x**i for i, c in enumerate(monic_int)) == 0:
                    return True
    return False


def _roots_separated(monic_int: list[int]) -> bool:
    import numpy as np

    roots = np.roots([float(c) for c in reversed(monic_int)])
    return all(abs(roots[i] - roots[j]) > 0.1 for i in range(len(roots)) for j in range(i))


def _float_factor(rng: random.Random) -> list[int]:
    """Monic cubic or quartic with small integer coefficients and no rational root.

    Its roots lie at least 0.1 apart, so galois.char_roots certifies the
    float roots and the check can tell them apart.
    """
    degree = rng.choice((3, 4))
    while True:
        poly = [rng.randint(-3, 3) for _ in range(degree)] + [1]
        if _has_rational_root(poly) or not _roots_separated(poly):
            continue
        return poly


def _galois_op(doc_id, L, rational, quadratic=None, float_factor=None):
    """rational: [(root, multiplicity)]; quadratic: (p, q) for x^2 + p x + q."""
    poly = [Fraction(1)]
    for r, mult in rational:
        for _ in range(mult):
            poly = _polymul(poly, [-r, Fraction(1)])
    if quadratic is not None:
        poly = _polymul(poly, [Fraction(quadratic[1]), Fraction(quadratic[0]), Fraction(1)])
    if float_factor is not None:
        poly = _polymul(poly, [Fraction(c) for c in float_factor])
    argv = ["galois", "--input", "{doc}", "--length", str(L)]
    if float_factor is not None:
        argv.append("--allow-float-roots")
    return {
        "id": doc_id,
        "command": "galois",
        "L": L,
        "document": {"type": "const_linear", "coeffs": [fmt(c) for c in poly[:-1]]},
        "argv": argv,
        "expect": {
            "rational": [[fmt(r), mult] for r, mult in rational],
            "quadratic": None if quadratic is None else [fmt(quadratic[0]), fmt(quadratic[1])],
            "float_factor": float_factor,
        },
    }


def _distinct_roots(rng, classes):
    """One rational root per (numerators, denominator) class, all distinct, none -1."""
    roots = []
    for nums, den in classes:
        r = _rat(rng, nums, den)
        while r in roots or r == -1:
            r = _rat(rng, nums, den)
        roots.append(r)
    return roots


def _irreducible_quadratic(rng, real: bool):
    """x^2 + p x + q with a non-square discriminant, real or complex roots."""
    if real:
        return _rat(rng, (3,), 1), _rat(rng, (1,), 1)  # discriminant 5 or 13
    return _rat(rng, (1,), 1), _rat(rng, (2, 3), 1, signed=False)  # -7 or -11


def _fourier_op(doc_id, m, b0, a, taylor_init, L):
    doc = _nl_doc(m, [[(0, b0)]] + [[(0, c)] for c in a])
    return {
        "id": doc_id,
        "command": "fourier",
        "L": L,
        "document": doc,
        "argv": ["fourier", "--input", "{doc}", "--length", str(L), _init_arg(taylor_init)],
        "expect": {"taylor_init": [fmt(v) for v in taylor_init]},
    }


def _const_pool(rng: random.Random) -> list[dict]:
    A = (1, 2)
    R3, R2, R5 = (A, 3), ((1, 3), 2), (A, 5)  # root height classes
    ops = []
    r = _distinct_roots(rng, (R3, R2))
    ops.append(_galois_op("const-00-rational", 200, [(r[0], 1), (r[1], 1)]))
    r = _distinct_roots(rng, (R3, R2))
    ops.append(_galois_op("const-01-rational-mult", 150, [(r[0], 2), (r[1], 1)]))
    r = _distinct_roots(rng, (R3, R2, R5))
    ops.append(_galois_op("const-02-rational-mult", 100, [(r[0], 2), (r[1], 1), (r[2], 1)]))
    r = _distinct_roots(rng, (R3,))
    ops.append(_galois_op("const-03-surd", 55, [(r[0], 1)], quadratic=_irreducible_quadratic(rng, real=False)))
    ops.append(_galois_op("const-04-surd", 85, [], quadratic=_irreducible_quadratic(rng, real=True)))
    ops.append(_galois_op("const-05-float", 200, [], float_factor=_float_factor(rng)))
    r = _distinct_roots(rng, (R3,))
    ops.append(_galois_op("const-06-float", 120, [(r[0], 1)], float_factor=_float_factor(rng)))
    for i, (m, degree, L) in enumerate(((1, 2, 150), (1, 2, 185), (1, 3, 55), (2, 2, 180)), start=7):
        a = [_rat(rng, A, 3) for _ in range(degree)]
        b0 = _rat(rng, A, 5) if m == 1 else Fraction(0)
        init = [_rat(rng, A, 7) for _ in range(m)]
        ops.append(_fourier_op(f"const-{i:02d}-fourier-m{m}-d{degree}", m, b0, a, init, L))
    return ops


# ---------------------------------------------------------------- float


def _float_pool(rng: random.Random) -> list[dict]:
    ops = []
    slots = POOL_SIZE
    for i in range(slots):
        L = round(200 + 1300 * (i + 0.5) / slots) + rng.randint(-8, 8)
        p = 2 + i % 3
        ratio = rng.uniform(0.3, 0.9)
        scale = rng.uniform(0.5, 2.0)
        ops.append(
            {
                "id": f"float-{i:02d}-p{p}",
                "command": "float",
                "L": L,
                "document": None,
                "argv": None,
                "p": p,
                "z": [scale * ratio**n for n in range(L + 1)],
                "expect": {},
            }
        )
    return ops


_POOLS = {"step": _step_pool, "verify": _verify_pool, "const": _const_pool, "float": _float_pool}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's pool of operations for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _POOLS[workload](rng)
    if len(ops) != POOL_SIZE:
        raise ValueError(f"{workload} pool has {len(ops)} operations, not {POOL_SIZE}")
    rng.shuffle(ops)
    return ops


def canonical_bytes(ops: list[dict]) -> bytes:
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()


def warmup_ops(workload: str) -> list[dict]:
    """One small, fixed operation per command of the workload.

    The const warm-up has a cubic factor, so it pays the lazy numpy import
    in galois.char_roots.
    """
    if workload == "step":
        doc = _nl_doc(1, [[(0, Fraction(1))], [], [(0, Fraction(1, 2))]])
        return [_solve_op("warmup-solve", doc, [Fraction(1, 3)], 12)]
    if workload == "verify":
        doc = _lin_doc([[(1, Fraction(1))], [(0, 1)]])
        residual = _residual_op(None, "warmup-residual", doc, _gaussian_series(Fraction(1), 1, Fraction(1), 14), 1, 12, False)
        corpus = {"id": "warmup-corpus", "command": "corpus", "L": 4, "document": None, "argv": ["corpus", "--length", "4"], "expect": {}}
        return [residual, corpus]
    if workload == "const":
        galois = _galois_op("warmup-galois", 12, [(Fraction(1, 2), 1)], float_factor=[1, 1, 0, 1])
        fourier = _fourier_op("warmup-fourier", 1, Fraction(1), [Fraction(1, 2), Fraction(-1)], [Fraction(1, 3)], 20)
        return [galois, fourier]
    return [{"id": "warmup-float", "command": "float", "L": 100, "document": None, "argv": None, "p": 3, "z": [0.5**n for n in range(101)], "expect": {}}]
