"""Mutation kill matrix for the verification verdicts.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only these
    python3 tools/mutants.py --list     # names, files and killing tests

Each mutant is one exact text replacement in one file under `src/`: a
small edit that would make a verdict wrong or a result inexact. For each,
the runner copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, with `tools/` and `perfbench/` read-only beside them for the
tests that read those. It applies the edit there (the checkout is never
touched) and runs the test files that should kill it with `pytest -x`.
A mutant survives when those tests still pass. First the same tests run
on the unmutated copy, since a suite that fails anyway kills everything.

Prints one row per mutant and exits 1 on a survivor, on an edit whose old
text does not occur exactly once, or on a failing baseline; 0 when every
mutant is killed. The list is append-only: code that changes a mutated
line gets its mutant's texts updated, never the mutant dropped, and new
verification code adds mutants here. Standard library only; not part of
the tier-1 suite, since it takes minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest paths or node ids, relative to the root


MUTANTS = (
    Mutant(
        "smith-lens-overlap",
        "src/starlattice/galois.py",
        "if gap <= 0 or gap * gap <= 4 * bounds[i] * bounds[j]:",
        "if gap <= 0:",
        ("tests/test_galois.py",),
    ),
    Mutant(
        "smith-radius-sqrt-n",
        "src/starlattice/galois.py",
        "bounds.append(-(-((n * n * (re * re + im * im)) << _RADIUS_BITS) // den))",
        "bounds.append(-(-((n * (re * re + im * im)) << _RADIUS_BITS) // den))",
        ("tests/test_galois.py",),
    ),
    Mutant(
        "wronskian-nonzero-always",
        "src/starlattice/galois.py",
        "nonzero = not (w.is_zero if isinstance(w, QuadExt) else w == 0)",
        "nonzero = True",
        ("tests/test_galois.py",),
    ),
    Mutant(
        "corpus-all-pass-always",
        "src/starlattice/corpus.py",
        "all_pass = all_pass and passed",
        "all_pass = True",
        ("tests/test_corpus.py", "tests/test_cli.py"),
    ),
    Mutant(
        "corpus-ignores-last-residual",
        "src/starlattice/corpus.py",
        "passed = all(r == 0 for r in flat)",
        "passed = all(r == 0 for r in flat[:-1])",
        ("tests/test_corpus.py", "tests/test_cli.py"),
    ),
    Mutant(
        "stencil-vanishes-skips-last-index",
        "src/starlattice/galois.py",
        "for n in range(len(Z) - N))",
        "for n in range(len(Z) - N - 1))",
        ("tests/test_galois.py",),
    ),
    Mutant(
        "taylor-residuals-read-one-short",
        "src/starlattice/odes.py",
        "islice(b, min(needed, sys.maxsize))",
        "islice(b, min(needed - 1, sys.maxsize))",
        ("tests/test_online.py", "tests/test_corpus.py"),
    ),
    Mutant(
        "taylor-residuals-pad-one-short",
        "src/starlattice/odes.py",
        "V += [0] * (length + 1 + (eq.order if linear else 0) - len(V))",
        "V += [0] * (length + (eq.order if linear else 0) - len(V))",
        ("tests/test_online.py", "tests/test_corpus.py"),
    ),
    Mutant(
        "float-residual-bound-loose",
        "src/starlattice/galois.py",
        "FLOAT_SOLUTION_RESIDUAL_BOUND = 1e-9",
        "FLOAT_SOLUTION_RESIDUAL_BOUND = 1e-3",
        ("tests/test_galois.py",),
    ),
    Mutant(
        "surd-column-rational-part-only",
        "src/starlattice/galois.py",
        "for part in _rational_parts(sol))",
        "for part in _rational_parts(sol)[:1])",
        ("tests/test_galois.py",),
    ),
    Mutant(
        "common-field-ignores-second-surd",
        "src/starlattice/galois.py",
        "all(e == ds[0] or _rational_sqrt(e / ds[0]) for e in ds)",
        "all(True for e in ds)",
        ("tests/test_galois.py", "tests/test_cli.py"),
    ),
    Mutant(
        "lin-step-strips-one-round",
        "src/starlattice/odes.py",
        "while (h := gcd(x % B, q % B, B)) != 1:",
        "if (h := gcd(x % B, q % B, B)) != 1:",
        ("tests/test_online.py",),
    ),
    Mutant(
        "lin-step-window-not-reminimised",
        "src/starlattice/odes.py",
        "common = gcd(g, *Z)",
        "common = 1",
        ("tests/test_online.py",),
    ),
    Mutant(
        "fourier-accepts-t-dependent-document",
        "src/starlattice/cli.py",
        'raise SchemaError(f"coeffs[{j}]", "transform-domain stepping needs constant coefficients")',
        "pass",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "fourier-accepts-any-document-type",
        "src/starlattice/cli.py",
        'raise SchemaError("type", "fourier works on constant-coefficient nonlinear documents")',
        "pass",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "galois-accepts-any-document-type",
        "src/starlattice/cli.py",
        'raise SchemaError("type", "galois works on const_linear documents")',
        "pass",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "solve-accepts-const-linear",
        "src/starlattice/cli.py",
        'raise SchemaError("type", "solve works on linear/nonlinear documents")',
        "pass",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "residual-accepts-const-linear",
        "src/starlattice/cli.py",
        'raise SchemaError("type", "residual works on linear/nonlinear documents")',
        "pass",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "residual-without-solution-block",
        "src/starlattice/cli.py",
        'raise SchemaError("solution", "residual verification needs a solution block")',
        "pass",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "grid-root-unchecked",
        "src/starlattice/galois.py",
        "return root if poly_eval(poly, root) == 0 else None",
        "return root",
        ("tests/test_galois.py",),
    ),
    Mutant(
        "residual-short-lattice-one-off",
        "src/starlattice/cli.py",
        "elif len(values) < needed:",
        "elif len(values) < needed - 1:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli-float-range-unchecked",
        "src/starlattice/cli.py",
        "if not cmath.isfinite(x):",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "map-solution-float-range-unchecked",
        "src/starlattice/galois.py",
        "if not cmath.isfinite(value):",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "nonlin-residuals-one-short",
        "src/starlattice/odes.py",
        "z.last_index - eq.m + 1).lattice_values()",
        "z.last_index - eq.m).lattice_values()",
        ("tests/test_odes.py",),
    ),
    Mutant(
        "nonlin-residual-reads-one-back",
        "src/starlattice/odes.py",
        "w[k + eq.m]",
        "w[k + eq.m - 1]",
        ("tests/test_odes.py",),
    ),
    Mutant(
        "initial-count-unchecked",
        "src/starlattice/odes.py",
        "if len(values) != eq.order:",
        "if False:",
        ("tests/test_odes.py",),
    ),
    Mutant(
        "initial-length-unchecked",
        "src/starlattice/odes.py",
        "if L < eq.order - 1:",
        "if False:",
        ("tests/test_odes.py",),
    ),
    Mutant(
        "lin-residuals-table-unguarded",
        "src/starlattice/odes.py",
        "_check_index(eq, z, 0)\n    stencil = _LinearStencil.of(eq)",
        "stencil = _LinearStencil.of(eq)",
        ("tests/test_odes.py",),
    ),
    Mutant(
        "nonlin-residual-readout-one-back",
        "src/starlattice/odes.py",
        "lattice_values()[n]",
        "lattice_values()[n - 1]",
        ("tests/test_odes.py",),
    ),
    Mutant(
        "nonlin-defect-reads-past-the-prefix",
        "src/starlattice/odes.py",
        "V[k + m] if k + m < len(V) else 0",
        "V[k + m] if k + m < len(V) else 1",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "reduced-fraction-skips-gcd",
        "src/starlattice/rational.py",
        "g = gcd(numerator, denominator)",
        "g = 1",
        ("tests/test_rational.py",),
    ),
    Mutant(
        "parse-rational-skips-gcd",
        "src/starlattice/rational.py",
        "return reduced_fraction(_parse_int(num, text), q)",
        "return coprime_fraction(_parse_int(num, text), q)",
        ("tests/test_rational.py::test_parse_rational_table",),
    ),
    Mutant(
        "corpus-worst-scan-inverted",
        "src/starlattice/corpus.py",
        "worst = Fraction(0) if passed else",
        "worst = Fraction(0) if not passed else",
        ("tests/test_corpus.py::test_run_corpus_fails_a_perturbed_case_and_the_cli_exits_1",),
    ),
    Mutant(
        "map-solution-rational-unreduced",
        "src/starlattice/galois.py",
        "g = gcd(c, scale)",
        "g = 1",
        ("tests/test_galois.py::test_seeded_sweep_integer_recurrence_matches_the_running_product",),
    ),
    Mutant(
        "kernel-weights-drop-arity-factor",
        "src/starlattice/star.py",
        "powers.append(powers[-1] * (p - 1))",
        "powers.append(powers[-1])",
        ("tests/test_star.py",),
    ),
    Mutant(
        "square-class-lift-keeps-b",
        "src/starlattice/galois.py",
        "return QuadExt(value.a, value.b * r, d)",
        "return QuadExt(value.a, value.b, d)",
        ("tests/test_galois.py::test_wronskian_of_one_field_through_two_discriminants_is_exact",),
    ),
    Mutant(
        "hypergeometric-ratio-shifted",
        "src/starlattice/corpus.py",
        "numerators = [(a1 + i * a2) * (b1 + i * b2) * c.denominator for i in range(L)]",
        "numerators = [(a1 + i * a2) * (b1 + i * b2) * c.denominator for i in range(1, L + 1)]",
        ("tests/test_corpus.py::test_every_builder_matches_its_fraction_reference",),
    ),
    Mutant(
        "taylor-solution-sign-fold-lost",
        "src/starlattice/odes.py",
        "sign, S = (-1, lead) if lead > 0 else (1, -lead)",
        "sign, S = (-1, lead) if lead > 0 else (-1, -lead)",
        ("tests/test_odes.py::test_taylor_solution_linear_matches_the_fraction_recurrence",),
    ),
    Mutant(
        "gaussian-product-loses-minus",
        "src/starlattice/corpus.py",
        "term *= -(k + 1)",
        "term *= k + 1",
        ("tests/test_corpus.py::test_every_builder_matches_its_fraction_reference",),
    ),
    Mutant(
        "trig-ratio-loses-minus",
        "src/starlattice/corpus.py",
        "term *= -p * p",
        "term *= p * p",
        ("tests/test_corpus.py::test_every_builder_matches_its_fraction_reference",),
    ),
    Mutant(
        "riccati-ratio-loses-minus",
        "src/starlattice/corpus.py",
        "W[i] = W[i - K] * perm(i, K) * (-d * abs(n) ** K // n)",
        "W[i] = W[i - K] * perm(i, K) * (d * abs(n) ** K // n)",
        ("tests/test_corpus.py::test_every_builder_matches_its_fraction_reference",),
    ),
    Mutant(
        "hermite-ratio-loses-minus",
        "src/starlattice/corpus.py",
        "W[i + 2] = -(m - i) * W[i]",
        "W[i + 2] = (m - i) * W[i]",
        ("tests/test_corpus.py::test_every_builder_matches_its_fraction_reference",),
    ),
    Mutant(
        "jacobi-sum-signs-the-wrong-factor",
        "src/starlattice/corpus.py",
        "N[i + j] += weight * (-1) ** (s - i) * comb(s, i) * comb(m - s, j)",
        "N[i + j] += weight * (-1) ** (s - j) * comb(s, i) * comb(m - s, j)",
        ("tests/test_corpus.py::test_every_builder_matches_its_fraction_reference",),
    ),
    Mutant(
        "taylor-solution-c0-overscaled",
        "src/starlattice/odes.py",
        "gamma = {r: c * G * S ** (r + N - 1) for r, G in form.c0 if r <= L - N}",
        "gamma = {r: c * G * S ** (r + N) for r, G in form.c0 if r <= L - N}",
        ("tests/test_odes.py::test_taylor_solution_linear_matches_the_fraction_recurrence",),
    ),
    Mutant(
        "newton-rhs-drops-inhomogeneity",
        "src/starlattice/odes.py",
        "k_factorial * gamma.get(k, 0)",
        "gamma.get(k, 0)",
        (
            "tests/test_odes.py::test_taylor_solution_linear_matches_the_fraction_recurrence",
            "tests/test_online.py::test_sweep_taylor_residuals_match_the_lattice_route",
        ),
    ),
    Mutant(
        "newton-rhs-ignores-shift",
        "src/starlattice/odes.py",
        "acc += A * perm(k + at, p + at) * X[k + shift]",
        "acc += A * perm(k + at, p + at) * X[k - p]",
        (
            "tests/test_odes.py::test_taylor_solution_linear_matches_the_fraction_recurrence",
            "tests/test_online.py::test_sweep_taylor_residuals_match_the_lattice_route",
        ),
    ),
    Mutant(
        "taylor-weight-read-at-k",
        "src/starlattice/odes.py",
        "terms = [(V, l - p, p, C, l - p) for l, p, C in form.terms]",
        "terms = [(V, l - p, p, C, 0) for l, p, C in form.terms]",
        (
            "tests/test_online.py::test_sweep_taylor_residuals_match_the_lattice_route",
            "tests/test_corpus.py::test_every_standard_case_verifies",
        ),
    ),
    Mutant(
        "cauchy-power-misses-last-term",
        "src/starlattice/series.py",
        "_append_powers(v, powers, v[len(powers[0]) :: -1])",
        "_append_powers(v, powers, v[len(powers[0]) :: -1][:-1] + [0])",
        (
            "tests/test_online.py::test_extend_cauchy_powers_is_pow_trunc_on_integers",
            "tests/test_online.py::test_taylor_residuals_of_nonlinear_equations_never_run_the_lattice_defect",
        ),
    ),
    Mutant(
        "taylor-readout-without-factorial",
        "src/starlattice/odes.py",
        "    if any(sigma):\n",
        "    if False:\n",
        (
            "tests/test_online.py::test_taylor_residuals_of_nonlinear_equations_never_run_the_lattice_defect",
            "tests/test_fixtures.py::test_fixture_output_is_byte_identical",
        ),
    ),
    Mutant(
        "corpus-self-check-reads-n-up-to-5",
        "src/starlattice/corpus.py",
        "for r in table[: _BUILD_CHECK_RANGE + 1])",
        "for r in table[:_BUILD_CHECK_RANGE])",
        ("tests/test_corpus.py::test_build_self_check_reads_exactly_the_residuals_up_to_its_range",),
    ),
    Mutant(
        "grammar-accepts-empty-denominator",
        "src/starlattice/rational.py",
        "(slash and not den.isdecimal())",
        "(slash and den and not den.isdecimal())",
        (
            "tests/test_rational.py::test_parse_rational_table",
            "tests/test_rational.py::test_parse_rational_matches_the_regex_grammar",
        ),
    ),
    Mutant(
        "taylor-ahead-drops-falling-factorial",
        "src/starlattice/odes.py",
        "ahead = perm(k + m, m) * V[k + m]",
        "ahead = V[k + m]",
        (
            "tests/test_online.py::test_taylor_residuals_of_nonlinear_equations_never_run_the_lattice_defect",
            "tests/test_online.py::test_sweep_taylor_residuals_match_the_lattice_route",
        ),
    ),
    Mutant(
        "lattice-denominator-one-power-high",
        "src/starlattice/transforms.py",
        "denominator = self.c * power",
        "denominator = self.c * power * self.E",
        (
            "tests/test_transforms.py::test_scaled_newton_readouts_ignore_trailing_zeros",
            "tests/test_transforms.py::test_newton_to_lattice_is_the_weighted_binomial_sum",
        ),
    ),
    Mutant(
        "lattice-w0-left-unscaled",
        "src/starlattice/transforms.py",
        "for k in range(K - 2, -1, -1):",
        "for k in range(K - 2, 0, -1):",
        (
            "tests/test_transforms.py::test_scaled_newton_readouts_ignore_trailing_zeros",
            "tests/test_transforms.py::test_newton_maps_match_their_row_forms",
        ),
    ),
    Mutant(
        "lattice-keeps-zero-tail",
        "src/starlattice/transforms.py",
        "        while K and not self.W[K - 1]:\n            K -= 1\n",
        "",
        ("tests/test_online.py::test_taylor_residuals_of_a_solution_build_no_pascal_image",),
    ),
)


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int, float]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, time.perf_counter() - start


def copy_tree(dest: Path) -> None:
    """The tree the tests run in; `tools/` and `perfbench/`, which tests read, are copied read-only."""
    for name in ("src", "tests", "tools", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    for path in [*(dest / "tools").rglob("*"), *(dest / "perfbench").rglob("*")]:
        if path.is_file():
            path.chmod(0o444)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def check(mutant: Mutant) -> str:
    """killed, survived or an error, for one mutant on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"error: old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code, seconds = run_tests(tree, mutant.tests)
    verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest exit {code}")
    return f"{verdict} ({seconds:.0f} s)"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name:36s} {m.file:28s} {' '.join(m.tests)}")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-baseline-") as tmp:
        copy_tree(Path(tmp))
        code, seconds = run_tests(Path(tmp), tests)
    print(f"{'baseline (no mutant)':36s} {'passed' if code == 0 else f'FAILED, pytest exit {code}'} ({seconds:.0f} s)")
    if code != 0:
        return 1
    bad = 0
    for m in chosen:
        verdict = check(m)
        bad += not verdict.startswith("killed")
        print(f"{m.name:36s} {verdict}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
