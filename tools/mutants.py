"""Mutation kill matrix for the verification verdicts.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only these
    python3 tools/mutants.py --list     # names, files and killing tests

Each mutant is one exact text replacement in one file under `src/`: a
small edit that would make a verdict wrong or a result inexact. For each,
the runner copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, applies the edit there (the checkout is never touched) and runs
the test files that should kill it with `pytest -x`. A mutant survives
when those tests still pass. First the same tests run on the unmutated
copy, since a suite that fails anyway kills everything.

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
        "newton = taylor_newton(b, needed - 1)",
        "newton = taylor_newton(b, needed - 2)",
        ("tests/test_online.py", "tests/test_corpus.py"),
    ),
    Mutant(
        "taylor-residuals-pad-one-short",
        "src/starlattice/odes.py",
        "W = list(newton.W) + [0] * (length + 1 + (eq.order if linear else 0) - len(newton.W))",
        "W = list(newton.W) + [0] * (length + (eq.order if linear else 0) - len(newton.W))",
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
        "if len(ds) > 1 or any(isinstance(v, complex) for v in values):",
        "if len(ds) > 2 or any(isinstance(v, complex) for v in values):",
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
        "w[k + eq.m] if k + eq.m < len(w) else 0",
        "w[k + eq.m] if k + eq.m < len(w) else 1",
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
)


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int, float]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, time.perf_counter() - start


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
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
