"""Byte-identity of the data commands on frozen documents.

Each case runs one command through `cli.run` on a document under
`tests/fixtures/` and compares its stdout, byte for byte, and its exit
code with the files under `tests/fixtures/expected/`. The first twelve
were written by the code before the integer kernel of `transforms` and
`odes` existed, so they pin the output of every exact route to the older
one; the `discretize`, `fourier` and `--mode float` cases were written by
the code before the CLI's command table, and the `forced` and `cubic-m2`
cases (polynomial a_j(t) with an a_0(t), and a second-order Fourier
stream) by the code before the integer Newton-space solver, and the
`quintic` cases ((x - 1/3)^2 (x - 2) (x^2 + x + 2): a double root next to a
complex surd pair) by the code before the stencil residuals of `galois`, and
the `jacobi` cases ((7/3 - t^2) z'' + (1/2 - 3/2 t) z' + 5/4 z + 1/3 - 2/5 t = 0:
a non-unit leading coefficient with a t^2 term, a t-term on z' and an
inhomogeneity) by the code before the integer stencil of `lin_step`, and
the `--mode float` tables of `residual` and `fourier` (`hermite-residual-float`,
`square-fourier-float`) by the `csv.writer` code that the joined-line CSV
writer replaced. The `two-discriminants` cases ((x^2 - 2x - 1)(x^2 - 1/2)^2:
roots in Q(sqrt 2) written through sqrt(2) and sqrt(8)) pin the exact
Wronskian 49/2*sqrt(2) that the lift between square classes gives; their
`--mode float` file was written by the code before that lift, which
printed the same double. Every file under `tests/fixtures/expected/`
belongs to a case. They are never rewritten to make a failing case pass.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from starlattice.cli import run

FIXTURES = Path(__file__).parent / "fixtures"

# (case name, argv with {doc} for the document path, document stem or None, exit code)
CASES = [
    ("harmonic-residual", ["residual", "--input", "{doc}", "--length", "20"], "harmonic", 0),
    ("harmonic-solve", ["solve", "--input", "{doc}", "--length", "20", "--init", "0,1"], "harmonic", 0),
    ("hermite-residual", ["residual", "--input", "{doc}", "--length", "20"], "hermite", 0),
    ("hermite-solve", ["solve", "--input", "{doc}", "--length", "20", "--init=-2,-2"], "hermite", 0),
    ("square-residual", ["residual", "--input", "{doc}", "--length", "20"], "square", 0),
    ("square-solve", ["solve", "--input", "{doc}", "--length", "20", "--init", "1/2"], "square", 0),
    ("cube-residual", ["residual", "--input", "{doc}", "--length", "20"], "cube", 0),
    ("cube-solve", ["solve", "--input", "{doc}", "--length", "20", "--init", "1/2"], "cube", 0),
    (
        "hypergeometric-residual",
        ["residual", "--input", "{doc}", "--length", "20", "--format", "json"],
        "hypergeometric",
        0,
    ),
    ("gaussian-perturbed-residual", ["residual", "--input", "{doc}", "--length", "20"], "gaussian-perturbed", 1),
    ("cubic-galois", ["galois", "--input", "{doc}", "--length", "20"], "cubic", 0),
    ("corpus", ["corpus", "--length", "20"], None, 0),
    ("harmonic-discretize", ["discretize", "--input", "{doc}"], "harmonic", 0),
    ("hermite-discretize", ["discretize", "--input", "{doc}"], "hermite", 0),
    ("square-discretize", ["discretize", "--input", "{doc}"], "square", 0),
    ("cubic-discretize", ["discretize", "--input", "{doc}"], "cubic", 0),
    ("square-fourier", ["fourier", "--input", "{doc}", "--init", "1/2", "--length", "20"], "square", 0),
    ("cube-fourier", ["fourier", "--input", "{doc}", "--init", "1/2", "--length", "20"], "cube", 0),
    (
        "harmonic-solve-float",
        ["solve", "--input", "{doc}", "--length", "20", "--init", "0,1", "--mode", "float"],
        "harmonic",
        0,
    ),
    ("cubic-galois-float", ["galois", "--input", "{doc}", "--length", "20", "--mode", "float"], "cubic", 0),
    ("forced-solve", ["solve", "--input", "{doc}", "--length", "20", "--init", "1/2,-1/3"], "forced", 0),
    ("forced-residual", ["residual", "--input", "{doc}", "--length", "20"], "forced", 1),
    ("cubic-m2-fourier", ["fourier", "--input", "{doc}", "--length", "20", "--init", "1/2,-1/3"], "cubic-m2", 0),
    ("quintic-galois", ["galois", "--input", "{doc}", "--length", "40"], "quintic", 0),
    ("quintic-galois-float", ["galois", "--input", "{doc}", "--length", "40", "--mode", "float"], "quintic", 0),
    ("jacobi-solve", ["solve", "--input", "{doc}", "--length", "60", "--init", "1/2,-1/3"], "jacobi", 0),
    (
        "jacobi-solve-json",
        ["solve", "--input", "{doc}", "--length", "60", "--init", "1/2,-1/3", "--format", "json"],
        "jacobi",
        0,
    ),
    (
        "hermite-residual-float",
        ["residual", "--input", "{doc}", "--length", "20", "--mode", "float"],
        "hermite",
        0,
    ),
    (
        "square-fourier-float",
        ["fourier", "--input", "{doc}", "--init", "1/2", "--length", "20", "--mode", "float"],
        "square",
        0,
    ),
    ("two-discriminants-galois", ["galois", "--input", "{doc}", "--length", "6"], "two-discriminants", 0),
    (
        "two-discriminants-galois-float",
        ["galois", "--input", "{doc}", "--length", "6", "--mode", "float"],
        "two-discriminants",
        0,
    ),
]


def run_case(argv: list[str], doc: str | None) -> tuple[int, str]:
    """Exit code and stdout of one command on the named fixture document."""
    path = str(FIXTURES / f"{doc}.json") if doc else None
    out = io.StringIO()
    with redirect_stdout(out):
        code = run([path if a == "{doc}" else a for a in argv])
    return code, out.getvalue()


@pytest.mark.parametrize("name, argv, doc, code", CASES, ids=[c[0] for c in CASES])
def test_fixture_output_is_byte_identical(name, argv, doc, code):
    expected = (FIXTURES / "expected" / f"{name}.out").read_bytes()
    got_code, got = run_case(argv, doc)
    assert got_code == code
    assert got.encode("utf-8") == expected


def test_every_expected_file_belongs_to_a_case():
    expected = sorted(p.name for p in (FIXTURES / "expected").iterdir())
    assert expected == sorted(f"{case[0]}.out" for case in CASES)
