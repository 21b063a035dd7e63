"""Batch command-line front end.

Subcommands: discretize, residual, solve, fourier, galois, corpus, bench.
Data outputs are byte-deterministic (sorted-key JSON / newline-terminated
CSV, no timestamps); bench emits measured timings and is the documented
exception. Exit codes: 0 success, 1 verification failure, 2 usage error;
an option a subcommand does not read is a usage error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
from fractions import Fraction
from math import inf

from . import galois
from .corpus import run_corpus
from .errors import FloatOverflow, IndexOutOfRange, SchemaError, StarLatticeError
from .floatmode import bench_star_power
from .fourier import fourier_step
from .galois import ConstLinearEq, QuadExt, verify_fundamental
from .odes import (
    LinearOde,
    NonlinearOde,
    lin_residuals,
    lin_step,
    local_stencil,
    nonlin_residuals,
    nonlin_step,
    taylor_residuals,
)
from .rational import format_float, format_rational, parse_rational
from .sequences import LatticeSeq, TaylorCoeffs
from .specio import parse_solution, parse_spec, to_document

def _as_float(value, where: str) -> float | complex:
    """An exact value in doubles for --mode float; one beyond the double range raises FloatOverflow."""
    try:
        x = float(value) if isinstance(value, Fraction) else complex(value)
    except OverflowError:
        x = inf
    if not cmath.isfinite(x):
        raise FloatOverflow(f"{where} leaves the double range; --mode float cannot print it")
    return x


def _render(value, mode: str, name: str, n: int | None = None):
    """The JSON/CSV form of one entry; ``name`` and index ``n`` label it in a float-range error."""
    if value is None:
        return None
    if mode == "float" and isinstance(value, (Fraction, QuadExt)):
        value = _as_float(value, name if n is None else f"{name}[{n}]")
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, QuadExt):
        return str(value)
    if isinstance(value, complex):
        return [format_float(value.real), format_float(value.imag)]
    if isinstance(value, float):
        return format_float(value)
    return value


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    """Header and rows as comma-joined lines, each ended by "\\n"; ``None`` prints as an empty field.

    No field needs quoting: each is an int, a bool, "", a `format_rational`
    string (digits with an optional sign and slash) or a `format_float` one
    (%.17g of a finite double).
    """
    return "".join([",".join(["" if v is None else str(v) for v in row]) + "\n" for row in (header, *rows)])


def _json_int(text: str) -> int:
    """A JSON integer literal; one past the interpreter's int/str digit limit is refused, not a traceback."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise SchemaError(
            "--input", f"integer with {digits} digits; JSON integers may have at most {sys.get_int_max_str_digits()}"
        ) from None


def _load_document(path: str) -> dict:
    """The parsed JSON document; text that is not UTF-8, or nested past the parser's depth, is refused."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except UnicodeDecodeError as exc:
            raise SchemaError("--input", f"not UTF-8 text ({exc.reason})") from None
        except RecursionError:
            raise SchemaError("--input", "JSON nested too deeply") from None


def _parse_init(text: str | None, count: int, what: str) -> tuple[Fraction, ...]:
    if text is None:
        raise SchemaError("--init", f"{what} requires --init with {count} comma-separated rationals")
    values = tuple(parse_rational(part) for part in text.split(","))
    if len(values) != count:
        raise SchemaError("--init", f"expected {count} values, got {len(values)}")
    return values


def _series_table(name: str, values, args) -> str:
    cells = [_render(v, args.mode, name, n) for n, v in enumerate(values)]
    if args.format == "csv":
        return _csv_text(["n", name], list(enumerate(cells)))
    return _json_text({"command": args.command, name: cells})


def cmd_discretize(args) -> int:
    eq = parse_spec(_load_document(args.input))
    equation = to_document(eq)
    payload = {"command": "discretize", "equation": equation, "kind": equation["type"]}
    if isinstance(eq, NonlinearOde):
        constant = all(p == 0 for poly in eq.coeffs for p, _ in poly.monomials)
        payload |= {"m": eq.m, "degree": eq.degree, "local_stencil": None, "nonlocal": eq.degree >= 2 or not constant}
    else:
        stencil = local_stencil(eq.as_linear_ode() if isinstance(eq, ConstLinearEq) else eq)
        payload |= {
            "order": eq.order,
            "local_stencil": None if stencil is None else [format_rational(c) for c in stencil],
            "nonlocal": stencil is None,
        }
    _emit(_json_text(payload), args.out)
    return 0


def cmd_residual(args) -> int:
    """Residual table of the document's solution for n = 0..length; exit 1 when an entry is nonzero.

    Residual n reads entries 0..n+order only. A `taylor` solution goes to
    `odes.taylor_residuals`, which evaluates the equation's Newton-space
    defect on the series integers and reads out only that defect, so the
    lattice image of the series is never built (it is the functor image of
    the continuous residual). A `lattice` one must store z_0..z_{length+order}
    and goes to the stencil (`lin_residuals`) or the defect
    (`nonlin_residuals`) on its numerators.
    """
    document = _load_document(args.input)
    eq = parse_spec(document)
    solution = parse_solution(document)
    if solution is None:
        raise SchemaError("solution", "residual verification needs a solution block")
    if isinstance(eq, ConstLinearEq):
        raise SchemaError("type", "residual works on linear/nonlinear documents")
    kind, values = solution
    needed = args.length + eq.order + 1
    if kind == "taylor":
        residuals = taylor_residuals(eq, TaylorCoeffs(values), args.length)
    elif len(values) < needed:
        raise IndexOutOfRange(
            f"lattice solution has {len(values)} entries; residuals up to n={args.length} need {needed}"
        )
    else:
        z = LatticeSeq(values[:needed])  # residual n reads only z_0..z_{n+order}
        residuals = lin_residuals(eq, z) if isinstance(eq, LinearOde) else nonlin_residuals(eq, z)
    text = _series_table("residual", residuals, args)
    _emit(text, args.out)
    return 0 if all(r == 0 for r in residuals) else 1


def cmd_solve(args) -> int:
    eq = parse_spec(_load_document(args.input))
    if isinstance(eq, ConstLinearEq):
        raise SchemaError("type", "solve works on linear/nonlinear documents")
    linear = isinstance(eq, LinearOde)
    init = _parse_init(args.init, eq.order, "a linear equation" if linear else "a nonlinear equation")
    z = (lin_step if linear else nonlin_step)(eq, init, args.length)
    _emit(_series_table("z", z.values, args), args.out)
    return 0


def cmd_fourier(args) -> int:
    eq = parse_spec(_load_document(args.input))
    if not isinstance(eq, NonlinearOde):
        raise SchemaError("type", "fourier works on constant-coefficient nonlinear documents")
    for j, poly in enumerate(eq.coeffs):
        if any(power != 0 for power, _ in poly.monomials):
            raise SchemaError(f"coeffs[{j}]", "transform-domain stepping needs constant coefficients")
    init = _parse_init(args.init, eq.m, "the coefficient recurrence")
    zeta = fourier_step(eq, init, args.length)
    _emit(_series_table("zeta", zeta.coeffs, args), args.out)
    return 0


def cmd_galois(args) -> int:
    eq = parse_spec(_load_document(args.input))
    if not isinstance(eq, ConstLinearEq):
        raise SchemaError("type", "galois works on const_linear documents")
    roots = galois.char_roots(eq)
    if args.mode == "exact" and not all(r.exact for r in roots) and not args.allow_float_roots:
        raise SchemaError(
            "--mode",
            "equation has non-exact roots; rerun with --mode float or --allow-float-roots",
        )
    report = verify_fundamental(eq, args.length, roots)
    payload = {
        "command": "galois",
        "equation": to_document(eq),
        "order": report.order,
        "dimension": report.dimension,
        "roots": [
            {
                "value": _render(r.value, args.mode, "roots", i),
                "multiplicity": r.multiplicity,
                "exact": r.exact,
            }
            for i, r in enumerate(report.roots)
        ],
        "solutions": [
            [_render(v, args.mode, f"solutions[{j}]", n) for n, v in enumerate(sol)]
            for j, sol in enumerate(report.system.solutions)
        ],
        "wronskian": _render(report.wronskian, args.mode, "wronskian"),
        "wronskian_nonzero": report.wronskian_nonzero,
        "residuals_ok": report.residuals_ok,
        "ok": report.ok,
    }
    _emit(_json_text(payload), args.out)
    return 0 if report.ok else 1


def cmd_corpus(args) -> int:
    report = run_corpus(length=args.length)
    payload = {"command": "corpus", **report}
    _emit(_json_text(payload), args.out)
    return 0 if report["all_pass"] else 1


def cmd_bench(args) -> int:
    sizes = sorted({s for s in (64, 256) if s < args.length} | {args.length})
    rows = bench_star_power(p=args.arity, sizes=tuple(sizes), kernel_cap=args.kernel_cap)
    if args.format == "csv":
        header = ["length", "arity", "convolution_seconds", "kernel_seconds", "kernel_slower"]
        text = _csv_text(header, [[_render(r[k], "exact", k) for k in header] for r in rows])
    else:
        text = _json_text({"command": "bench", "rows": rows})
    _emit(text, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one error line and exit 2, like any other bad input."""

    def error(self, message: str):
        raise SchemaError(self.prog, message)


# Largest --length any command accepts: far above every documented use (the
# largest is bench's default of 512), so a mistyped length is refused at parse time.
MAX_LENGTH = 10_000
# Largest bench --arity: the kernel route recurses p - 1 calls deep, and with
# --kernel-cap 0 the convolution route still runs p - 1 convolutions per
# length, so a huge arity would end in a RecursionError or run unbounded.
# This stays far below the interpreter's recursion limit.
MAX_ARITY = 64
# solve, fourier and corpus run the exact solvers and residual tables, whose
# cost grows about 10x per doubling of L here because the numbers grow with L:
# on one core of a 2-vCPU Xeon VM, z' = z^2 from 1/2 took 23 s (solve) and
# 17 s (fourier) at L = 1600, and corpus about 40 s.
MAX_SOLVE_LENGTH = 1600


def _integer(minimum: int, maximum: int | None = None):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return integer


_INPUT = ("--input", {"required": True, "help": "equation document (JSON)"})
_LENGTH = ("--length", {"type": _integer(0, MAX_LENGTH), "default": 20, "help": "largest lattice index L"})
_SOLVE_LENGTH = ("--length", {**_LENGTH[1], "type": _integer(0, MAX_SOLVE_LENGTH)})
_INIT = ("--init", {"help": "comma-separated initial values, e.g. \"0,1\""})
_FORMAT = ("--format", {"choices": ("csv", "json"), "default": "csv"})
_MODE = ("--mode", {"choices": ("exact", "float"), "default": "exact"})
_OUT = ("--out", {"help": "output path (stdout when omitted)"})

# Each subcommand with its handler and exactly the options that handler reads.
COMMANDS = {
    "discretize": (cmd_discretize, (_INPUT, _OUT)),
    "residual": (cmd_residual, (_INPUT, _LENGTH, _FORMAT, _MODE, _OUT)),
    "solve": (cmd_solve, (_INPUT, _SOLVE_LENGTH, _INIT, _FORMAT, _MODE, _OUT)),
    "fourier": (cmd_fourier, (_INPUT, _SOLVE_LENGTH, _INIT, _FORMAT, _MODE, _OUT)),
    "galois": (cmd_galois, (_INPUT, _LENGTH, _MODE, ("--allow-float-roots", {"action": "store_true"}), _OUT)),
    "corpus": (cmd_corpus, (_SOLVE_LENGTH, _OUT)),
    "bench": (
        cmd_bench,
        (
            ("--length", {**_LENGTH[1], "default": 512}),
            ("--arity", {"type": _integer(1, MAX_ARITY), "default": 3}),
            ("--kernel-cap", {"type": _integer(0), "default": 512, "help": "largest L for the kernel route"}),
            _FORMAT,
            _OUT,
        ),
    ),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one command-line parser, built on first use and shared by every `run` call."""
    parser = _Parser(
        prog="starlattice",
        description="Exact nonlocal discrete analogs of ODEs: build, step, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, spec in options:
            p.add_argument(flag, **spec)
    return parser


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return COMMANDS[args.command][0](args)
    except (StarLatticeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
