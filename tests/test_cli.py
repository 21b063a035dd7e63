from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
import test_fixtures as fixture_cases

import starlattice
from starlattice import IndexOutOfRange, RootCertificationError, SchemaError, StarLatticeError, TaylorCoeffs, taylor_to_lattice
from starlattice import cli, galois
from starlattice.cli import run
from starlattice.galois import ConstLinearEq, verify_fundamental
from starlattice.odes import LinearOde, NonlinearOde, lin_step, nonlin_step
from starlattice.rational import format_float, format_rational
from starlattice.specio import parse_solution, parse_spec, to_document

GAUSSIAN_DOC = {"type": "linear", "order": 1, "coeffs": [[[1, "1"]], [[0, "1"]]], "c0": []}
HARMONIC_DOC = {
    "type": "linear",
    "order": 2,
    "coeffs": [[[0, "1"]], [], [[0, "1"]]],
    "c0": [],
}
SQUARE_DOC = {"type": "nonlinear", "m": 1, "coeffs": [[], [], [[0, "1"]]]}
CONST_DOC = {"type": "const_linear", "coeffs": ["1", "0"]}


def write_doc(tmp_path, doc, name="eq.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_spec_gaussian():
    eq = parse_spec(GAUSSIAN_DOC)
    assert isinstance(eq, LinearOde)
    assert eq.order == 1
    assert eq.coeffs[0].monomials == ((1, Fraction(1)),)
    assert eq.coeffs[1].monomials == ((0, Fraction(1)),)
    assert eq.c0.is_zero


def test_parse_spec_square_equation():
    eq = parse_spec(SQUARE_DOC)
    assert isinstance(eq, NonlinearOde)
    assert eq.m == 1 and eq.degree == 2
    assert [poly.monomials for poly in eq.coeffs] == [(), (), ((0, Fraction(1)),)]


def test_parse_spec_const_linear():
    eq = parse_spec(CONST_DOC)
    assert isinstance(eq, ConstLinearEq)
    assert eq.order == 2


def test_parse_spec_rejects_empty_leading():
    bad = {"type": "linear", "order": 1, "coeffs": [[[0, "1"]], []], "c0": []}
    with pytest.raises(SchemaError) as err:
        parse_spec(bad)
    assert "coeffs[1]" in str(err.value)


def test_parse_spec_rejects_bad_rational():
    bad = {"type": "const_linear", "coeffs": ["1", "2.5"]}
    with pytest.raises(SchemaError) as err:
        parse_spec(bad)
    assert "coeffs[1]" in str(err.value)
    # The first bad entry of a list is named, whatever makes it bad and whatever follows it.
    for values, message in (
        (["1", "2", "3/0", "x"], "solution.taylor[2]: zero denominator: '3/0'"),
        (["1", 2, "x"], 'solution.taylor[1]: rationals must be strings like "p/q"'),
        (["1/2", "1/3", "1_0"], "solution.taylor[2]: not a rational literal: '1_0'"),
    ):
        with pytest.raises(SchemaError) as err:
            parse_solution({"solution": {"taylor": values}})
        assert str(err.value) == message
    with pytest.raises(SchemaError) as err:
        parse_spec({"type": "const_linear", "coeffs": ["1", "-2/4", None]})
    assert str(err.value) == 'coeffs[2]: rationals must be strings like "p/q"'


def test_parse_spec_rejects_unknown_field():
    bad = dict(CONST_DOC, extra=1)
    with pytest.raises(SchemaError):
        parse_spec(bad)


def test_round_trip_identity():
    for doc in (GAUSSIAN_DOC, HARMONIC_DOC, SQUARE_DOC, CONST_DOC):
        eq = parse_spec(doc)
        again = parse_spec(to_document(eq))
        assert again == eq
        assert to_document(again) == to_document(eq)


def test_parse_solution_block():
    doc = dict(GAUSSIAN_DOC, solution={"taylor": ["1", "0", "-1/2"]})
    kind, values = parse_solution(doc)
    assert kind == "taylor"
    assert values == (1, 0, Fraction(-1, 2))
    assert parse_solution(GAUSSIAN_DOC) is None


def test_cli_solve_harmonic(tmp_path, capsys):
    path = write_doc(tmp_path, HARMONIC_DOC)
    code = run(["solve", "--input", path, "--init", "0,1", "--length", "10"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,z"
    zs = [line.split(",")[1] for line in lines[1:]]
    assert zs[:6] == ["0", "1", "2", "2", "0", "-4"]


def test_cli_solve_missing_init(tmp_path, capsys):
    path = write_doc(tmp_path, HARMONIC_DOC)
    code = run(["solve", "--input", path, "--length", "6"])
    assert code == 2


def test_cli_residual_pass_and_fail(tmp_path, capsys):
    # exact solution: exp(-t^2/2) for z' + t z = 0 needs all coefficients;
    # use the square equation with the all-ones series instead.
    doc = dict(SQUARE_DOC, solution={"taylor": ["1"] * 20})
    path = write_doc(tmp_path, doc)
    assert run(["residual", "--input", path, "--length", "12"]) == 0
    capsys.readouterr()
    bad = dict(SQUARE_DOC, solution={"taylor": ["1", "2", "1"]})
    path = write_doc(tmp_path, bad, "bad.json")
    assert run(["residual", "--input", path, "--length", "2"]) == 1


def test_cli_fourier_square(tmp_path, capsys):
    path = write_doc(tmp_path, SQUARE_DOC)
    code = run(["fourier", "--input", path, "--init", "1", "--length", "8"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,zeta"
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_cli_galois_json(tmp_path):
    path = write_doc(tmp_path, CONST_DOC)
    out_path = tmp_path / "galois.json"
    code = run(["galois", "--input", path, "--length", "12", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True
    assert payload["order"] == 2
    assert len(payload["solutions"]) == 2
    assert payload["wronskian"] != "0"


def test_cli_galois_rejects_csv(tmp_path, capsys):
    path = write_doc(tmp_path, CONST_DOC)
    assert run(["galois", "--input", path, "--format", "csv"]) == 2


def test_cli_discretize_harmonic(tmp_path):
    path = write_doc(tmp_path, HARMONIC_DOC)
    out_path = tmp_path / "d.json"
    assert run(["discretize", "--input", path, "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["local_stencil"] == ["1", "-2", "2"]
    assert payload["nonlocal"] is False
    assert parse_spec(payload["equation"]) == parse_spec(HARMONIC_DOC)


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"type": "nonlinear", "m": True, "coeffs": [[], [], [[0, "1"]]]}, "m"),
        (dict(HARMONIC_DOC, order=True), "order"),
        ({"type": "nonlinear", "m": 1, "coeffs": [[], [], [[True, "1"]]]}, "coeffs[2][0][0]"),
        (dict(HARMONIC_DOC, coeffs=[[[0, "1"]], [[False, "1"]], [[0, "1"]]]), "coeffs[1][0][0]"),
    ],
)
def test_cli_refuses_json_booleans_where_the_schema_wants_an_integer(tmp_path, capsys, doc, path):
    # bool is an int in Python; echoing "m": true back would break parse -> serialize -> parse.
    code = run(["discretize", "--input", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ")


def test_cli_discretize_gaussian_nonlocal(tmp_path):
    path = write_doc(tmp_path, GAUSSIAN_DOC)
    out_path = tmp_path / "d.json"
    assert run(["discretize", "--input", path, "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["local_stencil"] is None
    assert payload["nonlocal"] is True


def test_cli_corpus_runs_and_passes(tmp_path):
    out_path = tmp_path / "report.json"
    assert run(["corpus", "--length", "8", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["all_pass"] is True


def test_cli_determinism(tmp_path):
    path = write_doc(tmp_path, HARMONIC_DOC)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["solve", "--input", path, "--init", "0,1", "--length", "12", "--out", str(a)])
    run(["solve", "--input", path, "--init", "0,1", "--length", "12", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    run(["corpus", "--length", "6", "--out", str(ra)])
    run(["corpus", "--length", "6", "--out", str(rb)])
    assert ra.read_bytes() == rb.read_bytes()


def test_cli_float_mode_rendering(tmp_path, capsys):
    path = write_doc(tmp_path, HARMONIC_DOC)
    code = run(["solve", "--input", path, "--init", "0,1", "--length", "4", "--mode", "float"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[1] == "0,0"


def test_cli_usage_error_on_bad_file(tmp_path, capsys):
    assert run(["solve", "--input", str(tmp_path / "missing.json"), "--init", "1"]) == 2


def test_cli_galois_float_root_gate(tmp_path, capsys):
    # x^3 - x - 1 has no rational or quadratic-surd roots
    doc = {"type": "const_linear", "coeffs": ["-1", "-1", "0"]}
    path = write_doc(tmp_path, doc)
    assert run(["galois", "--input", path, "--length", "10"]) == 2
    capsys.readouterr()
    assert run(["galois", "--input", path, "--length", "10", "--allow-float-roots"]) == 0
    capsys.readouterr()
    assert run(["galois", "--input", path, "--length", "10", "--mode", "float"]) == 0


def test_cli_bench_small(tmp_path):
    out_path = tmp_path / "bench.csv"
    code = run(
        ["bench", "--length", "32", "--arity", "2", "--kernel-cap", "32", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("length,arity,convolution_seconds")
    assert len(lines) == 2


def assert_one_line_usage_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_galois_failed_root_certification(tmp_path, capsys):
    # x^20 - 20000x^2 + 400x - 2 = x^20 - 2(100x - 1)^2 (Mignotte): two simple
    # roots 1/100 +- 7e-23 lie far closer together than the doubles there,
    # 1.7e-18 apart, so no two centres have disjoint Smith discs. (At degree 12
    # the pair lies 1.4e-14 apart, and the exact refinement separates it.)
    doc = {"type": "const_linear", "coeffs": ["-2", "400", "-20000"] + ["0"] * 17}
    path = write_doc(tmp_path, doc)
    with pytest.raises(RootCertificationError) as err:
        galois.char_roots(parse_spec(doc))
    assert isinstance(err.value, StarLatticeError)
    code = run(["galois", "--input", path, "--length", "70", "--allow-float-roots"])
    assert_one_line_usage_error(code, capsys)


def test_cli_galois_certifies_a_degree_64_operator(tmp_path):
    # x^64 - 10^6 x - 10^6: 64 well-separated simple roots, 62 of them near
    # |x| = 1.25, where |p'| is about 5e7, so |p| at the nearest doubles reaches
    # 1e-8 and no absolute residual bound near 1e-12 holds; the Smith discs
    # prove one root each.
    doc = {"type": "const_linear", "coeffs": ["-1000000", "-1000000"] + ["0"] * 62}
    start = time.perf_counter()
    roots = galois.char_roots(parse_spec(doc))
    assert time.perf_counter() - start < 1.0
    assert len(roots) == 64 and not any(r.exact for r in roots)
    assert sum(r.value.imag == 0 for r in roots) == 2  # a convex x^64 meets the line 10^6 (x + 1) twice
    path = write_doc(tmp_path, doc)
    out_path = tmp_path / "g.json"
    assert run(["galois", "--input", path, "--length", "70", "--mode", "float", "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["ok"] is True


def test_cli_rejects_negative_length(tmp_path, capsys):
    doc = dict(SQUARE_DOC, solution={"taylor": ["1"] * 5})
    path = write_doc(tmp_path, doc)
    assert_one_line_usage_error(run(["residual", "--input", path, "--length", "-2"]), capsys)


def test_cli_galois_length_shorter_than_order(tmp_path, capsys):
    # Order 2 needs solution entries 0..1 for the modified Wronskian.
    path = write_doc(tmp_path, CONST_DOC)
    assert_one_line_usage_error(run(["galois", "--input", path, "--length", "0"]), capsys)


def test_cli_galois_length_equal_to_order_minus_one(tmp_path, capsys):
    # At L = order - 1 the operator reads no index at all, so nothing would be checked.
    path = write_doc(tmp_path, CONST_DOC)
    assert_one_line_usage_error(run(["galois", "--input", path, "--length", "1"]), capsys)
    assert capsys.readouterr().out == ""
    assert run(["galois", "--input", path, "--length", "2", "--out", str(tmp_path / "g.json")]) == 0
    assert json.loads((tmp_path / "g.json").read_text())["residuals_ok"] is True
    with pytest.raises(IndexOutOfRange, match=r"^length L=2 leaves no operator index to check"):
        verify_fundamental(ConstLinearEq((Fraction(2), Fraction(-2), Fraction(-1))), 2)


def test_cli_residual_short_lattice_solution(tmp_path, capsys):
    # z'' + z = 0 up to n = 10 needs lattice entries 0..12.
    for values in (["5", "7"], ["0", "1", "2", "2", "0", "-4", "-8", "-8", "0", "16", "32", "32"]):
        path = write_doc(tmp_path, dict(HARMONIC_DOC, solution={"lattice": values}))
        assert_one_line_usage_error(run(["residual", "--input", path, "--length", "10"]), capsys)
    values = ["0", "1", "2", "2", "0", "-4", "-8", "-8", "0", "16", "32", "32", "0"]
    path = write_doc(tmp_path, dict(HARMONIC_DOC, solution={"lattice": values}))
    assert run(["residual", "--input", path, "--length", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 12


def test_cli_rejects_zero_arity(capsys):
    assert_one_line_usage_error(run(["bench", "--arity", "0", "--length", "8"]), capsys)


@pytest.mark.parametrize(
    "argv",
    [
        # options a command does not read: each was once accepted and ignored
        ["discretize", "--input", "{doc}", "--length", "5"],
        ["discretize", "--input", "{doc}", "--format", "json"],
        ["discretize", "--input", "{doc}", "--mode", "float"],
        ["galois", "--input", "{doc}", "--format", "json"],
        ["corpus", "--length", "4", "--format", "json"],
        ["corpus", "--length", "4", "--mode", "float"],
        ["bench", "--length", "8", "--kernel-cap", "8", "--mode", "exact"],
        # lengths above the bound are refused before any work starts
        ["solve", "--input", "{doc}", "--init", "1", "--length", "100000000"],
        ["corpus", "--length", str(cli.MAX_LENGTH + 1)],
        ["bench", "--length", str(cli.MAX_LENGTH + 1)],
        # the exact solvers have their own, lower bound
        ["solve", "--input", "{doc}", "--init", "1/2", "--length", str(cli.MAX_SOLVE_LENGTH + 1)],
        ["fourier", "--input", "{doc}", "--init", "1/2", "--length", str(cli.MAX_SOLVE_LENGTH + 1)],
        ["corpus", "--length", str(cli.MAX_SOLVE_LENGTH + 1)],
        # the kernel route recurses arity - 1 deep, so a huge arity is refused too
        ["bench", "--length", "2", "--arity", str(cli.MAX_ARITY + 1)],
        # a negative cap once ran with exit 0 and silently skipped the kernel route
        ["bench", "--length", "8", "--kernel-cap", "-1"],
    ],
)
def test_cli_refuses_bad_option_in_one_line(tmp_path, capsys, argv):
    path = write_doc(tmp_path, SQUARE_DOC)
    assert_one_line_usage_error(run([path if a == "{doc}" else a for a in argv]), capsys)


T_DEPENDENT_DOC = {"type": "nonlinear", "m": 1, "coeffs": [[], [[1, "1"]], [[0, "1"]]]}  # z' = t z + z^2


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        # Without its check, fourier would print the stream of z' = z^2 and exit 0.
        (T_DEPENDENT_DOC, ["fourier", "--init", "1"], "coeffs[1]: transform-domain stepping needs constant coefficients"),
        (
            {"type": "nonlinear", "m": 1, "coeffs": [[[0, "1"], [2, "1/3"]], [], [[0, "1"]]]},
            ["fourier", "--init", "1"],
            "coeffs[0]: transform-domain stepping needs constant coefficients",
        ),
        # The document is refused before --init is read.
        (T_DEPENDENT_DOC, ["fourier"], "coeffs[1]: transform-domain stepping needs constant coefficients"),
        (CONST_DOC, ["fourier", "--init", "1"], "type: fourier works on constant-coefficient nonlinear documents"),
        (HARMONIC_DOC, ["galois"], "type: galois works on const_linear documents"),
        (CONST_DOC, ["solve", "--init", "1,0"], "type: solve works on linear/nonlinear documents"),
        (dict(CONST_DOC, solution={"lattice": ["1", "0", "-1"]}), ["residual"], "type: residual works on linear/nonlinear documents"),
        (SQUARE_DOC, ["residual"], "solution: residual verification needs a solution block"),
        (HARMONIC_DOC, ["solve", "--init", "1"], "--init: expected 2 values, got 1"),
    ],
    ids=[
        "fourier-t-coeff",
        "fourier-t-in-a0",
        "fourier-t-before-init",
        "fourier-type",
        "galois-type",
        "solve-type",
        "residual-type",
        "residual-no-solution",
        "solve-init-count",
    ],
)
def test_cli_refuses_a_document_the_command_cannot_read(tmp_path, capsys, doc, argv, message):
    path = write_doc(tmp_path, doc)
    code = run([argv[0], "--input", path, "--length", "4", *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert capsys.readouterr().out == ""


def test_cli_accepts_length_at_the_bound():
    for argv, bound in (
        (["solve", "--input", "eq.json"], cli.MAX_SOLVE_LENGTH),
        (["fourier", "--input", "eq.json"], cli.MAX_SOLVE_LENGTH),
        (["residual", "--input", "eq.json"], cli.MAX_LENGTH),
        (["corpus"], cli.MAX_SOLVE_LENGTH),
    ):
        assert cli._parser().parse_args(argv + ["--length", str(bound)]).length == bound
    assert cli._parser().parse_args(["bench", "--arity", str(cli.MAX_ARITY)]).arity == cli.MAX_ARITY


def test_cli_runs_share_one_parser_without_leaking_options(tmp_path, capsys):
    path = write_doc(tmp_path, SQUARE_DOC)
    assert run(["solve", "--input", path, "--init", "1/2", "--length", "2", "--mode", "float"]) == 0
    assert capsys.readouterr().out == "n,z\n0,0.5\n1,0.75\n2,1.25\n"
    assert run(["solve", "--input", path, "--init", "1/2", "--length", "2"]) == 0
    assert capsys.readouterr().out == "n,z\n0,1/2\n1,3/4\n2,5/4\n"
    assert cli._parser.cache_info().misses == 1


def test_cli_corpus_shorter_than_build_check(tmp_path):
    for length in range(4):
        out_path = tmp_path / f"report{length}.json"
        assert run(["corpus", "--length", str(length), "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["all_pass"] is True


def test_cli_galois_finds_roots_once(tmp_path, monkeypatch):
    calls = {"char_roots": 0, "map_solution": 0}

    def counting(name):
        original = getattr(galois, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(galois, name, counting(name))
    path = write_doc(tmp_path, CONST_DOC)
    assert run(["galois", "--input", path, "--length", "12", "--out", str(tmp_path / "g.json")]) == 0
    assert calls == {"char_roots": 1, "map_solution": 2}


def test_cli_module_entry_point(tmp_path):
    path = write_doc(tmp_path, HARMONIC_DOC)
    env = dict(os.environ, PYTHONPATH=str(Path(starlattice.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "starlattice.cli", "solve", "--input", path, "--init", "0,1", "--length", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == "n,z\n0,0\n1,1\n2,2\n3,2\n"


def test_cli_fourier_length_shorter_than_the_initial_coefficients(tmp_path, capsys):
    path = write_doc(tmp_path, {"type": "nonlinear", "m": 2, "coeffs": [[], [[0, "1"]], [[0, "1"]]]})
    code = run(["fourier", "--input", path, "--length", "0", "--init=1,2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: length L=0 shorter than the 2 initial coefficients\n"
    assert run(["fourier", "--input", path, "--length", "1", "--init=1,2"]) == 0
    assert capsys.readouterr().out == "n,zeta\n0,1\n1,2\n"


def test_cli_galois_large_constant_finishes(tmp_path):
    # x^3 - (10^16 + 1): the divisor search of the rational root theorem took
    # 15.7 s here; every rational root is one of the Aberth approximations.
    # It now takes about 0.2 s; the bound leaves room for a loaded machine.
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": ["-10000000000000001", "0", "0"]})
    out_path = tmp_path / "g.json"
    start = time.perf_counter()
    assert run(["galois", "--input", path, "--length", "4", "--allow-float-roots", "--out", str(out_path)]) == 0
    assert time.perf_counter() - start < 5.0
    report = json.loads(out_path.read_text())
    assert report["ok"] is True and not any(root["exact"] for root in report["roots"])


def test_cli_galois_roots_far_apart_in_size_have_a_nonzero_wronskian(tmp_path):
    # x^3 + 10^30 x^2 - 1: roots near -10^30 and +-10^-15, certified distinct.
    # The Wronskian from the columns cancelled to zero and the run exited 1.
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": ["-1", "0", "1000000000000000000000000000000"]})
    out_path = tmp_path / "g.json"
    assert run(["galois", "--input", path, "--length", "4", "--allow-float-roots", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["wronskian_nonzero"] is True and report["residuals_ok"] is True
    assert abs(complex(*map(float, report["wronskian"]))) == pytest.approx(2e45, rel=1e-9)


def test_cli_galois_wronskian_beyond_the_double_range_is_refused(tmp_path, capsys):
    # x^4 - 10^240 - 1: float roots of modulus about 10^60, so the columns up to
    # n = 4 stay below 10^241 while the product of the six root differences is near 10^361.
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": [str(-(10**240) - 1), "0", "0", "0"]})
    code = run(["galois", "--input", path, "--length", "4", "--allow-float-roots"])
    assert capsys.readouterr().err == "error: the modified Wronskian leaves the double range\n"
    assert code == 2


def test_cli_galois_surds_of_two_fields_beyond_the_double_range_are_refused(tmp_path, capsys):
    # (x^2 + 10^400 x + 1)(x^2 + x + 2)^2: two surd fields, so the Wronskian is
    # taken in complex numbers, and sqrt(10^800 - 4) has no double. Converting
    # it raised OverflowError, a traceback with exit 1.
    big = 10**400
    quadratic, square = [1, big, 1], [4, 4, 5, 2, 1]  # (x^2 + x + 2)^2
    poly = [sum(quadratic[i] * square[k - i] for i in range(3) if 0 <= k - i < 5) for k in range(7)]
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": [str(c) for c in poly[:-1]]})
    code = run(["galois", "--input", path, "--length", "6"])
    assert capsys.readouterr().err == "error: an exact value leaves the double range when converted to complex\n"
    assert code == 2


def test_cli_galois_wronskian_below_the_double_range_is_refused(tmp_path, capsys):
    # x^12 - 10^-300: twelve float roots of modulus 10^-25, certified distinct,
    # whose 66 differences multiply to about 10^-1650. The product underflowed
    # to 0.0 and the run exited 1 with "wronskian": null.
    coeffs = [format_rational(Fraction(-1, 10**300))] + ["0"] * 11
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": coeffs})
    code = run(["galois", "--input", path, "--length", "12", "--allow-float-roots"])
    assert capsys.readouterr().err == "error: the modified Wronskian leaves the double range\n"
    assert code == 2


def test_cli_galois_exact_roots_equal_as_doubles_are_refused(tmp_path, capsys):
    # ((x - 1)^2 - 2/10^60)(x^2 - 3)^2: two surd fields, so the Wronskian is
    # taken in complex numbers, where 1 +- 10^-30 sqrt(2) are both 1.0. The
    # product was 0 and the run exited 1, a verification failure that is not one.
    quadratic, square = [1 - Fraction(2, 10**60), -2, 1], [9, 0, -6, 0, 1]  # (x^2 - 3)^2
    poly = [sum(quadratic[i] * square[k - i] for i in range(3) if 0 <= k - i < 5) for k in range(7)]
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": [format_rational(c) for c in poly[:-1]]})
    code = run(["galois", "--input", path, "--length", "8"])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1
    assert err.endswith(" are equal as doubles, so the complex Wronskian is lost\n")


def test_cli_galois_rational_roots_closer_than_the_doubles_are_refused(tmp_path, capsys):
    # (x - 1/3)(x - 1/3 - 10^-30)(x^2 + x + 2)
    third = Fraction(1, 3)
    s, p = 2 * third + Fraction(1, 10**30), third * (third + Fraction(1, 10**30))  # x^2 - s x + p
    coeffs = [2 * p, p - 2 * s, 2 - s + p, 1 - s]
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": [format_rational(v) for v in coeffs]})
    start = time.perf_counter()
    code = run(["galois", "--input", path, "--length", "8", "--allow-float-roots"])
    assert time.perf_counter() - start < 5.0
    assert_one_line_usage_error(code, capsys)


def test_cli_galois_rational_root_next_to_a_surd_pair_beyond_the_double_range(tmp_path):
    # (x - 1)(x^2 + 10^400 x + 1): the root 1 is exact, the other two are the
    # sqrt(10^800 - 4) pair. Ordering them converted the surds to doubles and
    # raised OverflowError, a traceback.
    big = 10**400
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": ["-1", str(1 - big), str(big - 1)]})
    out_path = tmp_path / "g.json"
    assert run(["galois", "--input", path, "--length", "4", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["ok"] is True and all(root["exact"] for root in report["roots"])
    assert report["roots"][0]["value"] == "1"


def test_cli_galois_float_columns_pass_a_relative_bound(tmp_path):
    # x^4 + x^3 + 3x^2 - 2x + 2 has only float roots, and two of its columns
    # grow like |1 + root|^n: an absolute residual bound failed them at L = 30.
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": ["2", "-2", "3", "1"]})
    for length in (20, 30, 200):
        out_path = tmp_path / f"g{length}.json"
        argv = ["galois", "--input", path, "--length", str(length), "--allow-float-roots", "--out", str(out_path)]
        assert run(argv) == 0
        report = json.loads(out_path.read_text())
        assert report["residuals_ok"] is True and report["ok"] is True


def test_cli_galois_float_column_overflow_is_refused(tmp_path, capsys):
    # x^3 - 10x - 1: its largest root puts |1 + root| near 4.2, so (1 + root)^n
    # leaves the double range at n = 494; complex pow raised OverflowError there.
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": ["-1", "-10", "0"]})
    code = run(["galois", "--input", path, "--length", "600", "--mode", "float"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: float root (3.2111") and captured.err.endswith(" at n=494\n")
    out_path = tmp_path / "g400.json"
    assert run(["galois", "--input", path, "--length", "400", "--mode", "float", "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["residuals_ok"] is True


def test_cli_galois_refuses_float_roots_before_verifying(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the refusal must come before the verification")

    monkeypatch.setattr(cli, "verify_fundamental", forbidden)
    monkeypatch.setattr(galois, "map_solution", forbidden)
    path = write_doc(tmp_path, {"type": "const_linear", "coeffs": ["-1", "-1", "0"]})
    code = run(["galois", "--input", path, "--length", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: --mode: equation has non-exact roots; rerun with --mode float or --allow-float-roots\n"
    )


def test_cli_solve_leaves_out_a_monomial_past_the_requested_length(tmp_path, capsys):
    # t^(10^18) first reaches index 10^18 + 1, so --length 5 prints the stream of the
    # document without it, at once, instead of forming a power E^(10^18).
    plain = {"type": "nonlinear", "m": 1, "coeffs": [[[0, "1/3"]], [[0, "1"]]]}
    high = {"type": "nonlinear", "m": 1, "coeffs": [[[0, "1/3"], [10**18, "1/2"]], [[0, "1"]]]}
    outputs = []
    for doc in (plain, high):
        assert run(["solve", "--input", write_doc(tmp_path, doc), "--length", "5", "--init", "1"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]
    assert outputs[0].err == "" and len(outputs[0].out.splitlines()) == 7


@pytest.mark.parametrize("m", [10**12, 10**19])
def test_cli_taylor_residual_with_a_huge_order_reads_the_prefix_as_zero_beyond(tmp_path, capsys, m):
    # z^(m) = 1 + z on the prefix 1 + 2t + t^2/3: residual n reads b_{n+m}, zero past the
    # prefix, so the table is that of the lattice image at m = 50, where every entry is stored.
    doc = {"type": "nonlinear", "m": m, "coeffs": [[[0, "1"]], [[0, "1"]]], "solution": {"taylor": ["1", "2", "1/3"]}}
    lattice = [str(v) for v in taylor_to_lattice(TaylorCoeffs((1, 2, Fraction(1, 3))), 4 + 50).values]
    outputs = []
    for document in (doc, dict(doc, m=50, solution={"lattice": lattice})):
        code = run(["residual", "--input", write_doc(tmp_path, document), "--length", "4"])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    code, captured = outputs[0]
    assert code == 1 and captured.err == ""
    assert captured.out.splitlines()[-4:] == ["1,-4", "2,-20/3", "3,-10", "4,-14"]


def test_cli_residual_reads_only_the_entries_it_reports(tmp_path, monkeypatch, capsys):
    # Residual n reads z_0..z_{n+order}, so --length L needs the first L+order+1
    # entries of a lattice solution, and b_0..b_{L+order} of a taylor one,
    # however many the document stores.
    seen = []

    def recording(original):
        def wrapper(eq, z):
            seen.append(len(z))
            return original(eq, z)

        return wrapper

    def recording_taylor(original):
        # Hands the series over as an iterable that counts the coefficients drawn from it.
        def wrapper(eq, b, length):
            drawn = []

            class Drawn:
                def __iter__(self):
                    for x in b:
                        drawn.append(x)
                        yield x

            result = original(eq, Drawn(), length)
            seen.append(len(drawn))
            return result

        return wrapper

    monkeypatch.setattr(cli, "lin_residuals", recording(cli.lin_residuals))
    monkeypatch.setattr(cli, "nonlin_residuals", recording(cli.nonlin_residuals))
    monkeypatch.setattr(cli, "taylor_residuals", recording_taylor(cli.taylor_residuals))
    harmonic = [str(v) for v in lin_step(parse_spec(HARMONIC_DOC), (0, 1), 60).values]
    square = [str(v) for v in nonlin_step(parse_spec(SQUARE_DOC), (Fraction(1, 2),), 60).values]
    cosine = [str(Fraction((-1) ** (k // 2), factorial(k)) if k % 2 == 0 else 0) for k in range(61)]
    cases = [
        (dict(HARMONIC_DOC, solution={"lattice": harmonic}), 2),
        (dict(HARMONIC_DOC, solution={"taylor": cosine}), 2),
        (dict(SQUARE_DOC, solution={"lattice": square}), 1),
        (dict(SQUARE_DOC, solution={"lattice": square[:7] + ["1"] * 54}), 1),
        (dict(SQUARE_DOC, solution={"taylor": ["1"] * 61}), 1),
    ]
    for doc, order in cases:
        path = write_doc(tmp_path, doc)
        for length in (0, 5):
            seen.clear()
            code = run(["residual", "--input", path, "--length", str(length)])
            lines = capsys.readouterr().out.splitlines()
            assert seen == [length + order + 1]
            assert code == 0 and len(lines) == length + 2
            assert all(line.endswith(",0") for line in lines[1:])


# ---------------------------------------------------------------- the output boundary

ROOT_3_DOC = {"type": "const_linear", "coeffs": ["-3"]}  # root 3: the entries are 4^n


def _digits(text: str) -> int:
    return len(text.lstrip("-").partition("/")[0])


def test_cli_galois_prints_entries_past_the_int_digit_limit(tmp_path):
    # 4^n has more than 4300 digits from n = 7143 on, where str(int) refuses;
    # 10000 is the cap.
    limit = sys.get_int_max_str_digits()
    out_path = tmp_path / "g.json"
    assert run(["galois", "--input", write_doc(tmp_path, ROOT_3_DOC), "--length", "10000", "--out", str(out_path)]) == 0
    column = json.loads(out_path.read_text())["solutions"][0]
    assert len(column) == 10001 and _digits(column[7200]) > 4300
    assert all(int(Decimal(column[n])) == 4**n for n in (0, 7142, 7143, 7200, 10000))
    assert sys.get_int_max_str_digits() == limit


def test_cli_solve_prints_entries_past_the_int_digit_limit(tmp_path, capsys):
    # z' = 1048583 z^2 from 1/2: entry 537 passes 4300 digits, below the cap of 1600.
    doc = {"type": "nonlinear", "m": 1, "coeffs": [[], [], [[0, "1048583"]]]}
    assert run(["solve", "--input", write_doc(tmp_path, doc), "--init", "1/2", "--length", "700"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(n) for n, _ in rows] == list(range(701))
    assert max(_digits(z) for _, z in rows) > 4300


def test_cli_solution_past_the_int_digit_limit_reads_back(tmp_path, capsys):
    # A 151-digit coefficient makes entries of about 6000 digits by n = 40;
    # residual parses them and finds every residual zero.
    doc = {"type": "nonlinear", "m": 1, "coeffs": [[], [], [[0, "1" + "0" * 149 + "7"]]]}
    assert run(["solve", "--input", write_doc(tmp_path, doc), "--init", "1/2", "--length", "40", "--format", "json"]) == 0
    values = json.loads(capsys.readouterr().out)["z"]
    assert max(_digits(v) for v in values) > 4300
    path = write_doc(tmp_path, dict(doc, solution={"lattice": values}), "solution.json")
    assert run(["residual", "--input", path, "--length", "39"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 41 and all(line.endswith(",0") for line in lines[1:])


def test_cli_refuses_a_literal_beyond_the_digit_cap(tmp_path, capsys):
    digits = "7" * starlattice.rational.MAX_LITERAL_DIGITS
    for coeff, code in ((digits, 0), (digits + "1", 2), ("1/" + digits + "1", 2)):
        path = write_doc(tmp_path, {"type": "const_linear", "coeffs": [coeff]})
        assert run(["discretize", "--input", path, "--out", str(tmp_path / "d.json")]) == code
        if code == 2:
            assert_one_line_usage_error(code, capsys)


@pytest.mark.parametrize(
    "doc, argv, last_length, message",
    [
        # z' = z^2 from 1/2: z_197 passes the double range, where float() raises OverflowError
        (SQUARE_DOC, ["solve", "--init", "1/2"], 196, "error: z[197] leaves the double range"),
        # 4^n passes the double range at n = 512
        (ROOT_3_DOC, ["galois"], 511, "error: solutions[0][512] leaves the double range"),
    ],
)
def test_cli_float_mode_refuses_entries_beyond_the_double_range(tmp_path, capsys, doc, argv, last_length, message):
    argv = [argv[0], "--input", write_doc(tmp_path, doc), *argv[1:], "--mode", "float", "--length"]
    for length in (last_length + 4, 600):
        code = run(argv + [str(length)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(message)
    assert run(argv + [str(last_length)]) == 0
    out = capsys.readouterr().out.lower()
    assert "inf" not in out and "nan" not in out


@pytest.mark.parametrize(
    "text",
    [
        '{"type": "nonlinear", "m": 1%s, "coeffs": [[], [[0, "1"]]]}',
        '{"type": "nonlinear", "m": 1, "coeffs": [[], [[1%s, "1"]]]}',
    ],
    ids=["m", "monomial-power"],
)
def test_cli_refuses_a_json_integer_past_the_int_digit_limit(tmp_path, capsys, text):
    # json.load raises a plain ValueError there; the process-wide limit stays as it is.
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "eq.json"
    path.write_text(text % ("0" * 4999))
    code = run(["discretize", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --input: integer with 5000 digits; JSON integers may have at most {limit}\n"
    assert sys.get_int_max_str_digits() == limit


def test_cli_refuses_a_document_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_bytes(b'{"type": "const_linear", "coeffs": ["\xff"]}')
    code = run(["discretize", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --input: not UTF-8 text (invalid start byte)\n"


def test_cli_refuses_a_document_nested_too_deeply(tmp_path, capsys):
    # The JSON decoder recurses once per bracket and raises RecursionError long before 10^5.
    path = tmp_path / "eq.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = run(["discretize", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --input: JSON nested too deeply\n"


def test_cli_keeps_the_json_decoder_message(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text('{"type": ')
    assert run(["discretize", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: Expecting value: line 1 column 10 (char 9)\n"


@pytest.mark.parametrize("mode", ["--allow-float-roots", "--mode=float"])
def test_cli_galois_repeated_float_root_columns_print_pairs_throughout(tmp_path, mode):
    # (x^3 - 2)^2: the columns of power j = 1 start with a zero, which must print as a pair too.
    out_path = tmp_path / "g.json"
    doc = {"type": "const_linear", "coeffs": ["4", "0", "0", "-4", "0", "0"]}
    assert run(["galois", "--input", write_doc(tmp_path, doc), "--length", "7", mode, "--out", str(out_path)]) == 0
    columns = json.loads(out_path.read_text())["solutions"]
    assert len(columns) == 6 and columns[1][0] == ["0", "0"]
    assert all(isinstance(entry, list) and len(entry) == 2 for column in columns for entry in column)


# ---------------------------------------------------------------- the CSV writer


def assert_csv_text_matches_csv_writer(header, rows):
    """`cli._csv_text` writes what `csv.writer` writes, and no field needs quoting.

    The two differ on one row shape only: a row whose one field is "", which
    `csv.writer` prints as '""'. No table of the CLI has fewer than two columns.
    """
    table = [header, *rows]
    assert all(len(row) >= 2 for row in table)
    fields = ["" if v is None else str(v) for row in table for v in row]
    assert [f for f in fields if any(c in f for c in ',"\r\n')] == []
    reference = io.StringIO()
    csv.writer(reference, lineterminator="\n").writerows(table)
    assert cli._csv_text(header, rows) == reference.getvalue()


CSV_CASES = [
    case for case in fixture_cases.CASES if case[1][0] in ("residual", "solve", "fourier") and "json" not in case[1]
]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("argv, doc", [case[1:3] for case in CSV_CASES], ids=[case[0] for case in CSV_CASES])
def test_csv_text_matches_csv_writer_on_every_fixture_table(monkeypatch, argv, doc, mode):
    tables = []
    csv_text = cli._csv_text
    monkeypatch.setattr(cli, "_csv_text", lambda header, rows: tables.append((header, rows)) or csv_text(header, rows))
    fixture_cases.run_case([*argv, "--mode", mode], doc)
    assert len(tables) == 1
    assert_csv_text_matches_csv_writer(*tables[0])


def test_csv_text_matches_csv_writer_on_a_bench_table():
    header = ["length", "arity", "convolution_seconds", "kernel_seconds", "kernel_slower"]
    rows = [
        [64, 3, format_float(0.00123), format_float(0.5), True],
        [256, 3, format_float(2.5e-05), format_float(1.75), False],
        [512, 3, format_float(0.25), "", ""],
        [1024, 2, format_float(3.0), None, None],
    ]
    assert_csv_text_matches_csv_writer(header, rows)


def test_csv_text_matches_csv_writer_past_the_int_digit_limit():
    # Numerator and denominator of more than 4300 digits each take format_rational's decimal path.
    big = Fraction(-(7**5200), 3**9100)
    values = [format_rational(big), format_rational(1 / big), format_rational(Fraction(big.numerator))]
    assert min(len(part) for part in values[0].lstrip("-").split("/")) > 4300
    floats = [format_float(x) for x in (-1.5e-300, -2.5e200, -7.62939453125e-06)]
    assert all(v.startswith("-") and "e" in v for v in floats)
    table = [[n, v] for n, v in enumerate(values + floats + [format_float(-0.0)])]
    assert_csv_text_matches_csv_writer(["n", "z"], table)


def test_cli_bench_csv_bytes(monkeypatch, capsys):
    # Rows with a skipped kernel route (None) and with bool kernel_slower fields.
    rows = [
        {"length": 8, "arity": 3, "convolution_seconds": 0.00123, "kernel_seconds": 0.5, "kernel_slower": True},
        {"length": 64, "arity": 3, "convolution_seconds": 2.5e-05, "kernel_seconds": 1e-06, "kernel_slower": False},
        {"length": 512, "arity": 3, "convolution_seconds": 0.25, "kernel_seconds": None, "kernel_slower": None},
    ]
    monkeypatch.setattr(cli, "bench_star_power", lambda p, sizes, kernel_cap: rows)
    assert run(["bench", "--length", "8"]) == 0
    assert capsys.readouterr().out == (
        "length,arity,convolution_seconds,kernel_seconds,kernel_slower\n"
        "8,3,0.00123,0.5,True\n"
        "64,3,2.5000000000000001e-05,9.9999999999999995e-07,False\n"
        "512,3,0.25,,\n"
    )


def test_cli_bench_json_bytes(monkeypatch, capsys):
    # json.dumps writes the floats by repr, None as null and the bools as true/false.
    rows = [
        {"length": 8, "arity": 3, "convolution_seconds": 0.00123, "kernel_seconds": 0.5, "kernel_slower": True},
        {"length": 64, "arity": 3, "convolution_seconds": 2.5e-05, "kernel_seconds": 1e-06, "kernel_slower": False},
        {"length": 512, "arity": 3, "convolution_seconds": 0.25, "kernel_seconds": None, "kernel_slower": None},
    ]
    monkeypatch.setattr(cli, "bench_star_power", lambda p, sizes, kernel_cap: rows)
    assert run(["bench", "--length", "8", "--format", "json"]) == 0
    entries = [
        (8, "0.00123", "0.5", "true"),
        (64, "2.5e-05", "1e-06", "false"),
        (512, "0.25", "null", "null"),
    ]
    body = ",\n".join(
        "    {\n"
        '      "arity": 3,\n'
        f'      "convolution_seconds": {conv},\n'
        f'      "kernel_seconds": {kernel},\n'
        f'      "kernel_slower": {slower},\n'
        f'      "length": {length}\n'
        "    }"
        for length, conv, kernel, slower in entries
    )
    assert capsys.readouterr().out == '{\n  "command": "bench",\n  "rows": [\n' + body + "\n  ]\n}\n"
