"""Equation document schema: parsing and canonical serialization.

Documents are plain JSON objects:

    {"type": "linear", "order": N, "coeffs": [a_0.., a_N], "c0": [[r, "g"], ...]}
    {"type": "nonlinear", "m": m, "coeffs": [a_0.., a_N]}
    {"type": "const_linear", "coeffs": ["a_0", ..., "a_{N-1}"]}

where each a_j is a list of monomials [power, "p/q"]. An optional top-level
"solution" block carries {"taylor": [...]} or {"lattice": [...]} values for
residual verification. parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SchemaError
from .galois import ConstLinearEq
from .odes import LinearOde, NonlinearOde, PolyCoeff
from .rational import format_rational, parse_rational

Equation = LinearOde | NonlinearOde | ConstLinearEq


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _is_integer(value) -> bool:
    """A JSON integer; true and false are refused although `bool` is an `int`."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_rational_at(value, path: str, index: int | None = None) -> Fraction:
    """One rational entry; the label ``path[index]`` is formatted only when the entry is refused."""
    cause = None
    if not isinstance(value, str):
        message = "rationals must be strings like \"p/q\""
    else:
        try:
            return parse_rational(value)
        except Exception as exc:
            message, cause = str(exc), exc
    raise SchemaError(path if index is None else f"{path}[{index}]", message) from cause


def _parse_rationals(values: list, path: str) -> tuple[Fraction, ...]:
    return tuple(_parse_rational_at(v, path, i) for i, v in enumerate(values))


def _parse_poly(value, path: str) -> PolyCoeff:
    _require(isinstance(value, list), path, "coefficient must be a list of [power, \"p/q\"]")
    pairs = []
    seen = set()
    for idx, mono in enumerate(value):
        mpath = f"{path}[{idx}]"
        _require(isinstance(mono, list) and len(mono) == 2, mpath, "monomial must be [power, \"p/q\"]")
        power, coeff = mono
        _require(_is_integer(power) and power >= 0, f"{mpath}[0]", "power must be a nonnegative integer")
        _require(power not in seen, f"{mpath}[0]", f"duplicate power {power}")
        seen.add(power)
        pairs.append((power, _parse_rational_at(coeff, f"{mpath}[1]")))
    return PolyCoeff(tuple(sorted(pairs)))


def parse_solution(document: dict) -> tuple[str, tuple[Fraction, ...]] | None:
    """Extract the optional solution block as (kind, values)."""
    if "solution" not in document:
        return None
    block = document["solution"]
    _require(isinstance(block, dict), "solution", "must be an object")
    keys = set(block)
    _require(keys in ({"taylor"}, {"lattice"}), "solution", "must have exactly one of: taylor, lattice")
    kind = next(iter(keys))
    values = block[kind]
    _require(isinstance(values, list) and values, f"solution.{kind}", "must be a nonempty list")
    return kind, _parse_rationals(values, f"solution.{kind}")


def parse_spec(document) -> Equation:
    """Validate a document and build the equation object."""
    _require(isinstance(document, dict), "$", "document must be a JSON object")
    kind = document.get("type")
    _require(
        kind in ("linear", "nonlinear", "const_linear"),
        "type",
        "must be one of: linear, nonlinear, const_linear",
    )
    allowed = {
        "linear": {"type", "order", "coeffs", "c0", "solution"},
        "nonlinear": {"type", "m", "coeffs", "solution"},
        "const_linear": {"type", "coeffs", "solution"},
    }[kind]
    for key in document:
        _require(key in allowed, key, f"unknown field for type {kind}")

    if kind == "const_linear":
        coeffs = document.get("coeffs")
        _require(isinstance(coeffs, list) and coeffs, "coeffs", "must be a nonempty list")
        return ConstLinearEq(_parse_rationals(coeffs, "coeffs"))

    coeffs = document.get("coeffs")
    _require(isinstance(coeffs, list) and len(coeffs) >= 2, "coeffs", "must list a_0..a_N, N >= 1")
    polys = tuple(_parse_poly(c, f"coeffs[{i}]") for i, c in enumerate(coeffs))
    _require(not polys[-1].is_zero, f"coeffs[{len(polys) - 1}]", "leading coefficient a_N must be nonzero")

    if kind == "linear":
        order = document.get("order")
        _require(_is_integer(order) and order >= 1, "order", "must be a positive integer")
        _require(order == len(polys) - 1, "order", f"order {order} does not match {len(polys) - 1} from coeffs")
        c0 = _parse_poly(document.get("c0", []), "c0")
        return LinearOde(polys, c0)

    m = document.get("m")
    _require(_is_integer(m) and m >= 1, "m", "must be a positive integer")
    return NonlinearOde(m, polys)


def to_document(eq: Equation) -> dict:
    """Canonical serialization; inverse of parse_spec on equation fields."""
    if isinstance(eq, ConstLinearEq):
        return {"type": "const_linear", "coeffs": [format_rational(v) for v in eq.a]}
    coeffs = [[[p, format_rational(c)] for p, c in poly.monomials] for poly in eq.coeffs]
    if isinstance(eq, LinearOde):
        return {
            "type": "linear",
            "order": eq.order,
            "coeffs": coeffs,
            "c0": [[p, format_rational(c)] for p, c in eq.c0.monomials],
        }
    return {"type": "nonlinear", "m": eq.m, "coeffs": coeffs}
