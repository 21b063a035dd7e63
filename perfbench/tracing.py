"""Span tracer for the traced benchmark run.

The package binds names with ``from .x import y``, so a function has one
binding per importing module (``odes.star_power``, ``cli.lin_step``, ...).
`Tracer.install` replaces every binding of each traced function in every
``starlattice`` module, and ``CorpusCase.residual_table`` on the class;
`uninstall` puts the originals back. Nothing under ``src/`` changes.

A span is recorded only while an operation is current (``tracer.op`` is
set), so known-answer checks run outside any span. Spans stay in memory
as lists ``[name, start, end, tax, parent, op, raised, entries, bits]``;
``tax`` is the tracer's own bookkeeping time around the call, which is
charged to neither the span nor its parent's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

TRACED = (
    "cli.run",
    "specio.parse_spec",
    "specio.parse_solution",
    "transforms.forward_transform",
    "transforms.inverse_transform",
    "transforms.taylor_to_lattice",
    "series.mul_trunc",
    "star.star_power",
    "star.monomial_star",
    "odes.delta_power",
    "odes.lin_residual",
    "odes.nonlin_residual",
    "odes.lin_residuals",
    "odes.nonlin_residuals",
    "odes.lin_step",
    "odes.nonlin_step",
    "fourier.fourier_step",
    "fourier.constrained_convolution",
    "galois.char_roots",
    "galois.map_solution",
    "galois.apply_operator",
    "galois.modified_wronskian",
    "galois.verify_fundamental",
    "galois.build_fundamental_system",
    "corpus.standard_cases",
    "corpus.run_corpus",
    "corpus.CorpusCase.residual_table",
    "floatmode.star_power_convolution",
    "floatmode.lattice_to_newton",
    "floatmode.newton_to_lattice",
)
LAYERS = ("cli", "specio", "transforms", "series", "star", "odes", "fourier", "galois", "corpus", "floatmode")

# Functions whose returned entries count as produced work.
PRODUCERS = ("odes.delta_power", "star.star_power", "star.monomial_star")
# Residual evaluators: entries returned are the useful part of that work.
RESIDUALS = ("odes.lin_residual", "odes.nonlin_residual", "odes.lin_residuals", "odes.nonlin_residuals")
# Largest numerator/denominator bit length of the returned values, by metric.
BITS = {
    "transforms.forward_transform": "transforms.max_bits",
    "transforms.inverse_transform": "transforms.max_bits",
    "transforms.taylor_to_lattice": "transforms.max_bits",
    "star.star_power": "star.star_power.max_bits",
    "odes.lin_step": "odes.lin_step.max_bits",
    "odes.nonlin_step": "odes.nonlin_step.max_bits",
    "fourier.fourier_step": "fourier.fourier_step.max_bits",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{p}.entries_out", "count") for p in PRODUCERS]
    out += [(m, "bits") for m in dict.fromkeys(BITS.values())]
    out.append(("odes.useful_entry_ratio", "ratio"))
    out += [(f"{layer}.raised", "count") for layer in LAYERS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def _max_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import starlattice.cli  # noqa: F401  (loads every traced module)
        from starlattice.corpus import CorpusCase

        originals = {}
        for index, name in enumerate(TRACED):
            module, _, attr = name.partition(".")
            if name == "corpus.CorpusCase.residual_table":
                continue
            originals[id(getattr(sys.modules[f"starlattice.{module}"], attr))] = index
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "starlattice" and not modname.startswith("starlattice."):
                continue
            for attr, value in list(vars(module).items()):
                index = originals.get(id(value))
                if index is None or not callable(value):
                    continue
                if index not in wrappers:
                    wrappers[index] = self._wrap(index, value)
                self._undo.append((module, attr, value))
                setattr(module, attr, wrappers[index])
        method = CorpusCase.__dict__["residual_table"]
        self._undo.append((CorpusCase, "residual_table", method))
        CorpusCase.residual_table = self._wrap(TRACED.index("corpus.CorpusCase.residual_table"), method)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, index: int, fn):
        name = TRACED[index]
        spans, stack = self.spans, self._stack
        producer = name in PRODUCERS
        residual_one = name in ("odes.lin_residual", "odes.nonlin_residual")
        residual_many = name in ("odes.lin_residuals", "odes.nonlin_residuals")
        bits = name in BITS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            span = [index, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                span[1], span[2], span[6] = t0, t1, True
                span[3] = (t0 - t_in) + (perf_counter() - t1)
                raise
            t1 = perf_counter()
            stack.pop()
            if producer:
                # delta_power(z, 0) hands back its input and computes nothing.
                span[7] = 0 if args and result is args[0] else len(result)
            elif residual_one:
                span[7] = 1
            elif residual_many:
                span[7] = len(result)
            if bits:
                span[8] = _max_bits(result)
            span[1], span[2] = t0, t1
            span[3] = (t0 - t_in) + (perf_counter() - t1)
            return result

        return wrapper

    def summarise(self, first: int, last: int) -> dict[str, float]:
        """Per-layer counts and self times of spans[first:last]."""
        spans = self.spans
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        child = {}
        for i in range(first, last):
            s = spans[i]
            if s[4] >= 0:
                child[s[4]] = child.get(s[4], 0.0) + (s[2] - s[1]) + s[3]
        top_residual = {}
        entries = dict.fromkeys(PRODUCERS, 0)
        bits = dict.fromkeys(BITS.values(), 0)
        raised = dict.fromkeys(LAYERS, 0)
        useful = produced = 0
        for i in range(first, last):
            s = spans[i]
            name = TRACED[s[0]]
            calls[s[0]] += 1
            self_s[s[0]] += (s[2] - s[1]) - child.get(i, 0.0)
            parent_top = top_residual.get(s[4], -1) if s[4] >= 0 else -1
            top_residual[i] = parent_top if parent_top >= 0 else (i if name in RESIDUALS else -1)
            if name in RESIDUALS and top_residual[i] == i:
                useful += s[7]
            if name in PRODUCERS:
                entries[name] += s[7]
                if top_residual[i] >= 0:
                    produced += s[7]
            if name in BITS:
                bits[BITS[name]] = max(bits[BITS[name]], s[8])
            layer = name.partition(".")[0]
            if s[6] and (s[4] < 0 or TRACED[spans[s[4]][0]].partition(".")[0] != layer):
                raised[layer] += 1
        out: dict[str, float] = {}
        for index, name in enumerate(TRACED):
            out[f"{name}.calls"] = calls[index]
            out[f"{name}.self_s"] = self_s[index]
        out.update({f"{p}.entries_out": n for p, n in entries.items()})
        out.update(bits)
        out["odes.useful_entry_ratio"] = useful / produced if produced else 0.0
        out.update({f"{layer}.raised": n for layer, n in raised.items()})
        return out

    def write(self, path, ops: list[dict], op_table: list[tuple[int, int]]) -> None:
        """Spans as gzipped JSON lines: a header, the op table, one line per span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op", "raised"]}) + "\n")
            for op_id, doc in op_table:
                fh.write(json.dumps({"op": op_id, "doc": ops[doc]["id"], "command": ops[doc]["command"], "L": ops[doc]["L"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([TRACED[s[0]], round(s[1] - origin, 7), round(s[2] - origin, 7), s[4], s[5], s[6]]) + "\n")
