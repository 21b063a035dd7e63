"""The benchmark tracer still finds and restores every name it traces.

`perfbench/tracing.py` replaces each traced function in every module that
binds it and raises `AttributeError` on a name that no longer exists, so a
refactor that renames or drops a traced function would otherwise fail only
in a traced benchmark run. The tracer is loaded from its file, read-only.
The float route's Newton maps, traced under `floatmode` names, must stay
the shared `transforms` functions.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import starlattice.cli  # noqa: F401  (loads every traced module)
from starlattice import floatmode, transforms
from starlattice.corpus import CorpusCase

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_replaces_and_restores_every_traced_binding():
    tracing = load_tracing()
    modules = {name: m for name, m in sys.modules.items() if name == "starlattice" or name.startswith("starlattice.")}
    traced = {}
    for name in tracing.TRACED:
        if name == "corpus.CorpusCase.residual_table":
            continue
        module, _, attr = name.partition(".")
        function = getattr(modules[f"starlattice.{module}"], attr)
        traced[id(function)] = function
    bindings = [(m, attr, value) for m in modules.values() for attr, value in vars(m).items() if traced.get(id(value)) is value]
    assert {id(value) for _, _, value in bindings} == set(traced)
    method = CorpusCase.__dict__["residual_table"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, value in bindings:
            assert getattr(module, attr) is not value
        assert CorpusCase.__dict__["residual_table"] is not method
    finally:
        tracer.uninstall()
    for module, attr, value in bindings:
        assert getattr(module, attr) is value
    assert CorpusCase.__dict__["residual_table"] is method


def test_float_route_traces_the_shared_newton_maps():
    """The traced float Newton maps are the `transforms` maps every exact path runs, not float-only copies."""
    assert floatmode.lattice_to_newton is transforms.lattice_to_newton
    assert floatmode.newton_to_lattice is transforms.newton_to_lattice
