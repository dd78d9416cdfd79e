"""The benchmark's layer tracer still binds to the package's functions."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import wy_stability.cli as cli_module
import wy_stability.functional as functional_module
import wy_stability.models as models_module
from wy_stability.cli import RunConfig
from wy_stability.gform import RicciEigs

import reference

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    # by path, and with no bytecode written under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_layer(monkeypatch, tmp_path):
    # a rename in the package would otherwise show only when a traced
    # benchmark run fails
    tracer_module = load_tracer(monkeypatch)
    modules = [importlib.import_module(f"{tracer_module.PACKAGE}.{m}") for m in tracer_module.MODULES]
    names = {fn for _, fn in tracer_module.TRACED}
    before = [(mod, fn, getattr(mod, fn, None)) for mod in modules for fn in names]
    cli_module._grid_basis.cache_clear()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        base = RunConfig(n_theta=13, n_phi=26, ltrunc=12, witness=str(tmp_path / "w.json"))
        for command, extra in (("scan", {}), ("gform", {"directions": 2}), ("counterexample", {})):
            cli_module.run(replace(base, command=command, **extra))
        _, basis = cli_module._grid_basis(13, 26, 12)
        H = models_module.h_family(RicciEigs(np.array([1.0, 1.0, -2.0])), 1.0 / 30.0, 1e-2, basis.grid)
        pencil = reference.assembled(basis, [H])[0]
        for restrict in (False, True):
            functional_module.min_pencil_eigenvalue(pencil, restrict=restrict)
        summary = tracer.summarize()
    finally:
        tracer.remove()
    for layer in (
        "functional.assemble_pencil",
        "models.h_family",
        "gform.minimize_G",
        "gform.g_quadratic",
        "models.negative_direction",
        "functional.eval_F",
        "gform.optimal_eta2",
        "functional.min_pencil_eigenvalue",
        "harmonics.build_basis",
    ):
        assert summary[f"{layer}.calls"] > 0, layer
    # the counters read pencil.M, pencil.degrees and the basis tables
    assert summary["functional.min_pencil_eigenvalue.calls"] == 2
    for count in tracer_module.COUNTS:
        assert summary[count] > 0, count
    assert all(getattr(mod, fn, None) is original for mod, fn, original in before)
