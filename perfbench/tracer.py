"""Outside-in span tracer for the wy_stability layers.

The tracer wraps public functions of the package from outside it.  The
package's modules bind each other's functions with ``from .x import
name``, so a wrapper is installed on every module attribute that holds
the original function, not only in the defining module.

Each call records a span ``(name, start, end, parent, report, self_s)``
in memory; ``parent`` is the index of the enclosing span and ``report``
numbers the outermost ``cli.run`` call it belongs to.  Self time is the
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

PACKAGE = "wy_stability"

# (module, function): the layer boundaries the benchmark traces
TRACED = (
    ("quad", "build_grid"),
    ("harmonics", "build_basis"),
    ("harmonics", "synthesize"),
    ("harmonics", "gradient_dot"),
    ("functional", "eval_F"),
    ("functional", "assemble_pencil"),
    ("functional", "min_pencil_eigenvalue"),
    ("gform", "minimize_G"),
    ("gform", "optimal_eta2"),
    ("gform", "g_quadratic"),
    ("models", "negative_direction"),
    ("models", "h_family"),
    ("models", "positivity_radius"),
    ("cli", "run"),
    ("cli", "render_json"),
)
MODULES = ("quad", "harmonics", "functional", "gform", "models", "cli")


# Computed counts, derived from array shapes, so they repeat exactly.
# Each takes (args, kwargs, result) and returns the amounts to add to
# each count; table_mb keeps the largest table instead of a sum.


def _pencil_counts(args, kwargs, result):
    basis = args[0]
    n = int((basis.degrees >= 1).sum())
    return {"functional.assemble_pencil.gflop": 6.0 * n * n * basis.grid.n_nodes / 1e9}


def _eigh_counts(args, kwargs, result):
    pencil = args[0]
    restrict = kwargs.get("restrict", args[1] if len(args) > 1 else False)
    n = int((pencil.degrees >= 2).sum()) if restrict else pencil.M.shape[0]
    return {
        "functional.min_pencil_eigenvalue.n3_g": n**3 / 1e9,
        "functional.min_pencil_eigenvalue.pairs_computed": n,
        "functional.min_pencil_eigenvalue.pairs_used": 1,
    }


def _gram_counts(args, kwargs, result):
    basis = args[0]
    n = int((basis.degrees >= 2).sum())
    return {"gform.minimize_G.gflop": 6.0 * n * n * basis.grid.n_nodes / 1e9}


def _table_counts(args, kwargs, result):
    nbytes = result.values.nbytes + result.dtheta.nbytes + result.dphi.nbytes
    return {"harmonics.table_mb": nbytes / 1e6}


COUNTS = (
    "functional.assemble_pencil.gflop",
    "functional.min_pencil_eigenvalue.n3_g",
    "gform.minimize_G.gflop",
    "harmonics.table_mb",
)
COUNTERS = {
    "functional.assemble_pencil": _pencil_counts,
    "functional.min_pencil_eigenvalue": _eigh_counts,
    "gform.minimize_G": _gram_counts,
    "harmonics.build_basis": _table_counts,
}


class Tracer:
    """Records spans and computed counts while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: list = []  # (span index, {count: amount})
        self._stack: list = []  # [span index, report id, child seconds]
        self._reports = 0
        self._patched: list = []

    def install(self) -> None:
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for mod_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def remove(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                report = parent[1]
            elif name == "cli.run":
                report = self._reports
                self._reports += 1
            else:
                report = None
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, report, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[2] += end - start
                self.spans[index] = (
                    name,
                    start,
                    end,
                    None if parent is None else parent[0],
                    report,
                    end - start - frame[2],
                )
            if counter is not None:
                self.counts.append((index, counter(args, kwargs, result)))
            return result

        return traced

    def summarize(self, first_span: int = 0) -> dict:
        """Flat per-layer metrics of the spans from ``first_span`` on.

        Every traced function gets ``.calls`` and ``.self_s`` and every
        count is present, zero when its layer did not run.
        """
        out: dict = {}
        for mod_name, fn_name in TRACED:
            out[f"{mod_name}.{fn_name}.calls"] = 0
            out[f"{mod_name}.{fn_name}.self_s"] = 0.0
        for name, _, _, _, _, own in self.spans[first_span:]:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        counts: dict = defaultdict(float)
        for index, amounts in self.counts:
            if index < first_span:
                continue
            for key, amount in amounts.items():
                if key == "harmonics.table_mb":
                    counts[key] = max(counts[key], amount)
                else:
                    counts[key] += amount
        eig = "functional.min_pencil_eigenvalue"
        computed = counts.pop(f"{eig}.pairs_computed", 0.0)
        used = counts.pop(f"{eig}.pairs_used", 0.0)
        out[f"{eig}.useful_ratio"] = used / computed if computed else 0.0
        for key in COUNTS:
            out[key] = counts.get(key, 0.0)
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        keys = ("name", "start", "end", "parent", "report", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
