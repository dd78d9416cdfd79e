"""Workload definitions and closed-form reference checks.

A workload is a fixed list of ``wy_stability.cli.RunConfig`` values (one
pass) plus a check that compares each rendered report against a closed
form computed here, independently of the program's own closed forms.

This module imports nothing from ``wy_stability`` at import time, so the
parent process can read the workload sizes without importing numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

LAM = (1.0, 1.0, -2.0)
SUM_LAM_SQ = sum(x * x for x in LAM)
THRESHOLD = 1.0 / 90.0
BRACKET_WIDTH = 1.0 / 450.0
# the CLI's own gform tolerance, relative to max(|min G|, sum lam^2)
GFORM_TOL = 1e-6
# acceptance-suite bounds on |F/r^4 - target| / |target| for the counterexample
CEX_TOL_COARSE = 0.05  # r >= 1e-2
CEX_TOL_FINE = 0.005  # r <= 1e-3
CEX_BBARS = (0.02, 1.0 / 30.0)
CEX_RADII = (1e-1, 1e-2, 1e-3, 1e-4)
# an exact match would give infinite digits; report at most this many
MAX_DIGITS = 17.0

# degree cap of each named workload; the grid is the minimal (L+1) x (2L+2)
SIZES = {"scan_l24": 24, "gform_l24": 24, "cex_l48": 48}


def grid_for(L: int) -> tuple[int, int]:
    return L + 1, 2 * L + 2


def target_min_g(bbar: float) -> float:
    """Closed-form minimum of G, and leading value of F / r^4."""
    return 4.0 * math.pi * (THRESHOLD - bbar) * SUM_LAM_SQ


def digits(relerr: float) -> float:
    """Correct decimal digits, -log10 of a relative error."""
    return MAX_DIGITS if relerr <= 0.0 else min(MAX_DIGITS, -math.log10(relerr))


@dataclass(frozen=True)
class Check:
    """Outcome of one report's reference check.

    ``digits`` is None when the report holds no value the workload takes
    digits from.
    """

    ok: bool
    digits: float | None
    detail: str


def check_scan(report: dict) -> Check:
    """Deficit digits against 4 pi r^4 (1/30 - bbar) sum lam^2, and the bracket."""
    worst = None
    for row in report["results"]:
        if row["skipped"]:
            continue
        closed = 4.0 * math.pi * row["r"] ** 4 * (1.0 / 30.0 - row["bbar"]) * SUM_LAM_SQ
        if closed == 0.0:
            continue
        d = digits(abs(row["deficit_quadrature"] - closed) / abs(closed))
        worst = d if worst is None else min(worst, d)
    b = report["summary"]["bisection"]
    if b is None:
        return Check(False, worst, "no sign change in the bisection bracket")
    contains = b["bracket_lo"] <= THRESHOLD <= b["bracket_hi"]
    narrow = b["bracket_hi"] - b["bracket_lo"] < BRACKET_WIDTH
    detail = (
        f"bracket [{b['bracket_lo']:.6f}, {b['bracket_hi']:.6f}] "
        f"contains 1/90: {contains}, width < 1/450: {narrow}"
    )
    return Check(contains and narrow, worst, detail)


def check_gform(report: dict) -> Check:
    """min_G_numeric against 4 pi (1/90 - bbar) sum lam^2 on every row."""
    worst_rel = 0.0
    for row in report["results"]:
        ref = target_min_g(row["bbar"])
        scale = max(abs(ref), SUM_LAM_SQ)
        worst_rel = max(worst_rel, abs(row["min_G_numeric"] - ref) / scale)
    ok = worst_rel < GFORM_TOL
    return Check(ok, digits(worst_rel), f"max scaled error {worst_rel:.3e} (tol {GFORM_TOL:g})")


def check_counterexample(report: dict) -> Check:
    """F / r^4 against 4 pi (1/90 - bbar) sum lam^2 within the acceptance bounds."""
    row = report["results"][0]
    r = row["r"]
    target = target_min_g(row["bbar"])
    rel = abs(row["F_value"] / r**4 - target) / abs(target)
    tol = CEX_TOL_COARSE if r >= 1e-2 else CEX_TOL_FINE
    d = digits(rel) if r <= 1e-2 else None
    return Check(rel <= tol, d, f"bbar={row['bbar']:.6g} r={r:g} rel err {rel:.3e} (tol {tol:g})")


CHECKS = {"scan_l24": check_scan, "gform_l24": check_gform, "cex_l48": check_counterexample}


def configs(name: str, L: int, seed: int, witness_dir: str) -> list:
    """The RunConfig list of one pass of workload ``name`` at degree cap L.

    The seed sets ``RunConfig.seed``, which draws the extra gform
    directions.  It never changes the amount of work.  The counterexample
    keeps the canonical direction a = e3, where the r <= 1e-3 reports
    miss their bounds; a random direction would move how many miss.
    """
    from wy_stability.cli import RunConfig

    n_theta, n_phi = grid_for(L)
    base = RunConfig(n_theta=n_theta, n_phi=n_phi, ltrunc=L, seed=seed, lam=LAM)
    if name == "scan_l24":
        return [replace(base, command="scan")]
    if name == "gform_l24":
        return [replace(base, command="gform", directions=8)]
    if name == "cex_l48":
        return [
            replace(
                base,
                command="counterexample",
                bbar=bbar,
                r=r,
                witness=f"{witness_dir}/witness_{i}.json",
            )
            for i, (bbar, r) in enumerate((b, r) for b in CEX_BBARS for r in CEX_RADII)
        ]
    raise ValueError(f"unknown workload {name!r}")


class Tally:
    """Failure accounting over every report a run attempts.

    A report is a failed operation when it raised (``text`` is None), is
    not a schema-valid report, or has a verdict other than PASS.  It is a
    failed report when it is a failed operation or misses its reference
    check.  Nothing is dropped: every report counts as attempted.
    """

    def __init__(self, check, validator) -> None:
        self.check = check
        self.validator = validator
        self.attempted = 0
        self.failed_ops = 0
        self.failed_reports = 0
        self.digits_min: float | None = None

    def add(self, text: str | None) -> Check:
        self.attempted += 1
        outcome = self._judge(text)
        if outcome is None:
            self.failed_ops += 1
            self.failed_reports += 1
            return Check(False, None, "raised, or not a schema-valid PASS report")
        if not outcome.ok:
            self.failed_reports += 1
        if outcome.digits is not None:
            d = outcome.digits
            self.digits_min = d if self.digits_min is None else min(self.digits_min, d)
        return outcome

    def _judge(self, text: str | None) -> Check | None:
        if text is None:
            return None
        report = json.loads(text)
        if not self.validator.is_valid(report) or report["verdict"] != "PASS":
            return None
        try:
            return self.check(report)
        except (KeyError, IndexError, TypeError) as exc:
            return Check(False, None, f"report lacks a checked field: {exc!r}")
