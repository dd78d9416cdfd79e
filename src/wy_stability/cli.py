"""Command-line front end: reproducible scans, reports, and witnesses.

Subcommands
-----------
integrals        monomial oracle vs quadrature for every even monomial
gform            quartic-energy coefficients, minima, and classification
scan             pencil eigenvalue scan over (bbar, r) with threshold bracket
counterexample   explicit negative direction and witness coefficient file
small-sphere     mass expansion rows and curvature case classification
certify          certificate thresholds, condition checks, pencil cross-check

Reports are JSON by default (CSV export flattens the per-point results);
identical configurations produce byte-identical reports.  Wall-clock
timings are volatile, so they are only embedded when requested with
``--timings``; the default report keeps the determinism guarantee.

The quadrature grid and harmonic basis of the last size used are kept
(``_grid_basis``), so reports run one after another in one process at
one size, as when ``run`` is called in a loop over (bbar, r), build
them once.  A command-line invocation runs one report, so it always
builds them.  Their arrays are read-only.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .functional import assemble_pencil, field_minima, pencil_minimum
from .gform import (
    THRESHOLD_BBAR,
    ZERO_DEFICIT_BBAR,
    Direction,
    RicciEigs,
    classify_bbar,
    deficit_closed_form,
    g_quadratic,
    leading_value,
    minimize_G,
)
from .harmonics import FieldCoeffs, build_basis, index_of
from .models import (
    CurvatureData,
    CASE_II,
    DEGENERATE,
    _quartic_field,
    bbar_from_b,
    check_bbar,
    check_deficit_conditions,
    classify_small_sphere,
    constant,
    deficit_ratio_certificate,
    h_family,
    negative_direction,
    negative_part_certificate,
    positivity_radius,
    quartic,
    small_sphere_mass,
)
from .quad import FOUR_PI, GRID_BYTES_LIMIT, build_grid, integrate, monomial_integral

if TYPE_CHECKING:
    import argparse

__all__ = [
    "RunConfig",
    "main",
    "run",
    "cmd_integrals",
    "cmd_gform",
    "cmd_scan",
    "cmd_counterexample",
    "cmd_small_sphere",
    "cmd_certify",
]

SCHEMA_VERSION = 1
FORMATS = ("json", "csv")
_PATH_KEYS = ("out", "witness")  # output placement, not an analysis parameter

BRACKET_TARGET = 1.0 / 450.0


@dataclass(frozen=True)
class RunConfig:
    """Full parameter set for one command run; every field has a default.

    All defaults are echoed into the report so a run can be reproduced
    from the report alone.
    """

    command: str = ""
    n_theta: int = 32
    n_phi: int = 64
    ltrunc: int = 8
    seed: int = 1234
    out: str | None = None
    format: str = "json"
    timings: bool = False
    # family / direction parameters
    lam: tuple = (1.0, 1.0, -2.0)
    a: tuple = (0.0, 0.0, 1.0)
    bbar: float = ZERO_DEFICIT_BBAR
    r: float = 1e-2
    bbar_list: tuple = (0.0, THRESHOLD_BBAR, ZERO_DEFICIT_BBAR)
    r_list: tuple = (1e-1, 1e-2, 1e-3)
    directions: int = 1
    # scan bisection
    bisect_r: float = 1e-2
    bracket: tuple = (1.0 / 180.0, 1.0 / 45.0)
    # small-sphere inputs
    curv_r: float = 0.0
    ric_sq: float = 6.0
    lap_r: float = 0.0
    b: float = 0.0
    # certify inputs
    family: str = "const"
    eps: float = 0.01
    beta: float = 1.0 / 3.0
    lambda1: float = 2.0
    alpha: float | None = None
    witness: str | None = None


# field name -> annotation string ("int", "float | None", ...)
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


class ConfigError(Exception):
    """Invalid configuration input (exit code 2)."""


def _parse_value(key: str, raw: str):
    """Parse ``raw`` by the RunConfig annotation of ``key``; floats finite, tuples nonempty with no empty entry."""
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {key}={raw!r}")
    if kind == "float | None" and raw.lower() == "none":
        return None
    try:
        if kind == "int":
            return int(raw)
        if kind == "tuple":
            value = tuple(float(tok) for tok in raw.split(",")) if raw else ()
        elif kind.startswith("float"):
            value = float(raw)
        else:
            return raw
    except ValueError as exc:
        what = {"int": "an integer", "tuple": "a list of numbers"}.get(kind, "a number")
        raise ConfigError(f"{key} must be {what}, got {raw!r}") from exc
    if kind == "tuple" and not value:
        raise ConfigError(f"{key} needs at least one value")
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_item(item: str) -> tuple[str, object]:
    """Split ``key=value`` and parse the value; the key must name a RunConfig field."""
    key, sep, raw = item.partition("=")
    if not sep:
        raise ConfigError(f"expected key=value, got {item!r}")
    key = key.strip().replace("-", "_")
    if key not in _FIELD_TYPES or key == "command":
        raise ConfigError(f"unknown config key {key!r}")
    return key, _parse_value(key, raw)


def load_config_file(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment line."""
    out: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, value = _parse_item(line)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        out[key] = value
    return out


def _config_dict(config: RunConfig) -> dict:
    # leaving output placement out keeps report bytes independent of
    # where the report is saved
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(config).items() if k not in _PATH_KEYS}


def _report(config: RunConfig, results, summary, verdict: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": config.command,
        "config": _config_dict(config),
        "results": results,
        "summary": summary,
        "verdict": verdict,
        "timings": None,
    }


# ---------------------------------------------------------------------------
# commands


def _check_size(n_theta: int, n_phi: int, L: int) -> None:
    """Refuse, before anything is allocated, sizes whose arrays pass ``GRID_BYTES_LIMIT``.

    The arrays are the Gauss-Legendre rule's Jacobi matrix, n_theta^2
    doubles; the seven node arrays, 7 n_theta n_phi; and the basis
    factors, 2 (L+1)^2 n_theta.  The largest size the repository uses,
    97x194 at L = 96, takes 16 MB.  ``harmonics.gram_blocks`` sizes the
    pencil.
    """
    need = 8 * (n_theta**2 + 7 * n_theta * n_phi + 2 * (L + 1) ** 2 * n_theta)
    if need > GRID_BYTES_LIMIT:
        raise ConfigError(
            f"grid {n_theta}x{n_phi} at L = {L} needs {need / 2**30:.3g} GiB of arrays, "
            f"over the {GRID_BYTES_LIMIT / 2**30:g} GiB limit"
        )


@functools.lru_cache(maxsize=1)
def _grid_basis(n_theta: int, n_phi: int, L: int):
    """The grid and the degree-L basis on it, kept for the last size asked for.

    A grid and basis depend on (n_theta, n_phi, L) alone and their arrays
    are read-only, so later reports in this process at the same size
    share them; only callers of ``run`` that make several reports gain.
    One size is kept: a sweep runs at one size, and each kept basis
    holds O(L^3) memory.
    """
    _check_size(n_theta, n_phi, L)
    grid = build_grid(n_theta, n_phi)
    return grid, build_basis(grid, L)


def cmd_integrals(config: RunConfig) -> dict:
    """Monomial oracle vs quadrature over all even triples of degree <= 10."""
    _check_size(config.n_theta, config.n_phi, 0)
    grid = build_grid(config.n_theta, config.n_phi)
    tol = 1e-11
    rows = []
    worst = 0.0
    for p in range(0, 11, 2):
        for q in range(0, 11 - p, 2):
            for r in range(0, 11 - p - q, 2):
                frac = monomial_integral(p, q, r)
                exact = FOUR_PI * frac.numerator / frac.denominator
                got = integrate(
                    grid,
                    grid.xyz[:, 0] ** p * grid.xyz[:, 1] ** q * grid.xyz[:, 2] ** r,
                )
                relerr = abs(got - exact) / exact
                within = p + q + r <= grid.exact_degree
                if within:
                    worst = max(worst, relerr)
                rows.append(
                    {
                        "p": p,
                        "q": q,
                        "r": r,
                        "exact_fraction": f"{frac.numerator}/{frac.denominator}",
                        "exact": exact,
                        "quadrature": got,
                        "relerr": relerr,
                        "within_exactness": within,
                        "pass": relerr < tol,
                    }
                )
    fracs = {e: monomial_integral(*e) for e in ((2, 0, 0), (2, 2, 0), (4, 2, 0), (2, 2, 2))}
    table = [
        {
            "exponents": list(e),
            "exact_fraction": f"{f.numerator}/{f.denominator}",
            "value_over_4pi": float(f),
        }
        for e, f in fracs.items()
    ]
    all_pass = all(row["pass"] for row in rows)
    summary = {
        "monomials": len(rows),
        "max_relerr": max(row["relerr"] for row in rows),
        "max_relerr_within_exactness": worst,
        "exact_degree": grid.exact_degree,
        "tolerance": tol,
        "reference_table": table,
    }
    return _report(config, rows, summary, "PASS" if all_pass else "FAIL")


def _unit_direction(a) -> np.ndarray:
    """a / |a|, dividing by max|a_i| first so that |a|^2 cannot underflow."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (3,):
        raise ConfigError(f"direction a needs 3 components, got {a.size}")
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"direction a must be finite, got {a.tolist()}")
    big = np.abs(a).max()
    if big == 0:
        raise ConfigError("direction a must be nonzero")
    a = a / big
    return a / np.linalg.norm(a)


# bytes a gform report holds per result row: its dict, its share of the
# Direction and its JSON text; tracemalloc read 3.4-3.6 kB at L = 2 and 24
_GFORM_ROW_BYTES = 4096


def _directions_for(config: RunConfig) -> list[Direction]:
    """The report's directions: ``a``, then ``directions - 1`` drawn from ``seed``.

    A count whose rows (``_GFORM_ROW_BYTES`` each, one per bbar) would
    pass ``GRID_BYTES_LIMIT`` is refused before the first draw.
    """
    n = config.directions
    if n < 1:
        raise ConfigError(f"directions must be >= 1, got {n}")
    need = n * _GFORM_ROW_BYTES * len(config.bbar_list)
    if need > GRID_BYTES_LIMIT:
        raise ConfigError(
            f"directions = {n} needs {need / 2**30:.3g} GiB for the report rows, "
            f"over the {GRID_BYTES_LIMIT / 2**30:.3g} GiB limit"
        )
    dirs = [Direction(_unit_direction(config.a))]
    if n > 1:
        rng = np.random.default_rng(config.seed)
        for _ in range(n - 1):
            v = rng.normal(size=3)
            dirs.append(Direction(v / np.linalg.norm(v)))
    return dirs


def _require_ltrunc(config: RunConfig, least: int, why: str) -> None:
    if config.ltrunc < least:
        raise ConfigError(f"{config.command} {why}: ltrunc must be >= {least}, got {config.ltrunc}")


def cmd_gform(config: RunConfig) -> dict:
    """Quartic-energy coefficients and minima per (a, lam, bbar).

    G is minimized once per report: one 3x3 matrix gives the minimum in
    every direction, and bbar only shifts it by a constant.  The closed
    forms are formed once per direction (A, D, beta) and once per bbar
    (the leading value and the classification).
    """
    _require_ltrunc(config, 2, "minimizes over degrees l >= 2")
    eigs = RicciEigs(config.lam)
    check_bbar(eigs, *config.bbar_list)
    _check_size(config.n_theta, config.n_phi, config.ltrunc)  # a huge L is a grid size first
    directions = _directions_for(config)
    _, basis = _grid_basis(config.n_theta, config.n_phi, config.ltrunc)
    tol_closed = 1e-6
    # beta^2 - alpha gamma = -gamma min G, gamma the same for every row
    leading = [(bbar, leading_value(eigs, bbar, 1.0), classify_bbar(bbar)) for bbar in config.bbar_list]
    rows = []
    ok = True
    for direction, (minima, _) in zip(directions, minimize_G(basis, eigs, directions, config.bbar_list)):
        a = [float(x) for x in direction.a]
        quadratics = g_quadratic(eigs, direction, config.bbar_list)
        for (bbar, lead, verdict), q, numeric in zip(leading, quadratics, minima):
            closed = q.min_value
            ident = -q.gamma_coef * lead
            # one scale for both checks: sum lam^2 guards the exact-threshold
            # point, where closed = 0 and both discriminant sides are roundoff
            scale = max(abs(closed), eigs.sum_sq)
            row_ok = (
                abs(numeric - closed) < tol_closed * scale
                and abs(q.discriminant - ident) <= 1e-12 * scale
            )
            ok = ok and row_ok
            rows.append(
                {
                    "a": a,
                    "bbar": bbar,
                    "A": q.A,
                    "D": q.D,
                    "alpha": q.alpha,
                    "beta_coef": q.beta_coef,
                    "gamma_coef": q.gamma_coef,
                    "discriminant": q.discriminant,
                    "min_G_closed": closed,
                    "min_G_numeric": numeric,
                    "classification": verdict,
                    "pass": row_ok,
                }
            )
    summary = {
        "lam": list(config.lam),
        "sum_lam_sq": eigs.sum_sq,
        "threshold_bbar": THRESHOLD_BBAR,
    }
    return _report(config, rows, summary, "PASS" if ok else "FAIL")


def _threshold_bracket(basis, eigs: RicciEigs, r_b: float, bracket: tuple, ends: list) -> dict | None:
    """Bracket the sign change of the unrestricted pencil minimum f in bbar at r = r_b; None without one.

    Brent's method (Brent 1973, ch. 4) keeps f > 0 at one end and f <= 0
    at the other, and stops once the bracket is at most BRACKET_TARGET / 2
    + 4 eps |b| wide, b the best iterate: the relative term ends it where
    adjacent floats are farther apart than the target.  ``ends`` holds
    the ``field_minima`` outcomes at ``bracket``'s lo and hi, each its
    minima or the ValueError that refused its pencil; lo refused, or hi
    refused when f(lo) > 0, exits 2.  Each step assembles one field.
    """
    grid = basis.grid

    def value(end) -> float:
        if isinstance(end, ValueError):
            raise end
        return end[0]

    if not (fa := value(ends[0])) > 0 > (fb := value(ends[1])):
        return None

    def f(bbar: float) -> float:
        # h is affine and increasing in bbar, so a bbar between the two
        # admitted ends passes quartic's rules, and at every node |h|,
        # |h / (2H)| and 1/H are bounded by their values at the ends: a
        # step is never refused, and no rule runs again
        return pencil_minimum(assemble_pencil(basis, [_quartic_field(eigs, bbar, r_b, grid)])[0])

    a, b = bracket
    c, fc = b, fb  # on b's side, so the first pass sets c = a
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * math.ulp(1.0) * abs(b) + BRACKET_TARGET / 4.0
        m = 0.5 * c - 0.5 * b
        if not abs(m) > tol:
            break
        if abs(e) < tol or not abs(fa) > abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, t = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0 else (-p, q)
            # a NaN or infinite p or q fails both tests: the midpoint
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    # widen slightly: the finite-r threshold sits within O(r^2) of the
    # ideal one, so a small guard band keeps the reported bracket honest
    guard = 1.0 / 3600.0
    lo, hi = sorted((b, c))
    return {
        "r": r_b,
        "bbar_star": b,
        "bracket_lo": lo - guard,
        "bracket_hi": hi + guard,
        "width": (hi - lo) + 2 * guard,
        "contains_threshold": lo - guard <= THRESHOLD_BBAR <= hi + guard,
    }


def cmd_scan(config: RunConfig) -> dict:
    """Pencil eigenvalue scan over (bbar, r) plus the threshold bracket.

    The rows and the threshold bracket's lo and hi are sampled here and
    solved in one ``field_minima`` call, which skips only the rows whose
    pencil it refuses; the ends' restricted minima are not read.  The
    bracket (``_threshold_bracket``) takes the ends' outcomes and
    assembles one field per step of Brent's method.
    """
    _require_ltrunc(config, 2, "restricts the pencil to degrees l >= 2")
    if len(config.bracket) != 2:
        raise ConfigError(f"bracket needs 2 values (lo, hi), got {len(config.bracket)}")
    if not config.bracket[0] < config.bracket[1]:
        raise ConfigError(f"bracket needs lo < hi, got {list(config.bracket)}")
    eigs = RicciEigs(config.lam)
    check_bbar(eigs, *config.bbar_list)
    ends = [quartic(eigs, x, config.bisect_r, "bisect_r") for x in config.bracket]
    grid, basis = _grid_basis(config.n_theta, config.n_phi, config.ltrunc)

    cells = []  # (bbar, r, H or the ValueError that refused the row)
    for bbar in config.bbar_list:
        for r in config.r_list:
            try:
                H = h_family(eigs, bbar, r, grid)
            except ValueError as exc:  # r out of range, deficit or h too large, H not positive
                H = exc
            cells.append((bbar, r, H))
    batch = [H for *_, H in cells if not isinstance(H, ValueError)] + [end(grid) for end in ends]
    # each assembled row's refusal or two minima, in row order, then lo's and hi's
    outcomes = iter(field_minima(basis, batch, (False, True)))
    rows = []
    for bbar, r, H in cells:
        outcome = H if isinstance(H, ValueError) else next(outcomes)
        if isinstance(outcome, ValueError):
            rows.append({"bbar": bbar, "r": r, "skipped": True, "notice": str(outcome)})
            continue
        unres, res = outcome
        deficit = deficit_closed_form(eigs, bbar, r)
        deficit_quad = integrate(grid, -H.h)
        rows.append(
            {
                "bbar": bbar,
                "r": r,
                "skipped": False,
                "min_eig_unrestricted": unres,
                "min_eig_restricted": res,
                "min_eig_over_r4": unres / r**4,
                "deficit_closed": deficit,
                "deficit_quadrature": deficit_quad,
            }
        )

    bisection = _threshold_bracket(basis, eigs, config.bisect_r, config.bracket, list(outcomes))
    ok = (
        bisection is not None
        and bisection["contains_threshold"]
        and bisection["width"] < BRACKET_TARGET
    )
    summary = {
        "positivity_radius": positivity_radius(eigs),
        "threshold_bbar": THRESHOLD_BBAR,
        "bisection": bisection,
    }
    return _report(config, rows, summary, "PASS" if ok else "FAIL")


def _check_file_path(key: str, path: Path) -> Path:
    """Refuse an output path that is a directory or lies in a missing one."""
    if path.is_dir():
        raise ConfigError(f"{key} path {str(path)!r} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"{key} directory {str(path.parent)!r} does not exist")
    return path


def write_output(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as ``Path.write_text`` would, over the file's old bytes.

    The file is opened without O_TRUNC: truncating an existing file to
    zero frees its blocks only for the write to allocate them again,
    which costs more than the write (a 37 kB witness rewritten on ext4
    mounted with discard: open, write and close take 72 us with O_TRUNC
    against 5 us without).  After the write the file is cut to the
    text's length, and only when it is longer: a device or a pipe
    reports size 0 and cannot be truncated (``/dev/null`` raises
    EINVAL), so it never is.  Like ``write_text`` this does not fsync;
    a crash can leave old bytes behind the new ones.
    """
    import locale

    data = text.encode(locale.getpreferredencoding(False))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _witness_path(config: RunConfig) -> Path:
    if config.witness is not None:
        path = Path(config.witness)
    elif config.out is not None:
        out = Path(config.out)
        path = out.with_name(out.stem + "_witness.json")
    else:
        path = Path("witness.json")
    # a hard link to the out file resolves to another name but is the same file
    if config.out is not None and (
        path.resolve() == Path(config.out).resolve()
        or path.exists() and os.path.exists(config.out) and os.path.samefile(path, config.out)
    ):
        raise ConfigError(f"witness path {str(path)!r} is the out file; the report would overwrite it")
    return _check_file_path("witness", path)


def cmd_counterexample(config: RunConfig) -> dict:
    """Explicit negative direction for the quartic family, with witness file."""
    _require_ltrunc(config, 3, "builds a degree-3 direction")
    wpath = _witness_path(config)
    eigs = RicciEigs(config.lam)
    family = quartic(eigs, config.bbar, config.r)  # its rules, before the basis
    direction = Direction(_unit_direction(config.a))
    _, basis = _grid_basis(config.n_theta, config.n_phi, config.ltrunc)

    nd = negative_direction(basis, eigs, config.bbar, config.r, direction, family)
    predicted = leading_value(eigs, config.bbar, config.r)
    rel_dev = abs(nd.f_value - predicted) / abs(predicted) if predicted != 0 else None

    results = [
        {
            "bbar": config.bbar,
            "r": config.r,
            "F_value": nd.f_value,
            "F_over_r4": nd.f_value / config.r**4,
            "predicted_r4_leading": predicted,
            "relative_deviation": rel_dev,
            "guaranteed": nd.guaranteed,
            "note": nd.note,
        }
    ]
    summary = {
        "witness_file": str(wpath),
        "negative": nd.f_value < 0,
        "guaranteed_regime": nd.guaranteed,
    }
    verdict = "PASS" if nd.guaranteed and nd.f_value < 0 else "FAIL"
    report = _report(config, results, summary, verdict)
    write_output(wpath, _witness_text(basis.L, nd.eta.c, report["config"]))
    return report


@functools.lru_cache(maxsize=1)
def _zero_entries(L: int) -> tuple[str, ...]:
    """The witness entry "[l, m, 0.0]" of every degree-L basis index, kept for one L."""
    return tuple(json.dumps([l, m, 0.0]) for l in range(L + 1) for m in range(-l, l + 1))


def _witness_text(L: int, c: np.ndarray, echo: dict) -> str:
    """The witness file: ``json.dumps(witness, sort_keys=True)`` and a newline.

    ``coeffs`` lists (l, m, c) in basis index order, l ascending, then m
    from -l to l.  A witness has a few nonzero entries among (L+1)^2, so
    the +0.0 entries come from kept text; every other value, -0.0 and
    NaN included, is formatted by ``json.dumps`` as in the whole dump.
    """
    entries = list(_zero_entries(L))
    for i in np.flatnonzero((c != 0) | np.signbit(c)).tolist():
        l = math.isqrt(i)
        entries[i] = json.dumps([l, i - l * l - l, float(c[i])])
    echo_text = json.dumps(echo, sort_keys=True)
    return f'{{"L": {L}, "coeffs": [{", ".join(entries)}], "config_echo": {echo_text}}}\n'


def _is_json_int(x) -> bool:
    """Whether a parsed JSON value is an integer: not a bool, not a float."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_witness(path: str) -> FieldCoeffs:
    """Reload a witness coefficient file written by cmd_counterexample.

    Raises ValueError on a top level that is no object with keys ``L``
    and ``coeffs``, a ``coeffs`` that is no list, an ``L`` that is no
    JSON integer >= 0, or whose (L+1)^2 coefficients pass
    ``GRID_BYTES_LIMIT``, or on an entry that is no list of 3 items,
    whose l or m is no JSON integer, whose value is no JSON number or
    overflows a float, whose (l, m) is no degree-L index, or which
    repeats an earlier entry's (l, m).
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"witness {path}: the top level must be an object, got {type(data).__name__}")
    for key in ("L", "coeffs"):
        if key not in data:
            raise ValueError(f"witness {path}: no key {key!r}")
    L, coeffs = data["L"], data["coeffs"]
    if not isinstance(coeffs, list):
        raise ValueError(f"witness {path}: coeffs must be a list, got {type(coeffs).__name__}")
    if not _is_json_int(L):
        raise ValueError(f"witness {path}: L must be an integer, got {L!r}")
    if L < 0:
        raise ValueError(f"witness {path}: L must be >= 0, got {L}")
    if 8 * (L + 1) ** 2 > GRID_BYTES_LIMIT:
        raise ValueError(
            f"witness {path}: L = {L} needs {8 * (L + 1) ** 2 / 2**30:.3g} GiB of coefficients, "
            f"over the {GRID_BYTES_LIMIT / 2**30:.3g} GiB limit"
        )
    c = np.zeros((L + 1) ** 2)
    seen = set()
    for entry in coeffs:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"witness {path}: entry {entry!r:.40} must be a list [l, m, value]")
        l, m, v = entry
        if not (_is_json_int(l) and _is_json_int(m)):
            raise ValueError(f"witness {path}: entry {entry} has a degree or order that is no integer")
        if not (isinstance(v, float) or _is_json_int(v)):
            raise ValueError(f"witness {path}: entry {entry} has a value that is no number")
        if not 0 <= l <= L or abs(m) > l:
            raise ValueError(f"witness {path}: entry {entry} is no index of degree <= L = {L}")
        if (l, m) in seen:
            raise ValueError(f"witness {path}: entry {entry} repeats (l, m) = ({l}, {m})")
        seen.add((l, m))
        try:
            c[index_of(l, m)] = float(v)
        except OverflowError:
            raise ValueError(f"witness {path}: entry {entry!r:.40} has a value past the float range") from None
    return FieldCoeffs(L, c)


def cmd_small_sphere(config: RunConfig) -> dict:
    """Mass expansion rows and curvature-case classification."""
    cd = CurvatureData(R=config.curv_r, ric_sq=config.ric_sq, lapR=config.lap_r)
    case = classify_small_sphere(cd)
    rows = [
        {"r": r, "mass_expansion": small_sphere_mass(cd, r)} for r in config.r_list
    ]
    summary: dict = {
        "case": case,
        "R": cd.R,
        "ric_sq": cd.ric_sq,
        "lapR": cd.lapR,
        "b": config.b,
    }
    if case == CASE_II:
        bbar = bbar_from_b(config.b, cd)
        summary["bbar"] = bbar
        summary["classification"] = classify_bbar(bbar)
    else:
        summary["bbar"] = None
        summary["classification"] = None
        if case == DEGENERATE:
            summary["note"] = (
                "all leading coefficients vanish; the r^-5 mass limit is not positive"
            )
    # small_sphere_mass refuses a mass that is not finite
    return _report(config, rows, summary, "PASS")


# the family setting -> certify's H source: its rules checked, its sampler returned
_FAMILIES = {
    "const": lambda config: constant(config.eps),
    "quartic": lambda config: quartic(RicciEigs(config.lam), config.bbar, config.r),
}


def cmd_certify(config: RunConfig) -> dict:
    """Certificate thresholds, condition checks, and the pencil cross-check."""
    _require_ltrunc(config, 2, "restricts the pencil to degrees l >= 2")
    if config.family not in _FAMILIES:
        raise ConfigError(f"unknown H family {config.family!r}; use {' or '.join(_FAMILIES)}")
    field = _FAMILIES[config.family](config)
    grid, basis = _grid_basis(config.n_theta, config.n_phi, config.ltrunc)
    H = field(grid)
    alpha = config.alpha if config.alpha is not None else H.inf_h

    cert_ratio = deficit_ratio_certificate(config.beta, config.lambda1, alpha, 2.0)
    cert_neg = negative_part_certificate(config.beta, config.lambda1, alpha, 2.0, 2.0)
    report = check_deficit_conditions(H, cert_ratio)

    [pencil] = assemble_pencil(basis, [H])
    unres, res = pencil_minimum(pencil), pencil_minimum(pencil, restrict=True)

    sound = (not report.passed) or unres > 0
    results = [
        {
            "family": H.tag,
            "inf_H": H.inf_h,
            "sup_H": H.sup_h,
            "alpha": alpha,
            "delta_ratio": float(cert_ratio.delta),
            "delta_negative_part": float(cert_neg.delta),
            "theta": float(cert_neg.theta),
            "cond_a": report.cond_a,
            "cond_b1": report.cond_b1,
            "cond_b2": report.cond_b2,
            "margins": {k: float(v) for k, v in report.margins.items()},
            "conditions_pass": report.passed,
            "min_eig_unrestricted": unres,
            "min_eig_restricted": res,
        }
    ]
    summary = {
        "certificate_sound": sound,
        "conditions_pass": report.passed,
        "pencil_positive": unres > 0,
        "note": "conditions are sufficient, not necessary"
        if (not report.passed and unres > 0)
        else "",
    }
    return _report(config, results, summary, "PASS" if sound else "FAIL")


_DISPATCH = {
    "integrals": cmd_integrals,
    "gform": cmd_gform,
    "scan": cmd_scan,
    "counterexample": cmd_counterexample,
    "small-sphere": cmd_small_sphere,
    "certify": cmd_certify,
}
COMMANDS = tuple(_DISPATCH)


# ---------------------------------------------------------------------------
# serialization


# json runs its C encoder only without an indent, so the indented text is
# laid out here with a %s slot per scalar, and one C encode renders all the
# scalars at once; with ensure_ascii no encoded scalar holds a raw newline,
# so a "\n" item separator splits them apart again.
_ENCODE_SCALARS = json.JSONEncoder(allow_nan=False, separators=("\n", ":")).encode
_CONTAINERS = (dict, list, tuple)


def _key(k: str) -> str:
    return json.encoder.encode_basestring_ascii(k).replace("%", "%%") + ": "


def _block(opening: str, items: list, closing: str, depth: int) -> str:
    inner = "\n" + "  " * (depth + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * depth + closing


@functools.lru_cache(maxsize=128)
def _flat_layout(keys: tuple, lens: tuple, depth: int) -> str:
    """Layout of a dict of scalars (length -1) and flat lists of scalars."""
    return _block("{", [
        _key(k) + ("%s" if n < 0 else _block("[", ["%s"] * n, "]", depth + 1) if n else "[]")
        for k, n in zip(keys, lens)
    ], "}", depth)


def _layout(o, depth: int, scalars: list) -> str:
    """The indented text of ``o`` with a %s slot per scalar, appended to ``scalars``."""
    if isinstance(o, dict):
        keys, start, lens = sorted(o), len(scalars), []
        for k in keys:
            v = o[k]
            if not isinstance(v, _CONTAINERS):
                lens.append(-1)
                scalars.append(v)
            elif isinstance(v, dict) or any(isinstance(x, _CONTAINERS) for x in v):
                del scalars[start:]
                return _block("{", [_key(k) + _layout(o[k], depth + 1, scalars) for k in keys], "}", depth)
            else:
                lens.append(len(v))
                scalars.extend(v)
        return _flat_layout(tuple(keys), tuple(lens), depth) if keys else "{}"
    if isinstance(o, (list, tuple)):
        return _block("[", [_layout(x, depth + 1, scalars) for x in o], "]", depth) if o else "[]"
    scalars.append(o)
    return "%s"


def render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True, allow_nan=False)`` and a newline.

    The text is the same byte for byte; keys must be str (a TypeError
    otherwise).  NaN and infinities raise ValueError, and a value json
    cannot encode raises TypeError, as there.
    """
    scalars: list = []
    text = _layout(report, 0, scalars)
    return text % tuple(_ENCODE_SCALARS(scalars)[1:-1].split("\n") if scalars else ()) + "\n"


def render_csv(report: dict) -> str:
    """Flatten the per-point results into CSV rows."""
    import csv

    rows = report["results"]
    if not rows:
        return ""
    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys and not isinstance(row[k], (dict, list)):
                keys.append(k)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in keys})
    return buf.getvalue()


def run(config: RunConfig) -> tuple[dict, str]:
    """Execute a command; returns (report, rendered output)."""
    if config.command not in _DISPATCH:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.format not in FORMATS:
        raise ConfigError(f"format must be {' or '.join(FORMATS)}, got {config.format!r}")
    # the least sizes the report schema admits, also for commands that build no grid
    if config.n_theta < 2 or config.n_phi < 4 or config.ltrunc < 1:
        raise ConfigError(
            f"grid must be at least 2x4 and ltrunc at least 1, "
            f"got {config.n_theta}x{config.n_phi} and ltrunc = {config.ltrunc}"
        )
    t0 = time.perf_counter()
    report = _DISPATCH[config.command](config)
    if config.timings:
        report["timings"] = {"total_s": time.perf_counter() - t0}
    text = render_csv(report) if config.format == "csv" else render_json(report)
    return report, text


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="wy-stability",
        description="Positivity analysis for the second variation of the "
        "Wang-Yau quasi-local energy on the round sphere.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    parser.add_argument("--ltrunc", type=int, metavar="N", help="degree cap L")
    parser.add_argument(
        "--grid", metavar="TxP", help="quadrature sizes, e.g. 32x64"
    )
    parser.add_argument("--out", metavar="PATH", help="report output path")
    parser.add_argument("--format", choices=FORMATS)
    parser.add_argument("--seed", type=int, metavar="N")
    parser.add_argument("--timings", action="store_true", default=None,
                        help="embed wall-clock timings (breaks byte determinism)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (repeatable)")
    return parser


def parse_args(argv: list[str] | None = None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    overrides: dict = {}
    if args.config:
        overrides.update(load_config_file(args.config))
    if args.grid is not None:
        try:
            t, _, p = args.grid.partition("x")
            overrides["n_theta"], overrides["n_phi"] = int(t), int(p)
        except ValueError as exc:
            raise ConfigError(f"cannot parse --grid {args.grid!r}: expected TxP") from exc
    for name in ("ltrunc", "out", "format", "seed", "timings"):
        v = getattr(args, name)
        if v is not None:
            overrides[name] = v
    overrides.update(_parse_item(item) for item in args.set)
    for key in _PATH_KEYS:
        if overrides.get(key) == "":
            raise ConfigError(f"{key} must name a file, got an empty path")
    return replace(RunConfig(command=args.command), **overrides)


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(argv)
        if config.out:
            _check_file_path("out", Path(config.out))
        report, text = run(config)
        if config.out:
            write_output(config.out, text)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    if config.out:
        print(f"report written to {config.out}")
        print(f"verdict: {report['verdict']}")
    else:
        print(text, end="")
    return 0 if report["verdict"] == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())
