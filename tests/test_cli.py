"""Command-line interface: config handling, reports, determinism."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import math
import sys
import tempfile
import time
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wy_stability
import wy_stability.cli as cli_module
import wy_stability.functional as functional_module
import wy_stability.gform as gform_module
import wy_stability.harmonics as harmonics_module
import wy_stability.models as models_module
from wy_stability.cli import (
    ConfigError,
    RunConfig,
    load_config_file,
    load_witness,
    main,
    parse_args,
    run,
)
from wy_stability.functional import (
    HessianPencil,
    assemble_pencil,
    eval_F,
    field_minima,
    mean_curvature_from_h,
    min_pencil_eigenvalue,
    pencil_minimum,
)
from wy_stability.gform import Direction, GQuadratic, RicciEigs
from wy_stability.harmonics import HarmonicBasis, build_basis
from wy_stability.models import h_family, negative_direction, quartic
from wy_stability.quad import build_grid

import reference

SCHEMA = json.loads(
    resources.files("wy_stability").joinpath("report_schema.json").read_text()
)
# the positivity radius of the default lam = (1, 1, -2), as messages print it
RMAX = "0.701379"


def read_report(path) -> dict:
    report = json.loads(path.read_text())
    jsonschema.validate(report, SCHEMA)
    return report


def test_parse_args_defaults():
    config = parse_args(["gform"])
    assert config.command == "gform"
    assert config.n_theta == 32 and config.n_phi == 64
    assert config.ltrunc == 8
    assert config.format == "json"
    assert config.timings is False


def test_parse_args_grid_and_overrides():
    config = parse_args(["scan", "--grid", "16x32", "--ltrunc", "5", "--seed", "9"])
    assert (config.n_theta, config.n_phi) == (16, 32)
    assert config.ltrunc == 5
    assert config.seed == 9
    config = parse_args(["gform", "--set", "lam=1,-1,0", "--set", "bbar=0.02"])
    assert config.lam == (1.0, -1.0, 0.0)
    assert config.bbar == 0.02


def test_parse_args_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_args(["gform", "--grid", "16by32"])
    with pytest.raises(ConfigError):
        parse_args(["gform", "--set", "unknown_key=1"])
    with pytest.raises(ConfigError):
        parse_args(["gform", "--set", "command=scan"])
    assert parse_args(["certify", "--set", "alpha=none"]).alpha is None
    with pytest.raises(ConfigError, match="alpha"):
        parse_args(["certify", "--set", "alpha=-inf"])


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "lam = 1, -1, 0\n"
        "bbar = 0.005\n"
        "ltrunc = 6\n"
        "timings = true\n"
    )
    loaded = load_config_file(str(cfg))
    assert loaded["lam"] == (1.0, -1.0, 0.0)
    assert loaded["bbar"] == 0.005
    assert loaded["ltrunc"] == 6
    assert loaded["timings"] is True
    config = parse_args(["gform", "--config", str(cfg), "--set", "bbar=0.01"])
    assert config.bbar == 0.01  # --set wins over the file
    assert config.ltrunc == 6


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 3\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    bad.write_text("timings = maybe\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "missing.cfg"))


def test_exit_codes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "r.json"
    assert main(["integrals", "--out", str(out)]) == 0
    # a coarse grid cannot integrate degree 10 and the verdict flips
    assert main(["integrals", "--grid", "4x8", "--out", str(out)]) == 1
    assert main(["integrals", "--grid", "nope"]) == 2
    assert main(["gform", "--set", "bogus=1"]) == 2
    assert main(["certify", "--set", "eps=3.0"]) == 2
    assert main(["gform", "--set", "lam=0,0,0"]) == 2
    assert main(["gform", "--set", "directions=0"]) == 2
    assert main(["gform", "--set", "directions=-3"]) == 2
    # a nonzero direction with tiny components is a direction like any other
    assert main(["gform", "--set", "a=1e-160,1e-160,0", "--out", str(out)]) in (0, 1)
    cex = ["counterexample", "--out", str(out)]
    assert main(cex + ["--set", "a=1e-170,1e-170,0"]) in (0, 1)
    assert main(cex + ["--set", "a=0,0,0"]) == 2
    assert main(cex + ["--set", "a=nan,0,1"]) == 2
    assert main(["gform", "--set", "a=inf,0,0"]) == 2
    assert main(["gform", "--ltrunc", "1", "--grid", "4x8"]) == 2
    # a non-finite value, a bad bracket or bisection radius, or an empty
    # or unwritable output path is refused before any work, by a message
    # that names the key; no basis is kept, so any work would build one
    def refuse(grid, L):
        raise AssertionError("a bad input reached the basis build")

    cli_module._grid_basis.cache_clear()
    monkeypatch.setattr(cli_module, "build_basis", refuse)
    link = tmp_path / "link"
    link.symlink_to(tmp_path, target_is_directory=True)
    hard = tmp_path / "hard.json"
    os.link(out, hard)
    for argv, message in (
        (cex + ["--set", "r=nan"], "r must be finite"),
        (cex + ["--set", "bbar=inf"], "bbar must be finite"),
        (["gform", "--set", "bbar_list=nan"], "bbar_list must be finite"),
        (["scan", "--set", "bracket=0.01"], "bracket needs 2 values"),
        (["scan", "--set", "bracket=0.02,0.01"], "bracket needs lo < hi"),
        (["scan", "--set", "bisect_r=5"], "bisect_r must lie in (0, "),
        (["scan", "--set", "bisect_r=0"], "bisect_r must lie in (0, "),
        (["counterexample", "--set", "out="], "out must name a file"),
        (["counterexample", "--set", "witness="], "witness must name a file"),
        (["counterexample", "--set", f"witness={tmp_path}"], "witness path"),
        (
            ["counterexample", "--set", f"witness={tmp_path / 'missing' / 'w.json'}"],
            "witness directory",
        ),
        (["integrals", "--out", str(tmp_path)], "out path"),
        # a witness that names the report file, also by another spelling or
        # through a hard link
        (cex + ["--set", f"witness={out}"], f"witness path {str(out)!r} is the out file"),
        (
            cex + ["--set", f"witness={link / out.name}"],
            f"witness path {str(link / out.name)!r} is the out file",
        ),
        (cex + ["--set", f"witness={hard}"], f"witness path {str(hard)!r} is the out file"),
        (["integrals", "--out", str(tmp_path / "missing" / "r.json")], "out directory"),
        # an unknown key or format, an empty list, or a value that does not parse
        (["gform", "--set", "bogus=1"], "unknown config key 'bogus'"),
        (["small-sphere", "--set", "synthetic=1"], "unknown config key 'synthetic'"),
        (["gform", "--set", "bogus"], "expected key=value, got 'bogus'"),
        (["integrals", "--set", "format=xml"], "format must be json or csv"),
        (["integrals", "--set", "format=CSV"], "format must be json or csv"),
        (["gform", "--set", "bbar_list="], "bbar_list needs at least one value"),
        (["small-sphere", "--set", "r_list="], "r_list needs at least one value"),
        (["gform", "--set", "ltrunc=8.0"], "ltrunc must be an integer"),
        # a degree cap below what the command works on
        (["scan", "--ltrunc", "1"], "scan restricts the pencil to degrees l >= 2: ltrunc"),
        (["certify", "--ltrunc", "1"], "certify restricts the pencil to degrees l >= 2: ltrunc"),
        (cex + ["--ltrunc", "2"], "counterexample builds a degree-3 direction: ltrunc"),
        (cex + ["--set", "r=abc"], "r must be a number"),
        # a bad triple, direction, family or eps
        (["gform", "--set", "lam=0,0,0"], "lam must be a nonzero triple"),
        (["gform", "--set", "lam=1,1,1"], "lam must sum to zero"),
        (["gform", "--set", "directions=0"], "directions must be >= 1"),
        (cex + ["--set", "a=0,0,0"], "direction a must be nonzero"),
        (cex + ["--set", "lam=1,1,1"], "lam must sum to zero"),
        (["certify", "--set", "eps=3.0"], "eps must lie in [0, 2)"),
        (["certify", "--set", "family=cubic"], "unknown H family 'cubic'"),
        (["certify", "--set", "family=quartic", "--set", "lam=1,1,1"], "lam must sum to zero"),
        # quartic's rules run before the grid in certify and counterexample,
        # at the default witness path too (r=5 with --out is below)
        (["certify", "--set", "family=quartic", "--set", "bbar=1e308"], "bbar = 1e+308 is too large"),
        (["counterexample", "--set", "r=5"], "r must lie in (0, "),
        # a triple whose bound (8 pi/21) sum lam_i^2 on A overflows
        *(
            (["gform", "--set", f"lam={lam}"], "lam is too large")
            for lam in ("1e154,1e154,-2e154", "5e153,5e153,-1e154", "1e300,-1e300,0")
        ),
        # a bbar whose deficit 4 pi (1/30 - bbar) sum lam_i^2 at r = 1 overflows;
        # a refused counterexample writes no witness
        (["gform", "--set", "bbar_list=0,1e307"], "bbar = 1e+307 is too large"),
        (["gform", "--set", "bbar_list=-1e307"], "bbar = -1e+307 is too large"),
        (["scan", "--set", "bbar_list=1e308"], "bbar = 1e+308 is too large"),
        (["scan", "--set", "bracket=0.01,1e308"], "bbar = 1e+308 is too large"),
        (
            cex + ["--ltrunc", "3", "--set", "bbar=1e308", "--set", f"witness={tmp_path / 'w.json'}"],
            "bbar = 1e+308 is too large",
        ),
        (
            ["certify", "--set", "family=quartic", "--set", "bbar=1e307"],
            "bbar = 1e+307 is too large",
        ),
        # a radius outside the quartic family's range, huge ones included;
        # the family's r and the scan's bisect_r share one message
        (cex + ["--set", "r=5"], f"r must lie in (0, {RMAX}], the positivity radius, got 5.0"),
        (cex + ["--set", "r=1e100"], f"r must lie in (0, {RMAX}], the positivity radius, got 1e+1"),
        (["certify", "--set", "family=quartic", "--set", "r=5"], f"r must lie in (0, {RMAX}]"),
        (["certify", "--set", "family=quartic", "--set", "r=0"], f"r must lie in (0, {RMAX}]"),
        (["certify", "--set", "family=quartic", "--set", "r=1e100"], f"r must lie in (0, {RMAX}]"),
        # a tiny radius near the top of lam's range prints its digits
        (
            cex + ["--set", "lam=3.5e153,3.5e153,-7e153", "--set", "r=1e-76"],
            "r must lie in (0, 1.18555e-77], the positivity radius, got 1e-76",
        ),
        # a finite curvature input whose mass expansion is not finite,
        # refused in either format
        *(
            (["small-sphere", *sets, "--format", fmt], message)
            for fmt in ("json", "csv")
            for sets, message in (
                (
                    ["--set", "ric_sq=1e308"],
                    "the mass expansion overflows at r = 0.1, R = 0.0, ric_sq = 1e+308, lapR = 0.0",
                ),
                (
                    ["--set", "ric_sq=1e306", "--set", "r_list=10"],
                    "the mass expansion overflows at r = 10.0, R = 0.0, ric_sq = 1e+306, lapR = 0.0",
                ),
            )
        ),
    ):
        capsys.readouterr()
        # nothing warns on the way, so stderr stays empty
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith(f"error: {message}") and printed.err == ""
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("raw", ["1e-2,,1e-3", "1e-2,1e-3,", ",1e-2", "1e-2, ,1e-3"])
def test_an_empty_entry_of_a_list_is_refused(raw, capsys):
    # a doubled, leading or trailing comma used to drop the empty entry,
    # so the scan ran silently on fewer radii than were typed
    assert main(["scan", "--grid", "8x16", "--ltrunc", "4", "--set", f"r_list={raw}"]) == 2
    printed = capsys.readouterr()
    assert printed.out == f"error: r_list must be a list of numbers, got {raw!r}\n" and printed.err == ""


def test_certificate_constants_too_large_exit_two(capsys, monkeypatch):
    # a certificate constant whose thresholds overflow, or round theta to 1,
    # is refused by name before the conditions and the pencil; the default
    # alpha is inf H, which needs the grid
    def refuse(*args):
        raise AssertionError("a bad certificate constant reached the conditions or the pencil")

    for name in ("check_deficit_conditions", "assemble_pencil"):
        monkeypatch.setattr(cli_module, name, refuse)
    named = "certificate constants too large or small for the arithmetic: Certificate(beta="
    for sets, message in (
        (["alpha=1e200"], f"{named}0.3333333333333333, lambda1=2.0, alpha=1e+200,"),
        (["beta=1e200"], f"{named}1e+200, lambda1=2.0, alpha=1.99,"),
        (["lambda1=1e308"], f"{named}0.3333333333333333, lambda1=1e+308, alpha=1.99,"),
        (["family=quartic", "bbar=1e300"], f"{named}0.3333333333333333, lambda1=2.0, alpha=6"),
    ):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", *(f"--set={s}" for s in sets)]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith(f"error: {message}") and printed.err == ""


def test_underflowing_and_overflowing_constants_exit_two(capsys):
    # subnormal certificate constants that underflow a denominator of delta,
    # and a bbar shift lap_r / (60 ric_sq) that overflows, are refused in one
    # error line that names the inputs, in either format, not by the report's
    # renderer or a traceback
    named = "certificate constants too large or small for the arithmetic: Certificate(beta="
    shift = "bbar = b - lap_r / (60 ric_sq) overflows at b = 0.0, lap_r = {}, ric_sq = {}\n"
    certify = ["certify", "--grid", "13x26", "--ltrunc", "12", "--set", "family=const"]
    sphere = ["small-sphere", "--set", "curv_r=0", "--set", "b=0"]
    for argv, message in (
        (certify + ["--set", "beta=5e-324"], f"{named}5e-324, lambda1=2.0, alpha=1.99,"),
        (
            certify + ["--set", "alpha=5e-324", "--set", "lambda1=5e-324"],
            f"{named}0.3333333333333333, lambda1=5e-324, alpha=5e-324,",
        ),
        *(
            (sphere + [*sets, "--format", fmt], message)
            for fmt in ("json", "csv")
            for sets, message in (
                (["--set", "ric_sq=1e-300", "--set", "lap_r=1e300"], shift.format(1e300, 1e-300)),
                (["--set", "ric_sq=5e-324", "--set", "lap_r=1"], shift.format(1.0, 5e-324)),
                # 60 ric_sq overflows: the shift used to drop to 0
                (
                    ["--set", "ric_sq=3e306", "--set", "lap_r=3e306", "--set", "r_list=1e-3"],
                    shift.format(3e306, 3e306),
                ),
            )
        ),
    ):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith(f"error: {message}") and printed.out.count("\n") == 1
        assert printed.err == ""


def test_sizes_past_the_byte_limit_are_refused_before_allocation(capsys, monkeypatch):
    # the rule is arithmetic on the sizes, checked here on huge values: the
    # largest size the repository uses takes a fiftieth of the limit, and a
    # huge grid or degree is refused before the grid or any basis array
    need = 8 * (97**2 + 7 * 97 * 194 + 2 * 97**2 * 97)
    assert need < 16e6 and 50 * need < cli_module.GRID_BYTES_LIMIT
    cli_module._check_size(97, 194, 96)
    # on a 2x4 grid the limit falls between L = 5791 and L = 5792
    cli_module._check_size(2, 4, 5791)
    with pytest.raises(ConfigError, match="grid 2x4 at L = 5792 needs 1 GiB of arrays, over the 1 GiB limit"):
        cli_module._check_size(2, 4, 5792)

    def refuse(*args):
        raise AssertionError("a size past the limit reached an allocation")

    cli_module._grid_basis.cache_clear()
    monkeypatch.setattr(cli_module, "build_grid", refuse)
    for argv, sizes in (
        (["scan", "--grid", "100000x200000"], "grid 100000x200000 at L = 8 needs 1.12e+03 GiB"),
        (["integrals", "--grid", "100000x200000"], "grid 100000x200000 at L = 0 needs 1.12e+03 GiB"),
        (["gform", "--ltrunc", "100000"], "grid 32x64 at L = 100000 needs 4.77e+03 GiB"),
        (["certify", "--grid", "12000x24000"], "grid 12000x24000 at L = 8 needs 16.1 GiB"),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        printed = capsys.readouterr()
        assert printed.out == f"error: {sizes} of arrays, over the 1 GiB limit\n" and printed.err == ""


def test_directions_past_the_byte_limit_are_refused_before_the_first_draw(tmp_path, capsys, monkeypatch):
    # 1e11 directions once drew Directions one by one until killed; the
    # rows they need are budgeted before the first one
    def refuse(*args):
        raise AssertionError("a count past the limit reached a draw")

    with monkeypatch.context() as drawn:
        drawn.setattr(cli_module, "_unit_direction", refuse)
        start = time.perf_counter()
        assert main(["gform", "--set", "directions=100000000000"]) == 2
        assert time.perf_counter() - start < 1.0
    printed = capsys.readouterr()
    assert printed.out == (
        "error: directions = 100000000000 needs 1.14e+06 GiB for the report rows, "
        "over the 1 GiB limit\n"
    ) and printed.err == ""

    # below a lowered limit that still admits the 32x64 grid at L = 8, 20
    # directions of three bbar rows fit and 21 do not
    per_direction = 3 * cli_module._GFORM_ROW_BYTES
    monkeypatch.setattr(cli_module, "GRID_BYTES_LIMIT", 20 * per_direction)
    out = tmp_path / "r.json"
    assert main(["gform", "--ltrunc", "8", "--set", "directions=20", "--out", str(out)]) == 0
    assert len(read_report(out)["results"]) == 60
    capsys.readouterr()
    assert main(["gform", "--ltrunc", "8", "--set", "directions=21"]) == 2
    assert capsys.readouterr().out.startswith("error: directions = 21 needs ")


def test_scan_rows_assembled_in_groups_keep_their_bytes(monkeypatch):
    # the nine rows share one layout and are assembled as one batch; below
    # a limit that fits two of them with their blocks, they are assembled
    # two at a time, and the report keeps its bytes
    argv = parse_args(["scan", "--grid", "13x26", "--ltrunc", "12"])
    batches = []
    real = harmonics_module._block_gram

    def counted(flat, phi, *args):
        batches.append(len(phi))
        return real(flat, phi, *args)

    monkeypatch.setattr(harmonics_module, "_block_gram", counted)
    _, text = run(argv)
    assert max(batches) == 9
    need, kept = harmonics_module._pencil_bytes(13, 12, (True, False, False, True))
    monkeypatch.setattr(harmonics_module, "GRID_BYTES_LIMIT", 2 * (need + kept))
    batches.clear()
    assert run(argv)[1] == text
    assert max(batches) == 2


def test_scan_frees_each_groups_blocks_before_the_next_builds(monkeypatch):
    # the limit sizes a group with its blocks kept, so it holds for a report
    # only while one group's blocks are alive: below a limit that fits two
    # of the nine rows, no group, of the rows or of the bracket's two
    # ends, builds a block while another group's are still held
    need, kept = harmonics_module._pencil_bytes(13, 12, (True, False, False, True))
    monkeypatch.setattr(harmonics_module, "GRID_BYTES_LIMIT", 2 * (need + kept))
    groups, overlaps = [], []  # per group, weakrefs to the blocks it built
    real = harmonics_module._group_blocks

    def tracked(basis, w, mode):
        sets, build, parts = real(basis, w, mode)
        refs = []
        groups.append(refs)

        def read(i):
            overlaps.extend(n for n, other in enumerate(groups) if other is not refs and any(r() is not None for r in other))
            B = build(i)
            refs.append(weakref.ref(B))
            return B

        return sets, read, parts

    monkeypatch.setattr(harmonics_module, "_group_blocks", tracked)
    gc.disable()
    try:
        report, _ = run(parse_args(["scan", "--grid", "13x26", "--ltrunc", "12"]))
    finally:
        gc.enable()
    assert report["summary"]["bisection"] is not None
    assert len(groups) > 5 and all(groups)
    assert overlaps == []


def test_a_refused_scan_row_is_skipped_alone():
    # a radius past the positivity radius refuses its rows, with the notice
    # quartic gives, and every other row keeps its bytes
    argv = ["scan", "--grid", "13x26", "--ltrunc", "12", "--set"]
    report, _ = run(parse_args([*argv, "r_list=0.1,0.9,1e-2"]))
    plain, _ = run(parse_args([*argv, "r_list=0.1,1e-2"]))
    with pytest.raises(ValueError) as refusal:
        quartic(RicciEigs(np.array([1.0, 1.0, -2.0])), 0.0, 0.9)
    rows = report["results"]
    assert [row["r"] for row in rows if row["skipped"]] == [0.9] * 3
    assert all(row["notice"] == str(refusal.value) for row in rows if row["skipped"])
    assert json.dumps([row for row in rows if not row["skipped"]]) == json.dumps(plain["results"])


def counted_assembly(monkeypatch):
    # the number of fields of each gram_blocks call that a pencil assembly makes
    calls = []
    real = functional_module.gram_blocks

    def counted(basis, w_lap, w_grad):
        calls.append(len(w_lap))
        return real(basis, w_lap, w_grad)

    monkeypatch.setattr(functional_module, "gram_blocks", counted)
    return calls


L24 = ["--grid", "25x50", "--ltrunc", "24"]
# three distinct lam: the 8 parity classes of the pencil
PARITY_L16 = ["--grid", "17x34", "--ltrunc", "16", "--set", "lam=0.7,0.5,-1.2"]
GUARD = 1.0 / 3600.0  # the band the summary widens its bracket by


def assert_bracket_holds(config, bisection):
    # bbar_star, the best iterate, is an end of the unguarded bracket, so
    # it lies in it; taking the guard off can move an end by an ulp, so the
    # signs are read at bbar_star itself and at the other end.  f, each
    # value from a pencil of its own field alone, is > 0 at one and <= 0 at
    # the other, and the bracket is at most the stopping width wide,
    # BRACKET_TARGET / 2 plus Brent's relative term
    star = bisection["bbar_star"]
    lo, hi = bisection["bracket_lo"] + GUARD, bisection["bracket_hi"] - GUARD
    near, far = sorted((lo, hi), key=lambda x: abs(x - star))
    assert abs(near - star) <= 2 * math.ulp(star)
    signs = {reference.unrestricted_minimum(config, x) > 0 for x in (star, far)}
    assert signs == {True, False}
    assert hi - lo <= cli_module.BRACKET_TARGET / 2 + 4 * math.ulp(1.0) * abs(star)


@pytest.mark.parametrize(
    "argv, verdict, contains",
    [
        (L24, "PASS", True),  # the default bracket
        ([*L24, "--set", "bracket=0,0.02"], "PASS", True),
        ([*L24, "--set", "bracket=0.05,0.06"], "FAIL", None),  # no sign change
        # the sign change sits at bbar = 1.45e137, where adjacent floats
        # are farther apart than the target: the relative term ends it
        (["--grid", "7x26", "--ltrunc", "3", "--set", "bracket=0,1e300", "--set", "bisect_r=1.3e-77"], "FAIL", False),
        (PARITY_L16, "PASS", True),
    ],
    ids=["default", "odd", "no-sign-change", "huge-bbar", "parity"],
)
def test_the_bracket_ends_show_the_sign_change_of_one_field_pencils(argv, verdict, contains):
    # the verdict and contains_threshold of these five scans are those
    # that bisecting in bbar gives
    config = parse_args(["scan", *argv])
    report, _ = run(config)
    bisection = report["summary"]["bisection"]
    assert report["verdict"] == verdict
    if contains is None:
        assert bisection is None
        assert not reference.unrestricted_minimum(config, config.bracket[0]) > 0
        return
    assert bisection["contains_threshold"] is contains
    assert_bracket_holds(config, bisection)


def test_the_default_scan_assembles_its_rows_its_ends_then_one_field_per_step(monkeypatch):
    # the nine rows in one call, lo and hi in a second, then one field per
    # step of Brent's method: two steps reach the stopping width
    calls = counted_assembly(monkeypatch)
    report, _ = run(parse_args(["scan", *L24]))
    assert report["verdict"] == "PASS"
    assert calls == [9, 2, 1, 1]


def test_a_sign_change_at_a_huge_bbar_ends_in_few_steps(monkeypatch):
    # from (0, 1e300) to the sign change at 1.45e137, halving bbar on a
    # linear scale reads about 600 points; Brent's steps, one field each,
    # take at most 150 calls
    calls = counted_assembly(monkeypatch)
    argv = ["scan", "--grid", "7x26", "--ltrunc", "3", "--set", "bracket=0,1e300", "--set", "bisect_r=1.3e-77"]
    report, _ = run(parse_args(argv))
    assert report["verdict"] == "FAIL"
    assert report["summary"]["bisection"]["width"] > cli_module.BRACKET_TARGET
    assert calls[:2] == [9, 2] and set(calls[2:]) == {1}
    assert len(calls) <= 150


def test_a_refused_hi_past_a_non_positive_lo_refuses_nothing(tmp_path, monkeypatch):
    # f(lo) <= 0 at bbar = 0.05, so there is no sign change to bracket and
    # hi = 1e305, whose pencil the Gram-sum rule refuses, is never read:
    # that refuses the call that assembles both ends before any Gram work,
    # each is assembled alone, and only lo reaches gram_blocks; the report
    # is a FAIL with the rows and summary of a bracket that refuses nothing
    argv = ["scan", *L24, "--set"]
    grid = build_grid(25, 50)
    with pytest.raises(ValueError, match="h = H - 2 is too large for the Gram sums"):
        assemble_pencil(build_basis(grid, 24), [h_family(RicciEigs(np.array([1.0, 1.0, -2.0])), 1e305, 1e-2, grid)])
    calls = counted_assembly(monkeypatch)
    out = tmp_path / "r.json"
    assert main([*argv, "bracket=0.05,1e305", "--out", str(out)]) == 1
    assert calls == [9, 1]
    report = read_report(out)
    assert report["summary"]["bisection"] is None
    assert not reference.unrestricted_minimum(parse_args([*argv, "bracket=0.05,1e305"]), 0.05) > 0
    plain, _ = run(parse_args([*argv, "bracket=0.05,0.06"]))
    plain["config"]["bracket"] = [0.05, 1e305]
    assert out.read_text() == cli_module.render_json(plain)


def test_a_field_refused_in_a_batch_loses_only_its_own_pencil():
    # a refusal inside the assembly refuses the whole call; field_minima
    # then solves each field alone: the refused field gets the error its
    # pencil gets alone, and every other field the minima it gets alone
    grid = build_grid(13, 26)
    basis = build_basis(grid, 12)
    eigs = RicciEigs(np.array([1.0, 1.0, -2.0]))
    ok = [h_family(eigs, bbar, 1e-2, grid) for bbar in (0.0, 1.0 / 30.0)]
    huge = mean_curvature_from_h(grid, np.full(grid.n_nodes, 2.0 * harmonics_module._gram_limit(basis)))
    with pytest.raises(ValueError, match="too large for the Gram sums"):
        assemble_pencil(basis, [ok[0], huge, ok[1]])
    with pytest.raises(ValueError) as alone_refused:
        assemble_pencil(basis, [huge])
    first, refused, last = field_minima(basis, [ok[0], huge, ok[1]], (False, True))
    assert isinstance(refused, ValueError) and str(refused) == str(alone_refused.value)
    assert str(refused).startswith("h = H - 2 is too large")
    for minima, H in ((first, ok[0]), (last, ok[1])):
        [alone] = assemble_pencil(basis, [H])
        assert minima == (pencil_minimum(alone), pencil_minimum(alone, True))


def test_pencils_past_the_byte_limit_are_refused_before_any_block(capsys, monkeypatch):
    # the rule is arithmetic on the layout's shapes, checked here on sizes
    # that no test allocates: an odd n_phi at L = 200 leaves 4 parity
    # classes of up to 10,200 rows, whose blocks with the two temporaries
    # of their symmetry check take 2.33 GiB while the grid and basis take
    # 0.13 GiB
    check = harmonics_module._check_pencil_size
    cli_module._check_size(201, 403, 200)
    with pytest.raises(ValueError, match=r"pencil on grid 201x403 at L = 200 needs 2.33 GiB for its largest block or product, over the 1 GiB limit"):
        check(201, 403, 200, (False, False, True, True))
    with pytest.raises(ValueError, match=r"pencil on grid 391x782 at L = 390 needs 8.33 GiB"):
        check(391, 782, 390, (False, True, True, True))
    with pytest.raises(ValueError, match=r"pencil on grid 97x194 at L = 96 needs 1.98 GiB"):
        check(97, 194, 96, (False, False, False, False))
    # ring-constant pencils, and the parity pencils of the largest size the
    # repository uses, stay admitted
    check(391, 782, 390, (True, False, False, False))
    check(391, 782, 390, (True, False, False, True))
    check(97, 194, 96, (False, True, True, True))
    check(97, 195, 96, (False, False, True, True))
    assert harmonics_module.GRID_BYTES_LIMIT is cli_module.GRID_BYTES_LIMIT

    # below a lowered limit, the 8-class pencil at 13x26, L = 12 (36,624
    # bytes) is refused before any block is built, and the scan (whose
    # rows are skipped, and whose bisection then refuses it) and certify
    # exit 2; the (order, x3 parity) pencils (2,184 bytes) of the const
    # family and of lam = (1, 1, -2) are not refused
    def refuse(*args):
        raise AssertionError("a pencil past the limit reached a block")

    monkeypatch.setattr(harmonics_module, "GRID_BYTES_LIMIT", 4096)
    size = ["--grid", "13x26", "--ltrunc", "12"]
    with monkeypatch.context() as parity:
        parity.setattr(harmonics_module, "_block_gram", refuse)
        for argv in (["scan"], ["certify", "--set", "family=quartic"]):
            capsys.readouterr()
            assert main([*argv, *size, "--set", "lam=0.7,0.5,-1.2"]) == 2
            printed = capsys.readouterr()
            assert printed.out == (
                "error: pencil on grid 13x26 at L = 12 needs 3.41e-05 GiB for its largest block "
                "or product, over the 3.81e-06 GiB limit\n"
            ) and printed.err == ""
    assert main(["certify", *size]) == 0
    assert main(["certify", *size, "--set", "family=quartic"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["gform", "--set", "bbar_list=2e306,-2e306"],
        ["scan", "--set", "bbar_list=2e306"],
        ["counterexample", "--ltrunc", "3", "--set", "bbar=2e306"],
        ["certify", "--set", "alpha=1e154"],
        ["certify", "--set", "beta=1e16"],
        ["certify", "--set", "lambda1=1e300"],
        ["certify", "--set", "family=quartic", "--set", "bbar=1e157"],
    ],
)
def test_inputs_just_inside_the_arithmetic_pass(argv, tmp_path):
    # a value just inside each rule gives a finite report, and a PASS
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out)]) == 0
    assert read_report(out)["verdict"] == "PASS"


def test_gform_needs_degree_two(tmp_path, capsys):
    assert main(["gform", "--ltrunc", "1", "--grid", "4x8"]) == 2
    assert "ltrunc" in capsys.readouterr().out
    # at L = 2 the degree-3 minimizer is truncated away: a FAIL, not bad input
    out = tmp_path / "r.json"
    assert main(["gform", "--ltrunc", "2", "--grid", "8x16", "--out", str(out)]) == 1


def test_gform_builds_no_gram(tmp_path, monkeypatch):
    # the quadratic part of G is the exact round diagonal, so a report
    # assembles and solves no Gram matrix
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    for module in (harmonics_module, functional_module, gform_module, cli_module):
        if hasattr(module, "gram_blocks"):
            monkeypatch.setattr(module, "gram_blocks", counted("gram_blocks", module.gram_blocks))
    out = tmp_path / "r.json"
    assert main(["gform", "--ltrunc", "8", "--set", "directions=8", "--out", str(out)]) == 0
    assert len(read_report(out)["results"]) == 24
    assert calls == []


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_gform_discriminant_check_scales_with_lam(scale, tmp_path, monkeypatch):
    # both sides of beta^2 - alpha gamma = -gamma min G are roundoff of
    # order 1e-16 sum lam^2 at bbar = 1/90, so the check is relative to
    # sum lam^2 as the min G check is: 1e3 (1, 1, -2) failed an absolute
    # floor of 1, and 1e-11 sum lam^2 off still fails every row
    lam = scale * np.array([1.0, 1.0, -2.0])
    argv = ["gform", "--ltrunc", "8", "--set", "directions=2", "--set", f"lam={','.join(map(str, lam))}"]
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert all(row["pass"] for row in read_report(out)["results"])

    real = cli_module.g_quadratic

    def off(eigs, direction, bbars):
        return [
            GQuadratic(**{**vars(q), "discriminant": q.discriminant + 1e-11 * eigs.sum_sq})
            for q in real(eigs, direction, bbars)
        ]

    monkeypatch.setattr(cli_module, "g_quadratic", off)
    assert main(argv + ["--out", str(out)]) == 1
    assert not any(row["pass"] for row in read_report(out)["results"])


def test_gform_solves_once_per_direction(tmp_path, monkeypatch):
    # bbar only shifts the minimum and one 3x3 matrix gives it in every
    # direction, so one call serves the report: three cross-term vectors,
    # not one per direction, and not one per (direction, bbar) pair
    calls, vectors = [], []

    def counted(basis, eigs, directions, bbars):
        calls.append(len(bbars))
        return real(basis, eigs, directions, bbars)

    def cross(basis, eigs, direction, eta2=None):
        vectors.append(eta2)
        return real_cross(basis, eigs, direction, eta2)

    real, real_cross = gform_module.minimize_G, gform_module._g_cross
    monkeypatch.setattr(cli_module, "minimize_G", counted)
    monkeypatch.setattr(gform_module, "_g_cross", cross)
    out = tmp_path / "r.json"
    assert main(["gform", "--ltrunc", "8", "--set", "directions=8", "--out", str(out)]) == 0
    assert len(read_report(out)["results"]) == 24
    assert calls == [3]
    assert vectors == [None] * 3


def cex_sweep(L: int, witness_dir) -> list[RunConfig]:
    """The counterexample sweep over (bbar, r) of the cex_l48 benchmark, at degree cap L."""
    return [
        RunConfig(
            command="counterexample",
            n_theta=L + 1,
            n_phi=2 * L + 2,
            ltrunc=L,
            bbar=bbar,
            r=r,
            witness=str(Path(witness_dir) / f"w{i}.json"),
        )
        for i, (bbar, r) in enumerate(
            (bbar, r) for bbar in (0.02, 1.0 / 30.0) for r in (1e-1, 1e-2, 1e-3, 1e-4)
        )
    ]


def test_reports_at_one_size_build_grid_and_basis_once(tmp_path, monkeypatch):
    built = []

    def counted(name, real):
        def build(*args):
            built.append(name)
            return real(*args)

        return build

    for name in ("build_grid", "build_basis"):
        monkeypatch.setattr(cli_module, name, counted(name, getattr(cli_module, name)))
    sizes = []
    for config in cex_sweep(8, tmp_path):
        run(config)
        sizes.append(cli_module._grid_basis.cache_info().currsize)
    assert built == ["build_grid", "build_basis"]
    # another size rebuilds and replaces the kept pair; the first size then rebuilds too
    for config in (replace(config, ltrunc=6), config):
        run(config)
        sizes.append(cli_module._grid_basis.cache_info().currsize)
    assert built == ["build_grid", "build_basis"] * 3
    assert sizes == [1] * 10


def test_a_sweep_that_alternates_directions_matches_reports_with_nothing_kept(tmp_path):
    # the kept basis holds one eta2 entry, for the last (lam, a); alternating
    # a recomputes it each report, and every report and witness is byte for
    # byte the one a fresh basis, with no entry kept, gives
    sweep = [replace(c, a=(0.0, 0.6, 0.8)) if i % 2 else c for i, c in enumerate(cex_sweep(8, tmp_path))]
    warm = [(run(config)[1], Path(config.witness).read_bytes()) for config in sweep]
    for config, (text, witness) in zip(sweep, warm):
        cli_module._grid_basis.cache_clear()
        assert run(config)[1] == text
        assert Path(config.witness).read_bytes() == witness


def test_a_sweep_enters_optimal_eta2_once_per_report(tmp_path, monkeypatch):
    # the kept eta2 is reused inside the call, so a tracer still sees one
    # call per report
    calls = []
    real = models_module.optimal_eta2

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(models_module, "optimal_eta2", counted)
    sweep = cex_sweep(8, tmp_path)
    for config in sweep:
        run(config)
    assert len(calls) == len(sweep) == 8
    assert all(basis is calls[0] for basis in calls)


@pytest.mark.parametrize("command", cli_module.COMMANDS)
def test_warm_report_matches_cold_report(command, tmp_path):
    # the second report reads the grid and basis the first one kept, and
    # its report and witness are byte-identical to the first's
    config = RunConfig(command=command, witness=str(tmp_path / "w.json"))
    outputs = []
    for _ in range(2):
        text = run(config)[1]
        witness = (tmp_path / "w.json").read_bytes() if command == "counterexample" else None
        outputs.append((text, witness))
    assert outputs[0] == outputs[1]
    uses_basis = command not in ("integrals", "small-sphere")
    assert cli_module._grid_basis.cache_info().hits == uses_basis


def _fresh_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's package; its stdout."""
    src = str(Path(wy_stability.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_cli_import_leaves_scipy_out():
    # importing scipy.linalg alone costs several times the set-up of a gform report
    code = "import sys, wy_stability.cli; print('scipy' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_runtime_imports_numpy_alone():
    # numpy is the one runtime dependency: importing the CLI, and with it
    # every module of the package, in a fresh interpreter loads none of the
    # packages that only the tests or the benchmark use
    code = (
        "import json, pkgutil, sys, wy_stability, wy_stability.cli\n"
        "package = [f'wy_stability.{m.name}' for m in pkgutil.iter_modules(wy_stability.__path__)]\n"
        "unloaded = [m for m in package if m not in sys.modules]\n"
        "print(json.dumps([len(package), unloaded, sorted(m for m in sys.modules if '.' not in m)]))"
    )
    modules, unloaded, loaded = json.loads(_fresh_python(code))
    assert modules == 6 and unloaded == []
    assert "numpy" in loaded
    assert not {"scipy", "mpmath", "sympy", "hypothesis", "jsonschema"} & set(loaded)


def test_set_up_loads_only_what_it_uses():
    # the set-up of every report, importing the CLI and building a grid and
    # basis, loads none of the modules that only the argument parser, the
    # CSV export, the monomial oracle or type checkers use; what numpy
    # itself loads is subtracted
    code = (
        "import json, sys, numpy\n"
        "before = set(sys.modules)\n"
        "import wy_stability.cli\n"
        "from wy_stability.harmonics import build_basis\n"
        "from wy_stability.quad import build_grid\n"
        "build_basis(build_grid(25, 50), 24)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    added = set(json.loads(_fresh_python(code)))
    assert "wy_stability.quad" in added
    unused = ("argparse", "csv", "fractions", "decimal", "numpy.typing", "numpy.polynomial")
    assert not set(unused) & added


def test_run_config_is_the_only_dataclass():
    # a frozen dataclass compiles six methods with exec when its module is
    # imported, about 0.7 ms a class on Python 3.11, most of the package's
    # import time; the records are plain classes on quad.Record, and only
    # RunConfig, read by dataclasses.fields and replace, stays a dataclass
    code = (
        "import dataclasses, json, sys, wy_stability.cli\n"
        "print(json.dumps(sorted(f'{name}.{k}' for name, module in list(sys.modules.items())\n"
        "    if name.startswith('wy_stability') for k, v in vars(module).items()\n"
        "    if isinstance(v, type) and v.__module__ == name and dataclasses.is_dataclass(v))))"
    )
    found = json.loads(_fresh_python(code))
    assert found == ["wy_stability.cli.RunConfig"], (
        f"dataclasses {found}: each compiles six methods at import, ~0.7 ms a class on Python 3.11"
    )


def test_commands_never_build_full_tables(tmp_path, monkeypatch):
    # every computation works on the separable factors and the pencil's
    # blocks; the (L+1)^2 x n_nodes tables and the dense M exist only to
    # be inspected
    def refuse(self):
        raise AssertionError("a full basis table or the dense M was assembled")

    for name in ("values", "dtheta", "dphi"):
        monkeypatch.setattr(HarmonicBasis, name, property(refuse))
    monkeypatch.setattr(HessianPencil, "M", property(refuse))
    grid = build_grid(25, 50)
    tracemalloc.start()
    try:
        build_basis(grid, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25**2 * grid.n_nodes * 8  # one table would take 6.25 MB

    # an odd n_phi loses the x1 reflection; every command still runs
    # without the tables or the dense M
    for n_theta, n_phi in ((8, 16), (9, 19)):
        base = RunConfig(n_theta=n_theta, n_phi=n_phi, ltrunc=4, witness=str(tmp_path / "w.json"))
        for command, extra in (
            ("counterexample", {}),
            ("scan", {}),
            ("gform", {"directions": 2}),
            ("certify", {}),
            ("certify", {"family": "quartic"}),
        ):
            report, _ = run(replace(base, command=command, **extra))
            assert report["verdict"] in ("PASS", "FAIL")


def test_pencil_stays_below_one_dense_M():
    # the family at lam = (1, 1, -2) does not depend on phi and is even
    # under x3: the pencil keeps one row set per (order, parity of l + |m|,
    # trig type), 4L of them, and the cos and sin row sets of an (order,
    # parity) share one matrix, 2L + 1 matrices in all
    grid = build_grid(25, 50)
    basis = build_basis(grid, 24)
    H = h_family(RicciEigs(np.array([1.0, 1.0, -2.0])), 1.0 / 30.0, 1e-2, grid)
    tracemalloc.start()
    try:
        pencil = assemble_pencil(basis, [H])[0]
        min_pencil_eigenvalue(pencil)
        min_pencil_eigenvalue(pencil, restrict=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(rows) for rows, _ in reference.blocks(pencil)) == 4 * 24
    assert len({id(block) for _, block in reference.blocks(pencil)}) == 2 * 24 + 1
    assert peak < (25**2 - 1) ** 2 * 8  # one dense M would take 3.12 MB


def test_parity_pencil_keeps_little_between_calls():
    # three distinct lam give the 8 parity classes; the blocks are read
    # back by per-row index vectors, so what is kept between calls grows
    # with the row count, not with the block entries (6.7 MB once)
    eigs = RicciEigs(np.array([0.7, 0.5, -1.2]))
    warm = build_grid(25, 50)
    assemble_pencil(build_basis(warm, 24), [h_family(eigs, 1.0 / 30.0, 1e-2, warm)])
    grid = build_grid(49, 98)
    basis = build_basis(grid, 48)
    H = h_family(eigs, 1.0 / 30.0, 1e-2, grid)
    harmonics_module._layout.cache_clear()
    tracemalloc.start()
    try:
        pencil = assemble_pencil(basis, [H])[0]
        assert len(reference.blocks(pencil)) == 8
        del pencil
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1e6


def test_counterexample_at_degree_96(tmp_path, monkeypatch):
    # the full tables would take 4.2 GB at this degree cap
    built = []

    def keep(grid, L):
        built.append(real(grid, L))
        return built[-1]

    real = cli_module.build_basis
    monkeypatch.setattr(cli_module, "build_basis", keep)
    bbar = 1.0 / 30.0
    config = RunConfig(
        command="counterexample",
        n_theta=97,
        n_phi=194,
        ltrunc=96,
        bbar=bbar,
        r=1e-3,
        witness=str(tmp_path / "w.json"),
    )
    report, _ = run(config)
    assert report["verdict"] == "PASS"
    target = 4.0 * math.pi * (1.0 / 90.0 - bbar) * 6.0  # sum lam^2 = 6
    assert abs(report["results"][0]["F_over_r4"] - target) <= 0.005 * abs(target)
    (basis,) = built
    # rad and drad, views of legendre that the run cached, count twice
    arrays = vars(basis).values()
    assert sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) < 64e6


PARSED_FIELDS = [
    f.name
    for f in fields(RunConfig)
    if f.type in ("int", "float", "float | None", "bool", "tuple")
]


@pytest.mark.parametrize("name", PARSED_FIELDS)
def test_set_default_reproduces_default(name):
    default = getattr(RunConfig(), name)
    raw = ",".join(map(repr, default)) if isinstance(default, tuple) else repr(default)
    value = getattr(parse_args(["gform", "--set", f"{name}={raw}"]), name)
    assert value == default
    assert type(value) is type(default)


def test_report_shape_and_schema(tmp_path):
    out = tmp_path / "report.json"
    assert main(["gform", "--grid", "24x48", "--ltrunc", "6", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["schema_version"] == 1
    assert report["command"] == "gform"
    assert report["verdict"] == "PASS"
    assert report["timings"] is None
    assert report["config"]["n_theta"] == 24
    assert "out" not in report["config"]
    assert len(report["results"]) == len(report["config"]["bbar_list"])
    for row in report["results"]:
        assert row["pass"] is True
        assert row["classification"] in ("POSITIVE", "INDEFINITE", "BORDERLINE")


def test_schema_lists_the_cli_commands_and_formats():
    # the schema keeps its own copies of the command and format lists
    props = SCHEMA["properties"]
    assert tuple(props["command"]["enum"]) == cli_module.COMMANDS
    assert tuple(props["config"]["properties"]["format"]["enum"]) == cli_module.FORMATS


def test_reports_are_byte_deterministic(tmp_path):
    args = ["scan", "--grid", "24x48", "--ltrunc", "5", "--set", "r_list=0.1,0.01"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timings_only_when_requested(tmp_path):
    out = tmp_path / "t.json"
    assert main(["small-sphere", "--set", "curv_r=2", "--timings", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["timings"] is not None
    assert report["timings"]["total_s"] >= 0.0


def test_csv_export(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["small-sphere", "--format", "csv", "--set", "curv_r=2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,mass_expansion"
    assert len(lines) == 1 + 3  # default r_list has three entries


def test_scan_report_contents(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["scan", "--ltrunc", "6", "--out", str(out)]) == 0
    report = read_report(out)
    bis = report["summary"]["bisection"]
    assert bis["contains_threshold"] is True
    assert bis["width"] < 1.0 / 450.0
    assert bis["bracket_lo"] < 1.0 / 90.0 < bis["bracket_hi"]
    for row in report["results"]:
        if row["skipped"]:
            assert "notice" in row
            continue
        if row["bbar"] < 1.0 / 30.0:
            assert row["deficit_closed"] > 0.0
        assert abs(row["deficit_closed"] - row["deficit_quadrature"]) < 1e-10


def test_scan_on_odd_n_phi_matches_even_grid_at_small_radius():
    # three distinct lam on 25x51: the pencil splits by x2 and x3 alone,
    # and min/r^4 at r = 1e-3 and 1e-4 matches the 8-class pencil of 25x50
    base = RunConfig(command="scan", ltrunc=24, lam=(0.7, 0.5, -1.2), r_list=(1e-3, 1e-4))
    odd, _ = run(replace(base, n_theta=25, n_phi=51))
    even, _ = run(replace(base, n_theta=25, n_phi=50))
    assert len(odd["results"]) == len(even["results"]) == 6
    for a, b in zip(odd["results"], even["results"]):
        assert (a["bbar"], a["r"]) == (b["bbar"], b["r"])
        assert abs(a["min_eig_over_r4"] - b["min_eig_over_r4"]) < 1e-5
    row = odd["results"][-1]
    assert (row["bbar"], row["r"]) == (1.0 / 30.0, 1e-4)
    assert abs(row["min_eig_over_r4"] - -0.0363335) < 1e-6


def test_scan_passes_where_the_deficit_underflows(tmp_path):
    # 4 pi r^4 (1/30 - bbar) sum lam^2 underflows to 0.0 at r = 1e-76; its
    # sign is positive for every bbar below 1/30, so the row fails no check
    out = tmp_path / "r.json"
    args = ["scan", "--grid", "13x26", "--ltrunc", "12", "--set", "lam=1e-8,1e-8,-2e-8",
            "--set", "bbar_list=0.0333333333333333", "--set", "r_list=1e-76,1e-2"]
    assert main(args + ["--out", str(out)]) == 0
    report = read_report(out)
    assert report["results"][0]["deficit_closed"] == 0.0
    assert report["summary"]["bisection"]["contains_threshold"] is True


def test_scan_skips_row_where_h_is_not_positive(tmp_path):
    # H = 2 + r^2 phi - (1/30 + 200) r^4 sum lam^2 dips below zero at r = 0.5
    out = tmp_path / "skip.json"
    args = ["scan", "--ltrunc", "4", "--set", "bbar_list=-200", "--set", "r_list=0.5"]
    assert main(args + ["--out", str(out)]) == 0
    report = read_report(out)
    [row] = report["results"]
    assert row["skipped"] is True
    assert "mean curvature must be positive" in row["notice"]


def test_overflowing_inputs_exit_as_documented(tmp_path, capsys):
    # r^4, r^5 or R^2 of a huge input overflows a Python float; each run
    # ends in a report or an error line that names the input, never in a
    # traceback.  (1/30 - bbar) r^4 overflows at bbar = 1e305, r = 20,
    # inside the positivity radius of this lam (about 22): h would be inf,
    # which passes 2 + h > 0, and the pencil solve used to end in a
    # traceback; the deficit rule refuses the row before h is sampled.
    # At bbar = 1e302 h is finite but the deficit 4 pi r^4 (1/30 - bbar)
    # sum lam^2 is not, and the report could not render; at bbar = 1e306
    # and r = 1.5, h is finite but its Gram ring sums overflow
    out = tmp_path / "r.json"
    witness = f"witness={tmp_path / 'w.json'}"
    too_far = f"r must lie in (0, {RMAX}], the positivity radius, got 1e+100"
    deficit = "is too large at r = {}: 4 pi r^4 (1/30 - bbar) sum lam^2 overflows"
    big_h = "h = H - 2 is too large for the Gram sums: max |h| = {} > 1.29254e+299"
    small = ["--set", "lam=1e-3,1e-3,-2e-3", "--set", "r_list=20"]
    for argv, notice in (
        (["--set", "r_list=1e100"], too_far),
        (small + ["--set", "bbar_list=1e305"], "bbar = 1e+305 " + deficit.format(20.0)),
        (small + ["--set", "bbar_list=1e302"], "bbar = 1e+302 " + deficit.format(20.0)),
        (
            ["--set", "lam=0.2,0.2,-0.4", "--set", "bbar_list=1e307", "--set", "r_list=1.5"],
            "bbar = 1e+307 " + deficit.format(1.5),
        ),
        (
            ["--set", "lam=0.2,0.3,-0.5", "--set", "bbar_list=1e307", "--set", "r_list=1.4"],
            "bbar = 1e+307 " + deficit.format(1.4),
        ),
        (
            ["--set", "lam=0.2,0.2,-0.4", "--set", "bbar_list=1e306", "--set", "r_list=1.5"],
            big_h.format("1.215e+306"),
        ),
        (
            ["--set", "lam=0.2,0.3,-0.5", "--set", "bbar_list=1e306", "--set", "r_list=1.4"],
            big_h.format("1.45981e+306"),
        ),
    ):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["scan", *argv, "--out", str(out)])
        assert capsys.readouterr().err == ""
        report = read_report(out)
        assert rc == (0 if report["verdict"] == "PASS" else 1)
        assert all(row["skipped"] and row["notice"] == notice for row in report["results"])
    huge = ["--set", "lam=0.2,0.2,-0.4", "--set", "bbar=1e306", "--set", "r=1.5", "--set", "alpha=1"]
    for argv, message in (
        (["counterexample", "--set", "r=1e100", "--set", witness], too_far),
        (["certify", "--set", "family=quartic", "--set", "r=1e100"], too_far),
        (["small-sphere", "--set", "r_list=1e100"], "the mass expansion overflows at r = 1e+100"),
        (["small-sphere", "--set", "curv_r=1e200"], "the mass expansion overflows at r = 0.1, R = 1e+200"),
        (
            ["counterexample", *small[:2], "--set", "r=20", "--set", "bbar=1e302", "--set", witness],
            "bbar = 1e+302 " + deficit.format(20.0),
        ),
        (["certify", "--set", "family=quartic", *huge], big_h.format("1.215e+306")),
        (
            ["scan", "--set", "lam=0.2,0.2,-0.4", "--set", "bracket=0.01,1e306", "--set", "bisect_r=1.5"],
            big_h.format("1.215e+306"),
        ),
    ):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith(f"error: {message}") and printed.err == ""
    assert not (tmp_path / "w.json").exists()


def test_counterexample_witness_roundtrip(tmp_path):
    out = tmp_path / "ce.json"
    wit = tmp_path / "wit.json"
    rc = main(
        [
            "counterexample",
            "--ltrunc",
            "6",
            "--out",
            str(out),
            "--set",
            "witness=" + str(wit),
        ]
    )
    assert rc == 0
    report = read_report(out)
    assert report["summary"]["witness_file"] == str(wit)
    row = report["results"][0]
    assert row["F_value"] < 0.0
    assert row["guaranteed"] is True
    assert row["relative_deviation"] < 1e-3

    # the witness file reproduces the in-process direction to roundoff
    grid = build_grid(32, 64)
    basis = build_basis(grid, 6)
    eigs = RicciEigs(np.array(report["config"]["lam"]))
    direction = Direction(np.array(report["config"]["a"]))
    nd = negative_direction(
        basis, eigs, report["config"]["bbar"], report["config"]["r"], direction
    )
    loaded = load_witness(str(wit))
    assert loaded.L == 6
    assert np.max(np.abs(loaded.c - nd.eta.c)) < 1e-12

    # reloaded coefficients still certify negativity
    H = h_family(eigs, report["config"]["bbar"], report["config"]["r"], grid)
    assert eval_F(basis, H, loaded) < 0.0


# values whose text json.dumps spells out: signed zeros, the smallest
# subnormal, the ends of the range, and NaN
WITNESS_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(
    L=st.integers(3, 10),
    fill=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    data=st.data(),
)
def test_witness_text_is_the_json_dump(L, fill, data):
    # sparse (mostly +0.0) and dense coefficient vectors alike
    n = (L + 1) ** 2
    picks = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    c = np.zeros(n)
    for i, pick in enumerate(picks):
        if pick or i < fill * n:
            c[i] = data.draw(WITNESS_VALUES)
    echo = cli_module._config_dict(RunConfig(command="counterexample", ltrunc=L))
    degrees = [l for l in range(L + 1) for _ in range(2 * l + 1)]
    orders = [m for l in range(L + 1) for m in range(-l, l + 1)]
    witness = {
        "L": L,
        "coeffs": [list(t) for t in zip(degrees, orders, c.tolist())],
        "config_echo": echo,
    }
    assert cli_module._witness_text(L, c, echo) == json.dumps(witness, sort_keys=True) + "\n"


def test_witness_text_loads_back_bit_for_bit(tmp_path):
    # signed zeros, a subnormal and NaN survive the file as written
    L = 3
    c = np.zeros((L + 1) ** 2)
    c[[1, 4, 7, 15]] = [-0.0, 5e-324, math.nan, -1e300]
    wit = tmp_path / "w.json"
    wit.write_text(cli_module._witness_text(L, c, {}))
    loaded = load_witness(str(wit))
    assert loaded.L == L
    np.testing.assert_array_equal(loaded.c, c)
    assert np.array_equal(np.signbit(loaded.c), np.signbit(c))


@pytest.mark.parametrize(
    "L, coeffs, message",
    [
        (2, [[0, 0, 1.0], [3, 1, 0.5]], r"entry \[3, 1, 0.5\] is no index of degree <= L = 2"),
        (2, [[1, 2, 1.0]], r"entry \[1, 2, 1.0\] is no index"),
        (2, [[1, 0, 1.0], [1, 0, 2.0]], r"entry \[1, 0, 2.0\] repeats \(l, m\) = \(1, 0\)"),
        (-1, [], "L must be >= 0, got -1"),
        (2, [[1.7, 0, 3.0]], r"entry \[1.7, 0, 3.0\] has a degree or order that is no integer"),
        (2, [[True, 1, 2.0]], r"entry \[True, 1, 2.0\] has a degree or order that is no integer"),
        (2, [[1, 0.0, 2.0]], r"entry \[1, 0.0, 2.0\] has a degree or order that is no integer"),
        (3.9, [], "L must be an integer, got 3.9"),
        (True, [], "L must be an integer, got True"),
        (10**9, [], r"L = 1000000000 needs 7.45e\+09 GiB of coefficients, over the 1 GiB limit"),
        # a value that is no JSON number is refused, not converted
        (2, [[1, 0, "1.5"]], r"entry \[1, 0, '1.5'\] has a value that is no number"),
        (2, [[1, 0, True]], r"entry \[1, 0, True\] has a value that is no number"),
        (2, [[1, 0, None]], r"entry \[1, 0, None\] has a value that is no number"),
        (2, [[1, 0, [1.0]]], r"entry \[1, 0, \[1.0\]\] has a value that is no number"),
        (2, [[1, 0, 10**400]], r"entry \[1, 0, 10+ has a value past the float range"),
        # an entry that is not [l, m, value], and coeffs that is no list
        (2, [[1, 0]], r"entry \[1, 0\] must be a list \[l, m, value\]"),
        (2, [[1, 0, 1.0, 2.0]], r"entry \[1, 0, 1.0, 2.0\] must be a list \[l, m, value\]"),
        (2, ["lmv"], r"entry 'lmv' must be a list \[l, m, value\]"),
        (2, [{"l": 1, "m": 0, "v": 1.0}], r"entry \{'l': 1, 'm': 0, 'v': 1.0\} must be a list"),
        (2, {"1,0": 1.0}, "coeffs must be a list, got dict"),
        (2, None, "coeffs must be a list, got NoneType"),
    ],
    ids=[
        "degree-past-L", "order-past-degree", "repeated-index", "negative-L",
        "fractional-degree", "bool-degree", "float-order", "fractional-L", "bool-L",
        "huge-L", "string-value", "bool-value", "null-value", "list-value", "huge-int-value",
        "short-entry", "long-entry", "string-entry", "object-entry", "object-coeffs", "null-coeffs",
    ],
)
def test_load_witness_refuses_bad_files(tmp_path, L, coeffs, message):
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps({"L": L, "coeffs": coeffs}))
    with pytest.raises(ValueError, match=message):
        load_witness(str(wit))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "the top level must be an object, got list"),
        ("3", "the top level must be an object, got int"),
        ('{"L": 2}', "no key 'coeffs'"),
        ('{"coeffs": []}', "no key 'L'"),
    ],
    ids=["list", "number", "no-coeffs", "no-L"],
)
def test_load_witness_refuses_a_file_without_its_keys(tmp_path, text, message):
    wit = tmp_path / "w.json"
    wit.write_text(text)
    with pytest.raises(ValueError, match=f"w.json: {message}$"):
        load_witness(str(wit))


def test_counterexample_fails_below_threshold(tmp_path):
    out = tmp_path / "ce0.json"
    rc = main(
        ["counterexample", "--ltrunc", "6", "--set", "bbar=0.0", "--out", str(out)]
    )
    assert rc == 1
    report = read_report(out)
    assert report["verdict"] == "FAIL"
    assert report["results"][0]["guaranteed"] is False


def test_a_counterexample_report_runs_the_family_rules_once(tmp_path, monkeypatch):
    # the report runs quartic's rules before the basis, and negative_direction
    # samples that checked family instead of running them again: one radius
    # and two deficits (at r = 1 and at r), in whichever module calls them
    calls = []
    modules = (cli_module, models_module, gform_module)
    for name in ("positivity_radius", "deficit_closed_form"):
        real = getattr(models_module, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    report, _ = run(RunConfig(command="counterexample", witness=str(tmp_path / "w.json")))
    assert report["verdict"] == "PASS"
    assert sorted(calls) == ["deficit_closed_form"] * 2 + ["positivity_radius"]


def test_small_sphere_degenerate_is_data_not_failure(tmp_path):
    out = tmp_path / "deg.json"
    rc = main(
        [
            "small-sphere",
            "--set", "curv_r=0",
            "--set", "ric_sq=0",
            "--set", "lap_r=0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = read_report(out)
    assert report["summary"]["case"] == "DEGENERATE"
    assert report["summary"]["classification"] is None
    assert "note" in report["summary"]
    assert all(row["mass_expansion"] == 0.0 for row in report["results"])


def test_certify_const_family(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--ltrunc", "6", "--out", str(out)]) == 0
    report = read_report(out)
    row = report["results"][0]
    assert row["conditions_pass"] is True
    assert row["min_eig_unrestricted"] > 0.0
    assert report["summary"]["certificate_sound"] is True


def test_certify_round_reference_has_no_deficit(tmp_path):
    out = tmp_path / "cert0.json"
    assert main(["certify", "--ltrunc", "6", "--set", "eps=0", "--out", str(out)]) == 0
    report = read_report(out)
    row = report["results"][0]
    assert row["cond_a"] is False
    assert row["conditions_pass"] is False
    # no certificate claim is made, so soundness holds vacuously
    assert report["summary"]["certificate_sound"] is True


def test_certify_const_deficit_keeps_a_tiny_eps(tmp_path):
    # the const family is built from h = -eps exactly: the deficit is
    # 4 pi eps to rounding, though 2 - 1e-14 rounds eps by 8e-4 relative
    out = tmp_path / "cert.json"
    assert main(["certify", "--ltrunc", "6", "--set", "eps=1e-14", "--out", str(out)]) == 0
    deficit = read_report(out)["results"][0]["margins"]["deficit"]
    exact = 4.0 * math.pi * 1e-14
    assert abs(deficit - exact) < 1e-14 * exact


def test_certify_conditions_refuse_indefinite_family(tmp_path):
    # above the threshold at a visible radius the ratio condition fails,
    # and the unrestricted pencil minimum is indeed negative while the
    # degree >= 2 restriction stays safely positive
    out = tmp_path / "cert60.json"
    rc = main(
        [
            "certify",
            "--set", "family=quartic",
            "--set", "bbar=0.016666666666666666",
            "--set", "r=0.2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = read_report(out)
    row = report["results"][0]
    assert row["cond_a"] is True and row["cond_b1"] is True
    assert row["cond_b2"] is False
    assert row["min_eig_unrestricted"] < 0.0
    assert row["min_eig_restricted"] > 0.3
    assert report["summary"]["certificate_sound"] is True


def test_run_unknown_command():
    with pytest.raises(ConfigError):
        run(RunConfig(command="nonsense"))


def test_stdout_output_parses(capsys):
    rc = main(["small-sphere", "--set", "curv_r=2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert report["command"] == "small-sphere"


def test_an_unwritable_out_exits_two_without_a_traceback(tmp_path, capsys, monkeypatch):
    def full(path, text):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(cli_module, "write_output", full)
        assert main(["integrals", "--out", str(tmp_path / "r.json")]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == ["error: [Errno 28] No space left on device"]
    assert err == ""
    if Path("/dev/full").exists():
        src = str(Path(wy_stability.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "wy_stability.cli", "integrals", "--out", "/dev/full"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stdout.startswith("error: ") and len(proc.stdout.splitlines()) == 1
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("stale", [b"x" * 100_000, b"{}"], ids=["longer", "shorter"])
def test_a_rewrite_over_a_stale_file_equals_a_fresh_write(tmp_path, stale):
    out, wit = tmp_path / "r.json", tmp_path / "w.json"
    argv = ["counterexample", "--out", str(out), "--set", f"witness={wit}"]
    assert main(argv) == 0
    fresh = out.read_bytes(), wit.read_bytes()
    out.write_bytes(stale)
    wit.write_bytes(stale)
    assert main(argv) == 0
    assert (out.read_bytes(), wit.read_bytes()) == fresh


def test_a_device_takes_the_report_and_the_witness(capsys):
    # a device reports size 0, so nothing tries to cut it to length
    assert main(["counterexample", "--set", "witness=/dev/null"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["witness_file"] == "/dev/null"
    assert main(["integrals", "--out", "/dev/null"]) == 0
    assert capsys.readouterr().out.splitlines() == ["report written to /dev/null", "verdict: PASS"]


def test_a_rewrite_never_truncates_the_old_file_to_zero(tmp_path, monkeypatch):
    # the report and the witness are written over their old bytes: opened
    # without O_TRUNC, and cut only to the new length when that is shorter
    out, wit = tmp_path / "r.json", tmp_path / "w.json"
    argv = ["counterexample", "--out", str(out), "--set", f"witness={wit}"]
    assert main(argv) == 0
    first = out.read_bytes(), wit.read_bytes()
    out.write_bytes(first[0] + b" " * 50)
    opens, cuts = [], []
    real_open, real_ftruncate = os.open, os.ftruncate

    def recording_open(path, flags, *args, **kwargs):
        opens.append((str(path), flags))
        return real_open(path, flags, *args, **kwargs)

    def recording_ftruncate(fd, length):
        cuts.append(length)
        return real_ftruncate(fd, length)

    with monkeypatch.context() as m:
        m.setattr(os, "open", recording_open)
        m.setattr(os, "ftruncate", recording_ftruncate)
        assert main(argv) == 0
    written = [(path, flags) for path, flags in opens if path in (str(out), str(wit))]
    assert sorted(path for path, _ in written) == sorted([str(out), str(wit)])
    for _, flags in written:
        assert flags & os.O_TRUNC == 0
        assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
    assert cuts == [len(first[0])]
    assert (out.read_bytes(), wit.read_bytes()) == first


def _oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


# keys with the characters that quoting escapes or a % format reads
JSON_KEYS = st.text(st.sampled_from('a%s"\\\x00\x1f\n\té€\U0001f600'), max_size=4) | st.text(max_size=4)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -(2**64) - 1, "%s", "%%"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_KEYS, inner, max_size=5),
    max_leaves=40,
)


def _holding(leaf):
    """JSON-like values with one ``leaf`` at any depth."""
    return st.recursive(
        leaf,
        lambda inner: st.builds(lambda xs, x, i: [*xs[:i], x, *xs[i:]], st.lists(JSON_VALUES, max_size=3), inner, st.integers(0, 3))
        | st.builds(lambda d, k, x: {**d, k: x}, st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=3), JSON_KEYS, inner),
        max_leaves=4,
    )


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"a%": [1, {"x": []}, [], "%s"], "b": {}, "c": (1, 2), "%": {"%%": ()}})
@example([{"a": [1.5, np.float64(0.1)]}, {"a": [[1], 2]}, {}, [[]], 7])
def test_render_json_is_the_indented_json_dump(value):
    assert cli_module.render_json(value) == _oracle(value)


@settings(max_examples=100, deadline=None)
@given(_holding(st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)])))
def test_render_json_refuses_non_finite_floats_at_any_depth(value):
    with pytest.raises(ValueError):
        _oracle(value)
    with pytest.raises(ValueError):
        cli_module.render_json(value)


@settings(max_examples=100, deadline=None)
@given(_holding(st.sampled_from([{1, 2}, frozenset(), b"x", 1j, np.int64(3), object()])))
def test_render_json_refuses_what_json_cannot_encode(value):
    with pytest.raises(TypeError):
        _oracle(value)
    with pytest.raises(TypeError):
        cli_module.render_json(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["integrals"],
        ["small-sphere", "--set", "curv_r=2", "--timings"],
        ["gform", "--grid", "13x26", "--ltrunc", "6"],
        ["scan", "--grid", "13x26", "--ltrunc", "6"],
        ["certify", "--ltrunc", "6"],
        ["certify", "--ltrunc", "6", "--set", "family=quartic"],
        ["counterexample", "--grid", "13x26", "--ltrunc", "12"],
    ],
)
def test_every_report_is_the_indented_json_dump(argv, tmp_path):
    report, text = run(parse_args([*argv, "--set", f"witness={tmp_path / 'w.json'}"]))
    assert text == _oracle(report)
    assert isinstance(report["timings"], dict) == ("--timings" in argv)


def test_the_layout_memo_stays_within_its_bound():
    report, _ = run(parse_args(["small-sphere", "--set", "curv_r=2"]))
    bound = cli_module._flat_layout.cache_info().maxsize
    for n in range(2 * bound + 5):
        report["config"]["r_list"] = [0.1 * (k + 1) for k in range(n)]
        assert cli_module.render_json(report) == _oracle(report)
        assert cli_module._flat_layout.cache_info().currsize <= bound


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _csv(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _mostly(usual, anything):
    # half the draws from the usual range, so most runs get past validation
    return st.one_of(usual, anything)


TRACELESS = st.tuples(_floats(-3, 3), _floats(-3, 3)).map(lambda p: (p[0], p[1], -(p[0] + p[1])))
# traceless triples up to 3e200, where sum lam_i^2 and the bound on A overflow
SCALED = st.tuples(TRACELESS, st.integers(0, 200)).map(
    lambda p: tuple(x * 10.0 ** p[1] for x in p[0])
)
# traceless triples down to 3e-8, whose positivity radius passes 1
SHRUNK = st.tuples(TRACELESS, st.integers(0, 8)).map(
    lambda p: tuple(x * 10.0 ** -p[1] for x in p[0])
)
# +-10^k up to 1e308, where the deficit at r, or h, overflows
POWERS = st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(0, 308)).map(
    lambda p: p[0] * 10.0 ** p[1]
)
# raw strings that are no finite number, and "1,,2", whose empty entry a
# list key refuses
NON_NUMBERS = ["nan", "-inf", "1e999", "1e", "0x10", "", "   ", "1,,2"]
NUMERIC_KEYS = [f.name for f in fields(RunConfig) if f.type in ("int", "float", "float | None", "tuple")]
# the report format, and one time in four a raw string for one numeric key
EXTRA = st.tuples(
    st.sampled_from(cli_module.FORMATS),
    st.one_of(
        st.none(), st.none(), st.none(),
        st.tuples(st.sampled_from(NUMERIC_KEYS), st.sampled_from(NON_NUMBERS)),
    ),
)
PLAIN = ("json", None)


# 200 examples take about 2 s
@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["gform", "scan", "counterexample"]),
    lam=_mostly(
        TRACELESS,
        st.one_of(SCALED, SHRUNK, st.tuples(_floats(-3, 3), _floats(-3, 3), _floats(-3, 3))),
    ),
    a=st.tuples(_floats(-2, 2), _floats(-2, 2), _floats(-2, 2)),
    bbar=_mostly(_floats(-0.1, 0.1), st.one_of(_floats(-300, 1), POWERS)),
    r=_mostly(_floats(1e-4, 0.3), st.one_of(_floats(-0.1, 1.5), _floats(1.5, 30))),
    directions=_mostly(st.integers(1, 3), st.integers(-3, 3)),
    n_theta=_mostly(st.integers(5, 12), st.integers(1, 12)),
    n_phi=_mostly(st.integers(9, 24), st.integers(1, 24)),
    ltrunc=_mostly(st.integers(1, 4), st.integers(0, 4)),
    extra=EXTRA,
)
@example(command="gform", lam=(1e154, 1e154, -2e154), a=(0.0, 0.0, 1.0), bbar=0.0, r=0.01,
         directions=1, n_theta=8, n_phi=16, ltrunc=4, extra=PLAIN)
@example(command="gform", lam=(5e153, 5e153, -1e154), a=(0.0, 0.0, 1.0), bbar=0.0, r=0.01,
         directions=1, n_theta=8, n_phi=16, ltrunc=4, extra=PLAIN)
@example(command="gform", lam=(1e300, -1e300, 0.0), a=(0.0, 0.0, 1.0), bbar=0.0, r=0.01,
         directions=1, n_theta=8, n_phi=16, ltrunc=4, extra=PLAIN)
# the deficit at r = 20 overflowed: the report could not render, and the
# counterexample had written its witness
@example(command="scan", lam=(1e-3, 1e-3, -2e-3), a=(0.0, 0.0, 1.0), bbar=1e302, r=20.0,
         directions=1, n_theta=8, n_phi=16, ltrunc=4, extra=PLAIN)
@example(command="counterexample", lam=(1e-3, 1e-3, -2e-3), a=(0.0, 0.0, 1.0), bbar=1e302,
         r=20.0, directions=1, n_theta=8, n_phi=16, ltrunc=4, extra=PLAIN)
# h is finite but its Gram ring sums overflowed, on the order and the
# parity path, with a traceback or only a warning
@example(command="scan", lam=(0.2, 0.2, -0.4), a=(0.0, 0.0, 1.0), bbar=1e307, r=1.5,
         directions=1, n_theta=8, n_phi=16, ltrunc=4, extra=PLAIN)
@example(command="scan", lam=(0.2, 0.3, -0.5), a=(0.0, 0.0, 1.0), bbar=1e306, r=1.4,
         directions=1, n_theta=8, n_phi=16, ltrunc=4, extra=PLAIN)
@example(command="scan", lam=(0.2, 0.2, -0.4), a=(0.0, 0.0, 1.0), bbar=2e306, r=1.5,
         directions=1, n_theta=8, n_phi=16, ltrunc=4, extra=PLAIN)
def test_cli_contract_holds_on_small_cases(command, lam, a, bbar, r, directions, n_theta, n_phi, ltrunc, extra):
    assert_contract(extra, [
        command,
        "--grid", f"{n_theta}x{n_phi}",
        "--ltrunc", str(ltrunc),
        "--set", f"lam={_csv(lam)}",
        "--set", f"a={_csv(a)}",
        "--set", f"bbar={bbar!r}",
        "--set", f"bbar_list={bbar!r}",
        "--set", f"r={r!r}",
        "--set", f"r_list={r!r}",
        "--set", f"directions={directions}",
    ])


def assert_contract(extra, args):
    # every run ends in a report with exit 0 (PASS) or 1 (FAIL): in JSON
    # schema-valid, in CSV with no cell that reads as nan or inf; or in
    # exit 2 with one error line that refuses an input, not one from the
    # report's renderer, and with no witness written; it never raises,
    # warns or writes to stderr.  A raw string that no number of its key
    # reads is refused by an error line that names the key
    fmt, raw = extra
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        args = [*args, "--out", str(out), "--set", f"witness={tmp}/witness.json", "--format", fmt]
        if raw is not None:
            args += ["--set", f"{raw[0]}={raw[1]}"]
        printed, errors = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
                rc = main(args)
        assert errors.getvalue() == ""
        if raw is not None:
            assert rc == 2 and raw[0] in printed.getvalue()
        if rc == 2:
            assert printed.getvalue().startswith("error: ")
            assert printed.getvalue().count("\n") == 1
            assert "JSON compliant" not in printed.getvalue()
            assert not (Path(tmp) / "witness.json").exists()
        elif fmt == "csv":
            assert printed.getvalue().endswith(f"verdict: {'PASS' if rc == 0 else 'FAIL'}\n")
            for row in csv.reader(io.StringIO(out.read_text())):
                for cell in row:
                    with contextlib.suppress(ValueError):
                        assert math.isfinite(float(cell)), cell
        else:
            report = read_report(out)
            assert rc == (0 if report["verdict"] == "PASS" else 1)


# the boundary values of every float field: 0, the least subnormal, and
# powers of ten where products underflow or overflow, each signed
EDGES = [sign * x for x in (0.0, 5e-324, 1e-308, 1e-300, 1e300, 1e308) for sign in (1.0, -1.0)]


def _near(usual, *near_rules):
    # three draws in four from the usual range, so that some runs get past
    # validation; else a boundary value, or one just inside or just
    # outside a rule of the field
    return st.one_of(usual, usual, usual, st.sampled_from(EDGES + list(near_rules)))


RADIUS = _near(_floats(1e-4, 0.3), 1e61, 1e62)
# the fields of certify, small-sphere and scan's bisection.  Values near a
# rule: eps below 2; 60 ric_sq (2.9e306 in, 3e306 out) and the mass
# r^5 ric_sq / 60 near overflow; bisect_r where r^4 underflows (1.2e-77)
# and at the positivity radius of lam = (1, 1, -2) (0.70138)
FIELDS = st.fixed_dictionaries({
    "family": st.sampled_from(["const", "quartic"]),
    "lam": st.one_of(st.just((1.0, 1.0, -2.0)), TRACELESS, SHRUNK),
    "eps": _near(_floats(0, 1.9), math.nextafter(2.0, 0.0), 2.0),
    "beta": _near(_floats(0.01, 10)),
    "lambda1": _near(_floats(0.01, 10)),
    "alpha": st.one_of(st.none(), _near(_floats(0.01, 2))),
    "curv_r": _near(_floats(0, 10)),
    "ric_sq": _near(_floats(0, 10), 2.9e306, 3e306),
    "lap_r": _near(_floats(-10, 10)),
    "b": _near(_floats(-0.1, 0.1)),
    "bbar": _near(_floats(-0.1, 0.1)),
    "r": RADIUS,
    "r_list": st.lists(RADIUS, min_size=1, max_size=2).map(tuple),
    "bisect_r": _near(_floats(1e-4, 0.3), 1.1e-77, 1.3e-77, 0.7013, 0.7014),
    "bracket": _near(
        st.tuples(_floats(-0.01, 0.01), _floats(0.012, 0.05)),
        *((x, y) for x in EDGES for y in (-0.1, 0.0, 0.05, 1e300)),
        (0.0,),
        (0.0, 0.05, 0.1),
    ),
})


def _set(key, value) -> list[str]:
    text = _csv(value) if isinstance(value, tuple) else "none" if value is None else str(value)
    return ["--set", f"{key}={text}"]


# 200 examples take about 2 s
@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["certify", "small-sphere", "scan"]),
    size=st.one_of(
        *[st.tuples(st.integers(5, 13), st.integers(9, 26), st.integers(2, 4))] * 3,
        st.tuples(st.integers(1, 13), st.integers(1, 26), st.integers(0, 6)),
    ),
    fields=FIELDS,
    extra=EXTRA,
)
# eps1 alpha^2 + eps2 underflowed to 0 and the certificate divided by it
@example(command="certify", size=(13, 26, 12), fields={"beta": 5e-324}, extra=PLAIN)
@example(command="certify", size=(13, 26, 12), fields={"alpha": 5e-324, "lambda1": 5e-324}, extra=PLAIN)
# lap_r / (60 ric_sq) overflowed and the report could not render
@example(command="small-sphere", size=(13, 26, 12), fields={"ric_sq": 1e-300, "lap_r": 1e300}, extra=PLAIN)
@example(command="small-sphere", size=(13, 26, 12), fields={"ric_sq": 5e-324, "lap_r": 1.0}, extra=PLAIN)
# small-sphere builds no grid and echoed a grid below the schema's 2x4
@example(command="small-sphere", size=(5, 1, 2), fields={}, extra=PLAIN)
# at bisect_r = 1.3e-77 the sign changes near bbar = 1.45e137, where adjacent
# floats are farther apart than the target width: a halving loop never ended
@example(command="scan", size=(7, 26, 3), fields={"bracket": (0.0, 1e300), "bisect_r": 1.3e-77}, extra=PLAIN)
def test_cli_contract_holds_on_certify_small_sphere_and_bisection(command, size, fields, extra):
    n_theta, n_phi, ltrunc = size
    sets = [arg for key, value in fields.items() for arg in _set(key, value)]
    assert_contract(extra, [command, "--grid", f"{n_theta}x{n_phi}", "--ltrunc", str(ltrunc), *sets])


# each example is one 13x26, L = 12 scan of one row; 20 take about 0.3 s
@settings(max_examples=20, deadline=None)
@given(
    # RicciEigs refuses a triple whose sum lam_i^2 is below the float tiny, such as a subnormal one
    lam=TRACELESS.filter(lambda lam: np.asarray(lam) @ np.asarray(lam) >= np.finfo(np.float64).tiny),
    ends=st.lists(st.floats(0, 1.0 / 30.0, exclude_min=True, exclude_max=True), min_size=2, max_size=2, unique=True).map(sorted),
)
@example(lam=(1.0, 1.0, -2.0), ends=[1.0 / 180.0, 1.0 / 45.0])
def test_the_bracket_is_none_exactly_where_its_ends_show_no_sign_change(lam, ends):
    config = RunConfig(
        command="scan", n_theta=13, n_phi=26, ltrunc=12, lam=lam, bracket=tuple(ends), bbar_list=(0.0,), r_list=(1e-2,)
    )
    bisection = run(config)[0]["summary"]["bisection"]
    lo, hi = (reference.unrestricted_minimum(config, x) for x in ends)
    assert (bisection is None) == (not lo > 0 > hi)
    if bisection is not None:
        assert_bracket_holds(config, bisection)


def test_a_triple_of_subnormal_square_sum_exits_2():
    # sum lam_i^2 = 2.2e-319 is nonzero but below the float tiny
    lam = "lam=0.0,3.3254226687168805e-160,-3.3254226687168805e-160"
    argv = ["scan", "--grid", "13x26", "--ltrunc", "12", "--set", lam, "--set", "bracket=0.015625,0.03125"]
    assert main([*argv, "--set", "bbar_list=0.0", "--set", "r_list=1e-2"]) == 2
