"""Command-line interface: config handling, reports, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import math
import sys
import tempfile
import tracemalloc
import warnings
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
    min_pencil_eigenvalue,
)
from wy_stability.gform import Direction, RicciEigs
from wy_stability.harmonics import HarmonicBasis, build_basis
from wy_stability.models import h_family, negative_direction
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

    def off(eigs, direction, bbar):
        q = real(eigs, direction, bbar)
        return replace(q, discriminant=q.discriminant + 1e-11 * eigs.sum_sq)

    monkeypatch.setattr(cli_module, "g_quadratic", off)
    assert main(argv + ["--out", str(out)]) == 1
    assert not any(row["pass"] for row in read_report(out)["results"])


def test_gform_solves_once_per_direction(tmp_path, monkeypatch):
    # bbar only shifts the minimum, so one solve serves every bbar of a
    # direction; solving per (direction, bbar) pair tripled the solves
    calls = []

    def counted(basis, eigs, direction, bbars):
        calls.append(len(bbars))
        return real(basis, eigs, direction, bbars)

    real = gform_module.minimize_G
    monkeypatch.setattr(cli_module, "minimize_G", counted)
    out = tmp_path / "r.json"
    assert main(["gform", "--ltrunc", "8", "--set", "directions=8", "--out", str(out)]) == 0
    assert len(read_report(out)["results"]) == 24
    assert calls == [3] * 8


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


def test_cli_import_leaves_scipy_out():
    # importing scipy.linalg alone costs several times the set-up of a gform report
    src = str(Path(wy_stability.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, wy_stability.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


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
    # the family at lam = (1, 1, -2) does not depend on phi: the pencil
    # keeps one block per (order, trig type), 2L + 1 of them, and the cos
    # and sin blocks of an order share one matrix, L + 1 matrices in all
    grid = build_grid(25, 50)
    basis = build_basis(grid, 24)
    H = h_family(RicciEigs(np.array([1.0, 1.0, -2.0])), 1.0 / 30.0, 1e-2, grid)
    tracemalloc.start()
    try:
        pencil = assemble_pencil(basis, H)
        min_pencil_eigenvalue(pencil)
        min_pencil_eigenvalue(pencil, restrict=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(rows) for rows, _ in reference.blocks(pencil)) == 2 * 24 + 1
    assert len({id(block) for _, block in reference.blocks(pencil)}) == 24 + 1
    assert peak < (25**2 - 1) ** 2 * 8  # one dense M would take 3.12 MB


def test_parity_pencil_keeps_little_between_calls():
    # three distinct lam give the 8 parity classes; the blocks are read
    # back by per-row index vectors, so what is kept between calls grows
    # with the row count, not with the block entries (6.7 MB once)
    eigs = RicciEigs(np.array([0.7, 0.5, -1.2]))
    warm = build_grid(25, 50)
    assemble_pencil(build_basis(warm, 24), h_family(eigs, 1.0 / 30.0, 1e-2, warm))
    grid = build_grid(49, 98)
    basis = build_basis(grid, 48)
    H = h_family(eigs, 1.0 / 30.0, 1e-2, grid)
    harmonics_module._layout.cache_clear()
    tracemalloc.start()
    try:
        pencil = assemble_pencil(basis, H)
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
    arrays = [getattr(basis, f.name) for f in fields(basis)]
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
    # inside the positivity radius of this lam (about 22): h is inf, which
    # passes 2 + h > 0, and the pencil solve used to end in a traceback.
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
        (small + ["--set", "bbar_list=1e305"], "h = H - 2 must be finite at every node, not inf"),
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


def test_counterexample_fails_below_threshold(tmp_path):
    out = tmp_path / "ce0.json"
    rc = main(
        ["counterexample", "--ltrunc", "6", "--set", "bbar=0.0", "--out", str(out)]
    )
    assert rc == 1
    report = read_report(out)
    assert report["verdict"] == "FAIL"
    assert report["results"][0]["guaranteed"] is False


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
)
@example(command="gform", lam=(1e154, 1e154, -2e154), a=(0.0, 0.0, 1.0), bbar=0.0, r=0.01,
         directions=1, n_theta=8, n_phi=16, ltrunc=4)
@example(command="gform", lam=(5e153, 5e153, -1e154), a=(0.0, 0.0, 1.0), bbar=0.0, r=0.01,
         directions=1, n_theta=8, n_phi=16, ltrunc=4)
@example(command="gform", lam=(1e300, -1e300, 0.0), a=(0.0, 0.0, 1.0), bbar=0.0, r=0.01,
         directions=1, n_theta=8, n_phi=16, ltrunc=4)
# the deficit at r = 20 overflowed: the report could not render, and the
# counterexample had written its witness
@example(command="scan", lam=(1e-3, 1e-3, -2e-3), a=(0.0, 0.0, 1.0), bbar=1e302, r=20.0,
         directions=1, n_theta=8, n_phi=16, ltrunc=4)
@example(command="counterexample", lam=(1e-3, 1e-3, -2e-3), a=(0.0, 0.0, 1.0), bbar=1e302,
         r=20.0, directions=1, n_theta=8, n_phi=16, ltrunc=4)
# h is finite but its Gram ring sums overflowed, on the order and the
# parity path, with a traceback or only a warning
@example(command="scan", lam=(0.2, 0.2, -0.4), a=(0.0, 0.0, 1.0), bbar=1e307, r=1.5,
         directions=1, n_theta=8, n_phi=16, ltrunc=4)
@example(command="scan", lam=(0.2, 0.3, -0.5), a=(0.0, 0.0, 1.0), bbar=1e306, r=1.4,
         directions=1, n_theta=8, n_phi=16, ltrunc=4)
@example(command="scan", lam=(0.2, 0.2, -0.4), a=(0.0, 0.0, 1.0), bbar=2e306, r=1.5,
         directions=1, n_theta=8, n_phi=16, ltrunc=4)
def test_cli_contract_holds_on_small_cases(command, lam, a, bbar, r, directions, n_theta, n_phi, ltrunc):
    assert_contract([
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


def assert_contract(args):
    # every run ends in a schema-valid report with exit 0 (PASS) or 1
    # (FAIL), or in exit 2 with one error line that refuses an input, not
    # one from the report's renderer, and with no witness written; it
    # never raises, warns or writes to stderr
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        args = [*args, "--out", str(out), "--set", f"witness={tmp}/witness.json"]
        printed, errors = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
                rc = main(args)
        assert errors.getvalue() == ""
        if rc == 2:
            assert printed.getvalue().startswith("error: ")
            assert printed.getvalue().count("\n") == 1
            assert "JSON compliant" not in printed.getvalue()
            assert not (Path(tmp) / "witness.json").exists()
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
)
# eps1 alpha^2 + eps2 underflowed to 0 and the certificate divided by it
@example(command="certify", size=(13, 26, 12), fields={"beta": 5e-324})
@example(command="certify", size=(13, 26, 12), fields={"alpha": 5e-324, "lambda1": 5e-324})
# lap_r / (60 ric_sq) overflowed and the report could not render
@example(command="small-sphere", size=(13, 26, 12), fields={"ric_sq": 1e-300, "lap_r": 1e300})
@example(command="small-sphere", size=(13, 26, 12), fields={"ric_sq": 5e-324, "lap_r": 1.0})
# small-sphere builds no grid and echoed a grid below the schema's 2x4
@example(command="small-sphere", size=(5, 1, 2), fields={})
# at bisect_r = 1.3e-77 the sign changes near bbar = 2.4e137, where adjacent
# floats are farther apart than the target width: the bisection never ended
@example(command="scan", size=(7, 26, 3), fields={"bracket": (0.0, 1e300), "bisect_r": 1.3e-77})
def test_cli_contract_holds_on_certify_small_sphere_and_bisection(command, size, fields):
    n_theta, n_phi, ltrunc = size
    sets = [arg for key, value in fields.items() for arg in _set(key, value)]
    assert_contract([command, "--grid", f"{n_theta}x{n_phi}", "--ltrunc", str(ltrunc), *sets])
