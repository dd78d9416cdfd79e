"""Second-variation functional, pencil assembly, and eigenvalue extraction."""

from __future__ import annotations

import gc
import math
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wy_stability.functional import (
    HessianPencil,
    assemble_pencil,
    constant_field,
    decompose_kernel,
    eval_F,
    eval_Q,
    field_minima,
    kernel_closed_form,
    mean_curvature_from_h,
    min_pencil_eigenvalue,
    pencil_minimum,
)
from wy_stability import functional as functional_module
from wy_stability import harmonics as harmonics_module
from wy_stability.cli import RunConfig, parse_args, run
from wy_stability.gform import Direction, RicciEigs
from wy_stability.harmonics import (
    FieldCoeffs,
    _field_samples,
    _gram_limit,
    build_basis,
    index_of,
    synthesize,
)
from wy_stability.models import h_family, negative_direction, positivity_radius
from wy_stability.quad import build_grid

import reference
from reference import unit_coeffs

GRID = build_grid(32, 64)
BASIS = build_basis(GRID, 8)
NMODES = (8 + 1) ** 2
ROUND = constant_field(GRID, 0.0)


def kernel_coeffs(a0: float, a) -> FieldCoeffs:
    # inverse of decompose_kernel: a0 + <a, x> as basis coefficients
    c = np.zeros(NMODES)
    c[0] = a0 * math.sqrt(4.0 * math.pi)
    s = math.sqrt(4.0 * math.pi / 3.0)
    c[index_of(1, 1)] = s * a[0]
    c[index_of(1, -1)] = s * a[1]
    c[index_of(1, 0)] = s * a[2]
    return FieldCoeffs(8, c)


def random_positive_field(rng, amplitude=0.5):
    # smooth band-limited perturbation of the round value, kept positive
    c = rng.normal(size=NMODES)
    c[0] = 0.0
    bump = synthesize(BASIS, FieldCoeffs(8, c))
    bump *= amplitude / max(1.0, np.max(np.abs(bump)))
    return mean_curvature_from_h(GRID, bump)


def test_mean_curvature_field_validation():
    with pytest.raises(ValueError):
        mean_curvature_from_h(GRID, np.ones(5))
    h = np.zeros(GRID.n_nodes)
    h[17] = -2.0
    with pytest.raises(ValueError):
        mean_curvature_from_h(GRID, h)
    h[17] = -3.0
    with pytest.raises(ValueError):
        mean_curvature_from_h(GRID, h)
    # inf passes 2 + h > 0 and nan fails it as "min = nan"; both are
    # refused by name before any sample is formed
    for bad in (math.inf, -math.inf, math.nan):
        h[17] = bad
        with pytest.raises(ValueError, match=f"h = H - 2 must be finite at every node, not {bad}"):
            mean_curvature_from_h(GRID, h)


def test_mean_curvature_from_h_keeps_h():
    with pytest.raises(ValueError):
        mean_curvature_from_h(GRID, np.zeros(5))
    assert np.all(ROUND.h == 0.0)
    # a uniform deviation far below the rounding of 2 + h: the samples
    # read exactly 2, yet F on a degree-1 mode is 4 pi |a|^2 (2 - H) = 3e-18
    H = mean_curvature_from_h(GRID, np.full(GRID.n_nodes, -1e-18))
    assert np.all(H.samples == 2.0)
    f = eval_F(BASIS, H, unit_coeffs(1, 0))
    assert abs(f - 3e-18) < 1e-12 * 3e-18


def test_constant_field_keeps_h():
    # the const family is built from its deviation: 2 - 1e-18 rounds to 2,
    # yet h and F on a degree-1 mode keep it
    H = constant_field(GRID, -1e-18)
    assert np.all(H.samples == 2.0)
    assert np.all(H.h == -1e-18)
    assert H.tag == "const=2.0"
    f = eval_F(BASIS, H, unit_coeffs(1, 0))
    assert abs(f - 3e-18) < 1e-12 * 3e-18


def test_field_on_a_different_grid_is_rejected():
    # 16x32 and 32x16 have the same node count but different nodes
    basis = build_basis(build_grid(32, 16), 4)
    H = constant_field(build_grid(16, 32), -0.5)
    with pytest.raises(ValueError):
        eval_F(basis, H, FieldCoeffs(4, np.ones(25)))
    with pytest.raises(ValueError):
        assemble_pencil(basis, [H])


def test_constant_field_extrema():
    assert ROUND.inf_h == 2.0
    assert ROUND.sup_h == 2.0
    assert np.all(ROUND.samples == 2.0)


def test_round_sphere_mode_values():
    # at H = 2 a unit mode of degree l carries mu^2/2 - mu, mu = l(l+1)
    assert abs(eval_F(BASIS, ROUND, unit_coeffs(2, 0)) - 12.0) < 1e-10
    assert abs(eval_F(BASIS, ROUND, unit_coeffs(2, -2)) - 12.0) < 1e-10
    assert abs(eval_F(BASIS, ROUND, unit_coeffs(3, 1)) - 60.0) < 1e-9
    # degree-l Rayleigh quotients against int (Lap eta)^2 = mu^2
    assert abs(eval_F(BASIS, ROUND, unit_coeffs(2, 1)) / 36.0 - 1.0 / 3.0) < 1e-11
    assert abs(eval_F(BASIS, ROUND, unit_coeffs(3, -3)) / 144.0 - 5.0 / 12.0) < 1e-11


def test_round_sphere_annihilates_kernel():
    for l, m in [(1, -1), (1, 0), (1, 1)]:
        assert abs(eval_F(BASIS, ROUND, unit_coeffs(l, m))) < 1e-12
    assert abs(eval_F(BASIS, ROUND, kernel_coeffs(1.3, (0.2, -0.4, 0.9)))) < 1e-11


def test_polarization_identity():
    rng = np.random.default_rng(5)
    H = random_positive_field(rng)
    for _ in range(5):
        u = FieldCoeffs(8, rng.normal(size=NMODES))
        v = FieldCoeffs(8, rng.normal(size=NMODES))
        both = FieldCoeffs(8, u.c + v.c)
        lhs = eval_Q(BASIS, H, u, v)
        rhs = 0.5 * (eval_F(BASIS, H, both) - eval_F(BASIS, H, u) - eval_F(BASIS, H, v))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
        assert abs(lhs - eval_Q(BASIS, H, v, u)) < 1e-9 * max(1.0, abs(lhs))


def test_kernel_closed_form_matches_quadrature():
    rng = np.random.default_rng(13)
    for _ in range(50):
        H = random_positive_field(rng, amplitude=0.7)
        a0 = float(rng.normal())
        a = rng.normal(size=3)
        direct = eval_F(BASIS, H, kernel_coeffs(a0, a))
        closed = kernel_closed_form(H, a)
        assert abs(direct - closed) < 1e-8 * max(1.0, abs(closed))


def test_pencil_structure_round_sphere():
    pencil = assemble_pencil(BASIS, [ROUND])[0]
    assert pencil.M.shape == (NMODES - 1, NMODES - 1)
    assert np.all(pencil.degrees >= 1)
    np.testing.assert_array_equal(
        pencil.kdiag, (pencil.degrees * (pencil.degrees + 1)) ** 2.0
    )
    # at H = 2 the pencil is diagonal with entries mu^2/2 - mu
    mu = pencil.degrees * (pencil.degrees + 1)
    expected = np.diag(mu**2 / 2.0 - mu)
    assert np.max(np.abs(pencil.M - expected)) < 1e-9


def test_round_sphere_eigenvalues():
    pencil = assemble_pencil(BASIS, [ROUND])[0]
    val, witness = min_pencil_eigenvalue(pencil)
    assert abs(val) < 1e-10
    # witness lies in the degree-1 block
    nz = np.abs(witness.c) > 1e-8
    degrees = np.repeat(np.arange(9), 2 * np.arange(9) + 1)
    assert np.all(degrees[nz] == 1)
    val2, witness2 = min_pencil_eigenvalue(pencil, restrict=True)
    assert abs(val2 - 1.0 / 3.0) < 1e-10
    assert np.all(degrees[np.abs(witness2.c) > 1e-8] == 2)


def test_witness_properties():
    rng = np.random.default_rng(29)
    H = random_positive_field(rng)
    pencil = assemble_pencil(BASIS, [H])[0]
    for restrict in (False, True):
        val, witness = min_pencil_eigenvalue(pencil, restrict=restrict)
        assert abs(np.linalg.norm(witness.c) - 1.0) < 1e-12
        assert witness.c[0] == 0.0
        assert witness.c[np.argmax(np.abs(witness.c))] > 0.0
        # Rayleigh quotient of the witness reproduces the eigenvalue
        eigs = np.repeat(np.arange(9) * (np.arange(9) + 1), 2 * np.arange(9) + 1)
        kquad = float(np.sum((eigs * witness.c) ** 2))
        f = eval_F(BASIS, H, witness)
        assert abs(f / kquad - val) < 1e-9 * max(1.0, abs(val))


def test_restricting_needs_degree_two():
    # an L = 1 pencil has no row of degree l >= 2; both restricted entry
    # points refuse it instead of returning inf or failing to index
    grid = build_grid(4, 8)
    pencil = assemble_pencil(build_basis(grid, 1), [constant_field(grid, -0.1)])[0]
    for solve in (pencil_minimum, min_pencil_eigenvalue):
        with pytest.raises(ValueError, match="restricting to degrees l >= 2 needs L >= 2"):
            solve(pencil, restrict=True)


def test_depressed_curvature_is_positive_definite():
    # H <= 2 everywhere (and positive) forces a positive restricted minimum
    rng = np.random.default_rng(37)
    for _ in range(20):
        c = rng.normal(size=NMODES)
        c[0] = 0.0
        f = synthesize(BASIS, FieldCoeffs(8, c))
        f = f - f.min() + 0.01
        f = f / f.max()  # 0 < f <= 1
        H = mean_curvature_from_h(GRID, -1.5 * f * rng.uniform(0.1, 1.0))
        pencil = assemble_pencil(BASIS, [H])[0]
        val, _ = min_pencil_eigenvalue(pencil, restrict=True)
        assert val > 0.0


def test_truncation_stability():
    # the minimum eigenvalue is stable under raising the truncation degree
    basis12 = build_basis(GRID, 12)
    lam = np.array([1.0, 1.0, -2.0])
    phi = GRID.xyz**2 @ lam
    r = 0.3
    H = mean_curvature_from_h(GRID, r**2 * phi - (1.0 / 30.0) * r**4 * 6.0)
    v8, _ = min_pencil_eigenvalue(assemble_pencil(BASIS, [H])[0], restrict=True)
    v12, _ = min_pencil_eigenvalue(assemble_pencil(basis12, [H])[0], restrict=True)
    assert abs(v8 - v12) < 0.01 * abs(v12)


def test_decompose_kernel_roundtrip():
    rng = np.random.default_rng(41)
    c = FieldCoeffs(8, rng.normal(size=NMODES))
    parts = decompose_kernel(BASIS, c)
    assert np.all(parts.eta2.c[:4] == 0.0)
    rebuilt = kernel_coeffs(parts.a0, parts.a).c + parts.eta2.c
    assert np.max(np.abs(rebuilt - c.c)) < 1e-12


def test_grid_mismatch_raises():
    other = build_grid(16, 32)
    H = constant_field(other, 0.0)
    with pytest.raises(ValueError):
        eval_F(BASIS, H, unit_coeffs(2, 0))


# the benchmark grids and the default grid
BLOCK_GRIDS = [(25, 50), (32, 64), (49, 98)]


def row_sets(blocks):
    # every row set of the (rows (k, n), block) pairs, in order
    return [r for rows, _ in blocks for r in rows]


@pytest.mark.parametrize("shape", BLOCK_GRIDS + [(25, 51)])
@pytest.mark.parametrize("lam, bbar", [((1.0, 1.0, -2.0), 1.0 / 30.0), ((0.7, 0.5, -1.2), 0.0)])
def test_blocked_pencil_matches_one_block(shape, lam, bbar):
    grid = build_grid(*shape)
    basis = build_basis(grid, 12)
    eigs = RicciEigs(np.array(lam))
    for r in (0.3, 1e-2):
        H = h_family(eigs, bbar, r, grid)
        pencil = assemble_pencil(basis, [H])[0]
        dense = reference.one_block_M(basis, H)
        scale = np.abs(dense).max()
        inside = np.zeros(dense.shape, dtype=bool)
        for rows in row_sets(reference.blocks(pencil)):
            inside[np.ix_(rows, rows)] = True
            # row sets increase, so a block's l = 1 rows lead it
            assert np.all(np.diff(rows) > 0)
        assert np.abs(dense[~inside]).max() <= 1e-13 * scale
        assert np.all(pencil.M[~inside] == 0.0)
        assert np.abs(pencil.M - dense)[inside].max() <= 1e-12 * scale

        rows = np.arange(dense.shape[0])
        ref = reference.dense_min(dense, pencil.kdiag, rows[pencil.degrees >= 2])
        val, _ = min_pencil_eigenvalue(pencil, restrict=True)
        assert abs(val - ref) <= 1e-12 * abs(ref)
        if r == 0.3:
            ref = reference.dense_min(dense, pencil.kdiag, rows)
            val, _ = min_pencil_eigenvalue(pencil)
            assert abs(val - ref) <= 1e-9 * abs(ref)


def test_asymmetric_field_or_odd_n_phi_gives_one_block():
    # an asymmetric h has no symmetry to split by: one block of every row
    pencil = assemble_pencil(BASIS, [random_positive_field(np.random.default_rng(61))])[0]
    assert len(row_sets(reference.blocks(pencil))) == 1
    np.testing.assert_array_equal(row_sets(reference.blocks(pencil))[0], np.arange(NMODES - 1))
    # three distinct lam: h depends on phi, and an odd n_phi has no node at
    # phi = pi - phi_j, so x1 is lost; x2 and x3 still split the rows into
    # the 4 classes of (trig type, l + |m| parity)
    grid = build_grid(25, 51)
    basis = build_basis(grid, 8)
    H = h_family(RicciEigs(np.array([0.7, 0.5, -1.2])), 1.0 / 30.0, 0.1, grid)
    pencil = assemble_pencil(basis, [H])[0]
    m, l = basis.orders[1:], basis.degrees[1:]
    code = 2 * (m < 0) + 4 * ((l + np.abs(m)) % 2)
    assert len(row_sets(reference.blocks(pencil))) == 4
    for rows, want in zip(row_sets(reference.blocks(pencil)), (0, 2, 4, 6)):
        np.testing.assert_array_equal(rows, np.flatnonzero(code == want))


def order_rows(L, l0):
    # the (order, parity of l + order, trig type) classes in gram_blocks
    # order, counted from row l0^2, each with its order
    out = []
    for a in range(L + 1):
        for p in (0, 1):
            l = np.arange(max(a, l0), L + 1)
            l = l[(l + a) % 2 == p]
            if l.size:
                out += [(a, l * l + l + m - l0 * l0) for m in ((a, -a) if a else (0,))]
    return out


@pytest.mark.parametrize("shape", [(25, 50), (25, 51)])
def test_axisymmetric_family_takes_order_blocks(shape):
    # lam1 = lam2 makes h independent of phi, so the pencil splits by
    # order |m| and trig type even where n_phi is odd, and, h being even
    # under x3, by the parity of l + |m|
    grid = build_grid(*shape)
    basis = build_basis(grid, 12)
    H = h_family(RicciEigs(np.array([1.0, 1.0, -2.0])), 1.0 / 30.0, 0.3, grid)
    pencil = assemble_pencil(basis, [H])[0]
    expected = order_rows(12, 1)
    assert len(row_sets(reference.blocks(pencil))) == len(expected) == 4 * 12
    for rows, (_, want) in zip(row_sets(reference.blocks(pencil)), expected):
        np.testing.assert_array_equal(rows, want)
    # the cos and sin rows of an (order, parity) share their matrix
    orders = iter(a for a, _ in expected)
    for rows, _ in reference.blocks(pencil):
        a = next(orders)
        assert rows.shape[0] == (2 if a else 1)
        if a:
            assert next(orders) == a

    dense = reference.one_block_M(basis, H)
    scale = np.abs(dense).max()
    inside = np.zeros(dense.shape, dtype=bool)
    for rows in row_sets(reference.blocks(pencil)):
        inside[np.ix_(rows, rows)] = True
    assert np.abs(dense[~inside]).max() <= 1e-13 * scale
    assert np.abs(pencil.M - dense)[inside].max() <= 1e-12 * scale
    rows = np.arange(dense.shape[0])
    for restrict, keep in ((False, rows), (True, rows[pencil.degrees >= 2])):
        ref = reference.dense_min(dense, pencil.kdiag, keep)
        val, _ = min_pencil_eigenvalue(pencil, restrict=restrict)
        assert abs(val - ref) <= 1e-9 * abs(ref)
        assert pencil_minimum(pencil, restrict=restrict) == val


def test_axisymmetric_minimum_at_small_radius_on_odd_n_phi():
    # min/r^4 at r = 1e-4 used to read -3.92 on 25x51 and -2.22 on 49x99,
    # where one block of every row drowned the O(r^4) eigenvalue; per-order
    # blocks need no x1 reflection, so odd n_phi matches the even grid
    eigs, r = RicciEigs(np.array([1.0, 1.0, -2.0])), 1e-4

    def min_over_r4(shape, L):
        grid = build_grid(*shape)
        pencil = assemble_pencil(build_basis(grid, L), [h_family(eigs, 1.0 / 30.0, r, grid)])[0]
        assert len(row_sets(reference.blocks(pencil))) == 4 * L
        return min_pencil_eigenvalue(pencil)[0] / r**4

    ref = min_over_r4((25, 50), 24)
    assert abs(ref - -0.1000002) < 1e-6
    for shape, L in (((25, 51), 24), ((49, 99), 48)):
        assert abs(min_over_r4(shape, L) - ref) < 1e-5


def test_family_axisymmetric_about_x1_keeps_parity_or_one_block():
    # lam = (2, -1, -1) is axisymmetric about x1, not x3: h depends on phi,
    # so the pencil splits into the 8 parity classes or, on odd n_phi,
    # where x1 is lost, into the 4 classes of x2 and x3
    eigs = RicciEigs(np.array([2.0, -1.0, -1.0]))
    for shape, count in (((25, 50), 8), ((25, 51), 4)):
        grid = build_grid(*shape)
        H = h_family(eigs, 1.0 / 30.0, 1e-2, grid)
        assert len(row_sets(reference.blocks(assemble_pencil(build_basis(grid, 8), [H])[0]))) == count


@pytest.mark.parametrize("shape", BLOCK_GRIDS + [(25, 51)])
def test_family_takes_the_blocked_path(shape):
    # scan's speed rests on h_family at the default lam passing the ring
    # and x3 checks: a change in how h is rounded would silently send it to
    # the order blocks, the parity classes, or one dense block
    grid = build_grid(*shape)
    basis = build_basis(grid, 4)
    config = RunConfig()
    eigs = RicciEigs(np.array(config.lam))
    for bbar in config.bbar_list + config.bracket:
        for r in config.r_list + (config.bisect_r,):
            blocks = reference.blocks(assemble_pencil(basis, [h_family(eigs, bbar, r, grid)])[0])
            assert len(row_sets(blocks)) == 4 * 4
    # every other H the command line builds splits too: the const family,
    # and the quartic family with three distinct lam, 4 classes on odd
    # n_phi and 8 on even
    blocks = reference.blocks(assemble_pencil(basis, [constant_field(grid, -config.eps)])[0])
    assert len(row_sets(blocks)) == 4 * 4
    eigs = RicciEigs(np.array([0.7, 0.5, -1.2]))
    for bbar, r in ((config.bbar, config.r), (0.0, 1e-1), (1.0 / 90.0, 1e-3)):
        blocks = reference.blocks(assemble_pencil(basis, [h_family(eigs, bbar, r, grid)])[0])
        assert len(row_sets(blocks)) == (4 if shape[1] % 2 else 8)


@pytest.mark.parametrize("L, shape", [(8, (32, 64)), (24, (25, 50)), (24, (25, 51))])
@pytest.mark.parametrize("lam", [(1.0, 1.0, -2.0), (0.7, 0.5, -1.2)])
def test_pencil_minimum_keeps_digits_at_small_radius(L, shape, lam):
    # min/r^4 tends to a constant as r -> 0; a solve of the dense matrix
    # lost it below r = 1e-3 (at L = 24, r = 1e-4 it read -6.6 for -0.1)
    grid = build_grid(*shape)
    basis = build_basis(grid, L)
    eigs = RicciEigs(np.array(lam))
    v3, v4 = (
        min_pencil_eigenvalue(assemble_pencil(basis, [h_family(eigs, 1.0 / 30.0, r, grid)])[0])[0]
        / r**4
        for r in (1e-3, 1e-4)
    )
    assert abs(v4 - v3) < 1e-4 * abs(v3)


def count_solves(monkeypatch):
    # calls of each symmetric eigensolver, counted through np.linalg
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:

        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_only_the_witness_computes_eigenvectors(monkeypatch):
    # a scan report reads eigenvalues alone; min_pencil_eigenvalue runs one
    # eigh, for its witness; pencil_minimum solves a block, or its l >= 2
    # part, only where its round-sphere bound does not clear the running
    # minimum of its row, and the pencil records each part it solves
    calls = count_solves(monkeypatch)
    run(parse_args(["scan", "--grid", "13x26", "--ltrunc", "12"]))
    assert calls["eigh"] == 0 and calls["eigvalsh"] > 0
    grid = build_grid(13, 26)
    basis = build_basis(grid, 12)

    def solves(pencil):
        with_l1 = sum(np.any(pencil.degrees[rows[0]] == 1) for rows in pencil.row_sets)
        calls["eigvalsh"] = calls["eigh"] = 0
        pencil_minimum(pencil)
        pencil_minimum(pencil, restrict=True)
        assert calls["eigh"] == 0 and calls["eigvalsh"] == len(pencil._minima)
        return with_l1, calls["eigvalsh"]

    def witness_solves(pencil, restrict):
        calls["eigvalsh"] = calls["eigh"] = 0
        min_pencil_eigenvalue(pencil, restrict=restrict)
        assert calls["eigh"] == 1
        return calls["eigvalsh"]

    # (1, 1, -2): of the 25 (order, x3 parity) blocks, the 2 with an l = 1
    # row whole, and the 3 whose lowest degree is 2 (order 0 even, orders 1
    # and 2 of even l + |m|), below the l >= 2 parts' degree 3; (0.7, 0.5,
    # -1.2): the 3 of 8 classes with an l = 1 row whole, and the 4 whose
    # lowest degree is 2.  A witness on a fresh pencil solves only the row
    # it is asked for: (over l >= 1, over l >= 2); after the values it
    # solves nothing more
    for lam, count, witness_count in (
        ((1.0, 1.0, -2.0), (25, 2, 5), (2, 3)),
        ((0.7, 0.5, -1.2), (8, 3, 7), (3, 4)),
    ):
        pencil = assemble_pencil(basis, [h_family(RicciEigs(np.array(lam)), 1.0 / 90.0, 1e-2, grid)])[0]
        assert (len(pencil.row_sets), *solves(pencil)) == count
        for restrict in (False, True):
            assert witness_solves(pencil, restrict) == 0
            fresh = HessianPencil(
                pencil.L, pencil.kdiag, pencil.degrees, pencil.row_sets, pencil.parts, pencil.sups, build=pencil.build
            )
            assert witness_solves(fresh, restrict) == witness_count[restrict] == len(fresh._minima)
    # where |h| is large the bound prunes nothing: every block is solved,
    # and again without its l = 1 rows where it has any
    eigs = RicciEigs(np.array([0.7, 0.5, -1.2]))
    for H in (
        constant_field(grid, -1.5),
        h_family(eigs, 1.0 / 30.0, 0.9 * positivity_radius(eigs), grid),
    ):
        pencil = assemble_pencil(basis, [H])[0]
        with_l1, count = solves(pencil)
        assert count == len(pencil.row_sets) + with_l1


def counted_builds(basis, H):
    # the pencil of H alone, and the list of the blocks its group's builder builds
    built = []
    real = functional_module._shared_blocks

    def counted(gram, row_sets, diag):
        def build(i):
            built.append(i)
            return gram(i)

        return real(build, row_sets, diag)

    functional_module._shared_blocks = counted
    try:
        [pencil] = assemble_pencil(basis, [H])
    finally:
        functional_module._shared_blocks = real
    return pencil, built


# the ids keep the block counts of the order layout, so the test ids stay put
@pytest.mark.parametrize(
    "shape, L, lam, blocks",
    [((25, 50), 24, (1.0, 1.0, -2.0), 49), ((13, 26), 12, (0.7, 0.5, -1.2), 8)],
    ids=["shape0-24-lam0-25", "shape1-12-lam1-8"],
)
def test_pencil_builds_only_the_blocks_its_solves_read(shape, L, lam, blocks):
    # the bound needs only the sups, so a block it skips is never built;
    # each block is built at most once, and the witnesses that follow
    # read only blocks the two minima built: those with a recorded part
    grid = build_grid(*shape)
    H = h_family(RicciEigs(np.array(lam)), 1.0 / 30.0, 1e-2, grid)
    pencil, built = counted_builds(build_basis(grid, L), H)
    assert len(pencil.row_sets) == blocks
    pencil_minimum(pencil)
    pencil_minimum(pencil, restrict=True)
    want = sorted({i for i, _ in pencil._minima})
    assert sorted(built) == want and 0 < len(built) < blocks
    for restrict in (False, True):
        min_pencil_eigenvalue(pencil, restrict=restrict)
    assert sorted(built) == want
    # reading blocks builds the rest, once each
    assert len(reference.blocks(pencil)) == blocks
    assert sorted(built) == list(range(blocks))


# the ids keep the block counts of the order layout, so the test ids stay put
@pytest.mark.parametrize(
    "shape, lam, blocks",
    [
        ((13, 26), (1.0, 1.0, -2.0), 25),  # ring-constant h even under x3: one block per (order, parity)
        ((13, 26), (0.7, 0.5, -1.2), 8),  # the 8 parity classes of an even n_phi
        ((13, 27), (0.7, 0.5, -1.2), 4),  # the 4 of an odd n_phi
        ((13, 26), None, 1),  # h with no symmetry: one block
    ],
    ids=["shape0-lam0-13", "shape1-lam1-8", "shape2-lam2-4", "shape3-None-1"],
)
def test_pencil_parts_are_read_off_the_row_sets(shape, lam, blocks):
    # the parts the layout lists match those found row by row: over l >= 1
    # every block from its first row, over l >= 2 every block with a row of
    # degree 2 or more from its first such row, as (degree, block, offset),
    # sorted
    grid = build_grid(*shape)
    if lam is None:
        H = mean_curvature_from_h(grid, 0.1 * np.random.default_rng(5).normal(size=grid.n_nodes))
    else:
        H = h_family(RicciEigs(np.array(lam)), 1.0 / 30.0, 1e-2, grid)
    pencil = assemble_pencil(build_basis(grid, 12), [H])[0]
    assert len(pencil.row_sets) == blocks
    for least in (1, 2):
        want = []
        for i, rows in enumerate(pencil.row_sets):
            offsets = [k for k, l in enumerate(pencil.degrees[rows[0]]) if l >= least]
            if offsets:
                want.append((int(pencil.degrees[rows[0][offsets[0]]]), i, offsets[0]))
        assert pencil.parts[least == 2] == tuple(sorted(want))


# the order layout and the parity layout of the one kernel; the ids keep
# the names of the two kernels they had before, so the test ids stay put
BOTH_LAYOUTS = pytest.mark.parametrize(
    "lam", [(1.0, 1.0, -2.0), (0.7, 0.5, -1.2)], ids=["lam0-_order_gram", "lam1-_class_gram"]
)


@BOTH_LAYOUTS
def test_asymmetric_block_is_refused_when_built(monkeypatch, lam):
    # each block's asymmetry is checked against its own largest entry (or
    # 1) as it is built; 1e-10 of that off the transpose is refused
    grid = build_grid(13, 26)
    basis = build_basis(grid, 12)
    H = h_family(RicciEigs(np.array(lam)), 1.0 / 30.0, 1e-2, grid)
    real = harmonics_module._block_gram

    def skewed(*args):
        B = real(*args)
        return B + np.triu(np.full(B.shape, 1e-10 * max(np.abs(B).max(), 1.0)), 1)

    monkeypatch.setattr(harmonics_module, "_block_gram", skewed)
    pencil = assemble_pencil(basis, [H])[0]
    with pytest.raises(AssertionError, match="asymmetry"):
        pencil_minimum(pencil)
    for i, rows in enumerate(pencil.row_sets):
        if rows.shape[1] > 1:
            with pytest.raises(AssertionError, match="asymmetry"):
                pencil.block(i)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@BOTH_LAYOUTS
@pytest.mark.parametrize("bad, both", [(math.inf, True), (math.inf, False), (math.nan, True)])
def test_non_finite_block_is_refused_when_built(monkeypatch, lam, bad, both):
    # a block holding inf or NaN, on both sides of the diagonal or on one,
    # is refused as it is built; the asymmetry test read NaN as passing
    grid = build_grid(13, 26)
    basis = build_basis(grid, 12)
    H = h_family(RicciEigs(np.array(lam)), 1.0 / 30.0, 1e-2, grid)
    real = harmonics_module._block_gram

    def broken(*args):
        B = real(*args)  # [field, row, row]
        B[:, -1, -2] = bad
        if both:
            B[:, -2, -1] = bad
        return B

    monkeypatch.setattr(harmonics_module, "_block_gram", broken)
    pencil = assemble_pencil(basis, [H])[0]
    for i, rows in enumerate(pencil.row_sets):
        if rows.shape[1] > 1:
            with pytest.raises(AssertionError, match="not finite"):
                pencil.block(i)


@pytest.mark.parametrize("shape, L", [((8, 16), 4), ((13, 26), 12), ((25, 51), 24)])
def test_h_rule_keeps_every_block_finite(shape, L):
    # at the largest |h| the pencil takes, no ring sum, product or block
    # overflows, on the order path, the parity path and one block; past
    # it the pencil is refused by a rule that names h
    grid = build_grid(*shape)
    basis = build_basis(grid, L)
    x1, x2, x3 = grid.xyz.T
    for shape_h in (1.0 + x3**2, 1.0 + x1**2 + 2.0 * x3**4, 1.5 + x1 * x2**2 + x3):
        h = shape_h / shape_h.max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pencil = assemble_pencil(basis, [mean_curvature_from_h(grid, h * _gram_limit(basis))])[0]
            assert pencil.sups[1] == _gram_limit(basis)
            for i in range(len(pencil.row_sets)):
                assert np.isfinite(pencil.block(i)).all()
            assert math.isfinite(pencil_minimum(pencil))
        with pytest.raises(ValueError, match=r"h = H - 2 is too large for the Gram sums: max \|h\| = "):
            assemble_pencil(basis, [mean_curvature_from_h(grid, h * (1.0 + 1e-15) * _gram_limit(basis))])


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(2, 6),
    extra=st.tuples(st.integers(1, 3), st.integers(0, 3)),
    symmetry=st.sampled_from(["ring", "reflections", "none"]),
    held=st.sets(st.integers(1, 3), min_size=1),
    log_amp=st.floats(-4.0, math.log10(1.9)),
    seed=st.integers(0, 2**32 - 1),
)
# L = 2 on 3x6 with all three reflections: three of the seven classes hold
# a single l = 1 row, so their l >= 2 parts are empty and are skipped
@example(L=2, extra=(1, 1), symmetry="reflections", held={1, 2, 3}, log_amp=-1.0, seed=0)
def test_block_bound_holds_and_pruning_keeps_every_result(L, extra, symmetry, held, log_amp, seed):
    # seeded band-limited h of degree <= 4: constant on every ring, even
    # under a random set of reflections, or with no symmetry (one block),
    # on even and odd n_phi, at max |h| from 1e-4 up to 1.9, where H nears 0
    grid = build_grid(L + extra[0], 2 * L + 1 + extra[1])
    basis = build_basis(grid, L)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=basis.n_basis) * (basis.degrees <= 4)
    if symmetry == "ring":
        c *= basis.orders == 0
    h = synthesize(basis, FieldCoeffs(L, c)).reshape(grid.n_theta, grid.n_phi)
    if symmetry == "reflections":
        for axis in held - ({1} if grid.n_phi % 2 else set()):
            h = 0.5 * (h + reference.mirror(h, axis))
    h = h.ravel() * (10.0**log_amp / np.abs(h).max())
    H = mean_curvature_from_h(grid, h)
    pencil = assemble_pencil(basis, [H])[0]
    assert pencil.sups == (np.abs(h / (2.0 * H.samples)).max(), np.abs(h).max())
    if symmetry == "ring":
        assert len(reference.blocks(pencil)) == L + 1
    elif symmetry == "none":
        assert len(reference.blocks(pencil)) == 1

    # every block and its l >= 2 part, solved: each minimum clears the
    # round-sphere bound of its lowest degree
    s_lap, s_grad = pencil.sups
    brute = np.full((2, len(reference.blocks(pencil))), math.inf)
    parts = []
    for i, (rows, B) in enumerate(reference.blocks(pencil)):
        rows = rows[0]
        keep = pencil.degrees[rows] >= 2
        parts.append([(rows, B), (rows[keep], B[np.ix_(keep, keep)])])
        for k, (sub, Bsub) in enumerate(parts[-1]):
            if sub.size:
                brute[k, i] = reference.whitened_min(pencil.kdiag, sub, Bsub)[0][0]
                l0 = pencil.degrees[sub[0]]
                assert brute[k, i] >= 0.5 - s_lap - (1.0 + s_grad) / (l0 * (l0 + 1.0)) - 1e-12

    # the pruned solve, on a fresh pencil of H: every part it records is
    # the same bits, every part it leaves unrecorded cannot hold or tie its
    # row's minimum, and the blocks built are those with a recorded part,
    # once each
    fresh, built = counted_builds(basis, H)
    assert (pencil_minimum(fresh), pencil_minimum(fresh, restrict=True)) == tuple(brute.min(axis=1))
    assert sorted(built) == sorted({i for i, _ in fresh._minima})
    for i, rows in enumerate(fresh.row_sets):
        for row, k in enumerate((0, int(np.sum(fresh.degrees[rows[0]] == 1)))):
            if (i, k) in fresh._minima:
                assert fresh._minima[i, k] == brute[row, i]
            else:
                assert brute[row, i] > brute[row].min()
    for k in (0, 1):
        i = int(np.argmin(brute[k]))
        (_, vecs), s = reference.whitened_min(pencil.kdiag, *parts[i][k], np.linalg.eigh)
        want = np.zeros(basis.n_basis)
        want[parts[i][k][0] + 1] = vecs[:, 0] * s
        want /= np.linalg.norm(want)
        want *= np.sign(want[np.argmax(np.abs(want))])
        val, witness = min_pencil_eigenvalue(pencil, restrict=bool(k))
        assert val == brute[k, i]
        np.testing.assert_array_equal(witness.c, want)


def exact_minima(pencil):
    # the 40-digit minima over l >= 1 and l >= 2 of each block, whitened by
    # kdiag in float64 as the solver sees it
    def exact_eigvals(W):
        return mpmath.mp.eigsy(mpmath.matrix(W.tolist()), eigvals_only=True)

    def exact_min(rows, B):
        with mpmath.workdps(40):
            return min(reference.whitened_min(pencil.kdiag, rows, B, exact_eigvals)[0])

    full, cut = [], []
    for rows, B in reference.blocks(pencil):
        rows = rows[0]
        full.append(exact_min(rows, B))
        keep = pencil.degrees[rows] >= 2
        if keep.all():
            cut.append(full[-1])
        elif keep.any():
            cut.append(exact_min(rows[keep], B[np.ix_(keep, keep)]))
    return min(full), min(cut)


@pytest.mark.parametrize("lam", [(1.0, 1.0, -2.0), (0.7, 0.5, -1.2)])
def test_pencil_minimum_matches_extended_precision(lam):
    # at bbar = 1/90 the unrestricted minimum is O(r^6) and loses digits
    # against the O(1) spectrum; elsewhere both minima keep nearly all
    grid = build_grid(13, 26)
    basis = build_basis(grid, 12)
    for bbar, r, bound in ((1.0 / 90.0, 1e-2, 1e-9), (1.0 / 90.0, 3e-2, 1e-9), (1.0 / 30.0, 1e-2, 1e-14)):
        pencil = assemble_pencil(basis, [h_family(RicciEigs(np.array(lam)), bbar, r, grid)])[0]
        minima = pencil_minimum(pencil), pencil_minimum(pencil, restrict=True)
        for got, ref in zip(minima, exact_minima(pencil)):
            assert abs((got - ref) / ref) < bound


def pencil_min_over_r4(shape, L, lam, r):
    grid = build_grid(*shape)
    H = h_family(RicciEigs(np.array(lam)), 1.0 / 30.0, r, grid)
    return min_pencil_eigenvalue(assemble_pencil(build_basis(grid, L), [H])[0])[0] / r**4


@pytest.mark.parametrize(
    "odd, even, L, lam",
    [((25, 51), (25, 50), 24, (0.7, 0.5, -1.2)), ((49, 99), (49, 98), 48, (2.0, -1.0, -1.0))],
)
def test_odd_n_phi_minimum_matches_even_grid_at_small_radius(odd, even, L, lam):
    # on odd n_phi these pencils were one block of every row, and min/r^4
    # read -0.0365698 and -2.4134519 (first case), -0.1012577 at r = 1e-3
    # (second); the x2 and x3 classes keep the O(r^4) eigenvalue
    for r in (1e-3, 1e-4):
        ref = pencil_min_over_r4(even, L, lam, r)
        assert abs(pencil_min_over_r4(odd, L, lam, r) - ref) < 1e-5
    assert abs(ref - (-0.0363335 if L == 24 else -0.1000001)) < 1e-6


def extended_F(basis, H, eta):
    # F in deficit form from the same float64 samples, summed at 40 digits
    lap, dtheta, dphi = _field_samples(basis, eta)
    mpf = mpmath.mpf
    with mpmath.workdps(40):
        mu = [mpf(x) for x in basis.eigenvalues]
        round_part = mpmath.fsum(mpf(c) ** 2 * m * (m / 2 - 1) for c, m in zip(eta.c, mu))
        nodes = zip(basis.grid.weights, H.h, H.samples, lap, dtheta, dphi, basis.grid.sin_theta)
        deficit = mpmath.fsum(
            mpf(w) * mpf(h) * (mpf(u) ** 2 / (2 * mpf(hs)) + mpf(t) ** 2 + (mpf(f) / mpf(s)) ** 2)
            for w, h, hs, u, t, f, s in nodes
        )
        return round_part - deficit


def test_eval_F_matches_extended_precision_sum():
    # the acceptance grid and the canonical negative direction; the bound
    # grows as the O(r^4) value cancels further out of O(r^2) terms
    eigs = RicciEigs(np.array([1.0, 1.0, -2.0]))
    a = Direction(np.array([0.0, 0.0, 1.0]))
    for r, bound in ((1e-2, 1e-10), (1e-3, 1e-8), (1e-4, 1e-6)):
        H = h_family(eigs, 1.0 / 30.0, r, GRID)
        eta = negative_direction(BASIS, eigs, 1.0 / 30.0, r, a).eta
        ref = extended_F(BASIS, H, eta)
        assert abs((eval_F(BASIS, H, eta) - ref) / ref) < bound


def batch_fields(grid):
    # one field of every layout: ring-constant and even under x3, at three
    # (bbar, r); ring-constant and odd under x3; the parity classes; and a
    # rotated h with no symmetry (one block)
    x1, x2, x3 = grid.xyz.T
    u = grid.xyz @ (np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98))
    axis = RicciEigs(np.array([1.0, 1.0, -2.0]))
    fields = [h_family(axis, bbar, r, grid) for bbar, r in ((0.0, 0.1), (1.0 / 90.0, 1e-2), (1.0 / 30.0, 1e-3))]
    fields.append(mean_curvature_from_h(grid, 0.01 * x3))
    fields += [h_family(RicciEigs(np.array([0.7, 0.5, -1.2])), bbar, 1e-2, grid) for bbar in (0.0, 1.0 / 30.0)]
    fields.append(mean_curvature_from_h(grid, 0.05 * (u**2 + u**3)))
    return fields


def same_bits(a, b):
    # blocks, both minima and both witnesses, bit for bit
    assert len(a.row_sets) == len(b.row_sets) and a.sups == b.sups
    for i in range(len(a.row_sets)):
        assert a.block(i).tobytes() == b.block(i).tobytes()
    for restrict in (False, True):
        assert pencil_minimum(a, restrict) == pencil_minimum(b, restrict)
        (va, wa), (vb, wb) = min_pencil_eigenvalue(a, restrict), min_pencil_eigenvalue(b, restrict)
        assert va == vb and wa.c.tobytes() == wb.c.tobytes()


@pytest.mark.parametrize("shape, L", [((13, 26), 12), ((25, 50), 24), ((25, 51), 24)])
def test_a_pencil_is_the_same_bits_whatever_it_is_assembled_with(shape, L, monkeypatch):
    # fields of one layout share their ring coefficients, phi sums and
    # block products; each pencil reads its own slice, the bits it gets
    # alone, whether its batch holds one layout or mixes all of them, and
    # whether a block is built for all fields at once or one at a time
    grid = build_grid(*shape)
    basis = build_basis(grid, L)
    fields = batch_fields(grid)
    together = assemble_pencil(basis, fields)
    # blocks of (order, x3 parity), of order, of parity class, and one
    parity = 4 if shape[1] % 2 else 8
    assert [len(p.row_sets) for p in together] == [2 * L + 1] * 3 + [L + 1] + [parity] * 2 + [1]
    # one group per layout: its pencils read one shared builder
    builders = [p.build.func for p in together]
    assert builders[0] is builders[1] is builders[2] and builders[4] is builders[5]
    assert len(set(map(id, builders))) == 4
    alone = [assemble_pencil(basis, [H])[0] for H in fields]
    by_layout = assemble_pencil(basis, fields[:3]) + assemble_pencil(basis, fields[3:4])
    by_layout += assemble_pencil(basis, fields[4:6]) + assemble_pencil(basis, fields[6:])
    monkeypatch.setattr(harmonics_module, "_CHUNK_BYTES", 1)
    one_at_a_time = assemble_pencil(basis, fields)
    # read in an order unlike the batch's, so that blocks are built by
    # whichever pencil reads them first
    for a, b, c, d in reversed(list(zip(together, alone, by_layout, one_at_a_time))):
        same_bits(a, b)
        same_bits(c, b)
        same_bits(d, b)
    assert assemble_pencil(basis, []) == []


@pytest.mark.parametrize("shape, L", [((13, 26), 12), ((25, 50), 24)])
def test_x3_split_blocks_match_the_dense_gram(shape, L):
    # a ring-constant h even under x3 splits each order block by the parity
    # of l + |m|, summing over one hemisphere: each block matches the dense
    # Gram on every node over its rows, and the entries between the two
    # parities, which the split drops, are roundoff
    grid = build_grid(*shape)
    basis = build_basis(grid, L)
    eigs = RicciEigs(np.array([1.0, 1.0, -2.0]))
    for H in (h_family(eigs, 1.0 / 30.0, 0.3, grid), constant_field(grid, -0.3)):
        w_lap, w_grad = -H.h / (2.0 * H.samples), -H.h
        [(_, sets, build, _)] = harmonics_module.gram_blocks(basis, w_lap[None], w_grad[None])
        assert len(sets) == 2 * L + 1
        dense = reference.weighted_gram(basis, w_lap, w_grad, np.arange(1, basis.n_basis))
        scale = np.abs(dense).max()
        inside = np.zeros(dense.shape, dtype=bool)
        for i, rows in enumerate(sets):
            assert len(set((basis.degrees[1 + rows] + np.abs(basis.orders[1 + rows])).ravel() % 2)) == 1
            for r in rows:
                inside[np.ix_(r, r)] = True
                assert np.abs(build(i)[0] - dense[np.ix_(r, r)]).max() <= 1e-13 * scale
        assert np.abs(dense[~inside]).max() <= 1e-13 * scale


def layout_batches(grid):
    # per layout, fields of one layout at amplitudes that prune their walks
    # differently: ring-constant and even under x3; h proportional to x3;
    # the parity classes; and a rotated h with no symmetry (one block)
    x3 = grid.xyz[:, 2]
    u = grid.xyz @ (np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98))
    axis, parity = RicciEigs(np.array([1.0, 1.0, -2.0])), RicciEigs(np.array([0.7, 0.5, -1.2]))
    cells = [(0.0, 0.1), (1.0 / 90.0, 1e-2), (1.0 / 30.0, 1e-3), (1.0 / 30.0, 0.6)]
    return {
        "x3-split": [h_family(axis, bbar, r, grid) for bbar, r in cells],
        "order": [mean_curvature_from_h(grid, a * x3) for a in (1e-3, 0.01, 0.5, 1.5)],
        "parity": [h_family(parity, bbar, r, grid) for bbar, r in cells[:3] + [(1.0 / 30.0, 0.5)]],
        "one-block": [mean_curvature_from_h(grid, a * (u**2 + u**3)) for a in (1e-3, 0.05, 0.5)],
    }


def bits(minima):
    return {key: np.float64(value).tobytes() for key, value in minima.items()}


def group_minima(pencils, restrict):
    # the minima of the pencils of one group, their parts walked together
    return [float(low) for low, _, _ in functional_module._row_minimum(pencils, restrict)]


@pytest.mark.parametrize("shape, L", [((13, 26), 12), ((25, 50), 24)])
def test_a_batch_of_pencils_solves_each_part_once_per_group(shape, L, monkeypatch):
    # the pencils of one group walk their shared parts together: at each
    # part, those whose bound has not cleared their own minimum, and that
    # have not solved it, get it in one eigvalsh call on their stacked
    # parts, or in as few as keep each stack within _CHUNK_BYTES; each gets
    # both minima and records the parts, bit for bit, that it gets alone,
    # and field_minima gives the batch those minima
    grid = build_grid(*shape)
    basis = build_basis(grid, L)
    stacks = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        assert len(a) == 1 or a.nbytes <= harmonics_module._CHUNK_BYTES
        stacks.append(len(a))
        return real(a, *args, **kwargs)

    pruned_apart = stacked = 0
    for layout, fields in layout_batches(grid).items():
        alone = [assemble_pencil(basis, [H])[0] for H in fields]
        want = [(pencil_minimum(p), pencil_minimum(p, restrict=True)) for p in alone]
        hexes = [tuple(v.hex() for v in w) for w in want]
        assert [tuple(v.hex() for v in got) for got in field_minima(basis, fields, (False, True))] == hexes, layout
        batch = assemble_pencil(basis, fields)
        assert len({id(p.build.func) for p in batch}) == 1, layout
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for restrict in (False, True):
            before = [set(p._minima) for p in batch]
            stacks.clear()
            got = group_minima(batch, restrict)
            assert [v.hex() for v in got] == [w[restrict].hex() for w in want], layout
            # per part any member solved, the fewest calls that the chunk
            # bytes admit, on the members that solved it
            solved = [set(p._minima) - b for p, b in zip(batch, before)]
            calls = 0
            for i, k in set().union(*solved):
                per_call = max(1, harmonics_module._CHUNK_BYTES // (8 * (batch[0].row_sets[i].shape[1] - k) ** 2))
                calls += -(-sum((i, k) in parts for parts in solved) // per_call)
            assert len(stacks) == calls and sum(stacks) == sum(map(len, solved)), layout
            stacked = max([stacked, *stacks])
        monkeypatch.setattr(np.linalg, "eigvalsh", real)
        for b, a in zip(batch, alone):
            assert bits(b._minima) == bits(a._minima), layout
        pruned_apart += len({frozenset(p._minima) for p in batch}) > 1
    # the walks drop members at different parts in some layout, and some
    # call stacks every member of a batch
    assert pruned_apart > 0 and stacked == 4


def test_a_layout_past_the_byte_limit_loses_only_its_own_fields(monkeypatch):
    # at 13x26, L = 12, one x3-split ring pencil needs 2,184 B at once and
    # one parity pencil 36,624 B: below a limit between the two, the parity
    # layout refuses the batch, field_minima solves each field alone, the
    # parity fields get the error their pencils get alone, and the ring
    # fields keep the bits of an unlimited batch
    grid = build_grid(13, 26)
    basis = build_basis(grid, 12)
    ring, parity = (
        [h_family(RicciEigs(np.array(lam)), bbar, 1e-2, grid) for bbar in (0.0, 1.0 / 30.0)]
        for lam in ((1.0, 1.0, -2.0), (0.7, 0.5, -1.2))
    )
    fields = [ring[0], parity[0], ring[1], parity[1]]
    modes = ((True, False, False, True), (False, True, True, True))
    assert [harmonics_module._pencil_bytes(13, 12, mode)[0] for mode in modes] == [2184, 36624]
    want = field_minima(basis, fields, (False, True))
    assert all(isinstance(w, tuple) for w in want)
    monkeypatch.setattr(harmonics_module, "GRID_BYTES_LIMIT", 20000)
    with pytest.raises(ValueError, match="pencil on grid 13x26 at L = 12 needs ") as refusal:
        assemble_pencil(basis, [parity[1]])
    got = field_minima(basis, fields, (False, True))
    for n in (1, 3):
        assert isinstance(got[n], ValueError) and str(got[n]) == str(refusal.value)
    for n in (0, 2):
        assert [v.hex() for v in got[n]] == [v.hex() for v in want[n]]


def test_a_batch_keeps_no_block_past_its_pencils():
    # nothing the batched solve leaves behind refers back to a pencil or a
    # group's blocks: without the cyclic collector, every block goes with
    # the last pencil that reads it
    grid = build_grid(13, 26)
    basis = build_basis(grid, 12)
    gc.disable()
    try:
        for fields in layout_batches(grid).values():
            pencils = assemble_pencil(basis, fields)
            group_minima(pencils, False)
            group_minima(pencils, True)
            views = [p.block(i) for p in pencils for i, _ in p._minima]
            refs = [weakref.ref(a) for a in views + [v.base for v in views]]
            del pencils, views
            assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
