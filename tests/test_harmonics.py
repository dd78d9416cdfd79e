"""Real spherical harmonic basis: orthonormality, derivatives, projections."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wy_stability.harmonics as harmonics_module
from wy_stability.functional import assemble_pencil, mean_curvature_from_h
from wy_stability.harmonics import (
    FieldCoeffs,
    _field_samples,
    analyze,
    build_basis,
    gram_blocks,
    gradient_dot,
    index_of,
    laplacian,
    project,
    synthesize,
    weighted_form,
)
from wy_stability.quad import build_grid, integrate

import reference
from reference import full_analysis, full_synthesis, unit_coeffs

GRID = build_grid(32, 64)
BASIS = build_basis(GRID, 8)
NMODES = (8 + 1) ** 2


def test_index_of_is_a_bijection():
    seen = set()
    for l in range(9):
        for m in range(-l, l + 1):
            k = index_of(l, m)
            assert 0 <= k < NMODES
            seen.add(k)
    assert len(seen) == NMODES


def test_degrees_and_eigenvalues_follow_index():
    for l in range(9):
        for m in range(-l, l + 1):
            k = index_of(l, m)
            assert BASIS.degrees[k] == l
            assert BASIS.orders[k] == m
            assert BASIS.eigenvalues[k] == l * (l + 1)


def test_constant_mode_value():
    # Y_{0,0} is the constant 1/sqrt(4 pi)
    expected = 1.0 / math.sqrt(4.0 * math.pi)
    assert np.max(np.abs(BASIS.values[0] - expected)) < 1e-14


def test_degree_one_block_is_scaled_coordinates():
    # (m = -1, 0, +1) <-> sqrt(3/4pi) * (x2, x3, x1)
    scale = math.sqrt(3.0 / (4.0 * math.pi))
    x1, x2, x3 = GRID.xyz[:, 0], GRID.xyz[:, 1], GRID.xyz[:, 2]
    for m, coord in [(-1, x2), (0, x3), (1, x1)]:
        row = BASIS.values[index_of(1, m)]
        assert np.max(np.abs(row - scale * coord)) < 1e-13


def test_gram_matrix_is_identity():
    gram = BASIS.values @ (GRID.weights[:, None] * BASIS.values.T)
    err = np.max(np.abs(gram - np.eye(NMODES)))
    assert err < 1e-12


def test_gradient_gram_matches_eigenvalues():
    # int <grad Y_i, grad Y_j> = l(l+1) delta_ij
    for l, m in [(1, 0), (2, 2), (3, -1), (5, 4), (8, -8), (8, 0)]:
        ci = unit_coeffs(l, m)
        val = integrate(GRID, gradient_dot(BASIS, ci, ci))
        assert abs(val - l * (l + 1)) < 1e-10
    # a few off-diagonal pairs vanish
    for (l1, m1), (l2, m2) in [((2, 0), (3, 0)), ((4, 2), (4, -2)), ((1, 1), (2, 1))]:
        val = integrate(GRID, gradient_dot(BASIS, unit_coeffs(l1, m1), unit_coeffs(l2, m2)))
        assert abs(val) < 1e-10


def test_analyze_synthesize_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = rng.normal(size=NMODES)
        back = analyze(BASIS, synthesize(BASIS, FieldCoeffs(8, c)))
        assert np.max(np.abs(back.c - c)) < 1e-12


def test_analyze_of_polynomial_lands_in_low_degrees():
    # x1^2 is a combination of l = 0 and l = 2 only
    coeffs = analyze(BASIS, GRID.xyz[:, 0] ** 2)
    high = coeffs.c[BASIS.degrees > 2]
    assert np.max(np.abs(high)) < 1e-13
    odd = coeffs.c[BASIS.degrees == 1]
    assert np.max(np.abs(odd)) < 1e-13


@functools.lru_cache(maxsize=None)
def degree_basis(L: int, n_phi: int):
    """The basis of degree cap L on the (L+1) x n_phi grid, built once per module run."""
    return build_basis(build_grid(L + 1, n_phi), L)


# each degree cap on a grid of even and of odd n_phi
TRANSFORM_SIZES = [(L, n_phi) for L in (8, 24, 48) for n_phi in (2 * L + 2, 2 * L + 3)]


@pytest.mark.parametrize("L, n_phi", TRANSFORM_SIZES)
def test_synthesis_runs_to_the_top_degree(L, n_phi):
    # every sample transform against the full-table oracle: a field of top
    # degree D < L agrees to 8 ulps of its largest sample, one of degree L
    # bit for bit
    basis = degree_basis(L, n_phi)
    rng = np.random.default_rng(L + n_phi)
    for D in (0, 1, 2, 3, 4, L):
        c = np.zeros(basis.n_basis)
        c[: (D + 1) ** 2] = rng.normal(size=(D + 1) ** 2)
        u = FieldCoeffs(L, c)
        got = (synthesize(basis, u), *_field_samples(basis, u))
        ref = (
            full_synthesis(basis, c, basis.rad, basis.ang),
            full_synthesis(basis, -basis.eigenvalues * c, basis.rad, basis.ang),
            full_synthesis(basis, c, basis.drad, basis.ang),
            full_synthesis(basis, c, basis.rad, basis.dang),
        )
        for g, r in zip(got, ref):
            if D == L:
                np.testing.assert_array_equal(g, r)
            else:
                assert np.abs(g - r).max() <= 8 * np.spacing(np.abs(r).max()), (D, L, n_phi)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 16), data=st.data())
def test_capped_transforms_match_the_full_slot_ones_bit_for_bit(L, data):
    # the transforms scatter and gather only the (D+1)^2 rows of degree <= D;
    # the products over every slot, as the transforms once ran them, give
    # the same bits, and the rows above D stay exactly +0.0
    D = data.draw(st.integers(0, L - 1))
    basis = degree_basis(L, data.draw(st.sampled_from([2 * L + 2, 2 * L + 3])))
    nt, nphi = basis.grid.n_theta, basis.grid.n_phi
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    c = np.zeros(basis.n_basis)
    c[: (D + 1) ** 2] = rng.normal(size=(D + 1) ** 2)
    q = rng.normal(size=basis.grid.n_nodes)
    for rad, ang in ((basis.rad, basis.ang), (basis.drad, basis.ang), (basis.rad, basis.dang)):
        spec = np.zeros((L + 1, 2, L + 1))
        spec.reshape(-1)[basis.slots] = c
        g = np.matmul(spec[: D + 1, :, : D + 1], rad[: D + 1, : D + 1])
        full = (g.reshape(-1, nt).T @ ang[: D + 1].reshape(-1, nphi)).ravel()
        assert np.array_equal(harmonics_module._synthesis(basis, c, rad, ang), full)
        g = (ang[: D + 1].reshape(-1, nphi) @ q.reshape(nt, nphi).T).reshape(D + 1, 2, nt)
        rows = np.zeros((L + 1, 2, L + 1))
        rows[: D + 1, :, : D + 1] = np.matmul(g, rad[: D + 1, : D + 1].transpose(0, 2, 1))
        got = harmonics_module._analysis(basis, q, rad, ang, D)
        assert np.array_equal(got, rows.ravel()[basis.slots])
        above = got[basis.degrees > D]
        assert np.all(above == 0.0) and not np.signbit(above).any()


def test_synthesis_of_the_zero_field_is_zero():
    zero = FieldCoeffs(8, np.zeros(NMODES))
    for samples in (synthesize(BASIS, zero), *_field_samples(BASIS, zero)):
        np.testing.assert_array_equal(samples, np.zeros(GRID.n_nodes))


@pytest.mark.parametrize("L, n_phi", TRANSFORM_SIZES)
def test_analysis_to_a_degree_cap(L, n_phi):
    # the rows of degree <= lmax match the full-table oracle, and every row
    # above is zero; with no cap the analysis is the oracle bit for bit
    basis = degree_basis(L, n_phi)
    f = np.random.default_rng(L * n_phi).normal(size=basis.grid.n_nodes)
    ref = full_analysis(basis, basis.grid.weights * f, basis.rad, basis.ang)
    np.testing.assert_array_equal(analyze(basis, f).c, ref)
    for lmax in range(5):
        got = analyze(basis, f, lmax).c
        low = basis.degrees <= lmax
        assert np.abs(got[low] - ref[low]).max() <= 1e-14 * np.abs(ref[low]).max()
        assert np.all(got[~low] == 0.0)


@pytest.mark.parametrize("lmax", [-1, 9, True, 2.0])
def test_analyze_refuses_a_cap_outside_the_degrees(lmax):
    with pytest.raises(ValueError, match=f"analysis degree cap {lmax!r} outside 0..8"):
        analyze(BASIS, GRID.xyz[:, 0], lmax)


@pytest.mark.parametrize("lmax", [-1, 9, True, 2.0])
def test_weighted_form_refuses_a_cap_outside_the_degrees(lmax):
    u = FieldCoeffs(8, np.eye(NMODES)[5])
    with pytest.raises(ValueError, match=f"analysis degree cap {lmax!r} outside 0..8"):
        weighted_form(BASIS, 1.0, 1.0, u, lmax=lmax)


def test_weighted_form_takes_a_cap_only_for_the_vector():
    u = FieldCoeffs(8, np.eye(NMODES)[5])
    with pytest.raises(ValueError, match="only to the vector form"):
        weighted_form(BASIS, 1.0, 1.0, u, u, lmax=3)


def test_laplacian_multiplies_by_eigenvalue():
    rng = np.random.default_rng(11)
    c = rng.normal(size=NMODES)
    lap = laplacian(BASIS, FieldCoeffs(8, c))
    assert np.max(np.abs(lap.c + BASIS.eigenvalues * c)) < 1e-15


def test_green_identities():
    # int (Lap u) v = int u (Lap v) = -int <grad u, grad v>
    rng = np.random.default_rng(23)
    for _ in range(10):
        cu = FieldCoeffs(8, rng.normal(size=NMODES))
        cv = FieldCoeffs(8, rng.normal(size=NMODES))
        lu_v = integrate(GRID, synthesize(BASIS, laplacian(BASIS, cu)) * synthesize(BASIS, cv))
        u_lv = integrate(GRID, synthesize(BASIS, cu) * synthesize(BASIS, laplacian(BASIS, cv)))
        grad = integrate(GRID, gradient_dot(BASIS, cu, cv))
        scale = max(1.0, abs(grad))
        assert abs(lu_v - u_lv) < 1e-9 * scale
        assert abs(lu_v + grad) < 1e-9 * scale


def test_project_partitions_modes():
    rng = np.random.default_rng(31)
    c = FieldCoeffs(8, rng.normal(size=NMODES))
    parts = [project(BASIS, c, l).c for l in range(BASIS.L + 1)]
    np.testing.assert_array_equal(np.sum(parts, axis=0), c.c)
    pure = project(BASIS, c, 3)
    assert np.all(pure.c[BASIS.degrees != 3] == 0.0)
    np.testing.assert_allclose(pure.c[BASIS.degrees == 3], c.c[BASIS.degrees == 3])


def test_project_rejects_bad_selectors():
    c = FieldCoeffs(8, np.zeros(NMODES))
    with pytest.raises(ValueError):
        project(BASIS, c, "everything")
    with pytest.raises(ValueError):
        project(BASIS, c, True)
    with pytest.raises(ValueError):
        project(BASIS, c, 9)
    with pytest.raises(ValueError):
        project(BASIS, c, -1)
    with pytest.raises(ValueError):
        project(BASIS, c, 3.0)


def test_spectral_inequality_per_degree():
    # for modes of degree >= k: int (Lap u)^2 >= k(k+1) int |grad u|^2
    rng = np.random.default_rng(47)
    for k in (1, 2, 3):
        for _ in range(5):
            c = rng.normal(size=NMODES)
            c[BASIS.degrees < k] = 0.0
            cf = FieldCoeffs(8, c)
            lap2 = integrate(GRID, synthesize(BASIS, laplacian(BASIS, cf)) ** 2)
            grad2 = integrate(GRID, gradient_dot(BASIS, cf, cf))
            assert lap2 >= k * (k + 1) * grad2 - 1e-9 * max(1.0, lap2)


def test_build_basis_requires_enough_quadrature():
    small = build_grid(4, 8)  # exact degree 7 < 2 * 4
    with pytest.raises(ValueError):
        build_basis(small, 4)


def test_mismatched_truncation_raises():
    short = FieldCoeffs(4, np.zeros(25))
    with pytest.raises(ValueError):
        synthesize(BASIS, short)


def test_field_coeffs_shape_check():
    with pytest.raises(ValueError):
        FieldCoeffs(8, np.zeros(80))


def test_weighted_form_round_identity():
    # int [ Lap u Lap v / 2 - <grad u, grad v> ] is diag(mu (mu/2 - 1)) on l >= 2
    gram = reference.weighted_gram(BASIS, 0.5, -1.0, np.arange(4, NMODES))
    mu = BASIS.eigenvalues[4:]
    expected = np.diag(mu * (0.5 * mu - 1.0))
    assert np.max(np.abs(gram - expected)) < 1e-12 * np.max(np.abs(expected))


def test_weighted_form_scalar_vector_and_gram_agree():
    rng = np.random.default_rng(59)
    w_lap = 1.0 + rng.random(GRID.n_nodes)
    w_grad = rng.normal(size=GRID.n_nodes)
    gram = reference.weighted_gram(BASIS, w_lap, w_grad, np.arange(1, NMODES))
    for _ in range(3):
        u = FieldCoeffs(8, rng.normal(size=NMODES))
        v = FieldCoeffs(8, rng.normal(size=NMODES))
        scale = np.abs(gram).max() * np.abs(u.c).sum() * np.abs(v.c).sum()
        scalar = weighted_form(BASIS, w_lap, w_grad, u, v)
        assert abs(scalar - u.c[1:] @ gram @ v.c[1:]) < 1e-13 * scale
        gv = gram @ v.c[1:]
        vec_scale = np.abs(gram).max() * np.abs(v.c).sum()
        assert np.max(np.abs(weighted_form(BASIS, w_lap, w_grad, v)[1:] - gv)) < 1e-13 * vec_scale


def loop_legendre(L, x):
    # the recurrences one (l, m) at a time, indexed [l, m]
    s = np.sqrt(1.0 - x * x)
    p = np.zeros((L + 1, L + 1, x.size))
    dp = np.zeros((L + 1, L + 1, x.size))
    p[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, L + 1):
        p[m, m] = s * math.sqrt((2 * m + 1) / (2.0 * m)) * p[m - 1, m - 1]
    for m in range(0, L):
        p[m + 1, m] = math.sqrt(2 * m + 3.0) * x * p[m, m]
    for m in range(0, L + 1):
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[l, m] = a * (x * p[l - 1, m] - b * p[l - 2, m])
    for m in range(0, L + 1):
        for l in range(m, L + 1):
            cl = math.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l > 0 else 0.0
            prev = p[l - 1, m] if l - 1 >= m else 0.0
            dp[l, m] = (l * x * p[l, m] - cl * prev) / s
    return p, dp


def reference_tables(basis):
    # every basis function at every node, one outer product per row, as
    # the basis was tabulated before it kept only separable factors
    grid, L = basis.grid, basis.L
    p, dp = loop_legendre(L, np.cos(grid.theta[:: grid.n_phi]))
    mm = np.arange(L + 1)[:, None] * grid.phi[: grid.n_phi][None, :]
    cos_m, sin_m = np.cos(mm), np.sin(mm)
    rt2 = math.sqrt(2.0)
    tables = np.empty((3, basis.n_basis, grid.n_nodes))
    for l in range(L + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            if m == 0:
                ang, dang = np.ones(grid.n_phi), np.zeros(grid.n_phi)
                rad, drad = p[l, 0], dp[l, 0]
            elif m > 0:
                ang, dang = cos_m[am], -am * sin_m[am]
                rad, drad = rt2 * p[l, am], rt2 * dp[l, am]
            else:
                ang, dang = sin_m[am], am * cos_m[am]
                rad, drad = rt2 * p[l, am], rt2 * dp[l, am]
            k = index_of(l, m)
            for t, (r, a) in enumerate(((rad, ang), (drad, ang), (rad, dang))):
                tables[t, k] = np.outer(r, a).ravel()
    return tables


def close(got, ref, tol=1e-13):
    return np.abs(got - ref).max() <= tol * np.abs(ref).max()


@pytest.mark.parametrize("shape", [(13, 26), (25, 51), (32, 64)])
def test_separable_transforms_match_tables(shape, monkeypatch):
    grid = build_grid(*shape)
    basis = build_basis(grid, 12)
    values, dtheta, dphi = tables = reference_tables(basis)
    # the recurrences, run for all orders at once, keep every bit
    np.testing.assert_array_equal(basis.values, values)
    np.testing.assert_array_equal(basis.dtheta, dtheta)
    np.testing.assert_array_equal(basis.dphi, dphi)
    mu = basis.eigenvalues
    inv_s2 = 1.0 / grid.sin_theta**2
    rng = np.random.default_rng(61)
    u = FieldCoeffs(12, rng.normal(size=basis.n_basis))
    v = FieldCoeffs(12, rng.normal(size=basis.n_basis))
    f = rng.normal(size=grid.n_nodes)

    # field transforms, against table products
    assert close(synthesize(basis, u), values.T @ u.c)
    assert close(analyze(basis, f).c, values @ (grid.weights * f))
    ut, up = dtheta.T @ u.c, dphi.T @ u.c
    ref_grad = ut * (dtheta.T @ v.c) + up * (dphi.T @ v.c) * inv_s2
    assert close(gradient_dot(basis, u, v), ref_grad)
    ref_samples = (values.T @ (-mu * u.c), ut, up)
    for got, ref in zip(_field_samples(basis, u), ref_samples):
        assert close(got, ref)

    # a field against rows: three analysis transforms, no row samples
    w_lap, w_grad = 1.0 + rng.random(grid.n_nodes), rng.normal(size=grid.n_nodes)
    wl, wg = grid.weights * w_lap, grid.weights * w_grad
    ref_form = -mu * (values @ (ref_samples[0] * wl))
    ref_form += dtheta @ (ut * wg) + dphi @ (up * wg * inv_s2)
    assert close(weighted_form(basis, w_lap, w_grad, u)[4:], ref_form[4:])
    rows = rng.choice(basis.n_basis, size=40, replace=False)
    assert close(weighted_form(basis, w_lap, w_grad, u)[rows], ref_form[rows])

    # the dense reference: weighted_gram on demand is the same code reading
    # the tables, bit for bit
    x1, x2, x3 = grid.xyz.T
    fields = [
        mean_curvature_from_h(grid, 0.01 * (x1**2 - 2.0 * x3**4)),  # even under x1, x2, x3
        mean_curvature_from_h(grid, 0.01 * (x1 * x2**2 + x3)),  # even under x2 only
    ]
    weights = [(-H.h / (2.0 * H.samples), -H.h) for H in fields] + [(0.5, -1.0)]
    rows = np.arange(1, basis.n_basis)
    on_demand = [reference.weighted_gram(basis, wl, wg, rows) for wl, wg in weights]

    def read_tables(basis_, rows_, rad, ang):
        return tables[(rad is basis_.drad) + 2 * (ang is basis_.dang)][rows_]

    monkeypatch.setattr(harmonics_module, "_row_samples", read_tables)
    dense = [reference.weighted_gram(basis, wl, wg, rows) for wl, wg in weights]
    monkeypatch.undo()
    for a, b in zip(on_demand, dense):
        np.testing.assert_array_equal(a, b)

    # the pencil, block by block, against the one-block M that the same
    # reference gives
    for H in fields:
        M = reference.one_block_M(basis, H)
        pencil = assemble_pencil(basis, [H])[0]
        scale = np.abs(M).max()
        inside = np.zeros(M.shape, dtype=bool)
        for rows_b, block in ((r, B) for rows, B in reference.blocks(pencil) for r in rows):
            inside[np.ix_(rows_b, rows_b)] = True
            assert np.abs(block - M[np.ix_(rows_b, rows_b)]).max() <= 1e-12 * scale
        assert len(reference.blocks(pencil)) > 1 and np.abs(M[~inside]).max() <= 1e-13 * scale


def expected_classes(basis, ring, held):
    # the rows of each block in gram_blocks order, counted from row 1
    l, m = basis.degrees[1:], basis.orders[1:]
    a, sin = np.abs(m), (m < 0).astype(int)
    if ring:
        code = 4 * a + 2 * (3 in held) * ((l + a) % 2) + sin
    else:
        bits = ((a + sin) % 2, sin, (l + a) % 2)
        code = sum((2**i * bits[i] for i in range(3) if i + 1 in held), np.zeros_like(a))
    return [np.flatnonzero(code == c) for c in np.unique(code)]


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(2, 4),
    extra=st.tuples(st.integers(1, 3), st.integers(0, 5)),
    ring=st.booleans(),
    held=st.sets(st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_blocks_split_by_the_symmetries_of_the_weights(L, extra, ring, held, seed):
    # even and odd n_theta and n_phi; random nodal weights made constant on
    # every ring, or even under a random subset of the three reflections
    grid = build_grid(L + extra[0], 2 * L + 1 + extra[1])
    basis = build_basis(grid, L)
    rng = np.random.default_rng(seed)
    nt, nphi = grid.n_theta, grid.n_phi
    if nphi % 2:
        held = held - {1}  # no node at phi = pi - phi_j
    weights = []
    for _ in range(2):
        x = rng.normal(size=(nt, nphi))
        if ring:
            x[:] = x[:, :1]
        for axis in held:
            x = 0.5 * (x + reference.mirror(x, axis))
        weights.append(x.ravel())
    [(members, sets, build, _)] = gram_blocks(basis, *(w[None] for w in weights))
    assert members == (0,)
    pairs = [(rows, build(i)[0]) for i, rows in enumerate(sets)]
    blocks = [(r, B) for rows, B in pairs for r in rows]

    # the rows fall in the expected classes, and a sin block shares its
    # cos block's matrix
    want = expected_classes(basis, ring, held)
    assert len(blocks) == len(want)
    for (rows, _), rows_want in zip(blocks, want):
        np.testing.assert_array_equal(rows, rows_want)
    for rows, _ in pairs:
        shared = ring and basis.orders[1 + rows[0, 0]] != 0
        assert rows.shape == (1 + shared, rows[0].size)

    # every block matches the dense reference; the dense entries between
    # classes are roundoff, and the pencil is exactly zero there
    dense = reference.weighted_gram(basis, *weights, np.arange(1, basis.n_basis))
    scale = np.abs(dense).max()
    inside = np.zeros(dense.shape, dtype=bool)
    for rows, B in blocks:
        inside[np.ix_(rows, rows)] = True
        assert np.abs(B - dense[np.ix_(rows, rows)]).max() <= 1e-12 * scale
    assert np.abs(dense[~inside]).max(initial=0.0) <= 1e-13 * scale
    H = mean_curvature_from_h(grid, 0.1 * weights[1] / np.abs(weights[1]).max())
    pencil = assemble_pencil(basis, [H])[0]
    inside = np.zeros(pencil.M.shape, dtype=bool)
    row_sets = [r for rows, _ in reference.blocks(pencil) for r in rows]
    for rows in row_sets:
        inside[np.ix_(rows, rows)] = True
    assert len(row_sets) == len(expected_classes(basis, ring, held))
    assert np.all(pencil.M[~inside] == 0.0)


@pytest.mark.parametrize("L", [8, 24])
def test_the_block_kernel_reads_one_legendre_table(L, monkeypatch):
    # rad and drad are read-only views of one table, so that one index
    # gathers a row's value and derivative; the kernel forms each block's
    # Laplacian rows from its value rows, bit for bit the full table times
    # -l(l+1), for the (order, x3 parity) blocks and for the 8 parity classes
    grid = build_grid(L + 1, 2 * L + 2)
    basis = build_basis(grid, L)
    assert basis.rad.base is basis.legendre and basis.drad.base is basis.legendre
    assert not (basis.legendre.flags.writeable or basis.rad.flags.writeable or basis.drad.flags.writeable)
    mu = np.arange(L + 1) * (np.arange(L + 1) + 1.0)
    lap = basis.rad * -mu[:, None]
    l, m = basis.degrees[1:], basis.orders[1:]
    x1, _, x3 = grid.xyz.T
    real = np.matmul
    right = []  # the second operand of each product: a group's rows [term, ring, row]
    monkeypatch.setattr(np, "matmul", lambda x, y: right.append(y) or real(x, y))
    for h, blocks in ((x3**2, 2 * L + 1), (x1**2 - 2.0 * x3**4, 8)):
        [(_, sets, build, _)] = gram_blocks(basis, 0.01 * h[None], 0.01 * h[None])
        assert len(sets) == blocks
        for i, rows in enumerate(sets):
            right.clear()
            build(i)
            got = np.concatenate([y[0].T for y in right])
            # the groups in order of (|m|, sin), each its rows in order
            rows = rows[0][np.argsort(2 * abs(m[rows[0]]) + (m[rows[0]] < 0), kind="stable")]
            want = lap[abs(m[rows]), l[rows], : got.shape[1]]
            assert got.tobytes() == want.tobytes()


def test_basis_arrays_are_read_only():
    # a fresh basis: BASIS may hold its cached rad and drad too
    arrays = [a for a in vars(build_basis(GRID, 8)).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 7
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0
    # every call builds a new basis
    assert build_basis(GRID, 8) is not build_basis(GRID, 8)
