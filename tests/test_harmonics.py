"""Real spherical harmonic basis: orthonormality, derivatives, projections."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

import wy_stability.harmonics as harmonics_module
from wy_stability.functional import assemble_pencil, mean_curvature_from_h
from wy_stability.gform import g_gram
from wy_stability.harmonics import (
    FieldCoeffs,
    _field_samples,
    _row_samples,
    analyze,
    build_basis,
    gradient_dot,
    index_of,
    laplacian,
    parity_blocks,
    project,
    synthesize,
    weighted_form,
    weighted_gram,
)
from wy_stability.quad import build_grid, integrate

GRID = build_grid(32, 64)
BASIS = build_basis(GRID, 8)
NMODES = (8 + 1) ** 2


def unit_coeffs(l: int, m: int) -> FieldCoeffs:
    c = np.zeros(NMODES)
    c[index_of(l, m)] = 1.0
    return FieldCoeffs(8, c)


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
    ker = project(BASIS, c, "kernel")
    comp = project(BASIS, c, "kernel_complement")
    assert np.max(np.abs(ker.c + comp.c - c.c)) < 1e-15
    assert np.all(ker.c[BASIS.degrees > 1] == 0.0)
    assert np.all(comp.c[BASIS.degrees <= 1] == 0.0)
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
    gram = weighted_gram(BASIS, 0.5, -1.0, np.arange(4, NMODES))
    mu = BASIS.eigenvalues[4:]
    expected = np.diag(mu * (0.5 * mu - 1.0))
    assert np.max(np.abs(gram - expected)) < 1e-12 * np.max(np.abs(expected))


def test_weighted_form_scalar_vector_and_gram_agree():
    rng = np.random.default_rng(59)
    w_lap = 1.0 + rng.random(GRID.n_nodes)
    w_grad = rng.normal(size=GRID.n_nodes)
    gram = weighted_gram(BASIS, w_lap, w_grad, np.arange(1, NMODES))
    for _ in range(3):
        u = FieldCoeffs(8, rng.normal(size=NMODES))
        v = FieldCoeffs(8, rng.normal(size=NMODES))
        scale = np.abs(gram).max() * np.abs(u.c).sum() * np.abs(v.c).sum()
        scalar = weighted_form(BASIS, w_lap, w_grad, u, v)
        assert abs(scalar - u.c[1:] @ gram @ v.c[1:]) < 1e-13 * scale
        gv = gram @ v.c[1:]
        vec_scale = np.abs(gram).max() * np.abs(v.c).sum()
        assert np.max(np.abs(weighted_form(BASIS, w_lap, w_grad, v)[1:] - gv)) < 1e-13 * vec_scale


def test_parity_blocks_agree_with_the_tables():
    # row k maps to +-itself under each reflection, odd where its block says
    blocks = parity_blocks(BASIS.degrees, BASIS.orders)
    assert sorted(np.concatenate(blocks).tolist()) == list(range(NMODES))
    for code, rows in enumerate(blocks):
        vals = BASIS.values[rows]
        for bit, perm in enumerate(GRID.reflections):
            sign = -1.0 if code >> bit & 1 else 1.0
            assert np.max(np.abs(vals[:, perm] - sign * vals)) < 1e-12


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

    # row samples: the table entries, bit for bit, at fold nodes and all nodes
    folded = grid.fold
    for nodes in [None] + ([folded.nodes] if folded else []):
        cols = slice(None) if nodes is None else nodes
        lap = _row_samples(basis, rows, nodes, basis.rad, basis.ang) * -mu[rows, None]
        dt = _row_samples(basis, rows, nodes, basis.drad, basis.ang)
        dp = _row_samples(basis, rows, nodes, basis.rad, basis.dang)
        np.testing.assert_array_equal(lap, values[rows][:, cols] * -mu[rows, None])
        np.testing.assert_array_equal(dt, dtheta[rows][:, cols])
        np.testing.assert_array_equal(dp, dphi[rows][:, cols])

    # the pencil and the G Gram, bit for bit against the same code reading the tables
    x1, x2, x3 = grid.xyz.T
    fields = [
        mean_curvature_from_h(grid, 0.01 * (x1**2 - 2.0 * x3**4)),  # reflection-even
        mean_curvature_from_h(grid, 0.01 * (x1 * x2**2 + x3)),  # odd: one block
    ]
    on_demand = [assemble_pencil(basis, H).M for H in fields], g_gram(basis)

    def read_tables(basis_, rows_, nodes_, rad, ang):
        table = tables[(rad is basis_.drad) + 2 * (ang is basis_.dang)]
        if nodes_ is None:
            return table[rows_]
        return table[np.ix_(np.arange(basis_.n_basis)[rows_], nodes_)]

    monkeypatch.setattr(harmonics_module, "_row_samples", read_tables)
    from_tables = [assemble_pencil(basis, H).M for H in fields], g_gram(basis)
    for a, b in zip(on_demand[0], from_tables[0]):
        np.testing.assert_array_equal(a, b)
    assert len(on_demand[1]) == len(from_tables[1])
    for (rows_a, a), (rows_b, b) in zip(on_demand[1], from_tables[1]):
        np.testing.assert_array_equal(rows_a, rows_b)
        np.testing.assert_array_equal(a, b)


def test_basis_arrays_are_read_only():
    arrays = [getattr(BASIS, f.name) for f in fields(BASIS)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 8
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0
    # every call builds a new basis
    assert build_basis(GRID, 8) is not build_basis(GRID, 8)
