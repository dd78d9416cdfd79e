"""Real spherical harmonic basis: orthonormality, derivatives, projections."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wy_stability.harmonics import (
    FieldCoeffs,
    analyze,
    build_basis,
    gradient_dot,
    index_of,
    laplacian,
    parity_blocks,
    project,
    synthesize,
    weighted_form,
)
from wy_stability.quad import build_grid, integrate, reflections

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
    gram = weighted_form(BASIS, 0.5, -1.0, 2, 2)
    mu = BASIS.eigenvalues[4:]
    expected = np.diag(mu * (0.5 * mu - 1.0))
    assert np.max(np.abs(gram - expected)) < 1e-12 * np.max(np.abs(expected))


def test_weighted_form_scalar_vector_and_gram_agree():
    rng = np.random.default_rng(59)
    w_lap = 1.0 + rng.random(GRID.n_nodes)
    w_grad = rng.normal(size=GRID.n_nodes)
    gram = weighted_form(BASIS, w_lap, w_grad, 1, 1)
    for _ in range(3):
        u = FieldCoeffs(8, rng.normal(size=NMODES))
        v = FieldCoeffs(8, rng.normal(size=NMODES))
        scale = np.abs(gram).max() * np.abs(u.c).sum() * np.abs(v.c).sum()
        scalar = weighted_form(BASIS, w_lap, w_grad, u, v)
        assert abs(scalar - u.c[1:] @ gram @ v.c[1:]) < 1e-13 * scale
        gv = gram @ v.c[1:]
        vec_scale = np.abs(gram).max() * np.abs(v.c).sum()
        assert np.max(np.abs(weighted_form(BASIS, w_lap, w_grad, 1, v) - gv)) < 1e-13 * vec_scale
        assert np.max(np.abs(weighted_form(BASIS, w_lap, w_grad, v, 1) - gv)) < 1e-13 * vec_scale
    with pytest.raises(ValueError):
        weighted_form(BASIS, 1.0, 1.0, 9, 9)


def test_parity_blocks_agree_with_the_tables():
    # row k maps to +-itself under each reflection, odd where its block says
    blocks = parity_blocks(BASIS.degrees, BASIS.orders)
    assert sorted(np.concatenate(blocks).tolist()) == list(range(NMODES))
    for code, rows in enumerate(blocks):
        vals = BASIS.values[rows]
        for bit, perm in enumerate(reflections(GRID)):
            sign = -1.0 if code >> bit & 1 else 1.0
            assert np.max(np.abs(vals[:, perm] - sign * vals)) < 1e-12
