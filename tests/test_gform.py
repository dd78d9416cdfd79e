"""Quartic-order energy G: coefficients, identities, sharp threshold."""

from __future__ import annotations

import math

import numpy as np
import pytest

import wy_stability.gform as gform_module
from wy_stability.gform import (
    BORDERLINE,
    GAMMA_COEF,
    INDEFINITE,
    POSITIVE,
    THRESHOLD_BBAR,
    Direction,
    GQuadratic,
    RicciEigs,
    classify_bbar,
    compute_A,
    compute_xi,
    deficit_closed_form,
    eta1_coeffs,
    eval_B,
    eval_G,
    g_quadratic,
    leading_value,
    minimize_G,
    optimal_eta2,
    phi_field,
)
from wy_stability.harmonics import (
    FieldCoeffs,
    analyze,
    build_basis,
    laplacian,
    project,
    synthesize,
    weighted_form,
)
from wy_stability.quad import build_grid, integrate

import reference
from reference import random_direction, random_eigs

GRID = build_grid(32, 64)
BASIS = build_basis(GRID, 8)
NMODES = (8 + 1) ** 2

CANON_EIGS = RicciEigs(np.array([1.0, 1.0, -2.0]))
CANON_DIR = Direction(np.array([0.0, 0.0, 1.0]))


def random_complement(rng) -> FieldCoeffs:
    c = rng.normal(size=NMODES)
    c[:4] = 0.0
    return FieldCoeffs(8, c)


def test_ricci_eigs_validation():
    with pytest.raises(ValueError):
        RicciEigs(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        RicciEigs(np.array([1.0, -1.0]))
    assert CANON_EIGS.sum_sq == 6.0


def _accepted(lam) -> bool:
    try:
        RicciEigs(lam)
    except ValueError:
        return False
    return True


def _edge_scale(shape, outside):
    # the scale t nearest ``outside`` at which t * shape is accepted
    inside = 1.0
    while np.nextafter(inside, outside) != outside:
        mid = math.sqrt(inside) * math.sqrt(outside)
        if mid in (inside, outside):
            mid = float(np.nextafter(inside, outside))
        if _accepted(shape * mid):
            inside = mid
        else:
            outside = mid
    return inside


@pytest.mark.parametrize("shape", [(1.0, 1.0, -2.0), (1.0, -1.0, 0.0), (0.7, 0.5, -1.2)])
def test_every_accepted_scale_gives_positive_A_and_D(shape):
    # sum lam_i^2 >= tiny sets the smallest triple and the bound
    # (8 pi/21) sum lam_i^2 on A the largest; at both edges, and for any
    # unit direction, A and D >= (11/25) A are finite and positive
    shape = np.array(shape)
    for outside in (1e-200, 1e200):
        t = _edge_scale(shape, outside)
        assert not _accepted(shape * np.nextafter(t, outside))
        eigs = RicciEigs(shape * t)
        for a in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.3, -0.5, 0.8)):
            a = np.array(a) / np.linalg.norm(a)
            [q] = g_quadratic(eigs, Direction(a), [THRESHOLD_BBAR])
            assert 0 < q.A < math.inf and 0 < q.D < math.inf


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        Direction(np.array([1.0]))


def test_phi_field_moments():
    rng = np.random.default_rng(3)
    for _ in range(10):
        eigs = random_eigs(rng)
        phi = phi_field(eigs, GRID)
        assert abs(integrate(GRID, phi)) < 1e-12 * max(1.0, eigs.sum_sq)
        second = integrate(GRID, phi * phi)
        expected = (8.0 * math.pi / 15.0) * eigs.sum_sq
        assert abs(second - expected) < 1e-12 * max(1.0, expected)


def test_eta1_coeffs_synthesizes_linear_field():
    rng = np.random.default_rng(9)
    for _ in range(5):
        d = random_direction(rng)
        field = synthesize(BASIS, eta1_coeffs(d, 8))
        assert np.max(np.abs(field - GRID.xyz @ d.a)) < 1e-13


def test_compute_A_reference_values():
    val = compute_A(RicciEigs(np.array([1.0, -0.5, -0.5])), Direction(np.array([1.0, 0.0, 0.0])))
    assert abs(val - 44.0 * math.pi / 105.0) < 1e-14
    val = compute_A(CANON_EIGS, CANON_DIR)
    assert abs(val - 176.0 * math.pi / 105.0) < 1e-13
    val = compute_A(RicciEigs(np.array([1.0, -1.0, 0.0])), Direction(np.array([0.0, 0.0, 1.0])))
    assert abs(val - 16.0 * math.pi / 105.0) < 1e-14


def test_compute_A_matches_quadrature():
    rng = np.random.default_rng(15)
    for _ in range(20):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        eta1 = GRID.xyz @ d.a
        phi = phi_field(eigs, GRID)
        quad = integrate(GRID, eta1 * eta1 * phi * phi)
        assert abs(quad - compute_A(eigs, d)) < 1e-10 * max(1.0, quad)


def test_phi_eta1_minus_xi_is_pure_degree_three():
    rng = np.random.default_rng(21)
    for _ in range(10):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        field = phi_field(eigs, GRID) * (GRID.xyz @ d.a) - compute_xi(eigs, d, GRID)
        coeffs = analyze(BASIS, field)
        degrees = np.repeat(np.arange(9), 2 * np.arange(9) + 1)
        off = coeffs.c[degrees != 3]
        assert np.max(np.abs(off)) < 1e-12 * max(1.0, np.max(np.abs(coeffs.c)))
        # eigenfunction identity: Lap field = -12 field, pointwise
        lap = synthesize(BASIS, laplacian(BASIS, coeffs))
        assert np.max(np.abs(lap + 12.0 * field)) < 1e-10 * max(1.0, np.max(np.abs(field)))


def test_g_quadratic_coefficients():
    [q] = g_quadratic(CANON_EIGS, CANON_DIR, [1.0 / 30.0])
    A = 176.0 * math.pi / 105.0
    assert abs(q.A - A) < 1e-13
    D = A - (16.0 * math.pi / 75.0) * 4.0
    assert abs(q.D - D) < 1e-13
    assert abs(q.alpha - 0.5 * A) < 1e-13  # the (1/30 - bbar) term vanishes here
    assert abs(q.beta_coef - (5.0 / 6.0) * math.sqrt(D)) < 1e-13
    assert q.gamma_coef == GAMMA_COEF
    # frozen discriminant example
    assert abs(q.discriminant - 2.0 * math.pi / 9.0) < 1e-12


def test_g_quadratic_over_a_list_matches_the_scalar_formulas():
    # A, D and beta are formed once per direction; each bbar gets the
    # quadratic the scalar formulas give, bit for bit
    rng = np.random.default_rng(26)
    bbars = [0.0, THRESHOLD_BBAR, 1.0 / 30.0, -0.02, 0.05, THRESHOLD_BBAR]
    for _ in range(20):
        eigs, d = random_eigs(rng), random_direction(rng)
        A = compute_A(eigs, d)
        D = A - (16.0 * math.pi / 75.0) * float((d.a**2) @ (eigs.lam**2))
        beta = (5.0 / 6.0) * math.sqrt(D)
        quadratics = g_quadratic(eigs, d, bbars)
        for bbar, q in zip(bbars, quadratics, strict=True):
            alpha = deficit_closed_form(eigs, bbar, 1.0) + 0.5 * A
            assert q == GQuadratic(
                A=A,
                D=D,
                alpha=alpha,
                beta_coef=beta,
                gamma_coef=GAMMA_COEF,
                discriminant=beta * beta - alpha * GAMMA_COEF,
            )
            assert q == g_quadratic(eigs, d, [bbar])[0]
    assert g_quadratic(CANON_EIGS, CANON_DIR, []) == []


def test_discriminant_identity_random():
    # beta^2 - alpha gamma = -(1/54 - (5/3) bbar) pi sum lam^2
    rng = np.random.default_rng(27)
    for _ in range(50):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        bbar = float(rng.uniform(-0.05, 0.05))
        [q] = g_quadratic(eigs, d, [bbar])
        expected = -(1.0 / 54.0 - (5.0 / 3.0) * bbar) * math.pi * eigs.sum_sq
        assert abs(q.discriminant - expected) < 1e-12 * max(1.0, abs(expected))


def test_min_value_closed_form():
    rng = np.random.default_rng(33)
    for _ in range(20):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        bbar = float(rng.uniform(-0.02, 0.05))
        [q] = g_quadratic(eigs, d, [bbar])
        expected = 4.0 * math.pi * (THRESHOLD_BBAR - bbar) * eigs.sum_sq
        assert abs(q.min_value - expected) < 1e-10 * max(1.0, abs(expected))
        assert abs(leading_value(eigs, bbar, 1.0) - expected) < 1e-14 * eigs.sum_sq
        r = float(rng.uniform(1e-4, 0.1))
        assert abs(leading_value(eigs, bbar, r) / r**4 - expected) < 1e-14 * eigs.sum_sq


def test_eval_G_at_optimum_canonical():
    eta2 = optimal_eta2(BASIS, CANON_EIGS, CANON_DIR)
    val = eval_G(BASIS, CANON_EIGS, CANON_DIR, 1.0 / 30.0, eta2)
    assert abs(val - (-8.0 * math.pi / 15.0)) < 1e-8


def test_eval_G_at_optimum_random():
    rng = np.random.default_rng(39)
    for _ in range(10):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        bbar = float(rng.uniform(-0.02, 0.05))
        eta2 = optimal_eta2(BASIS, eigs, d)
        val = eval_G(BASIS, eigs, d, bbar, eta2)
        [q] = g_quadratic(eigs, d, [bbar])
        assert abs(val - q.min_value) < 1e-8 * max(1.0, abs(q.min_value))


def test_optimal_eta2_is_pure_degree_three():
    eta2 = optimal_eta2(BASIS, CANON_EIGS, CANON_DIR)
    degrees = np.repeat(np.arange(9), 2 * np.arange(9) + 1)
    assert np.all(eta2.c[degrees != 3] == 0.0)
    assert np.max(np.abs(eta2.c)) > 0.0


def test_optimal_eta2_keeps_its_last_result_on_the_basis():
    # a repeated call returns the kept read-only coefficients; an equal
    # triple and direction, as new objects, have the same bytes and hit too
    basis = build_basis(GRID, 8)
    first = optimal_eta2(basis, CANON_EIGS, CANON_DIR)
    assert not first.c.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first.c[0] = 1.0
    assert optimal_eta2(basis, CANON_EIGS, CANON_DIR) is first
    same = (RicciEigs(np.array([1.0, 1.0, -2.0])), Direction(np.array([0.0, 0.0, 1.0])))
    assert optimal_eta2(basis, *same) is first


def test_optimal_eta2_recomputes_when_the_basis_lam_or_a_changes():
    # each changed input gives a new result, bit for bit the one a fresh
    # basis with nothing kept computes; a new but equal basis holds no entry
    changed = (build_basis(GRID, 8), RicciEigs(np.array([0.7, 0.5, -1.2])), Direction(np.array([0.0, 0.6, 0.8])))
    for i in range(3):
        basis = build_basis(GRID, 8)
        first = optimal_eta2(basis, CANON_EIGS, CANON_DIR)
        args = [basis, CANON_EIGS, CANON_DIR]
        args[i] = changed[i]
        got = optimal_eta2(*args)
        assert got is not first
        assert i == 0 or not np.array_equal(got.c, first.c)
        np.testing.assert_array_equal(got.c, optimal_eta2(build_basis(GRID, 8), *args[1:]).c)
        assert optimal_eta2(*args) is got


def test_optimal_eta2_keeps_one_entry():
    # after a second (lam, a) the first is recomputed: only the last is kept
    basis = build_basis(GRID, 8)
    tilted = Direction(np.array([0.0, 0.6, 0.8]))
    first = optimal_eta2(basis, CANON_EIGS, CANON_DIR)
    second = optimal_eta2(basis, CANON_EIGS, tilted)
    again = optimal_eta2(basis, CANON_EIGS, CANON_DIR)
    assert again is not first
    np.testing.assert_array_equal(again.c, first.c)
    assert optimal_eta2(basis, CANON_EIGS, tilted) is not second


def test_eval_G_requires_complement_support():
    c = np.zeros(NMODES)
    c[2] = 1.0  # a degree-1 slot
    with pytest.raises(ValueError):
        eval_G(BASIS, CANON_EIGS, CANON_DIR, 0.0, FieldCoeffs(8, c))


def test_minimize_G_matches_closed_form():
    rng = np.random.default_rng(45)
    for _ in range(5):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        bbar = float(rng.uniform(-0.02, 0.05))
        [([value], minimizer)] = minimize_G(BASIS, eigs, [d], (bbar,))
        [q] = g_quadratic(eigs, d, [bbar])
        assert abs(value - q.min_value) < 1e-6 * max(1.0, abs(q.min_value))
        # the numerical minimizer points along the closed-form one
        # (its 12 coefficients on degrees 2 and 3; opt is pure degree 3)
        opt = optimal_eta2(BASIS, eigs, d)
        cos = float(minimizer @ opt.c[4:16]) / (
            np.linalg.norm(minimizer) * np.linalg.norm(opt.c)
        )
        assert cos > 1.0 - 1e-8


def test_minimize_G_over_several_bbar_matches_one_at_a_time():
    # bbar only shifts the constant term, so one minimizer serves them all
    rng = np.random.default_rng(47)
    for _ in range(3):
        eigs, d = random_eigs(rng), random_direction(rng)
        bbars = (0.0, THRESHOLD_BBAR, float(rng.uniform(-0.02, 0.05)))
        [(values, minimizer)] = minimize_G(BASIS, eigs, [d], bbars)
        assert len(values) == 3
        for bbar, value in zip(bbars, values):
            [([alone], minimizer_alone)] = minimize_G(BASIS, eigs, [d], (bbar,))
            assert value == alone
            np.testing.assert_array_equal(minimizer, minimizer_alone)


@pytest.mark.parametrize("lam", [(1.0, 1.0, -2.0), (0.7, 0.5, -1.2), (2.0, -1.0, -1.0)])
def test_threshold_matrix_is_a_multiple_of_the_identity(lam):
    # min G = deficit - a^T T a with T = (4 pi sum lam^2 / 45) I: the
    # threshold 1/90 holds in every kernel direction a
    eigs = RicciEigs(np.array(lam))
    rng = np.random.default_rng(48)
    directions = [random_direction(rng) for _ in range(8)]
    bbars = (0.0, THRESHOLD_BBAR, 1.0 / 30.0, float(rng.uniform(-0.02, 0.05)))
    t = 4.0 * math.pi * eigs.sum_sq / 45.0
    results = minimize_G(BASIS, eigs, directions, bbars)
    assert len(results) == 8
    for values, _ in results:
        for bbar, value in zip(bbars, values, strict=True):
            assert abs(value - (deficit_closed_form(eigs, bbar, 1.0) - t)) <= 1e-12 * eigs.sum_sq


# the benchmark grids and the default grid
BLOCK_GRIDS = [(25, 50), (32, 64), (49, 98)]


def dense_minimize_G(basis, eigs, d, bbar):
    # the stationarity solve without blocking: every l >= 2 row on every node
    Q = reference.weighted_gram(basis, 0.5, -1.0, np.arange(4, basis.n_basis))
    Q = 0.5 * (Q + Q.T)
    phi = phi_field(eigs, basis.grid)
    b = weighted_form(basis, phi / 4.0, phi, eta1_coeffs(d, basis.L))[4:]
    v = np.linalg.solve(Q, b)
    zero = FieldCoeffs(basis.L, np.zeros(basis.n_basis))
    return eval_G(basis, eigs, d, bbar, zero) - float(b @ v), v


# 25x51 has no node at phi = pi - phi_j, so no x1 reflection
@pytest.mark.parametrize("shape", BLOCK_GRIDS + [(25, 51)])
def test_blocked_gram_matches_dense(shape):
    # the round diagonal against the quadrature Gram of every l >= 2 row
    basis = build_basis(build_grid(*shape), 12)
    rng = np.random.default_rng(46)
    for _ in range(5):
        eigs, d = random_eigs(rng), random_direction(rng)
        bbar = float(rng.uniform(-0.02, 0.05))
        ref, v_ref = dense_minimize_G(basis, eigs, d, bbar)
        [([value], minimizer)] = minimize_G(basis, eigs, [d], (bbar,))
        assert abs(value - ref) <= 1e-12 * abs(ref)
        # the minimizer's rows above degree 3 are zero
        full = np.zeros_like(v_ref)
        full[:12] = minimizer
        assert np.abs(full - v_ref).max() <= 1e-12 * np.abs(v_ref).max()


@pytest.mark.parametrize("L", [8, 24, 48])
@pytest.mark.parametrize("lam", [(1.0, 1.0, -2.0), (0.7, 0.5, -1.2), (2.0, -1.0, -1.0)])
def test_cross_term_vector_lives_on_degrees_up_to_three(L, lam):
    # its entry at Y is int Y [Lap(phi Lap eta1) / 4 - div(phi grad eta1)],
    # an odd cubic: the full-degree vector holds only quadrature dust above
    # degree 3, and the one minimize_G reads, analyzed to degree 3, matches
    # it below and is zero above.  The Laplacian term scales each row's
    # analysis by l(l+1), and its roundoff with it: the dust reaches 2.4e-12
    # of the largest entry at L = 48, and 1.9e-15 l(l+1) of it
    basis = build_basis(build_grid(L + 1, 2 * L + 2), L)
    eigs = RicciEigs(np.array(lam))
    phi = phi_field(eigs, basis.grid)
    high = basis.degrees > 3
    for e in np.eye(3):
        d = Direction(e)
        full = weighted_form(basis, phi / 4.0, phi, eta1_coeffs(d, L))
        capped = gform_module._g_cross(basis, eigs, d)
        scale = np.abs(full).max()
        assert np.all(np.abs(full[high]) < 1e-14 * basis.eigenvalues[high] * scale)
        assert np.abs(capped[~high] - full[~high]).max() <= 1e-14 * scale
        assert np.all(capped[high] == 0.0)


def test_minimize_G_needs_degree_two():
    with pytest.raises(ValueError, match="G lives on degrees l >= 2"):
        minimize_G(build_basis(GRID, 1), CANON_EIGS, [CANON_DIR], (0.0,))


def test_cross_term_identity():
    rng = np.random.default_rng(51)
    for _ in range(50):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        lhs, rhs = eval_B(BASIS, eigs, d, random_complement(rng))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_cross_term_vanishes_on_pure_degree_two():
    rng = np.random.default_rng(57)
    phi = phi_field(CANON_EIGS, GRID)
    eta1 = GRID.xyz @ CANON_DIR.a
    for _ in range(10):
        tau = project(BASIS, FieldCoeffs(8, rng.normal(size=NMODES)), 2)
        val = integrate(GRID, phi * eta1 * synthesize(BASIS, tau))
        assert abs(val) < 1e-9


def test_G_lower_bound_below_threshold():
    # for bbar <= 1/90 every eta2 satisfies G >= min G (up to roundoff)
    rng = np.random.default_rng(63)
    for _ in range(20):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        bbar = float(rng.uniform(0.0, THRESHOLD_BBAR))
        eta2 = random_complement(rng)
        val = eval_G(BASIS, eigs, d, bbar, eta2)
        [q] = g_quadratic(eigs, d, [bbar])
        assert val >= q.min_value - 1e-8 * max(1.0, abs(val))


def test_scaling_covariance():
    # scaling lam by s scales A, D, alpha, and min G by s^2
    [q1] = g_quadratic(CANON_EIGS, CANON_DIR, [0.0])
    [q2] = g_quadratic(RicciEigs(2.0 * CANON_EIGS.lam), CANON_DIR, [0.0])
    for attr in ("A", "D", "alpha", "discriminant"):
        assert abs(getattr(q2, attr) - 4.0 * getattr(q1, attr)) < 1e-12
    assert abs(q2.min_value - 4.0 * q1.min_value) < 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(69)
    eigs = random_eigs(rng)
    d = random_direction(rng)
    perm = [2, 0, 1]
    [q1] = g_quadratic(eigs, d, [0.005])
    [q2] = g_quadratic(RicciEigs(eigs.lam[perm]), Direction(d.a[perm]), [0.005])
    assert abs(q1.A - q2.A) < 1e-13
    assert abs(q1.min_value - q2.min_value) < 1e-13


def test_classify_bbar():
    assert classify_bbar(0.0) == POSITIVE
    assert classify_bbar(1.0 / 180.0) == POSITIVE
    assert classify_bbar(1.0 / 30.0) == INDEFINITE
    assert classify_bbar(THRESHOLD_BBAR) == BORDERLINE
    assert classify_bbar(THRESHOLD_BBAR + 1e-12) == BORDERLINE
    assert classify_bbar(THRESHOLD_BBAR + 1e-6) == INDEFINITE
