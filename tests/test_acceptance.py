"""Acceptance suite: the ten headline checks at their stated tolerances.

Each test function is one criterion, so a verbose pytest run prints one
pass/fail line per criterion.  Criterion 5 is split in two: the scale
checks pass, while the remainder-slope window is kept exactly as stated
even though the measured decay cannot meet it (see the docstring there).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from wy_stability.functional import (
    constant_field,
    eval_F,
    mean_curvature_from_h,
    min_pencil_eigenvalue,
)
from wy_stability.gform import (
    Direction,
    RicciEigs,
    compute_A,
    compute_xi,
    eval_B,
    eval_G,
    g_quadratic,
    minimize_G,
    optimal_eta2,
    phi_field,
)
from wy_stability.harmonics import (
    FieldCoeffs,
    analyze,
    build_basis,
    gradient_dot,
    index_of,
    laplacian,
    project,
    synthesize,
)
from wy_stability.models import (
    CASE_I,
    CASE_II,
    CASE_III,
    DEGENERATE,
    CurvatureData,
    check_deficit_conditions,
    classify_small_sphere,
    deficit_ratio_certificate,
    h_family,
    negative_direction,
    negative_part_certificate,
    small_sphere_mass,
)
from wy_stability.quad import FOUR_PI, build_grid, integrate, monomial_integral

import reference
from reference import random_direction, random_eigs

GRID = build_grid(32, 64)
BASIS = build_basis(GRID, 8)
NMODES = (8 + 1) ** 2
DEGREES = np.repeat(np.arange(9), 2 * np.arange(9) + 1)

CANON_EIGS = RicciEigs(np.array([1.0, 1.0, -2.0]))
CANON_DIR = Direction(np.array([0.0, 0.0, 1.0]))


def test_criterion_01_monomial_oracle():
    """Reference integrals exact as rationals; quadrature to 1e-11."""
    # the reference family 4pi/3 and the three higher values
    for p, q, r in [(2, 0, 0), (0, 2, 0), (0, 0, 2)]:
        assert monomial_integral(p, q, r) == Fraction(1, 3)
    assert monomial_integral(2, 2, 0) == Fraction(1, 15)
    assert monomial_integral(4, 2, 0) == Fraction(1, 35)
    assert monomial_integral(2, 2, 2) == Fraction(1, 105)
    # quadrature agreement for every even monomial of total degree <= 10
    for p in range(0, 11, 2):
        for q in range(0, 11 - p, 2):
            for r in range(0, 11 - p - q, 2):
                frac = monomial_integral(p, q, r)
                exact = FOUR_PI * frac.numerator / frac.denominator
                got = integrate(
                    GRID,
                    GRID.xyz[:, 0] ** p * GRID.xyz[:, 1] ** q * GRID.xyz[:, 2] ** r,
                )
                assert abs(got - exact) / exact < 1e-11


def test_criterion_02_quartic_coefficient_oracle():
    """compute_A equals quadrature of int eta1^2 phi^2 for 100 draws."""
    rng = np.random.default_rng(202)
    for _ in range(100):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        eta1 = GRID.xyz @ d.a
        phi = phi_field(eigs, GRID)
        quad = integrate(GRID, eta1 * eta1 * phi * phi)
        closed = compute_A(eigs, d)
        assert abs(quad - closed) < 1e-10 * max(1.0, abs(closed))


def test_criterion_03_identity_suite():
    """Cross-term, orthogonality, eigenfunction, discriminant identities."""
    rng = np.random.default_rng(303)
    # (i) cross-term identity over 50 random complement fields
    for _ in range(50):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        c = rng.normal(size=NMODES)
        c[:4] = 0.0
        lhs, rhs = eval_B(BASIS, eigs, d, FieldCoeffs(8, c))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
    # (ii) the linear-times-quadratic source has no pure degree-2 overlap
    phi = phi_field(CANON_EIGS, GRID)
    eta1 = GRID.xyz @ CANON_DIR.a
    for _ in range(10):
        tau = project(BASIS, FieldCoeffs(8, rng.normal(size=NMODES)), 2)
        assert abs(integrate(GRID, phi * eta1 * synthesize(BASIS, tau))) < 1e-9
    # (iii) phi eta1 - xi is a -12 eigenfunction, pointwise
    for _ in range(5):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        field = phi_field(eigs, GRID) * (GRID.xyz @ d.a) - compute_xi(eigs, d, GRID)
        lap = synthesize(BASIS, laplacian(BASIS, analyze(BASIS, field)))
        assert np.max(np.abs(lap + 12.0 * field)) < 1e-10 * max(
            1.0, np.max(np.abs(field))
        )
    # (iv) discriminant identity over 50 random parameter draws
    for _ in range(50):
        eigs = random_eigs(rng)
        d = random_direction(rng)
        bbar = float(rng.uniform(-0.05, 0.05))
        [q] = g_quadratic(eigs, d, [bbar])
        expected = -(1.0 / 54.0 - (5.0 / 3.0) * bbar) * math.pi * eigs.sum_sq
        assert abs(q.discriminant - expected) < 1e-12 * max(1.0, abs(expected))


def test_criterion_04_sharp_threshold():
    """Min G closed form, independent minimization, sign flip at 1/90."""
    rng = np.random.default_rng(404)
    draws = [(CANON_EIGS, CANON_DIR, 1.0 / 30.0)] + [
        (random_eigs(rng), random_direction(rng), float(rng.uniform(-0.02, 0.05)))
        for _ in range(5)
    ]
    for eigs, d, bbar in draws:
        expected = 4.0 * math.pi * (1.0 / 90.0 - bbar) * eigs.sum_sq
        # closed form at the optimal ray coefficient 1/6
        val = eval_G(BASIS, eigs, d, bbar, optimal_eta2(BASIS, eigs, d))
        assert abs(val - expected) < 1e-8 * max(1.0, abs(expected))
        # independent numerical minimization over all degree <= 8 coefficients
        [([num], _)] = minimize_G(BASIS, eigs, [d], (bbar,))
        assert abs(num - expected) < 1e-6 * max(1.0, abs(expected))

    # bisection on the sign of the numerical minimum
    lo, hi = 0.0, 1.0 / 30.0
    [((flo, fhi), _)] = minimize_G(BASIS, CANON_EIGS, [CANON_DIR], (lo, hi))
    assert flo > 0.0 > fhi
    while hi - lo >= 1.0 / 450.0:
        mid = 0.5 * (lo + hi)
        [([fmid], _)] = minimize_G(BASIS, CANON_EIGS, [CANON_DIR], (mid,))
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
    assert hi - lo < 1.0 / 450.0
    assert lo <= 1.0 / 90.0 <= hi


def counterexample_values():
    out = []
    for r in (1e-1, 1e-2, 1e-3):
        nd = negative_direction(BASIS, CANON_EIGS, 1.0 / 30.0, r, CANON_DIR)
        out.append((r, nd.f_value))
    return out


def test_criterion_05_counterexample_scale():
    """Zero-deficit family with F < 0 and F/r^4 near -8 pi/15."""
    target = -8.0 * math.pi / 15.0
    for r in (1e-1, 1e-2, 1e-3):
        H = h_family(CANON_EIGS, 1.0 / 30.0, r, GRID)
        # the deficit closed form is exactly zero at this parameter
        assert abs(integrate(GRID, 2.0 - H.samples) - 0.0) < 1e-10
    vals = dict(counterexample_values())
    assert vals[1e-2] < 0.0 and vals[1e-3] < 0.0
    assert abs(vals[1e-2] / 1e-8 - target) < 0.05 * abs(target)
    assert abs(vals[1e-3] / 1e-12 - target) < 0.005 * abs(target)


def test_criterion_05_remainder_slope():
    """Log-log remainder slope within 1.0 +/- 0.1, as specified.

    This window cannot be met by the family as defined: H and the test
    direction are even in r, so F/r^4 approaches its limit with an r^2
    remainder.  With F evaluated in deficit form and h = H - 2 carried
    exactly, the measured slope is about 1.98, the true order 2.  The
    check is kept at its stated form instead of being loosened; the
    failure is expected and documented in the README.
    """
    target = -8.0 * math.pi / 15.0
    devs = []
    radii = []
    for r, f in counterexample_values():
        dev = abs(f / r**4 - target)
        assert dev > 0.0
        radii.append(math.log(r))
        devs.append(math.log(dev))
    slope = float(np.polyfit(radii, devs, 1)[0])
    assert 0.9 <= slope <= 1.1


def test_criterion_06_positive_regime():
    """Below threshold the pencil minimum is positive and r^4-stable."""
    rng = np.random.default_rng(606)
    lam = rng.normal(size=3)
    lam -= lam.mean()
    # keep the random triple at the canonical norm: at r = 1e-3 the
    # minimum eigenvalue is ~ 5e-14 and a much smaller triple would push
    # it under the dense eigensolver's absolute floor
    lam *= math.sqrt(6.0 / float(lam @ lam))
    for eigs in (CANON_EIGS, RicciEigs(lam)):
        for bbar in (0.0, 1.0 / 180.0):
            scaled = []
            for r in (1e-1, 1e-2, 1e-3):
                H = h_family(eigs, bbar, r, GRID)
                val, _ = min_pencil_eigenvalue(reference.assembled(BASIS, [H])[0])
                assert val > 0.0
                scaled.append(val / r**4)
            ratio = scaled[1] / scaled[2]
            assert 0.8 < ratio < 1.2


def test_criterion_07_spectral_constants():
    """Restricted minimum 1/3; unrestricted zero with a degree-1 witness."""
    pencil = reference.assembled(BASIS, [constant_field(GRID, 0.0)])[0]
    val, witness = min_pencil_eigenvalue(pencil, restrict=True)
    assert abs(val - 1.0 / 3.0) < 1e-9
    val0, witness0 = min_pencil_eigenvalue(pencil)
    assert abs(val0) < 1e-9
    nz = np.abs(witness0.c) > 1e-8
    assert np.all(DEGREES[nz] == 1)
    # per-eigenspace coefficients: 1/3 at degree 2, 5/12 at degree 3
    round_H = constant_field(GRID, 0.0)
    for l, mu, coef in [(2, 6.0, 1.0 / 3.0), (3, 12.0, 5.0 / 12.0)]:
        c = np.zeros(NMODES)
        c[index_of(l, 0)] = 1.0
        f = eval_F(BASIS, round_H, FieldCoeffs(8, c))
        assert abs(f / mu**2 - coef) < 1e-11


def test_criterion_08_certificates():
    """Exact certificate rationals; passing fields have positive pencils."""
    cert = negative_part_certificate(Fraction(1, 3), 2, 2, 2, 2)
    assert cert.theta == Fraction(1, 10)
    assert cert.delta == Fraction(1, 9)
    cert = deficit_ratio_certificate(Fraction(1, 3), 2, 2, 2)
    assert cert.delta == Fraction(1, 18)

    rng = np.random.default_rng(808)
    for _ in range(20):
        c = rng.normal(size=NMODES)
        c[0] = 0.0
        g = synthesize(BASIS, FieldCoeffs(8, c))
        g = g - g.min()
        g = g / g.max()
        eps = float(rng.uniform(0.002, 0.04))
        H = mean_curvature_from_h(GRID, -eps * g)
        cert = deficit_ratio_certificate(1.0 / 3.0, 2.0, H.inf_h, 2.0)
        report = check_deficit_conditions(H, cert)
        assert report.passed
        val, _ = min_pencil_eigenvalue(reference.assembled(BASIS, [H])[0])
        assert val > 0.0


def test_criterion_09_small_sphere():
    """Case classification and the two hand-computed expansion rows."""
    assert classify_small_sphere(CurvatureData(1.0, 0.5, 0.0)) == CASE_I
    assert classify_small_sphere(CurvatureData(0.0, 6.0, 0.0)) == CASE_II
    assert classify_small_sphere(CurvatureData(0.0, 0.0, 1.0)) == CASE_III
    assert classify_small_sphere(CurvatureData(0.0, 0.0, 0.0)) == DEGENERATE
    # expansion coefficients 1/12 and [24, -13, 12]/1440 via two rows
    cd = CurvatureData(0.0, 6.0, 0.0)
    for r in (0.1, 0.3, 1.0):
        assert abs(small_sphere_mass(cd, r) - 0.1 * r**5) < 1e-14
    cd = CurvatureData(6.0, 12.0, 0.0)
    for r in (0.1, 0.3, 1.0):
        assert abs(small_sphere_mass(cd, r) - (0.5 * r**3 - 0.125 * r**5)) < 1e-14


def test_criterion_10_spectral_gap_inequality():
    """mu_k int |grad|^2 <= int (Lap)^2 on degrees >= k, equality iff pure."""
    rng = np.random.default_rng(1010)
    for k in (1, 2, 3):
        mu_k = k * (k + 1)
        for _ in range(50):
            c = rng.normal(size=NMODES)
            c[DEGREES < k] = 0.0
            c /= np.linalg.norm(c)
            cf = FieldCoeffs(8, c)
            lap2 = integrate(GRID, synthesize(BASIS, laplacian(BASIS, cf)) ** 2)
            grad2 = integrate(GRID, gradient_dot(BASIS, cf, cf))
            gap = lap2 - mu_k * grad2
            assert gap > -1e-9 * max(1.0, lap2)
            # random draws always carry higher-degree mass: strict inequality
            assert gap > 1e-9 * max(1.0, lap2)
        # equality on the pure degree-k eigenspace
        c = rng.normal(size=NMODES)
        c[DEGREES != k] = 0.0
        c /= np.linalg.norm(c)
        cf = FieldCoeffs(8, c)
        lap2 = integrate(GRID, synthesize(BASIS, laplacian(BASIS, cf)) ** 2)
        grad2 = integrate(GRID, gradient_dot(BASIS, cf, cf))
        assert abs(lap2 - mu_k * grad2) < 1e-9 * max(1.0, lap2)
