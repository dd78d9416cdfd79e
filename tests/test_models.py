"""Perturbation family, small-sphere expansion, and certificates."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wy_stability.gform import (
    BORDERLINE,
    Direction,
    RicciEigs,
    classify_bbar,
    deficit_closed_form,
)
from wy_stability.harmonics import build_basis
from wy_stability.models import (
    CASE_I,
    CASE_II,
    CASE_III,
    DEGENERATE,
    Certificate,
    CurvatureData,
    _quartic_field,
    bbar_from_b,
    check_deficit_conditions,
    classify_small_sphere,
    deficit_ratio_certificate,
    h_family,
    negative_direction,
    negative_part_certificate,
    positivity_radius,
    quartic,
    small_sphere_mass,
)
from wy_stability.functional import constant_field
from wy_stability.quad import build_grid, integrate

GRID = build_grid(32, 64)
BASIS = build_basis(GRID, 8)

CANON_EIGS = RicciEigs(np.array([1.0, 1.0, -2.0]))
CANON_DIR = Direction(np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# perturbation family


def test_h_family_samples_formula():
    r = 0.2
    bbar = 0.01
    H = h_family(CANON_EIGS, bbar, r, GRID)
    phi = GRID.xyz**2 @ CANON_EIGS.lam
    expected = 2.0 + r * r * phi - (1.0 / 30.0 - bbar) * r**4 * 6.0
    assert np.max(np.abs(H.samples - expected)) < 1e-14
    assert H.tag != ""
    assert H.inf_h > 0.0


def test_h_family_tag_prints_plain_floats():
    # the tag goes into certify reports, so it must not carry numpy's repr
    H = h_family(CANON_EIGS, 1.0 / 30.0, 0.01, GRID)
    assert H.tag == "h_family(lam=(1.0, 1.0, -2.0), bbar=0.03333333333333333, r=0.01)"


def test_h_family_rejects_bad_radius():
    with pytest.raises(ValueError):
        h_family(CANON_EIGS, 0.0, 0.0, GRID)
    with pytest.raises(ValueError):
        h_family(CANON_EIGS, 0.0, -0.1, GRID)
    with pytest.raises(ValueError):
        h_family(CANON_EIGS, 0.0, 0.71, GRID)  # just past the positivity radius
    h_family(CANON_EIGS, 0.0, 0.70, GRID)  # just inside
    # the deficit at r, finite at r = 1, overflows at r = 20
    with pytest.raises(ValueError, match=r"bbar = 1e\+302 is too large at r = 20\.0"):
        h_family(RicciEigs((1e-3, 1e-3, -2e-3)), 1e302, 20.0, GRID)


# bbar values near the family's zero-deficit point and across the float range
BBARS = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e308, 1e308))


@settings(max_examples=200, deadline=None)
@given(
    lam=st.tuples(st.floats(-3, 3), st.floats(-3, 3))
    .map(lambda p: np.array([p[0], p[1], -(p[0] + p[1])]))
    .filter(lambda lam: lam @ lam >= np.finfo(np.float64).tiny),
    ends=st.lists(BBARS, min_size=2, max_size=2, unique=True).map(sorted),
    scale=st.floats(1e-80, 1.0),
    t=st.floats(0.0, 1.0),
)
def test_quartic_field_is_the_samplers_field_and_admits_every_bbar_between_admitted_ends(lam, ends, scale, t):
    # the builder gives the sampler's field bit for bit; between two ends
    # that quartic admits at r, every bbar passes its rules, and between
    # two sampled ends every field samples, with H at least lo's and |h|
    # at most the larger end's: the Brent steps of a scan rely on this
    eigs = RicciEigs(lam)
    r = scale * positivity_radius(eigs)
    samples = {}
    for x in ends:
        try:
            sampler = quartic(eigs, x, r)
        except ValueError:
            continue
        try:
            H = sampler(GRID)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                _quartic_field(eigs, x, r, GRID)
            assert str(refused.value) == str(exc)
            samples[x] = None
            continue
        built = _quartic_field(eigs, x, r, GRID)
        assert built.h.tobytes() == H.h.tobytes()
        assert built.samples.tobytes() == H.samples.tobytes()
        assert built.tag == H.tag
        samples[x] = H
    if len(samples) < 2:
        return
    lo, hi = ends
    bbar = min(max((1.0 - t) * lo + t * hi, lo), hi)
    quartic(eigs, bbar, r)
    if samples[lo] is None or samples[hi] is None:
        return
    H = _quartic_field(eigs, bbar, r, GRID)
    assert (H.samples >= samples[lo].samples).all()
    assert (np.abs(H.h) <= np.maximum(np.abs(samples[lo].h), np.abs(samples[hi].h))).all()


def test_positivity_radius_reference_value():
    rmax = positivity_radius(RicciEigs(np.array([1.0, -1.0, 0.0])))
    assert abs(rmax - 0.9892993907763024) < 1e-9
    rmax2 = positivity_radius(CANON_EIGS)
    assert abs(rmax2 - 0.7013794570474718) < 1e-9


def test_positivity_radius_scaling():
    # scaling lam by s shrinks the radius by exactly sqrt(s)
    base = positivity_radius(RicciEigs(np.array([1.0, -1.0, 0.0])))
    for s in (4.0, 100.0):
        scaled = positivity_radius(RicciEigs(np.array([s, -s, 0.0])))
        assert abs(scaled - base / math.sqrt(s)) < 1e-12


def test_positivity_radius_near_the_top_of_lam_range():
    # B^2 = (sum |lam_i|)^2 overflowed at 3.5e153 (1, 1, -2), an accepted
    # triple, and the radius read 0.0; against the root at 40 digits
    K = 2.0 - 1e-6
    for scale in (1.0, 1e100, 3.5e153):
        eigs = RicciEigs(scale * np.array([1.0, 1.0, -2.0]))
        with mpmath.workdps(40):
            B = mpmath.fsum(abs(mpmath.mpf(x)) for x in eigs.lam)
            S2 = mpmath.fsum(mpmath.mpf(x) ** 2 for x in eigs.lam)
            ref = mpmath.sqrt(2 * K / (B + mpmath.sqrt(B * B + 4 * (S2 / 45) * K)))
            assert abs(positivity_radius(eigs) - ref) <= 1e-14 * ref
    # the scaling is exact: wherever B^2 is finite, the unscaled formula's bits
    for lam in ((1.0, 1.0, -2.0), (0.7, 0.5, -1.2), (3e-100, -1e-100, -2e-100), (1e150, -0.3e150, -0.7e150)):
        eigs = RicciEigs(np.array(lam))
        B = float(np.abs(eigs.lam).sum())
        unscaled = math.sqrt(2.0 * K / (B + math.sqrt(B * B + 4.0 * (eigs.sum_sq / 45.0) * K)))
        assert positivity_radius(eigs) == unscaled


def test_positivity_radius_needs_nonzero_triple():
    with pytest.raises(ValueError):
        positivity_radius(RicciEigs(np.zeros(3)))


def test_deficit_closed_form_reference():
    # at bbar = 1/90: 4 pi (1/30 - 1/90) * 6 = 8 pi / 15
    val = deficit_closed_form(CANON_EIGS, 1.0 / 90.0, 1.0)
    assert abs(val - 8.0 * math.pi / 15.0) < 1e-13


def test_deficit_closed_form_matches_quadrature():
    for bbar, r in [(0.0, 0.3), (1.0 / 90.0, 0.2), (1.0 / 30.0, 0.1), (0.02, 0.5)]:
        H = h_family(CANON_EIGS, bbar, r, GRID)
        quad = integrate(GRID, 2.0 - H.samples)
        closed = deficit_closed_form(CANON_EIGS, bbar, r)
        assert abs(quad - closed) < 1e-12 * max(1.0, abs(closed))


# ---------------------------------------------------------------------------
# small-sphere expansion and classification


def test_curvature_data_validation():
    with pytest.raises(ValueError):
        CurvatureData(R=-1.0, ric_sq=0.0, lapR=0.0)
    with pytest.raises(ValueError):
        CurvatureData(R=0.0, ric_sq=-2.0, lapR=0.0)
    with pytest.raises(ValueError):
        CurvatureData(R=0.0, ric_sq=6.0, lapR=-1.0)
    # a value that is not finite is refused, whatever the others
    for data in ((math.nan, 6.0, 0.0), (0.0, math.nan, 0.0), (1.0, 6.0, math.nan), (math.inf, 6.0, 0.0)):
        with pytest.raises(ValueError, match="must be finite"):
            CurvatureData(*data)


def test_small_sphere_mass_rows():
    # hand-checked rows of the two-term expansion
    cd = CurvatureData(R=0.0, ric_sq=6.0, lapR=0.0)
    for r in (0.1, 0.5, 1.0):
        assert abs(small_sphere_mass(cd, r) - 0.1 * r**5) < 1e-15
    cd = CurvatureData(R=6.0, ric_sq=12.0, lapR=0.0)
    for r in (0.1, 0.5, 1.0):
        expected = 0.5 * r**3 - 0.125 * r**5
        assert abs(small_sphere_mass(cd, r) - expected) < 1e-15
    assert small_sphere_mass(CurvatureData(0.0, 0.0, 0.0), 0.3) == 0.0
    with pytest.raises(ValueError):
        small_sphere_mass(cd, 0.0)


def test_classify_small_sphere_cases():
    assert classify_small_sphere(CurvatureData(1.0, 0.5, 0.0)) == CASE_I
    assert classify_small_sphere(CurvatureData(0.0, 6.0, 0.0)) == CASE_II
    assert classify_small_sphere(CurvatureData(0.0, 0.0, 1.0)) == CASE_III
    assert classify_small_sphere(CurvatureData(0.0, 0.0, 0.0)) == DEGENERATE


def test_bbar_from_b():
    cd = CurvatureData(0.0, 6.0, 0.0)
    assert bbar_from_b(0.0, cd) == 0.0
    assert classify_bbar(bbar_from_b(1.0 / 90.0, cd)) == BORDERLINE
    assert abs(bbar_from_b(0.0, CurvatureData(0.0, 6.0, 3.6)) + 0.01) < 1e-15
    with pytest.raises(ValueError):
        bbar_from_b(0.0, CurvatureData(0.0, 0.0, 1.0))


def test_bbar_from_b_exact_rationals():
    # exact inputs (int and Fraction fields) give an exact shift
    cd = CurvatureData(0, 6, Fraction(2))
    got = bbar_from_b(Fraction(1, 30), cd)
    assert got == Fraction(1, 36)
    assert isinstance(got, Fraction)


def test_bbar_from_b_refuses_an_overflowing_step():
    # bbar, or 60 ric_sq, which would drop the shift to 0, overflows: the
    # error names b, lap_r and ric_sq.  Just below, the shift is kept
    for ric_sq, lap_r in ((1e-300, 1e300), (5e-324, 1.0), (3e306, 3e306), (1e308, 1e308)):
        named = f"overflows at b = 0.0, lap_r = {lap_r}, ric_sq = {ric_sq}"
        with pytest.raises(ValueError, match=re.escape(named)):
            bbar_from_b(0.0, CurvatureData(0.0, ric_sq, lap_r))
    assert bbar_from_b(0.0, CurvatureData(0.0, 2.9e306, 2.9e306)) == -1.0 / 60.0


# ---------------------------------------------------------------------------
# certificates


def test_certificate_reference_rationals():
    cert = deficit_ratio_certificate(Fraction(1, 3), 2, 2, 2)
    assert cert.delta == Fraction(1, 18)
    assert cert.theta is None
    assert cert.sup_h0 == cert.inf_h0
    cert = negative_part_certificate(Fraction(1, 3), 2, 2, 2, 2)
    assert cert.theta == Fraction(1, 10)
    assert cert.delta == Fraction(1, 9)


def test_certificate_float_path_agrees():
    exact = deficit_ratio_certificate(Fraction(1, 3), 2, 2, 2)
    approx = deficit_ratio_certificate(1.0 / 3.0, 2.0, 2.0, 2.0)
    assert abs(float(exact.delta) - approx.delta) < 1e-15
    exact = negative_part_certificate(Fraction(1, 3), 2, 2, 2, 2)
    approx = negative_part_certificate(1.0 / 3.0, 2.0, 2.0, 2.0, 2.0)
    assert abs(float(exact.theta) - approx.theta) < 1e-15
    assert abs(float(exact.delta) - approx.delta) < 1e-15


def test_certificate_monotone_in_alpha():
    deltas = [
        float(deficit_ratio_certificate(1.0 / 3.0, 2.0, alpha, 2.0).delta)
        for alpha in (0.5, 1.0, 1.5, 2.0)
    ]
    assert all(d1 < d2 for d1, d2 in zip(deltas, deltas[1:]))


def test_certificate_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        deficit_ratio_certificate(0.0, 2, 2, 2)
    with pytest.raises(ValueError):
        negative_part_certificate(1.0 / 3.0, -2.0, 2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        Certificate(beta=1, lambda1=1, alpha=1, inf_h0=1, sup_h0=1, delta=1, theta=1.5)


@pytest.mark.parametrize("beta, lambda1, alpha", [(5e-324, 2.0, 1.99), (1.0 / 3.0, 5e-324, 5e-324)])
def test_subnormal_certificate_constants_are_refused(beta, lambda1, alpha):
    # positive subnormals underflow eps2 + eps1 alpha^2 to 0; the zero delta
    # meets the range rule, whose message names every constant
    with pytest.raises(ValueError, match=r"too large or small for the arithmetic: Certificate\(beta="):
        deficit_ratio_certificate(beta, lambda1, alpha, 2.0)


def test_check_deficit_conditions_constant_fields():
    cert = deficit_ratio_certificate(1.0 / 3.0, 2.0, 1.9, 2.0)
    delta = float(cert.delta)

    # small uniform deficit: all three conditions hold
    report = check_deficit_conditions(constant_field(GRID, -0.01), cert)
    assert report.passed
    assert report.cond_a and report.cond_b1 and report.cond_b2
    assert report.margins["deficit"] > 0.0
    assert abs(report.margins["negative_part"] - delta) < 1e-15
    assert abs(report.margins["ratio"] - (delta - 0.01)) < 1e-12

    # inflated curvature: the deficit is negative, no ratio margin exists
    report = check_deficit_conditions(constant_field(GRID, 0.01), cert)
    assert not report.cond_a
    assert not report.passed
    assert "ratio" not in report.margins
    assert abs(report.margins["negative_part"] - (delta - 0.01)) < 1e-12

    # large deficit: positive but the L2/L1 ratio violates the bound
    report = check_deficit_conditions(constant_field(GRID, -1.5), cert)
    assert report.cond_a and report.cond_b1 and not report.cond_b2
    assert not report.passed


# ---------------------------------------------------------------------------
# explicit negative directions


def test_negative_direction_guaranteed_regime():
    nd = negative_direction(BASIS, CANON_EIGS, 1.0 / 30.0, 1e-2, CANON_DIR)
    assert nd.guaranteed
    assert nd.note == ""
    assert nd.f_value < 0.0
    ratio = nd.f_value / 1e-8
    assert abs(ratio - (-8.0 * math.pi / 15.0)) < 0.05 * (8.0 * math.pi / 15.0)


def test_negative_direction_small_radius_scale():
    # at r = 1e-4 F is ~1e-16 while its integrand terms are O(1); the
    # value must still carry its leading digits, not a cancellation residue
    r = 1e-4
    nd = negative_direction(BASIS, CANON_EIGS, 1.0 / 30.0, r, CANON_DIR)
    target = -8.0 * math.pi / 15.0
    assert abs(nd.f_value / r**4 - target) < 0.005 * abs(target)


def test_negative_direction_below_threshold():
    nd = negative_direction(BASIS, CANON_EIGS, 0.0, 1e-2, CANON_DIR)
    assert not nd.guaranteed
    assert "1/90" in nd.note
    assert nd.f_value > 0.0


def test_negative_direction_radius_too_large():
    # just above the threshold the r^4 margin is tiny; at r = 0.6 the
    # higher-order remainder dominates and the value goes positive
    nd = negative_direction(BASIS, CANON_EIGS, 1.0 / 90.0 + 1e-6, 0.6, CANON_DIR)
    assert nd.f_value > 0.0
    assert not nd.guaranteed
    assert "radius" in nd.note


def test_negative_direction_runs_the_rules_without_a_family():
    # a caller that passes no checked family still gets the rules' refusals
    with pytest.raises(ValueError, match="r must lie in"):
        negative_direction(BASIS, CANON_EIGS, 1.0 / 30.0, 5.0, CANON_DIR)
    with pytest.raises(ValueError, match="bbar = 1e\\+308 is too large"):
        negative_direction(BASIS, CANON_EIGS, 1e308, 1e-2, CANON_DIR)
    family = quartic(CANON_EIGS, 1.0 / 30.0, 1e-2)
    given = negative_direction(BASIS, CANON_EIGS, 1.0 / 30.0, 1e-2, CANON_DIR, family)
    assert given.f_value == negative_direction(BASIS, CANON_EIGS, 1.0 / 30.0, 1e-2, CANON_DIR).f_value


def test_negative_direction_mode_content():
    nd = negative_direction(BASIS, CANON_EIGS, 1.0 / 30.0, 1e-1, CANON_DIR)
    degrees = np.repeat(np.arange(9), 2 * np.arange(9) + 1)
    nz = np.abs(nd.eta.c) > 1e-14
    assert set(degrees[nz]) == {1, 3}
