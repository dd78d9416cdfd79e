"""Concrete mean-curvature families, expansions, and certificates.

Three groups of tools live here:

* the explicit quartic family on the unit sphere,
  ``H = 2 + r^2 sum lam_i x_i^2 - (1/30 - bbar) r^4 sum lam_i^2``,
  whose Brown-York deficit has the closed form
  ``4 pi r^4 (1/30 - bbar) sum lam_i^2`` and which carries an explicit
  negative direction ``eta1 + r^2 eta2`` once bbar exceeds 1/90;

* the small-geodesic-sphere expansion of the Brown-York mass,
  ``m(r) = r^3/12 R + r^5/1440 (24 |Ric|^2 - 13 R^2 + 12 Lap R)``,
  with the case classifier for which curvature data make the leading
  coefficient positive;

* certificate calculators that turn coercivity constants
  (beta, lambda1, alpha) into explicit thresholds (delta, theta)
  guaranteeing positivity of the quadratic form without eigensolving.
  The arithmetic stays in plain Python, so exact ``Fraction`` inputs
  produce exact rational certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .functional import (
    MeanCurvatureField,
    eval_F,
    mean_curvature_from_h,
)
from .gform import (
    THRESHOLD_BBAR, ZERO_DEFICIT_BBAR, Direction, RicciEigs, deficit_closed_form, eta1_coeffs,
    optimal_eta2, phi_field,
)
from .harmonics import FieldCoeffs, HarmonicBasis
from .quad import SphereGrid, integrate

__all__ = [
    "CurvatureData",
    "Certificate",
    "ConditionReport",
    "NegativeDirection",
    "h_family",
    "check_radius",
    "check_bbar",
    "positivity_radius",
    "small_sphere_mass",
    "classify_small_sphere",
    "bbar_from_b",
    "negative_part_certificate",
    "deficit_ratio_certificate",
    "check_deficit_conditions",
    "negative_direction",
    "CASE_I",
    "CASE_II",
    "CASE_III",
    "DEGENERATE",
]

CASE_I = "CASE_I"
CASE_II = "CASE_II"
CASE_III = "CASE_III"
DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class CurvatureData:
    """Pointwise curvature data (R, |Ric|^2, Lap R) at a center point.

    Each value must be finite, R and |Ric|^2 nonnegative, and R = 0
    forces lapR >= 0 (nonnegative scalar curvature attaining an interior
    minimum).
    """

    R: float
    ric_sq: float
    lapR: float

    def __post_init__(self) -> None:
        for name, v in (("R", self.R), ("ric_sq", self.ric_sq), ("lapR", self.lapR)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.R < 0:
            raise ValueError(f"scalar curvature must be >= 0, got {self.R}")
        if self.ric_sq < 0:
            raise ValueError(f"|Ric|^2 must be >= 0, got {self.ric_sq}")
        if self.R == 0 and self.lapR < 0:
            raise ValueError(f"R = 0 forces lapR >= 0, got lapR = {self.lapR}")


@dataclass(frozen=True)
class Certificate:
    """Explicit positivity thresholds from coercivity constants.

    ``delta`` bounds how negative the deficit 2 - H may get (and, for the
    ratio variant, the L2/L1 deficit ratio); ``theta`` is the weight in
    the negative-part variant and is absent for the ratio variant.
    Fields keep whatever numeric type they were computed with, so exact
    rational inputs give exact rational thresholds.
    """

    beta: object
    lambda1: object
    alpha: object
    inf_h0: object
    sup_h0: object
    delta: object
    theta: object = None

    def __post_init__(self) -> None:
        _require_positive(
            beta=self.beta, lambda1=self.lambda1, alpha=self.alpha,
            inf_h0=self.inf_h0, sup_h0=self.sup_h0,
        )
        # positive constants give 0 < delta < inf and 0 < theta < 1; a float
        # threshold outside that range overflowed or rounded on the way
        if not 0 < self.delta < math.inf or self.theta is not None and not 0 < self.theta < 1:
            raise ValueError(f"certificate constants too large or small for the arithmetic: {self}")


def h_family(
    eigs: RicciEigs, bbar: float, r: float, grid: SphereGrid
) -> MeanCurvatureField:
    """The quartic perturbation family sampled on the grid.

    ``H = 2 + r^2 phi - (1/30 - bbar) r^4 sum lam_i^2`` with
    ``phi = sum lam_i x_i^2``.  The deviation ``h = H - 2`` is built
    directly and carried exactly by the field.  The radius must pass
    ``check_radius``: within ``positivity_radius(eigs)`` the field is
    strictly positive.
    """
    check_radius(eigs, r)
    h = r * r * phi_field(eigs, grid) - (ZERO_DEFICIT_BBAR - bbar) * r**4 * eigs.sum_sq
    tag = f"h_family(lam={tuple(eigs.lam)!r}, bbar={bbar!r}, r={r!r})"
    return mean_curvature_from_h(grid, h, tag=tag)


def check_radius(eigs: RicciEigs, r: float, name: str = "r") -> float:
    """Refuse a radius the quartic family cannot take; return the positivity radius.

    r must lie in (0, ``positivity_radius(eigs)``] and be large enough
    that r^4 does not underflow.  The radius is compared first, so r^4
    is only formed for a bounded r.  ``name`` names r in the message.
    """
    rmax = positivity_radius(eigs)
    if not 0 < r <= rmax:
        raise ValueError(f"{name} must lie in (0, {rmax:.6g}], the positivity radius, got {r}")
    if not r**4 >= np.finfo(np.float64).tiny:
        raise ValueError(f"{name} = {r} is too small: the r^4 term underflows")
    return rmax


def check_bbar(eigs: RicciEigs, *bbars: float, r: float = 1.0) -> None:
    """Refuse a bbar too large for the family: its deficit at r = 1, and at the
    r the caller evaluates, once past ``check_radius``, must be finite."""
    for bbar in bbars:
        if not math.isfinite(deficit_closed_form(eigs, bbar, 1.0)):
            raise ValueError(f"bbar = {bbar} is too large: 4 pi (1/30 - bbar) sum lam^2 overflows")
        if not math.isfinite(deficit_closed_form(eigs, bbar, r)):
            raise ValueError(f"bbar = {bbar} is too large at r = {r}: 4 pi r^4 (1/30 - bbar) sum lam^2 overflows")


def positivity_radius(eigs: RicciEigs) -> float:
    """Largest radius with a positive uniform lower bound for the family.

    Solves ``g(r) = 2 - r^2 sum |lam_i| - (1/45) r^4 sum lam_i^2 = 1e-6``,
    a quadratic in s = r^2 with one positive root, written in the form
    that does not cancel: s = 2K / (B + sqrt(B^2 + 4 (S2/45) K)) with
    B = sum |lam_i|, S2 = sum lam_i^2 and K = 2 - 1e-6.  The bound does
    not depend on bbar, so one radius serves every bbar.

    B^2 overflows for triples near the top of lam's range, so s is
    solved for lam scaled by 2^-e, e even, to a largest entry below 1,
    and scaled back by 2^-e.  A power of two scales every step exactly,
    so wherever B^2 does not overflow the radius is the unscaled one,
    bit for bit.
    """
    e = math.frexp(float(np.abs(eigs.lam).max()))[1]
    e += e % 2
    lam = np.ldexp(eigs.lam, -e)
    B = float(np.abs(lam).sum())
    K = 2.0 - 1e-6
    s = 2.0 * K / (B + math.sqrt(B * B + 4.0 * (float(lam @ lam) / 45.0) * K))
    return math.sqrt(math.ldexp(s, -e))


def small_sphere_mass(cd: CurvatureData, r: float) -> float:
    """Two-term small-sphere expansion of the Brown-York mass.

    ``m(r) = r^3/12 R + r^5/1440 (24 ric_sq - 13 R^2 + 12 lapR)``; the
    O(r^6) remainder is intentionally not modeled.  A value that is not
    finite raises ValueError, naming r and the curvature data.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    try:
        mass = (
            r**3 / 12.0 * cd.R
            + r**5 / 1440.0 * (24.0 * cd.ric_sq - 13.0 * cd.R**2 + 12.0 * cd.lapR)
        )
    except OverflowError:
        mass = math.inf
    if not math.isfinite(mass):
        raise ValueError(
            f"the mass expansion overflows at r = {r}, R = {cd.R}, "
            f"ric_sq = {cd.ric_sq}, lapR = {cd.lapR}"
        )
    return mass


def classify_small_sphere(cd: CurvatureData) -> str:
    """Which curvature data give a positive leading mass coefficient.

    CASE_I: R > 0 (r^3 leading term); CASE_II: R = 0 with ric_sq > 0;
    CASE_III: R = 0, ric_sq = 0, lapR > 0; DEGENERATE otherwise.
    """
    if cd.R > 0:
        return CASE_I
    if cd.ric_sq > 0:
        return CASE_II
    if cd.lapR > 0:
        return CASE_III
    return DEGENERATE


def bbar_from_b(b, cd: CurvatureData):
    """Shift the family parameter: bbar = b - (1/60) lapR / ric_sq.

    A step that overflows raises ValueError naming b, lap_r and ric_sq:
    bbar itself, or 60 ric_sq, which would silently drop the shift to 0.
    """
    if not cd.ric_sq > 0:
        raise ValueError("bbar shift needs ric_sq > 0")
    sixty_ric = 60 * cd.ric_sq
    bbar = b - cd.lapR / sixty_ric
    if not (math.isfinite(sixty_ric) and math.isfinite(bbar)):
        raise ValueError(
            f"bbar = b - lap_r / (60 ric_sq) overflows at b = {b}, lap_r = {cd.lapR}, ric_sq = {cd.ric_sq}"
        )
    return bbar


def _require_positive(**constants) -> None:
    """Refuse a certificate constant that is not positive, by its name."""
    for name, v in constants.items():
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")


def _coercive_delta(beta, lambda1, alpha, inf_h0):
    """(beta/4) / (1/(alpha inf_h0) + 1/lambda1), the delta both certificates share.

    Written in product form so exact rational inputs stay exact.
    """
    return (beta / 4) * (alpha * inf_h0 * lambda1) / (lambda1 + alpha * inf_h0)


def negative_part_certificate(beta, lambda1, alpha, inf_h0, sup_h0) -> Certificate:
    """Certificate tolerating a sign-changing deficit via its negative part.

    With ``alpha1 = min(alpha, inf_h0)``,

        theta = (beta/2) / (1/alpha1 + sup_h0/lambda1 + beta/2),
        delta = (beta/4) / (1/(alpha inf_h0) + 1/lambda1).

    Positivity of the form follows whenever
    ``theta int (2-H) + 2 int (2-H)_- > 0`` and
    ``sup |(2-H)_-| < delta``.
    """
    _require_positive(beta=beta, lambda1=lambda1, alpha=alpha, inf_h0=inf_h0, sup_h0=sup_h0)
    alpha1 = min(alpha, inf_h0)
    half_beta = beta / 2
    # written product-form so exact rational inputs stay exact
    theta = (half_beta * alpha1 * lambda1) / (
        lambda1 + sup_h0 * alpha1 + half_beta * alpha1 * lambda1
    )
    delta = _coercive_delta(beta, lambda1, alpha, inf_h0)
    return Certificate(
        beta=beta,
        lambda1=lambda1,
        alpha=alpha,
        inf_h0=inf_h0,
        sup_h0=sup_h0,
        delta=delta,
        theta=theta,
    )


def deficit_ratio_certificate(beta, lambda1, alpha, inf_h0) -> Certificate:
    """Certificate bounding the deficit's negative part and L2/L1 ratio.

    With ``eps1 = beta/4`` and ``eps2 = lambda1 beta/4``,

        delta = min( (1/2) / (1/(eps1 alpha^2) + 1/eps2),
                     (beta/4) / (1/(alpha inf_h0) + 1/lambda1) ).

    Positivity of the form follows whenever ``int (2-H) > 0``,
    ``sup |(2-H)_-| < delta``, and
    ``int (2-H)^2 / int (2-H) < delta``.

    The certificate is built for round reference data, so the recorded
    sup_h0 equals inf_h0.
    """
    _require_positive(beta=beta, lambda1=lambda1, alpha=alpha, inf_h0=inf_h0)
    eps1 = beta / 4
    eps2 = lambda1 * beta / 4
    # written product-form so exact rational inputs stay exact
    alpha_sq = alpha * alpha
    denominator = 2 * (eps2 + eps1 * alpha_sq)
    # subnormal constants can underflow it to 0; delta = 0 is then refused
    first = (eps1 * alpha_sq * eps2) / denominator if denominator else 0
    second = _coercive_delta(beta, lambda1, alpha, inf_h0)
    return Certificate(
        beta=beta,
        lambda1=lambda1,
        alpha=alpha,
        inf_h0=inf_h0,
        sup_h0=inf_h0,
        delta=min(first, second),
    )


@dataclass(frozen=True)
class ConditionReport:
    """Quadrature evaluation of the deficit-ratio certificate conditions.

    ``margins`` holds signed distances to each threshold (positive means
    satisfied); the ratio margin is absent when the deficit is not
    positive, since the ratio is then undefined.
    """

    cond_a: bool
    cond_b1: bool
    cond_b2: bool
    margins: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.cond_a and self.cond_b1 and self.cond_b2


def check_deficit_conditions(
    H: MeanCurvatureField, cert: Certificate
) -> ConditionReport:
    """Evaluate the three deficit-ratio conditions for H against 2.

    (a) the total deficit int (2-H) dv is positive; (b1) the negative
    part of the deficit stays below delta in sup norm; (b2) the ratio
    int (2-H)^2 dv / int (2-H) dv stays below delta.
    """
    grid = H.grid
    deficit = -H.h
    total = integrate(grid, deficit)
    neg_sup = float(np.abs(np.minimum(deficit, 0.0)).max())
    delta = float(cert.delta)

    cond_a = total > 0.0
    cond_b1 = neg_sup < delta
    margins = {
        "deficit": total,
        "negative_part": delta - neg_sup,
    }
    if cond_a:
        ratio = integrate(grid, deficit * deficit) / total
        cond_b2 = ratio < delta
        margins["ratio"] = delta - ratio
    else:
        cond_b2 = False
    return ConditionReport(cond_a=cond_a, cond_b1=cond_b1, cond_b2=cond_b2, margins=margins)


@dataclass(frozen=True)
class NegativeDirection:
    """Explicit test direction for the quartic family, with its F value.

    ``guaranteed`` records whether the parameters sit in the regime where
    negativity is assured (bbar > 1/90 and the computed value indeed
    negative); outside it the witness is still returned, with a note.
    """

    eta: FieldCoeffs
    f_value: float
    guaranteed: bool
    note: str = ""


def negative_direction(
    basis: HarmonicBasis,
    eigs: RicciEigs,
    bbar: float,
    r: float,
    a: Direction,
) -> NegativeDirection:
    """Evaluate F on the direction eta1 + r^2 * optimal_eta2.

    For bbar > 1/90 and r small the value is negative with
    ``F / r^4 -> 4 pi (1/90 - bbar) sum lam_i^2``.
    """
    H = h_family(eigs, bbar, r, basis.grid)
    e1 = eta1_coeffs(a, basis.L)
    e2 = optimal_eta2(basis, eigs, a)
    eta = FieldCoeffs(basis.L, e1.c + r * r * e2.c)
    f_value = eval_F(basis, H, eta)

    if bbar <= THRESHOLD_BBAR:
        note = f"bbar = {bbar} is not above the threshold 1/90; no negativity is claimed"
    elif f_value >= 0.0:
        note = f"r = {r} lies outside the radius where the r^4 term dominates"
    else:
        note = ""
    return NegativeDirection(eta=eta, f_value=f_value, guaranteed=not note, note=note)
