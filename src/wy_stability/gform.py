"""Leading-order energy form G for quartic curvature perturbations.

For a traceless triple lam = (lam1, lam2, lam3) and a unit direction a,
set phi = sum lam_i x_i^2 and eta1 = <a, x>.  The degree-four term of
the energy along the perturbation family is the functional

    G(eta2) = 4 pi (1/30 - bbar) sum lam_i^2
              + (1/2) int eta1^2 phi^2 dv
              - 2 int phi [ Lap(eta1) Lap(eta2) / 4 + <grad eta1, grad eta2> ] dv
              + int [ (Lap eta2)^2 / 2 - |grad eta2|^2 ] dv

over fields eta2 orthogonal to {1, x1, x2, x3}.  Writing
A = int eta1^2 phi^2 dv and D = A - (16 pi / 75) sum a_i^2 lam_i^2,
the minimum over eta2 reduces to the scalar quadratic

    alpha - 2 beta t + gamma t^2,
    alpha = 4 pi (1/30 - bbar) sum lam_i^2 + A / 2,
    beta = (5/6) sqrt(D),   gamma = 5/12,

whose discriminant beta^2 - alpha gamma equals
-(1/54 - (5/3) bbar) pi sum lam_i^2.  The sign flips exactly at
bbar = 1/90: below it the minimum 4 pi (1/90 - bbar) sum lam_i^2 is
positive, above it the optimal eta2 = (1/6)(phi eta1 - xi) drives G
negative, where xi = (2/5) sum a_i lam_i x_i is the linear component of
phi eta1.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .harmonics import (
    LINEAR_ROWS,
    FieldCoeffs,
    HarmonicBasis,
    analyze,
    project,
    round_diagonal,
    synthesize,
    weighted_form,
)
from .quad import FOUR_PI, Record, SphereGrid, _read_only, integrate

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "RicciEigs",
    "Direction",
    "GQuadratic",
    "phi_field",
    "eta1_coeffs",
    "compute_A",
    "compute_xi",
    "g_quadratic",
    "leading_value",
    "deficit_closed_form",
    "eval_G",
    "eval_B",
    "optimal_eta2",
    "minimize_G",
    "classify_bbar",
    "POSITIVE",
    "INDEFINITE",
    "BORDERLINE",
    "THRESHOLD_BBAR",
    "ZERO_DEFICIT_BBAR",
]

POSITIVE = "POSITIVE"
INDEFINITE = "INDEFINITE"
BORDERLINE = "BORDERLINE"

THRESHOLD_BBAR = 1.0 / 90.0
# the bbar at which the family's total deficit int (2 - H) dv vanishes
ZERO_DEFICIT_BBAR = 1.0 / 30.0

GAMMA_COEF = 5.0 / 12.0


class RicciEigs(Record):
    """Traceless eigenvalue triple driving the quadratic perturbation.

    It must be finite, sum to zero and be nonzero, and the bound
    (8 pi/21) sum lam_i^2 on A over unit directions, formed as
    ``compute_A`` forms A, must be finite; then A > 0 and D >= (11/25) A > 0.
    """

    def __init__(self, lam: NDArray[np.float64]) -> None:
        lam = np.asarray(lam, dtype=np.float64)
        if lam.shape != (3,):
            raise ValueError(f"lam has shape {lam.shape}, expected (3,)")
        vars(self)["lam"] = lam
        if not np.all(np.isfinite(lam)):
            raise ValueError(f"lam must be finite, got {lam}")
        with np.errstate(over="ignore"):
            sum_sq = self.sum_sq
        if not math.isfinite(_a_closed_form(sum_sq, sum_sq)):
            raise ValueError(f"lam is too large: A = int eta1^2 phi^2 can overflow, got {lam}")
        tol = 1e-14 * max(1.0, float(np.abs(lam).sum()))
        if abs(float(lam.sum())) > tol:
            raise ValueError(f"lam must sum to zero, got sum = {lam.sum()}")
        if not self.sum_sq >= np.finfo(np.float64).tiny:
            raise ValueError(f"lam must be a nonzero triple, got sum lam_i^2 = {self.sum_sq}")

    @functools.cached_property
    def sum_sq(self) -> float:
        return float(self.lam @ self.lam)


class Direction(Record):
    """Unit vector selecting the linear kernel direction eta1 = <a, x>."""

    def __init__(self, a: NDArray[np.float64]) -> None:
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (3,):
            raise ValueError(f"a has shape {a.shape}, expected (3,)")
        if abs(float(a @ a) - 1.0) > 1e-14:
            raise ValueError(f"direction must be unit length, |a|^2 = {a @ a}")
        vars(self)["a"] = a


class GQuadratic(Record):
    """Scalar quadratic reduction of min G along the optimal ray."""

    def __init__(
        self, A: float, D: float, alpha: float, beta_coef: float, gamma_coef: float, discriminant: float
    ) -> None:
        vars(self).update(A=A, D=D, alpha=alpha, beta_coef=beta_coef, gamma_coef=gamma_coef, discriminant=discriminant)

    @property
    def min_value(self) -> float:
        """(alpha gamma - beta^2) / gamma, the global minimum of G."""
        return (self.alpha * self.gamma_coef - self.beta_coef**2) / self.gamma_coef


def phi_field(eigs: RicciEigs, grid: SphereGrid) -> NDArray[np.float64]:
    """Nodal samples of phi = sum lam_i x_i^2."""
    return (grid.xyz**2) @ eigs.lam


def eta1_coeffs(direction: Direction, L: int) -> FieldCoeffs:
    """Exact spectral coefficients of eta1 = <a, x> (pure degree 1)."""
    c = np.zeros((L + 1) ** 2)
    c[LINEAR_ROWS] = math.sqrt(FOUR_PI / 3.0) * direction.a
    return FieldCoeffs(L, c)


def compute_A(eigs: RicciEigs, direction: Direction) -> float:
    """Closed form of A = int eta1^2 phi^2 dv.

    Expanding the quartic polynomial against the exact monomial table
    gives ``16 pi (2 sum a_i^2 lam_i^2 / 105 + sum lam_i^2 / 210)``.
    """
    lam = eigs.lam
    return _a_closed_form(float((direction.a**2) @ (lam**2)), float(lam @ lam))


def _a_closed_form(weighted: float, sum_sq: float) -> float:
    """16 pi (2 weighted / 105 + sum_sq / 210), weighted = sum a_i^2 lam_i^2."""
    return 16.0 * math.pi * (2.0 * weighted / 105.0 + sum_sq / 210.0)


def compute_xi(eigs: RicciEigs, direction: Direction, grid: SphereGrid) -> NDArray[np.float64]:
    """Nodal samples of xi = (2/5) sum a_i lam_i x_i.

    xi is the projection of phi * eta1 onto the span of the coordinate
    functions; phi * eta1 - xi is then a pure degree-3 eigenfunction.
    """
    return 0.4 * (grid.xyz @ (direction.a * eigs.lam))


def g_quadratic(eigs: RicciEigs, direction: Direction, bbars: Sequence[float]) -> list[GQuadratic]:
    """Scalar quadratic alpha - 2 beta t + gamma t^2 controlling min G, one per bbar.

    A, D and beta depend on the direction alone and are formed once;
    bbar only shifts alpha, by the deficit 4 pi (1/30 - bbar) sum lam_i^2.
    """
    A = compute_A(eigs, direction)
    D = A - (16.0 * math.pi / 75.0) * float((direction.a**2) @ (eigs.lam**2))
    beta = (5.0 / 6.0) * math.sqrt(D)
    return [
        GQuadratic(A, D, alpha, beta, GAMMA_COEF, discriminant=beta * beta - alpha * GAMMA_COEF)
        for alpha in (deficit_closed_form(eigs, bbar, 1.0) + 0.5 * A for bbar in bbars)
    ]


def leading_value(eigs: RicciEigs, bbar: float, r: float) -> float:
    """r^4 4 pi (1/90 - bbar) sum lam_i^2: min G at r = 1, and the small-r limit of F
    on the negative direction."""
    return r**4 * FOUR_PI * (THRESHOLD_BBAR - bbar) * eigs.sum_sq


def deficit_closed_form(eigs: RicciEigs, bbar: float, r: float) -> float:
    """4 pi r^4 (1/30 - bbar) sum lam_i^2: the family's total deficit int (2 - H) dv,
    and at r = 1 the constant term of G without A / 2."""
    return FOUR_PI * r**4 * (ZERO_DEFICIT_BBAR - bbar) * eigs.sum_sq


def _require_complement(eta2: FieldCoeffs) -> None:
    if np.any(eta2.c[:4] != 0.0):
        raise ValueError(
            "eta2 must be supported on degrees l >= 2; project onto the "
            "kernel complement before calling"
        )


def _g_cross(
    basis: HarmonicBasis, eigs: RicciEigs, direction: Direction, eta2: FieldCoeffs | None = None
):
    """int phi [Lap(eta1) Lap(eta2) / 4 + <grad eta1, grad eta2>] dv.

    With ``eta2`` omitted, the vector of the form against every basis
    function, computed to degree 3 and zero above.  Integrating by parts,
    its entry at Y is int Y [Lap(phi Lap eta1) / 4 - div(phi grad eta1)] dv,
    and both terms are odd cubics (deg phi + deg eta1 = 3), so the vector
    lives on degrees 1 and 3.
    """
    phi = phi_field(eigs, basis.grid)
    cap = min(3, basis.L) if eta2 is None else None
    return weighted_form(basis, phi / 4.0, phi, eta1_coeffs(direction, basis.L), eta2, cap)


def eval_G(
    basis: HarmonicBasis,
    eigs: RicciEigs,
    direction: Direction,
    bbar: float,
    eta2: FieldCoeffs,
) -> float:
    """Evaluate G(eta2) by quadrature on the basis grid."""
    _require_complement(eta2)
    eta1 = synthesize(basis, eta1_coeffs(direction, basis.L))
    phi = phi_field(eigs, basis.grid)
    half_A = 0.5 * integrate(basis.grid, eta1 * eta1 * phi * phi)
    cross = -2.0 * _g_cross(basis, eigs, direction, eta2)
    quad = weighted_form(basis, 0.5, -1.0, eta2, eta2)
    return deficit_closed_form(eigs, bbar, 1.0) + half_A + cross + quad


def eval_B(
    basis: HarmonicBasis,
    eigs: RicciEigs,
    direction: Direction,
    eta2: FieldCoeffs,
) -> tuple[float, float]:
    """Both sides of the cross-term identity.

    Returns ``(lhs, rhs)`` with
    ``lhs = int phi [Lap(eta1) Lap(eta2)/4 + <grad eta1, grad eta2>] dv``
    and ``rhs = 10 int phi eta1 eta2 dv``; the two agree for any eta2
    orthogonal to the kernel.
    """
    _require_complement(eta2)
    lhs = _g_cross(basis, eigs, direction, eta2)
    eta1 = synthesize(basis, eta1_coeffs(direction, basis.L))
    phi = phi_field(eigs, basis.grid)
    rhs = 10.0 * integrate(basis.grid, phi * eta1 * synthesize(basis, eta2))
    return lhs, rhs


def optimal_eta2(
    basis: HarmonicBasis, eigs: RicciEigs, direction: Direction
) -> FieldCoeffs:
    """The minimizing field (1/6)(phi eta1 - xi), pure degree 3.

    The sampled field is analyzed to degree 3 and projected onto the
    degree-3 eigenspace, which removes only quadrature dust: phi eta1 - xi
    is an exact -12 eigenfunction of the Laplacian.

    The basis keeps the last result, one entry, for the bytes of lam and
    a, as long as the basis lives; its coefficients are read-only, and a
    repeated call returns them, so a sweep over (bbar, r) computes the
    field once.
    """
    key = (eigs.lam.tobytes(), direction.a.tobytes())
    kept = vars(basis).get("_eta2")
    if kept is not None and kept[0] == key:
        return kept[1]
    grid = basis.grid
    phi = phi_field(eigs, grid)
    e1 = eta1_coeffs(direction, basis.L)
    samples = (phi * synthesize(basis, e1) - compute_xi(eigs, direction, grid)) / 6.0
    eta2 = project(basis, analyze(basis, samples, 3), 3)
    _read_only(eta2.c)
    vars(basis)["_eta2"] = (key, eta2)
    return eta2


def minimize_G(
    basis: HarmonicBasis,
    eigs: RicciEigs,
    directions: Sequence[Direction],
    bbars: Sequence[float],
) -> list[tuple[list[float], NDArray[np.float64]]]:
    """Minimize G over all degree >= 2 fields, in every direction, from one 3x3 matrix.

    This is an independent route to the minimum: the linear part of G
    comes from the cross-term integrand by quadrature, analyzed to
    degree 3, above which it vanishes (``_g_cross``), and the quadratic
    part is the round-sphere form int [(Lap u)^2 / 2 - |grad u|^2] dv,
    which on the orthonormal harmonics is exactly the diagonal
    mu (mu/2 - 1) >= 12, mu = l(l+1), of ``harmonics.round_diagonal``,
    which the pencil adds too.  The cross term is linear in eta1, so on
    l >= 2 it is B a, with B the vectors of the three coordinate
    directions on degrees 2 and 3; the minimizer is V a, V = B / the
    diagonal, and the minimum is 4 pi (1/30 - bbar) sum lam_i^2 - a^T T a, with
    T = B^T V - (1/2) int phi^2 x x^T dv (A / 2 by quadrature), which
    equals (4 pi sum lam_i^2 / 45) I.  bbar only shifts the minimum.
    Returns, per direction, the minimum for each bbar and the minimizer,
    which all of them share, as its 12 coefficients on degrees 2 and 3
    (basis rows 4..15; zero on degree 3 at L = 2): the minimizer is zero
    above degree 3.
    """
    if basis.L < 2:
        raise ValueError(f"G lives on degrees l >= 2, but the basis stops at L = {basis.L}")
    # G contains -2 b . v with b_i = int phi [Lap(eta1) Lap(Y_i)/4 + <grad eta1, grad Y_i>] dv
    top = (min(3, basis.L) + 1) ** 2
    B = np.stack([_g_cross(basis, eigs, Direction(e))[4:top] for e in np.eye(3)], axis=1)
    V = B / round_diagonal(basis)[4:top, None]
    phi, xyz = phi_field(eigs, basis.grid), basis.grid.xyz
    T = B.T @ V - 0.5 * xyz.T @ ((basis.grid.weights * phi * phi)[:, None] * xyz)
    a = np.array([d.a for d in directions])
    c = np.zeros((len(a), 12))
    c[:, : top - 4] = a @ V.T
    shifts = np.einsum("ki,ij,kj->k", a, T, a)
    deficits = [deficit_closed_form(eigs, bbar, 1.0) for bbar in bbars]
    return [([d - float(s) for d in deficits], row) for s, row in zip(shifts, c)]


def classify_bbar(bbar: float) -> str:
    """Positivity verdict for the quartic family at parameter bbar.

    The minimum of G is 4 pi (1/90 - bbar) sum lam_i^2, so the verdict
    depends only on the position of bbar relative to 1/90: BORDERLINE
    within 1e-9 of it.
    """
    if bbar < THRESHOLD_BBAR - 1e-9:
        return POSITIVE
    if bbar > THRESHOLD_BBAR + 1e-9:
        return INDEFINITE
    return BORDERLINE
