"""Second-variation quadratic form on the round unit sphere.

For a positive mean-curvature field H on the unit sphere (where the
round data have H0 = 2 and the support function weight equals the
metric), the quadratic form under study is

    F_H(eta) = int [ (Lap eta)^2 / H + (1 - H) |grad eta|^2 ] dv,

with polarization Q_H.  At H = H0 the form is nonnegative and its
kernel is spanned by {1, x1, x2, x3}; on that kernel and general H the
form collapses to the closed expression

    F_H(a0 + <a, x>) = |a|^2 int (2 - H) dv + int <a, x>^2 (2 - H)^2 / H dv.

Near the round value every term of the integrand is O(1) while F_H is
as small as the square of the deviation h = H - 2, so the integrand is
never summed as written.  The form is evaluated in deficit form

    F_H(eta) = F_2(eta) - int h [ (Lap eta)^2 / (2H) + |grad eta|^2 ] dv,

where F_2(eta) = sum_lm c_lm^2 mu (mu/2 - 1), mu = l(l+1), is the exact
spectral diagonal of the round form (zero on l <= 1), and h is carried
exactly by the field instead of being recovered from rounded samples
of H.  The identity is exact on every basis, because build_basis only
accepts grids that integrate degree 2L exactly.

Positivity of F_H over mean-zero directions is decided through the
matrix pencil M v = lambda K v, where M is the Gram matrix of Q_H over
the harmonics of degree l >= 1 and K = diag(l^2 (l+1)^2) is the Gram
matrix of int (Lap eta)^2.  Constants are excluded: both forms vanish
on them identically.

The pencil splits into independent blocks whenever h has a symmetry
the grid can see, and each block is solved on its own; the cross-block
entries are exact zeros instead of roundoff, which keeps an O(r^4)
eigenvalue from drowning in the O(1) spectrum.  When h does not depend
on phi, as for the quartic family with lam1 = lam2, Q_H couples only
harmonics of one azimuthal order and trig type: one block per order,
which its cos and sin rows share.  Otherwise the pencil splits by the
parity classes of the coordinate reflections that h is even under: the
quartic family is even under all three, 8 classes on an even n_phi and
4 on an odd one, which has no x1 reflection.  Every block is built from
theta sums (``gram_blocks``), the first time a solve reads it, and kept:
the pencil holds the row sets of each distinct block and builds each
block at most once; the dense M is built when read.

Only a witness reads an eigenvector, and only a block that can hold the
minimum is built and solved.  Whitened by K, the round form is the diagonal
1/2 - 1/(l(l+1)), and |Q_H - Q_2| <= s_lap int (Lap eta)^2
+ s_grad int |grad eta|^2, where s_lap and s_grad are the sups of the
two deficit weights; so, by Weyl's inequality, no eigenvalue of a block
whose lowest degree is l0 lies below 1/2 - s_lap - (1 + s_grad) /
(l0 (l0 + 1)).  Over l >= 2 each block is read from its offset k, the
number of l = 1 rows that lead it: ``block(i)[k:, k:]`` over
``row_sets[i][0][k:]``.  ``pencil_minimum`` visits these parts (i, k) by
ascending bound, as the block layout lists them, takes each minimum from
the eigenvalues alone (``eigvalsh`` of the part whitened by K), and
stops where the bound clears the running minimum.  The pencil records
each part's minimum, so a part is solved at most once across both minima
and the witness, and the bound needs only the sups, so a part it skips
is never built.  ``min_pencil_eigenvalue`` takes the part holding the
minimum from the same routine and runs one ``eigh``, on that part, for
its witness.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .harmonics import (
    FieldCoeffs,
    HarmonicBasis,
    LINEAR_ROWS,
    _check_match,
    _gram_limit,
    gram_blocks,
    round_diagonal,
    weighted_form,
)
from .quad import FOUR_PI, SphereGrid, integrate

__all__ = [
    "MeanCurvatureField",
    "HessianPencil",
    "KernelDecomposition",
    "mean_curvature_from_h",
    "eval_F",
    "eval_Q",
    "kernel_closed_form",
    "assemble_pencil",
    "pencil_minimum",
    "min_pencil_eigenvalue",
    "decompose_kernel",
]


@dataclass(frozen=True)
class MeanCurvatureField:
    """A positive mean-curvature field on a quadrature grid, built from h = H - 2.

    Attributes
    ----------
    grid : SphereGrid
    samples : ndarray, shape (n_nodes,)
        Strictly positive values 2 + h of H at the nodes.
    h : ndarray, shape (n_nodes,)
        The deviation H - 2 from the round value, kept exactly; every
        field comes from ``mean_curvature_from_h``.
    inf_h, sup_h : float
        Cached extrema of the samples.
    tag : str
        Optional provenance note (for example the parameters of a
        synthetic family); empty for ad hoc fields.
    """

    grid: SphereGrid
    samples: NDArray[np.float64]
    h: NDArray[np.float64]
    inf_h: float
    sup_h: float
    tag: str = ""


def mean_curvature_from_h(
    grid: SphereGrid, h: NDArray[np.float64], tag: str = ""
) -> MeanCurvatureField:
    """Validate and wrap nodal samples of the deviation h = H - 2, kept exactly.

    Every field is built from h, so the low bits of h that ``2 + h``
    rounds away still enter F, Q and the pencil.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (grid.n_nodes,):
        raise ValueError(f"h has shape {h.shape}, expected ({grid.n_nodes},)")
    if not np.isfinite(h).all():
        raise ValueError(f"h = H - 2 must be finite at every node, not {h[~np.isfinite(h)][0]}")
    samples = 2.0 + h
    lo = float(samples.min())
    if not lo > 0.0:
        raise ValueError(f"mean curvature must be positive everywhere; min = {lo}")
    return MeanCurvatureField(
        grid=grid,
        samples=samples,
        h=h,
        inf_h=lo,
        sup_h=float(samples.max()),
        tag=tag,
    )


def constant_field(grid: SphereGrid, h: float) -> MeanCurvatureField:
    """H identically equal to 2 + h, built from the deviation h, kept exactly."""
    h = float(h)
    return mean_curvature_from_h(grid, np.full(grid.n_nodes, h), tag=f"const={2.0 + h!r}")


@dataclass(frozen=True)
class HessianPencil:
    """Symmetric pencil (M, K) over harmonics of degree >= 1.

    ``M[i, j]`` is the polarized form Q_H on basis pair (i, j); ``kdiag``
    holds the exact diagonal l^2 (l+1)^2 of the comparison form
    int (Lap eta)^2.  Row index order follows the basis with the l=0
    entry removed.  M is zero outside its diagonal blocks: one distinct
    block per entry of ``row_sets``, in the order ``gram_blocks`` gives
    them, where ``row_sets[i]`` has shape (k, n), the k row sets whose
    block is ``block(i)``, and ``parts[restrict]`` the parts that
    ``_row_minimum`` visits.  When h is constant on every theta ring there
    is one block per azimuthal order, with k = 2 (its cos rows, then its
    sin rows) for order > 0; else one per parity class of the
    reflections h is even under (k = 1), one of every row when there
    are none.

    A block is built the first time it is read: ``block(i)`` calls
    ``build(i)`` once and keeps the result, so a solve that reads few
    blocks builds few.  The dense ``M`` (46 MB at L = 48) reads every
    block; no command reads it or ``degrees`` (each row's l), but the
    benchmark tracer (``perfbench/tracer.py``) sizes its counts from both.
    ``_minima`` records the smallest eigenvalue of each part (i, k)
    solved so far, ``block(i)[k:, k:]`` whitened by kdiag, so each part
    is solved at most once.

    ``sups`` holds (max |h / (2H)|, max |h|) over the nodes, the sups of
    the two deficit weights.  They bound M against the round diagonal:
    |Q_H - Q_2|(eta) <= sups[0] int (Lap eta)^2 + sups[1] int |grad eta|^2.
    """

    L: int
    kdiag: NDArray[np.float64]
    degrees: NDArray[np.int64]
    row_sets: tuple[NDArray[np.int64], ...]
    parts: tuple[tuple[tuple[int, int, int], ...], ...]
    sups: tuple[float, float]
    build: Callable[[int], NDArray[np.float64]] = field(repr=False, compare=False)
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _minima: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def block(self, i: int) -> NDArray[np.float64]:
        """The matrix of ``row_sets[i]``, built on the first read and kept."""
        if i not in self._built:
            self._built[i] = self.build(i)
        return self._built[i]

    @property
    def M(self) -> NDArray[np.float64]:
        M = np.zeros((self.kdiag.size, self.kdiag.size))
        for i, rows in enumerate(self.row_sets):
            for r in rows:
                M[np.ix_(r, r)] = self.block(i)
        return M


@dataclass(frozen=True)
class KernelDecomposition:
    """Split of a field into a0 * 1 + <a, x> + (degree >= 2 remainder)."""

    a0: float
    a: NDArray[np.float64]
    eta2: FieldCoeffs


def _check_field(basis: HarmonicBasis, H: MeanCurvatureField) -> None:
    if (H.grid.n_theta, H.grid.n_phi) != (basis.grid.n_theta, basis.grid.n_phi):
        raise ValueError("mean curvature field and basis use different grids")


def eval_F(basis: HarmonicBasis, H: MeanCurvatureField, eta: FieldCoeffs) -> float:
    """Evaluate F_H(eta) in deficit form, by spectral differentiation and quadrature."""
    return eval_Q(basis, H, eta, eta)


def eval_Q(
    basis: HarmonicBasis,
    H: MeanCurvatureField,
    eta1: FieldCoeffs,
    eta2: FieldCoeffs,
) -> float:
    """Polarized form Q_H(eta1, eta2); Q_H(eta, eta) = F_H(eta).

    Evaluated in deficit form: the exact round diagonal on c1 * c2 minus
    int h [ Lap eta1 Lap eta2 / (2H) + <grad eta1, grad eta2> ].
    """
    _check_field(basis, H)
    deficit_part = weighted_form(basis, H.h / (2.0 * H.samples), H.h, eta1, eta2)
    return float(round_diagonal(basis) @ (eta1.c * eta2.c)) - deficit_part


def kernel_closed_form(H: MeanCurvatureField, a: NDArray[np.float64]) -> float:
    """Closed form of F_H on a0 + <a, x>, an oracle for eval_F.

    The form vanishes on constants, so the value depends on a alone.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError(f"a has shape {a.shape}, expected (3,)")
    grid = H.grid
    deficit = -H.h
    u = grid.xyz @ a
    norm_term = float(a @ a) * integrate(grid, deficit)
    weighted = integrate(grid, u * u * deficit * deficit / H.samples)
    return norm_term + weighted


def assemble_pencil(basis: HarmonicBasis, H: MeanCurvatureField) -> HessianPencil:
    """Assemble the pencil (M, K) over degrees l >= 1, as lazily built blocks of M.

    M is built in deficit form, like eval_Q: the symmetrized Gram blocks
    of ``gram_blocks`` with weights -h / (2H) (Laplacian) and -h
    (gradients), plus the exact round diagonal mu^2/2 - mu, added to a
    block when it is built; the pencil keeps the sups of the two
    |weights|, which need no block, and the symmetries of the weights
    decide the blocks (see ``HessianPencil``).  Before any block, an h
    whose weights exceed ``_gram_limit``, where a Gram sum could overflow,
    is refused by a ValueError naming max |h|.
    """
    _check_field(basis, H)
    w_lap = -H.h / (2.0 * H.samples)
    sups = (float(np.abs(w_lap).max()), float(np.abs(H.h).max()))
    if not max(sups) <= (limit := _gram_limit(basis)):
        raise ValueError(f"h = H - 2 is too large for the Gram sums: max |h| = {sups[1]:.6g} > {limit:.6g}")
    row_sets, gram, parts = gram_blocks(basis, w_lap, -H.h)
    diag = round_diagonal(basis)[1:]

    def build(i: int) -> NDArray[np.float64]:
        B = gram(i)
        B.flat[:: len(B) + 1] += diag[row_sets[i][0]]
        return B

    return HessianPencil(
        L=basis.L,
        kdiag=basis.eigenvalues[1:] ** 2,
        degrees=basis.degrees[1:],
        row_sets=row_sets,
        parts=parts,
        sups=sups,
        build=build,
    )


def _solve(pencil: HessianPencil, i: int, k: int, solver):
    """``solver`` on block i from offset k whitened by kdiag; its rows; 1 / sqrt(kdiag[rows])."""
    rows = pencil.row_sets[i][0][k:]
    inv_sqrt_k = 1.0 / np.sqrt(pencil.kdiag[rows])
    try:
        return solver(pencil.block(i)[k:, k:] * np.outer(inv_sqrt_k, inv_sqrt_k)), rows, inv_sqrt_k
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError(f"symmetric eigensolver did not converge: {exc}") from exc


# Slack on each block's lower bound before it is compared with the running
# minimum: far above the error of eigvalsh on whitened entries of order 1
# (near 1e-15), so every block that can hold or tie a minimum is solved.
_BOUND_MARGIN = 1e-9


def _row_minimum(pencil: HessianPencil, restrict: bool) -> tuple[float, int, int]:
    """The smallest eigenvalue of M v = lambda K v over l >= 1, or with
    ``restrict`` over l >= 2, and the part (i, k) that holds it: block i
    from its offset k, 0, or with ``restrict`` its number of l = 1 rows.

    The whitened round diagonal is 1/2 - 1/mu, and ``pencil.sups``
    bounds the rest, so the minimum over rows of degree l0 and up is at
    least 1/2 - s_lap - (1 + s_grad) / (l0 (l0 + 1)).  The parts are
    visited as ``pencil.parts[restrict]`` lists them, ascending (lowest
    degree, i, k), hence ascending bound, and solved by ``eigvalsh``
    until the bound exceeds the running minimum by ``_BOUND_MARGIN``;
    each minimum goes into ``pencil._minima``, and a part found there is
    not solved again.
    Every part that can hold or tie the minimum is solved, so the
    minimum, and the first block attaining it, are those of solving
    every part.
    """
    if restrict and pencil.L < 2:
        raise ValueError("restricting to degrees l >= 2 needs L >= 2")
    s_lap, s_grad = pencil.sups
    best = (math.inf, -1, -1)
    for l0, i, k in pencil.parts[restrict]:
        if 0.5 - s_lap - (1.0 + s_grad) / (l0 * (l0 + 1.0)) > best[0] + _BOUND_MARGIN:
            break
        if (i, k) not in pencil._minima:
            pencil._minima[i, k] = _solve(pencil, i, k, np.linalg.eigvalsh)[0][0]
        best = min(best, (pencil._minima[i, k], i, k))
    return best


def pencil_minimum(pencil: HessianPencil, restrict: bool = False) -> float:
    """Smallest generalized eigenvalue of M v = lambda K v over l >= 1, or
    with ``restrict`` over l >= 2: the value of ``min_pencil_eigenvalue``,
    from eigenvalues alone."""
    return float(_row_minimum(pencil, restrict)[0])


def min_pencil_eigenvalue(
    pencil: HessianPencil, restrict: bool = False
) -> tuple[float, FieldCoeffs]:
    """Smallest generalized eigenvalue of M v = lambda K v, with witness.

    The value and its part (i, k) are those of ``pencil_minimum`` (the
    first block on a tie); the witness is one ``eigh`` of that part.

    Parameters
    ----------
    restrict : bool
        When true, restrict to degrees l >= 2 (the orthogonal complement
        of the geometric kernel): each block from its offset k, past its
        l = 1 rows; otherwise all l >= 1 rows participate.

    Returns
    -------
    (value, witness)
        The minimum Rayleigh quotient F_H(eta) / int (Lap eta)^2 over the
        truncated space and a unit-L2-norm witness with deterministic
        sign (largest-magnitude coefficient positive).  The witness is
        returned as full coefficients with the l = 0 slot zero.
    """
    low, i, k = _row_minimum(pencil, restrict)
    (_, vecs), rows, inv_sqrt_k = _solve(pencil, i, k, np.linalg.eigh)

    c = np.zeros((pencil.L + 1) ** 2)
    c[rows + 1] = vecs[:, 0] * inv_sqrt_k
    c /= np.linalg.norm(c)
    c *= np.sign(c[np.argmax(np.abs(c))])
    return float(low), FieldCoeffs(pencil.L, c)


def decompose_kernel(basis: HarmonicBasis, coeffs: FieldCoeffs) -> KernelDecomposition:
    """Split coefficients into constant, linear, and l >= 2 parts.

    Returns the coefficients of the function written as
    ``a0 + a1 x1 + a2 x2 + a3 x3 + eta2`` with eta2 supported on l >= 2.
    """
    _check_match(basis, coeffs)
    c = coeffs.c
    a0 = float(c[0] / math.sqrt(FOUR_PI))
    a = math.sqrt(3.0 / FOUR_PI) * c[LINEAR_ROWS]
    c2 = c.copy()
    c2[:4] = 0.0
    return KernelDecomposition(a0=a0, a=a, eta2=FieldCoeffs(coeffs.L, c2))
