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
which its cos and sin rows share, and, when h is also even under the x3
reflection, as the quartic family and the constants always are, one per
(order, parity of l + |m|).  Otherwise the pencil splits by the parity
classes of the coordinate reflections that h is even under: the
quartic family is even under all three, 8 classes on an even n_phi and
4 on an odd one, which has no x1 reflection.  Every block is made in
one place, the builder of its ``gram_blocks`` group: from theta sums,
symmetrized, with the round diagonal added, the first time a solve
reads it, and kept; the pencil holds the row sets of each distinct
block, and each block is built at most once; the dense M is built when
read.  ``assemble_pencil`` takes a sequence of fields: those of one
layout share one pass over their weights, and each block is built for
all of them at once, by the first solve of any of them that reads it;
each pencil reads its own member of the group's stack, the bits it
would get alone.

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
is never built.  ``field_minima`` solves a batch of fields one
``gram_blocks`` group at a time: the group's pencils walk their shared
parts together, those that need a part get it from one ``eigvalsh``
call on their parts, read from the group's stack at once, each with
the pruning and the bits it has alone, and they go, with their blocks,
before the next group builds any.
``min_pencil_eigenvalue`` takes the part holding the minimum from the
same routine and runs one ``eigh``, on that part, for its witness.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from .harmonics import (
    FieldCoeffs,
    HarmonicBasis,
    LINEAR_ROWS,
    _CHUNK_BYTES,
    _check_match,
    _gram_limit,
    gram_blocks,
    round_diagonal,
    weighted_form,
)
from .quad import FOUR_PI, Record, SphereGrid, _read_only, integrate

if TYPE_CHECKING:
    from numpy.typing import NDArray

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
    "field_minima",
    "min_pencil_eigenvalue",
    "decompose_kernel",
]


class MeanCurvatureField(Record):
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

    def __init__(
        self, grid: SphereGrid, samples: NDArray[np.float64], h: NDArray[np.float64], inf_h: float, sup_h: float,
        tag: str = "",
    ) -> None:
        vars(self).update(grid=grid, samples=samples, h=h, inf_h=inf_h, sup_h=sup_h, tag=tag)


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
    return MeanCurvatureField(grid, samples, h, lo, float(samples.max()), tag)


def constant_field(grid: SphereGrid, h: float) -> MeanCurvatureField:
    """H identically equal to 2 + h, built from the deviation h, kept exactly."""
    h = float(h)
    return mean_curvature_from_h(grid, np.full(grid.n_nodes, h), tag=f"const={2.0 + h!r}")


class HessianPencil(Record):
    """Symmetric pencil (M, K) over harmonics of degree >= 1.

    ``M[i, j]`` is the polarized form Q_H on basis pair (i, j); ``kdiag``
    holds the exact diagonal l^2 (l+1)^2 of the comparison form
    int (Lap eta)^2.  Row index order follows the basis with the l=0
    entry removed.  M is zero outside its diagonal blocks: one distinct
    block per entry of ``row_sets``, in the order ``gram_blocks`` gives
    them, where ``row_sets[i]`` has shape (k, n), the k row sets whose
    block is ``block(i)``, and ``parts[restrict]`` the parts that
    ``_row_minimum`` visits, together for the pencils that share them.
    When h is constant on every theta ring there is one block per
    azimuthal order, and per parity of l + |m| when h is even under x3,
    with k = 2 (its cos rows, then its sin rows) for order > 0; else one
    per parity class of the reflections h is even under (k = 1), one of
    every row when there are none.

    ``blocks`` is the builder of the pencil's ``gram_blocks`` group and
    ``member`` its index in the group: ``block(i)`` is
    ``blocks(i)[member]``, a read-only view of block i of the group's
    stack, which the first read by any pencil of the group builds for
    all of them and the builder keeps; so a solve that reads few blocks
    builds few, and each is built at most once.  Both are keyword-only,
    so ``repr``, ``==`` and ``hash`` leave them out.  The dense ``M``
    (46 MB at L = 48) reads every block; no command reads it or
    ``degrees`` (each row's l), but the benchmark tracer
    (``perfbench/tracer.py``) sizes its counts from both.
    ``_minima`` records the smallest eigenvalue of each part (i, k)
    solved so far, ``block(i)[k:, k:]`` whitened by kdiag, so each part
    is solved at most once; it is the only record of what the pencil
    has solved, also when its parts are solved in a batch.

    ``sups`` holds (max |h / (2H)|, max |h|) over the nodes, the sups of
    the two deficit weights.  They bound M against the round diagonal:
    |Q_H - Q_2|(eta) <= sups[0] int (Lap eta)^2 + sups[1] int |grad eta|^2.
    """

    def __init__(
        self, L: int, kdiag: NDArray[np.float64], degrees: NDArray[np.int64], row_sets: tuple[NDArray[np.int64], ...],
        parts: tuple[tuple[tuple[int, int, int], ...], ...], sups: tuple[float, float], *,
        blocks: Callable[[int], NDArray[np.float64]], member: int,
    ) -> None:
        vars(self).update(
            L=L, kdiag=kdiag, degrees=degrees, row_sets=row_sets, parts=parts, sups=sups, blocks=blocks,
            member=member, _minima={},
        )

    def block(self, i: int) -> NDArray[np.float64]:
        """The matrix of ``row_sets[i]``, built on the first read by the group and kept."""
        return self.blocks(i)[self.member]

    @property
    def M(self) -> NDArray[np.float64]:
        M = np.zeros((self.kdiag.size, self.kdiag.size))
        for i, rows in enumerate(self.row_sets):
            for r in rows:
                M[np.ix_(r, r)] = self.block(i)
        return M


class KernelDecomposition(Record):
    """Split of a field into a0 * 1 + <a, x> + (degree >= 2 remainder)."""

    def __init__(self, a0: float, a: NDArray[np.float64], eta2: FieldCoeffs) -> None:
        vars(self).update(a0=a0, a=a, eta2=eta2)


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


def assemble_pencil(basis: HarmonicBasis, fields: Sequence[MeanCurvatureField]) -> list[HessianPencil]:
    """Assemble the pencil (M, K) over degrees l >= 1 of each field, as lazily built blocks of M.

    M is built in deficit form, like eval_Q: the blocks of
    ``gram_blocks`` with weights -h / (2H) (Laplacian) and -h
    (gradients), the symmetrized Gram plus the exact round diagonal
    mu^2/2 - mu, finished when built; each pencil keeps the sups of its
    two |weights|, which need no block, and the symmetries of the
    weights decide the blocks (see ``HessianPencil``).  Fields of one
    layout are assembled together: one pass over their weights, and each
    block built for all of them at once, on the first read by any of
    them; each pencil's ``block(i)`` reads its own member of the stack.
    Before any block, an h whose weights exceed ``_gram_limit``, where a
    Gram sum could overflow, is refused by a ValueError naming max |h|,
    and so is a layout past the byte limit; either refuses the whole
    call.
    """
    pencils = [None] * len(fields)
    for members, group in _grouped_pencils(basis, fields):
        for f, pencil in zip(members, group):
            pencils[f] = pencil
    return pencils


def _grouped_pencils(basis: HarmonicBasis, fields: Sequence[MeanCurvatureField]):
    """The pencils of ``assemble_pencil``, as (members, pencils) per ``gram_blocks`` group.

    The call raises every refusal; a group's ring coefficients and
    pencils, which share its block builder, row sets and part lists, are
    made when the iterator reaches them.
    """
    for H in fields:
        _check_field(basis, H)
    if not fields:
        return iter(())
    h = np.stack([H.h for H in fields])
    w_lap = -h / (2.0 * np.stack([H.samples for H in fields]))
    sups = list(zip(np.abs(w_lap).max(axis=1).tolist(), np.abs(h).max(axis=1).tolist()))
    limit = _gram_limit(basis)
    for s_lap, s_grad in sups:
        if not max(s_lap, s_grad) <= limit:
            raise ValueError(f"h = H - 2 is too large for the Gram sums: max |h| = {s_grad:.6g} > {limit:.6g}")
    kdiag, degrees = *_read_only(basis.eigenvalues[1:] ** 2), basis.degrees[1:]

    def group(members, row_sets, blocks, parts):
        pencils = [
            HessianPencil(basis.L, kdiag, degrees, row_sets, parts, sups[f], blocks=blocks, member=j)
            for j, f in enumerate(members)
        ]
        return members, pencils

    return (group(*g) for g in gram_blocks(basis, w_lap, -h))


def field_minima(
    basis: HarmonicBasis, fields: Sequence[MeanCurvatureField], restricts: tuple[bool, ...]
) -> list[tuple[float, ...] | ValueError]:
    """For each field, its ``pencil_minimum`` under each entry of ``restricts``, or the ValueError that refuses its pencil.

    The fields are assembled together and solved one ``gram_blocks``
    group at a time: the group's pencils walk their shared parts together
    (``_row_minimum``), and go, with their blocks, before the next group
    builds any, as the byte limit sizes a group with its blocks kept.  A
    refusal refuses the whole batch, so then each field is solved alone,
    and a refused field gets the error ``assemble_pencil(basis, [H])``
    raises.
    """
    try:
        groups = _grouped_pencils(basis, fields)
    except ValueError as exc:
        return [exc] if len(fields) == 1 else [field_minima(basis, [H], restricts)[0] for H in fields]
    out = [None] * len(fields)
    for members, pencils in groups:
        for f, *values in zip(members, *[_row_minimum(pencils, restrict) for restrict in restricts]):
            out[f] = tuple(float(low) for low, _, _ in values)
    return out


def _solve(pencils: Sequence[HessianPencil], i: int, k: int, solver):
    """``solver``, in one call, on block i from offset k of each pencil, whitened by kdiag.

    Returns its result, the part's rows and 1 / sqrt(kdiag[rows]).  The
    pencils are of one ``gram_blocks`` group, so their parts have the
    same rows and one indexed read of the group's block stacks them.
    """
    first = pencils[0]
    rows = first.row_sets[i][0][k:]
    inv_sqrt_k = 1.0 / np.sqrt(first.kdiag[rows])
    stack = first.blocks(i)[[p.member for p in pencils], k:, k:]
    stack *= np.outer(inv_sqrt_k, inv_sqrt_k)
    try:
        return solver(stack), rows, inv_sqrt_k
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError(f"symmetric eigensolver did not converge: {exc}") from exc


# Slack on each block's lower bound before it is compared with the running
# minimum: far above the error of eigvalsh on whitened entries of order 1
# (near 1e-15), so every block that can hold or tie a minimum is solved.
_BOUND_MARGIN = 1e-9


def _bound(pencil: HessianPencil, l0: int) -> float:
    """The round-sphere lower bound on the pencil's eigenvalues over rows of degree l0 and up."""
    s_lap, s_grad = pencil.sups
    return 0.5 - s_lap - (1.0 + s_grad) / (l0 * (l0 + 1.0))


def _row_minimum(pencils: Sequence[HessianPencil], restrict: bool) -> list[tuple[float, int, int]]:
    """For each pencil, the smallest eigenvalue of M v = lambda K v over
    l >= 1, or with ``restrict`` over l >= 2, and the part (i, k) that
    holds it: block i from its offset k, 0, or with ``restrict`` its
    number of l = 1 rows.

    The pencils are those of one ``gram_blocks`` group, or one pencil:
    they share their blocks' builder, row sets and part lists.  The
    whitened round diagonal is 1/2 - 1/mu, and ``pencil.sups`` bounds
    the rest, so the minimum over rows of degree l0 and up is at least
    1/2 - s_lap - (1 + s_grad) / (l0 (l0 + 1)).  The pencils walk their
    part list together, as ``parts[restrict]`` lists it, ascending
    (lowest degree, i, k), hence ascending bound.  A pencil drops out
    where the bound exceeds its own running minimum by
    ``_BOUND_MARGIN``; at each part, the pencils still walking that have
    not recorded it in ``pencil._minima`` get it solved in one
    ``eigvalsh`` call on their stacked parts, as many per call as
    ``_CHUNK_BYTES`` holds, and each records its own minimum.  So every
    pencil solves the parts, and gets the bits, that it would alone.
    Every part that can hold or tie the minimum is solved, so the
    minimum, and the first block attaining it, are those of solving
    every part.
    """
    first = pencils[0]
    if restrict and first.L < 2:
        raise ValueError("restricting to degrees l >= 2 needs L >= 2")
    best = [(math.inf, -1, -1)] * len(pencils)
    walking = range(len(pencils))
    for l0, i, k in first.parts[restrict]:
        walking = [n for n in walking if not _bound(pencils[n], l0) > best[n][0] + _BOUND_MARGIN]
        if not walking:
            break
        unsolved = [pencils[n] for n in walking if (i, k) not in pencils[n]._minima]
        # a stack saves calls, each of a fixed cost; past _CHUNK_BYTES its
        # parts only hold memory
        size = first.row_sets[i].shape[1] - k
        step = max(1, _CHUNK_BYTES // (8 * size * size))
        for start in range(0, len(unsolved), step):
            chunk = unsolved[start : start + step]
            for pencil, low in zip(chunk, _solve(chunk, i, k, np.linalg.eigvalsh)[0][:, 0]):
                pencil._minima[i, k] = low
        for n in walking:
            best[n] = min(best[n], (pencils[n]._minima[i, k], i, k))
    return best


def pencil_minimum(pencil: HessianPencil, restrict: bool = False) -> float:
    """Smallest generalized eigenvalue of M v = lambda K v over l >= 1, or
    with ``restrict`` over l >= 2: the value of ``min_pencil_eigenvalue``,
    from eigenvalues alone."""
    return float(_row_minimum([pencil], restrict)[0][0])


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
    [(low, i, k)] = _row_minimum([pencil], restrict)
    (_, [vecs]), rows, inv_sqrt_k = _solve([pencil], i, k, np.linalg.eigh)

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
