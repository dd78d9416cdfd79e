"""Dense references and shared helpers of the tests.

The program builds the pencil block by block from theta sums and never
forms a dense Gram matrix; the tests check it against the matrices
here, which are built the plain way, on every node.  Each helper that
more than one test module needs is written here once.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from wy_stability import harmonics
from wy_stability.functional import HessianPencil, MeanCurvatureField
from wy_stability.gform import Direction, RicciEigs
from wy_stability.harmonics import FieldCoeffs, HarmonicBasis, index_of


def weighted_gram(
    basis: HarmonicBasis, w_lap, w_grad, rows: NDArray[np.int64]
) -> NDArray[np.float64]:
    """Gram matrix of ``weighted_form`` over the basis rows ``rows``, on every node.

    Built from the rows' (Lap, d/dtheta, d/dphi) samples, in
    O(len(rows)^2 n_nodes).  No computation uses it: it is the dense
    reference that ``gram_blocks`` is checked against.
    """
    w = basis.grid.weights
    inv_s2 = 1.0 / basis.grid.sin_theta**2
    lap = harmonics._row_samples(basis, rows, basis.rad, basis.ang) * -basis.eigenvalues[rows, None]
    dt = harmonics._row_samples(basis, rows, basis.drad, basis.ang)
    dp = harmonics._row_samples(basis, rows, basis.rad, basis.dang)
    wg = w * w_grad
    out = (lap * (w * w_lap)) @ lap.T
    out += (dt * wg) @ dt.T
    out += (dp * (wg * inv_s2)) @ dp.T
    return out


def one_block_M(basis: HarmonicBasis, H: MeanCurvatureField) -> NDArray[np.float64]:
    """The pencil's M without blocking: every l >= 1 row on every node."""
    M = weighted_gram(basis, -H.h / (2.0 * H.samples), -H.h, np.arange(1, basis.n_basis))
    mu = basis.eigenvalues[1:]
    M[np.diag_indices_from(M)] += mu * (0.5 * mu - 1.0)
    return 0.5 * (M + M.T)


def blocks(pencil: HessianPencil) -> tuple[tuple[NDArray[np.int64], NDArray[np.float64]], ...]:
    """Every (row sets, block) pair of the pencil, each block built on its first read."""
    return tuple((rows, pencil.block(i)) for i, rows in enumerate(pencil.row_sets))


def whitened_min(kdiag, rows, B, solver=np.linalg.eigvalsh):
    """``solver`` on B over ``rows`` whitened by kdiag, as the pencil solves it; and 1 / sqrt(kdiag[rows])."""
    s = 1.0 / np.sqrt(kdiag[rows])
    return solver(B * np.outer(s, s)), s


def dense_min(M, kdiag, keep) -> float:
    """The smallest eigenvalue of the dense M over the rows ``keep``, whitened by kdiag."""
    return whitened_min(kdiag, keep, M[np.ix_(keep, keep)])[0][0]


def mirror(x, axis):
    """A field on the (n_theta, n_phi) view under x_axis -> -x_axis."""
    nphi = x.shape[1]
    j = np.arange(nphi)
    return (x[:, (nphi // 2 - j) % nphi], x[:, -j % nphi], x[::-1])[axis - 1]


def unit_coeffs(l: int, m: int) -> FieldCoeffs:
    """The basis function (l, m) at L = 8, the degree of the modules' shared basis."""
    c = np.zeros((8 + 1) ** 2)
    c[index_of(l, m)] = 1.0
    return FieldCoeffs(8, c)


def random_eigs(rng) -> RicciEigs:
    lam = rng.normal(size=3)
    lam -= lam.mean()
    return RicciEigs(lam)


def random_direction(rng) -> Direction:
    v = rng.normal(size=3)
    return Direction(v / np.linalg.norm(v))
