"""Real spherical harmonics on the quadrature grid.

The basis is real and L2-orthonormal on the unit sphere:

    Y_{l,0}  = Pbar_l^0(cos theta)
    Y_{l,m}  = sqrt(2) * Pbar_l^m(cos theta) * cos(m phi)    (m > 0)
    Y_{l,-m} = sqrt(2) * Pbar_l^m(cos theta) * sin(m phi)    (m > 0)

where ``Pbar_l^m`` is the orthonormalized associated Legendre function
without the Condon-Shortley phase,

    Pbar_l^m(x) = sqrt((2l+1)/(4pi) * (l-m)!/(l+m)!) * P_l^m(x).

Functions are indexed by ``l*l + l + m`` so the block for degree ``l``
occupies indices ``l*l .. l*l + 2l``.  With this convention the l=1 block
is ``sqrt(3/4pi) * (x2, x3, x1)`` in index order.

Theta derivatives are evaluated through the analytic recurrence

    d/dtheta Pbar_l^m = (l*x*Pbar_l^m - c_l^m*Pbar_{l-1}^m) / sin(theta),
    c_l^m = sqrt((l^2 - m^2)(2l+1)/(2l-1)),

which is stable on the grid because Gauss-Legendre nodes never touch the
poles.  No finite differences are used anywhere.

Each basis function is even or odd under each coordinate reflection,
by (l, m) alone:

    x1 -> -x1:  (-1)^m for cos terms, -(-1)^m for sin terms
    x2 -> -x2:  cos terms even, sin terms odd
    x3 -> -x3:  (-1)^(l+m)

so the basis splits into 8 parity classes (``parity_blocks``).  A form
whose weights are even under every reflection couples only rows of one
class, and ``form_blocks`` gives the classes and the folded grid to
integrate each on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .quad import GridFold, SphereGrid, fold, reflections

__all__ = [
    "FieldCoeffs",
    "HarmonicBasis",
    "build_basis",
    "index_of",
    "parity_blocks",
    "form_blocks",
    "analyze",
    "synthesize",
    "laplacian",
    "project",
    "gradient_dot",
    "weighted_form",
]


def index_of(l: int, m: int) -> int:
    """Flat basis index of the degree-l, order-m harmonic."""
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid (l, m) = {(l, m)}")
    return l * l + l + m


def parity_blocks(
    degrees: NDArray[np.int64], orders: NDArray[np.int64]
) -> list[NDArray[np.int64]]:
    """Partition rows with the given (l, m) into the 8 reflection parity classes.

    Row k is odd under x_i -> -x_i when p_i = 1, with p1 = |m| mod 2 for
    cos terms (m >= 0) and (|m| + 1) mod 2 for sin terms (m < 0),
    p2 = [m < 0] and p3 = (l + |m|) mod 2.  Block b = p1 + 2 p2 + 4 p3
    holds the increasing row indices of that class; a block may be empty.
    """
    am = np.abs(orders)
    sin = orders < 0
    p1 = (am + sin) % 2
    p3 = (degrees + am) % 2
    code = p1 + 2 * sin + 4 * p3
    return [np.flatnonzero(code == b) for b in range(8)]


def form_blocks(
    basis: HarmonicBasis, l0: int, samples: tuple[NDArray[np.float64], ...] = ()
) -> tuple[list[NDArray[np.int64]], GridFold | None]:
    """Row blocks of a weighted form over the basis functions of degree >= l0.

    Block entries count from row l0^2.  When the grid has reflections and
    each nodal array in ``samples`` (those the form's weights are built
    from; constant weights need none) matches each reflection of itself
    to 1e-13 of its max, the form couples only rows of equal parity: the
    result is the non-empty parity classes and the grid's fold, to
    integrate each block over.  Otherwise it is one block of every row
    and None, to integrate on all nodes.
    """
    n0 = l0 * l0
    perms = reflections(basis.grid)
    if perms and all(
        np.abs(x[p] - x).max() <= 1e-13 * np.abs(x).max() for x in samples for p in perms
    ):
        blocks = parity_blocks(basis.degrees[n0:], basis.orders[n0:])
        return [b for b in blocks if b.size], fold(basis.grid)
    return [np.arange(basis.n_basis - n0)], None


@dataclass(frozen=True)
class FieldCoeffs:
    """Spectral coefficients of a real field, truncated at degree L.

    Attributes
    ----------
    L : int
        Truncation degree; ``c`` has length (L+1)**2.
    c : ndarray
        Coefficients in ``l*l + l + m`` index order.
    """

    L: int
    c: NDArray[np.float64]

    def __post_init__(self) -> None:
        n = (self.L + 1) ** 2
        if self.c.shape != (n,):
            raise ValueError(
                f"coefficient array has shape {self.c.shape}, expected ({n},)"
            )

    def copy(self) -> "FieldCoeffs":
        return FieldCoeffs(self.L, self.c.copy())


@dataclass(frozen=True)
class HarmonicBasis:
    """Tabulated orthonormal basis and its angular derivatives.

    Attributes
    ----------
    L : int
        Maximum degree.
    grid : SphereGrid
        Quadrature grid the tables are sampled on.
    values, dtheta, dphi : ndarray, shape (n_basis, n_nodes)
        Basis values and analytic theta/phi derivatives at the nodes.
    degrees, orders : ndarray, shape (n_basis,)
        Degree l and order m per basis index.
    eigenvalues : ndarray, shape (n_basis,)
        Laplace-Beltrami eigenvalues l(l+1) per basis index.
    """

    L: int
    grid: SphereGrid
    values: NDArray[np.float64]
    dtheta: NDArray[np.float64]
    dphi: NDArray[np.float64]
    degrees: NDArray[np.int64]
    orders: NDArray[np.int64]
    eigenvalues: NDArray[np.float64]

    @property
    def n_basis(self) -> int:
        return (self.L + 1) ** 2


def _legendre_tables(L: int, x: NDArray[np.float64]) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalized associated Legendre values and theta derivatives.

    Returns arrays ``p`` and ``dp`` of shape (L+1, L+1, len(x)) indexed
    [l, m]; entries with m > l are zero.
    """
    n = x.shape[0]
    s = np.sqrt(1.0 - x * x)
    p = np.zeros((L + 1, L + 1, n))
    dp = np.zeros((L + 1, L + 1, n))

    p[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, L + 1):
        p[m, m] = s * math.sqrt((2 * m + 1) / (2.0 * m)) * p[m - 1, m - 1]
    for m in range(0, L):
        p[m + 1, m] = math.sqrt(2 * m + 3.0) * x * p[m, m]
    for m in range(0, L + 1):
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(
                ((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)
            )
            p[l, m] = a * (x * p[l - 1, m] - b * p[l - 2, m])

    for m in range(0, L + 1):
        for l in range(m, L + 1):
            cl = math.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l > 0 else 0.0
            prev = p[l - 1, m] if l - 1 >= m else 0.0
            dp[l, m] = (l * x * p[l, m] - cl * prev) / s
    return p, dp


def build_basis(grid: SphereGrid, L: int) -> HarmonicBasis:
    """Tabulate the orthonormal basis up to degree L on the grid.

    The grid must integrate polynomials of total degree 2L exactly, so
    that the tabulated Gram matrix is the identity up to roundoff.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if grid.exact_degree < 2 * L:
        raise ValueError(
            f"grid exact degree {grid.exact_degree} is below 2L = {2 * L}; "
            f"refine the grid or lower L"
        )

    theta_1d = grid.theta[:: grid.n_phi]
    phi_1d = grid.phi[: grid.n_phi]
    x = np.cos(theta_1d)
    p, dp = _legendre_tables(L, x)

    mm = np.arange(L + 1)[:, None] * phi_1d[None, :]
    cos_m = np.cos(mm)
    sin_m = np.sin(mm)

    nb = (L + 1) ** 2
    nn = grid.n_nodes
    values = np.empty((nb, nn))
    dtheta = np.empty((nb, nn))
    dphi = np.empty((nb, nn))
    degrees = np.empty(nb, dtype=np.int64)
    orders = np.empty(nb, dtype=np.int64)

    rt2 = math.sqrt(2.0)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            k = index_of(l, m)
            degrees[k] = l
            orders[k] = m
            am = abs(m)
            if m == 0:
                ang, dang = np.ones_like(phi_1d), np.zeros_like(phi_1d)
                rad, drad = p[l, 0], dp[l, 0]
            elif m > 0:
                ang, dang = cos_m[am], -am * sin_m[am]
                rad, drad = rt2 * p[l, am], rt2 * dp[l, am]
            else:
                ang, dang = sin_m[am], am * cos_m[am]
                rad, drad = rt2 * p[l, am], rt2 * dp[l, am]
            values[k] = np.outer(rad, ang).ravel()
            dtheta[k] = np.outer(drad, ang).ravel()
            dphi[k] = np.outer(rad, dang).ravel()

    eigenvalues = (degrees * (degrees + 1)).astype(np.float64)
    return HarmonicBasis(
        L=L,
        grid=grid,
        values=values,
        dtheta=dtheta,
        dphi=dphi,
        degrees=degrees,
        orders=orders,
        eigenvalues=eigenvalues,
    )


def analyze(basis: HarmonicBasis, samples: NDArray[np.float64]) -> FieldCoeffs:
    """Project nodal samples onto the basis by quadrature.

    Exact (to roundoff) for fields band-limited to degree <= L when the
    grid integrates degree 2L polynomials exactly.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (basis.grid.n_nodes,):
        raise ValueError(
            f"samples has shape {samples.shape}, expected ({basis.grid.n_nodes},)"
        )
    return FieldCoeffs(basis.L, basis.values @ (basis.grid.weights * samples))


def synthesize(basis: HarmonicBasis, coeffs: FieldCoeffs) -> NDArray[np.float64]:
    """Evaluate the spectral field at the grid nodes."""
    _check_match(basis, coeffs)
    return basis.values.T @ coeffs.c


def laplacian(basis: HarmonicBasis, coeffs: FieldCoeffs) -> FieldCoeffs:
    """Laplace-Beltrami operator: multiply each mode by -l(l+1)."""
    _check_match(basis, coeffs)
    return FieldCoeffs(coeffs.L, -basis.eigenvalues * coeffs.c)


def project(
    basis: HarmonicBasis, coeffs: FieldCoeffs, subspace: Union[str, int]
) -> FieldCoeffs:
    """Orthogonal projection onto a spectral subspace.

    Parameters
    ----------
    subspace : "kernel" | "kernel_complement" | int
        ``"kernel"`` keeps degrees l <= 1 (constants and linear
        coordinate functions), ``"kernel_complement"`` keeps l >= 2, and
        an integer k keeps the pure degree-k eigenspace.
    """
    _check_match(basis, coeffs)
    if subspace == "kernel":
        mask = basis.degrees <= 1
    elif subspace == "kernel_complement":
        mask = basis.degrees >= 2
    elif isinstance(subspace, int) and not isinstance(subspace, bool):
        if subspace < 0 or subspace > basis.L:
            raise ValueError(f"eigenspace degree {subspace} outside 0..{basis.L}")
        mask = basis.degrees == subspace
    else:
        raise ValueError(f"unknown subspace selector {subspace!r}")
    return FieldCoeffs(coeffs.L, np.where(mask, coeffs.c, 0.0))


def gradient_dot(
    basis: HarmonicBasis, coeffs_u: FieldCoeffs, coeffs_v: FieldCoeffs
) -> NDArray[np.float64]:
    """Nodal samples of the gradient inner product <grad u, grad v>.

    Uses the round-metric formula
    ``du/dtheta dv/dtheta + (du/dphi dv/dphi) / sin(theta)^2``
    with the analytic derivative tables.
    """
    _check_match(basis, coeffs_u)
    _check_match(basis, coeffs_v)
    ut = basis.dtheta.T @ coeffs_u.c
    vt = basis.dtheta.T @ coeffs_v.c
    up = basis.dphi.T @ coeffs_u.c
    vp = basis.dphi.T @ coeffs_v.c
    inv_s2 = 1.0 / basis.grid.sin_theta**2
    return ut * vt + up * vp * inv_s2


def weighted_form(
    basis: HarmonicBasis,
    w_lap,
    w_grad,
    u: Union[FieldCoeffs, int, NDArray[np.int64]],
    v: Union[FieldCoeffs, int, NDArray[np.int64]],
    fold: GridFold | None = None,
):
    """Quadrature of int [w_lap Lap u Lap v + w_grad <grad u, grad v>] dv.

    The weights are scalars or nodal samples.  Each of u and v is either
    a field, an int l0 standing for every basis function of degree
    >= l0 (rows l0^2 onward, taken as slice views of the tables), or an
    array of basis row indices.  Two fields give a scalar, a field and a
    set of rows give the vector of the form against each of those basis
    functions, and two sets of rows give the Gram matrix with rows from
    u and columns from v.  When v is u the samples are computed once.

    With a ``fold`` the sum runs over its representative nodes with its
    orbit weights, reading nodal weights there.  That equals the full
    quadrature only when the integrand is even under every reflection,
    for example for rows of one parity block and reflection-even weights.
    """
    if isinstance(v, FieldCoeffs) and not isinstance(u, FieldCoeffs):
        u, v = v, u  # the form is symmetric; weight the field, not a table
    su = _form_samples(basis, u, fold)
    sv = su if v is u else _form_samples(basis, v, fold)
    w = basis.grid.weights
    inv_s2 = 1.0 / basis.grid.sin_theta**2
    if fold is not None:
        w, inv_s2 = fold.weights, inv_s2[fold.nodes]
        w_lap, w_grad = (x[fold.nodes] if np.ndim(x) else x for x in (w_lap, w_grad))
    if su[0].ndim == sv[0].ndim == 1:
        # two fields: sum the pointwise integrand once.  Near H = 2 the
        # three terms' separate sums are O(h) while the form is O(h^2),
        # so summing them apart loses several more digits
        grad = su[1] * sv[1] + su[2] * sv[2] * inv_s2
        return float(w @ (w_lap * (su[0] * sv[0]) + w_grad * grad))
    wg = w * w_grad
    out = (su[0] * (w * w_lap)) @ sv[0].T
    out += (su[1] * wg) @ sv[1].T
    out += (su[2] * (wg * inv_s2)) @ sv[2].T
    return out


def _form_samples(
    basis: HarmonicBasis,
    x: Union[FieldCoeffs, int, NDArray[np.int64]],
    fold: GridFold | None,
):
    """(Lap, d/dtheta, d/dphi) samples of a field or of basis rows, on all
    nodes or on the representative nodes of a fold."""
    cols = slice(None) if fold is None else fold.nodes
    if isinstance(x, FieldCoeffs):
        _check_match(basis, x)
        lap = basis.values.T @ (-basis.eigenvalues * x.c)
        return lap[cols], (basis.dtheta.T @ x.c)[cols], (basis.dphi.T @ x.c)[cols]
    if isinstance(x, np.ndarray):
        rows = x
    elif not 0 <= x <= basis.L:
        raise ValueError(f"degree block l >= {x} outside 0..{basis.L}")
    else:
        rows = slice(x * x, None)
    if fold is None:
        at = rows
    else:
        at = np.ix_(np.arange(basis.n_basis)[rows], fold.nodes)
    lap = basis.values[at] * -basis.eigenvalues[rows, None]
    return lap, basis.dtheta[at], basis.dphi[at]


def _check_match(basis: HarmonicBasis, coeffs: FieldCoeffs) -> None:
    if coeffs.L != basis.L:
        raise ValueError(
            f"coefficients truncated at L={coeffs.L}, basis built for L={basis.L}"
        )
