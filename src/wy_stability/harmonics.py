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

The basis is stored as separable factors, never as tables over the
nodes.  On the product grid every function is a theta factor times a
phi factor: the Legendre factors ``rad`` (sqrt(2) folded in for m > 0)
and their theta derivatives, (L+1)^2 n_theta entries each, and the
factors cos(m phi), sin(m phi) and their phi derivatives, 2 (L+1) n_phi
each.  That is O(L^3) memory where tables of every function at every
node take O(L^4).  Fields are transformed one order at a time, as in
Driscoll & Healy (1994) and Schaeffer (2013): synthesis is one Legendre
sum over l per order m, then one matrix product in phi; analysis, and
``weighted_form`` of a field against every basis function, run the
transpose of both steps.  Each costs O(L^3).  The basis samples that
``weighted_gram`` needs are formed on demand at the requested nodes as
the product of the two factors, the same products the tables would hold.

Each basis function is even or odd under each coordinate reflection,
by (l, m) alone:

    x1 -> -x1:  (-1)^m for cos terms, -(-1)^m for sin terms
    x2 -> -x2:  cos terms even, sin terms odd
    x3 -> -x3:  (-1)^(l+m)

so the basis splits into 8 parity classes (``parity_blocks``).  A form
whose weights are even under every reflection couples only rows of one
class.  A form whose weights do not depend on phi couples only rows of
one order |m| and one trig type, because the discrete cos and sin
factors are orthogonal on the uniform phi nodes.  ``gram_blocks``, the
one builder of the Gram matrices of the pencil and G, takes the finest
of these splittings that the weights allow: per order from theta sums
alone (``_order_grams``), per parity class as one ``weighted_gram`` on
the folded grid, or one block of every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .quad import GridFold, SphereGrid, _read_only

__all__ = [
    "FieldCoeffs",
    "HarmonicBasis",
    "build_basis",
    "index_of",
    "parity_blocks",
    "gram_blocks",
    "shared_blocks",
    "analyze",
    "synthesize",
    "laplacian",
    "project",
    "gradient_dot",
    "weighted_form",
    "weighted_gram",
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


@dataclass(frozen=True)
class HarmonicBasis:
    """Orthonormal basis as separable theta and phi factors.

    The basis function of degree l and order m, with a = |m| and s = 1
    for a sin term (m < 0), else 0, takes at node (theta_i, phi_j) the
    value ``rad[a, l, i] * ang[a, s, j]``, the theta derivative
    ``drad[a, l, i] * ang[a, s, j]`` and the phi derivative
    ``rad[a, l, i] * dang[a, s, j]``.  Transforms work order by order
    on these factors; see the module docstring.

    Attributes
    ----------
    L : int
        Maximum degree.
    grid : SphereGrid
        Quadrature grid the factors are sampled on.
    rad, drad : ndarray, shape (L+1, L+1, n_theta)
        Pbar_l^a(cos theta_i) and its theta derivative, indexed [a, l, i],
        times sqrt(2) for a > 0; zero where l < a.
    ang, dang : ndarray, shape (L+1, 2, n_phi)
        cos(a phi_j) at [a, 0] and sin(a phi_j) at [a, 1], and their phi
        derivatives -a sin(a phi_j) and a cos(a phi_j).
    degrees, orders : ndarray, shape (n_basis,)
        Degree l and order m per basis index.
    eigenvalues : ndarray, shape (n_basis,)
        Laplace-Beltrami eigenvalues l(l+1) per basis index.
    slots : ndarray, shape (n_basis,)
        Position of each row in the flattened [a, s, l] coefficient grid
        that the transforms work on.

    Every array is read-only, so one basis can be shared by many callers.

    The full tables ``values``, ``dtheta`` and ``dphi``, shape
    (n_basis, n_nodes), are assembled from the factors on every read;
    they are for inspection, and take 92 MB each at L = 48.
    """

    L: int
    grid: SphereGrid
    rad: NDArray[np.float64]
    drad: NDArray[np.float64]
    ang: NDArray[np.float64]
    dang: NDArray[np.float64]
    degrees: NDArray[np.int64]
    orders: NDArray[np.int64]
    eigenvalues: NDArray[np.float64]
    slots: NDArray[np.int64]

    @property
    def n_basis(self) -> int:
        return (self.L + 1) ** 2

    @property
    def values(self) -> NDArray[np.float64]:
        return _row_samples(self, slice(None), None, self.rad, self.ang)

    @property
    def dtheta(self) -> NDArray[np.float64]:
        return _row_samples(self, slice(None), None, self.drad, self.ang)

    @property
    def dphi(self) -> NDArray[np.float64]:
        return _row_samples(self, slice(None), None, self.rad, self.dang)


def _legendre_tables(L: int, x: NDArray[np.float64]) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalized associated Legendre values and theta derivatives.

    Returns arrays ``p`` and ``dp`` of shape (L+1, L+1, len(x)) indexed
    [m, l]; entries with l < m are zero.  Past the sectoral seeds each
    step in l runs for every order m at once.
    """
    n = x.shape[0]
    s = np.sqrt(1.0 - x * x)
    p = np.zeros((L + 1, L + 1, n))
    dp = np.zeros((L + 1, L + 1, n))

    p[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, L + 1):
        p[m, m] = s * math.sqrt((2 * m + 1) / (2.0 * m)) * p[m - 1, m - 1]
    m = np.arange(L)
    p[m, m + 1] = np.sqrt(2 * m + 3.0)[:, None] * x * p[m, m]
    for l in range(2, L + 1):
        m = np.arange(l - 1)[:, None]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        p[: l - 1, l] = a * (x * p[: l - 1, l - 1] - b * p[: l - 1, l - 2])

    for l in range(L + 1):
        m = np.arange(l + 1)[:, None]
        cl = np.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l else 0.0
        prev = p[: l + 1, l - 1] if l else 0.0  # zero at m = l, where l - 1 < m
        dp[: l + 1, l] = (l * x * p[: l + 1, l] - cl * prev) / s
    return p, dp


def build_basis(grid: SphereGrid, L: int) -> HarmonicBasis:
    """Sample the separable factors of the basis up to degree L on the grid.

    The grid must integrate polynomials of total degree 2L exactly, so
    that the quadrature Gram matrix is the identity up to roundoff.
    Each call builds a new basis; its arrays are read-only.
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
    rad, drad = _legendre_tables(L, np.cos(theta_1d))
    rt2 = math.sqrt(2.0)
    rad[1:] *= rt2
    drad[1:] *= rt2

    m = np.arange(L + 1)[:, None]
    cos_m = np.cos(m * phi_1d[None, :])
    sin_m = np.sin(m * phi_1d[None, :])
    ang = np.stack([cos_m, sin_m], axis=1)
    dang = np.stack([-m * sin_m, m * cos_m], axis=1)

    l = np.arange(L + 1)
    degrees = np.repeat(l, 2 * l + 1)
    orders = np.arange((L + 1) ** 2) - degrees * (degrees + 1)
    eigenvalues = (degrees * (degrees + 1)).astype(np.float64)
    slots = (2 * np.abs(orders) + (orders < 0)) * (L + 1) + degrees
    _read_only(rad, drad, ang, dang, degrees, orders, eigenvalues, slots)
    return HarmonicBasis(
        L=L,
        grid=grid,
        rad=rad,
        drad=drad,
        ang=ang,
        dang=dang,
        degrees=degrees,
        orders=orders,
        eigenvalues=eigenvalues,
        slots=slots,
    )


def _synthesis(basis: HarmonicBasis, c, rad, ang) -> NDArray[np.float64]:
    """sum_k c_k rad_k(theta) ang_k(phi) at every node, in O(L^3).

    One Legendre sum over l per order (the cos and sin terms of an order
    share its theta factor), then one matrix product in phi.
    """
    L, nt, nphi = basis.L, basis.grid.n_theta, basis.grid.n_phi
    spec = np.zeros(2 * (L + 1) ** 2)
    spec[basis.slots] = c
    g = np.matmul(spec.reshape(L + 1, 2, L + 1), rad)  # [a, s, i]
    return (g.reshape(-1, nt).T @ ang.reshape(-1, nphi)).ravel()


def _analysis(basis: HarmonicBasis, q, rad, ang) -> NDArray[np.float64]:
    """sum over nodes of q rad_k(theta) ang_k(phi) for every row k.

    The transpose of ``_synthesis``: one matrix product in phi, then one
    Legendre sum over theta per order, in O(L^3).
    """
    L, nt, nphi = basis.L, basis.grid.n_theta, basis.grid.n_phi
    g = (ang.reshape(-1, nphi) @ q.reshape(nt, nphi).T).reshape(L + 1, 2, nt)
    return np.matmul(g, rad.transpose(0, 2, 1)).ravel()[basis.slots]


def _row_samples(basis: HarmonicBasis, rows, nodes, rad, ang) -> NDArray[np.float64]:
    """rad_k(theta) ang_k(phi) for basis rows k at the given nodes, or all.

    Each entry is one product of the row's two factors, so the result
    matches a tabulated outer product bit for bit.  It is C-ordered like
    a slice of such a table: the matrix products of a Gram matrix round
    differently on other layouts.
    """
    orders = basis.orders[rows]
    a, s = np.abs(orders), (orders < 0).astype(np.intp)
    r, g = rad[a, basis.degrees[rows]], ang[a, s]
    if nodes is None:
        return (r[:, :, None] * g[:, None, :]).reshape(len(a), -1)
    i, j = np.divmod(nodes, basis.grid.n_phi)
    return np.multiply(r[:, i], g[:, j], order="C")


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
    q = basis.grid.weights * samples
    return FieldCoeffs(basis.L, _analysis(basis, q, basis.rad, basis.ang))


def synthesize(basis: HarmonicBasis, coeffs: FieldCoeffs) -> NDArray[np.float64]:
    """Evaluate the spectral field at the grid nodes."""
    _check_match(basis, coeffs)
    return _synthesis(basis, coeffs.c, basis.rad, basis.ang)


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
    with the analytic derivative factors.
    """
    _check_match(basis, coeffs_u)
    _check_match(basis, coeffs_v)
    ut = _synthesis(basis, coeffs_u.c, basis.drad, basis.ang)
    vt = _synthesis(basis, coeffs_v.c, basis.drad, basis.ang)
    up = _synthesis(basis, coeffs_u.c, basis.rad, basis.dang)
    vp = _synthesis(basis, coeffs_v.c, basis.rad, basis.dang)
    inv_s2 = 1.0 / basis.grid.sin_theta**2
    return ut * vt + up * vp * inv_s2


def weighted_form(
    basis: HarmonicBasis, w_lap, w_grad, u: FieldCoeffs, v: FieldCoeffs | None = None
):
    """Quadrature of int [w_lap Lap u Lap v + w_grad <grad u, grad v>] dv.

    The weights are scalars or nodal samples.  Two fields give a scalar.
    With v omitted, the result is the vector of the form of u against
    every basis function, by three analysis transforms of the weighted
    (Lap, d/dtheta, d/dphi) samples of u against the value,
    theta-derivative and phi-derivative factors.
    """
    su = _field_samples(basis, u)
    w = basis.grid.weights
    inv_s2 = 1.0 / basis.grid.sin_theta**2
    if v is not None:
        # sum the pointwise integrand once.  Near H = 2 the three terms'
        # separate sums are O(h) while the form is O(h^2), so summing
        # them apart loses several more digits
        sv = su if v is u else _field_samples(basis, v)
        grad = su[1] * sv[1] + su[2] * sv[2] * inv_s2
        return float(w @ (w_lap * (su[0] * sv[0]) + w_grad * grad))
    wg = w * w_grad
    out = -basis.eigenvalues * _analysis(basis, su[0] * (w * w_lap), basis.rad, basis.ang)
    out += _analysis(basis, su[1] * wg, basis.drad, basis.ang)
    out += _analysis(basis, su[2] * (wg * inv_s2), basis.rad, basis.dang)
    return out


def weighted_gram(
    basis: HarmonicBasis, w_lap, w_grad, rows: NDArray[np.int64], fold: GridFold | None = None
) -> NDArray[np.float64]:
    """Gram matrix of ``weighted_form`` over the basis rows ``rows``.

    Built from the rows' (Lap, d/dtheta, d/dphi) samples.  With a
    ``fold`` the sum runs over its representative nodes with its orbit
    weights, reading nodal weights there.  That equals the full
    quadrature only when the integrand is even under every reflection,
    for example for rows of one parity block and reflection-even weights.
    """
    nodes = None if fold is None else fold.nodes
    w = basis.grid.weights
    inv_s2 = 1.0 / basis.grid.sin_theta**2
    if fold is not None:
        w, inv_s2 = fold.weights, inv_s2[nodes]
        w_lap, w_grad = (x[nodes] if np.ndim(x) else x for x in (w_lap, w_grad))
    lap = _row_samples(basis, rows, nodes, basis.rad, basis.ang) * -basis.eigenvalues[rows, None]
    dt = _row_samples(basis, rows, nodes, basis.drad, basis.ang)
    dp = _row_samples(basis, rows, nodes, basis.rad, basis.dang)
    wg = w * w_grad
    out = (lap * (w * w_lap)) @ lap.T
    out += (dt * wg) @ dt.T
    out += (dp * (wg * inv_s2)) @ dp.T
    return out


def gram_blocks(
    basis: HarmonicBasis, w_lap, w_grad, l0: int, samples: tuple[NDArray[np.float64], ...] = ()
) -> tuple[tuple[NDArray[np.int64], NDArray[np.float64]], ...]:
    """Gram matrix of ``weighted_form`` over degrees >= l0, as (rows, block) pairs.

    Rows count from row l0^2; the matrix is zero outside the blocks.
    ``samples`` are the nodal arrays the weights are built from
    (constant weights need none).  The blocks are the first that apply:

    - per azimuthal order, when each array in ``samples`` is constant on
      every theta ring to 1e-13 of its max.  The form then couples only
      rows of one order a = |m| and one trig type, and the cos and sin
      rows of an order share one matrix object (``_order_grams``);
    - per reflection parity class, when the grid has reflections and each
      array matches each reflection of itself to 1e-13 of its max: one
      ``weighted_gram`` per non-empty class, on the grid's fold;
    - otherwise one ``weighted_gram`` of every row on all nodes.

    Each distinct block is symmetrized once its asymmetry is checked
    against 1e-12 of the largest entry over all blocks (or of 1).
    """
    n0 = l0 * l0
    nphi = basis.grid.n_phi

    def close(x, y) -> bool:
        return np.abs(x - y).max() <= 1e-13 * np.abs(x).max()

    if all(close(x.reshape(-1, nphi), x[::nphi, None]) for x in samples):
        blocks, forms = _order_grams(basis, w_lap, w_grad, l0)
    elif (perms := basis.grid.reflections) and all(
        close(x, x[p]) for x in samples for p in perms
    ):
        classes = [b for b in parity_blocks(basis.degrees[n0:], basis.orders[n0:]) if b.size]
        nodes = basis.grid.fold
        blocks = [(b, k) for k, b in enumerate(classes)]
        forms = [weighted_gram(basis, w_lap, w_grad, b + n0, nodes) for b in classes]
    else:
        blocks = [(np.arange(basis.n_basis - n0), 0)]
        forms = [weighted_gram(basis, w_lap, w_grad, np.arange(n0, basis.n_basis))]
    asym = max(np.abs(B - B.T).max() for B in forms)
    scale = max(np.abs(B).max() for B in forms)
    if asym > 1e-12 * max(scale, 1.0):
        raise AssertionError(f"Gram matrix asymmetry {asym} exceeds tolerance")
    forms = [0.5 * (B + B.T) for B in forms]
    return tuple((rows, forms[k]) for rows, k in blocks)


def shared_blocks(
    blocks: tuple[tuple[NDArray[np.int64], NDArray[np.float64]], ...],
) -> list[tuple[list[NDArray[np.int64]], NDArray[np.float64]]]:
    """Group the (rows, block) pairs of ``gram_blocks`` by block object.

    Returns one (row sets, block) pair per distinct matrix, in the order
    each first appears, so that a matrix shared by the cos and sin rows
    of one order is shifted and solved once.  Row sets that share a
    matrix have the same degrees in the same order, so the first one
    serves for anything that depends on degrees alone.
    """
    groups: dict[int, tuple[list, NDArray[np.float64]]] = {}
    for rows, B in blocks:
        groups.setdefault(id(B), ([], B))[0].append(rows)
    return list(groups.values())


def _order_grams(
    basis: HarmonicBasis, w_lap, w_grad, l0: int
) -> tuple[list[tuple[NDArray[np.int64], int]], list[NDArray[np.float64]]]:
    """Gram matrices of ``weighted_form`` per azimuthal order, for weights constant in phi.

    Returns ``(blocks, forms)``: ``forms[a]`` is the Gram matrix over
    degrees l >= max(a, l0) of order a, and ``blocks`` lists the pairs
    (rows, a) of the cos rows of every order and the sin rows of every
    order a > 0, rows counted from row l0^2.  The weights are read on
    the first node of each theta ring.

    On the product grid the phi sums are done exactly: for a, a' <= L
    and 2L < n_phi, sum_j cos(a phi_j) cos(a' phi_j) is n_phi/2 when
    a = a' > 0 and zero when a != a', and likewise for sin, while
    cos and sin never couple.  So every entry is a theta sum of the
    Legendre factors against ring weights, and the three terms of the
    form are three matrix products batched over all orders, O(L^3 n_theta)
    in all.  Driscoll & Healy (1994) and Schaeffer (2013) use the same
    orthogonality of the discrete Fourier factors.
    """
    L, nphi = basis.L, basis.grid.n_phi
    a = np.arange(L + 1)
    # ring sums of the nodal weights; cos^2 and sin^2 average 1/2 on a ring
    ring = np.where(a > 0, 0.5, 1.0)[:, None] * basis.grid.weights[::nphi] * nphi
    inv_s2 = 1.0 / basis.grid.sin_theta[::nphi] ** 2
    w_lap, w_grad = (x[::nphi] if np.ndim(x) else x for x in (w_lap, w_grad))
    rad, drad = basis.rad, basis.drad
    mu = a * (a + 1.0)  # l(l+1), l = 0..L
    lap = rad * -mu[None, :, None]
    G = (lap * (ring * w_lap)[:, None]) @ lap.transpose(0, 2, 1)
    G += (drad * (ring * w_grad)[:, None]) @ drad.transpose(0, 2, 1)
    G += (rad * (ring * w_grad * inv_s2 * (a * a)[:, None])[:, None]) @ rad.transpose(0, 2, 1)

    n0 = l0 * l0
    blocks, forms = [], []
    for m in a:
        l = np.arange(max(m, l0), L + 1)
        forms.append(G[m, l[0]:, l[0]:])
        blocks.append((l * l + l + m - n0, m))
        if m:
            blocks.append((l * l + l - m - n0, m))
    return blocks, forms


def _field_samples(basis: HarmonicBasis, u: FieldCoeffs):
    """(Lap, d/dtheta, d/dphi) samples of a field at every node."""
    _check_match(basis, u)
    lap = _synthesis(basis, -basis.eigenvalues * u.c, basis.rad, basis.ang)
    dt = _synthesis(basis, u.c, basis.drad, basis.ang)
    dp = _synthesis(basis, u.c, basis.rad, basis.dang)
    return lap, dt, dp


def _check_match(basis: HarmonicBasis, coeffs: FieldCoeffs) -> None:
    if coeffs.L != basis.L:
        raise ValueError(
            f"coefficients truncated at L={coeffs.L}, basis built for L={basis.L}"
        )
