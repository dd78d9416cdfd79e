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
is ``sqrt(3/4pi) * (x2, x3, x1)`` in index order; ``LINEAR_ROWS`` holds
the rows of x1, x2 and x3.

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
transpose of both steps.  A transform costs what the degrees it spans
need, not what L needs: synthesis runs over the orders and degrees up
to the field's top degree D, the largest with a nonzero coefficient,
in O(D^2 n_theta + D n_theta n_phi), and analysis, or the vector of
``weighted_form``, to a degree cap D costs the same.  At D = L both
are O(L^3), and their products are those of the full tables.

Each basis function is even or odd under each coordinate reflection,
by (l, m) alone:

    x1 -> -x1:  (-1)^m for cos terms, -(-1)^m for sin terms
    x2 -> -x2:  cos terms even, sin terms odd
    x3 -> -x3:  (-1)^(l+m)

A form whose weights are even under a reflection couples no two rows
of opposite parity under it.  A form whose weights are constant on
every theta ring couples only rows of one order |m| and one trig type,
because the discrete cos and sin factors are orthogonal on the uniform
phi nodes; when they are also even under x3, each order splits again
by the parity of l + |m|.  ``gram_blocks``, the builder of the Gram
blocks of the pencil, splits the rows by the symmetries the weights
have and computes every entry as a theta sum: the phi sum of two trig
factors against a ring's weights is read exactly off the ring's
Fourier coefficients.  It takes the weights of a batch of fields and
returns one group per layout: its fields, the row sets, a builder that
computes each distinct block, for every field of the group at once,
only when called, and the parts.  One kernel builds every block, from
one product per (order, trig type) group in it and no padded degrees;
a block of one group, as every ring-constant one is, reads its rows
out of the factor tables as slices.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from .quad import FOUR_PI, GRID_BYTES_LIMIT, Record, SphereGrid, _read_only

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "FieldCoeffs",
    "HarmonicBasis",
    "build_basis",
    "index_of",
    "LINEAR_ROWS",
    "round_diagonal",
    "gram_blocks",
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


# a list: numpy reads a tuple as one index per axis
LINEAR_ROWS = [index_of(1, 1), index_of(1, -1), index_of(1, 0)]


class FieldCoeffs(Record):
    """Spectral coefficients of a real field, truncated at degree L.

    Attributes
    ----------
    L : int
        Truncation degree; ``c`` has length (L+1)**2.
    c : ndarray
        Coefficients in ``l*l + l + m`` index order.
    """

    def __init__(self, L: int, c: NDArray[np.float64]) -> None:
        n = (L + 1) ** 2
        if c.shape != (n,):
            raise ValueError(f"coefficient array has shape {c.shape}, expected ({n},)")
        vars(self).update(L=L, c=c)


class HarmonicBasis(Record):
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
    legendre : ndarray, shape (2, L+1, L+1, n_theta)
        One table of ``rad`` = legendre[0], Pbar_l^a(cos theta_i) indexed
        [a, l, i], and ``drad`` = legendre[1], its theta derivative, times
        sqrt(2) for a > 0; zero where l < a.
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
    ``gform.optimal_eta2`` keeps its last result on the basis, as
    ``_eta2``, which is no field and lives as long as the basis.

    The full tables ``values``, ``dtheta`` and ``dphi``, shape
    (n_basis, n_nodes), are assembled from the factors on every read,
    and take 92 MB each at L = 48.  No command reads them; they stay
    only because the benchmark tracer (``perfbench/tracer.py``) sizes
    its table count from them.
    """

    def __init__(
        self, L: int, grid: SphereGrid, legendre: NDArray[np.float64], ang: NDArray[np.float64],
        dang: NDArray[np.float64], degrees: NDArray[np.int64], orders: NDArray[np.int64],
        eigenvalues: NDArray[np.float64], slots: NDArray[np.int64],
    ) -> None:
        vars(self).update(
            L=L, grid=grid, legendre=legendre, ang=ang, dang=dang, degrees=degrees, orders=orders,
            eigenvalues=eigenvalues, slots=slots,
        )

    @property
    def n_basis(self) -> int:
        return (self.L + 1) ** 2

    @functools.cached_property
    def rad(self) -> NDArray[np.float64]:
        return self.legendre[0]

    @functools.cached_property
    def drad(self) -> NDArray[np.float64]:
        return self.legendre[1]

    @property
    def values(self) -> NDArray[np.float64]:
        return _row_samples(self, slice(None), self.rad, self.ang)

    @property
    def dtheta(self) -> NDArray[np.float64]:
        return _row_samples(self, slice(None), self.drad, self.ang)

    @property
    def dphi(self) -> NDArray[np.float64]:
        return _row_samples(self, slice(None), self.rad, self.dang)


def _legendre_tables(L: int, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Orthonormalized associated Legendre values and theta derivatives.

    Returns them as one array ``[p, dp]`` of shape (2, L+1, L+1, len(x)),
    each indexed [m, l]; entries with l < m are zero.  Past the sectoral
    seeds each step in l runs for every order m at once.
    """
    n = x.shape[0]
    s = np.sqrt(1.0 - x * x)
    tables = np.zeros((2, L + 1, L + 1, n))
    p, dp = tables

    p[0, 0] = 1.0 / math.sqrt(FOUR_PI)
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
    return tables


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
    legendre = _legendre_tables(L, np.cos(theta_1d))
    legendre[:, 1:] *= math.sqrt(2.0)

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
    _read_only(legendre, ang, dang, degrees, orders, eigenvalues, slots)
    return HarmonicBasis(L, grid, legendre, ang, dang, degrees, orders, eigenvalues, slots)


def round_diagonal(basis: HarmonicBasis) -> NDArray[np.float64]:
    """Exact round-sphere form on each mode: mu (mu/2 - 1), mu = l(l+1)."""
    mu = basis.eigenvalues
    return mu * (0.5 * mu - 1.0)


def _top_degree(c) -> int:
    """The largest degree with a nonzero coefficient in c; -1 when every one is zero."""
    nonzero = np.flatnonzero(c)
    return math.isqrt(int(nonzero[-1])) if nonzero.size else -1


def _synthesis(basis: HarmonicBasis, c, rad, ang, D: int | None = None) -> NDArray[np.float64]:
    """sum_k c_k rad_k(theta) ang_k(phi) at every node, over the degrees <= D.

    D defaults to the top degree of c, and no row above D may hold a
    nonzero coefficient.  Rows are ordered by degree, so only the first
    (D+1)^2 coefficients are scattered.  One Legendre sum over l <= D
    per order a <= D (the cos and sin terms of an order share its theta
    factor), then one matrix product in phi: O(D^2 n_theta + D n_theta
    n_phi).  At D = L the operands are the full tables; an all-zero c
    gives zeros.
    """
    L, nt, nphi = basis.L, basis.grid.n_theta, basis.grid.n_phi
    D = _top_degree(c) if D is None else D
    n = (D + 1) ** 2
    spec = np.zeros((D + 1, 2, L + 1))  # the slots of degrees <= D lie in orders a <= D
    spec.reshape(-1)[basis.slots[:n]] = c[:n]
    g = np.matmul(spec[:, :, : D + 1], rad[: D + 1, : D + 1])  # [a, s, i]
    return (g.reshape(-1, nt).T @ ang[: D + 1].reshape(-1, nphi)).ravel()


def _analysis(basis: HarmonicBasis, q, rad, ang, D: int | None = None) -> NDArray[np.float64]:
    """sum over nodes of q rad_k(theta) ang_k(phi) for every row k of degree <= D.

    The transpose of ``_synthesis``: one matrix product in phi for the
    orders a <= D, then one Legendre sum over theta per order, in
    O(D^2 n_theta + D n_theta n_phi).  D defaults to L; only the first
    (D+1)^2 rows, the degrees <= D, are gathered, and the rows above are
    zero.
    """
    L, nt, nphi = basis.L, basis.grid.n_theta, basis.grid.n_phi
    D = L if D is None else D
    n = (D + 1) ** 2
    g = (ang[: D + 1].reshape(-1, nphi) @ q.reshape(nt, nphi).T).reshape(D + 1, 2, nt)
    rows = np.zeros((D + 1, 2, L + 1))
    rows[:, :, : D + 1] = np.matmul(g, rad[: D + 1, : D + 1].transpose(0, 2, 1))
    out = np.zeros((L + 1) ** 2)
    out[:n] = rows.ravel()[basis.slots[:n]]
    return out


def _row_samples(basis: HarmonicBasis, rows, rad, ang) -> NDArray[np.float64]:
    """rad_k(theta) ang_k(phi) for basis rows k at every node.

    Each entry is one product of the row's two factors, so the result
    matches a tabulated outer product bit for bit.  It serves the full
    tables above and the tests' dense reference Gram.
    """
    orders = basis.orders[rows]
    a, s = np.abs(orders), (orders < 0).astype(np.intp)
    r, g = rad[a, basis.degrees[rows]], ang[a, s]
    return (r[:, :, None] * g[:, None, :]).reshape(len(a), -1)


def analyze(
    basis: HarmonicBasis, samples: NDArray[np.float64], lmax: int | None = None
) -> FieldCoeffs:
    """Project nodal samples onto the basis by quadrature, to degree lmax.

    Exact (to roundoff) for fields band-limited to degree <= L when the
    grid integrates degree 2L polynomials exactly.  Only the rows of
    degree <= lmax (default L) are computed, in
    O(lmax^2 n_theta + lmax n_theta n_phi); the rows above it are zero.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (basis.grid.n_nodes,):
        raise ValueError(
            f"samples has shape {samples.shape}, expected ({basis.grid.n_nodes},)"
        )
    _check_cap(basis, lmax)
    q = basis.grid.weights * samples
    return FieldCoeffs(basis.L, _analysis(basis, q, basis.rad, basis.ang, lmax))


def _check_cap(basis: HarmonicBasis, lmax) -> None:
    """Refuse an analysis degree cap that is no int in 0..L; None means L."""
    if lmax is not None and (
        not isinstance(lmax, int) or isinstance(lmax, bool) or not 0 <= lmax <= basis.L
    ):
        raise ValueError(f"analysis degree cap {lmax!r} outside 0..{basis.L}")


def synthesize(basis: HarmonicBasis, coeffs: FieldCoeffs) -> NDArray[np.float64]:
    """Evaluate the spectral field at the grid nodes, over its degrees up to its top one."""
    _check_match(basis, coeffs)
    return _synthesis(basis, coeffs.c, basis.rad, basis.ang)


def laplacian(basis: HarmonicBasis, coeffs: FieldCoeffs) -> FieldCoeffs:
    """Laplace-Beltrami operator: multiply each mode by -l(l+1)."""
    _check_match(basis, coeffs)
    return FieldCoeffs(coeffs.L, -basis.eigenvalues * coeffs.c)


def project(basis: HarmonicBasis, coeffs: FieldCoeffs, l: int) -> FieldCoeffs:
    """Orthogonal projection onto the degree-l eigenspace, 0 <= l <= L.

    The split into degrees l <= 1 and l >= 2 is ``functional.decompose_kernel``.
    """
    _check_match(basis, coeffs)
    if not isinstance(l, int) or isinstance(l, bool) or not 0 <= l <= basis.L:
        raise ValueError(f"eigenspace degree {l!r} outside 0..{basis.L}")
    return FieldCoeffs(coeffs.L, np.where(basis.degrees == l, coeffs.c, 0.0))


def gradient_dot(
    basis: HarmonicBasis, coeffs_u: FieldCoeffs, coeffs_v: FieldCoeffs
) -> NDArray[np.float64]:
    """Nodal samples of the gradient inner product <grad u, grad v>.

    Uses the round-metric formula
    ``du/dtheta dv/dtheta + (du/dphi dv/dphi) / sin(theta)^2``
    with the analytic derivative factors.
    """
    _, ut, up = _field_samples(basis, coeffs_u)
    _, vt, vp = _field_samples(basis, coeffs_v)
    inv_s2 = 1.0 / basis.grid.sin_theta**2
    return ut * vt + up * vp * inv_s2


def weighted_form(
    basis: HarmonicBasis, w_lap, w_grad, u: FieldCoeffs, v: FieldCoeffs | None = None, lmax=None
):
    """Quadrature of int [w_lap Lap u Lap v + w_grad <grad u, grad v>] dv.

    The weights are scalars or nodal samples.  Two fields give a scalar.
    With v omitted, the result is the vector of the form of u against
    every basis function of degree <= lmax (default L), by three
    analysis transforms of the weighted (Lap, d/dtheta, d/dphi) samples
    of u against the value, theta-derivative and phi-derivative factors,
    each to degree lmax as in ``analyze``; the rows above it are zero.
    A caller that knows the vector's support passes its top degree.
    The cap is checked as ``analyze`` checks it, and takes no v.
    """
    _check_cap(basis, lmax)
    if v is not None and lmax is not None:
        raise ValueError("a degree cap applies only to the vector form, with v omitted")
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
    out = -basis.eigenvalues * _analysis(basis, su[0] * (w * w_lap), basis.rad, basis.ang, lmax)
    out += _analysis(basis, su[1] * wg, basis.drad, basis.ang, lmax)
    out += _analysis(basis, su[2] * (wg * inv_s2), basis.rad, basis.dang, lmax)
    return out


def gram_blocks(
    basis: HarmonicBasis, w_lap: NDArray[np.float64], w_grad: NDArray[np.float64]
) -> list[tuple[tuple[int, ...], tuple, Callable[[int], NDArray[np.float64]], tuple]]:
    """Gram matrices of ``weighted_form`` over degrees >= 1, for a batch of weights, as groups.

    The weights are nodal arrays of shape (F, n_nodes), one row per
    field.  Returns a list of groups (members, sets, build, parts):
    ``members`` the fields of the group, ascending; ``sets[i]`` has shape
    (k, n), the k row sets that share the diagonal block ``build(i)``,
    each of n rows counted from row 1, increasing; ``build(i)`` has shape
    (len(members), n, n), one block per member.  Fields whose weights
    have the same layout share a group: one pass over their weights (the
    symmetry checks, ring coefficients and phi sums) and one product per
    block, with a leading batch axis over as many fields as keep its
    operands within ``_CHUNK_BYTES``.  Only the ring coefficients are
    computed here; each call of ``build`` computes its block from them,
    so a caller builds only the blocks it reads.

    The blocks follow the symmetries that both weight arrays of a field
    have, each to 1e-13 of the array's max.  When they are constant on
    every theta ring, there is one block per order a = |m| over the
    degrees l >= max(a, 1), shared by its cos and its sin rows (k = 2
    for a > 0); when they are also even under x3, each order block
    splits by the parity of l + a, one block per (order, parity).  Else
    there is one block per parity class of the reflections that hold,
    read as index maps on the (n_theta, n_phi) view (x1: j -> n_phi/2 -
    j, even n_phi only; x2: j -> -j; x3: i -> n_theta - 1 - i).  Row
    (l, m) is odd under them by p1 = (|m| + [m < 0]) mod 2, p2 = [m < 0]
    and p3 = (l + |m|) mod 2; the classes follow p1 + 2 p2 + 4 p3.

    Every entry is a theta sum: on one ring the phi sum of the weight
    against the trig factors of orders a and a' is exactly half the sum
    or difference of the ring's Fourier coefficients at |a - a'| and
    a + a' (C_0 alone for ring-constant weights, read on the ring's
    first node; else all of one FFT, none dropped), and the
    phi-derivative term is the same for the swapped trig types.  Under
    x3 the sums run over one hemisphere; one read of the ring
    coefficients gives every block's.  ``_block_gram`` builds a block,
    as in Driscoll & Healy (1994) and Schaeffer (2013), from one product
    per (order, trig type) group in it: O(L^2 n_theta) per order block
    of ring-constant weights, O(L^5) over all parity classes.  No entry
    between blocks is computed.  ``build`` symmetrizes its blocks once
    each one's asymmetry is checked against 1e-12 of its own largest
    entry (or of 1), and raises AssertionError past that, for the
    group.  ``parts`` are the part lists of ``_layout``.  A layout whose
    largest block or product would pass ``GRID_BYTES_LIMIT`` is refused
    first (``_check_pencil_size``), and a group holds no more fields
    than the limit admits together.
    """
    grid = basis.grid
    w = np.stack([w_lap, w_grad], axis=1).reshape(-1, 2, grid.n_theta, grid.n_phi)
    modes = _modes(w)
    sizes = {mode: _check_pencil_size(grid.n_theta, grid.n_phi, basis.L, mode) for mode in dict.fromkeys(modes)}
    groups = []
    for mode, size in sizes.items():
        members = [f for f, m in enumerate(modes) if m == mode]
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            group = w if len(chunk) == len(w) else w[chunk]  # no copy of a batch of one layout
            groups.append((tuple(chunk), *_group_blocks(basis, group, mode)))
    return groups


def _modes(w: NDArray[np.float64]) -> list[tuple[bool, bool, bool, bool]]:
    """The layout of each field's weights [field, weight, ring, node]: (ring-constant, x1, x2, x3).

    A symmetry holds where |w - image(w)| stays within 1e-13 of max |w|
    on both weight arrays.  Nothing the size of the stack is formed for
    the ring and x3 tests: each ring's max and min give max |w|, and its
    largest |w - w_first|, as a rounded difference with w_first is
    monotone in w; under x3 only one hemisphere's rings are differenced,
    each against its mirror.  For ring-constant weights, x1 and x2 are
    not read: every order block is even or odd under both.
    """
    nt, nphi = w.shape[-2:]
    j = np.arange(nphi)
    hi, lo = w.max(axis=3), w.min(axis=3)
    top = 1e-13 * np.maximum(hi.max(axis=2), -lo.min(axis=2))

    def holds(image, rings=slice(None)) -> NDArray[np.bool_]:
        d = w[:, :, rings] - image(w)[:, :, rings]
        return (np.abs(d, out=d).max(axis=(2, 3)) <= top).all(axis=1)

    first = w[..., 0]
    ring = (np.maximum(hi - first, first - lo).max(axis=2) <= top).all(axis=1)
    x3 = holds(lambda x: x[:, :, ::-1], slice(nt // 2))
    x1 = x2 = np.zeros(len(w), dtype=bool)
    if not ring.all():
        x2 = ~ring & holds(lambda x: x[..., -j % nphi])
        if nphi % 2 == 0:
            x1 = ~ring & holds(lambda x: x[..., (nphi // 2 - j) % nphi])
    return [tuple(map(bool, m)) for m in zip(ring, x1, x2, x3)]


def _group_blocks(basis: HarmonicBasis, w: NDArray[np.float64], mode):
    """The sets, block builder and parts of ``gram_blocks`` for the weights [field, weight, ring, node] of one layout."""
    L, grid = basis.L, basis.grid
    nt, nphi = grid.n_theta, grid.n_phi
    # ring coefficients [field, C or S, k, term, ring] of w_q w_lap, w_q
    # w_grad and w_q w_grad / sin^2 theta, w_q the quadrature weight of a node
    sets, plan, pairs, parts = _layout(L, mode)
    coef, kind, freq = pairs
    ring = grid.weights[::nphi]
    spec = np.zeros((len(w), 2, freq.max() + 1, 3, nt))
    if mode[0]:
        spec[:, 0, 0, :2] = ring * nphi * w[..., 0]
    else:
        z = (ring[:, None] * np.fft.fft(w, axis=-1)[..., : spec.shape[2]]).transpose(0, 3, 1, 2)
        spec[:, 0, :, :2], spec[:, 1, :, :2] = z.real, -z.imag
    spec[:, :, :, 2] = spec[:, :, :, 1] * (1.0 / grid.sin_theta[::nphi] ** 2)
    if mode[3]:
        # rings i and n_theta - 1 - i contribute alike; the equator once
        nt = (nt + 1) // 2
        spec = spec[..., :nt] * np.where(np.arange(nt) < grid.n_theta // 2, 2.0, 1.0)

    # the phi sums [field, pair, term, ring] of every block's group pairs,
    # one half of the ring coefficients at a time
    phi = spec[:, kind, freq[0]]
    phi *= coef[0]
    half = spec[:, kind, freq[1]]
    half *= coef[1]
    phi += half
    phi *= 0.5
    flat = basis.legendre.reshape(2, -1, grid.n_theta)[..., :nt]

    def build(i: int) -> NDArray[np.float64]:
        own, g, cols, span, lap = plan[i]
        G, n = len(cols), sets[i].shape[1]
        out = np.empty((len(w), n, n))
        # a few fields at a time, so that one chunk's operands stay in cache
        step = max(1, _CHUNK_BYTES // (24 * n * max(n, nt)))
        for f in range(0, len(w), step):
            B = _block_gram(flat, phi[f : f + step, span].reshape(-1, G, G, 3, nt), own, g, cols, lap)
            Bt = B.transpose(0, 2, 1)
            asym = np.abs(B - Bt).max(axis=(1, 2))
            sym = np.multiply(0.5, B + Bt, out=out[f : f + step])
            bound = 1e-12 * np.maximum(np.abs(sym).max(axis=(1, 2)), 1.0)
            # a NaN or inf entry fails the test, as an asymmetry past tolerance does
            if not np.all((asym <= bound) & (bound < math.inf)):
                raise AssertionError(f"Gram block {i} is not finite, or its asymmetry {asym.max()} exceeds tolerance")
        return out

    return sets, build, parts


# bytes of the operands one chunk of fields builds a block from, and of
# the parts that one eigvalsh call of ``functional`` stacks, about half of
# an L2 cache: a 49x98, L = 48 parity scan built its nine rows' 300-row
# blocks 8% slower in one batch than one field at a time
_CHUNK_BYTES = 2**20


def _gram_limit(basis: HarmonicBasis) -> float:
    """The largest |weight| for which no step of ``gram_blocks`` can overflow.

    A ring coefficient is at most 2 n_phi w_q / sin^2 theta times it (2
    for the x3 fold); a phi sum L^2 times that; a block entry 3 n_theta
    times that times two factors of at most L (L + 1) sqrt((2L + 1) / 4 pi)
    (by the addition theorem); symmetrizing and the round diagonal, 2.
    """
    L, grid, nphi = basis.L, basis.grid, basis.grid.n_phi
    ring = 2.0 * nphi * float(np.max(grid.weights[::nphi] / grid.sin_theta[::nphi] ** 2))
    F2 = (L * (L + 1)) ** 2 * (2 * L + 1) / FOUR_PI
    return float(np.finfo(np.float64).max) / (2.0 * 3.0 * grid.n_theta * F2 * L * L * ring)


def _check_pencil_size(n_theta: int, n_phi: int, L: int, mode) -> int:
    """How many fields of layout ``mode`` one group of ``gram_blocks`` takes.

    A layout whose largest block or product alone passes
    ``GRID_BYTES_LIMIT`` is refused by a ValueError.  A group takes as
    many fields as fit in the limit together, each with its blocks
    kept, and at least one.  See ``_pencil_bytes``.
    """
    need, kept = _pencil_bytes(n_theta, L, mode)
    if need > GRID_BYTES_LIMIT:
        raise ValueError(
            f"pencil on grid {n_theta}x{n_phi} at L = {L} needs {need / 2**30:.3g} GiB for its "
            f"largest block or product, over the {GRID_BYTES_LIMIT / 2**30:.3g} GiB limit"
        )
    return max(1, GRID_BYTES_LIMIT // (need + kept))


@functools.lru_cache(maxsize=8)
def _pencil_bytes(n_theta: int, L: int, mode) -> tuple[int, int]:
    """The bytes one field's pencil of layout ``mode`` needs at once, and the bytes of all its blocks.

    ``mode`` is as for ``_layout``.  The largest arrays are a block of n
    rows with the two n x n temporaries of its symmetry check, one
    group's operand or product over three terms, 3 n max(rings, L+1),
    and the phi sums, 3 rings per group pair, G^2 per distinct set of
    a block's G groups.  A pencil keeps every block it builds, sum n^2
    over the blocks.
    """
    sets, _, pairs, _ = _layout(L, mode)
    n = max(s.shape[1] for s in sets)
    rings = (n_theta + 1) // 2 if mode[3] else n_theta
    need = 24 * max(n * n, n * max(rings, L + 1), rings * len(pairs[1]))
    return need, 8 * sum(s.shape[1] ** 2 for s in sets)


def _pair_terms(ia, si, ja, sj):
    """How ``gram_blocks`` reads the phi sums of trig factors (ia, si) and (ja, sj).

    Orders a, a' and trig types s, s' (1 for sin) broadcast together.  A
    pair's sum is half its ring coefficients at |a - a'| and a + a', C
    for like trig types and S for unlike ones, signed.  The phi
    derivatives -a sin(a phi) of cos rows and a cos(a phi) of sin rows
    scale the third term and swap its trig types.
    """
    flip = np.array([1, 1, -1])[:, None]
    same = (si == sj)[..., None, None]
    coef = np.stack([
        np.where(same, 1, ((si - sj) * np.sign(ia - ja))[..., None, None] * flip),
        np.where(same, (1 - 2 * si)[..., None, None] * flip, 1),
    ])
    coef[..., 2, :] *= (ia * ja * (2 * si - 1) * (2 * sj - 1))[..., None]
    return coef, (si != sj).astype(np.intp), np.stack([abs(ia - ja), ia + ja])


def _block_gram(flat, phi, own, g, cols, lap) -> NDArray[np.float64]:
    """One block of ``_layout``'s plan for every field: per group k, its rows weighted by their phi sums against k's rows.

    ``flat`` holds the factors [rad or drad, a (L+1) + l, ring], ``phi``
    the block's phi sums [field, column group, row group, term, ring],
    ``lap`` -l(l+1) per row; the terms Laplacian, theta derivative and
    value are batched in one product per group, and summed in that
    order.  Returns the blocks [field, row, row].
    """
    rad, drad = flat[:, own]
    left = np.array([rad * lap, drad, rad])  # [term, row, ring]
    B = np.empty((len(phi), left.shape[1], left.shape[1]))
    for k, c in enumerate(cols):
        P = np.matmul(phi[:, k, g].transpose(0, 2, 1, 3) * left, left[:, c].transpose(0, 2, 1))
        B[:, :, c] = P[:, 0] + P[:, 1] + P[:, 2]
    return B


@functools.lru_cache(maxsize=8)
def _layout(L: int, mode):
    """The row sets of ``gram_blocks``, the plan of their products, their group pairs, and their parts.

    Fixed by L and ``mode``, whether the weights are ring-constant and
    whether x1, x2, x3 hold (x1 and x2 unread for ring-constant
    weights); rows count from row 1.  ``sets`` holds, for ring-constant
    weights, per order, and per parity of l + |m| when x3 holds, its cos
    rows, then its sin rows; else per parity class its rows, shape (1,
    n).  ``plan`` holds per block what ``_block_gram`` reads of its
    first row set: each row's index ``own`` in the [a, l] factor tables,
    its (order, trig type) group g, each group's columns, the span of
    its group pairs (column group, row group) in ``pairs``, the
    ``_pair_terms`` of every block's pairs, which blocks of the same
    groups share, and -l(l+1) per row, shape (n, 1); for ring-constant
    weights every frequency past 0 reads 1, where the ring coefficients
    are zero.  A block of one group, as every ring-constant one is, holds
    ``own``, g and its columns as slices.  ``parts[0]`` holds each block
    i as (lowest degree, i, 0), ``parts[1]`` each as (lowest degree >=
    2, i, k), k its l = 1 rows, which lead it; sorted.  All of it is
    read-only, and grows with the row count.
    """
    l = np.repeat(np.arange(1, L + 1), 2 * np.arange(1, L + 1) + 1)
    m = np.arange(1, (L + 1) ** 2) - l * (l + 1)
    a, s = np.abs(m), (m < 0).astype(np.intp)
    ring, x1, x2, x3 = mode
    if ring:
        # the rows of one key alternate sin, cos by degree
        key = 2 * a + x3 * ((l + a) % 2)
        sets = [np.flatnonzero(key == c).reshape(-1, 1 + (c > 1)).T[::-1] for c in np.unique(key)]
    else:
        key = x1 * ((a + s) % 2) + x2 * 2 * s + x3 * 4 * ((l + a) % 2)
        sets = [np.flatnonzero(key == c)[None] for c in np.unique(key)]
    plan, groups, spans, start = [], [], {}, 0
    for rows in (r[0] for r in sets):
        codes, g = np.unique(2 * a[rows] + s[rows], return_inverse=True)
        own, G = a[rows] * (L + 1) + l[rows], len(codes)
        if G == 1:  # its rows are then read without copies
            step = own[1] - own[0] if len(own) > 1 else 1
            own, g, cols = slice(own[0], own[-1] + 1, step), slice(None), [slice(None)]
        else:
            own, g, *cols = _read_only(own, g, *(np.flatnonzero(g == k) for k in range(G)))
        lap = _read_only(-(l[rows] * (l[rows] + 1.0))[:, None])[0]
        # blocks of the same groups, as the two x3 parities of an order, share their pairs
        if (span := spans.get(codes.tobytes())) is None:
            span = spans[codes.tobytes()] = slice(start, start + G * G)
            groups.append((np.tile(codes, G), np.repeat(codes, G)))  # pair k G + g: row group g, column group k
            start += G * G
        plan.append((own, g, tuple(cols), span, lap))
    i, j = np.concatenate(groups, axis=1)
    coef, kind, freq = _pair_terms(i // 2, i % 2, j // 2, j % 2)
    if ring:  # no ring coefficient past C_0: the pairs read C_0, or a zero at 1
        freq = np.minimum(freq, 1)
    pairs = _read_only(coef, kind, freq)
    degrees = [l[rows[0]].tolist() for rows in sets]  # each block's, increasing
    full = sorted((d[0], i, 0) for i, d in enumerate(degrees))
    past_l1 = sorted((d[k], i, k) for i, d in enumerate(degrees) if (k := d.count(1)) < len(d))
    return _read_only(*sets), tuple(plan), pairs, (tuple(full), tuple(past_l1))


def _field_samples(basis: HarmonicBasis, u: FieldCoeffs):
    """(Lap, d/dtheta, d/dphi) samples of a field at every node, from one read of its top degree."""
    _check_match(basis, u)
    D = _top_degree(u.c)
    lap = _synthesis(basis, -basis.eigenvalues * u.c, basis.rad, basis.ang, D)
    dt = _synthesis(basis, u.c, basis.drad, basis.ang, D)
    dp = _synthesis(basis, u.c, basis.rad, basis.dang, D)
    return lap, dt, dp


def _check_match(basis: HarmonicBasis, coeffs: FieldCoeffs) -> None:
    if coeffs.L != basis.L:
        raise ValueError(
            f"coefficients truncated at L={coeffs.L}, basis built for L={basis.L}"
        )
