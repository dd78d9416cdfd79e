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
transpose of both steps.  Each costs O(L^3).

Each basis function is even or odd under each coordinate reflection,
by (l, m) alone:

    x1 -> -x1:  (-1)^m for cos terms, -(-1)^m for sin terms
    x2 -> -x2:  cos terms even, sin terms odd
    x3 -> -x3:  (-1)^(l+m)

A form whose weights are even under a reflection couples no two rows
of opposite parity under it.  A form whose weights are constant on
every theta ring couples only rows of one order |m| and one trig type,
because the discrete cos and sin factors are orthogonal on the uniform
phi nodes.  ``gram_blocks``, the builder of the Gram blocks of the
pencil, splits the rows by the symmetries the weights have and
computes every entry as a theta sum: the phi sum of two trig factors
against a ring's weights is read exactly off the ring's Fourier
coefficients.  It returns the row sets, a builder that computes each
distinct block, one product per term, only when called, and the parts.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .quad import FOUR_PI, SphereGrid, _read_only

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
    (n_basis, n_nodes), are assembled from the factors on every read,
    and take 92 MB each at L = 48.  No command reads them; they stay
    only because the benchmark tracer (``perfbench/tracer.py``) sizes
    its table count from them.
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
        return _row_samples(self, slice(None), self.rad, self.ang)

    @property
    def dtheta(self) -> NDArray[np.float64]:
        return _row_samples(self, slice(None), self.drad, self.ang)

    @property
    def dphi(self) -> NDArray[np.float64]:
        return _row_samples(self, slice(None), self.rad, self.dang)


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


def round_diagonal(basis: HarmonicBasis) -> NDArray[np.float64]:
    """Exact round-sphere form on each mode: mu (mu/2 - 1), mu = l(l+1)."""
    mu = basis.eigenvalues
    return mu * (0.5 * mu - 1.0)


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


def gram_blocks(
    basis: HarmonicBasis, w_lap: NDArray[np.float64], w_grad: NDArray[np.float64]
) -> tuple[tuple[NDArray[np.int64], ...], Callable[[int], NDArray[np.float64]], tuple]:
    """Gram matrix of ``weighted_form`` over degrees >= 1, as row sets, block builder, parts.

    The weights are nodal arrays.  Returns (sets, build, parts): ``sets[i]``
    has shape (k, n), the k row sets that share the diagonal block
    ``build(i)``, each of n rows counted from row 1, increasing.  Only
    the ring coefficients of the weights are computed here; each call of
    ``build`` computes its block from them, so a caller builds only the
    blocks it reads.  The blocks follow the symmetries that both weight
    arrays have, each to 1e-13 of the array's max.  When they are
    constant on every theta ring, there is one block per order a = |m|
    over the degrees l >= max(a, 1), shared by its cos and its sin rows
    (k = 2 for a > 0).  Else there is one block per parity class of the
    reflections that hold, read as index maps on the (n_theta, n_phi)
    view (x1: j -> n_phi/2 - j, even n_phi only; x2: j -> -j;
    x3: i -> n_theta - 1 - i).  Row (l, m) is odd under them by
    p1 = (|m| + [m < 0]) mod 2, p2 = [m < 0] and p3 = (l + |m|) mod 2;
    the classes follow p1 + 2 p2 + 4 p3.

    Every entry is a theta sum: on one ring the phi sum of the weight
    against the trig factors of orders a and a' is exactly half the sum
    or difference of the ring's Fourier coefficients at |a - a'| and
    a + a' (C_0 alone for ring-constant weights, read on the ring's
    first node; else all of one FFT, none dropped), and the
    phi-derivative term is the same for the swapped trig types.  Under
    x3 the sums run over one hemisphere.  A block takes one product per
    term, as in Driscoll & Healy (1994) and Schaeffer (2013): for
    ring-constant weights its order's on the full degree range, of which
    the block is the trailing square, O(L^2 n_theta); else its class's
    rows against the rows of each of the class's (order, trig type)
    groups, O(L^5) over all classes.  No entry between blocks is
    computed.  ``build`` symmetrizes its block once the block's
    asymmetry is checked against 1e-12 of its own largest entry (or
    of 1), and raises AssertionError past that.  ``parts`` are the part
    lists of ``_layout``.
    """
    L, grid = basis.L, basis.grid
    nt, nphi = grid.n_theta, grid.n_phi
    w = [np.reshape(x, (nt, nphi)) for x in (w_lap, w_grad)]

    def holds(image) -> bool:
        return all(np.abs(x - image(x)).max() <= 1e-13 * np.abs(x).max() for x in w)

    # ring coefficients [C or S, k, term, ring] of w_q w_lap, w_q w_grad
    # and w_q w_grad / sin^2 theta, w_q the quadrature weight of a node
    ring = grid.weights[::nphi]
    spec = np.zeros((2, 2 * L + 1, 3, nt))
    if holds(lambda x: x[:, :1]):
        mode = None
        spec[0, 0, :2] = [ring * nphi * x[:, 0] for x in w]
    else:
        j = np.arange(nphi)
        x1 = nphi % 2 == 0 and holds(lambda x: x[:, (nphi // 2 - j) % nphi])
        mode = (x1, holds(lambda x: x[:, -j % nphi]), holds(lambda x: x[::-1]))
        z = (ring[:, None] * np.fft.fft(np.stack(w), axis=-1)[..., : 2 * L + 1]).transpose(2, 0, 1)
        spec[0, :, :2], spec[1, :, :2] = z.real, -z.imag
    spec[:, :, 2] = spec[:, :, 1] * (1.0 / grid.sin_theta[::nphi] ** 2)
    if mode and mode[2]:
        # rings i and n_theta - 1 - i contribute alike; the equator once
        nt = (nt + 1) // 2
        spec = spec[..., :nt] * np.where(np.arange(nt) < grid.n_theta // 2, 2.0, 1.0)

    mu = np.arange(L + 1) * (np.arange(L + 1) + 1.0)
    factors = [basis.rad * -mu[:, None], basis.drad, basis.rad]
    factors = [np.ascontiguousarray(f[..., :nt]) for f in factors]
    sets, plan, parts = _layout(L, mode)
    if mode is None:
        phi = _phi_sums(spec, plan)  # [order, term, ring]

        def gram(i):
            n = sets[i].shape[1]
            return _order_gram(factors, phi[i], i)[-n:, -n:]

    else:

        def gram(i):
            return _class_gram(spec, factors, *plan[i])

    def build(i: int) -> NDArray[np.float64]:
        B = gram(i)
        asym = np.abs(B - B.T).max()
        B = 0.5 * (B + B.T)
        # a NaN or inf entry fails the test, as an asymmetry past tolerance does
        if not asym <= 1e-12 * max(np.abs(B).max(), 1.0) < math.inf:
            raise AssertionError(f"Gram block {i} is not finite, or its asymmetry {asym} exceeds tolerance")
        return B

    return sets, build, parts


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


def _pair_terms(ia, si, ja, sj):
    """How ``_phi_sums`` reads the phi sums of trig factors (ia, si) and (ja, sj).

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


def _phi_sums(spec, pairs) -> NDArray[np.float64]:
    """The phi sums [..., term, ring] of the pairs of ``_pair_terms``."""
    coef, kind, freq = pairs
    terms = spec[kind, freq]
    terms *= coef
    phi = np.add(*terms)
    phi *= 0.5
    return phi


def _order_gram(factors, phi, a) -> NDArray[np.float64]:
    """The product of order a over every degree, from its phi sums [term, ring]: one per term, summed."""
    return functools.reduce(np.add, (np.matmul(f[a] * p, f[a].T) for f, p in zip(factors, phi)))


def _class_gram(spec, factors, own, g, r, right, pairs) -> NDArray[np.float64]:
    """The block of one parity class of ``_layout``'s plan, from one product per term.

    Per term, the class's rows weighted by their phi sums against each
    (order, trig type) group g' of the class, against the rows of g' at
    its padded degrees; entry (p, q) of the block is at (g_q, p, r_q).
    """
    nt = factors[0].shape[-1]
    phi = _phi_sums(spec, pairs)  # [g', g, term, ring]
    flat = [f.reshape(-1, nt) for f in factors]
    out = functools.reduce(
        np.add,
        (
            np.matmul(np.take(phi[:, :, t], g, axis=1) * f[own], f[right].transpose(0, 2, 1))
            for t, f in enumerate(flat)
        ),
    )
    return out.transpose(0, 2, 1)[g, r]  # row q reads (g_q, :, r_q): the block's transpose


@functools.lru_cache(maxsize=4)
def _layout(L: int, mode):
    """The row sets of ``gram_blocks``, the plan of their products, and their parts.

    Fixed by L and ``mode`` (None for ring-constant weights, else
    whether x1, x2, x3 hold); rows count from row 1.  For ring-constant
    weights, per order its cos rows, then its sin rows, and the
    ``_pair_terms`` of each order with itself.  Else per parity class
    its rows, shape (1, n), and what ``_class_gram`` reads: each row's
    index ``own`` in the [a, l] factor tables, its (order, trig type)
    group g and its position r in the group's degrees par, par + step,
    ... padded to L // step + 1 (step 2 under x3); each group's factor
    rows ``right`` at those degrees, clipped to L; and the
    ``_pair_terms`` of every (group, row's group) pair.  ``parts[0]``
    holds each block i as (lowest degree, i, 0), ``parts[1]`` each as
    (lowest degree >= 2, i, k), k its l = 1 rows, which lead it; sorted.
    All of it is read-only, and grows with the row count.
    """
    l = np.repeat(np.arange(1, L + 1), 2 * np.arange(1, L + 1) + 1)
    m = np.arange(1, (L + 1) ** 2) - l * (l + 1)
    a, s = np.abs(m), (m < 0).astype(np.intp)
    if mode is None:
        # the rows of order k alternate sin, cos by degree
        sets = [np.flatnonzero(a == k).reshape(-1, 1 + (k > 0)).T[::-1] for k in range(L + 1)]
        orders, zero = np.arange(L + 1), np.zeros(L + 1, dtype=np.intp)
        plan = _read_only(*_pair_terms(orders, zero, orders, zero))
    else:
        key = mode[0] * ((a + s) % 2) + mode[1] * 2 * s + mode[2] * 4 * ((l + a) % 2)
        step = 2 if mode[2] else 1
        npad, sets, plan = L // step + 1, [], []
        for c in np.unique(key):
            rows = np.flatnonzero(key == c)
            codes, first, g = np.unique(2 * a[rows] + s[rows], return_index=True, return_inverse=True)
            ga, gs, par = codes // 2, codes % 2, l[rows[first]] % step
            right = ga[:, None] * (L + 1) + np.minimum(par[:, None] + step * np.arange(npad), L)
            idx = (a[rows] * (L + 1) + l[rows], g, (l[rows] - par[g]) // step, right)
            pairs = _read_only(*_pair_terms(ga, gs, ga[:, None], gs[:, None]))
            sets.append(rows[None])
            plan.append((*_read_only(*idx), pairs))
        plan = tuple(plan)
    degrees = [l[rows[0]].tolist() for rows in sets]  # each block's, increasing
    full = sorted((d[0], i, 0) for i, d in enumerate(degrees))
    past_l1 = sorted((d[k], i, k) for i, d in enumerate(degrees) if (k := d.count(1)) < len(d))
    return _read_only(*sets), plan, (tuple(full), tuple(past_l1))


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
