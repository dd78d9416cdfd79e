"""Quadrature on the unit round sphere.

The grid is a tensor product of a Gauss-Legendre rule in ``cos(theta)``
with a uniform trapezoid rule in ``phi``.  Such a rule integrates any
polynomial in the ambient coordinates ``(x1, x2, x3)`` restricted to the
sphere exactly (up to roundoff) as long as the total degree does not
exceed ``min(2*n_theta - 1, n_phi - 1)``.

Exact reference values for monomial integrals come from the closed form

    (1/4pi) * int x1^p x2^q x3^r dv
        = (p-1)!! (q-1)!! (r-1)!! / (p+q+r+1)!!   (all exponents even)

and zero whenever any exponent is odd.  The rational factor is kept exact
so that quadrature accuracy can be measured against it.

The nodes are symmetric about the equator and uniform in phi, so on the
(n_theta, n_phi) view of nodal samples the reflections of x3 and x2 are
the index maps i -> n_theta - 1 - i and j -> -j, and that of x1 is
j -> n_phi/2 - j on an even n_phi; an odd n_phi has none.  Every array
of a grid is read-only, so that one grid can be shared.

The Gauss-Legendre rule (``_gauss_legendre``) is numpy's ``leggauss``
algorithm step for step: the eigenvalues of the symmetric Jacobi matrix,
one Newton step by the Clenshaw recurrence of ``legval``, and weights
from P_{n-1} P_n', symmetrized and normalized to sum to 2.  A test holds
it equal to ``leggauss`` bit for bit; computing it here keeps
``numpy.polynomial`` out of the import.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

    from numpy.typing import NDArray

__all__ = [
    "Record",
    "SphereGrid",
    "build_grid",
    "integrate",
    "monomial_integral",
    "poly_integral",
]

FOUR_PI = 4.0 * math.pi

# bytes that a grid with its basis, and that the largest array of one
# pencil's build, may take
GRID_BYTES_LIMIT = 2**30


class Record:
    """Base of the package's frozen records.

    A record's ``__init__`` checks its inputs and stores them with
    ``vars(self).update``; after that, assignment and deletion raise
    ``FrozenInstanceError``, as on a frozen dataclass.  Its fields are
    the positional parameters of ``__init__``, in order; a keyword-only
    parameter is stored but is no field.  ``repr`` reads
    ``Name(field=value, ...)``, ``==`` compares the fields of two records
    of one class as a tuple, and ``hash`` hashes that tuple.
    ``functools.cached_property`` writes ``vars(self)`` directly, so it
    still caches.  A frozen dataclass would compile six methods per class
    with ``exec`` at import, most of the package's import time.
    """

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> dict:
        code = type(self).__init__.__code__
        return {name: getattr(self, name) for name in code.co_varnames[1 : code.co_argcount]}

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self._fields().items())})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self._fields().values()) == tuple(other._fields().values())

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))


class SphereGrid(Record):
    """Quadrature nodes and weights on the unit sphere.

    Attributes
    ----------
    n_theta, n_phi : int
        Number of colatitude and longitude nodes.
    theta, phi : ndarray, shape (n_nodes,)
        Node angles, flattened theta-major (node k = i_theta * n_phi + j_phi).
    weights : ndarray, shape (n_nodes,)
        Positive quadrature weights summing to 4*pi.
    xyz : ndarray, shape (n_nodes, 3)
        Unit Cartesian coordinates of the nodes.
    sin_theta : ndarray, shape (n_nodes,)
        sin(theta) at each node.
    """

    def __init__(
        self, n_theta: int, n_phi: int, theta: NDArray[np.float64], phi: NDArray[np.float64],
        weights: NDArray[np.float64], xyz: NDArray[np.float64], sin_theta: NDArray[np.float64],
    ) -> None:
        vars(self).update(
            n_theta=n_theta, n_phi=n_phi, theta=theta, phi=phi, weights=weights, xyz=xyz, sin_theta=sin_theta
        )

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    @property
    def exact_degree(self) -> int:
        """Largest polynomial total degree integrated exactly."""
        return min(2 * self.n_theta - 1, self.n_phi - 1)


def _read_only(*arrays: NDArray) -> tuple[NDArray, ...]:
    """Mark each array read-only in place and return them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _legval(x: NDArray[np.float64], c: NDArray[np.float64]) -> NDArray[np.float64]:
    """sum_i c[i] P_i(x), len(c) >= 2, by the Clenshaw recurrence of numpy's ``legval``."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Nodes, increasing, and weights of the n-point Gauss-Legendre rule, n >= 2."""
    k = np.arange(n)
    scl = 1.0 / np.sqrt(2 * k + 1)
    # the symmetric Jacobi matrix, off-diagonal k / sqrt((2k-1)(2k+1))
    off = k[1:] * scl[:-1] * scl[1:]
    jacobi = np.zeros((n, n))
    jacobi.flat[1 :: n + 1] = jacobi.flat[n :: n + 1] = off
    x = np.linalg.eigvalsh(jacobi)
    # P_n and P_n' = sum of (2i+1) P_i over i = n-1, n-3, ...
    pn = np.zeros(n + 1)
    pn[n] = 1.0
    dpn = np.where(k % 2 == (n - 1) % 2, 2.0 * k + 1.0, 0.0)
    df = _legval(x, dpn)
    x -= _legval(x, pn) / df  # one Newton step
    fm = _legval(x, pn[1:])  # P_{n-1}
    # each factor scaled by its max, so that the product cannot overflow
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def build_grid(n_theta: int, n_phi: int) -> SphereGrid:
    """Build the product quadrature grid.

    Parameters
    ----------
    n_theta : int
        Gauss-Legendre node count in cos(theta); must be >= 2.
    n_phi : int
        Uniform node count in phi; must be >= 4.

    Returns
    -------
    SphereGrid
        With every array read-only.
    """
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2, got {n_theta}")
    if n_phi < 4:
        raise ValueError(f"n_phi must be >= 4, got {n_phi}")

    x, wx = _gauss_legendre(n_theta)
    # the nodes increase in x = cos(theta); none hits the poles because
    # the Legendre nodes are interior to (-1, 1).
    theta_1d = np.arccos(x)
    phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * np.pi / n_phi

    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(wx * w_phi, n_phi)

    sin_t = np.sin(theta)
    xyz = np.stack(
        [sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=1
    )
    _read_only(theta, phi, weights, xyz, sin_t)
    return SphereGrid(n_theta, n_phi, theta, phi, weights, xyz, sin_t)


def integrate(grid: SphereGrid, samples: NDArray[np.float64]) -> float:
    """Integrate nodal samples of a function over the sphere.

    Parameters
    ----------
    grid : SphereGrid
    samples : ndarray, shape (n_nodes,)
        Function values at the grid nodes, in grid node order.

    Returns
    -------
    float
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.n_nodes,):
        raise ValueError(
            f"samples has shape {samples.shape}, expected ({grid.n_nodes},)"
        )
    return float(grid.weights @ samples)


def _double_factorial(n: int) -> int:
    """(n)!! for n >= -1, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def monomial_integral(p: int, q: int, r: int) -> Fraction:
    """Exact sphere integral of x1^p x2^q x3^r as a rational multiple of 4*pi.

    Parameters
    ----------
    p, q, r : int
        Nonnegative exponents.

    Returns
    -------
    Fraction
        The exact value of ``(1/4pi) * int x1^p x2^q x3^r dv``.  Zero when
        any exponent is odd.
    """
    from fractions import Fraction

    for e in (p, q, r):
        if e < 0 or e != int(e):
            raise ValueError(f"exponents must be nonnegative integers, got {(p, q, r)}")
    if (p % 2) or (q % 2) or (r % 2):
        return Fraction(0)
    num = (
        _double_factorial(p - 1)
        * _double_factorial(q - 1)
        * _double_factorial(r - 1)
    )
    return Fraction(num, _double_factorial(p + q + r + 1))


def poly_integral(terms: list[tuple[float, int, int, int]]) -> float:
    """Integrate a polynomial in ambient coordinates over the sphere.

    Parameters
    ----------
    terms : list of (coefficient, p, q, r)
        The polynomial ``sum c * x1^p x2^q x3^r``.

    Returns
    -------
    float
        The integral, evaluated in double precision at the end; the
        per-monomial rational factors are exact.
    """
    total = 0.0
    for coeff, p, q, r in terms:
        frac = monomial_integral(p, q, r)
        if frac:
            total += float(coeff) * (frac.numerator / frac.denominator)
    return FOUR_PI * total
