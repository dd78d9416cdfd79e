"""Quadrature grid and exact monomial integrals."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from wy_stability.quad import (
    FOUR_PI,
    _gauss_legendre,
    build_grid,
    integrate,
    monomial_integral,
    poly_integral,
)

GRID = build_grid(32, 64)


def test_grid_shapes_and_weight_sum():
    assert GRID.n_nodes == 32 * 64
    assert GRID.theta.shape == (GRID.n_nodes,)
    assert GRID.phi.shape == (GRID.n_nodes,)
    assert GRID.weights.shape == (GRID.n_nodes,)
    assert GRID.xyz.shape == (GRID.n_nodes, 3)
    assert math.isclose(GRID.weights.sum(), FOUR_PI, rel_tol=1e-14)


def test_grid_nodes_on_unit_sphere():
    radii = np.linalg.norm(GRID.xyz, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-14
    # interior nodes only; the poles are never sampled
    assert GRID.theta.min() > 0.0
    assert GRID.theta.max() < math.pi


def test_exact_degree():
    assert GRID.exact_degree == min(2 * 32 - 1, 64 - 1)
    small = build_grid(4, 8)
    assert small.exact_degree == 7


def test_gauss_legendre_is_leggauss_bit_for_bit():
    # the in-module rule runs numpy's leggauss algorithm step for step
    from numpy.polynomial.legendre import leggauss

    for n in range(2, 129):
        x, w = _gauss_legendre(n)
        x_np, w_np = leggauss(n)
        np.testing.assert_array_equal(x, x_np, err_msg=f"nodes, n = {n}")
        np.testing.assert_array_equal(w, w_np, err_msg=f"weights, n = {n}")


def test_build_grid_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        build_grid(1, 8)
    with pytest.raises(ValueError):
        build_grid(4, 3)


def test_monomial_integral_reference_values():
    # the four reference rationals, as (1/4pi) * integral
    assert monomial_integral(2, 0, 0) == Fraction(1, 3)
    assert monomial_integral(2, 2, 0) == Fraction(1, 15)
    assert monomial_integral(4, 2, 0) == Fraction(1, 35)
    assert monomial_integral(2, 2, 2) == Fraction(1, 105)
    # symmetry under exponent permutation
    assert monomial_integral(0, 2, 0) == Fraction(1, 3)
    assert monomial_integral(0, 2, 4) == Fraction(1, 35)
    assert monomial_integral(0, 0, 0) == Fraction(1, 1)


def test_monomial_integral_odd_exponents_vanish():
    for trip in [(1, 0, 0), (0, 3, 0), (1, 1, 2), (2, 0, 5), (3, 3, 3)]:
        assert monomial_integral(*trip) == 0


def test_monomial_integral_rejects_negative():
    with pytest.raises(ValueError):
        monomial_integral(-2, 0, 0)


def test_quadrature_matches_oracle_all_even_monomials():
    # every even monomial of total degree <= 10
    worst = 0.0
    for p in range(0, 11, 2):
        for q in range(0, 11 - p, 2):
            for r in range(0, 11 - p - q, 2):
                frac = monomial_integral(p, q, r)
                exact = FOUR_PI * frac.numerator / frac.denominator
                vals = GRID.xyz[:, 0] ** p * GRID.xyz[:, 1] ** q * GRID.xyz[:, 2] ** r
                got = integrate(GRID, vals)
                worst = max(worst, abs(got - exact) / exact)
    assert worst < 1e-11


def test_quadrature_kills_odd_monomials():
    for p, q, r in [(1, 0, 0), (3, 2, 0), (1, 1, 1), (5, 2, 2)]:
        vals = GRID.xyz[:, 0] ** p * GRID.xyz[:, 1] ** q * GRID.xyz[:, 2] ** r
        assert abs(integrate(GRID, vals)) < 1e-13


def test_poly_integral_matches_quadrature_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        terms = []
        vals = np.zeros(GRID.n_nodes)
        for _ in range(5):
            p, q, r = (int(e) for e in rng.integers(0, 4, size=3))
            c = float(rng.normal())
            terms.append((c, p, q, r))
            vals += c * GRID.xyz[:, 0] ** p * GRID.xyz[:, 1] ** q * GRID.xyz[:, 2] ** r
        exact = poly_integral(terms)
        got = integrate(GRID, vals)
        assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))


def test_coarse_grid_fails_high_degree():
    # degree 10 exceeds the exactness degree of a (4, 8) grid
    small = build_grid(4, 8)
    exact = FOUR_PI / 11.0  # (10,0,0): 9!!/11!! = 1/11
    assert monomial_integral(10, 0, 0) == Fraction(1, 11)
    got = integrate(small, small.xyz[:, 0] ** 10)
    assert abs(got - exact) / exact > 1e-6


def test_integrate_rejects_wrong_shape():
    with pytest.raises(ValueError):
        integrate(GRID, np.ones(GRID.n_nodes - 1))


@pytest.mark.parametrize("shape", [(8, 16), (8, 17)])
def test_grid_and_fold_are_read_only_and_computed_once(shape):
    # a grid keeps no folded copy and no node permutations: the Gram
    # builder reads the reflections as index maps on the (n_theta, n_phi)
    # view, on even and odd n_phi alike
    grid = build_grid(*shape)
    arrays = [grid.theta, grid.phi, grid.weights, grid.xyz, grid.sin_theta]
    assert not hasattr(grid, "fold") and not hasattr(grid, "reflections")
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert np.array_equal(grid.sin_theta, np.sin(grid.theta))
