"""Legendre basis and Gauss-Legendre quadrature on the reference interval [-1, 1].

The solver uses a modal Legendre basis: the element mass matrix on the
reference interval is diagonal with entries 2/(2m+1), which makes local L2
projection a plain coefficient truncation.  Two-dimensional elements use
tensor products of these polynomials restricted to a total-degree set.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]; exact for polynomials of degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def legendre_eval(m: int, xi):
    """Evaluate P_m(xi) via the three-term recurrence; vectorized in xi."""
    if m < 0:
        raise ValueError("degree index must be nonnegative")
    x = np.asarray(xi, dtype=float)
    p_prev = np.ones_like(x)
    if m == 0:
        return p_prev if x.ndim else float(p_prev)
    p = x.copy()
    for k in range(1, m):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p if x.ndim else float(p)


def legendre_deriv(m: int, xi, order: int = 1):
    """Evaluate the order-th derivative of P_m at xi; zero when order > m."""
    if m < 0 or order < 0:
        raise ValueError("degree index and derivative order must be nonnegative")
    x = np.asarray(xi, dtype=float)
    if order > m:
        out = np.zeros_like(x)
        return out if x.ndim else 0.0
    coeff = np.zeros(m + 1)
    coeff[m] = 1.0
    if order:
        coeff = npleg.legder(coeff, order)
    out = npleg.legval(x, coeff)
    return out if x.ndim else float(out)


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1]; cached, its arrays are read-only."""
    if n < 1:
        raise ValueError("quadrature rule needs at least one node")
    nodes, weights = npleg.leggauss(n)
    return QuadratureRule(nodes=nodes, weights=weights)


def volume_quadrature_points(degree: int) -> int:
    """Gauss points per direction and cell of the volume integrals over a degree-`degree` field.

    The one rule of the kernels' source and volume terms
    (`SolverConfig.quad_points`), of the energy's source integral
    (`diagnostics.source_integral`) and of the initial data's projections
    (`DGField1D.project`, `DGField2D.project`); all read it through this module.
    """
    return degree + 3


def vandermonde(xi, degree: int, order: int = 0) -> np.ndarray:
    """Table V[..., m] = d^order/dxi^order P_m(xi) for m = 0..degree."""
    x = np.asarray(xi, dtype=float)
    out = np.zeros(x.shape + (degree + 1,))
    for m in range(degree + 1):
        out[..., m] = legendre_deriv(m, x, order) if order else legendre_eval(m, x)
    return out


@lru_cache(maxsize=None)
def mass_diagonal(degree: int) -> np.ndarray:
    """Reference mass matrix diagonal: integral of P_m^2 over [-1, 1] = 2/(2m+1)."""
    if degree < 0:
        raise ValueError("basis degree must be nonnegative")
    out = 2.0 / (2.0 * np.arange(degree + 1) + 1.0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def derivative_matrix(degree: int) -> np.ndarray:
    """D with P'_n = sum_k D[k, n] P_k on the reference interval."""
    d = np.zeros((degree + 1, degree + 1))
    for n in range(1, degree + 1):
        for k in range(n - 1, -1, -2):
            d[k, n] = 2 * k + 1
    d.setflags(write=False)
    return d


@lru_cache(maxsize=None)
def stiffness_matrix(degree: int) -> np.ndarray:
    """K[m, n] = integral of P'_m P'_n over [-1, 1]."""
    d = derivative_matrix(degree)
    k = d.T @ (mass_diagonal(degree)[:, None] * d)
    k.setflags(write=False)
    return k


@lru_cache(maxsize=None)
def endpoint_values(degree: int, max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Derivative tables (left, right)[r, m] = P_m^(r)(-1), P_m^(r)(+1)."""
    left = np.zeros((max_order + 1, degree + 1))
    right = np.zeros((max_order + 1, degree + 1))
    for r in range(max_order + 1):
        left[r] = vandermonde(-1.0, degree, r)
        right[r] = vandermonde(1.0, degree, r)
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right
