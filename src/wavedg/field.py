"""DG coefficient storage, projection, evaluation, energies and interface traces.

A field stores modal Legendre coefficients per cell.  In 1D the layout is
(ncells, degree+1).  In 2D the basis is the tensor-Legendre set restricted
to total degree <= k (matching a per-cell space P^k on rectangles) and the
layout is (nx, ny, nmodes) with modes ordered by (total degree, x-degree),
so the modes of any lower total degree form a prefix of the list.

Because the basis is orthogonal, the local L2 projection onto a lower
degree is coefficient truncation, and projections are exact and cheap.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    derivative_matrix,
    endpoint_values,
    gauss_rule,
    mass_diagonal,
    stiffness_matrix,
    vandermonde,
)
from .mesh import Mesh1D, Mesh2D


def _as_callable_values(f, x):
    """Evaluate f on array x, tolerating non-vectorized callables."""
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.vectorize(f, otypes=[float])(x)
    return fx


class DGField1D:
    """Piecewise polynomial of degree k on a 1D mesh, modal coefficients."""

    def __init__(self, mesh: Mesh1D, degree: int, coeffs: np.ndarray | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.mesh = mesh
        self.degree = degree
        if coeffs is None:
            coeffs = np.zeros((mesh.ncells, degree + 1))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (mesh.ncells, degree + 1):
            raise ValueError("coefficient array shape does not match mesh/degree")
        self.coeffs = coeffs

    @classmethod
    def project(cls, f, mesh: Mesh1D, degree: int) -> "DGField1D":
        """Cellwise L2 projection of a scalar function onto degree-k polynomials."""
        q = GaussPoints1D(mesh, degree, degree + 3)
        fx = _as_callable_values(f, q.x)
        scale = (2.0 * np.arange(degree + 1) + 1.0) / 2.0
        coeffs = (fx * q.rule.weights[None, :]) @ q.basis * scale[None, :]
        return cls(mesh, degree, coeffs)

    def gauss_points(self, nq: int) -> "GaussPoints1D":
        return GaussPoints1D(self.mesh, self.degree, nq)

    def eval(self, x, order: int = 0):
        """Value of the order-th derivative at x, with chain factor (2/h_j)^order."""
        xa = np.asarray(x, dtype=float)
        if np.any(xa < self.mesh.a - 1e-14) or np.any(xa > self.mesh.b + 1e-14):
            raise ValueError("evaluation point outside domain")
        cells = np.clip(np.searchsorted(self.mesh.nodes, xa, side="right") - 1,
                        0, self.mesh.ncells - 1)
        h = self.mesh.widths[cells]
        xi = 2.0 * (xa - self.mesh.centers[cells]) / h
        v = vandermonde(xi, self.degree, order)
        out = np.einsum("...m,...m->...", self.coeffs[cells], v) * (2.0 / h) ** order
        return out if xa.ndim else float(out)

    def midpoint_values(self) -> np.ndarray:
        v0 = vandermonde(0.0, self.degree)
        return self.coeffs @ v0

    def endpoint_derivatives(self, max_order: int) -> tuple[np.ndarray, np.ndarray]:
        """(left, right)[j, r]: derivative traces at the cell endpoints of cell j."""
        el, er = endpoint_values(self.degree, max_order)
        scale = (2.0 / self.mesh.widths)[:, None] ** np.arange(max_order + 1)[None, :]
        return self.coeffs @ el.T * scale, self.coeffs @ er.T * scale

    def gradient_energy(self) -> float:
        """integral(u_x^2) over the mesh."""
        du = self.coeffs @ derivative_matrix(self.degree).T
        inv = 1.0 / (2.0 * np.arange(self.degree + 1) + 1.0)
        return float(np.sum(4.0 / self.mesh.widths[:, None] * du**2 * inv[None, :]))

    def l2_squared(self) -> float:
        """integral(u^2) over the mesh."""
        m = mass_diagonal(self.degree)
        return float(np.sum(0.5 * self.mesh.widths[:, None] * m[None, :] * self.coeffs**2))


class GaussPoints1D:
    """The nq-point Gauss rule on every cell of a 1D mesh, for one degree.

    x[j, g] is node g of cell j and basis[g, m] = P_m at reference node g.
    """

    def __init__(self, mesh: Mesh1D, degree: int, nq: int):
        self.mesh = mesh
        self.degree = degree
        self.rule = gauss_rule(nq)
        self.basis = vandermonde(self.rule.nodes, degree)
        self.x = mesh.centers[:, None] + 0.5 * mesh.widths[:, None] * self.rule.nodes[None, :]
        self.points = (self.x,)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self.basis.T

    def gradient(self, coeffs: np.ndarray) -> list:
        """[u_x] at the nodes."""
        v1 = vandermonde(self.rule.nodes, self.degree, 1)
        return [(coeffs @ v1.T) * (2.0 / self.mesh.widths)[:, None]]

    def integrate(self, vals: np.ndarray) -> float:
        """Sum of vals against the cell-scaled weights: the integral of what vals samples."""
        return float(np.sum(0.5 * self.mesh.widths[:, None] * self.rule.weights[None, :] * vals))


@dataclass(frozen=True)
class Traces:
    """Two-sided derivative traces at every interface, wrap/ghost included.

    minus[g, r] and plus[g, r] hold the order-r derivative limits from the
    left and right of interface g = 0..N (positions x_{1/2} .. x_{N+1/2}).
    For periodic meshes the two boundary interfaces carry identical states.
    """

    minus: np.ndarray
    plus: np.ndarray

    def jumps(self) -> np.ndarray:
        """plus - minus at every interface."""
        return self.plus - self.minus


def mirror_ghost(interior: np.ndarray) -> np.ndarray:
    """Even-reflection ghost: order-r derivative picks up a (-1)^r sign.

    This realizes a homogeneous Neumann wall: the ghost matches the value
    and flips odd derivatives, so the centered normal-derivative flux and
    the interface jump of the value both vanish.
    """
    signs = (-1.0) ** np.arange(interior.shape[-1])
    return interior * signs


def interface_traces(field: DGField1D, max_order: int, boundary: str | None = None) -> Traces:
    """Left/right derivative limits at all N+1 interfaces of a 1D field."""
    if max_order > field.degree:
        raise ValueError("trace order exceeds polynomial degree")
    kind = boundary if boundary is not None else field.mesh.boundary
    left, right = field.endpoint_derivatives(max_order)
    n = field.mesh.ncells
    minus = np.empty((n + 1, max_order + 1))
    plus = np.empty((n + 1, max_order + 1))
    minus[1:] = right
    plus[:n] = left
    if kind == "periodic":
        minus[0] = right[-1]
        plus[n] = left[0]
    elif kind == "neumann":
        minus[0] = mirror_ghost(left[0])
        plus[n] = mirror_ghost(right[-1])
    else:
        raise ValueError(f"unsupported boundary kind {kind!r}")
    return Traces(minus=minus, plus=plus)


@lru_cache(maxsize=None)
def total_degree_modes(degree: int) -> np.ndarray:
    """Mode table [(m1, m2)] with m1+m2 <= degree, sorted by (total, m1)."""
    modes = [(m1, m2) for m2 in range(degree + 1) for m1 in range(degree + 1 - m2)]
    modes.sort(key=lambda t: (t[0] + t[1], t[0]))
    out = np.array(modes, dtype=int)
    out.setflags(write=False)
    return out


def n_modes(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def gradient_gram(degree: int, hx: float, hy: float) -> np.ndarray:
    """G[a, b] = integral over one cell of grad(phi_b) . grad(phi_a)."""
    modes = total_degree_modes(degree)
    m = mass_diagonal(degree)
    k = stiffness_matrix(degree)
    a1, a2 = modes[:, 0], modes[:, 1]
    gx = k[np.ix_(a1, a1)] * np.where(a2[:, None] == a2[None, :], m[a2][:, None], 0.0)
    gy = np.where(a1[:, None] == a1[None, :], m[a1][:, None], 0.0) * k[np.ix_(a2, a2)]
    g = (hy / hx) * gx + (hx / hy) * gy
    g.setflags(write=False)
    return g


class DGField2D:
    """Piecewise polynomial of total degree k on a Cartesian mesh."""

    def __init__(self, mesh: Mesh2D, degree: int, coeffs: np.ndarray | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.mesh = mesh
        self.degree = degree
        self.modes = total_degree_modes(degree)
        if coeffs is None:
            coeffs = np.zeros((mesh.nx, mesh.ny, len(self.modes)))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (mesh.nx, mesh.ny, len(self.modes)):
            raise ValueError("coefficient array shape does not match mesh/degree")
        self.coeffs = coeffs

    @classmethod
    def project(cls, f, mesh: Mesh2D, degree: int) -> "DGField2D":
        """Cellwise L2 projection using a tensor Gauss rule per cell."""
        nq = degree + 3
        q = GaussPoints2D(mesh, degree, nq)
        fx = np.asarray(f(*q.points), dtype=float)
        if fx.shape != (mesh.nx, mesh.ny, nq, nq):
            fx = np.broadcast_to(fx, (mesh.nx, mesh.ny, nq, nq)).copy()
        modes = q.modes
        scale = (2.0 * modes[:, 0] + 1.0) * (2.0 * modes[:, 1] + 1.0) / 4.0
        coeffs = np.einsum("xygh,ghm->xym", fx * q.w2[None, None], q.basis) * scale
        return cls(mesh, degree, coeffs)

    def gauss_points(self, nq: int) -> "GaussPoints2D":
        return GaussPoints2D(self.mesh, self.degree, nq)

    def center_values(self) -> np.ndarray:
        v0 = vandermonde(0.0, self.degree)
        b = v0[self.modes[:, 0]] * v0[self.modes[:, 1]]
        return self.coeffs @ b

    def eval(self, x, y, orders: tuple[int, int] = (0, 0)):
        """Pointwise derivative d^orders field at (x, y) inside the domain."""
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        mesh = self.mesh
        if (np.any(xa < mesh.xnodes[0] - 1e-14) or np.any(xa > mesh.xnodes[-1] + 1e-14)
                or np.any(ya < mesh.ynodes[0] - 1e-14) or np.any(ya > mesh.ynodes[-1] + 1e-14)):
            raise ValueError("evaluation point outside domain")
        ix = np.clip(np.searchsorted(mesh.xnodes, xa, side="right") - 1, 0, mesh.nx - 1)
        iy = np.clip(np.searchsorted(mesh.ynodes, ya, side="right") - 1, 0, mesh.ny - 1)
        hx, hy = mesh.hx[ix], mesh.hy[iy]
        xi = 2.0 * (xa - mesh.xcenters[ix]) / hx
        eta = 2.0 * (ya - mesh.ycenters[iy]) / hy
        vx = vandermonde(xi, self.degree, orders[0])
        vy = vandermonde(eta, self.degree, orders[1])
        b = vx[..., self.modes[:, 0]] * vy[..., self.modes[:, 1]]
        out = np.einsum("...m,...m->...", self.coeffs[ix, iy], b)
        out = out * (2.0 / hx) ** orders[0] * (2.0 / hy) ** orders[1]
        return out if xa.ndim else float(out)

    def gradient_energy(self) -> float:
        """integral(|grad u|^2) over the mesh, which must be uniform."""
        if not self.mesh.is_uniform():
            raise ValueError("2D energy assumes a uniform Cartesian mesh")
        g = gradient_gram(self.degree, float(self.mesh.hx[0]), float(self.mesh.hy[0]))
        return float(np.einsum("xya,ab,xyb->", self.coeffs, g, self.coeffs))

    def l2_squared(self) -> float:
        """integral(u^2) over the mesh."""
        m = mass_diagonal(self.degree)
        w = m[self.modes[:, 0]] * m[self.modes[:, 1]]
        vol = 0.25 * self.mesh.hx[:, None, None] * self.mesh.hy[None, :, None]
        return float(np.sum(vol * w[None, None, :] * self.coeffs**2))


class GaussPoints2D:
    """The tensor nq-point Gauss rule on every cell of a Cartesian mesh.

    basis[g, h, a] is mode a at reference node (g, h); points holds the
    physical nodes x[i, g] and y[j, h] broadcast to (nx, ny, nq, nq), and w2
    the tensor weight table.
    """

    def __init__(self, mesh: Mesh2D, degree: int, nq: int):
        self.mesh = mesh
        self.degree = degree
        self.rule = rule = gauss_rule(nq)
        self.modes = modes = total_degree_modes(degree)
        self.v0 = v0 = vandermonde(rule.nodes, degree)
        self.basis = v0[:, modes[:, 0]][:, None, :] * v0[:, modes[:, 1]][None, :, :]
        x = mesh.xcenters[:, None] + 0.5 * mesh.hx[:, None] * rule.nodes[None, :]
        y = mesh.ycenters[:, None] + 0.5 * mesh.hy[:, None] * rule.nodes[None, :]
        self.points = (x[:, None, :, None], y[None, :, None, :])
        self.w2 = rule.weights[:, None] * rule.weights[None, :]

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("xym,ghm->xygh", coeffs, self.basis)

    def gradient(self, coeffs: np.ndarray) -> list:
        """[u_x, u_y] at the nodes."""
        v0, v1 = self.v0, vandermonde(self.rule.nodes, self.degree, 1)
        m1, m2 = self.modes[:, 0], self.modes[:, 1]
        bx = v1[:, m1][:, None, :] * v0[:, m2][None, :, :]
        by = v0[:, m1][:, None, :] * v1[:, m2][None, :, :]
        return [np.einsum("xym,ghm->xygh", coeffs, bx) * (2.0 / self.mesh.hx)[:, None, None, None],
                np.einsum("xym,ghm->xygh", coeffs, by) * (2.0 / self.mesh.hy)[None, :, None, None]]

    def integrate(self, vals: np.ndarray) -> float:
        """Sum of vals against the cell-scaled weights: the integral of what vals samples."""
        vol = 0.25 * self.mesh.hx[:, None] * self.mesh.hy[None, :]  # the cell Jacobian
        return float(np.sum(vol[:, :, None, None] * self.w2[None, None] * vals))


#: rows formatted per write by write_columns_csv; bounds the memory it takes
CSV_CHUNK_ROWS = 4096


def write_columns_csv(path: str | os.PathLike, columns: dict[str, np.ndarray]) -> None:
    """Write named columns in full-precision scientific notation.

    Each value reads as f"{val:.17e}".  Rows are formatted a chunk at a
    time, one %-operation per row.
    """
    names = list(columns)
    cols = [np.asarray(columns[k], dtype=float) for k in names]
    if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
        raise ValueError("columns must be 1-D arrays of one length")
    row_format = ",".join(["%.17e"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(cols[0]), CSV_CHUNK_ROWS):
            rows = np.column_stack([c[start:start + CSV_CHUNK_ROWS] for c in cols]).tolist()
            fh.write("".join([row_format % tuple(row) for row in rows]))
