"""DG coefficient storage, projection, sampling and energies.

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
from concurrent.futures import Executor, wait
from functools import lru_cache

import numpy as np

from . import basis
from .basis import (
    derivative_matrix,
    gauss_rule,
    mass_diagonal,
    stiffness_matrix,
    vandermonde,
)
from .mesh import Mesh1D, Mesh2D


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
        q = GaussPoints1D(mesh, degree, basis.volume_quadrature_points(degree))
        fx = np.broadcast_to(np.asarray(f(q.x), dtype=float), q.x.shape)
        scale = (2.0 * np.arange(degree + 1) + 1.0) / 2.0
        coeffs = (fx * q.rule.weights[None, :]) @ q.basis * scale[None, :]
        return cls(mesh, degree, coeffs)

    def gauss_points(self, nq: int) -> "GaussPoints1D":
        return GaussPoints1D(self.mesh, self.degree, nq)

    def midpoint_values(self) -> np.ndarray:
        v0 = vandermonde(0.0, self.degree)
        return self.coeffs @ v0

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

    def weights(self, rows=slice(None)) -> np.ndarray:
        """The cell-scaled weights of the cells in rows, shaped like their values."""
        return 0.5 * self.mesh.widths[rows, None] * self.rule.weights[None, :]

    def integrate(self, vals: np.ndarray) -> float:
        """Sum of vals against the cell-scaled weights: the integral of what vals samples."""
        return float(np.sum(self.weights() * vals))


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
        nq = basis.volume_quadrature_points(degree)
        q = GaussPoints2D(mesh, degree, nq)
        fx = np.broadcast_to(np.asarray(f(*q.points), dtype=float), (mesh.nx, mesh.ny, nq, nq))
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

    def gradient_energy(self) -> float:
        """integral(|grad u|^2) over the mesh."""
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

    def weights(self, rows=slice(None)) -> np.ndarray:
        """The cell-scaled weights of the cells in x-rows rows, shaped like their values."""
        vol = 0.25 * self.mesh.hx[rows, None] * self.mesh.hy[None, :]  # the cell Jacobian
        return vol[:, :, None, None] * self.w2[None, None]

    def integrate(self, vals: np.ndarray) -> float:
        """Sum of vals against the cell-scaled weights: the integral of what vals samples."""
        return float(np.sum(self.weights() * vals))


#: values per block of the SSP-RK3 stages, the leapfrog steps and the source
#: integral, read at call time.  Two sweeps on one core of a shared 2-vCPU Xeon
#: (2 MB of L2 per core) both picked it.  60 steps of the stages alone on ex8's
#: 320^2 state (2,880 values a row), best of five in two to four batches: whole
#: arrays 0.91-1.29 s, blocks of 4,096 values 1.19 s, 8,192 0.88 s, 16,384
#: 0.74-0.96 s, 32,768 0.60-0.83 s, 65,536 0.64-0.82 s, 131,072 0.76-0.81 s,
#: 262,144 0.92 s.  The ex8 1000^2 leapfrog (354 steps): blocks of 16 to 65 rows
#: 3.7-4.7 s (one run 5.1 s), 8 rows 4.8-5.3 s, 128 rows 4.3-4.8 s, all 1000
#: rows 5.7-5.9 s, and the whole-array form over np.roll copies 9.1-9.7 s.
BLOCK_VALUES = 32768


def row_blocks(rows: int, row_size: int, limit: int) -> list[slice]:
    """Balanced slices covering rows 0..rows in order, at most max(1, limit // row_size)
    rows each, their heights differing by at most one row; rows = 0 gives none."""
    count = -(-rows // max(1, limit // max(1, row_size)))
    return [slice(k * rows // count, (k + 1) * rows // count) for k in range(count)]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, as taskset or a cgroup set it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(tasks: int) -> int:
    """Workers for `tasks` tasks: one per usable CPU, no more than there are tasks."""
    return min(usable_cpus(), tasks)


def run_tasks(pool: Executor | None, task, items) -> None:
    """task(item) for every item.  pool, an executor, runs one task per item, and the
    first failing item's error is raised once every task has ended; without one, the
    items run in order in this thread."""
    if pool is None:
        for item in items:
            task(item)
        return
    futures = [pool.submit(task, item) for item in items]
    wait(futures)
    for f in futures:
        f.result()


#: rows formatted per write by write_columns_csv; bounds the memory it takes
CSV_CHUNK_ROWS = 4096


def write_columns_csv(path: str | os.PathLike, columns: dict[str, np.ndarray]) -> None:
    """Write named columns in full-precision scientific notation.

    Each value reads as f"{val:.17e}".  Rows go out a chunk of CSV_CHUNK_ROWS at
    a time.  In a chunk, "%.17e" formats each distinct bit pattern of a column
    once, the texts are gathered back by np.unique's inverse, and the chunk is
    one %-operation.  The patterns are the values' int64 bits, so each value is
    formatted from its own bits: keyed as floats, np.unique would merge 0.0 with
    -0.0, which print apart, and NaNs of different sign or payload.
    """
    names = list(columns)
    cols = [np.asarray(columns[k], dtype=float) for k in names]
    if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
        raise ValueError("columns must be 1-D arrays of one length")
    row_format = ",".join(["%s"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for part in row_blocks(len(cols[0]), 1, CSV_CHUNK_ROWS):
            texts = np.empty((part.stop - part.start, len(cols)), dtype=object)
            for j, c in enumerate(cols):
                keys, inverse = np.unique(c[part].view(np.int64), return_inverse=True)
                texts[:, j] = np.array(["%.17e" % v for v in keys.view(float).tolist()],
                                       dtype=object)[inverse]
            fh.write((row_format * len(texts)) % tuple(texts.ravel().tolist()))
