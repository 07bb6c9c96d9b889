"""1D partitions and 2D Cartesian meshes.

Meshes are immutable after construction and carry the size metadata the
schemes need: per-cell widths and the global mesh size h; a 2D mesh is
uniform and periodic by construction.  Random perturbation of internal
nodes uses the Philox generator so meshes are reproducible from a seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

BOUNDARY_KINDS = ("periodic", "neumann")


@dataclass(frozen=True)
class Mesh1D:
    """Partition a = x_0 < x_1 < ... < x_N = b with boundary kind."""

    dim: ClassVar[int] = 1
    nodes: np.ndarray
    boundary: str = "periodic"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        nodes.setflags(write=False)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("mesh needs at least two nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("mesh nodes must be strictly increasing")
        if self.boundary not in BOUNDARY_KINDS:
            raise ValueError(f"unsupported boundary kind {self.boundary!r}")

    @property
    def ncells(self) -> int:
        return len(self.nodes) - 1

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def widths(self) -> np.ndarray:
        w = np.diff(self.nodes)
        w.setflags(write=False)
        return w

    @cached_property
    def centers(self) -> np.ndarray:
        c = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        c.setflags(write=False)
        return c

    @property
    def h(self) -> float:
        return float(self.widths.max())

    def summary(self) -> dict:
        return {
            "dim": self.dim,
            "ncells": self.ncells,
            "domain": [self.a, self.b],
            "h": self.h,
            "h_min": float(self.widths.min()),
            "h_max": float(self.widths.max()),
            "boundary": self.boundary,
        }


def uniform_mesh_1d(a: float, b: float, ncells: int, boundary: str = "periodic") -> Mesh1D:
    """Uniform partition of [a, b] into ncells equal cells."""
    if ncells < 1:
        raise ValueError("need at least one cell")
    if not a < b:
        raise ValueError("domain must satisfy a < b")
    return Mesh1D(np.linspace(a, b, ncells + 1), boundary)


def perturb_mesh_1d(mesh: Mesh1D, fraction: float, seed: int) -> Mesh1D:
    """Move each internal node by an i.i.d. uniform offset in [-f*h, f*h].

    The endpoints stay fixed, so the domain is unchanged.  fraction must be
    below 0.5 or neighbouring offsets could invert a cell.  The input mesh
    must be uniform; offsets are drawn from Philox keyed by `seed`, which is
    stable across platforms and numpy versions.
    """
    if not 0.0 <= fraction < 0.5:
        raise ValueError("perturbation fraction must lie in [0, 0.5)")
    if mesh.widths.min() / mesh.widths.max() < 1.0 - 1e-12:
        raise ValueError("perturbation is defined on uniform meshes only")
    nodes = mesh.nodes.copy()
    if mesh.ncells > 1 and fraction > 0.0:
        rng = np.random.Generator(np.random.Philox(seed))
        h = mesh.h
        offsets = rng.uniform(-fraction * h, fraction * h, size=mesh.ncells - 1)
        nodes[1:-1] += offsets
    return Mesh1D(nodes, mesh.boundary)


@dataclass(frozen=True)
class Mesh2D:
    """Uniform tensor-product partition of a rectangle; periodic in both directions."""

    dim: ClassVar[int] = 2
    xnodes: np.ndarray
    ynodes: np.ndarray

    def __post_init__(self):
        for name in ("xnodes", "ynodes"):
            nodes = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, nodes)
            nodes.setflags(write=False)
            if nodes.ndim != 1 or len(nodes) < 2:
                raise ValueError(f"{name} needs at least two entries")
            widths = np.diff(nodes)
            if np.any(widths <= 0):
                raise ValueError(f"{name} must be strictly increasing")
            spread = widths.max() - widths.min()  # linspace rounds to ulps of the largest |node|
            if not (spread <= 1e-12 * widths.max() or spread <= 4 * np.spacing(abs(nodes).max())):
                raise ValueError(f"{name} must be uniformly spaced")

    @property
    def nx(self) -> int:
        return len(self.xnodes) - 1

    @property
    def ny(self) -> int:
        return len(self.ynodes) - 1

    @cached_property
    def hx(self) -> np.ndarray:
        w = np.diff(self.xnodes)
        w.setflags(write=False)
        return w

    @cached_property
    def hy(self) -> np.ndarray:
        w = np.diff(self.ynodes)
        w.setflags(write=False)
        return w

    @cached_property
    def xcenters(self) -> np.ndarray:
        c = 0.5 * (self.xnodes[:-1] + self.xnodes[1:])
        c.setflags(write=False)
        return c

    @cached_property
    def ycenters(self) -> np.ndarray:
        c = 0.5 * (self.ynodes[:-1] + self.ynodes[1:])
        c.setflags(write=False)
        return c

    @cached_property
    def h(self) -> float:
        """The largest cell diagonal sqrt(hx_i^2 + hy_j^2); inf, silently, once the squares
        overflow (np.hypot would round some diagonals differently)."""
        with np.errstate(over="ignore"):
            return float(np.sqrt(self.hx[:, None] ** 2 + self.hy[None, :] ** 2).max())

    def summary(self) -> dict:
        return {
            "dim": self.dim,
            "ncells": [self.nx, self.ny],
            "domain": [
                [float(self.xnodes[0]), float(self.xnodes[-1])],
                [float(self.ynodes[0]), float(self.ynodes[-1])],
            ],
            "h": self.h,
            "hx": float(self.hx.max()),
            "hy": float(self.hy.max()),
            "boundary": "periodic",
        }


def cartesian_mesh_2d(ax: float, bx: float, ay: float, by: float, nx: int, ny: int) -> Mesh2D:
    """Uniform nx-by-ny rectangle mesh of [ax, bx] x [ay, by]."""
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell per direction")
    if not (ax < bx and ay < by):
        raise ValueError("degenerate domain extents")
    return Mesh2D(np.linspace(ax, bx, nx + 1), np.linspace(ay, by, ny + 1))
