"""One object per dimension for what differs between 1D and 2D runs.

A discretization holds only its mesh (in 2D also its strip worker count).
It gives the field class, the defaults of chi and of the energy sampling
interval, sampled values (cell midpoints in 1D, centres in 2D), the
snapshot CSV, and the leapfrog comparator with the DG profile matched
against it.  `stepping(config)` is a context manager that yields the
right-hand side of a state (u, v) under a `SolverConfig`; in 2D it owns
the output pair and the strip executor for the length of its block.
`DISCRETIZATIONS` maps a mesh's `dim` to its class.  The scheme,
comparator and CSV functions are looked up in this module's globals at
call time, so a wrapper set on the module sees every call.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

import numpy as np

from . import diagnostics, scheme2d
from .field import DGField1D, DGField2D, n_modes, row_blocks, worker_count, write_columns_csv
from .mesh import Mesh1D, Mesh2D, cartesian_mesh_2d, perturb_mesh_1d, uniform_mesh_1d
from .reference import ctcs_solve, make_grid_1d, make_grid_2d
from .scheme1d import rhs_arrays_1d
from .scheme2d import rhs_arrays_2d


class Discretization1D:
    """Intervals, either boundary kind; fields are sampled at the cell midpoints."""

    field = DGField1D
    default_chi = 1            # the source quotient treatment is 1D-only
    default_sample_every = 1

    def __init__(self, mesh):
        self.mesh = mesh

    @classmethod
    def build(cls, prob, n, perturb=0.0, seed=0):
        """n cells on the problem's interval, inner nodes moved by up to perturb * h."""
        mesh = uniform_mesh_1d(prob.domain[0], prob.domain[1], n, prob.boundary)
        if perturb > 0.0:
            mesh = perturb_mesh_1d(mesh, perturb, seed)
        return cls(mesh)

    @contextmanager
    def stepping(self, config):
        """The right-hand side of a state (u, v); it keeps no arrays or threads."""
        yield lambda state: rhs_arrays_1d(state[0], state[1], self.mesh, config)

    def samples(self, u):
        return u.midpoint_values()

    def write_snapshot(self, path, u, u0=None, exact=None):
        """Columns x,u[,u0][,exact] at the midpoints; exact is a function of x."""
        cols = {"x": self.mesh.centers, "u": u.midpoint_values()}
        if u0 is not None:
            cols["u0"] = u0.midpoint_values()
        if exact is not None:
            cols["exact"] = exact(self.mesh.centers)
        write_columns_csv(path, cols)

    def comparator_grid(self, prob, t_final):
        """The leapfrog grid, its steps to t_final, its points and the cell edges that bin them."""
        grid, steps = make_grid_1d(*prob.domain, prob.comparator_intervals, t_final)
        return grid, steps, grid.points, self.mesh.nodes

    def comparator(self, prob, t_final, g, path):
        """Leapfrog to t_final, written to path; returns the grid, the profile's
        x, the leapfrog averaged over each cell, and the h of the front match."""
        grid, steps, _, edges = self.comparator_grid(prob, t_final)
        x, u = ctcs_solve(prob.u0, prob.u1, g, grid, steps)
        write_columns_csv(path, {"x": x, "u": u})
        return grid, self.mesh.centers, diagnostics.bin_average(x, u, edges), self.mesh.h

    def profile(self, u, prob):
        return u.midpoint_values()


class Discretization2D:
    """Uniform periodic rectangles; profiles follow the problem's row of cells."""

    field = DGField2D
    default_chi = 0
    default_sample_every = 10

    def __init__(self, mesh):
        self.mesh = mesh
        # one worker per usable CPU, no more than there are strips
        self.workers = worker_count(len(row_blocks(mesh.nx, mesh.ny, scheme2d.CELLS_PER_STRIP)))

    @classmethod
    def build(cls, prob, n, perturb=0.0, seed=0):
        """n-by-n cells on the problem's rectangle; 2D meshes are not perturbed."""
        return cls(cartesian_mesh_2d(*prob.domain, n, n))

    @contextmanager
    def stepping(self, config):
        """The right-hand side of a state (u, v), each call writing over the previous
        call's output pair; the strip executor, if more than one worker, ends with the block."""
        mesh = self.mesh
        out = (np.empty((mesh.nx, mesh.ny, n_modes(config.p))),
               np.empty((mesh.nx, mesh.ny, n_modes(config.q))))
        pool = ThreadPoolExecutor(self.workers, "wavedg-strip") if self.workers > 1 else None
        with pool or nullcontext():
            yield lambda state: rhs_arrays_2d(state[0], state[1], mesh, config,
                                              out=out, pool=pool)

    def samples(self, u):
        return u.center_values().ravel()

    def write_snapshot(self, path, u, u0=None, exact=None):
        """Columns x,y,u at the centres, x-major; u0 and exact are not written."""
        _write_grid(path, self.mesh.xcenters, self.mesh.ycenters, u.center_values())

    def comparator_grid(self, prob, t_final):
        n = prob.comparator_intervals
        grid, steps = make_grid_2d(*prob.domain, n, n, t_final)
        return grid, steps, grid.xpoints, self.mesh.xnodes

    def comparator(self, prob, t_final, g, path):
        """As in 1D; x,y,u go to path and the profile is the problem's row."""
        grid, steps, _, edges = self.comparator_grid(prob, t_final)
        x, y, u = ctcs_solve(prob.u0, prob.u1, g, grid, steps)
        _write_grid(path, x, y, u)
        ref = diagnostics.bin_average(x, u[:, _nearest(y, prob)], edges)
        return grid, self.mesh.xcenters, ref, float(self.mesh.hx[0])

    def profile(self, u, prob):
        return u.center_values()[:, _nearest(self.mesh.ycenters, prob)]


def _nearest(ys, prob) -> int:
    """Index of the y nearest the problem's profile row."""
    return int(np.argmin(np.abs(ys - prob.notes.get("profile_row", 0.0))))


def _write_grid(path, x, y, values) -> None:
    write_columns_csv(path, {"x": np.repeat(x, len(y)), "y": np.tile(y, len(x)),
                             "u": values.ravel()})


DISCRETIZATIONS = {Mesh1D.dim: Discretization1D, Mesh2D.dim: Discretization2D}
