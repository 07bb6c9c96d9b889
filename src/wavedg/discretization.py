"""One object per dimension for what differs between 1D and 2D runs.

A discretization holds the mesh, the `SolverConfig` and the scratch its
right-hand side reuses.  It gives the field class, the right-hand side,
sampled values (cell midpoints in 1D, centres in 2D), the snapshot CSV,
and the leapfrog comparator with the DG profile matched against it.
`DISCRETIZATIONS` maps a mesh's `dim` to its class.  The scheme,
comparator and CSV functions are looked up in this module's globals at
call time, so a wrapper set on the module sees every call.
"""
from __future__ import annotations

import numpy as np

from . import diagnostics
from .field import DGField1D, DGField2D, n_modes, write_columns_csv
from .mesh import Mesh1D, Mesh2D, cartesian_mesh_2d, perturb_mesh_1d, uniform_mesh_1d
from .reference import ctcs_solve_1d, ctcs_solve_2d, make_grid_1d, make_grid_2d
from .scheme1d import rhs_arrays_1d
from .scheme2d import StripWorkspace, rhs_arrays_2d


class Discretization1D:
    """Intervals, either boundary kind; fields are sampled at the cell midpoints."""

    field = DGField1D

    def __init__(self, mesh, config):
        self.mesh = mesh
        self.config = config

    @classmethod
    def build(cls, prob, n, config, perturb=0.0, seed=0):
        """n cells on the problem's interval, inner nodes moved by up to perturb * h."""
        mesh = uniform_mesh_1d(prob.domain[0], prob.domain[1], n, prob.boundary)
        if perturb > 0.0:
            mesh = perturb_mesh_1d(mesh, perturb, seed)
        return cls(mesh, config)

    def rhs(self, state):
        return rhs_arrays_1d(state[0], state[1], self.mesh, self.config)

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

    def comparator(self, prob, t_final, g, path):
        """Leapfrog to t_final, written to path; returns the grid, the profile's
        x, the leapfrog averaged over each cell, and the h of the front match."""
        grid, steps = make_grid_1d(prob.domain[0], prob.domain[1],
                                   prob.comparator_intervals, t_final)
        x, u = ctcs_solve_1d(prob.u0, prob.u1, g, grid, steps)
        write_columns_csv(path, {"x": x, "u": u})
        return grid, self.mesh.centers, diagnostics.bin_average(x, u, self.mesh.nodes), self.mesh.h

    def profile(self, u, prob):
        return u.midpoint_values()


class Discretization2D:
    """Uniform periodic rectangles; profiles follow the problem's row of cells."""

    field = DGField2D

    def __init__(self, mesh, config):
        self.mesh = mesh
        self.config = config
        cells = (mesh.nx, mesh.ny)
        self.out = (np.empty(cells + (n_modes(config.p),)), np.empty(cells + (n_modes(config.q),)))
        self.work = StripWorkspace()

    @classmethod
    def build(cls, prob, n, config, perturb=0.0, seed=0):
        """n-by-n cells on the problem's rectangle; 2D meshes are not perturbed."""
        return cls(cartesian_mesh_2d(*prob.domain, n, n), config)

    def rhs(self, state):
        """The derivative pair, written over the one of the previous call."""
        return rhs_arrays_2d(state[0], state[1], self.mesh, self.config,
                             out=self.out, work=self.work)

    def samples(self, u):
        return u.center_values().ravel()

    def write_snapshot(self, path, u, u0=None, exact=None):
        """Columns x,y,u at the centres, x-major; u0 and exact are not written."""
        _write_grid(path, self.mesh.xcenters, self.mesh.ycenters, u.center_values())

    def comparator(self, prob, t_final, g, path):
        """As in 1D; x,y,u go to path and the profile is the problem's row."""
        n = prob.comparator_intervals
        grid, steps = make_grid_2d(*prob.domain, n, n, t_final)
        x, y, u = ctcs_solve_2d(prob.u0, prob.u1, g, grid, steps)
        _write_grid(path, x, y, u)
        ref = diagnostics.bin_average(x, u[:, _nearest(y, prob)], self.mesh.xnodes)
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
