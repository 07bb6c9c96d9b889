"""Central-in-time, central-in-space finite difference comparator.

A second-order leapfrog scheme for u_tt = Laplacian(u) + g(u) on periodic
grids, used as the reference profile next to the DG runs on problems with
no closed-form solution.  The first step is seeded with a Taylor expansion
using the discrete Laplacian so second order is kept from the start.

Both dimensions step through `_leapfrog`; a 1D field is held as n rows of
one point.  The layout:

- `prev` and `curr` are (nx + 2, ny) arrays allocated once per solve.
  Rows 1..nx hold the field; rows 0 and nx + 1 are periodic ghost copies
  of rows nx and 1, wrapped again after every step.  The initial data are
  copied in, so the caller's arrays are never written.
- A step runs over blocks of whole x-rows, POINTS_PER_BLOCK points at most
  (at least one row), so that a block and three block-sized buffers stay
  in cache.  A block reads its own rows of `curr` and one row on each
  side; the y neighbours wrap within each row.
- The new level is written into `prev`'s rows in place.  Row i of `prev`
  is read only for row i of the new level, so no block reads a row that
  another has overwritten.  The Taylor step fills `curr` the same way.
- Every elementwise operation is the one of the whole-array form, in its
  order: ((u[i+1] - 2u) + u[i-1]) / dx**2, x-part + y-part, + g(u), times
  dt**2, then (2u - prev) + that; the first step takes
  (prev + dt*vel) + (0.5*dt**2)*(...).  The result is therefore the same,
  bit for bit, whatever the block size.  Without a source nothing is
  added: a Laplacian can be -0.0 only where u is +0.0, and there the term
  it is added to, (2u - prev) or (u + dt*vel), is +0.0 or nonzero, so
  the whole-array form's + 0.0 changed no bit of the result.

The source g is called once per block, on that block's rows, so it must be
pointwise: g(u)[k] may depend on u[k] only.  Every `scheme1d.SOURCES` entry
is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FDGrid1D:
    """Periodic grid with `intervals` cells of spacing dx and time step dt."""

    a: float
    b: float
    intervals: int
    dt: float

    def __post_init__(self):
        if self.intervals < 2:
            raise ValueError("need at least two grid intervals")
        if not self.a < self.b:
            raise ValueError("degenerate domain")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.dt > self.dx * (1.0 + 1e-12):
            raise ValueError("CFL violation: dt must not exceed dx")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.intervals

    @property
    def points(self) -> np.ndarray:
        return self.a + self.dx * np.arange(self.intervals)


@dataclass(frozen=True)
class FDGrid2D:
    ax: float
    bx: float
    ay: float
    by: float
    nx: int
    ny: int
    dt: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least two grid intervals per direction")
        if not (self.ax < self.bx and self.ay < self.by):
            raise ValueError("degenerate domain")
        limit = 1.0 / math.sqrt(1.0 / self.dx**2 + 1.0 / self.dy**2)
        if self.dt <= 0.0 or self.dt > limit * (1.0 + 1e-12):
            raise ValueError("CFL violation: dt must not exceed 1/sqrt(dx^-2 + dy^-2)")

    @property
    def dx(self) -> float:
        return (self.bx - self.ax) / self.nx

    @property
    def dy(self) -> float:
        return (self.by - self.ay) / self.ny

    @property
    def xpoints(self) -> np.ndarray:
        return self.ax + self.dx * np.arange(self.nx)

    @property
    def ypoints(self) -> np.ndarray:
        return self.ay + self.dy * np.arange(self.ny)


# Grid points per block of a leapfrog step, in whole x-rows: 32 rows of the
# 1000^2 comparator grid, and one block for any 1D grid up to this size.
# Set with the ex8 1000^2 solve (354 steps, one thread, 2 MB of L2 per
# core), two sweeps: blocks of 16 to 65 rows took 3.7-4.7 s (one run of
# 5.1 s), 8 rows 4.8-5.3 s, 128 rows 4.3-4.8 s, one block of all 1000 rows
# 5.7-5.9 s, and the whole-array form over np.roll copies 9.1-9.7 s.
POINTS_PER_BLOCK = 32768


def _steps_landing_on(t_final: float, dt_target: float) -> tuple[int, float]:
    """Uniform leapfrog cannot shorten the last step, so shrink dt globally."""
    n = max(1, math.ceil(t_final / dt_target - 1e-12))
    return n, t_final / n


def make_grid_1d(a: float, b: float, intervals: int, t_final: float,
                 dt: float | None = None) -> tuple[FDGrid1D, int]:
    dx = (b - a) / intervals
    target = dt if dt is not None else 0.5 * dx
    steps, dt_eff = _steps_landing_on(t_final, target)
    return FDGrid1D(a, b, intervals, dt_eff), steps


def make_grid_2d(ax, bx, ay, by, nx, ny, t_final, dt: float | None = None) -> tuple[FDGrid2D, int]:
    dx = (bx - ax) / nx
    dy = (by - ay) / ny
    target = dt if dt is not None else 0.5 * min(dx, dy) / math.sqrt(2.0)
    steps, dt_eff = _steps_landing_on(t_final, target)
    return FDGrid2D(ax, bx, ay, by, nx, ny, dt_eff), steps


def ctcs_solve_1d(u0, u1, g, grid: FDGrid1D, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Leapfrog solution at t = steps * dt; returns (points, values).

    g is None or a pointwise source (see the module docstring).
    """
    x = grid.points
    return x, _leapfrog(u0(x), u1(x), g, (grid.intervals,), (grid.dx,), grid.dt, steps)


def ctcs_solve_2d(u0, u1, g, grid: FDGrid2D, steps: int):
    """2D leapfrog with the five-point Laplacian; returns (x, y, values).

    g is None or a pointwise source (see the module docstring).
    """
    x = grid.xpoints
    y = grid.ypoints
    xx, yy = np.meshgrid(x, y, indexing="ij")
    start, vel = u0(xx, yy), u1(xx, yy)
    del xx, yy  # not needed while stepping
    return x, y, _leapfrog(start, vel, g, (grid.nx, grid.ny), (grid.dx, grid.dy), grid.dt, steps)


def _leapfrog(start, vel, g, shape: tuple, spacing: tuple, dt: float, steps: int) -> np.ndarray:
    """Field of the given grid shape after `steps` leapfrog steps of dt.

    start and vel are u and u_t at t = 0 (vel may be a scalar); spacing is
    (dx,) or (dx, dy).  The result is a view of the solve's own array.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    nx = shape[0]
    ny = shape[1] if len(shape) > 1 else 1
    prev = np.empty((nx + 2, ny))
    curr = np.empty((nx + 2, ny))
    prev[1:-1].reshape(shape)[...] = start
    _wrap_ghosts(prev)
    rows = min(nx, max(1, POINTS_PER_BLOCK // ny))
    work = tuple(np.empty((rows, ny)) for _ in range(3))
    # Taylor start: (prev + dt * vel) + (0.5 * dt**2) * (Laplacian + g)
    body = curr[1:-1].reshape(shape)
    np.multiply(dt, vel, out=body)
    body += prev[1:-1].reshape(shape)
    _advance(prev, curr, g, 0.5 * dt**2, spacing, False, work)
    for _ in range(steps - 1):
        _advance(curr, prev, g, dt**2, spacing, True, work)
        prev, curr = curr, prev
    return curr[1:-1].reshape(shape)


def _wrap_ghosts(a: np.ndarray) -> None:
    a[0] = a[-2]
    a[-1] = a[1]


def _advance(u, out, g, coef: float, spacing: tuple, leapfrog: bool, work) -> None:
    """One step from the ghosted level u into out's rows, block by block.

    out becomes (2u - out) + coef * (Laplacian(u) + g(u)) when leapfrog is
    set, else out + coef * (Laplacian(u) + g(u)); then its ghosts are wrapped.
    """
    nx = u.shape[0] - 2
    rows = work[0].shape[0]
    dx2 = spacing[0] ** 2
    dy2 = spacing[1] ** 2 if len(spacing) > 1 else None
    for r0 in range(0, nx, rows):
        r1 = min(r0 + rows, nx)
        twice, lap, ylap = (w[:r1 - r0] for w in work)
        c = u[r0 + 1:r1 + 1]
        np.multiply(2.0, c, out=twice)
        np.subtract(u[r0 + 2:r1 + 2], twice, out=lap)
        lap += u[r0:r1]
        lap /= dx2
        if dy2 is not None:
            np.subtract(c[:, 1:], twice[:, :-1], out=ylap[:, :-1])
            np.subtract(c[:, :1], twice[:, -1:], out=ylap[:, -1:])
            ylap[:, 1:] += c[:, :-1]
            ylap[:, :1] += c[:, -1:]
            ylap /= dy2
            lap += ylap
        if g is not None:
            lap += g(c)
        lap *= coef
        o = out[r0 + 1:r1 + 1]
        if leapfrog:
            np.subtract(twice, o, out=o)
        o += lap
    _wrap_ghosts(out)
