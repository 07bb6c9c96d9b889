"""Central-in-time, central-in-space finite difference comparator.

A second-order leapfrog scheme for u_tt = Laplacian(u) + g(u) on periodic
grids, used as the reference profile next to the DG runs on problems with
no closed-form solution.  The first step is seeded with a Taylor expansion
using the discrete Laplacian so second order is kept from the start.

One `FDGrid` holds a 1D or 2D grid, a tuple entry per axis, under one CFL
guard, and one rule picks its dt and step count.  One solve, `ctcs_solve`
(also `ctcs_solve_1d` and `ctcs_solve_2d`), calls the initial data on the
grid's open axes (`np.ix_`), which broadcast to the grid, and steps through
`_leapfrog`; a 1D field is held as n rows of one point.  The layout:

- `prev` and `curr` are (nx + 2, ny) arrays allocated once per solve.
  Rows 1..nx hold the field; rows 0 and nx + 1 are periodic ghost copies
  of rows nx and 1, wrapped again after every step.  The initial data are
  copied in, so the caller's arrays are never written.
- A step runs over `field.row_blocks` of whole x-rows, `field.BLOCK_VALUES`
  points at most (at least one row), so that a block and the three buffers
  of its run (see Workers) stay in cache.  A block reads its own rows of
  `curr` and one row on each side; the y neighbours wrap within each row.
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

Workers.  The blocks run on one worker per usable CPU, never more than
there are blocks (`field.worker_count`).  `field.row_blocks` cuts the block list
into one contiguous run of blocks per worker, and each run gets its own
three buffers, sized by its largest block and made once per solve.  A step
submits one task per run through `field.run_tasks` and waits for all of
them; then the calling thread wraps the new level's ghost rows.  A block
reads u, which no task writes, and reads and writes only its own rows of
the new level, a different array, so each value gets the same operations
in the same order whatever worker computes it: every worker count gives
the serial bits, as every block size does.  With one worker, as on every
1D grid of the examples (1000 points are one block), the steps run in the
calling thread and no thread is started; otherwise the executor lives for
one solve.

The source g is called once per block, on that block's rows, so it must be
pointwise: g(u)[k] may depend on u[k] only.  Every `scheme1d.SOURCES` entry
is.
"""
from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import field, timeint


@dataclass(frozen=True)
class FDGrid:
    """Periodic grid, one entry per axis: n[k] points lo[k] + i * spacing[k]
    on [lo[k], hi[k]), and the time step dt."""

    lo: tuple
    hi: tuple
    n: tuple
    dt: float

    def __post_init__(self):
        if min(self.n) < 2:
            raise ValueError("need at least two grid intervals per axis")
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise ValueError("degenerate domain")
        limit = 1.0 / math.sqrt(sum(d**-2 for d in self.spacing))
        if not 0.0 < self.dt <= limit * (1.0 + 1e-12):
            raise ValueError("CFL violation: dt must lie in (0, 1/sqrt(sum of spacing^-2)]")

    @property
    def spacing(self) -> tuple:
        return tuple((b - a) / k for a, b, k in zip(self.lo, self.hi, self.n))

    @property
    def axes(self) -> tuple:
        return tuple(a + d * np.arange(k) for a, d, k in zip(self.lo, self.spacing, self.n))

    @property
    def points(self) -> np.ndarray:
        return self.axes[0]

    xpoints = points

    @property
    def ypoints(self) -> np.ndarray:
        return self.axes[1]


def _grid_landing_on(lo: tuple, hi: tuple, n: tuple, t_final: float) -> tuple[FDGrid, int]:
    """The grid and `timeint.make_time_plan`'s step count landing on t_final, dt at most
    min(spacing) / (2 sqrt(axes)); uniform leapfrog cannot shorten the last step, so dt
    shrinks globally."""
    target = 0.5 * min((b - a) / k for a, b, k in zip(lo, hi, n)) / math.sqrt(len(n))
    try:
        steps = timeint.make_time_plan(t_final, target).steps
    except ValueError:  # its message names the config key 'dt', which this step is not
        raise ValueError(f"the comparator's step {target} cannot land on 't_final' = {t_final}: "
                         "both must be positive and finite, t_final + step > t_final") from None
    return FDGrid(lo, hi, n, t_final / steps), steps


def make_grid_1d(a: float, b: float, intervals: int, t_final: float) -> tuple[FDGrid, int]:
    """The grid of [a, b) and its step count to t_final, dt at most spacing / 2."""
    return _grid_landing_on((a,), (b,), (intervals,), t_final)


def make_grid_2d(ax, bx, ay, by, nx, ny, t_final) -> tuple[FDGrid, int]:
    """The grid of [ax, bx) x [ay, by) and its step count, dt at most min(spacing) / (2 sqrt 2)."""
    return _grid_landing_on((ax, ay), (bx, by), (nx, ny), t_final)


def ctcs_solve(u0, u1, g, grid: FDGrid, steps: int) -> tuple:
    """Leapfrog solution at t = steps * dt; returns (*grid.axes, values).

    u0 and u1 take the grid's open axes and broadcast to the grid (u1 may give a
    scalar); g is None or a pointwise source (see the module docstring).
    """
    axes = grid.axes
    open_axes = np.ix_(*axes)
    return (*axes, _leapfrog(u0(*open_axes), u1(*open_axes), g, grid, steps))


ctcs_solve_1d = ctcs_solve_2d = ctcs_solve


def _leapfrog(start, vel, g, grid: FDGrid, steps: int) -> np.ndarray:
    """Field of the grid's shape after `steps` leapfrog steps of grid.dt.

    start and vel are u and u_t at t = 0, each broadcasting to the grid.  The
    result is a view of the solve's own array.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    shape, spacing, dt = grid.n, grid.spacing, grid.dt
    nx = shape[0]
    ny = shape[1] if len(shape) > 1 else 1
    prev = np.empty((nx + 2, ny))
    curr = np.empty((nx + 2, ny))
    prev[1:-1].reshape(shape)[...] = start
    _wrap_ghosts(prev)
    blocks = field.row_blocks(nx, ny, field.BLOCK_VALUES)
    workers = field.worker_count(len(blocks))
    parts = [blocks[p] for p in field.row_blocks(len(blocks), 1, -(-len(blocks) // workers))]
    runs = [(part, tuple(np.empty((max(b.stop - b.start for b in part), ny)) for _ in range(3)))
            for part in parts]
    pool = ThreadPoolExecutor(len(runs), "wavedg-leapfrog") if len(runs) > 1 else None
    with pool or contextlib.nullcontext():
        # Taylor start: (prev + dt * vel) + (0.5 * dt**2) * (Laplacian + g)
        body = curr[1:-1].reshape(shape)
        np.multiply(dt, vel, out=body)
        body += prev[1:-1].reshape(shape)
        _step(prev, curr, g, 0.5 * dt**2, spacing, False, runs, pool)
        for _ in range(steps - 1):
            _step(curr, prev, g, dt**2, spacing, True, runs, pool)
            prev, curr = curr, prev
    return curr[1:-1].reshape(shape)


def _wrap_ghosts(a: np.ndarray) -> None:
    a[0] = a[-2]
    a[-1] = a[1]


def _step(u, out, g, coef: float, spacing: tuple, leapfrog: bool, runs, pool) -> None:
    """One step from the ghosted level u into out: one task per run of blocks, on pool's
    workers if there is a pool; then out's ghosts are wrapped."""
    field.run_tasks(pool, lambda run: _advance(u, out, g, coef, spacing, leapfrog, *run), runs)
    _wrap_ghosts(out)


def _advance(u, out, g, coef: float, spacing: tuple, leapfrog: bool, blocks, work) -> None:
    """One step of the rows in blocks, from the ghosted level u into out's rows.

    out becomes (2u - out) + coef * (Laplacian(u) + g(u)) when leapfrog is
    set, else out + coef * (Laplacian(u) + g(u)); its ghosts are not touched.
    blocks are `field.row_blocks` of the rows; work holds three buffers of the largest.
    """
    dx2 = spacing[0] ** 2
    dy2 = spacing[1] ** 2 if len(spacing) > 1 else None
    for block in blocks:
        r0, r1 = block.start, block.stop
        twice, lap, ylap = (w[:r1 - r0] for w in work)
        c = u[r0 + 1:r1 + 1]
        np.multiply(2.0, c, out=twice)
        np.subtract(u[r0 + 2:r1 + 2], twice, out=lap)
        lap += u[r0:r1]
        lap /= dx2
        if dy2 is not None:
            # (c[j+1] - 2c[j]) + c[j-1], y wrapping within each row: on the flat
            # block, then columns ny - 1 and 0, which read the wrong row there
            flat, yflat = c.reshape(-1), ylap.reshape(-1)
            np.subtract(flat[1:], twice.reshape(-1)[:-1], out=yflat[:-1])
            np.subtract(c[:, :1], twice[:, -1:], out=ylap[:, -1:])
            yflat[1:] += flat[:-1]
            np.subtract(c[:, 1:2], twice[:, :1], out=ylap[:, :1])
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
