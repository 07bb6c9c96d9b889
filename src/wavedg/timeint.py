"""Fixed-step SSP-RK3 time integration with energy tracing.

The step-size rule ties dt to the mesh size so the third-order integrator
does not limit the spatial order: dt = h^e(p) / 20 with exponent
e = 1, 4/3, 5/3, 2, 7/3 for p = 2..6.  The final step is shortened so the
integration lands exactly on the requested final time.
"""
from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import diagnostics, field
from .discretization import DISCRETIZATIONS
from .field import write_columns_csv
# rhs_arrays_1d stays importable from here: perfbench/test_perfbench.py reads it
from .scheme1d import SolverConfig, rhs_arrays_1d  # noqa: F401

_DT_EXPONENTS = {2: 1.0, 3: 4.0 / 3.0, 4: 5.0 / 3.0, 5: 2.0, 6: 7.0 / 3.0}

BLOWUP_LIMIT = 1e12


class SolverAbort(RuntimeError):
    """Raised when the state blows up or turns non-finite mid-run.

    It records where: the step, the simulated time, the field ("u" or "v")
    and the index of the first offending cell (the coefficient index
    without its mode axis: (i,) in 1D, (i, j) in 2D).
    """

    def __init__(self, message: str, step: int, time: float, field: str, cell: tuple):
        where = cell[0] if len(cell) == 1 else cell
        super().__init__(f"{message} in {field} at cell {where}, t = {time:.10g} (step {step})")
        self.step = step
        self.time = time
        self.field = field
        self.cell = cell


def dt_rule(p: int, h: float) -> float:
    """Mesh-size-based time step h^e(p)/20 for degrees p = 2..6."""
    try:
        e = _DT_EXPONENTS[p]
    except KeyError:
        raise ValueError(f"degree 'p' = {p} has no built-in time step rule (degrees 2 to 6); "
                         "supply 'dt' explicitly") from None
    return h**e / 20.0


@dataclass(frozen=True)
class TimePlan:
    """Step sizes landing exactly on t_final: steps-1 full steps plus last_dt."""

    dt: float
    steps: int
    last_dt: float
    t_final: float


def make_time_plan(t_final: float, dt: float) -> TimePlan:
    if not (0.0 < t_final < math.inf and 0.0 < dt < math.inf):
        raise ValueError(f"final time and dt must be positive and finite, "
                         f"got 't_final' = {t_final}, 'dt' = {dt}")
    if t_final + dt == t_final:
        raise ValueError(f"'t_final' / 'dt' = {t_final} / {dt} is too many steps: "
                         "t_final + dt rounds to t_final")
    steps = max(1, math.ceil(t_final / dt - 1e-12))
    last = t_final - (steps - 1) * dt
    return TimePlan(dt=dt, steps=steps, last_dt=last, t_final=t_final)


#: the Shu-Osher rows (a_i, b_i) of s_i = a_i x + b_i (s_(i-1) + dt f(s_(i-1))), s_0 = x
SSP_RK3 = ((0.0, 1.0), (0.75, 0.25), (1 / 3, 2 / 3))


def ssp_rk3_step(state, rhs, dt, out=None, work=None):
    """One three-stage strong-stability-preserving third-order step.

    state may be a single array or a tuple of arrays; rhs maps a state to
    its time derivative with the same structure.  One loop runs the rows of
    `SSP_RK3`, the Shu-Osher stages

        s1 = x + dt f(x)
        s2 = 3/4 x + 1/4 (s1 + dt f(s1))
        x' = 1/3 x + 2/3 (s2 + dt f(s2))

    in place in one register shaped like the state: `work`, as made by
    `rk3_registers`, or a fresh one.  The new state goes to `out`, which may
    be `state` itself, or to fresh arrays.  A stage adds dt f to the previous
    stage, scales by b_i and adds a_i x, each skipped at b_i = 1 or a_i = 0.

    Each stage runs block by block over whole rows (the leading axis) of
    every field, `field.row_blocks` of at most `field.BLOCK_VALUES` values
    summed over the fields, so that a block's derivative, register and
    temporaries stay in cache through the stage's few operations.  Within
    a block, every field's derivative is scaled into a block-sized
    temporary before any register is written, so a derivative may alias
    its stage, or any field's stage of its own shape, as with
    rhs = lambda s: (s[1], s[0]).  The arithmetic of every value is that of
    the whole-array stages, so the bits are too.  Block temporaries kept
    between blocks in place of fresh ones saved no time.
    """
    if isinstance(state, tuple):
        return _ssp_rk3(state, rhs, dt, out, work)
    return _ssp_rk3((state,), lambda s: (rhs(s[0]),), dt,
                    None if out is None else (out,), work)[0]


def _ssp_rk3(x: tuple, rhs, dt, out, work) -> tuple:
    stage = work if work is not None else rk3_registers(x)
    new = out if out is not None else tuple(np.empty(np.shape(a)) for a in x)
    shapes = [np.shape(a) for a in x]
    # one block, all of every field, when a field has no leading axis
    blocks = (field.row_blocks(max(s[0] for s in shapes), sum(math.prod(s[1:]) for s in shapes),
                               field.BLOCK_VALUES) if all(shapes) else [...])
    for i, (a, b) in enumerate(SSP_RK3):
        prev, dest = (stage if i else x), (new if i == len(SSP_RK3) - 1 else stage)
        derivs = rhs(prev)
        for r in blocks:
            # every field's derivative is scaled before any register is written
            for f, k in enumerate([np.multiply(dt, d[r]) for d in derivs]):
                s = stage[f][r] if a else dest[f][r]
                np.add(prev[f][r], k, out=s)
                if b != 1.0:
                    s *= b
                if a:
                    np.add(np.multiply(a, x[f][r], out=k), s, out=dest[f][r])
    return new


def rk3_registers(state) -> tuple:
    """The stage register of `ssp_rk3_step` for a state's shapes, one array per field."""
    x = state if isinstance(state, tuple) else (state,)
    return tuple(np.empty(np.shape(a)) for a in x)


@dataclass
class EnergyTrace:
    """Sampled discrete energy; `nonlinear` holds the source-augmented form."""

    times: list
    energies: list
    nonlinear: list | None = None

    def write_csv(self, path: str | os.PathLike) -> None:
        cols = {"time": np.asarray(self.times), "energy": np.asarray(self.energies)}
        if self.nonlinear is not None:
            cols["nonlinear_energy"] = np.asarray(self.nonlinear)
        write_columns_csv(path, cols)

    def max_relative_growth(self) -> float:
        """Largest per-sample increase E(t_{n+1}) - E(t_n) over the peak energy.

        Normalising by the peak rather than by E(t_n) keeps the figure
        meaningful for runs that start from (near) zero energy, such as
        cell-aligned piecewise-constant data set moving by the penalty.
        A trace that never leaves zero reports 0.
        """
        e = np.asarray(self.energies)
        peak = float(np.max(e)) if len(e) else 0.0
        if len(e) < 2 or peak <= 0.0:
            return 0.0
        return float(np.max(e[1:] - e[:-1]) / peak)


def _check_state(state, step: int, t: float) -> None:
    """Abort on a non-finite entry or one beyond BLOWUP_LIMIT in magnitude.

    max and min carry any NaN, so two reductions replace full-size
    isfinite and abs temporaries; the offending cell is looked up only
    once the state has failed.
    """
    for field, arr in zip("uv", state):
        hi, lo = float(arr.max()), float(arr.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise SolverAbort("non-finite state detected", step, t, field,
                              _first_cell(~np.isfinite(arr)))
        if max(hi, -lo) > BLOWUP_LIMIT:
            raise SolverAbort("state magnitude exceeds blow-up threshold", step, t, field,
                              _first_cell(np.abs(arr) > BLOWUP_LIMIT))


def _first_cell(mask: np.ndarray) -> tuple:
    """Cell index of mask's first true entry in C order, mode axis dropped."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(mask)), mask.shape)[:-1])


def integrate(u, v, config: SolverConfig, t_final: float, dt: float | None = None,
              sample_every: int = 1):
    """Advance (u, v) to t_final; returns final fields and the energy trace.

    dt defaults to the degree-based rule evaluated at the global mesh size.
    The energy is sampled every `sample_every` steps (and always at the two
    endpoints); for runs with a source term the source-augmented energy is
    recorded alongside the quadratic one.
    """
    mesh = u.mesh
    disc = DISCRETIZATIONS[mesh.dim](mesh, config)
    state = (u.coeffs.copy(), v.coeffs.copy())
    plan = make_time_plan(t_final, dt if dt is not None else dt_rule(config.p, mesh.h))
    registers = rk3_registers(state)

    with_source = config.source is not None
    trace = EnergyTrace(times=[0.0], energies=[], nonlinear=[] if with_source else None)

    def record(st):
        uf, vf = disc.field(mesh, config.p, st[0]), disc.field(mesh, config.q, st[1])
        quad = diagnostics.energy(uf, vf)
        trace.energies.append(quad)
        if with_source:
            trace.nonlinear.append(diagnostics.source_energy(quad, uf, config.source))

    record(state)
    t = 0.0
    # the discretization's worker threads, started by its first rhs, end with this call
    with closing(disc):
        for n in range(plan.steps):
            step_dt = plan.dt if n < plan.steps - 1 else plan.last_dt
            ssp_rk3_step(state, disc.rhs, step_dt, out=state, work=registers)
            t += step_dt
            _check_state(state, n + 1, t)
            if (n + 1) % sample_every == 0 or n == plan.steps - 1:
                trace.times.append(t)
                record(state)
    return disc.field(mesh, config.p, state[0]), disc.field(mesh, config.q, state[1]), trace
