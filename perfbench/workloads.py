"""The three benchmark workloads, driven through wavedg's public functions.

Each workload has a set-up (what a run builds before its first time step),
a check made before timing, rounds of operations that are timed, and a
check of each round's outputs, made right after the round so that no
round's arrays are still alive while the next one runs.  The workloads are
deterministic; only the random state of the pre-timing oracle check depends
on the seed.
"""
from __future__ import annotations

import dataclasses
import inspect
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wavedg import cli, diagnostics, reference, timeint
from wavedg import field as dgfield
from wavedg.mesh import cartesian_mesh_2d, uniform_mesh_1d
from wavedg.problems import EXAMPLES
from wavedg.scheme1d import SOURCES
from wavedg.scheme2d import rhs_arrays_2d

import checks

# an operation that ends in one of these counts as failed, not as wrong
FAILURES = (timeint.SolverAbort, np.linalg.LinAlgError)


@dataclass
class Round:
    """One timed round: wall time of its operations and of their stepping loops."""

    wall_s: float = 0.0
    loop_s: float = 0.0
    cell_steps: int = 0
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


class IntegrateProbe:
    """Times each `cli.integrate` call and keeps its result.

    cell_steps counts the call's DG cells times its RK steps.
    """

    def __init__(self, rnd: Round):
        self.rnd = rnd
        self.results = []

    def __enter__(self):
        self.orig = orig = cli.integrate
        sig = inspect.signature(timeint.integrate)

        def probe(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            dt = a["dt"] if a["dt"] is not None else timeint.dt_rule(a["config"].p, a["u"].mesh.h)
            steps = timeint.make_time_plan(a["t_final"], dt).steps
            start = time.perf_counter()
            out = orig(*args, **kwargs)
            self.rnd.loop_s += time.perf_counter() - start
            self.rnd.cell_steps += math.prod(a["u"].coeffs.shape[:-1]) * steps
            self.results.append(out)
            return out

        cli.integrate = probe
        return self

    def __exit__(self, *exc):
        cli.integrate = self.orig


class Workload:
    """Default for workloads without a pre-timing check."""

    def precheck(self, seed: int) -> dict:
        return {}


class Ex8DG2D(Workload):
    """ex8 at 320^2 with the `shock` subcommand's settings, for a fixed stretch.

    p = 2, q = 1, alternating (A) flux, damping and penalty on, cubic source
    with chi = 0, energy sampled every 10 steps, snapshot and energy CSVs.
    Subnormal coefficients first appear near step 41; the stretch runs 60.
    """

    name = "ex8-dg2d"
    n = 320
    steps = 60
    setup_repeats = 3

    def __init__(self, outdir: Path):
        base = cli.parse_config(None, {"problem": "ex8", "ns": (self.n,), "outdir": str(outdir)})
        self.prob = base.resolved_problem()
        mesh = cartesian_mesh_2d(*self.prob.domain, self.n, self.n)
        dt = timeint.dt_rule(base.p, mesh.h)
        self.cfg = dataclasses.replace(base, t_final=self.steps * dt, dt=dt)
        if timeint.make_time_plan(self.cfg.t_final, dt).steps != self.steps:
            raise RuntimeError("the ex8 stretch does not land on a whole step count")

    def setup(self):
        scfg = cli.solver_config(self.cfg, self.prob)
        mesh = cartesian_mesh_2d(*self.prob.domain, self.n, self.n)
        dgfield.DGField2D.project(self.prob.u0, mesh, scfg.p)
        dgfield.DGField2D.project(self.prob.u1, mesh, scfg.q)

    def precheck(self, seed: int) -> dict:
        """One RHS of this configuration on 4x4 against the brute-force oracle."""
        from oracles import brute_rhs_2d

        scfg = cli.solver_config(self.cfg, self.prob)
        mesh = cartesian_mesh_2d(*self.prob.domain, 4, 4)
        rng = np.random.default_rng(seed)
        u = 0.5 * rng.standard_normal((4, 4, dgfield.n_modes(scfg.p)))
        v = 0.5 * rng.standard_normal((4, 4, dgfield.n_modes(scfg.q)))
        du, dv = rhs_arrays_2d(u, v, mesh, scfg)
        fp = scfg.flux
        du_o, dv_o = brute_rhs_2d(u, v, mesh.xnodes, mesh.ynodes, scfg.p, scfg.q,
                                  fp.alpha, fp.tau, fp.beta, scfg.penalty_coefficient,
                                  scfg.penalty, scfg.damping, source=scfg.source)
        return {"oracle_rhs_rel_dev": checks.check_oracle_rhs(du, dv, du_o, dv_o)}

    def run_round(self) -> Round:
        rnd = Round()
        start = time.perf_counter()
        with IntegrateProbe(rnd) as probe:
            rnd.attempted += 1
            try:
                cli.run_shock(self.cfg)
            except FAILURES:
                rnd.failed += 1
        rnd.wall_s = time.perf_counter() - start
        rnd.outputs = [(u.coeffs, v.coeffs) for u, v, _ in probe.results]
        return rnd

    def check(self, outputs) -> dict:
        """Mirror symmetry of the final state; also counts its subnormal coefficients."""
        out = {}
        tiny = np.finfo(float).tiny
        for u, v in outputs:
            out["mirror_rel_dev"] = checks.check_mirror_2d(u, self.cfg.p, v, self.cfg.resolved_q())
            out["subnormal_coeffs"] = sum(int(np.count_nonzero((a != 0.0) & (np.abs(a) < tiny)))
                                          for a in (u, v))
        return out


class Compare1D(Workload):
    """`compare-ctcs --check` on ex4 and ex5 at N = 320 to t = 0.25.

    chi = 1 source quotient, energy sampled every step, 1000-interval
    leapfrog comparator, front match, artifacts written.  Two operations.
    """

    name = "compare-1d"
    problems = ("ex4", "ex5")
    n = 320
    setup_repeats = 25

    def __init__(self, outdir: Path):
        self.cfgs = [cli.parse_config(None, {"problem": key, "ns": (self.n,), "outdir": str(outdir)})
                     for key in self.problems]

    def setup(self):
        for cfg in self.cfgs:
            prob = cfg.resolved_problem()
            scfg = cli.solver_config(cfg, prob)
            mesh = uniform_mesh_1d(prob.domain[0], prob.domain[1], self.n, prob.boundary)
            dgfield.DGField1D.project(prob.u0, mesh, scfg.p)
            dgfield.DGField1D.project(prob.u1, mesh, scfg.q)
            grid, _ = reference.make_grid_1d(prob.domain[0], prob.domain[1],
                                             prob.comparator_intervals, cfg.resolved_t(prob))
            prob.u0(grid.points)

    def run_round(self) -> Round:
        rnd = Round()
        start = time.perf_counter()
        with IntegrateProbe(rnd):
            for cfg in self.cfgs:
                rnd.attempted += 1
                try:
                    res, _ = cli.run_compare(cfg, check=True)
                except FAILURES:
                    rnd.failed += 1
                    continue
                except cli.CompareCheckFailure as exc:
                    res = exc
                rnd.outputs.append((cfg, res))
        rnd.wall_s = time.perf_counter() - start
        return rnd

    def check(self, outputs) -> dict:
        """Each DG profile passed the CLI's front match against the leapfrog.

        `run_compare(check=True)` raises CompareCheckFailure on a mismatch;
        the offsets of the matched fronts are recorded in coarse cells.
        """
        offsets = {}
        for cfg, res in outputs:
            if isinstance(res, cli.CompareCheckFailure):
                raise checks.CheckFailed(f"{cfg.problem}: {res}")
            prob = cfg.resolved_problem()
            mesh = uniform_mesh_1d(prob.domain[0], prob.domain[1], self.n, prob.boundary)
            offsets[cfg.problem] = res.max_offset / mesh.h
        return {"front_offset_cells": offsets}


class Ex8CTCS2D(Workload):
    """The comparator half of `compare-ctcs` for ex8.

    Leapfrog on the 1000^2 grid to t = 0.25 (354 steps), the 1M-row CSV the
    CLI writes, and the profile row bin-averaged onto the 320 coarse cells.
    """

    name = "ex8-ctcs2d"
    coarse_n = 320
    t_final = 0.25
    setup_repeats = 7
    # The profile row y = 0.3625 crosses the box [0.3, 0.425]^2 of u0 = 0.5.
    # With zero initial velocity its edges x0 = 0.3, 0.425 travel at unit
    # speed both ways; x0 - t and x0 + t give these fronts at t = 0.25.  The
    # fourth, 0.675, is a 0.18 -> 0.06 drop that the mid-range swing misses.
    fronts = (0.05, 0.175, 0.55)

    def __init__(self, outdir: Path):
        self.prob = EXAMPLES["ex8"]
        self.csv = outdir / "ex8_ctcs2d_ctcs.csv"

    def setup(self):
        prob = self.prob
        n = prob.comparator_intervals
        grid, _ = reference.make_grid_2d(*prob.domain, n, n, self.t_final)
        xx, yy = np.meshgrid(grid.xpoints, grid.ypoints, indexing="ij")
        prob.u0(xx, yy)
        cartesian_mesh_2d(*prob.domain, self.coarse_n, self.coarse_n)

    def run_round(self) -> Round:
        prob = self.prob
        n = prob.comparator_intervals
        rnd = Round(attempted=1)
        start = time.perf_counter()
        grid, steps = reference.make_grid_2d(*prob.domain, n, n, self.t_final)
        x, y, u = reference.ctcs_solve_2d(prob.u0, prob.u1, SOURCES[prob.source_name].g,
                                          grid, steps)
        rnd.loop_s = time.perf_counter() - start
        rnd.cell_steps = n * n * steps
        columns = {"x": np.repeat(x, len(y)), "y": np.tile(y, len(x)), "u": u.ravel()}
        dgfield.write_columns_csv(self.csv, columns)
        mesh = cartesian_mesh_2d(*prob.domain, self.coarse_n, self.coarse_n)
        jr = int(np.argmin(np.abs(y - prob.notes["profile_row"])))
        profile = diagnostics.bin_average(x, u[:, jr], mesh.xnodes)
        rnd.wall_s = time.perf_counter() - start
        rnd.outputs.append((u, columns, mesh, profile))
        return rnd

    def check(self, outputs) -> dict:
        out = {}
        for u, columns, mesh, profile in outputs:
            checks.check_transpose_symmetric(u)
            out["fronts"] = checks.check_characteristic_fronts(
                mesh.xcenters, profile, float(mesh.hx[0]), self.fronts)
            out["csv_rows"] = checks.check_csv_readback(self.csv, columns)
        return out


WORKLOADS = {cls.name: cls for cls in (Ex8DG2D, Compare1D, Ex8CTCS2D)}
