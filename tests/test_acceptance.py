"""Acceptance gates for the solver, one test per criterion.

Every test prints a `criterion N: PASS/FAIL` line with the measured values
before asserting, so a red gate still reports exactly what was measured.

Known-red gates (kept as stated on purpose; the printed measurements and the
companion property tests document the behavior):
  * criteria 1/2 (p = 3, A/S fluxes) and 4: the whole slope excess comes from
    the damping term of the v equation.  With the v weights zeroed (u damping
    kept) the p = 3 least-squares slopes are A 4.191, S 4.001, C 3.821 and the
    2D ex6 slope 3.047, all inside the windows; zeroing the u damping instead
    changes nothing.  Whether the v weights are right is not settled here:
    they scale as h^(l+1)/l! in 1D but h^(l+1)/(l+1)! in 2D, the oracles copy
    each formula, and neither factorial puts every cell in its window (1D
    with (l+1)! gives A p = 3 at 4.428).  Both kernels take their factors
    from scheme1d.damping_factors, whose v_shift (0 in 1D, 1 in 2D) is the
    one place where the two factorials differ.
  * criterion 6, first clause: the penalty-only variant oscillates (clear
    total-variation excess) but its midpoint overshoot above the exact
    range measures 0.0025, not > 0.02 (0.0028 at 20 points per cell, 0.011
    against the exact solution's range within +-2 or +-3 cells).  No
    document in the repository states the ablation's overshoot.

Criterion 7 reads its first clause on two kinds of data: on ex1, whose energy
starts positive, no step may grow; the cell-aligned ex3 data start at zero
energy, so the penalty's formation of the fronts must grow it (the last
growing step ends at t = 2.05 h for N = 80..320) and per-step decay is
required after EX3_FORMATION_TIME_CELLS * h.  Criterion 10 reads each front
at its own half height around its steep part (`compare_front_positions`).
"""
import time

import numpy as np
import pytest

from oracles import brute_rhs_1d, brute_rhs_2d
from wavedg.diagnostics import (
    ConvergenceTable,
    bin_average,
    compare_front_positions,
    l2_error,
    oscillation_metrics,
)
from wavedg.field import DGField1D, DGField2D, n_modes
from wavedg.mesh import cartesian_mesh_2d, perturb_mesh_1d, uniform_mesh_1d
from wavedg.problems import EXAMPLES
from wavedg.reference import ctcs_solve_1d, ctcs_solve_2d, make_grid_1d, make_grid_2d
from wavedg.scheme1d import SOURCES, FluxParams, SolverConfig, rhs_arrays_1d
from wavedg.scheme2d import rhs_arrays_2d
from wavedg.timeint import integrate, ssp_rk3_step

T_FINAL = 0.25
PERTURB_SEED = 2024

# frozen from the one-off calibration runs recorded in the suite output
EX3_PENALTY_TV_MIN = 1.30        # measured 1.525 (exact profile TV is 1.0)
EX3_OFEDG_TV_MAX = 1.15          # measured 1.027
# front formation from the zero-energy ex3 start: the last growing step ends
# at t = 2.05 h for N = 80, 160 and 320 (S flux, damping + penalty)
EX3_FORMATION_TIME_CELLS = 2.5


def _line(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def _flux(name):
    return {"a": FluxParams.alternating(), "s": FluxParams.sommerfeld(1.0),
            "c": FluxParams.central()}[name]


def _ex1_sweep(flux_name, p, perturb=0.0):
    prob = EXAMPLES["ex1"]
    errs, hs = [], []
    for n in (20, 40, 80, 160):
        mesh = uniform_mesh_1d(-1.0, 1.0, n)
        if perturb:
            mesh = perturb_mesh_1d(mesh, perturb, seed=PERTURB_SEED)
        cfg = SolverConfig(p=p, q=p - 1, flux=_flux(flux_name))
        u0 = DGField1D.project(prob.u0, mesh, p)
        v0 = DGField1D.project(prob.u1, mesh, p - 1)
        u, _, _ = integrate(u0, v0, cfg, t_final=T_FINAL)
        errs.append(l2_error(u, lambda x: prob.exact(x, T_FINAL)))
        hs.append(mesh.h)
    return ConvergenceTable(ns=[20, 40, 80, 160], hs=hs, errors=errs)


_WINDOWS_UNIFORM = {
    ("a", 2): (2.7, 3.3), ("s", 2): (2.7, 3.3), ("c", 2): (1.7, 2.3),
    ("a", 3): (3.7, 4.3), ("s", 3): (3.7, 4.3), ("c", 3): (3.7, 4.3),
}


def _run_windowed_sweeps(perturb, widen):
    results = {}
    for (flux_name, p), (lo, hi) in _WINDOWS_UNIFORM.items():
        t0 = time.perf_counter()
        table = _ex1_sweep(flux_name, p, perturb)
        elapsed = time.perf_counter() - t0
        slope = table.least_squares_slope()
        results[(flux_name, p)] = (slope, lo - widen, hi + widen, elapsed,
                                   table.pairwise_slopes())
    return results


def test_criterion_01_linear_convergence_uniform():
    results = _run_windowed_sweeps(perturb=0.0, widen=0.0)
    all_ok = True
    per_flux_time = {}
    for (flux_name, p), (slope, lo, hi, elapsed, pair) in sorted(results.items()):
        ok = lo <= slope <= hi
        all_ok &= ok
        per_flux_time[flux_name] = per_flux_time.get(flux_name, 0.0) + elapsed
        print(f"    {flux_name.upper()}-flux p={p}: lsq {slope:.3f} in [{lo},{hi}] "
              f"{'ok' if ok else 'MISS'}   pairwise {[f'{s:.2f}' for s in pair]}")
    runtime_ok = all(t <= 120.0 for t in per_flux_time.values())
    _line(1, all_ok and runtime_ok,
          "Example 1 least-squares slopes at N in {20..160}; "
          f"per-flux runtimes {[f'{t:.0f}s' for t in per_flux_time.values()]}")
    assert runtime_ok
    assert all_ok


def test_criterion_02_linear_convergence_perturbed():
    results = _run_windowed_sweeps(perturb=0.1, widen=0.1)
    all_ok = True
    for (flux_name, p), (slope, lo, hi, _, pair) in sorted(results.items()):
        ok = lo <= slope <= hi
        all_ok &= ok
        print(f"    {flux_name.upper()}-flux p={p}: lsq {slope:.3f} in [{lo:.1f},{hi:.1f}] "
              f"{'ok' if ok else 'MISS'}")
    _line(2, all_ok, f"10% perturbed meshes, seed {PERTURB_SEED}, widened windows")
    assert all_ok


def test_criterion_03_breather_convergence():
    prob = EXAMPLES["ex2"]
    src = SOURCES[prob.source_name]
    errs, hs = [], []
    for n in (80, 160, 320):
        mesh = uniform_mesh_1d(-40.0, 40.0, n, boundary="neumann")
        cfg = SolverConfig(p=2, q=1, flux=FluxParams.alternating(), chi=1, source=src)
        u0 = DGField1D.project(prob.u0, mesh, 2)
        v0 = DGField1D.project(prob.u1, mesh, 1)
        u, _, _ = integrate(u0, v0, cfg, t_final=T_FINAL)
        errs.append(l2_error(u, lambda x: prob.exact(x, T_FINAL)))
        hs.append(mesh.h)
    table = ConvergenceTable(ns=[80, 160, 320], hs=hs, errors=errs)
    slope = table.least_squares_slope()
    ok = 2.6 <= slope <= 3.4
    _line(3, ok, f"breather, chi=1, Neumann walls: lsq slope {slope:.3f} in [2.6, 3.4]")
    assert ok


def test_criterion_04_plane_wave_2d_convergence():
    prob = EXAMPLES["ex6"]
    t0 = time.perf_counter()
    errs, hs = [], []
    for n in (10, 20, 40):
        mesh = cartesian_mesh_2d(*prob.domain, n, n)
        cfg = SolverConfig(p=2, q=1, flux=FluxParams.alternating(), chi=0)
        u0 = DGField2D.project(prob.u0, mesh, 2)
        v0 = DGField2D.project(prob.u1, mesh, 1)
        u, _, _ = integrate(u0, v0, cfg, t_final=T_FINAL)
        errs.append(l2_error(u, lambda x, y: prob.exact(x, y, T_FINAL)))
        hs.append(mesh.h)
    elapsed = time.perf_counter() - t0
    table = ConvergenceTable(ns=[10, 20, 40], hs=hs, errors=errs)
    slope = table.least_squares_slope()
    ok = 2.6 <= slope <= 3.4 and elapsed <= 600.0
    _line(4, ok, f"2D plane wave: lsq slope {slope:.3f} in [2.6, 3.4], "
          f"pairwise {[f'{s:.2f}' for s in table.pairwise_slopes()]}, {elapsed:.0f}s")
    assert elapsed <= 600.0
    assert ok


def _ex3_run(n, damping, penalty, flux=None):
    prob = EXAMPLES["ex3"]
    mesh = uniform_mesh_1d(-1.0, 1.0, n)
    cfg = SolverConfig(p=2, q=1, flux=flux or FluxParams.alternating(),
                       damping=damping, penalty=penalty)
    u0 = DGField1D.project(prob.u0, mesh, 2)
    v0 = DGField1D.project(prob.u1, mesh, 1)
    u, v, trace = integrate(u0, v0, cfg, t_final=T_FINAL)
    return mesh, u0, u, trace


def test_criterion_05_frozen_state():
    diffs = {}
    for label, damping in (("plain", False), ("with damping", True)):
        mesh, u0, u, _ = _ex3_run(160, damping, penalty=False)
        diffs[label] = float(np.max(np.abs(u.midpoint_values() - u0.midpoint_values())))
    ok = all(d <= 1e-10 for d in diffs.values())
    _line(5, ok, "penalty-off variants leave cell-aligned piecewise-constant data "
          f"frozen: max midpoint drift {diffs}")
    assert ok


def test_criterion_06_penalty_necessity_and_of_sufficiency():
    prob = EXAMPLES["ex3"]
    mesh, _, u_pen, _ = _ex3_run(320, damping=False, penalty=True)
    _, _, u_of, _ = _ex3_run(320, damping=True, penalty=True)
    exact = prob.exact(mesh.centers, T_FINAL)
    pen_mids = u_pen.midpoint_values()
    of_mids = u_of.midpoint_values()
    rep_pen = oscillation_metrics(pen_mids, 0.5, 1.0)
    rep_of = oscillation_metrics(of_mids, 0.5, 1.0)
    l1_pen = float(np.mean(np.abs(pen_mids - exact)))
    l1_of = float(np.mean(np.abs(of_mids - exact)))

    clause_pen = rep_pen.overshoot > 0.02
    clause_of = rep_of.overshoot <= 0.02 and rep_of.undershoot <= 0.02
    clause_l1 = l1_of <= l1_pen
    # calibrated separation property: the penalty-only run carries clear
    # spurious variation that the damped run does not
    separation = (rep_pen.total_variation >= EX3_PENALTY_TV_MIN
                  and rep_of.total_variation <= EX3_OFEDG_TV_MAX)
    ok = clause_pen and clause_of and clause_l1
    print(f"    EDG+penalty: overshoot {rep_pen.overshoot:.4f} (> 0.02 required), "
          f"TV {rep_pen.total_variation:.3f}")
    print(f"    OF-EDG:      overshoot {rep_of.overshoot:.4f}, undershoot "
          f"{rep_of.undershoot:.4f} (each <= 0.02), TV {rep_of.total_variation:.3f}")
    print(f"    L1 midpoint errors: OF {l1_of:.5f} <= penalty-only {l1_pen:.5f}: {clause_l1}")
    _line(6, ok, "oscillation separation at N=320 "
          f"(TV-excess separation property: {'ok' if separation else 'MISS'})")
    assert separation
    assert clause_of
    assert clause_l1
    assert clause_pen
    assert ok


def _growth_steps(trace):
    """Indices n of the steps t_{n-1} -> t_n over which energy grows."""
    e = np.asarray(trace.energies)
    return np.flatnonzero(e[1:] > e[:-1] * (1.0 + 1e-10) + 1e-12) + 1


def _late_non_decay_steps(trace, h):
    """Steps ending after the formation time at which energy does not strictly drop."""
    e = np.asarray(trace.energies)
    late = np.asarray(trace.times[1:]) > EX3_FORMATION_TIME_CELLS * h
    return np.flatnonzero(late & (e[1:] >= e[:-1])) + 1


def _ex1_energy_trace(flux, damping, penalty):
    prob = EXAMPLES["ex1"]
    mesh = uniform_mesh_1d(-1.0, 1.0, 160)
    cfg = SolverConfig(p=2, q=1, flux=flux, damping=damping, penalty=penalty)
    u0 = DGField1D.project(prob.u0, mesh, 2)
    v0 = DGField1D.project(prob.u1, mesh, 1)
    return integrate(u0, v0, cfg, t_final=T_FINAL)[2]


def test_criterion_07_energy_monotonicity():
    # first clause (a): per-step decay for the S-flux damped + penalized
    # scheme on data that start with energy
    smooth = _ex1_energy_trace(FluxParams.sommerfeld(1.0), damping=True, penalty=True)
    smooth_growth = _growth_steps(smooth)
    clause_1a = len(smooth_growth) == 0

    # first clause (b): the ex3 data start at zero energy, so the penalty's
    # front formation must grow it; all growth stays within the formation
    # time and energy drops strictly at every later step
    clause_1b = True
    ex3_lines = []
    for n in (160, 320):
        mesh, _, _, trace = _ex3_run(n, damping=True, penalty=True,
                                     flux=FluxParams.sommerfeld(1.0))
        e = np.asarray(trace.energies)
        growth = _growth_steps(trace)
        late = _late_non_decay_steps(trace, mesh.h)
        last_growth = trace.times[growth.max()] / mesh.h if len(growth) else 0.0
        clause_1b &= len(late) == 0
        ex3_lines.append(
            f"    ex3 N={n}: E(0) {e[0]:.3e}, peak {e.max():.3f} at step {int(e.argmax())}, "
            f"E(T) {e[-1]:.3f}; growth steps {len(growth)}/{len(e) - 1}, last at "
            f"t = {last_growth:.2f} h; non-decay steps after "
            f"{EX3_FORMATION_TIME_CELLS} h: {len(late)}")

    # second clause: near-conservation for the central flux on smooth data
    central = _ex1_energy_trace(FluxParams.central(), damping=False, penalty=False)
    drift = abs(central.energies[-1] - central.energies[0]) / central.energies[0]
    clause_2 = drift <= 1e-6

    e1 = np.asarray(smooth.energies)
    print(f"    S-flux ex1 N=160: E(0) {e1[0]:.3f}, E(T) {e1[-1]:.3f}; growth steps "
          f"{len(smooth_growth)}/{len(e1) - 1}")
    for line in ex3_lines:
        print(line)
    print(f"    C-flux smooth conservation: relative drift {drift:.3e} <= 1e-6: {clause_2}")
    _line(7, clause_1a and clause_1b and clause_2,
          "per-step energy decay (from E(0) > 0; after front formation from the "
          "zero-energy start) + smooth-data conservation")
    assert clause_2
    assert clause_1a
    assert clause_1b


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for p in (2, 3):
        mesh = uniform_mesh_1d(0.0, 1.0, 6)
        flux = FluxParams.sommerfeld(1.0)
        cfg = SolverConfig(p=p, q=p - 1, flux=flux)
        for _ in range(20):
            u = rng.standard_normal((6, p + 1))
            v = rng.standard_normal((6, p))
            du, dv = rhs_arrays_1d(u, v, mesh, cfg)
            du_o, dv_o = brute_rhs_1d(u, v, mesh.nodes, p, p - 1, flux.alpha,
                                      flux.tau, flux.beta, 1.0, True, True)
            scale = max(1.0, np.max(np.abs(du_o)), np.max(np.abs(dv_o)))
            worst = max(worst, np.max(np.abs(du - du_o)) / scale,
                        np.max(np.abs(dv - dv_o)) / scale)
    mesh2 = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 3, 3)
    flux = FluxParams.sommerfeld(1.0)
    cfg2 = SolverConfig(p=2, q=1, flux=flux, chi=0)
    for _ in range(20):
        u = rng.standard_normal((3, 3, n_modes(2)))
        v = rng.standard_normal((3, 3, n_modes(1)))
        du, dv = rhs_arrays_2d(u, v, mesh2, cfg2)
        du_o, dv_o = brute_rhs_2d(u, v, mesh2.xnodes, mesh2.ynodes, 2, 1,
                                  flux.alpha, flux.tau, flux.beta, 1.0, True, True)
        scale = max(1.0, np.max(np.abs(du_o)), np.max(np.abs(dv_o)))
        worst = max(worst, np.max(np.abs(du - du_o)) / scale,
                    np.max(np.abs(dv - dv_o)) / scale)
    ok = worst <= 1e-10
    _line(8, ok, f"brute-force assembly agreement: worst relative deviation {worst:.2e}")
    assert ok


def test_criterion_09_rk3_order():
    omega = 3.0

    def rhs(s):
        return np.array([s[1], -(omega**2) * s[0]])

    errs = []
    for nsteps in (50, 100, 200):
        dt = 1.0 / nsteps
        s = np.array([1.0, 0.0])
        for _ in range(nsteps):
            s = ssp_rk3_step(s, rhs, dt)
        errs.append(abs(s[0] - np.cos(omega)))
    slopes = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = all(2.9 <= s <= 3.1 for s in slopes)
    _line(9, ok, f"oscillator global-error slopes under dt halving: "
          f"{[f'{s:.3f}' for s in slopes]} (3.0 +- 0.1)")
    assert ok


def _ctcs_orders():
    errs = []
    for n in (100, 200, 400):
        grid, steps = make_grid_1d(-1.0, 1.0, n, T_FINAL)
        x, u = ctcs_solve_1d(lambda x: np.sin(np.pi * x),
                             lambda x: -np.pi * np.cos(np.pi * x), None, grid, steps)
        errs.append(np.max(np.abs(u - np.sin(np.pi * (x - T_FINAL)))))
    slope_1d = float(np.log2(errs[0] / errs[1]))
    errs2 = []
    sq2 = np.sqrt(2.0)
    for n in (40, 80):
        grid, steps = make_grid_2d(-np.pi, np.pi, -np.pi, np.pi, n, n, T_FINAL)
        x, y, u = ctcs_solve_2d(lambda x, y: np.sin(x + y),
                                lambda x, y: sq2 * np.cos(x + y), None, grid, steps)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        errs2.append(np.max(np.abs(u - np.sin(xx + yy + sq2 * T_FINAL))))
    slope_2d = float(np.log2(errs2[0] / errs2[1]))
    return slope_1d, slope_2d


def _fronts_1d(key):
    prob = EXAMPLES[key]
    src = SOURCES[prob.source_name]
    mesh = uniform_mesh_1d(*prob.domain, 320)
    cfg = SolverConfig(p=2, q=1, flux=FluxParams.alternating(), chi=1, source=src)
    u0 = DGField1D.project(prob.u0, mesh, 2)
    v0 = DGField1D.project(prob.u1, mesh, 1)
    u, _, _ = integrate(u0, v0, cfg, t_final=T_FINAL)
    grid, steps = make_grid_1d(*prob.domain, prob.comparator_intervals, T_FINAL)
    xr, ur = ctcs_solve_1d(prob.u0, prob.u1, src.g, grid, steps)
    ref = bin_average(xr, ur, mesh.nodes)
    return compare_front_positions(mesh.centers, ref, mesh.centers,
                                   u.midpoint_values(), coarse_h=mesh.h), mesh.h


def _fronts_2d(key):
    prob = EXAMPLES[key]
    src = SOURCES[prob.source_name]
    n = prob.default_n
    mesh = cartesian_mesh_2d(*prob.domain, n, n)
    cfg = SolverConfig(p=2, q=1, flux=FluxParams.alternating(), chi=0, source=src)
    u0 = DGField2D.project(prob.u0, mesh, 2)
    v0 = DGField2D.project(prob.u1, mesh, 1)
    u, _, _ = integrate(u0, v0, cfg, t_final=T_FINAL, sample_every=50)
    grid, steps = make_grid_2d(*prob.domain, prob.comparator_intervals,
                               prob.comparator_intervals, T_FINAL)
    xr, yr, ur = ctcs_solve_2d(prob.u0, prob.u1, src.g, grid, steps)
    row = prob.notes["profile_row"]
    iy = int(np.argmin(np.abs(mesh.ycenters - row)))
    jr = int(np.argmin(np.abs(yr - row)))
    ref = bin_average(xr, ur[:, jr], mesh.xnodes)
    coarse_h = float(mesh.hx[0])
    return compare_front_positions(mesh.xcenters, ref, mesh.xcenters,
                                   u.center_values()[:, iy],
                                   coarse_h=coarse_h), coarse_h


@pytest.mark.slow
def test_criterion_10_ctcs_comparator():
    slope_1d, slope_2d = _ctcs_orders()
    orders_ok = 1.8 <= slope_1d <= 2.2 and 1.8 <= slope_2d <= 2.2
    print(f"    comparator orders: 1D {slope_1d:.3f}, 2D {slope_2d:.3f} (2.0 +- 0.2)")

    fronts_ok = True
    for key, runner in (("ex4", _fronts_1d), ("ex5", _fronts_1d),
                        ("ex7", _fronts_2d), ("ex8", _fronts_2d)):
        t0 = time.perf_counter()
        res, coarse_h = runner(key)
        cells = res.max_offset / coarse_h if np.isfinite(res.max_offset) else float("inf")
        fronts_ok &= res.matches
        print(f"    {key}: fronts {len(res.reference_fronts)}/{len(res.test_fronts)}, "
              f"max offset {cells:.2f} coarse cells (budget 2.0) "
              f"{'ok' if res.matches else 'MISS'}  [{time.perf_counter() - t0:.0f}s]")
    ok = orders_ok and fronts_ok
    _line(10, ok, "comparator order 2 and paired front agreement on ex4/ex5/ex7/ex8")
    assert orders_ok
    assert ok
