"""Time stepping: dt rule, SSP-RK3 order, integration driver, energy tracing."""
import math
import os
import sys
import threading

import numpy as np
import pytest

from oracles import ssp_rk3_out_of_place
from wavedg import diagnostics, field, scheme1d, scheme2d
from wavedg.field import DGField1D, DGField2D
from wavedg.mesh import cartesian_mesh_2d, uniform_mesh_1d
from wavedg.problems import EXAMPLES
from wavedg.scheme1d import SOURCES, FluxParams, SolverConfig, rhs_arrays_1d
from wavedg.timeint import (
    BLOWUP_LIMIT,
    EnergyTrace,
    SolverAbort,
    _check_state,
    dt_rule,
    integrate,
    make_time_plan,
    rk3_registers,
    ssp_rk3_step,
)


def test_dt_rule_values():
    assert dt_rule(2, 0.1) == pytest.approx(0.005)
    assert dt_rule(5, 0.1) == pytest.approx(0.01 / 20.0)
    assert dt_rule(3, 1.0) == pytest.approx(0.05)
    assert dt_rule(4, 0.5) == pytest.approx(0.5 ** (5.0 / 3.0) / 20.0)
    with pytest.raises(ValueError):
        dt_rule(7, 0.1)


def test_time_plan_lands_on_final_time():
    plan = make_time_plan(0.25, 0.03)
    total = (plan.steps - 1) * plan.dt + plan.last_dt
    assert total == pytest.approx(0.25, abs=1e-15)
    assert 0.0 < plan.last_dt <= plan.dt + 1e-15
    exact = make_time_plan(1.0, 0.25)
    assert exact.steps == 4 and exact.last_dt == pytest.approx(0.25)
    for t_final, dt in ((math.inf, 0.1), (1.0, math.nan), (math.nan, 0.1), (1.0, math.inf),
                        (0.0, 0.1)):
        with pytest.raises(ValueError, match="final time and dt must be positive and finite"):
            make_time_plan(t_final, dt)


def test_time_plan_of_too_many_steps_names_its_keys():
    # t_final / dt overflows: a subnormal step, or a final time far beyond it
    for t_final, dt in ((0.5, 1e-310), (1e300, 1e-10)):
        with pytest.raises(ValueError, match="'t_final' / 'dt'"):
            make_time_plan(t_final, dt)


def test_time_plan_whose_step_does_not_move_the_clock_names_its_keys():
    # t_final / dt is finite, about 2.5e299 and 9e15 steps, but t_final + dt == t_final
    for t_final, dt in ((0.25, 1e-300), (1.0, 2.0**-54)):
        with pytest.raises(ValueError, match="'t_final' / 'dt'"):
            make_time_plan(t_final, dt)
    # one ulp of 1.0 still moves the clock
    assert make_time_plan(1.0, 2.0**-52).steps == 2**52


def test_rk3_identity_for_zero_rhs():
    state = np.array([1.0, -2.0, 3.0])
    out = ssp_rk3_step(state, lambda s: 0.0 * s, 0.1)
    assert np.allclose(out, state)


def test_rk3_scalar_decay_amplification():
    # u' = -u: one step multiplies by the cubic stability polynomial at -dt
    out = ssp_rk3_step(np.array([1.0]), lambda s: -s, 0.1)
    expected = 1.0 - 0.1 + 0.1**2 / 2 - 0.1**3 / 6
    assert out[0] == pytest.approx(expected, abs=1e-15)


def test_rk3_third_order_on_oscillator():
    # u'' = -omega^2 u as a 2x2 system; global error drops ~8x per dt halving
    omega = 3.0

    def rhs(s):
        return np.array([s[1], -(omega**2) * s[0]])

    errs = []
    for nsteps in (40, 80, 160):
        dt = 1.0 / nsteps
        s = np.array([1.0, 0.0])
        for _ in range(nsteps):
            s = ssp_rk3_step(s, rhs, dt)
        errs.append(abs(s[0] - np.cos(omega)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(2.9 <= sl <= 3.1 for sl in slopes)


def test_rk3_tuple_state():
    a = np.ones(3)
    b = np.zeros(3)
    out = ssp_rk3_step((a, b), lambda s: (s[1], -s[0]), 0.05)
    assert isinstance(out, tuple) and len(out) == 2


def test_integrate_zero_data():
    m = uniform_mesh_1d(-1, 1, 8)
    cfg = SolverConfig(p=2, q=1)
    u0 = DGField1D(m, 2)
    v0 = DGField1D(m, 1)
    u, v, trace = integrate(u0, v0, cfg, t_final=0.1)
    assert np.all(u.coeffs == 0.0) and np.all(v.coeffs == 0.0)
    assert max(trace.energies) == 0.0


def test_integrate_convergence_ratio():
    # smooth linear problem: halving h drops the final error ~2^(p+1)
    errs = []
    for n in (20, 40):
        m = uniform_mesh_1d(-1, 1, n)
        cfg = SolverConfig(p=2, q=1, flux=FluxParams.alternating())
        u0 = DGField1D.project(lambda x: np.sin(np.pi * x), m, 2)
        v0 = DGField1D.project(lambda x: -np.pi * np.cos(np.pi * x), m, 1)
        u, v, _ = integrate(u0, v0, cfg, t_final=0.25)
        from wavedg.diagnostics import l2_error

        errs.append(l2_error(u, lambda x: np.sin(np.pi * (x - 0.25))))
    assert errs[0] / errs[1] > 2.0**3 * 0.75


def test_integrate_frozen_state_without_penalty():
    m = uniform_mesh_1d(-1, 1, 16)
    cfg = SolverConfig(p=2, q=1, penalty=False)
    u0 = DGField1D(m, 2)
    u0.coeffs[:, 0] = np.where(np.abs(m.centers) < 0.5, 1.0, 0.5)
    v0 = DGField1D(m, 1)
    u, v, _ = integrate(u0, v0, cfg, t_final=0.25)
    assert np.max(np.abs(u.coeffs - u0.coeffs)) == 0.0


def test_integrate_blowup_detection():
    m = uniform_mesh_1d(-1, 1, 4)
    cfg = SolverConfig(p=2, q=1)
    u0 = DGField1D(m, 2)
    v0 = DGField1D(m, 1)
    u0.coeffs[:] = 1e11
    v0.coeffs[:] = 1e11
    with pytest.raises(SolverAbort):
        # dt far above the stability limit forces growth past the guard
        integrate(u0, v0, cfg, t_final=10.0, dt=5.0)


def test_energy_trace_csv(tmp_path):
    m = uniform_mesh_1d(-1, 1, 8)
    cfg = SolverConfig(p=2, q=1)
    u0 = DGField1D.project(lambda x: np.sin(np.pi * x), m, 2)
    v0 = DGField1D(m, 1)
    _, _, trace = integrate(u0, v0, cfg, t_final=0.05)
    path = tmp_path / "energy.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,energy"
    assert len(lines) == len(trace.times) + 1


def test_max_relative_growth_from_zero_energy_start():
    # cell-aligned piecewise-constant data start at E(0) ~ 1e-27; the growth
    # figure is relative to the trace's peak, not to that rounding-level start
    prob = EXAMPLES["ex3"]
    m = uniform_mesh_1d(-1, 1, 16)
    cfg = SolverConfig(p=2, q=1, flux=FluxParams.sommerfeld(1.0))
    u0 = DGField1D.project(prob.u0, m, 2)
    v0 = DGField1D.project(prob.u1, m, 1)
    _, _, trace = integrate(u0, v0, cfg, t_final=0.25)
    e = np.asarray(trace.energies)
    assert e[0] < 1e-20 * e.max()
    growth = trace.max_relative_growth()
    assert growth == pytest.approx(np.max(np.diff(e)) / e.max(), rel=1e-12)
    assert 0.0 < growth < 0.1


def test_max_relative_growth_decaying_and_zero_traces():
    decaying = EnergyTrace(times=[0.0, 0.1, 0.2], energies=[4.0, 3.0, 2.5])
    assert decaying.max_relative_growth() == pytest.approx(-0.5 / 4.0)
    assert EnergyTrace(times=[0.0, 0.1], energies=[0.0, 0.0]).max_relative_growth() == 0.0


def test_timestep_conservation_slope_central_flux():
    # with a conservative spatial operator the rk3 energy drift scales ~dt^3
    m = uniform_mesh_1d(-1, 1, 16)
    cfg = SolverConfig(p=2, q=1, damping=False, penalty=False, flux=FluxParams.central())
    u0 = DGField1D.project(lambda x: np.sin(np.pi * x), m, 2)
    v0 = DGField1D.project(lambda x: -np.pi * np.cos(np.pi * x), m, 1)
    from wavedg.diagnostics import energy

    e0 = energy(u0, v0)
    drifts = []
    for dt in (0.02, 0.01):
        u, v, _ = integrate(u0, v0, cfg, t_final=0.2, dt=dt)
        drifts.append(abs(energy(u, v) - e0) / e0)
    slope = np.log2(drifts[0] / drifts[1])
    assert 2.5 < slope < 3.5


def test_rk3_in_place_matches_out_of_place_bit_for_bit():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((5, 5))

    def rhs(s):
        return (np.tanh(s[1] @ mat), -np.sin(s[0]) * s[1])

    state = (rng.standard_normal((7, 5)), rng.standard_normal((7, 5)))
    want = ssp_rk3_out_of_place(state, rhs, 0.07)
    keep = tuple(a.copy() for a in state)
    got = ssp_rk3_step(state, rhs, 0.07)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert all(np.array_equal(a, b) for a, b in zip(state, keep))
    # the same step written over the state, with reused registers
    work = rk3_registers(state)
    out = ssp_rk3_step(state, rhs, 0.07, out=state, work=work)
    assert out[0] is state[0] and out[1] is state[1]
    assert all(np.array_equal(a, b) for a, b in zip(state, want))


def test_rk3_derivative_may_alias_its_stage():
    # rhs hands back its own input array; every stage scales it before use
    a, b = np.linspace(0.0, 1.0, 4), np.linspace(1.0, 2.0, 4)
    got = ssp_rk3_step((a, b), lambda s: (s[1], -s[0]), 0.05)
    want = ssp_rk3_out_of_place((a, b), lambda s: (s[1], -s[0]), 0.05)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


def _coupled_rhs(mat):
    """A derivative whose every row reads every row and both fields of its stage."""
    def rhs(s):
        return (np.tanh(np.roll(s[1], 1, axis=0) @ mat), -np.sin(s[0][..., :3]) * s[1][::-1])
    return rhs


def _signed_zeros_and_subnormals(rng, shape):
    """Entries of either sign: zeros, subnormals and the smallest normals."""
    tiny = np.array([0.0, 0.0, 5e-324, 3e-320, 1e-310, np.finfo(float).smallest_normal])
    return rng.choice(tiny, size=shape) * rng.choice([-1.0, 1.0], size=shape)


@pytest.mark.parametrize("rows, block_values, tiny", [
    pytest.param(23, 100, False, id="23-100"),
    pytest.param(3, None, False, id="3-None"),
    pytest.param(17, 60, True, id="signed-zeros-and-subnormals")])
def test_rk3_blocked_stages_match_out_of_place_bit_for_bit(monkeypatch, rows, block_values, tiny):
    # 23 rows of 36 values in 12 blocks of 1 or 2 rows; a state of 3 rows,
    # less than one block of the built-in size; and 17 rows in 17 blocks of
    # +-0.0 and subnormals, where the sign of every zero is compared too
    if block_values is not None:
        monkeypatch.setattr("wavedg.field.BLOCK_VALUES", block_values)
    assert len(field.row_blocks(rows, 36, field.BLOCK_VALUES)) == {100: 12, 60: 17}.get(
        block_values, 1)
    rng = np.random.default_rng(rows)
    rhs = _coupled_rhs(rng.standard_normal((3, 6)))
    draw = _signed_zeros_and_subnormals if tiny else (lambda g, shape: g.standard_normal(shape))
    state = (draw(rng, (rows, 4, 6)), draw(rng, (rows, 4, 3)))
    want = ssp_rk3_out_of_place(state, rhs, 0.07)
    if tiny:  # -0.0 in the new state and in both derivatives; subnormals in all but dv,
        derivs = rhs(state)  # whose products of two subnormals are zeros
        for arr in (*want, *derivs):
            assert np.any(np.signbit(arr) & (arr == 0.0))
        for arr in (*want, derivs[0]):
            assert np.any((arr != 0.0) & (np.abs(arr) < np.finfo(float).smallest_normal))
    got = ssp_rk3_step(state, rhs, 0.07)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    out = ssp_rk3_step(state, rhs, 0.07, out=state, work=rk3_registers(state))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(out, want))


def test_rk3_derivative_may_alias_the_other_fields_stage_in_blocks(monkeypatch):
    # each field's derivative is the other field's stage: every block scales
    # both derivatives before it writes either register
    monkeypatch.setattr("wavedg.field.BLOCK_VALUES", 12)
    rng = np.random.default_rng(29)
    a, b = rng.standard_normal((11, 3)), rng.standard_normal((11, 3))
    assert len(field.row_blocks(11, 6, field.BLOCK_VALUES)) == 6
    got = ssp_rk3_step((a, b), lambda s: (s[1], s[0]), 0.05)
    want = ssp_rk3_out_of_place((a, b), lambda s: (s[1], s[0]), 0.05)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


def _reference_run(u0, v0, config, t_final, dt, rhs):
    """A loop of the out-of-place SSP-RK3 with the energies integrate records."""
    plan = make_time_plan(t_final, dt)
    state = (u0.coeffs.copy(), v0.coeffs.copy())
    kind = type(u0)
    energies, nonlinear = [], []
    for n in range(plan.steps + 1):
        if n:
            state = ssp_rk3_out_of_place(state, rhs, plan.dt if n < plan.steps else plan.last_dt)
        uf, vf = kind(u0.mesh, config.p, state[0]), kind(v0.mesh, config.q, state[1])
        energies.append(diagnostics.energy(uf, vf))
        nonlinear.append(diagnostics.source_energy(energies[-1], uf, config.source))
    return state, energies, nonlinear


def _assert_same_run(got, want):
    (u, v, trace), (state, energies, nonlinear) = got, want
    assert np.array_equal(u.coeffs, state[0]) and np.array_equal(v.coeffs, state[1])
    assert trace.energies == energies and trace.nonlinear == nonlinear


def test_integrate_matches_out_of_place_rk3_1d():
    prob = EXAMPLES["ex4"]
    m = uniform_mesh_1d(0.0, 1.0, 40)
    cfg = SolverConfig(p=2, q=1, chi=1, source=SOURCES[prob.source_name])
    u0 = DGField1D.project(prob.u0, m, 2)
    v0 = DGField1D.project(prob.u1, m, 1)
    dt = dt_rule(2, m.h)
    want = _reference_run(u0, v0, cfg, 12.5 * dt, dt,
                          lambda s: rhs_arrays_1d(s[0], s[1], m, cfg))
    _assert_same_run(integrate(u0, v0, cfg, 12.5 * dt, dt=dt), want)


def test_integrate_matches_out_of_place_rk3_2d(monkeypatch):
    # 23 x 16 cells in strips of at most 6 rows, damping, penalty and a source
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    prob = EXAMPLES["ex8"]
    m = cartesian_mesh_2d(*prob.domain, 23, 16)
    cfg = SolverConfig(p=2, q=1, chi=0, source=SOURCES[prob.source_name])
    u0 = DGField2D.project(prob.u0, m, 2)
    v0 = DGField2D.project(prob.u1, m, 1)
    dt = dt_rule(2, m.h)
    want = _reference_run(u0, v0, cfg, 6.5 * dt, dt,
                          lambda s: scheme2d.rhs_arrays_2d(s[0], s[1], m, cfg))
    _assert_same_run(integrate(u0, v0, cfg, 6.5 * dt, dt=dt), want)


def _ex8_run(n, steps):
    """ex8 on n x n cells: the fields, config and dt of `steps` steps."""
    prob = EXAMPLES["ex8"]
    m = cartesian_mesh_2d(*prob.domain, n, n)
    cfg = SolverConfig(p=2, q=1, chi=0, source=SOURCES[prob.source_name])
    dt = dt_rule(2, m.h)
    return DGField2D.project(prob.u0, m, 2), DGField2D.project(prob.u1, m, 1), cfg, steps * dt, dt


def test_integrate_gives_the_same_bytes_on_one_and_two_workers(monkeypatch):
    # 24 x 24 cells in strips of at most 4 rows: 6 strips
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    u0, v0, cfg, t_final, dt = _ex8_run(24, 20)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        runs.append(integrate(u0, v0, cfg, t_final, dt=dt, sample_every=3))
    (u1, v1, tr1), (u2, v2, tr2) = runs
    assert np.array_equal(u1.coeffs, u2.coeffs) and np.array_equal(v1.coeffs, v2.coeffs)
    assert tr1 == tr2 and len(tr1.times) == 8


@pytest.mark.parametrize("aborts", [False, True])
def test_integrate_ends_its_worker_threads(monkeypatch, aborts):
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    seen = []

    def counted(*args, _rhs=scheme2d.rhs_arrays_2d, **kwargs):
        out = _rhs(*args, **kwargs)
        seen.append(threading.active_count())
        return out

    monkeypatch.setattr(scheme2d, "rhs_arrays_2d", counted)
    u0, v0, cfg, t_final, dt = _ex8_run(24, 3)
    if aborts:
        u0.coeffs[:] = 2.0 * BLOWUP_LIMIT
    before = threading.active_count()
    if aborts:
        with pytest.raises(SolverAbort, match="step 1"):
            integrate(u0, v0, cfg, t_final, dt=dt)
    else:
        integrate(u0, v0, cfg, t_final, dt=dt)
    assert max(seen) == before + 2
    assert threading.active_count() == before


@pytest.mark.parametrize("dim", [1, 2])
def test_integrate_calls_the_module_level_rhs_and_energy(monkeypatch, dim):
    # a benchmark tracer replaces these functions in every wavedg module that
    # names them; integrate must reach each call through such a name
    calls = []
    for fn in (scheme1d.rhs_arrays_1d, scheme2d.rhs_arrays_2d, diagnostics.energy):
        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "wavedg" or name.startswith("wavedg."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, counted)
    if dim == 1:
        m, field, rhs = uniform_mesh_1d(0.0, 1.0, 16), DGField1D, "rhs_arrays_1d"
    else:
        m, field, rhs = cartesian_mesh_2d(-1.0, 1.0, -1.0, 1.0, 6, 5), DGField2D, "rhs_arrays_2d"
    cfg = SolverConfig(p=2, q=1, chi=0, source=SOURCES["cubic_4"])
    u0 = field(m, 2, np.full(field(m, 2).coeffs.shape, 0.1))
    v0 = field(m, 1)
    dt = dt_rule(2, m.h)
    _, _, trace = integrate(u0, v0, cfg, 6.5 * dt, dt=dt, sample_every=3)
    assert calls.count(rhs) == 3 * 7
    assert calls.count("energy") == len(trace.times) == 4
    assert len(calls) == 3 * 7 + 4


@pytest.mark.parametrize("bad, message", [
    (math.nan, "non-finite state detected"),
    (math.inf, "non-finite state detected"),
    (-math.inf, "non-finite state detected"),
    (2.0 * BLOWUP_LIMIT, "state magnitude exceeds blow-up threshold"),
    (-2.0 * BLOWUP_LIMIT, "state magnitude exceeds blow-up threshold"),
])
def test_check_state_aborts_with_message_and_step(bad, message):
    fine = np.ones((3, 4))
    arr = np.zeros((5, 2))
    arr[3, 1] = bad
    arr[4, 0] = bad
    with pytest.raises(SolverAbort) as info:
        _check_state((fine, arr), 17, 0.375)
    exc = info.value
    assert str(exc) == f"{message} in v at cell 3, t = 0.375 (step 17)"
    assert (exc.step, exc.time, exc.field, exc.cell) == (17, 0.375, "v", (3,))
    # a NaN next to a blow-up still reads as non-finite, as before
    arr[0, 0] = math.nan
    with pytest.raises(SolverAbort, match="non-finite") as info:
        _check_state((arr, fine), 2, 0.0125)
    assert (info.value.field, info.value.cell, info.value.time) == ("u", (0,), 0.0125)
    # 2D coefficients (nx, ny, modes): the cell is (i, j)
    coeffs = np.zeros((4, 3, 6))
    coeffs[2, 1, 5] = bad
    coeffs[3, 0, 0] = bad
    with pytest.raises(SolverAbort) as info:
        _check_state((coeffs, np.zeros((4, 3, 3))), 5, 1.5)
    assert str(info.value) == f"{message} in u at cell (2, 1), t = 1.5 (step 5)"
    assert info.value.cell == (2, 1)


def test_check_state_passes_bounded_states():
    _check_state((np.full((2, 2), BLOWUP_LIMIT), np.full(3, -BLOWUP_LIMIT)), 1, 0.5)
