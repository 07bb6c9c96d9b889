"""CTCS comparator: CFL guards, trivial invariance, second-order accuracy,
and the blocked leapfrog against its whole-array form, bit for bit, on any
number of workers."""
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import ctcs_roll_reference_1d, ctcs_roll_reference_2d
from wavedg import reference
from wavedg.problems import EXAMPLES, make_custom_problem
from wavedg.reference import (
    FDGrid,
    ctcs_solve_1d,
    ctcs_solve_2d,
    make_grid_1d,
    make_grid_2d,
)
from wavedg.scheme1d import SOURCES


def test_comparator_plan_of_too_many_steps_names_t_final():
    with pytest.raises(ValueError, match="'t_final'"):
        make_grid_1d(0.0, 1.0, 1000, 1e306)
    with pytest.raises(ValueError, match="'t_final'"):
        make_grid_2d(-1.0, 1.0, -1.0, 1.0, 1000, 1000, 1e306)


def test_comparator_plan_whose_step_does_not_move_the_clock_names_t_final():
    # t_final / dt is finite (about 2e303 and 1.4e303 steps), but t_final + dt == t_final
    with pytest.raises(ValueError, match="'t_final'"):
        make_grid_1d(0.0, 1.0, 1000, 1e300)
    with pytest.raises(ValueError, match="'t_final'"):
        make_grid_2d(-1.0, 1.0, -1.0, 1.0, 1000, 1000, 1e300)


def test_cfl_guard():
    with pytest.raises(ValueError):
        FDGrid((0.0,), (1.0,), (10,), dt=0.2)  # dx = 0.1 < dt
    FDGrid((0.0,), (1.0,), (10,), dt=0.05)
    with pytest.raises(ValueError):
        FDGrid((0, 0), (1, 1), (10, 10), dt=0.09)  # limit 1/sqrt(200) = 0.0707
    FDGrid((0, 0), (1, 1), (10, 10), dt=0.07)
    # 1D and a 2D grid with dx != dy: dt exactly at the limit passes, 1e-9
    # above it does not (the guard allows 1e-12); n < 2 and lo >= hi fail
    # on every axis
    for lo, hi, n, limit in [((0.0,), (1.0,), (10,), 0.1),
                             ((0.0, -1.0), (1.0, 2.0), (10, 40), 1.0 / np.hypot(10.0, 40 / 3.0))]:
        FDGrid(lo, hi, n, dt=limit)
        for bad_dt in (limit * (1.0 + 1e-9), 0.0, -limit, float("nan")):
            with pytest.raises(ValueError, match="CFL"):
                FDGrid(lo, hi, n, dt=bad_dt)
        for axis in range(len(n)):
            for count in (1, 0):
                with pytest.raises(ValueError, match="two grid intervals"):
                    FDGrid(lo, hi, n[:axis] + (count,) + n[axis + 1:], dt=1e-3)
            for top in (lo[axis], lo[axis] - 1.0):
                with pytest.raises(ValueError, match="degenerate"):
                    FDGrid(lo, hi[:axis] + (top,) + hi[axis + 1:], n, dt=1e-3)


def test_comparator_plans_are_pinned():
    # the step counts and dt of the ex4/ex5 and ex7/ex8 comparator grids, bit for bit
    grid, steps = make_grid_1d(0, 1, 1000, 0.25)
    assert (steps, grid.dt) == (500, 0.25 / 500)
    assert grid.n == (1000,) and grid.points[1] == 1.0 / 1000
    grid, steps = make_grid_2d(-1, 1, -1, 1, 1000, 1000, 0.25)
    assert (steps, grid.dt) == (354, 0.25 / 354)
    assert grid.n == (1000, 1000) and grid.spacing == (2 / 1000, 2 / 1000)
    assert np.array_equal(grid.xpoints, grid.ypoints) and grid.xpoints[0] == -1.0


def test_constant_state_is_preserved():
    grid, steps = make_grid_1d(0.0, 1.0, 50, 0.3)
    x, u = ctcs_solve_1d(lambda x: 0 * x + 2.5, lambda x: 0 * x, None, grid, steps)
    assert np.allclose(u, 2.5, atol=1e-14)


def test_travelling_wave_second_order():
    errs = []
    for n in (100, 200, 400):
        grid, steps = make_grid_1d(-1.0, 1.0, n, 0.25)
        x, u = ctcs_solve_1d(
            lambda x: np.sin(np.pi * x), lambda x: -np.pi * np.cos(np.pi * x), None,
            grid, steps)
        errs.append(np.max(np.abs(u - np.sin(np.pi * (x - 0.25)))))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for sl in slopes:
        assert 1.8 <= sl <= 2.2


def test_zero_data_2d():
    grid, steps = make_grid_2d(0, 1, 0, 1, 20, 20, 0.2)
    _, _, u = ctcs_solve_2d(lambda x, y: 0 * x, lambda x, y: 0 * x, None, grid, steps)
    assert np.max(np.abs(u)) == 0.0


def test_plane_wave_second_order_2d():
    errs = []
    sq2 = np.sqrt(2.0)
    for n in (40, 80, 160):
        grid, steps = make_grid_2d(-np.pi, np.pi, -np.pi, np.pi, n, n, 0.25)
        x, y, u = ctcs_solve_2d(
            lambda x, y: np.sin(x + y),
            lambda x, y: sq2 * np.cos(x + y),
            None, grid, steps)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        errs.append(np.max(np.abs(u - np.sin(xx + yy + sq2 * 0.25))))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for sl in slopes:
        assert 1.8 <= sl <= 2.2


def test_nonlinear_source_runs():
    grid, steps = make_grid_1d(0.0, 1.0, 200, 0.1)
    x, u = ctcs_solve_1d(
        lambda x: np.where((x > 0.4) & (x < 0.6), 1.0, 0.0),
        lambda x: 0 * x,
        lambda u: 160.0 * np.sin(u),
        grid, steps)
    assert np.all(np.isfinite(u))


@pytest.mark.parametrize("steps", [0, -3])
def test_steps_below_one_are_rejected(steps):
    grid, _ = make_grid_1d(0.0, 1.0, 50, 0.1)
    with pytest.raises(ValueError, match="steps"):
        ctcs_solve_1d(lambda x: np.sin(2 * np.pi * x), lambda x: 0 * x, None, grid, steps)
    grid2, _ = make_grid_2d(0, 1, 0, 1, 8, 8, 0.1)
    with pytest.raises(ValueError, match="steps"):
        ctcs_solve_2d(lambda x, y: x + y, lambda x, y: 0 * x, None, grid2, steps)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _each_cpu_count(monkeypatch):
    """Patch the usable CPUs to 1, 2, 3 and 8 in turn, yielding each count.  With ragged
    blocks the runs come out uneven: 3 blocks make runs of 1 and 2 blocks on 2 CPUs."""
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr("wavedg.field.usable_cpus", lambda n=cpus: n)
        yield cpus


SOURCE_CASES = {
    "none": None,
    "cubic": SOURCES["cubic_4"].g,
    "sine": SOURCES["sine_gordon_16"].g,
}


def _u0_1d(x):
    return np.sin(2 * np.pi * x) + np.where((x > 0.3) & (x < 0.55), 0.7, 0.0)


def _u1_1d(x):
    return 0.4 * np.cos(6 * np.pi * x)


@pytest.mark.parametrize("source", SOURCE_CASES)
@pytest.mark.parametrize("block_values", [None, 16, 1])
def test_leapfrog_1d_matches_roll_form_bit_for_bit(monkeypatch, source, block_values):
    # 50 points: one block, blocks of 12 and 13 points, or 50 blocks of one
    if block_values is not None:
        monkeypatch.setattr("wavedg.field.BLOCK_VALUES", block_values)
    grid, steps = make_grid_1d(0.0, 1.0, 50, 0.3)
    g = SOURCE_CASES[source]
    xo, uo = ctcs_roll_reference_1d(_u0_1d, _u1_1d, g, grid, steps)
    for _ in _each_cpu_count(monkeypatch):
        x, u = ctcs_solve_1d(_u0_1d, _u1_1d, g, grid, steps)
        assert np.array_equal(x, xo) and np.array_equal(u, uo) and _same_bits(u, uo)


def _u0_2d(x, y):
    inside = (x > 0.2) & (x < 0.45) & (y > 0.5) & (y < 1.1)
    return np.sin(2 * np.pi * x) * np.cos(np.pi * y) + np.where(inside, 0.6, 0.0)


def _u1_2d(x, y):
    return 0.5 * np.cos(2 * np.pi * (x + 2.0 * y))


def _signed_zeros(x, y):
    return -0.0 * x * y


# (nx, ny, most rows per block): nx below and equal to the block height,
# and above it in blocks of unequal heights (11 rows: 3, 4, 4), nx = 2 (in
# one block, and in 1-row blocks whose two ghosts are the same row), and
# one block at the built-in size
GRID_CASES = [(3, 5, 4), (4, 5, 4), (11, 5, 4), (2, 3, 4), (2, 3, 1), (9, 14, None)]


@pytest.mark.parametrize("source", SOURCE_CASES)
@pytest.mark.parametrize("nx, ny, rows", GRID_CASES)
def test_leapfrog_2d_matches_roll_form_bit_for_bit(monkeypatch, nx, ny, rows, source):
    if rows is not None:
        monkeypatch.setattr("wavedg.field.BLOCK_VALUES", rows * ny)
    # nx != ny and dx != dy: a mixed-up axis would show
    grid, steps = make_grid_2d(0.0, 1.0, 0.0, 1.7, nx, ny, 0.4)
    g = SOURCE_CASES[source]
    xo, yo, uo = ctcs_roll_reference_2d(_u0_2d, _u1_2d, g, grid, steps)
    for _ in _each_cpu_count(monkeypatch):
        x, y, u = ctcs_solve_2d(_u0_2d, _u1_2d, g, grid, steps)
        assert np.array_equal(x, xo) and np.array_equal(y, yo)
        assert np.array_equal(u, uo) and _same_bits(u, uo)


@pytest.mark.parametrize("source", SOURCE_CASES)
def test_leapfrog_2d_special_data_match_roll_form(monkeypatch, source):
    # signed zeros, and a scalar initial velocity, in 3-row blocks
    monkeypatch.setattr("wavedg.field.BLOCK_VALUES", 3 * 6)
    grid, steps = make_grid_2d(-1.0, 1.0, -1.0, 0.5, 7, 6, 0.3)
    g = SOURCE_CASES[source]
    for u0, u1 in ((_signed_zeros, _signed_zeros), (_u0_2d, lambda x, y: 0.25)):
        _, _, uo = ctcs_roll_reference_2d(u0, u1, g, grid, steps)
        for _ in _each_cpu_count(monkeypatch):
            _, _, u = ctcs_solve_2d(u0, u1, g, grid, steps)
            assert _same_bits(u, uo)


def _recording(fn, shapes):
    """fn, appending the shapes of each call's coordinates to shapes."""
    def call(*coords):
        shapes.append(tuple(np.shape(c) for c in coords))
        return fn(*coords)
    return call


def test_one_solve_takes_the_initial_data_on_the_open_axes():
    assert ctcs_solve_1d is ctcs_solve_2d is reference.ctcs_solve
    g = SOURCES["cubic_4"].g
    grid, steps = make_grid_2d(-1.0, 1.0, -1.0, 1.0, 60, 40, 0.1)
    cases = [(EXAMPLES[k].u0, EXAMPLES[k].u1) for k in ("ex7", "ex8")]
    cases += [(make_custom_problem(2, (-1.0, 1.0, -1.0, 1.0), kind, None, "periodic").u0,
               _u1_2d) for kind in ("sine", "gauss", "box")]
    for u0, u1 in cases:
        shapes = []
        x, y, u = ctcs_solve_2d(_recording(u0, shapes), _recording(u1, shapes), g, grid, steps)
        assert shapes == [((60, 1), (1, 40))] * 2
        # the whole-grid form: the initial data evaluated on full coordinate arrays
        xx, yy = np.meshgrid(x, y, indexing="ij")
        start, vel = u0(xx, yy), u1(xx, yy)
        _, _, uo = ctcs_solve_2d(lambda *_: start, lambda *_: vel, g, grid, steps)
        assert _same_bits(u, uo)
    shapes = []
    grid, steps = make_grid_1d(0.0, 1.0, 50, 0.3)
    x, u = ctcs_solve_1d(_recording(_u0_1d, shapes), _recording(_u1_1d, shapes), g, grid, steps)
    assert shapes == [((50,),)] * 2 and _same_bits(x, grid.points)


def test_leapfrog_1d_single_step_and_caller_data_kept():
    grid, _ = make_grid_1d(0.0, 1.0, 20, 0.1)
    data = _u0_1d(grid.points)
    kept = data.copy()
    _, u = ctcs_solve_1d(lambda x: data, _u1_1d, SOURCES["cubic_4"].g, grid, 1)
    _, uo = ctcs_roll_reference_1d(lambda x: data, _u1_1d, SOURCES["cubic_4"].g, grid, 1)
    assert _same_bits(u, uo) and _same_bits(data, kept)


@pytest.mark.parametrize("rows", [None, 4])
def test_transposed_data_give_the_transposed_field(monkeypatch, rows):
    if rows is not None:
        monkeypatch.setattr("wavedg.field.BLOCK_VALUES", rows * 14)
    g = SOURCES["cubic_4"].g
    grid, steps = make_grid_2d(0.0, 1.0, 0.0, 1.7, 9, 14, 0.4)
    flipped, steps_f = make_grid_2d(0.0, 1.7, 0.0, 1.0, 14, 9, 0.4)
    assert steps_f == steps and flipped.dt == grid.dt
    _, _, u = ctcs_solve_2d(_u0_2d, _u1_2d, g, grid, steps)
    _, _, ut = ctcs_solve_2d(lambda x, y: _u0_2d(y, x), lambda x, y: _u1_2d(y, x),
                             g, flipped, steps)
    assert _same_bits(ut, u.T)


def test_workers_on_a_grid_of_many_blocks_give_the_serial_bits(monkeypatch):
    # 200 x 300 points in 25 blocks of 8 rows: blocks long enough that the workers'
    # array work overlaps, so that work buffers shared between runs would show; up to
    # 8 workers, switching threads often
    monkeypatch.setattr("wavedg.field.BLOCK_VALUES", 8 * 300)
    g = SOURCES["cubic_4"].g
    grid, steps = make_grid_2d(0.0, 1.0, 0.0, 1.7, 200, 300, 0.1)
    _, _, uo = ctcs_roll_reference_2d(_u0_2d, _u1_2d, g, grid, steps)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in (2, 3, 8):
            monkeypatch.setattr("wavedg.field.usable_cpus", lambda n=cpus: n)
            _, _, u = ctcs_solve_2d(_u0_2d, _u1_2d, g, grid, steps)
            assert _same_bits(u, uo)
    finally:
        sys.setswitchinterval(interval)


def _count_executors(monkeypatch) -> list:
    """Make the leapfrog's executors record their worker counts in the list returned."""
    sizes = []

    def counted(workers, prefix):
        sizes.append(workers)
        return ThreadPoolExecutor(workers, prefix)

    monkeypatch.setattr(reference, "ThreadPoolExecutor", counted)
    return sizes


@pytest.mark.parametrize("rows, cpus, workers", [
    (None, 8, 0),    # one block of 11 x 14 points: no executor on any CPU count
    (1, 1, 0),       # 11 blocks of one row, one CPU: no executor
    (1, 2, 2),       # 11 blocks in runs of 5 and 6
    (4, 8, 3),       # blocks of 3, 4 and 4 rows: no more workers than blocks
])
def test_leapfrog_workers_follow_cpus_and_blocks(monkeypatch, rows, cpus, workers):
    if rows is not None:
        monkeypatch.setattr("wavedg.field.BLOCK_VALUES", rows * 14)
    monkeypatch.setattr("wavedg.field.usable_cpus", lambda: cpus)
    sizes = _count_executors(monkeypatch)
    callers = set()

    def g(u):
        callers.add(threading.current_thread().name)
        return SOURCES["cubic_4"].g(u)

    grid, steps = make_grid_2d(0.0, 1.0, 0.0, 1.7, 11, 14, 0.4)
    before = threading.active_count()
    _, _, u = ctcs_solve_2d(_u0_2d, _u1_2d, g, grid, steps)
    assert threading.active_count() == before
    _, _, uo = ctcs_roll_reference_2d(_u0_2d, _u1_2d, SOURCES["cubic_4"].g, grid, steps)
    assert _same_bits(u, uo)
    if workers:
        assert sizes == [workers]
        assert all(name.startswith("wavedg-leapfrog") for name in callers)
    else:
        assert sizes == []
        assert callers == {threading.current_thread().name}


def test_one_block_1d_grid_starts_no_thread(monkeypatch):
    # the ex4/ex5 comparator grid: 1000 points are one block, whatever the CPUs
    monkeypatch.setattr("wavedg.field.usable_cpus", lambda: 8)
    sizes = _count_executors(monkeypatch)
    grid, _ = make_grid_1d(0.0, 1.0, 1000, 0.25)
    ctcs_solve_1d(_u0_1d, _u1_1d, SOURCES["cubic_4"].g, grid, 5)
    assert sizes == []


def test_a_source_failing_in_a_worker_is_raised_in_the_caller(monkeypatch):
    # 11 blocks of one row in runs of 5 and 6; the fifth call fails, on a worker.
    # The autouse fixture checks that no worker outlives the solve.
    monkeypatch.setattr("wavedg.field.BLOCK_VALUES", 14)
    monkeypatch.setattr("wavedg.field.usable_cpus", lambda: 2)
    calls = itertools.count()
    failed_on = []

    def g(u):
        if next(calls) == 4:
            failed_on.append(threading.current_thread().name)
            raise RuntimeError("source failed")
        return 0.0 * u

    grid, steps = make_grid_2d(0.0, 1.0, 0.0, 1.7, 11, 14, 0.4)
    with pytest.raises(RuntimeError, match="source failed"):
        ctcs_solve_2d(_u0_2d, _u1_2d, g, grid, steps)
    assert failed_on and failed_on[0].startswith("wavedg-leapfrog")
