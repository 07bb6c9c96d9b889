"""CTCS comparator: CFL guards, trivial invariance, second-order accuracy,
and the blocked leapfrog against its whole-array form, bit for bit."""
import numpy as np
import pytest

from oracles import ctcs_roll_reference_1d, ctcs_roll_reference_2d
from wavedg import reference
from wavedg.reference import (
    FDGrid,
    ctcs_solve_1d,
    ctcs_solve_2d,
    make_grid_1d,
    make_grid_2d,
)
from wavedg.scheme1d import SOURCES


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
@pytest.mark.parametrize("points_per_block", [None, 16, 1])
def test_leapfrog_1d_matches_roll_form_bit_for_bit(monkeypatch, source, points_per_block):
    if points_per_block is not None:
        monkeypatch.setattr(reference, "POINTS_PER_BLOCK", points_per_block)
    grid, steps = make_grid_1d(0.0, 1.0, 50, 0.3)
    g = SOURCE_CASES[source]
    x, u = ctcs_solve_1d(_u0_1d, _u1_1d, g, grid, steps)
    xo, uo = ctcs_roll_reference_1d(_u0_1d, _u1_1d, g, grid, steps)
    assert np.array_equal(x, xo) and np.array_equal(u, uo) and _same_bits(u, uo)


def _u0_2d(x, y):
    inside = (x > 0.2) & (x < 0.45) & (y > 0.5) & (y < 1.1)
    return np.sin(2 * np.pi * x) * np.cos(np.pi * y) + np.where(inside, 0.6, 0.0)


def _u1_2d(x, y):
    return 0.5 * np.cos(2 * np.pi * (x + 2.0 * y))


def _signed_zeros(x, y):
    return -0.0 * x * y


# (nx, ny, rows per block): nx below, equal to and not a multiple of the
# block height, nx = 2 (in one block, and in 1-row blocks whose two ghosts
# are the same row), and one block at the built-in size
GRID_CASES = [(3, 5, 4), (4, 5, 4), (11, 5, 4), (2, 3, 4), (2, 3, 1), (9, 14, None)]


@pytest.mark.parametrize("source", SOURCE_CASES)
@pytest.mark.parametrize("nx, ny, rows", GRID_CASES)
def test_leapfrog_2d_matches_roll_form_bit_for_bit(monkeypatch, nx, ny, rows, source):
    if rows is not None:
        monkeypatch.setattr(reference, "POINTS_PER_BLOCK", rows * ny)
    # nx != ny and dx != dy: a mixed-up axis would show
    grid, steps = make_grid_2d(0.0, 1.0, 0.0, 1.7, nx, ny, 0.4)
    g = SOURCE_CASES[source]
    x, y, u = ctcs_solve_2d(_u0_2d, _u1_2d, g, grid, steps)
    xo, yo, uo = ctcs_roll_reference_2d(_u0_2d, _u1_2d, g, grid, steps)
    assert np.array_equal(x, xo) and np.array_equal(y, yo)
    assert np.array_equal(u, uo) and _same_bits(u, uo)


@pytest.mark.parametrize("source", SOURCE_CASES)
def test_leapfrog_2d_special_data_match_roll_form(monkeypatch, source):
    # signed zeros, and a scalar initial velocity, in 3-row blocks
    monkeypatch.setattr(reference, "POINTS_PER_BLOCK", 3 * 6)
    grid, steps = make_grid_2d(-1.0, 1.0, -1.0, 0.5, 7, 6, 0.3)
    g = SOURCE_CASES[source]
    for u0, u1 in ((_signed_zeros, _signed_zeros), (_u0_2d, lambda x, y: 0.25)):
        _, _, u = ctcs_solve_2d(u0, u1, g, grid, steps)
        _, _, uo = ctcs_roll_reference_2d(u0, u1, g, grid, steps)
        assert _same_bits(u, uo)


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
        monkeypatch.setattr(reference, "POINTS_PER_BLOCK", rows * 14)
    g = SOURCES["cubic_4"].g
    grid, steps = make_grid_2d(0.0, 1.0, 0.0, 1.7, 9, 14, 0.4)
    flipped, steps_f = make_grid_2d(0.0, 1.7, 0.0, 1.0, 14, 9, 0.4)
    assert steps_f == steps and flipped.dt == grid.dt
    _, _, u = ctcs_solve_2d(_u0_2d, _u1_2d, g, grid, steps)
    _, _, ut = ctcs_solve_2d(lambda x, y: _u0_2d(y, x), lambda x, y: _u1_2d(y, x),
                             g, flipped, steps)
    assert _same_bits(ut, u.T)
