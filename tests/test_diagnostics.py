"""Norms, convergence fits, oscillation metrics and front extraction."""
import numpy as np
import pytest

from wavedg import basis
from wavedg.diagnostics import (
    ConvergenceTable,
    bin_average,
    compare_front_positions,
    empty_bins,
    energy,
    gradient_l2_error,
    l2_error,
    level_crossings,
    merge_close,
    oscillation_metrics,
    source_energy,
    source_integral,
)
from wavedg.field import DGField1D, DGField2D, n_modes
from wavedg.mesh import cartesian_mesh_2d, uniform_mesh_1d
from wavedg.problems import EXAMPLES
from wavedg.reference import make_grid_1d
from wavedg.scheme1d import SOURCES, SolverConfig


def test_l2_error_exact_polynomial():
    m = uniform_mesh_1d(0, 1, 5)
    f = DGField1D.project(lambda x: 1 + 2 * x + x**2, m, 2)
    assert l2_error(f, lambda x: 1 + 2 * x + x**2) < 1e-12


def test_l2_error_constant_reference():
    m = uniform_mesh_1d(-1, 1, 4)
    f = DGField1D(m, 2)
    assert l2_error(f, lambda x: 0 * x + 1.0) == pytest.approx(np.sqrt(2.0), abs=1e-13)


def test_l2_error_norm_properties():
    rng = np.random.default_rng(2)
    m = uniform_mesh_1d(0, 1, 4)
    zero = lambda x: 0 * x
    for _ in range(5):
        a = DGField1D(m, 2, rng.standard_normal((4, 3)))
        b = DGField1D(m, 2, rng.standard_normal((4, 3)))
        ab = DGField1D(m, 2, a.coeffs + b.coeffs)
        assert l2_error(ab, zero) <= l2_error(a, zero) + l2_error(b, zero) + 1e-12


def test_l2_error_2d():
    m = cartesian_mesh_2d(0, 1, 0, 1, 3, 3)
    f = DGField2D.project(lambda x, y: x * y, m, 2)
    assert l2_error(f, lambda x, y: x * y) < 1e-12
    g = DGField2D(m, 2)
    assert l2_error(g, lambda x, y: 0 * x + 1.0) == pytest.approx(1.0, abs=1e-13)


def test_gradient_error_2d():
    # x*y + x^2 has total degree 2, so its p = 2 projection is exact; hx != hy
    mesh = cartesian_mesh_2d(0.0, 0.7, 0.0, 0.9, 6, 5)
    f = DGField2D.project(lambda x, y: x * y + x**2, mesh, 2)
    assert gradient_l2_error(f, lambda x, y: y + 2 * x, lambda x, y: x) < 1e-12
    # a u_y off by one everywhere: the error is the square root of the area
    off = gradient_l2_error(f, lambda x, y: y + 2 * x, lambda x, y: x + 1.0)
    assert off == pytest.approx(np.sqrt(0.7 * 0.9), abs=1e-12)
    with pytest.raises(ValueError, match="exact_dy"):
        gradient_l2_error(f, lambda x, y: y + 2 * x, exact_dy=None)


def test_energy_nonlinear_form():
    m = uniform_mesh_1d(-1, 1, 16)
    u = DGField1D.project(lambda x: 0 * x + 0.5, m, 2)
    v = DGField1D(m, 1)
    src = SOURCES["sine_gordon"]
    # constant u: gradient energy 0; G(0.5) = 1 - cos(0.5) over |domain| = 2
    expected = 2.0 * (1.0 - np.cos(0.5))
    assert source_energy(energy(u, v), u, src) == pytest.approx(expected, rel=1e-12)
    assert energy(u, v) == pytest.approx(0.0, abs=1e-20)


def test_energy_refinement_invariance():
    # gradient part: the derivative of an L2 projection approximates u_x at
    # order p, and the squared-norm difference inherits that rate through a
    # non-cancelling cross term (boundary terms of integration by parts)
    vals = []
    for n in (20, 40, 80):
        m = uniform_mesh_1d(-1, 1, n)
        u = DGField1D.project(lambda x: np.sin(np.pi * x), m, 2)
        vals.append(energy(u, DGField1D(m, 1)))
    d = [abs(v - np.pi**2) for v in vals]
    assert d[0] / d[1] > 2.0**2 * 0.8
    assert d[1] / d[2] > 2.0**2 * 0.8
    # L2 part: plain best-approximation squared error, rate 2(q+1)
    vals_v = []
    for n in (20, 40, 80):
        m = uniform_mesh_1d(-1, 1, n)
        v = DGField1D.project(lambda x: np.sin(np.pi * x), m, 1)
        vals_v.append(energy(DGField1D(m, 2), v))
    dv = [abs(x - 1.0) for x in vals_v]
    assert dv[0] / dv[1] > 2.0**4 * 0.8
    assert dv[1] / dv[2] > 2.0**4 * 0.8


def test_fit_rates_examples():
    t = ConvergenceTable(ns=[10, 20], hs=[0.1, 0.05], errors=[1e-2, 1.25e-3])
    assert t.pairwise_slopes()[0] == pytest.approx(3.0, abs=1e-12)
    assert t.least_squares_slope() == pytest.approx(3.0, abs=1e-12)
    flat = ConvergenceTable(ns=[10, 20], hs=[0.1, 0.05], errors=[1e-2, 1e-2])
    assert flat.pairwise_slopes()[0] == pytest.approx(0.0, abs=1e-12)
    cubic = ConvergenceTable(ns=[10, 20, 40], hs=[0.1, 0.05, 0.025],
                             errors=[1e-3 * (0.1 / h) ** -3 for h in (0.1, 0.05, 0.025)])
    assert cubic.least_squares_slope() == pytest.approx(3.0, abs=1e-10)


def test_fit_rates_saturated():
    t = ConvergenceTable(ns=[10, 20], hs=[0.1, 0.05], errors=[1e-2, 0.0])
    assert np.isnan(t.pairwise_slopes()[0]) and np.isnan(t.least_squares_slope())


def test_convergence_table_validation():
    with pytest.raises(ValueError):
        ConvergenceTable(ns=[20, 10], hs=[0.1, 0.05], errors=[1, 2])
    with pytest.raises(ValueError):
        ConvergenceTable(ns=[10], hs=[0.1, 0.05], errors=[1, 2])


def test_oscillation_metrics():
    r = oscillation_metrics(np.array([0.5, 0.8, 1.0, 0.9]), 0.5, 1.0)
    assert r.overshoot == 0.0 and r.undershoot == 0.0
    assert r.total_variation == pytest.approx(0.3 + 0.2 + 0.1)
    r2 = oscillation_metrics(np.array([0.9, 1.05]), 0.0, 1.0)
    assert r2.overshoot == pytest.approx(0.05)
    r3 = oscillation_metrics(np.array([-0.2, 0.5]), 0.0, 1.0)
    assert r3.undershoot == pytest.approx(0.2)


def test_level_crossings_and_merge():
    x = np.linspace(0, 1, 101)
    u = np.where(x < 0.5, 1.0, 0.0)
    pos = level_crossings(x, u, 0.5)
    assert len(pos) == 1
    assert abs(pos[0] - 0.5) < 0.02
    merged = merge_close([0.1, 0.105, 0.5], 0.02)
    assert len(merged) == 2
    assert merged[0] == pytest.approx(0.1025)


def test_compare_front_positions():
    x = np.linspace(0, 1, 201)
    ref = np.where((x > 0.3) & (x < 0.7), 1.0, 0.0)
    test = np.where((x > 0.31) & (x < 0.69), 1.0, 0.0)
    cmpres = compare_front_positions(x, ref, x, test, coarse_h=0.01)
    assert cmpres.matches and len(cmpres.reference_fronts) == 2
    far = np.where((x > 0.4) & (x < 0.6), 1.0, 0.0)
    cmp2 = compare_front_positions(x, ref, x, far, coarse_h=0.01)
    assert not cmp2.matches


def test_compare_front_positions_reads_each_front_at_its_half_height():
    # ex5-like reference: a sharp rise 0 -> 2 into a plateau that keeps
    # climbing to 3.4, so the reference mid-range (1.7) sits at 85% of that
    # front's height; the test profile smears the rise over 8 cells
    h = 0.01
    x = (np.arange(100) + 0.5) * h
    plateau = np.where((x > 0.3) & (x < 0.7), 2.0 + 3.5 * (x - 0.3), 0.0)

    def smeared(centre):
        return np.where(x < 0.7, plateau * np.clip((x - centre) / (8 * h) + 0.5, 0.0, 1.0),
                        0.0)

    centred = compare_front_positions(x, plateau, x, smeared(0.3), coarse_h=h)
    assert centred.matches and len(centred.reference_fronts) == 2
    assert centred.max_offset <= 1.0 * h
    shifted = compare_front_positions(x, plateau, x, smeared(0.33), coarse_h=h)
    assert len(shifted.test_fronts) == 2 and not shifted.matches


def test_bin_average_rejects_cells_without_a_point():
    # the 1000 points of the ex5 comparator grid and the 1201 nodes of a 1200-cell mesh
    prob = EXAMPLES["ex5"]
    grid, _ = make_grid_1d(prob.domain[0], prob.domain[1], prob.comparator_intervals,
                           prob.t_final)
    nodes = uniform_mesh_1d(prob.domain[0], prob.domain[1], 1200).nodes
    assert len(grid.points) == 1000 and len(nodes) == 1201
    assert len(empty_bins(grid.points, nodes)) == 200
    with pytest.raises(ValueError, match="200 cells hold no point"):
        bin_average(grid.points, np.ones(1000), nodes)
    # with fewer cells than points every cell holds some, and the average of ones is one
    coarse = uniform_mesh_1d(prob.domain[0], prob.domain[1], 320).nodes
    assert len(empty_bins(grid.points, coarse)) == 0
    assert np.array_equal(bin_average(grid.points, np.ones(1000), coarse), np.ones(320))


def test_bin_average_counts_a_point_on_an_inner_edge_to_its_right():
    edges = [0.0, 1.0, 2.0, 3.0]
    assert bin_average([0.5, 1.0, 2.5], [1.0, 2.0, 3.0], edges).tolist() == [1.0, 2.0, 3.0]
    assert empty_bins([0.5, 1.5], edges).tolist() == [2]


@pytest.mark.parametrize("block_values", [64, 8192])
def test_source_integral_in_blocks_is_the_whole_array_sum(monkeypatch, block_values):
    # 64 quadrature values a block: 1D blocks of 8 to 10 cells (37 cells:
    # 9 and 10), 2D blocks of one x-row; 8,192: one block per 1D mesh, 2D
    # blocks of 3 to 12 x-rows (23 rows: 11 and 12)
    monkeypatch.setattr("wavedg.field.BLOCK_VALUES", block_values)
    rng = np.random.default_rng(71)
    fields = [DGField1D(uniform_mesh_1d(0.0, 2.0, n), p, rng.standard_normal((n, p + 1)))
              for n, p in ((37, 2), (320, 3), (1000, 4))]
    for (nx, ny), p in (((23, 16), 2), ((40, 30), 3), ((9, 70), 2)):
        mesh = cartesian_mesh_2d(0.0, 1.0, -1.0, 1.0, nx, ny)
        fields.append(DGField2D(mesh, p, rng.standard_normal((nx, ny, n_modes(p)))))
    for f in fields:
        q = f.gauss_points(f.degree + 3)
        for source in SOURCES.values():
            whole = q.integrate(source.antiderivative_G(q.values(f.coeffs)))
            assert source_integral(f, source) == whole


def test_source_integral_and_the_kernels_read_one_volume_rule(monkeypatch):
    # basis.volume_quadrature_points owns the rule: patched, both readers follow it
    rng = np.random.default_rng(73)
    mesh = cartesian_mesh_2d(0.0, 1.0, -1.0, 1.0, 7, 5)
    fields = [DGField1D(uniform_mesh_1d(0.0, 2.0, 9), 3, rng.standard_normal((9, 4))),
              DGField2D(mesh, 2, rng.standard_normal((7, 5, n_modes(2))))]
    source = SOURCES["sine_gordon"]

    def integral(f, nq):
        q = f.gauss_points(nq)
        return q.integrate(source.antiderivative_G(q.values(f.coeffs)))

    assert SolverConfig(p=3, q=2).quad_points == 6
    assert [source_integral(f, source) for f in fields] == [integral(f, f.degree + 3) for f in fields]
    monkeypatch.setattr(basis, "volume_quadrature_points", lambda degree: degree + 7)
    assert SolverConfig(p=3, q=2).quad_points == 10
    for f in fields:
        assert source_integral(f, source) == integral(f, f.degree + 7)
        assert source_integral(f, source) != integral(f, f.degree + 3)
