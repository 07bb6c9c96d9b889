"""Norms, convergence fits, oscillation metrics and front extraction."""
import numpy as np
import pytest

from wavedg.diagnostics import (
    ConvergenceTable,
    compare_front_positions,
    energy,
    l2_error,
    level_crossings,
    merge_close,
    oscillation_metrics,
)
from wavedg.field import DGField1D, DGField2D
from wavedg.mesh import cartesian_mesh_2d, uniform_mesh_1d
from wavedg.scheme1d import SOURCES


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


def test_energy_nonlinear_form():
    m = uniform_mesh_1d(-1, 1, 16)
    u = DGField1D.project(lambda x: 0 * x + 0.5, m, 2)
    v = DGField1D(m, 1)
    src = SOURCES["sine_gordon"]
    # constant u: gradient energy 0; G(0.5) = 1 - cos(0.5) over |domain| = 2
    expected = 2.0 * (1.0 - np.cos(0.5))
    assert energy(u, v, source=src) == pytest.approx(expected, rel=1e-12)
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
    assert t.saturated
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
