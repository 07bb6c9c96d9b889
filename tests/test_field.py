"""Projection, evaluation, truncation projection and trace checks."""
import numpy as np
import pytest

from wavedg import field as dgfield
from wavedg.field import (
    DGField1D,
    DGField2D,
    interface_traces,
    write_columns_csv,
)
from wavedg.mesh import cartesian_mesh_2d, uniform_mesh_1d


def test_project_constant_reproduced():
    m = uniform_mesh_1d(-2, 3, 7)
    f = DGField1D.project(lambda x: 3.0 + 0 * x, m, 2)
    assert np.allclose(f.coeffs[:, 0], 3.0, atol=1e-14)
    assert np.allclose(f.coeffs[:, 1:], 0.0, atol=1e-14)


def test_project_linear_single_cell():
    m = uniform_mesh_1d(-1, 1, 1)
    f = DGField1D.project(lambda x: x, m, 2)
    assert f.coeffs[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)


def test_project_quadratic_onto_constants():
    m = uniform_mesh_1d(-1, 1, 1)
    f = DGField1D.project(lambda x: x**2, m, 0)
    assert f.coeffs[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_project_down_rules():
    m = uniform_mesh_1d(0, 1, 3)
    f = DGField1D.project(lambda x: np.sin(3 * x), m, 2)
    same = f.project_down(2)
    assert np.allclose(same.coeffs, f.coeffs)
    down = f.project_down(1)
    assert np.allclose(down.coeffs[:, :2], f.coeffs[:, :2])
    assert np.allclose(down.coeffs[:, 2], 0.0)
    # the level -1 convention falls back to the mean
    assert np.allclose(f.project_down(-1).coeffs, f.project_down(0).coeffs)
    with pytest.raises(ValueError):
        f.project_down(-2)


def test_project_down_idempotent():
    m = uniform_mesh_1d(0, 1, 4)
    f = DGField1D.project(lambda x: np.cos(5 * x), m, 3)
    once = f.project_down(1)
    twice = once.project_down(1)
    assert np.array_equal(once.coeffs, twice.coeffs)


def test_project_down_orthogonality():
    # (w - P^l w) is quadrature-orthogonal to every mode of degree <= l
    from wavedg.basis import gauss_rule, vandermonde

    m = uniform_mesh_1d(0, 2, 3)
    f = DGField1D.project(lambda x: np.exp(x), m, 3)
    level = 1
    resid = f.coeffs - f.project_down(level).coeffs
    rule = gauss_rule(6)
    v = vandermonde(rule.nodes, 3)
    vals = resid @ v.T
    for mode in range(level + 1):
        ip = np.sum(vals * v[:, mode][None, :] * rule.weights[None, :], axis=1)
        assert np.max(np.abs(ip)) < 1e-12


def test_eval_derivatives_and_location():
    m = uniform_mesh_1d(-1, 1, 1)
    f = DGField1D.project(lambda x: x, m, 2)
    assert f.eval(0.37, 1) == pytest.approx(1.0, abs=1e-13)
    const = DGField1D.project(lambda x: 0 * x + 5.0, m, 2)
    assert const.eval(0.2, 1) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        f.eval(1.5)


def test_eval_modal_midcell():
    m = uniform_mesh_1d(0.0, 0.5, 1)
    f = DGField1D(m, 2, np.array([[0.0, 0.0, 1.0]]))
    # reference midpoint xi = 0: P_2(0) = -1/2
    assert f.eval(0.25) == pytest.approx(-0.5, abs=1e-14)


def test_trace_consistency_with_eval():
    m = uniform_mesh_1d(0, 1, 4)
    f = DGField1D.project(lambda x: np.sin(2 * x), m, 3)
    left, right = f.endpoint_derivatives(1)
    for j in range(4):
        assert right[j, 0] == pytest.approx(
            float(f.coeffs[j] @ np.array([1.0, 1.0, 1.0, 1.0])), abs=1e-13)
    tr = interface_traces(f, 0)
    mids = 0.5 * (m.nodes[:-1] + m.nodes[1:])
    del mids
    assert np.allclose(tr.minus[1:, 0], right[:, 0])
    assert np.allclose(tr.plus[:-1, 0], left[:, 0])


def test_piecewise_constant_jump_sign():
    m = uniform_mesh_1d(0, 1, 2)
    f = DGField1D(m, 1, np.array([[1.0, 0.0], [0.5, 0.0]]))
    tr = interface_traces(f, 0)
    # interior interface: reading left-to-right, jump = plus - minus = -0.5
    assert tr.jumps()[1, 0] == pytest.approx(-0.5)


def test_constant_field_zero_jumps():
    m = uniform_mesh_1d(0, 1, 6)
    f = DGField1D.project(lambda x: 0 * x + 2.0, m, 2)
    tr = interface_traces(f, 2)
    assert np.max(np.abs(tr.jumps()[:, 0])) == 0.0
    # derivative traces amplify projection roundoff by 2/h per order
    assert np.max(np.abs(tr.jumps())) < 1e-12


def test_projection_jump_refinement_rate():
    # order-0 jumps of a smooth projection shrink like h^(p+1)
    errs = []
    for n in (160, 320):
        m = uniform_mesh_1d(-1, 1, n)
        f = DGField1D.project(lambda x: np.sin(np.pi * x), m, 2)
        errs.append(np.max(np.abs(interface_traces(f, 0).jumps()[:, 0])))
    ratio = errs[0] / errs[1]
    assert 6.0 < ratio < 10.0


def test_neumann_trace_mirror():
    m = uniform_mesh_1d(0, 1, 3, boundary="neumann")
    f = DGField1D.project(lambda x: x**2 + x, m, 2)
    tr = interface_traces(f, 2)
    assert tr.minus[0, 0] == pytest.approx(tr.plus[0, 0])
    assert tr.minus[0, 1] == pytest.approx(-tr.plus[0, 1])
    assert tr.minus[0, 2] == pytest.approx(tr.plus[0, 2])
    assert tr.plus[-1, 1] == pytest.approx(-tr.minus[-1, 1])


def test_2d_projection_and_center_values():
    m = cartesian_mesh_2d(0, 1, 0, 1, 3, 2)
    f = DGField2D.project(lambda x, y: 2.0 + 0 * x * y, m, 2)
    assert np.allclose(f.coeffs[..., 0], 2.0, atol=1e-13)
    assert np.allclose(f.coeffs[..., 1:], 0.0, atol=1e-13)
    g = DGField2D.project(lambda x, y: x + 2 * y, m, 2)
    centers = g.center_values()
    xc, yc = np.meshgrid(m.xcenters, m.ycenters, indexing="ij")
    assert np.allclose(centers, xc + 2 * yc, atol=1e-13)


def test_2d_eval_and_project_down():
    m = cartesian_mesh_2d(-1, 1, -1, 1, 2, 2)
    f = DGField2D.project(lambda x, y: x**2 * 0 + x * y, m, 2)
    assert f.eval(0.3, -0.4) == pytest.approx(0.3 * -0.4, abs=1e-13)
    assert f.eval(0.3, -0.4, orders=(1, 0)) == pytest.approx(-0.4, abs=1e-12)
    down = f.project_down(1)
    # x*y has total degree 2: the degree-1 truncation drops it cellwise
    total = down.modes.sum(axis=1)
    assert np.allclose(down.coeffs[..., total > 1], 0.0)
    assert np.allclose(f.project_down(-1).coeffs, f.project_down(0).coeffs)


def test_2d_tensor_trace_consistency():
    # a polynomial inside the total-degree space is reproduced exactly
    m = cartesian_mesh_2d(0, 2, 0, 1, 3, 3)
    f = DGField2D.project(lambda x, y: x**3 - 2 * x**2 * y + 0.5 * y, m, 3)
    x0, y0 = 1.234, 0.777
    exact = x0**3 - 2 * x0**2 * y0 + 0.5 * y0
    assert f.eval(x0, y0) == pytest.approx(exact, abs=1e-12)


def test_write_columns_csv_reads_as_per_value_format(tmp_path, monkeypatch):
    # chunks of 4 rows over 11: two full chunks and a short one
    monkeypatch.setattr(dgfield, "CSV_CHUNK_ROWS", 4)
    a = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308,
                  1.0 / 3.0, 2.2250738585072014e-308, -123456789.125, 1e-300])
    cols = {"a": a, "b": np.arange(11), "c": a[::-1] * 0.7}
    path = tmp_path / "cols.csv"
    write_columns_csv(path, cols)
    want = "a,b,c\n" + "".join(
        ",".join(f"{float(cols[k][i]):.17e}" for k in cols) + "\n" for i in range(11))
    assert path.read_text() == want
    write_columns_csv(path, {"t": np.array([])})
    assert path.read_text() == "t\n"
