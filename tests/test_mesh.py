"""Mesh construction, perturbation and adjacency metadata."""
import numpy as np
import pytest

from wavedg.cli import main
from wavedg.mesh import Mesh1D, Mesh2D, cartesian_mesh_2d, perturb_mesh_1d, uniform_mesh_1d


def test_uniform_mesh_basics():
    m = uniform_mesh_1d(-1.0, 1.0, 4)
    assert m.ncells == 4
    assert np.allclose(m.widths, 0.5)
    assert uniform_mesh_1d(-1, 1, 160).h == pytest.approx(0.0125)
    single = uniform_mesh_1d(0.0, 1.0, 1)
    assert single.ncells == 1 and single.h == 1.0
    with pytest.raises(ValueError):
        uniform_mesh_1d(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        uniform_mesh_1d(1.0, 0.0, 4)


def test_widths_sum_to_domain_length():
    m = perturb_mesh_1d(uniform_mesh_1d(-1, 1, 160), 0.1, seed=3)
    assert m.widths.sum() == pytest.approx(2.0, rel=1e-14)


def test_perturbation_zero_fraction_identity():
    base = uniform_mesh_1d(-1, 1, 16)
    out = perturb_mesh_1d(base, 0.0, seed=42)
    assert np.array_equal(out.nodes, base.nodes)


def test_perturbation_deterministic():
    base = uniform_mesh_1d(-1, 1, 40)
    a = perturb_mesh_1d(base, 0.1, seed=11)
    b = perturb_mesh_1d(base, 0.1, seed=11)
    assert np.array_equal(a.nodes, b.nodes)
    c = perturb_mesh_1d(base, 0.1, seed=12)
    assert not np.array_equal(a.nodes, c.nodes)


def test_perturbation_width_bounds():
    base = uniform_mesh_1d(-1, 1, 160)
    h = base.h
    out = perturb_mesh_1d(base, 0.1, seed=5)
    # each cell end moves by at most 0.1 h, so widths stay in [0.8h, 1.2h]
    assert np.all(out.widths >= 0.8 * h - 1e-15)
    assert np.all(out.widths <= 1.2 * h + 1e-15)
    with pytest.raises(ValueError):
        perturb_mesh_1d(base, 0.5, seed=1)
    with pytest.raises(ValueError):
        perturb_mesh_1d(out, 0.1, seed=1)  # input must be uniform


def test_mesh_requires_increasing_nodes():
    with pytest.raises(ValueError):
        Mesh1D(np.array([0.0, 0.5, 0.4, 1.0]))


def test_cartesian_mesh_sizes():
    m = cartesian_mesh_2d(-np.pi, np.pi, -np.pi, np.pi, 10, 10)
    assert np.allclose(m.hx, 2 * np.pi / 10)
    assert np.allclose(m.hy, 2 * np.pi / 10)
    assert m.h == pytest.approx(2 * np.pi / 10 * np.sqrt(2))
    one = cartesian_mesh_2d(0, 1, 0, 2, 1, 1)
    assert one.h == pytest.approx(np.sqrt(5.0))
    with pytest.raises(ValueError):
        cartesian_mesh_2d(0, 0, 0, 1, 2, 2)


@pytest.mark.parametrize("domain, nx, ny", [
    ((-1.0, 1.0, -1.0, 1.0), 320, 320),
    ((-1.0, 1.0, -1.0, 1.0), 80, 80),
    ((0.0, 0.7, 0.0, 0.9), 9, 7),
    ((0.0, 1.0, 0.0, 2.0), 12, 12),
])
def test_2d_mesh_size_is_the_largest_cell_diagonal(domain, nx, ny):
    m = cartesian_mesh_2d(*domain, nx, ny)
    diagonals = np.sqrt(m.hx[:, None] ** 2 + m.hy[None, :] ** 2)
    assert m.h == float(diagonals.max())


@pytest.mark.parametrize("axis", ["xnodes", "ynodes"])
def test_2d_mesh_rejects_non_uniform_nodes(axis):
    nodes = {"xnodes": np.linspace(0.0, 1.0, 5), "ynodes": np.linspace(0.0, 2.0, 4)}
    nodes[axis] = np.array([0.0, 0.3, 0.5, 1.0])
    with pytest.raises(ValueError, match=f"{axis} must be uniformly spaced"):
        Mesh2D(**nodes)
    # the widths may spread by 1e-12 of the largest, as linspace's rounding needs
    nodes[axis] = np.array([0.0, 1.0, 2.0, 3.0 + 5e-13])
    assert Mesh2D(**nodes).summary()["boundary"] == "periodic"
    nodes[axis] = np.array([0.0, 1.0, 2.0, 3.0 + 2e-12])
    with pytest.raises(ValueError, match=f"{axis} must be uniformly spaced"):
        Mesh2D(**nodes)


@pytest.mark.parametrize("domain, nx, ny", [((0.0, 1.0, 0.0, 1.1), 2, 4050),
                                             ((0.0, 1.0, 0.0, 1.0), 2, 6850)])
def test_2d_mesh_accepts_its_own_linspace_nodes(domain, nx, ny):
    # linspace's widths here spread by more than 1e-12 of a width, but by only a few
    # ulps of the largest node; widths that differ by 1e-9 are still rejected
    nodes = np.linspace(domain[2], domain[3], ny + 1)
    widths = np.diff(nodes)
    assert widths.max() - widths.min() > 1e-12 * widths.max()
    m = cartesian_mesh_2d(*domain, nx, ny)
    assert m.ny == ny and m.ynodes.tobytes() == nodes.tobytes()
    nodes[ny // 2] += 1e-9
    with pytest.raises(ValueError, match="ynodes must be uniformly spaced"):
        Mesh2D(m.xnodes, nodes)


def test_2d_mesh_far_from_the_origin_runs_from_the_cli(tmp_path):
    # x in [100, 101]: linspace's widths spread by about an ulp of 101, 1.1e-12 of a width
    argv = ["energy", "--problem", "custom", "--dim", "2", "--domain", "100,101,0,1",
            "--ns", "80", "--t-final", "0.01", "--outdir", str(tmp_path)]
    assert main(argv) == 0


def test_periodic_interface_count_1d():
    # with periodic wrap, the two boundary interfaces carry the same state
    from wavedg.basis import endpoint_values
    from wavedg.field import DGField1D
    from wavedg.scheme1d import _traces

    m = uniform_mesh_1d(0, 1, 5)
    f = DGField1D.project(lambda x: x**2, m, 2)
    minus, plus = _traces(f.coeffs, m, endpoint_values(2, 1))
    assert minus.shape == plus.shape == (6, 2)
    assert np.allclose(minus[0], minus[-1])
    assert np.allclose(plus[-1], plus[0])
