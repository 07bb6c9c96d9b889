"""Per-dimension discretizations: meshes, samples, snapshots and comparator profiles."""
import numpy as np
import pytest

from wavedg import scheme1d, scheme2d
from wavedg.discretization import DISCRETIZATIONS, Discretization1D, Discretization2D
from wavedg.field import DGField1D, DGField2D
from wavedg.mesh import Mesh1D, Mesh2D
from wavedg.problems import EXAMPLES
from wavedg.scheme1d import SolverConfig


def test_dimensions_key_the_mesh_dim():
    assert DISCRETIZATIONS == {1: Discretization1D, 2: Discretization2D}
    assert (Mesh1D.dim, Mesh2D.dim) == (1, 2)
    for key in ("ex1", "ex6"):
        disc = DISCRETIZATIONS[EXAMPLES[key].dim].build(EXAMPLES[key], 4)
        assert disc.mesh.summary()["dim"] == EXAMPLES[key].dim == disc.mesh.dim


def test_build_makes_the_mesh_only():
    flat = Discretization1D.build(EXAMPLES["ex2"], 12)
    assert flat.mesh.ncells == 12 and flat.mesh.boundary == "neumann"
    assert np.array_equal(flat.mesh.nodes, np.linspace(-40.0, 40.0, 13))
    moved = Discretization1D.build(EXAMPLES["ex2"], 12, perturb=0.2, seed=3)
    assert moved.mesh.nodes[[0, -1]].tolist() == [-40.0, 40.0]
    assert not np.array_equal(moved.mesh.nodes, flat.mesh.nodes)
    square = Discretization2D.build(EXAMPLES["ex8"], 5)
    assert (square.mesh.nx, square.mesh.ny) == (5, 5)
    for disc in (flat, moved, square):
        assert not {"rhs", "close", "config", "out", "pool", "stepping", "workers"} & set(dir(disc))
    # the kernel's stepping yields the right-hand side of a state, a pair of the state's shapes
    cfg = SolverConfig(p=2, q=1, chi=0)
    for kernel, disc, state in ((scheme1d, flat, (np.ones((12, 3)), np.ones((12, 2)))),
                                (scheme2d, square, (np.ones((5, 5, 6)), np.ones((5, 5, 3))))):
        with kernel.stepping(disc.mesh, cfg) as rhs:
            assert [a.shape for a in rhs(state)] == [a.shape for a in state]


def test_snapshots_hold_the_sampled_values(tmp_path):
    d1 = Discretization1D.build(EXAMPLES["ex1"], 6)
    u = DGField1D.project(np.sin, d1.mesh, 2)
    d1.write_snapshot(tmp_path / "a.csv", u, u0=u, exact=np.cos)
    table = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
    assert open(tmp_path / "a.csv").readline() == "x,u,u0,exact\n"
    assert np.array_equal(table[:, 1], d1.samples(u)) and np.array_equal(table[:, 1], table[:, 2])
    assert np.array_equal(table[:, 3], np.cos(d1.mesh.centers))
    d2 = Discretization2D.build(EXAMPLES["ex8"], 3)
    f = DGField2D.project(lambda x, y: x + 10.0 * y, d2.mesh, 2)
    d2.write_snapshot(tmp_path / "b.csv", f, u0=f, exact=np.cos)
    table = np.loadtxt(tmp_path / "b.csv", delimiter=",", skiprows=1)
    assert open(tmp_path / "b.csv").readline() == "x,y,u\n"
    assert np.array_equal(table[:, 2], d2.samples(f))
    assert table[:, 2] == pytest.approx(table[:, 0] + 10.0 * table[:, 1], abs=1e-12)


def test_2d_profile_is_the_row_nearest_the_problem_row():
    prob = EXAMPLES["ex8"]  # profile row y = 0.3625
    disc = Discretization2D.build(prob, 8)
    f = DGField2D.project(lambda x, y: x + 10.0 * y, disc.mesh, 2)
    assert disc.mesh.ycenters[5] == 0.375
    assert disc.profile(f, prob) == pytest.approx(disc.mesh.xcenters + 3.75, abs=1e-12)
