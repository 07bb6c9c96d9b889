"""Projection, evaluation, trace and CSV checks."""
import builtins

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavedg import field as dgfield
from wavedg.basis import endpoint_values
from wavedg.diagnostics import source_integral
from wavedg.field import DGField1D, DGField2D, row_blocks, write_columns_csv
from wavedg.mesh import cartesian_mesh_2d, uniform_mesh_1d
from wavedg.reference import ctcs_solve_1d, make_grid_1d
from wavedg.scheme1d import SOURCES, _traces
from wavedg.timeint import ssp_rk3_step

from oracles import eval_1d, eval_2d


def _interface_traces(f: DGField1D, order: int):
    """(minus, plus) of f's derivatives up to order at every interface, as the RHS reads them."""
    return _traces(f.coeffs, f.mesh, endpoint_values(f.degree, order))


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


def test_eval_derivatives_and_location():
    m = uniform_mesh_1d(-1, 1, 1)
    f = DGField1D.project(lambda x: x, m, 2)
    assert eval_1d(f, 0.37, 1) == pytest.approx(1.0, abs=1e-13)
    const = DGField1D.project(lambda x: 0 * x + 5.0, m, 2)
    assert eval_1d(const, 0.2, 1) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        eval_1d(f, 1.5)


def test_eval_modal_midcell():
    m = uniform_mesh_1d(0.0, 0.5, 1)
    f = DGField1D(m, 2, np.array([[0.0, 0.0, 1.0]]))
    # reference midpoint xi = 0: P_2(0) = -1/2
    assert eval_1d(f, 0.25) == pytest.approx(-0.5, abs=1e-14)


def test_trace_consistency_with_eval():
    m = uniform_mesh_1d(0, 1, 4)
    f = DGField1D.project(lambda x: np.sin(2 * x), m, 3)
    minus, plus = _interface_traces(f, 1)
    for j in range(4):
        # P_m(+1) = 1 and P_m(-1) = (-1)^m
        assert minus[j + 1, 0] == pytest.approx(
            float(f.coeffs[j] @ np.array([1.0, 1.0, 1.0, 1.0])), abs=1e-13)
        assert plus[j, 0] == pytest.approx(
            float(f.coeffs[j] @ np.array([1.0, -1.0, 1.0, -1.0])), abs=1e-13)
    # a cell's left trace is the field at its left node, derivative included
    assert np.allclose(plus[:-1, 0], eval_1d(f, m.nodes[:-1]))
    assert np.allclose(plus[:-1, 1], eval_1d(f, m.nodes[:-1], 1))


def test_piecewise_constant_jump_sign():
    m = uniform_mesh_1d(0, 1, 2)
    f = DGField1D(m, 1, np.array([[1.0, 0.0], [0.5, 0.0]]))
    minus, plus = _interface_traces(f, 0)
    # interior interface: reading left-to-right, jump = plus - minus = -0.5
    assert (plus - minus)[1, 0] == pytest.approx(-0.5)


def test_constant_field_zero_jumps():
    m = uniform_mesh_1d(0, 1, 6)
    f = DGField1D.project(lambda x: 0 * x + 2.0, m, 2)
    minus, plus = _interface_traces(f, 2)
    assert np.max(np.abs((plus - minus)[:, 0])) == 0.0
    # derivative traces amplify projection roundoff by 2/h per order
    assert np.max(np.abs(plus - minus)) < 1e-12


def test_projection_jump_refinement_rate():
    # order-0 jumps of a smooth projection shrink like h^(p+1)
    errs = []
    for n in (160, 320):
        m = uniform_mesh_1d(-1, 1, n)
        f = DGField1D.project(lambda x: np.sin(np.pi * x), m, 2)
        minus, plus = _interface_traces(f, 0)
        errs.append(np.max(np.abs((plus - minus)[:, 0])))
    ratio = errs[0] / errs[1]
    assert 6.0 < ratio < 10.0


def test_neumann_trace_mirror():
    m = uniform_mesh_1d(0, 1, 3, boundary="neumann")
    f = DGField1D.project(lambda x: x**2 + x, m, 2)
    minus, plus = _interface_traces(f, 2)
    assert minus[0, 0] == pytest.approx(plus[0, 0])
    assert minus[0, 1] == pytest.approx(-plus[0, 1])
    assert minus[0, 2] == pytest.approx(plus[0, 2])
    assert plus[-1, 1] == pytest.approx(-minus[-1, 1])


def test_2d_projection_and_center_values():
    m = cartesian_mesh_2d(0, 1, 0, 1, 3, 2)
    f = DGField2D.project(lambda x, y: 2.0 + 0 * x * y, m, 2)
    assert np.allclose(f.coeffs[..., 0], 2.0, atol=1e-13)
    assert np.allclose(f.coeffs[..., 1:], 0.0, atol=1e-13)
    g = DGField2D.project(lambda x, y: x + 2 * y, m, 2)
    centers = g.center_values()
    xc, yc = np.meshgrid(m.xcenters, m.ycenters, indexing="ij")
    assert np.allclose(centers, xc + 2 * yc, atol=1e-13)


def test_2d_eval_and_derivative():
    m = cartesian_mesh_2d(-1, 1, -1, 1, 2, 2)
    f = DGField2D.project(lambda x, y: x**2 * 0 + x * y, m, 2)
    assert eval_2d(f, 0.3, -0.4) == pytest.approx(0.3 * -0.4, abs=1e-13)
    assert eval_2d(f, 0.3, -0.4, orders=(1, 0)) == pytest.approx(-0.4, abs=1e-12)


def test_2d_tensor_trace_consistency():
    # a polynomial inside the total-degree space is reproduced exactly
    m = cartesian_mesh_2d(0, 2, 0, 1, 3, 3)
    f = DGField2D.project(lambda x, y: x**3 - 2 * x**2 * y + 0.5 * y, m, 3)
    x0, y0 = 1.234, 0.777
    exact = x0**3 - 2 * x0**2 * y0 + 0.5 * y0
    assert eval_2d(f, x0, y0) == pytest.approx(exact, abs=1e-12)


def test_write_columns_csv_reads_as_per_value_format(tmp_path, monkeypatch):
    # chunks of at most 4 rows over 11: three chunks of 3, 4 and 4 rows
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


# values that repeat within and across chunks: both zeros, NaNs of either sign
# and of two other payloads, both infinities, the extremes and ordinary values
CSV_POOL = np.concatenate([
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, np.finfo(float).max,
     1.0 / 3.0, -2.5, 1e-300, 123456789.125],
    np.frombuffer(np.array([0x7FF800000000BEEF, 0xFFF8000000000ABC], dtype=np.uint64).tobytes()),
])


def pool_values(**size):
    return st.lists(st.integers(0, len(CSV_POOL) - 1), **size).map(lambda i: CSV_POOL[i])


def _per_value_csv(cols: dict) -> str:
    rows = len(next(iter(cols.values())))
    return ",".join(cols) + "\n" + "".join(
        ",".join(f"{float(cols[k][i]):.17e}" for k in cols) + "\n" for i in range(rows))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chunk=st.integers(1, 9), data=st.data())
def test_write_columns_csv_of_repeated_values_reads_as_per_value_format(
        tmp_path, monkeypatch, chunk, data):
    # a strided column, a column of a 2D array, an integer column, and the
    # np.repeat/np.tile layout of a grid CSV, in chunks of 1..9 rows
    monkeypatch.setattr(dgfield, "CSV_CHUNK_ROWS", chunk)
    base = data.draw(pool_values(max_size=60))
    rows = len(base[::3])
    block = data.draw(pool_values(min_size=2 * rows, max_size=2 * rows))
    ints = np.array(data.draw(st.lists(st.sampled_from([0, 1, -7, 2**53 + 1]),
                                       min_size=rows, max_size=rows)), dtype=np.int64)
    cols = {"s": base[::3], "m": block.reshape(rows, 2)[:, 1], "i": ints}
    path = tmp_path / "cols.csv"
    write_columns_csv(path, cols)
    assert path.read_text() == _per_value_csv(cols)
    x = data.draw(pool_values(min_size=1, max_size=8))
    y = data.draw(pool_values(min_size=1, max_size=8))
    u = data.draw(pool_values(min_size=len(x) * len(y), max_size=len(x) * len(y)))
    grid = {"x": np.repeat(x, len(y)), "y": np.tile(y, len(x)),
            "u": u.reshape(len(x), len(y)).ravel()}
    write_columns_csv(path, grid)
    assert path.read_text() == _per_value_csv(grid)


def test_write_columns_csv_writes_at_most_a_chunk_of_rows_at_a_time(tmp_path, monkeypatch):
    # the chunk bounds the writer's memory: 65,536-row chunks raised the
    # ex8-ctcs2d benchmark's peak RSS from 102.4 to 120.1 MB, so no write may
    # carry more than CSV_CHUNK_ROWS rows, at its built-in value
    writes = []

    class CountedFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            writes.append(text.count("\n"))
            return self.fh.write(text)

    monkeypatch.setattr(dgfield, "open", lambda *a, **k: CountedFile(builtins.open(*a, **k)),
                        raising=False)
    rows = 3 * dgfield.CSV_CHUNK_ROWS + 5
    x = np.linspace(0.0, 1.0, 7)
    cols = {"x": np.repeat(x, rows // 7 + 1)[:rows], "u": np.sin(np.arange(rows) * 0.01)}
    path = tmp_path / "cols.csv"
    write_columns_csv(path, cols)
    assert sum(writes) == rows + 1 and max(writes) <= dgfield.CSV_CHUNK_ROWS
    assert path.read_text() == _per_value_csv(cols)


@pytest.mark.parametrize("rows, row_size, limit", [
    (23, 16, 96), (11, 5, 20), (1000, 1000, 32768), (81, 64, 5120), (50, 1, 16),
    (7, 50, 10), (3, 4, 4), (5, 1, 100), (1, 1, 1), (0, 3, 10),
])
def test_row_blocks_are_balanced_and_cover_every_row_once(rows, row_size, limit):
    blocks = row_blocks(rows, row_size, limit)
    # whole rows, in order, each row once
    assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
    assert all(b.step is None for b in blocks)
    heights = [b.stop - b.start for b in blocks]
    most = max(1, limit // row_size)
    assert all(0 < h <= most for h in heights) and len(blocks) == -(-rows // most)
    assert not heights or max(heights) - min(heights) <= 1
    if row_size > limit:
        assert heights == [1] * rows
    if rows == 0:
        assert blocks == []


def test_row_blocks_of_the_comparator_grid_and_a_strip_mesh():
    # the 1000^2 leapfrog at the built-in size, and 81 rows of 64 cells in
    # strips of 40 and 41 rows, not 80 and 1
    assert len(row_blocks(1000, 1000, dgfield.BLOCK_VALUES)) == 32
    assert row_blocks(81, 64, 5120) == [slice(0, 40), slice(40, 81)]


def test_one_block_size_splits_every_blocked_loop(monkeypatch):
    # BLOCK_VALUES is read at call time: patched once, it splits the stage
    # algebra, the leapfrog and the source integral each into several
    # blocks, and every result keeps its bits
    rng = np.random.default_rng(83)
    state = (rng.standard_normal((9, 4)), rng.standard_normal((9, 2)))
    u = DGField1D(uniform_mesh_1d(0.0, 1.0, 40), 2, rng.standard_normal((40, 3)))
    grid, steps = make_grid_1d(0.0, 1.0, 30, 0.1)
    source = SOURCES["cubic_4"]

    def run():
        return (*ssp_rk3_step(state, lambda s: (s[1][:, :1] * s[0], -s[0][:, :2]), 0.1),
                ctcs_solve_1d(np.sin, np.cos, source.g, grid, steps)[1],
                np.float64(source_integral(u, source)))

    whole = run()
    counts = []

    def counted(rows, row_size, limit, _blocks=row_blocks):
        counts.append(len(_blocks(rows, row_size, limit)))
        return _blocks(rows, row_size, limit)

    monkeypatch.setattr("wavedg.field.BLOCK_VALUES", 20)
    monkeypatch.setattr("wavedg.field.row_blocks", counted)
    monkeypatch.setattr("wavedg.field.usable_cpus", lambda: 2)
    blocked = run()
    # stages: 9 rows of 6 values, 3 to a block; leapfrog: 30 points, 20 to a
    # block, the 2 blocks in one run per worker on 2 CPUs; source integral:
    # 40 cells of 5 quadrature values, 4 to a block
    assert counts == [3, 2, 2, 10]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, blocked))
