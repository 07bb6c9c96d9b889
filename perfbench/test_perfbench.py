"""The benchmark's own checks reject wrong outputs; span arithmetic is exact.

Run with: python -m pytest -q perfbench
"""
import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from tracing import Span
from wavedg import scheme1d, timeint
from wavedg.field import DGField1D, n_modes, write_columns_csv
from wavedg.mesh import uniform_mesh_1d
from wavedg.scheme1d import FluxParams, SolverConfig


def _symmetric_state(rng, n, degree):
    c = rng.standard_normal((n, n, n_modes(degree)))
    modes = [tuple(m) for m in workloads.dgfield.total_degree_modes(degree)]
    swap = [modes.index((m2, m1)) for m1, m2 in modes]
    return 0.5 * (c + np.transpose(c, (1, 0, 2))[..., swap])


def test_mirror_check_rejects_an_asymmetric_state():
    rng = np.random.default_rng(0)
    u, v = _symmetric_state(rng, 6, 2), _symmetric_state(rng, 6, 1)
    dev = checks.check_mirror_2d(u, 2, v, 1)
    assert dev["u"] <= 1e-15 and dev["v"] <= 1e-15
    # cell (1, 4) and its mirror (4, 1) no longer agree in one mode
    bad = u.copy()
    bad[1, 4, 2] += 1e-6
    with pytest.raises(checks.CheckFailed, match="final u"):
        checks.check_mirror_2d(bad, 2, v, 1)
    # a mode swap alone, (1, 0) <-> (0, 1) in one diagonal cell, also breaks it
    bad = v.copy()
    bad[2, 2, 1] += 1.0
    with pytest.raises(checks.CheckFailed, match="final v"):
        checks.check_mirror_2d(u, 2, bad, 1)
    bad = u.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_mirror_2d(bad, 2, v, 1)


def _edge(x, x0, width):
    return 0.5 * (1.0 + np.tanh((x - x0) / width))


def test_characteristic_fronts_reject_a_profile_shifted_by_three_cells():
    n = 320
    edges = np.linspace(-1.0, 1.0, n + 1)
    x = 0.5 * (edges[1:] + edges[:-1])
    h = 2.0 / n
    fronts = workloads.Ex8CTCS2D.fronts
    prof = 0.5 * (_edge(x, fronts[0], h) - _edge(x, fronts[1], h) + _edge(x, fronts[2], h))
    found = checks.check_characteristic_fronts(x, prof, h, fronts)
    assert np.max(np.abs(np.array(found) - fronts)) < 0.1 * h
    with pytest.raises(checks.CheckFailed, match="not within one cell"):
        checks.check_characteristic_fronts(x, np.roll(prof, 3), h, fronts)
    # a missing front is rejected too
    with pytest.raises(checks.CheckFailed):
        checks.check_characteristic_fronts(x, 0.5 * _edge(x, fronts[0], h), h, fronts)


def test_transpose_check_rejects_broken_symmetry():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 40))
    u = a + a.T
    checks.check_transpose_symmetric(u)
    u[3, 17] = np.nextafter(u[3, 17], np.inf)
    with pytest.raises(checks.CheckFailed, match="not x<->y symmetric"):
        checks.check_transpose_symmetric(u)


def test_csv_readback_rejects_a_different_field(tmp_path):
    rng = np.random.default_rng(2)
    cols = {"x": np.linspace(0.0, 1.0, 50), "u": rng.standard_normal(50)}
    path = tmp_path / "f.csv"
    write_columns_csv(path, cols)
    assert checks.check_csv_readback(path, cols, chunk_rows=7) == 50
    cols["u"] = cols["u"].copy()
    cols["u"][47] = np.nextafter(cols["u"][47], np.inf)
    with pytest.raises(checks.CheckFailed, match="'u'"):
        checks.check_csv_readback(path, cols, chunk_rows=7)
    # a file with one row more than the solved field
    with pytest.raises(checks.CheckFailed):
        checks.check_csv_readback(path, {k: v[:-1] for k, v in cols.items()}, chunk_rows=60)


def test_oracle_check_rejects_a_wrong_rhs():
    rng = np.random.default_rng(3)
    du, dv = rng.standard_normal((4, 4, 6)), rng.standard_normal((4, 4, 3))
    assert checks.check_oracle_rhs(du, dv, du.copy(), dv.copy()) == 0.0
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle_rhs(du, dv + 1e-8, du, dv)


def _round(wall_s, loop_s, cell_steps, failed):
    return {"wall_s": wall_s, "loop_s": loop_s, "cell_steps": cell_steps,
            "attempted": 1, "failed": failed, "peak_rss_mb": 100.0}


def test_end_to_end_metrics_survive_rounds_whose_operations_failed():
    setups = [[0.25, 0.75, 0.5], [1.0]]
    # a failed operation leaves its round without a finished stepping loop
    m = run.end_to_end(setups, [_round(5.0, 0.0, 0, 1), _round(7.0, 4.0, 800, 0)])
    assert m["setup_s"] == (0.75, "s")
    assert m["wall_s"] == (6.0, "s")
    assert m["cell_steps_per_s"] == (200.0, "cell-steps/s")
    m = run.end_to_end(setups, [_round(5.0, 0.0, 0, 1)])
    assert m["cell_steps_per_s"] == (None, "cell-steps/s")
    assert m["wall_s"] == (5.0, "s")


def _span(sid, parent, name, start, end):
    return Span(sid, parent, 0, name, float(start), float(end))


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(0, None, "cli.run", 0, 10),
        _span(1, 0, "timeint.rk_step", 1, 4),
        _span(2, 1, "scheme1d.rhs", 2, 3),
        _span(3, 0, "timeint.rk_step", 5, 9),
        # overlapping children of span 3 cover [5.5, 8] once, not twice
        _span(4, 3, "scheme1d.rhs", 5.5, 7),
        _span(5, 3, "scheme1d.rhs", 6, 8),
        _span(6, None, "field.csv", 11, 12),
    ]
    spans[6].attrs.update(rows=5, bytes=2_000_000)
    got = tracing.self_times(spans)
    assert got == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.5, 5: 2.0, 6: 1.0}
    m = tracing.layer_metrics(spans, subnormal_coeffs=7)
    assert m["timeint.steps"] == (2, "count")
    assert m["timeint.rk_self_ms"] == (1e3 * 1.75, "ms")
    assert m["scheme1d.rhs_calls"] == (3, "count")
    assert m["scheme1d.rhs_us"] == (1.5e6, "us")
    assert m["cli.self_s"] == (3.0, "s")
    assert m["scheme2d.subnormal_coeffs"] == (7, "count")
    assert m["scheme2d.rhs_ms"] == (0.0, "ms")
    assert m["field.csv_rows"] == (5, "count")
    assert m["field.csv_mb"] == (2.0, "MB")


def test_tracer_records_nested_spans_and_restores_the_program():
    mesh = uniform_mesh_1d(0.0, 1.0, 8)
    cfg = SolverConfig(p=2, q=1, flux=FluxParams.alternating())
    u = DGField1D.project(lambda x: np.sin(2 * np.pi * x), mesh, 2)
    v = DGField1D.project(lambda x: np.zeros_like(x), mesh, 1)
    orig_rhs = timeint.rhs_arrays_1d
    orig_project = DGField1D.__dict__["project"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        timeint.integrate(u, v, cfg, 4 * 0.01, dt=0.01, sample_every=2)
    finally:
        tracer.restore()
    assert timeint.rhs_arrays_1d is orig_rhs is scheme1d.rhs_arrays_1d
    assert DGField1D.__dict__["project"] is orig_project
    names = [s.name for s in tracer.spans]
    assert names.count("timeint.rk_step") == 4
    assert names.count("scheme1d.rhs") == 12
    assert names.count("diagnostics.energy") == 3
    by_id = {s.sid: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "scheme1d.rhs":
            assert by_id[s.parent].name == "timeint.rk_step"
        if s.name == "scheme1d.damping":
            assert by_id[s.parent].name == "scheme1d.rhs"
    # every span of the run shares the id of the integrate span it ran under
    assert tracer.spans[0].name == "timeint.integrate"
    assert {s.op for s in tracer.spans} == {0}
    n_spans = len(tracer.spans)
    timeint.integrate(u, v, cfg, 0.01, dt=0.01)
    assert len(tracer.spans) == n_spans
