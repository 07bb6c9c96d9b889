"""CLI: config parsing, round-trips, artifacts, reruns, exit codes."""
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from wavedg import basis, cli, diagnostics, problems
from wavedg.cli import (
    ConfigError,
    ExperimentConfig,
    emit_config,
    main,
    parse_config,
    run_convergence,
    run_energy,
    run_shock,
)
from wavedg.field import DGField1D, DGField2D
from wavedg.mesh import cartesian_mesh_2d, uniform_mesh_1d
from wavedg.reference import ctcs_solve_2d, make_grid_2d
from wavedg.scheme1d import SOURCES, SolverConfig


def test_defaults_match_problem_conventions():
    cfg = parse_config(None, {"problem": "ex1"})
    assert cfg.p == 2 and cfg.resolved_q() == 1
    assert cfg.penalty_coefficient == 1.0
    assert cfg.flux == "a"
    from wavedg.problems import EXAMPLES

    assert cfg.resolved_chi(EXAMPLES["ex1"].dim) == 1
    cfg2d = parse_config(None, {"problem": "ex7"})
    assert cfg2d.resolved_chi(2) == 0


def test_config_validation_errors_name_the_key():
    with pytest.raises(ConfigError, match="'q'"):
        parse_config(None, {"problem": "ex1", "p": 2, "q": 3})
    with pytest.raises(ConfigError, match="'problem'"):
        parse_config(None, {"problem": "nope"})
    with pytest.raises(ConfigError, match="'mesh_perturb'"):
        parse_config(None, {"problem": "ex1", "mesh_perturb": 0.7})
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(None, {"bogus": 1})


def test_config_file_roundtrip(tmp_path):
    cfg = ExperimentConfig(problem="ex3", ns=(40, 80), p=3, q=2, flux="s",
                           sommerfeld_speed=2.0, damping=False, t_final=0.125,
                           seed=7, outdir="x")
    path = tmp_path / "run.cfg"
    path.write_text(emit_config(cfg))
    back = parse_config(str(path))
    assert back == cfg


def test_config_file_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("p == 3\n")
    with pytest.raises(ConfigError):
        parse_config(str(path))
    path.write_text("unknown_thing = 2\n")
    with pytest.raises(ConfigError, match="unknown_thing"):
        parse_config(str(path))


def test_config_file_blank_and_comment_lines_are_skipped(tmp_path):
    plain, padded = tmp_path / "plain.cfg", tmp_path / "padded.cfg"
    plain.write_text("problem = ex3\nns = 40\n")
    padded.write_text("\nproblem = ex3\n   \n# a comment line\n  # indented\nns = 40\n\n")
    assert parse_config(str(padded)) == parse_config(str(plain))


def test_config_file_line_without_equals_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("problem = ex1\n\nns 40\n")
    assert main(["shock", "--config", str(path), "--outdir", str(tmp_path)]) == 2
    assert "line 3: expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["[]", '"ex1"', "3", "null"])
def test_metadata_json_config_that_is_not_an_object_exits_2(tmp_path, capsys, config):
    path = tmp_path / "run.json"
    path.write_text(f'{{"version": "0.1.0", "config": {config}}}\n')
    assert main(["shock", "--config", str(path), "--outdir", str(tmp_path)]) == 2
    assert "'config' must be a JSON object" in capsys.readouterr().err


def test_convergence_run_and_artifacts(tmp_path):
    cfg = parse_config(None, {"problem": "ex1", "ns": (10, 20), "outdir": str(tmp_path)})
    table, stem = run_convergence(cfg)
    assert os.path.exists(stem + ".csv")
    assert os.path.exists(stem + ".json")
    meta = json.loads(open(stem + ".json").read())
    assert meta["config"]["problem"] == "ex1"
    assert meta["mesh"]["ncells"] == 10
    header = open(stem + ".csv").readline().strip()
    assert header.startswith("n,h,error,slope")


def test_rerun_from_metadata_reproduces_csv(tmp_path):
    cfg = parse_config(None, {"problem": "ex1", "ns": (10, 20), "outdir": str(tmp_path)})
    _, stem = run_convergence(cfg)
    first = open(stem + ".csv", "rb").read()
    # the defaults are written as their sentinels and replay as defaults
    config = json.loads(open(stem + ".json").read())["config"]
    assert config["dt"] == -1.0 and config["t_final"] == -1.0 and config["sample_every"] == 0
    cfg2 = parse_config(stem + ".json")
    assert cfg2 == cfg
    _, stem2 = run_convergence(cfg2)
    assert open(stem2 + ".csv", "rb").read() == first


def test_metadata_quadrature_points_follow_their_owners(monkeypatch):
    cfg = parse_config(None, {"problem": "ex1", "p": 3})
    prob, mesh = cfg.resolved_problem(), uniform_mesh_1d(0.0, 1.0, 4)
    meta = cli._metadata(cfg, prob, mesh, 0.1)
    assert (meta["volume_quadrature_points"], meta["error_quadrature_points"]) == (6, 8)
    # the kernels read SolverConfig.quad_points, the error norms diagnostics' rule
    monkeypatch.setattr(SolverConfig, "quad_points", property(lambda self: self.p + 7))
    monkeypatch.setattr(diagnostics, "error_quadrature_points", lambda degree: degree + 9)
    meta = cli._metadata(cfg, prob, mesh, 0.1)
    assert (meta["volume_quadrature_points"], meta["error_quadrature_points"]) == (10, 12)


def test_projections_read_the_volume_rule(monkeypatch):
    # basis.volume_quadrature_points owns the projections' rule: patched, both follow it
    shapes = []

    def f(*coords):
        shapes.append(np.broadcast_shapes(*(np.shape(c) for c in coords)))
        return np.sin(sum(coords))

    mesh1, mesh2 = uniform_mesh_1d(0.0, 1.0, 4), cartesian_mesh_2d(0.0, 1.0, 0.0, 2.0, 3, 5)
    DGField1D.project(f, mesh1, 2)
    DGField2D.project(f, mesh2, 2)
    assert shapes == [(4, 5), (3, 5, 5, 5)]
    monkeypatch.setattr(basis, "volume_quadrature_points", lambda degree: degree + 7)
    DGField1D.project(f, mesh1, 2)
    DGField2D.project(f, mesh2, 2)
    assert shapes[2:] == [(4, 9), (3, 5, 9, 9)]


def test_shock_run_artifacts(tmp_path):
    cfg = parse_config(None, {"problem": "ex3", "ns": (40,), "outdir": str(tmp_path)})
    report, stem = run_shock(cfg)
    assert os.path.exists(stem + ".csv")
    assert os.path.exists(stem + "_energy.csv")
    meta = json.loads(open(stem + ".json").read())
    assert meta["oscillation"]["bounds"] == [0.5, 1.0]
    header = open(stem + ".csv").readline().strip()
    assert header == "x,u,u0,exact"


def test_energy_run(tmp_path):
    cfg = parse_config(None, {"problem": "ex1", "ns": (16,), "outdir": str(tmp_path),
                              "flux": "s"})
    trace, stem = run_energy(cfg)
    assert os.path.exists(stem + ".csv")
    # Sommerfeld flux dissipates on smooth data
    assert trace.energies[-1] <= trace.energies[0] * (1 + 1e-10)


def test_variant_names(tmp_path):
    # each (damping, penalty) pair names its own variant in the artifact stem
    for damping, penalty, variant in ((True, True, "ofedg"), (True, False, "edg-damping"),
                                      (False, True, "edg-penalty"), (False, False, "edg")):
        cfg = parse_config(None, {"problem": "ex3", "ns": (20,), "outdir": str(tmp_path),
                                  "damping": damping, "penalty": penalty})
        _, stem = run_shock(cfg)
        assert os.path.basename(stem) == f"ex3_shock_{variant}_n20"


def test_cli_main_shock(tmp_path, capsys):
    assert main(["shock", "--problem", "ex3", "--ns", "20", "--outdir", str(tmp_path)]) == 0
    report, artifacts = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"overshoot \S+, undershoot \S+, total variation \S+", report)
    stem = os.path.join(tmp_path, "ex3_shock_ofedg_n20")
    assert artifacts == f"artifacts: {stem}.csv, {stem}_energy.csv, {stem}.json"
    assert all(os.path.exists(stem + end) for end in (".csv", "_energy.csv", ".json"))


def test_cli_main_list_examples(capsys):
    assert main(["list-examples"]) == 0
    out = capsys.readouterr().out
    assert "ex1" in out and "ex8" in out


def test_cli_main_converge(tmp_path, capsys):
    rc = main(["converge", "--problem", "ex1", "--ns", "10,20",
               "--outdir", str(tmp_path)])
    assert rc == 0
    assert "least-squares slope" in capsys.readouterr().out


def test_cli_exit_code_config_error(tmp_path, capsys):
    rc = main(["converge", "--problem", "ex1", "-q", "3", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["converge", "--problem", "ex1", "--ns", "0"], "'ns'"),
    (["compare-ctcs", "--problem", "ex4", "--ns", "0"], "'ns'"),
    (["shock", "--problem", "ex1", "--ns", "8", "-p", "7"], "'p'"),
    (["converge", "--problem", "ex1", "--ns", "20,10"], "'ns'"),
    (["shock", "--config", "{dir}/broken.json"], "--config"),
    (["shock", "--config", "{dir}/typed.json"], "'p'"),
    (["shock", "--problem", "ex1", "--ns", "8", "--t-final", "0"], "'t_final'"),
    (["shock", "--problem", "ex1", "--ns", "8", "--penalty-coefficient", "nan"],
     "'penalty_coefficient'"),
    (["shock", "--problem", "ex1", "--ns", "8", "--dt", "nan"], "'dt'"),
    # only the sentinels -1 (and 0 for sample_every) select the default
    (["shock", "--problem", "ex1", "--ns", "8", "--dt", "-0.5", "--t-final", "0.01"], "'dt'"),
    (["shock", "--problem", "ex1", "--ns", "8", "--dt", "0"], "'dt'"),
    (["shock", "--problem", "ex1", "--ns", "8", "--t-final", "-0.5"], "'t_final'"),
    (["shock", "--problem", "ex1", "--ns", "8", "--t-final", "inf"], "'t_final'"),
    (["shock", "--problem", "ex1", "--ns", "8", "--sample-every", "-3"], "'sample_every'"),
    (["shock", "--problem", "ex1", "--ns", "8", "-q", "-2"], "'q'"),
    (["shock", "--problem", "ex1", "--ns", "8", "--flux", "s", "--sommerfeld-speed", "-1"],
     "'sommerfeld_speed'"),
    # a float written as an integer beyond the float range
    (["shock", "--config", "{dir}/huge.json"], "'t_final'"),
    (["shock", "--config", "{dir}/huge_domain.json"], "'domain'"),
    # an output directory that cannot be made: the empty path, an existing file
    (["shock", "--problem", "ex1", "--ns", "8", "--outdir", ""], "'outdir'"),
    (["energy", "--problem", "ex1", "--ns", "8", "--outdir", "{dir}/typed.json"], "'outdir'"),
    (["converge", "--problem", "ex1", "--ns", "8", "--outdir", "{dir}/typed.json"], "'outdir'"),
    (["compare-ctcs", "--problem", "ex1", "--ns", "8"], "'ex1'"),
    # a flag is read by the config-file parser, so its key is named
    (["shock", "--problem", "ex1", "--ns", "8", "-p", "abc"], "'p'"),
    # cell counts whose mesh cannot be allocated
    (["shock", "--problem", "ex1", "--ns", "1000000000000"], "'ns'"),
    (["shock", "--config", "{dir}/huge_ns.json"], "'ns'"),
    # every level of a sweep is built before the first one runs
    (["converge", "--problem", "ex1", "--ns", "10,1000000000000"], "'ns'"),
    (["converge", "--problem", "ex1", "--ns", "10,1000000000000", "--parallel"], "'ns'"),
    # more DG cells than comparator intervals would leave a cell without a comparator point
    (["compare-ctcs", "--problem", "ex5", "--ns", "1001"], "'ns'"),
    (["compare-ctcs", "--problem", "ex7", "--ns", "1001"], "'ns'"),
    # config files that cannot be decoded: UTF-16 text, JSON nested beyond the recursion limit
    (["shock", "--config", "{dir}/utf16.cfg"], "--config"),
    (["shock", "--config", "{dir}/deep.json"], "--config"),
    # fewer DG cells than comparator intervals, but a perturbed mesh leaves cells without a point
    (["compare-ctcs", "--problem", "ex4", "--ns", "900", "--mesh-perturb", "0.2", "--seed", "3",
      "--t-final", "0.002", "--damping", "0", "--check"], "'ns'"),
    # non-finite domain bounds, for a built-in problem and a custom one
    (["energy", "--problem", "ex1", "--ns", "4", "--domain=nan,1"], "'domain'"),
    (["energy", "--problem", "custom", "--dim", "1", "--domain=0,inf", "--ns", "4"], "'domain'"),
])
def test_cli_bad_input_exits_2_before_any_compute(tmp_path, capsys, monkeypatch, argv, key):
    (tmp_path / "broken.json").write_text('{"config": {"p": 3,}}')
    (tmp_path / "typed.json").write_text('{"config": {"p": "3"}}')
    huge = "1" + "0" * 400
    (tmp_path / "huge.json").write_text(
        '{"config": {"problem": "ex1", "ns": [8], "t_final": %s}}' % huge)
    (tmp_path / "huge_domain.json").write_text(
        '{"config": {"problem": "custom", "ns": [8], "domain": [0, %s]}}' % huge)
    (tmp_path / "huge_ns.json").write_text('{"config": {"problem": "ex1", "ns": [%s]}}' % huge)
    (tmp_path / "utf16.cfg").write_text("problem = ex1\n", encoding="utf-16")
    (tmp_path / "deep.json").write_text('{"config": ' + "[" * 100_000)

    def no_compute(*args, **kwargs):
        raise AssertionError("integration ran before the input was checked")

    monkeypatch.setattr(cli, "integrate", no_compute)
    argv = [a.format(dir=tmp_path) for a in argv]
    if "--outdir" not in argv:
        argv += ["--outdir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err


@pytest.mark.parametrize("argv, key", [
    # t_final / dt overflows: a subnormal step, or a final time far beyond the step
    (["energy", "--problem", "ex1", "--ns", "4", "--dt", "1e-310"], "'dt'"),
    (["energy", "--problem", "ex1", "--ns", "4", "--t-final", "1e300", "--dt", "1e-10"], "'dt'"),
    (["converge", "--problem", "ex1", "--ns", "4,8", "--dt", "1e-310"], "'dt'"),
    # the comparator's own step, fixed by its grid, cannot reach the final time
    (["compare-ctcs", "--problem", "ex4", "--ns", "4", "--t-final", "1e306"], "'t_final'"),
    # the degree rule's step underflows to 0.0 on a tiny domain
    (["energy", "--problem", "custom", "--dim", "1", "--domain", "0,1e-300", "--ns", "4",
      "-p", "3"], "'dt'"),
    # t_final / dt is finite, but a step of dt does not move the clock
    (["energy", "--problem", "ex1", "--ns", "4", "--dt", "1e-300"], "'dt'"),
])
def test_time_plans_that_cannot_be_stepped_exit_2_before_any_step(tmp_path, capsys,
                                                                   monkeypatch, argv, key):
    def no_compute(*args, **kwargs):
        raise AssertionError("integration ran before the time plan was checked")

    monkeypatch.setattr(cli, "integrate", no_compute)
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err


@pytest.mark.parametrize("argv", [
    # the dt rule's h**e overflows at p = 3; the 1D penalty's h**2 at p = 2
    ["--dim", "1", "--domain", "0,1e300", "-p", "3"],
    ["--dim", "1", "--domain", "0,1e300"],
    ["--dim", "1", "--domain", "0,1e300", "--dt", "0.1", "--t-final", "1"],
    # the cell diagonal itself overflows in 2D
    ["--dim", "2", "--domain", "0,1e300,0,1"],
])
def test_cells_too_wide_for_the_scheme_exit_2_naming_the_domain(tmp_path, capsys, monkeypatch,
                                                                 recwarn, argv):
    def no_compute(*args, **kwargs):
        raise AssertionError("integration ran before the cell width was checked")

    monkeypatch.setattr(cli, "integrate", no_compute)
    assert main(["energy", "--problem", "custom", "--ns", "4", *argv,
                 "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "'domain'" in err
    # four cells of 1e300 / 4, not an overflowed diagonal, and no numpy warning on the way
    assert "cells 2.5e+299 wide" in err and not recwarn.list


def test_neumann_walls_keep_the_alternating_flux_energy_from_growing(tmp_path, capsys):
    # the walls do no work, so without damping and penalty the fully discrete
    # energy can only fall; a mirrored ghost's u_x at the wall took it 19.8 -> 70.0
    assert main(["energy", "--problem", "custom", "--dim", "1", "--domain", "0,1",
                 "--initial", "sine", "--boundary", "neumann", "--ns", "40", "--t-final", "2",
                 "--damping", "0", "--penalty", "0", "--outdir", str(tmp_path)]) == 0
    (csv,) = tmp_path.glob("*_energy_*.csv")
    e = np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1]
    assert len(e) == 1601 and np.all(np.diff(e) <= 0.0)
    assert "max step growth -" in capsys.readouterr().out


def test_cli_exit_code_solver_abort(tmp_path, capsys):
    # a dt far above the stability limit blows up and aborts
    rc = main(["shock", "--problem", "ex3", "--ns", "40", "--dt", "5.0",
               "--t-final", "50.0", "--outdir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver abort:")
    # where the run failed: field, cell, time and step
    assert " in u at cell " in err and ", t = " in err and "(step " in err


def test_console_entry_point(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "wavedg.cli", "list-examples"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "ex6" in proc.stdout


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # `wavedg energy ... | head -1`: the reader may leave before the last print
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "wavedg.cli", "energy", "--problem", "ex2", "--ns", "160",
           "--outdir", str(tmp_path)]
    shell = subprocess.run(["bash", "-c", " ".join(cmd) + ' | head -1; echo "${PIPESTATUS[0]}"'],
                           capture_output=True, text=True, env=env)
    first, code = shell.stdout.splitlines()
    assert first.startswith("energy ") and code == "0" and shell.stderr == ""
    # a reader that never reads makes every write fail
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""
    assert (tmp_path / "ex2_energy_ofedg_n160.csv").exists()


def test_parallel_sweep_matches_sequential(tmp_path):
    base = {"problem": "ex1", "ns": (10, 20), "outdir": str(tmp_path / "a")}
    cfg = parse_config(None, base)
    t1, _ = run_convergence(cfg)
    cfg2 = parse_config(None, dict(base, parallel=True, outdir=str(tmp_path / "b")))
    t2, _ = run_convergence(cfg2)
    assert np.allclose(t1.errors, t2.errors, rtol=0, atol=0)


@pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (8, 3)])
def test_parallel_sweep_sizes_its_pool_by_the_affinity_mask(tmp_path, monkeypatch, cpus, workers):
    # taskset or a cgroup narrows the mask below os.cpu_count()
    sizes = []

    class InProcess:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    run_convergence(parse_config(None, {"problem": "ex1", "ns": (10, 20, 40), "parallel": True,
                                        "outdir": str(tmp_path)}))
    assert sizes == [workers]


def test_custom_problem_roundtrip_and_run(tmp_path):
    overrides = {"problem": "custom", "dim": 1, "domain": (0.0, 2.0),
                 "initial": "box", "source": "cubic_4", "ns": (24,),
                 "t_final": 0.05, "outdir": str(tmp_path)}
    cfg = parse_config(None, overrides)
    back = parse_config(None, {})
    path = tmp_path / "custom.cfg"
    path.write_text(emit_config(cfg))
    assert parse_config(str(path)) == cfg
    report, stem = run_shock(cfg)
    assert os.path.exists(stem + ".csv")
    with pytest.raises(ConfigError, match="'domain'"):
        parse_config(None, {"problem": "custom", "dim": 2, "domain": (0.0, 1.0)})
    with pytest.raises(ConfigError, match="closed-form"):
        run_convergence(parse_config(None, {"problem": "custom", "dim": 1,
                                            "domain": (0.0, 1.0), "ns": (8, 16)}))


def test_cli_compare_ctcs_check_ex5(tmp_path, capsys):
    # the 1D ex5 case of acceptance gate 10: every paired front within 2 cells
    rc = main(["compare-ctcs", "--problem", "ex5", "--check", "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fronts agree: reference 4, test 4" in out
    meta = json.loads(open(os.path.join(tmp_path, "ex5_compare_n320.json")).read())
    assert meta["front_comparison"]["matches"]


def test_cli_compare_ctcs_2d_writes_the_leapfrog_grid(tmp_path, capsys, monkeypatch):
    # the 2D path of compare-ctcs, on a copy of ex7 whose comparator grid is 100^2
    monkeypatch.setitem(problems.EXAMPLES, "ex7", dataclasses.replace(
        problems.EXAMPLES["ex7"], comparator_intervals=100))
    rc = main(["compare-ctcs", "--problem", "ex7", "--ns", "20", "--t-final", "0.05",
               "--outdir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("fronts agree: reference 2, test 2")
    path = os.path.join(tmp_path, "ex7_compare_n20_ctcs.csv")
    with open(path) as fh:
        assert fh.readline() == "x,y,u\n"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    prob = problems.EXAMPLES["ex7"]
    grid, steps = make_grid_2d(-1, 1, -1, 1, 100, 100, 0.05)
    x, y, u = ctcs_solve_2d(prob.u0, prob.u1, SOURCES[prob.source_name].g, grid, steps)
    assert table.shape == (10_000, 3)
    for column, want in zip(table.T, (np.repeat(x, 100), np.tile(y, 100), u.ravel())):
        assert column.tobytes() == want.tobytes()
    meta = json.loads(open(os.path.join(tmp_path, "ex7_compare_n20.json")).read())
    assert meta["comparator"]["intervals"] == 100 and meta["comparator"]["dt"] == grid.dt
    fronts = meta["front_comparison"]
    assert fronts["matches"] and len(fronts["reference_fronts"]) == 2


def test_cli_compare_ctcs_check_failure_exits_4(tmp_path, capsys):
    # at 40 cells the DG profile resolves 2 of the comparator's 4 ex5 fronts
    rc = main(["compare-ctcs", "--problem", "ex5", "--ns", "40", "--check",
               "--outdir", str(tmp_path)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("check failed:")
    assert "np.float64" not in err
