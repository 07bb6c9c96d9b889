"""Experiment runner: convergence sweeps, shock runs, energy traces, comparators.

Subcommands: converge, shock, energy, compare-ctcs, list-examples.  Settings
come from built-in problem defaults, overridden by an optional config file
(line-oriented `key = value`, `#` comments, or a metadata JSON produced by a
previous run), overridden in turn by command-line flags.  Every run writes a
metadata JSON sufficient to reproduce its CSV outputs bit-identically on the
same platform.

Exit codes: 0 success, 2 configuration error, 3 solver abort,
4 comparison-check failure (compare-ctcs --check).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__, diagnostics
from .field import DGField1D, DGField2D, write_columns_csv
from .mesh import cartesian_mesh_2d, perturb_mesh_1d, uniform_mesh_1d
from .problems import EXAMPLES, make_custom_problem
from .reference import ctcs_solve_1d, ctcs_solve_2d, make_grid_1d, make_grid_2d
from .scheme1d import SOURCES, SolverConfig, flux_from_name
from .timeint import SolverAbort, dt_rule, integrate

FRONT_BAND_FRACTION = 0.15
FRONT_MERGE_FACTOR = 1.5
FRONT_MATCH_FACTOR = 2.0


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings; round-trips through emit/parse."""

    problem: str = "ex1"
    ns: tuple = ()
    p: int = 2
    q: int = -1              # -1 means p-1
    flux: str = "a"
    sommerfeld_speed: float = 1.0
    alternating_side: int = 0
    penalty_coefficient: float = 1.0
    damping: bool = True
    penalty: bool = True
    chi: int = -1            # -1 means dimension default (1 in 1D, 0 in 2D)
    t_final: float = -1.0    # -1 means problem default
    dt: float = -1.0         # -1 means degree rule
    seed: int = 0
    mesh_perturb: float = 0.0
    sample_every: int = 0    # 0 means 1 in 1D, 10 in 2D
    parallel: bool = False
    outdir: str = "runs"
    # custom-problem fields (used only when problem = custom)
    dim: int = 1
    domain: tuple = ()
    initial: str = "sine"
    source: str = ""
    boundary: str = ""

    def resolved_q(self) -> int:
        return self.p - 1 if self.q == -1 else self.q

    def resolved_chi(self, dim: int) -> int:
        if self.chi == -1:
            return 1 if dim == 1 else 0
        return self.chi

    def resolved_t(self, prob) -> float:
        return prob.t_final if self.t_final == -1.0 else self.t_final

    def resolved_dt(self, h: float) -> float:
        return dt_rule(self.p, h) if self.dt == -1.0 else self.dt

    def resolved_ns(self, prob) -> tuple:
        return self.ns if self.ns else (prob.default_n,)

    def resolved_problem(self):
        if self.problem != "custom":
            return EXAMPLES[self.problem]
        return make_custom_problem(self.dim, self.domain, self.initial,
                                   self.source or None, self.boundary or "periodic")

    def resolved_sampling(self, dim: int) -> int:
        if self.sample_every > 0:
            return self.sample_every
        return 1 if dim == 1 else 10


_BOOL_KEYS = {"damping", "penalty", "parallel"}
_INT_KEYS = {"p", "q", "chi", "seed", "sample_every", "alternating_side", "dim"}
_FLOAT_KEYS = {"sommerfeld_speed", "penalty_coefficient", "t_final", "dt", "mesh_perturb"}


def _parse_bool(key, raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key == "ns":
        try:
            return tuple(int(tok) for tok in raw.replace(",", " ").split()) if raw else ()
        except ValueError:
            raise ConfigError(f"key 'ns': expected integers, got {raw!r}") from None
    if key == "domain":
        try:
            return tuple(float(tok) for tok in raw.replace(",", " ").split()) if raw else ()
        except ValueError:
            raise ConfigError(f"key 'domain': expected floats, got {raw!r}") from None
    if key in _BOOL_KEYS:
        return _parse_bool(key, raw)
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if raw.startswith('"'):
            val = json.loads(raw)
            if not isinstance(val, str):
                raise ValueError
            return val
    except ValueError:
        raise ConfigError(f"key {key!r}: could not parse {raw!r}") from None
    return raw


def _check_json_type(key: str, val) -> None:
    """A metadata JSON value must have the JSON type its key is written with."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if key == "ns":
        ok = isinstance(val, list) and all(isinstance(n, int) and not isinstance(n, bool)
                                           for n in val)
    elif key == "domain":
        ok = isinstance(val, list) and all(number(x) for x in val)
    elif key in _BOOL_KEYS:
        ok = isinstance(val, bool)
    elif key in _INT_KEYS:
        ok = isinstance(val, int) and not isinstance(val, bool)
    elif key in _FLOAT_KEYS:
        ok = number(val)
    else:
        ok = isinstance(val, str)
    if not ok:
        raise ConfigError(f"key {key!r}: unexpected JSON value {val!r}")


def emit_config(cfg: ExperimentConfig) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if f.name in ("ns", "domain"):
            val = ",".join(str(n) for n in val)
        elif isinstance(val, str):
            # a JSON string, with "#" escaped so that no comment can start in it
            val = json.dumps(val).replace("#", "\\u0023")
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def parse_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from defaults, an optional file, and overrides.

    The file may be `key = value` lines or a metadata JSON from an earlier
    run (its "config" object is used), so any run can be replayed from its
    own artifact.
    """
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    values: dict = {}
    if path is not None:
        try:
            text = open(path).read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        if text.lstrip().startswith("{"):
            try:
                data = json.loads(text).get("config", {})
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--config {path}: malformed JSON ({exc})") from None
            if not isinstance(data, dict):
                raise ConfigError(f"--config {path}: 'config' must be a JSON object")
            for key, val in data.items():
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r}")
                _check_json_type(key, val)
                values[key] = tuple(val) if key in ("ns", "domain") else val
        else:
            for lineno, line in enumerate(text.splitlines(), 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"line {lineno}: expected 'key = value'")
                key, raw = (tok.strip() for tok in line.split("=", 1))
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r}")
                values[key] = _coerce(key, raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.problem != "custom" and cfg.problem not in EXAMPLES:
        raise ConfigError(f"key 'problem': unknown problem {cfg.problem!r} "
                          f"(choose from {', '.join(EXAMPLES)} or custom)")
    if cfg.dim not in (1, 2):
        raise ConfigError("key 'dim': must be 1 or 2")
    if not all(math.isfinite(x) for x in cfg.domain):
        raise ConfigError(f"key 'domain': bounds must be finite, got {list(cfg.domain)}")
    if cfg.problem == "custom":
        if len(cfg.domain) != 2 * cfg.dim:
            raise ConfigError("key 'domain': expected a,b (1D) or ax,bx,ay,by (2D)")
        if not all(a < b for a, b in zip(cfg.domain[::2], cfg.domain[1::2])):
            raise ConfigError(f"key 'domain': each lower bound must lie below its upper "
                              f"bound, got {list(cfg.domain)}")
        if cfg.initial not in ("sine", "gauss", "box"):
            raise ConfigError(f"key 'initial': unknown initial data {cfg.initial!r}")
        if cfg.source and cfg.source not in SOURCES:
            raise ConfigError(f"key 'source': unknown source {cfg.source!r} "
                              f"(choose from {', '.join(SOURCES)})")
        if cfg.boundary and cfg.boundary not in ("periodic", "neumann"):
            raise ConfigError(f"key 'boundary': unknown kind {cfg.boundary!r}")
        if cfg.dim == 2 and cfg.boundary == "neumann":
            raise ConfigError("key 'boundary': 2D runs are periodic only")
    if any(n < 1 for n in cfg.ns):
        raise ConfigError(f"key 'ns': cell counts must be at least 1, got {list(cfg.ns)}")
    if cfg.p < 2:
        raise ConfigError("key 'p': degree must be at least 2")
    # -1 is the sentinel for the default; any other value must be a step or a time
    for key in ("t_final", "dt"):
        val = getattr(cfg, key)
        if val != -1.0 and not 0.0 < val < math.inf:
            raise ConfigError(f"key {key!r}: must be positive and finite, or -1 for the "
                              f"default, got {val}")
    if cfg.dt == -1.0:
        try:
            dt_rule(cfg.p, 1.0)
        except ValueError as exc:
            raise ConfigError(f"key 'p': {exc}") from None
    q = cfg.resolved_q()
    if not max(1, cfg.p - 2) <= q <= cfg.p:
        raise ConfigError(f"key 'q': must lie in [max(1, p-2), p], got {q}")
    if not 0.0 <= cfg.mesh_perturb < 0.5:
        raise ConfigError("key 'mesh_perturb': fraction must lie in [0, 0.5)")
    if cfg.flux.lower() not in ("a", "c", "s", "alternating", "central", "sommerfeld"):
        raise ConfigError(f"key 'flux': unknown flux kind {cfg.flux!r}")
    if not 0.0 < cfg.sommerfeld_speed < math.inf:
        raise ConfigError(f"key 'sommerfeld_speed': must be positive and finite, "
                          f"got {cfg.sommerfeld_speed}")
    if cfg.alternating_side not in (0, 1):
        raise ConfigError("key 'alternating_side': must be 0 or 1")
    if not 0.0 <= cfg.penalty_coefficient < math.inf:
        raise ConfigError("key 'penalty_coefficient': must be nonnegative and finite")
    if cfg.sample_every < 0:
        raise ConfigError(f"key 'sample_every': must be positive, or 0 for the default, "
                          f"got {cfg.sample_every}")
    if cfg.seed < 0:
        raise ConfigError(f"key 'seed': must be nonnegative, got {cfg.seed}")
    if cfg.chi not in (-1, 0, 1):
        raise ConfigError("key 'chi': must be 0 or 1")
    prob = cfg.resolved_problem()
    if prob.dim == 2 and cfg.resolved_chi(2) == 1 and prob.source_name is not None:
        raise ConfigError("key 'chi': the source quotient treatment is 1D-only")
    if cfg.mesh_perturb > 0.0 and prob.dim == 2:
        raise ConfigError("key 'mesh_perturb': nonuniform meshes are 1D-only")


def solver_config(cfg: ExperimentConfig, prob) -> SolverConfig:
    flux = flux_from_name(cfg.flux, cfg.sommerfeld_speed, cfg.alternating_side)
    source = SOURCES[prob.source_name] if prob.source_name else None
    return SolverConfig(
        p=cfg.p, q=cfg.resolved_q(), penalty_coefficient=cfg.penalty_coefficient,
        damping=cfg.damping, penalty=cfg.penalty, flux=flux,
        chi=cfg.resolved_chi(prob.dim) if source else 0,
        source=source, boundary=prob.boundary,
    )


def _build_state(cfg: ExperimentConfig, prob, n: int):
    scfg = solver_config(cfg, prob)
    if prob.dim == 1:
        mesh = uniform_mesh_1d(prob.domain[0], prob.domain[1], n, prob.boundary)
        if cfg.mesh_perturb > 0.0:
            mesh = perturb_mesh_1d(mesh, cfg.mesh_perturb, cfg.seed)
        u0 = DGField1D.project(prob.u0, mesh, scfg.p)
        v0 = DGField1D.project(prob.u1, mesh, scfg.q)
    else:
        mesh = cartesian_mesh_2d(*prob.domain, n, n)
        u0 = DGField2D.project(prob.u0, mesh, scfg.p)
        v0 = DGField2D.project(prob.u1, mesh, scfg.q)
    return mesh, scfg, u0, v0


def _metadata(cfg: ExperimentConfig, prob, mesh, dt: float, extra: dict | None = None) -> dict:
    meta = {
        "version": __version__,
        "config": {f.name: (list(getattr(cfg, f.name)) if f.name in ("ns", "domain")
                            else getattr(cfg, f.name))
                   for f in dataclasses.fields(cfg)},
        "problem": {"key": prob.key, "title": prob.title, "dim": prob.dim,
                    "source": prob.source_name, "boundary": prob.boundary,
                    "notes": prob.notes},
        "mesh": mesh.summary(),
        "dt": dt,
        "volume_quadrature_points": cfg.p + 3,
        "error_quadrature_points": cfg.p + 5,
        "energy_normalization": "integral(u_x^2 + v^2); with a source term "
                                "0.5*quadratic + integral(G)",
    }
    if cfg.mesh_perturb > 0.0:
        meta["mesh"]["perturbation"] = {"fraction": cfg.mesh_perturb, "seed": cfg.seed,
                                        "rng": "numpy Philox (counter-based)"}
    if extra:
        meta.update(extra)
    return meta


def _write_meta(meta: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _one_level(args):
    cfg, n = args
    prob, mesh, _, u, v, _, _ = _single_run(dataclasses.replace(cfg, ns=(n,)))
    t = cfg.resolved_t(prob)
    # the exact solutions take (x, t) in 1D and (x, y, t) in 2D
    err = diagnostics.l2_error(u, lambda *xy: prob.exact(*xy, t))
    grad = (diagnostics.gradient_l2_error(u, lambda *xy: prob.exact_dx(*xy, t),
                                          lambda *xy: prob.exact_dy(*xy, t))
            if prob.exact_dx else float("nan"))
    verr = (diagnostics.l2_error(v, lambda *xy: prob.exact_dt(*xy, t))
            if prob.exact_dt else float("nan"))
    return n, mesh.h, err, grad, verr


def run_convergence(cfg: ExperimentConfig):
    """Refinement sweep against the problem's closed-form solution."""
    prob = cfg.resolved_problem()
    if prob.exact is None:
        raise ConfigError(f"problem {prob.key!r} has no closed-form solution; "
                          "use 'shock' or 'compare-ctcs'")
    ns = cfg.resolved_ns(prob)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"key 'ns': a convergence sweep needs strictly increasing "
                          f"cell counts, got {list(ns)}")
    levels = [(cfg, n) for n in ns]
    if cfg.parallel and len(ns) > 1:
        with ProcessPoolExecutor(max_workers=min(len(ns), os.cpu_count() or 1)) as pool:
            rows = list(pool.map(_one_level, levels))
    else:
        rows = [_one_level(lv) for lv in levels]
    table = diagnostics.ConvergenceTable(
        ns=[r[0] for r in rows], hs=[r[1] for r in rows], errors=[r[2] for r in rows],
        extras={"grad_error": [r[3] for r in rows], "v_error": [r[4] for r in rows]})
    os.makedirs(cfg.outdir, exist_ok=True)
    stem = os.path.join(cfg.outdir, f"{prob.key}_converge_{cfg.flux.lower()}_p{cfg.p}")
    table.write_csv(stem + ".csv")
    mesh, _, _, _ = _build_state(cfg, prob, ns[0])
    meta = _metadata(cfg, prob, mesh, cfg.resolved_dt(mesh.h),
                     {"levels": list(ns),
                      "least_squares_slope": table.least_squares_slope(),
                      "pairwise_slopes": table.pairwise_slopes(),
                      "subcommand": "converge"})
    _write_meta(meta, stem + ".json")
    return table, stem


def _single_run(cfg: ExperimentConfig):
    prob = cfg.resolved_problem()
    n = cfg.resolved_ns(prob)[0]
    mesh, scfg, u0, v0 = _build_state(cfg, prob, n)
    dt = cfg.resolved_dt(mesh.h)
    u, v, trace = integrate(u0, v0, scfg, cfg.resolved_t(prob), dt=dt,
                            sample_every=cfg.resolved_sampling(prob.dim))
    return prob, mesh, u0, u, v, trace, dt


def run_shock(cfg: ExperimentConfig):
    """Single run emitting snapshots, energy trace and oscillation metrics."""
    prob, mesh, u0, u, v, trace, dt = _single_run(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)
    variant = _variant_name(cfg)
    stem = os.path.join(cfg.outdir, f"{prob.key}_shock_{variant}_n{cfg.resolved_ns(prob)[0]}")
    t_final = cfg.resolved_t(prob)
    if prob.dim == 1:
        cols = {"x": mesh.centers, "u": u.midpoint_values(), "u0": u0.midpoint_values()}
        if prob.exact is not None:
            cols["exact"] = prob.exact(mesh.centers, t_final)
        write_columns_csv(stem + ".csv", cols)
        samples = u.midpoint_values()
    else:
        u.to_center_csv(stem + ".csv")
        samples = u.center_values().ravel()
    trace.write_csv(stem + "_energy.csv")
    if prob.exact_bounds is not None:
        lo, hi = prob.exact_bounds
    else:
        # without a closed form, measure against the initial data's range
        init = u0.midpoint_values() if prob.dim == 1 else u0.center_values().ravel()
        lo, hi = float(np.min(init)), float(np.max(init))
    report = diagnostics.oscillation_metrics(samples, lo, hi)
    meta = _metadata(cfg, prob, mesh, dt, {
        "subcommand": "shock",
        "variant": variant,
        "oscillation": dict(report.as_dict(), bounds=[lo, hi],
                            bounds_source="exact" if prob.exact_bounds else "initial data"),
    })
    _write_meta(meta, stem + ".json")
    return report, stem


def run_energy(cfg: ExperimentConfig):
    """Single run emitting the energy trace and its monotonicity summary."""
    prob, mesh, u0, u, v, trace, dt = _single_run(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)
    stem = os.path.join(cfg.outdir,
                        f"{prob.key}_energy_{_variant_name(cfg)}_n{cfg.resolved_ns(prob)[0]}")
    trace.write_csv(stem + ".csv")
    meta = _metadata(cfg, prob, mesh, dt, {
        "subcommand": "energy",
        "energy_initial": trace.energies[0],
        "energy_final": trace.energies[-1],
        "max_relative_step_growth": trace.max_relative_growth(),
    })
    _write_meta(meta, stem + ".json")
    return trace, stem


def _profile_row(mesh2d, values2d, row_coord):
    iy = int(np.argmin(np.abs(mesh2d.ycenters - row_coord)))
    return mesh2d.xcenters, values2d[:, iy]


def run_compare(cfg: ExperimentConfig, check: bool = False):
    """Paired run: the DG scheme plus the finite difference comparator."""
    prob, mesh, u0, u, v, trace, dt = _single_run(cfg)
    if prob.comparator_intervals is None:
        raise ConfigError(f"problem {prob.key!r} has no comparator resolution configured")
    os.makedirs(cfg.outdir, exist_ok=True)
    n = cfg.resolved_ns(prob)[0]
    stem = os.path.join(cfg.outdir, f"{prob.key}_compare_n{n}")
    t_final = cfg.resolved_t(prob)
    source = SOURCES[prob.source_name].g if prob.source_name else None
    if prob.dim == 1:
        u.to_midpoint_csv(stem + "_dg.csv")
        grid, steps = make_grid_1d(prob.domain[0], prob.domain[1],
                                   prob.comparator_intervals, t_final)
        xr, ur = ctcs_solve_1d(prob.u0, prob.u1, source, grid, steps)
        write_columns_csv(stem + "_ctcs.csv", {"x": xr, "u": ur})
        ref = diagnostics.bin_average(xr, ur, mesh.nodes)
        res = diagnostics.compare_front_positions(
            mesh.centers, ref, mesh.centers, u.midpoint_values(), coarse_h=mesh.h,
            merge_factor=FRONT_MERGE_FACTOR, match_factor=FRONT_MATCH_FACTOR,
            band_fraction=FRONT_BAND_FRACTION)
    else:
        u.to_center_csv(stem + "_dg.csv")
        grid, steps = make_grid_2d(*prob.domain, prob.comparator_intervals,
                                   prob.comparator_intervals, t_final)
        xr, yr, ur = ctcs_solve_2d(prob.u0, prob.u1, source, grid, steps)
        xs = np.repeat(xr, len(yr))
        ys = np.tile(yr, len(xr))
        write_columns_csv(stem + "_ctcs.csv", {"x": xs, "y": ys, "u": ur.ravel()})
        row = prob.notes.get("profile_row", 0.0)
        xs_c, prof_dg = _profile_row(mesh, u.center_values(), row)
        jr = int(np.argmin(np.abs(yr - row)))
        coarse_hx = float(mesh.hx[0])
        ref = diagnostics.bin_average(xr, ur[:, jr], mesh.xnodes)
        res = diagnostics.compare_front_positions(
            xs_c, ref, xs_c, prof_dg, coarse_h=coarse_hx,
            merge_factor=FRONT_MERGE_FACTOR, match_factor=FRONT_MATCH_FACTOR,
            band_fraction=FRONT_BAND_FRACTION)
    meta = _metadata(cfg, prob, mesh, dt, {
        "subcommand": "compare-ctcs",
        "comparator": {"intervals": prob.comparator_intervals, "dt": grid.dt,
                       "boundary": "periodic", "scheme": "central time, central space"},
        "front_comparison": dict(res.as_dict(),
                                 band_fraction=FRONT_BAND_FRACTION,
                                 merge_factor=FRONT_MERGE_FACTOR,
                                 match_factor=FRONT_MATCH_FACTOR,
                                 window_cells=diagnostics.FRONT_WINDOW_CELLS),
    })
    _write_meta(meta, stem + ".json")
    if check and not res.matches:
        raise CompareCheckFailure(
            f"front comparison failed: reference {list(res.reference_fronts)} vs "
            f"test {list(res.test_fronts)} (max offset {res.max_offset:.4g})")
    return res, stem


class CompareCheckFailure(RuntimeError):
    pass


def _variant_name(cfg: ExperimentConfig) -> str:
    if cfg.damping and cfg.penalty:
        return "ofedg"
    if cfg.damping:
        return "edg-damping"
    if cfg.penalty:
        return "edg-penalty"
    return "edg"


def _add_common(sub):
    sub.add_argument("--config", help="config file (key = value) or metadata JSON")
    sub.add_argument("--problem", choices=sorted(EXAMPLES))
    sub.add_argument("--ns", help="cell counts, e.g. 20,40,80")
    sub.add_argument("-p", type=int, dest="p")
    sub.add_argument("-q", type=int, dest="q")
    sub.add_argument("--flux", choices=["a", "c", "s"])
    sub.add_argument("--sommerfeld-speed", type=float, dest="sommerfeld_speed")
    sub.add_argument("--alternating-side", type=int, choices=[0, 1], dest="alternating_side")
    sub.add_argument("--penalty-coefficient", type=float, dest="penalty_coefficient")
    sub.add_argument("--damping", type=int, choices=[0, 1])
    sub.add_argument("--penalty", type=int, choices=[0, 1])
    sub.add_argument("--chi", type=int, choices=[0, 1])
    sub.add_argument("--t-final", type=float, dest="t_final")
    sub.add_argument("--dt", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--mesh-perturb", type=float, dest="mesh_perturb")
    sub.add_argument("--sample-every", type=int, dest="sample_every")
    sub.add_argument("--parallel", action="store_const", const=True, default=None)
    sub.add_argument("--outdir")


def _overrides(args) -> dict:
    keys = [f.name for f in dataclasses.fields(ExperimentConfig)]
    out = {}
    for key in keys:
        val = getattr(args, key, None)
        if val is None:
            continue
        if key == "ns":
            val = _coerce("ns", val)
        if key in _BOOL_KEYS and isinstance(val, int):
            val = bool(val)
        out[key] = val
    return out


def main(argv=None) -> int:
    """Console entry point; returns the exit code."""
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout left early (`wavedg ... | head -1`); the
        # artifacts are written by then, so the run counts as a success
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


def _main(argv) -> int:
    parser = argparse.ArgumentParser(prog="wavedg",
                                     description="wave equation DG experiment runner")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("converge", "shock", "energy", "compare-ctcs"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "compare-ctcs":
            sub.add_argument("--check", action="store_true",
                             help="exit 4 when the front comparison disagrees")
    subs.add_parser("list-examples")
    args = parser.parse_args(argv)

    if args.command == "list-examples":
        for key in sorted(EXAMPLES):
            prob = EXAMPLES[key]
            src = prob.source_name or "linear"
            print(f"{key}: {prob.title} ({prob.dim}D, {src}, default n={prob.default_n})")
        return 0

    try:
        cfg = parse_config(args.config, _overrides(args))
        if args.command == "converge":
            table, stem = run_convergence(cfg)
            pair = ", ".join(f"{s:.3f}" for s in table.pairwise_slopes())
            print(f"least-squares slope {table.least_squares_slope():.3f} (pairwise {pair})")
            print(f"artifacts: {stem}.csv, {stem}.json")
        elif args.command == "shock":
            report, stem = run_shock(cfg)
            print(f"overshoot {report.overshoot:.4g}, undershoot {report.undershoot:.4g}, "
                  f"total variation {report.total_variation:.4g}")
            print(f"artifacts: {stem}.csv, {stem}_energy.csv, {stem}.json")
        elif args.command == "energy":
            trace, stem = run_energy(cfg)
            print(f"energy {trace.energies[0]:.6g} -> {trace.energies[-1]:.6g}, "
                  f"max step growth {trace.max_relative_growth():.3g}")
            print(f"artifacts: {stem}.csv, {stem}.json")
        else:
            res, stem = run_compare(cfg, check=args.check)
            state = "agree" if res.matches else "DISAGREE"
            print(f"fronts {state}: reference {len(res.reference_fronts)}, "
                  f"test {len(res.test_fronts)}, max offset {res.max_offset:.4g}")
            print(f"artifacts: {stem}_dg.csv, {stem}_ctcs.csv, {stem}.json")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverAbort, np.linalg.LinAlgError) as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return 3
    except CompareCheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
