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
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, diagnostics
from .diagnostics import FRONT_BAND_FRACTION, FRONT_MATCH_FACTOR, FRONT_MERGE_FACTOR
from .discretization import DISCRETIZATIONS
from .field import worker_count
from .problems import EXAMPLES, make_custom_problem
from .scheme1d import SOURCES, SolverConfig, flux_from_name
from .timeint import SolverAbort, dt_rule, integrate, make_time_plan


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings; round-trips through emit/parse.

    The annotation of each field is the type of its key in every reader:
    config-file lines, metadata JSON and command-line flags.
    """

    problem: str = "ex1"
    ns: tuple[int, ...] = ()
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
    domain: tuple[float, ...] = ()
    initial: str = "sine"
    source: str = ""
    boundary: str = ""

    def resolved_q(self) -> int:
        return self.p - 1 if self.q == -1 else self.q

    def resolved_chi(self, dim: int) -> int:
        return DISCRETIZATIONS[dim].default_chi if self.chi == -1 else self.chi

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
        return self.sample_every or DISCRETIZATIONS[dim].default_sample_every


#: key -> type, from the annotations above: str, int, float, bool or a tuple of int or float
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _item_type(kind):
    """The element type of a tuple key, or None."""
    return typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else None


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, raw: str):
    """The value of a config-file line or a command-line flag, from its text."""
    kind, raw = _FIELD_TYPES[key], raw.strip()
    item = _item_type(kind)
    try:
        if item is not None:
            return tuple(item(tok) for tok in raw.replace(",", " ").split())
        if kind is bool:
            return _BOOL_WORDS[raw.lower()]
        if kind is str and raw.startswith('"'):
            val = json.loads(raw)
            if not isinstance(val, str):
                raise ValueError
            return val
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"key {key!r}: could not parse {raw!r}") from None


def _json_fits(kind, x) -> bool:
    if kind is float and isinstance(x, int) and not isinstance(x, bool):
        # an integer beyond the float range would overflow in float()
        return abs(x) <= sys.float_info.max
    return isinstance(x, kind) and (kind is bool or not isinstance(x, bool))


def _from_json(key: str, val):
    """The value of a metadata JSON key, whose JSON type must fit the key's type."""
    kind = _FIELD_TYPES[key]
    item = _item_type(kind)
    if item is not None and isinstance(val, list) and all(_json_fits(item, x) for x in val):
        return tuple(item(x) for x in val)
    if item is None and _json_fits(kind, val):
        return kind(val)
    raise ConfigError(f"key {key!r}: unexpected JSON value {val!r}")


def emit_config(cfg: ExperimentConfig) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
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
    overrides = overrides or {}
    entries, convert = _read_config(path) if path is not None else ({}, None)
    for key in [*entries, *overrides]:
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
    values = {key: convert(key, val) for key, val in entries.items()}
    cfg = ExperimentConfig(**{**values, **overrides})
    _validate(cfg)
    return cfg


def _read_config(path: str):
    """The file's entries and the converter of their values: JSON values or line text."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"--config {path}: cannot read the file ({exc})") from None
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text).get("config", {})
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"--config {path}: malformed JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"--config {path}: 'config' must be a JSON object")
        return data, _from_json
    entries = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (tok.strip() for tok in line.split("=", 1))
        entries[key] = raw
    return entries, _coerce


def _validate(cfg: ExperimentConfig) -> None:
    """The CLI's own rules; the solver's types and `make_custom_problem` check the rest."""
    if cfg.problem != "custom" and cfg.problem not in EXAMPLES:
        raise ConfigError(f"key 'problem': unknown problem {cfg.problem!r} "
                          f"(choose from {', '.join(EXAMPLES)} or custom)")
    if cfg.dim not in (1, 2):
        raise ConfigError("key 'dim': must be 1 or 2")
    if not all(math.isfinite(x) for x in cfg.domain):
        raise ConfigError(f"key 'domain': bounds must be finite, got {list(cfg.domain)}")
    try:
        prob = cfg.resolved_problem()
        solver_config(cfg, prob)
        if cfg.dt == -1.0:
            dt_rule(cfg.p, 1.0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if any(n < 1 for n in cfg.ns):
        raise ConfigError(f"key 'ns': cell counts must be at least 1, got {list(cfg.ns)}")
    # -1 is the sentinel for the default; any other value must be a step or a time
    for key in ("t_final", "dt"):
        val = getattr(cfg, key)
        if val != -1.0 and not 0.0 < val < math.inf:
            raise ConfigError(f"key {key!r}: must be positive and finite, or -1 for the "
                              f"default, got {val}")
    if not 0.0 <= cfg.mesh_perturb < 0.5:
        raise ConfigError("key 'mesh_perturb': fraction must lie in [0, 0.5)")
    if cfg.sample_every < 0:
        raise ConfigError(f"key 'sample_every': must be positive, or 0 for the default, "
                          f"got {cfg.sample_every}")
    if cfg.seed < 0:
        raise ConfigError(f"key 'seed': must be nonnegative, got {cfg.seed}")
    # settings of the 1D scheme only, checked before any mesh is built
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
        chi=cfg.resolved_chi(prob.dim), source=source,
    )


def _make_outdir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'outdir': cannot make the directory {path!r} ({exc})") from None


def _metadata(cfg: ExperimentConfig, prob, mesh, dt: float, extra: dict | None = None) -> dict:
    meta = {
        "version": __version__,
        "config": dataclasses.asdict(cfg),  # tuples are written as JSON lists
        "problem": {"key": prob.key, "title": prob.title, "dim": prob.dim,
                    "source": prob.source_name, "boundary": prob.boundary,
                    "notes": prob.notes},
        "mesh": mesh.summary(),
        "dt": dt,
        "volume_quadrature_points": solver_config(cfg, prob).quad_points,
        "error_quadrature_points": diagnostics.error_quadrature_points(cfg.p),
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
    cfg, n, u0, v0 = args
    prob = cfg.resolved_problem()
    u, v, _, _ = _integrate(cfg, prob, u0, v0)
    t = cfg.resolved_t(prob)
    # the exact solutions take (x, t) in 1D and (x, y, t) in 2D
    err = diagnostics.l2_error(u, lambda *xy: prob.exact(*xy, t))
    grad = (diagnostics.gradient_l2_error(u, lambda *xy: prob.exact_dx(*xy, t),
                                          lambda *xy: prob.exact_dy(*xy, t))
            if prob.exact_dx else float("nan"))
    verr = (diagnostics.l2_error(v, lambda *xy: prob.exact_dt(*xy, t))
            if prob.exact_dt else float("nan"))
    return n, u.mesh.h, err, grad, verr


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
    _make_outdir(cfg.outdir)
    # every level is built before the first one runs, so a bad cell count stops the sweep early
    levels = [(cfg, n, *_initial_state(cfg, prob, n)[1:]) for n in ns]
    if cfg.parallel and len(ns) > 1:
        with ProcessPoolExecutor(max_workers=worker_count(len(ns))) as pool:
            rows = list(pool.map(_one_level, levels))
    else:
        rows = [_one_level(lv) for lv in levels]
    table = diagnostics.ConvergenceTable(
        ns=[r[0] for r in rows], hs=[r[1] for r in rows], errors=[r[2] for r in rows],
        extras={"grad_error": [r[3] for r in rows], "v_error": [r[4] for r in rows]})
    stem = os.path.join(cfg.outdir, f"{prob.key}_converge_{cfg.flux.lower()}_p{cfg.p}")
    table.write_csv(stem + ".csv")
    mesh = levels[0][2].mesh
    meta = _metadata(cfg, prob, mesh, cfg.resolved_dt(mesh.h),
                     {"levels": list(ns),
                      "least_squares_slope": table.least_squares_slope(),
                      "pairwise_slopes": table.pairwise_slopes(),
                      "subcommand": "converge"})
    _write_meta(meta, stem + ".json")
    return table, stem


def _initial_state(cfg: ExperimentConfig, prob, n: int, comparator: bool = False):
    """The discretization with n cells per direction and the projected (u0, v0); a cell count
    that cannot be built, or that leaves a cell without a comparator point, is a ConfigError,
    and so is a domain whose cells are too wide for the scheme's scales."""
    try:
        disc = DISCRETIZATIONS[prob.dim].build(prob, n, solver_config(cfg, prob),
                                               cfg.mesh_perturb, cfg.seed)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"key 'ns': cannot use {n} cells ({exc})") from None
    h = disc.mesh.h
    try:  # the penalty's h**2 and the dt rule's h**e grow fastest with the cell width
        fits = math.isfinite(h * h) and math.isfinite(cfg.resolved_dt(h))
    except OverflowError:
        fits = False
    if not fits:  # the widest side, since a 2D h is the diagonal, which may overflow
        side = max(v for k, v in disc.mesh.summary().items() if k in ("h_max", "hx", "hy"))
        raise ConfigError(f"key 'domain': cells {side:g} wide are too wide: h**2 or the time "
                          "step overflows")
    t_final = cfg.resolved_t(prob)
    try:  # the run's and the comparator's time plans, before any step; errors name the key
        make_time_plan(t_final, cfg.resolved_dt(h))
        bins = disc.comparator_grid(prob, t_final)[2:] if comparator else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        if bins and len(empty := diagnostics.empty_bins(*bins)):
            raise ValueError(f"{len(empty)} cells hold no comparator point, first cell {empty[0]}")
        u0 = disc.field.project(prob.u0, disc.mesh, disc.config.p)
        v0 = disc.field.project(prob.u1, disc.mesh, disc.config.q)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"key 'ns': cannot use {n} cells ({exc})") from None
    return disc, u0, v0


def _integrate(cfg: ExperimentConfig, prob, u0, v0):
    """(u, v, energy trace, dt) at the final time, from the projected pair."""
    dt = cfg.resolved_dt(u0.mesh.h)
    u, v, trace = integrate(u0, v0, solver_config(cfg, prob), cfg.resolved_t(prob), dt=dt,
                            sample_every=cfg.resolved_sampling(prob.dim))
    return u, v, trace, dt


def _single_run(cfg: ExperimentConfig, comparator: bool = False):
    prob = cfg.resolved_problem()
    disc, u0, v0 = _initial_state(cfg, prob, cfg.resolved_ns(prob)[0], comparator)
    return (prob, disc, u0, *_integrate(cfg, prob, u0, v0))


def run_shock(cfg: ExperimentConfig):
    """Single run emitting snapshots, energy trace and oscillation metrics."""
    _make_outdir(cfg.outdir)
    prob, disc, u0, u, v, trace, dt = _single_run(cfg)
    variant = _variant_name(cfg)
    stem = os.path.join(cfg.outdir, f"{prob.key}_shock_{variant}_n{cfg.resolved_ns(prob)[0]}")
    t_final = cfg.resolved_t(prob)
    exact = (lambda *x: prob.exact(*x, t_final)) if prob.exact is not None else None
    disc.write_snapshot(stem + ".csv", u, u0, exact)
    trace.write_csv(stem + "_energy.csv")
    if prob.exact_bounds is not None:
        lo, hi = prob.exact_bounds
    else:
        # without a closed form, measure against the initial data's range
        init = disc.samples(u0)
        lo, hi = float(np.min(init)), float(np.max(init))
    report = diagnostics.oscillation_metrics(disc.samples(u), lo, hi)
    meta = _metadata(cfg, prob, disc.mesh, dt, {
        "subcommand": "shock",
        "variant": variant,
        "oscillation": dict(dataclasses.asdict(report), bounds=[lo, hi],
                            bounds_source="exact" if prob.exact_bounds else "initial data"),
    })
    _write_meta(meta, stem + ".json")
    return report, stem


def run_energy(cfg: ExperimentConfig):
    """Single run emitting the energy trace and its monotonicity summary."""
    _make_outdir(cfg.outdir)
    prob, disc, u0, u, v, trace, dt = _single_run(cfg)
    stem = os.path.join(cfg.outdir,
                        f"{prob.key}_energy_{_variant_name(cfg)}_n{cfg.resolved_ns(prob)[0]}")
    trace.write_csv(stem + ".csv")
    meta = _metadata(cfg, prob, disc.mesh, dt, {
        "subcommand": "energy",
        "energy_initial": trace.energies[0],
        "energy_final": trace.energies[-1],
        "max_relative_step_growth": trace.max_relative_growth(),
    })
    _write_meta(meta, stem + ".json")
    return trace, stem


def run_compare(cfg: ExperimentConfig, check: bool = False):
    """Paired run: the DG scheme plus the finite difference comparator."""
    prob = cfg.resolved_problem()
    if prob.comparator_intervals is None:
        raise ConfigError(f"problem {cfg.problem!r} has no comparator resolution configured")
    _make_outdir(cfg.outdir)
    prob, disc, u0, u, v, trace, dt = _single_run(cfg, comparator=True)
    stem = os.path.join(cfg.outdir, f"{prob.key}_compare_n{cfg.resolved_ns(prob)[0]}")
    disc.write_snapshot(stem + "_dg.csv", u)
    source = SOURCES[prob.source_name].g if prob.source_name else None
    grid, x, ref, coarse_h = disc.comparator(prob, cfg.resolved_t(prob), source,
                                             stem + "_ctcs.csv")
    res = diagnostics.compare_front_positions(x, ref, x, disc.profile(u, prob), coarse_h=coarse_h)
    meta = _metadata(cfg, prob, disc.mesh, dt, {
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
        ref_at, test_at = (", ".join(f"{x:.4g}" for x in fr)
                           for fr in (res.reference_fronts, res.test_fronts))
        raise CompareCheckFailure(f"front comparison failed: reference [{ref_at}] vs test "
                                  f"[{test_at}] (max offset {res.max_offset:.4g})")
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
    """--config, and a flag per config key, `--key-name` or `-p`; a bare bool flag reads true."""
    sub.add_argument("--config", help="config file (key = value) or metadata JSON")
    for key, kind in _FIELD_TYPES.items():
        bare = {"nargs": "?", "const": "true"} if kind is bool else {}
        sub.add_argument(f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-"), **bare)


def _overrides(args) -> dict:
    """The flags given, each read by the config-file parser."""
    return {key: _coerce(key, val) for key, val in vars(args).items()
            if key in _FIELD_TYPES and val is not None}


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
