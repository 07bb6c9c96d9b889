"""Benchmark of wavedg: one workload per run, checked outputs, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ex8-dg2d --seed 1 --seconds 10 --trace 0

--trace 0 runs whole rounds of the workload until --seconds have passed and
reports the end-to-end metrics.  --trace 1 runs one untraced and one traced
round and reports the per-layer metrics from the traced one.  Each round
runs in a fresh child process, as each CLI run does, so that no round
inherits the memory state of the one before.  The set-up is timed in fresh
child processes too, SETUP_PROCESSES of them before each round and after
the last one: its speed differs more from one process to the next, and
over the minutes of a run, than between repeats in one process.  The
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  The full record, with the environment, goes to
.perfbench_out/<workload>/, and the spans of a traced round next to it.
"""
from __future__ import annotations

import os

# BLAS on one thread, before numpy is first imported: single-threaded runs
# are the measured configuration and make results replay bit for bit.
# Child processes inherit these.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ex8-dg2d", "compare-1d", "ex8-ctcs2d")
# a round longer than this is stopped and the run fails
ROUND_TIMEOUT_S = 150
SETUP_PROCESSES = 3


def git_revision(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """sha256 over the package's source files, which identifies the code run."""
    h = hashlib.sha256()
    for path in sorted((src / "wavedg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(SRC),
        "python": sys.version.split()[0],
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def one_round(args, wl, outdir: Path) -> dict:
    """Run, check and describe one round in this process."""
    import checks
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    before = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.install()
    try:
        rnd = wl.run_round()
    finally:
        if tracer is not None:
            tracer.restore()
    after = resource.getrusage(resource.RUSAGE_SELF)
    out = {"wall_s": rnd.wall_s, "loop_s": rnd.loop_s, "cell_steps": rnd.cell_steps,
           "attempted": rnd.attempted, "failed": rnd.failed,
           "user_s": after.ru_utime - before.ru_utime,
           "sys_s": after.ru_stime - before.ru_stime,
           "minor_faults": after.ru_minflt - before.ru_minflt,
           "peak_rss_mb": after.ru_maxrss / 1024.0, "problems": []}
    try:
        out["checks"] = wl.check(rnd.outputs)
    except checks.CheckFailed as exc:
        out["checks"] = {}
        out["problems"].append(str(exc))
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans,
                                              out["checks"].get("subnormal_coeffs", 0))
        tracer.write(outdir / f"spans-seed{args.seed}.jsonl")
    return out


def end_to_end(setups: list, rounds: list) -> dict:
    """The end-to-end metrics of a --trace 0 run, as (value, unit).

    setup_s is the mean over set-up processes of each one's median repeat.
    cell_steps_per_s is None when no round finished a stepping loop, which
    happens only when every operation failed.
    """
    loops = [r["cell_steps"] / r["loop_s"] for r in rounds if r["loop_s"] > 0]
    return {
        "setup_s": (statistics.fmean(statistics.median(t) for t in setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "cell_steps_per_s": (statistics.median(loops) if loops else None, "cell-steps/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def spawn(args, mode: str, traced: bool = False):
    """Run this script with --one-round or --setup-only in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(int(traced)), mode]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-round", action="store_true",
                        help="run one round in this process and print it (used by the run)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up in this process and print it (used by the run)")
    args = parser.parse_args(argv)

    if not (SRC / "wavedg" / "__init__.py").is_file():
        print(f"error: no wavedg sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import checks
    import workloads

    outdir = ROOT / ".perfbench_out" / args.workload
    artifacts = outdir / "artifacts"
    artifacts.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](artifacts)
    if args.one_round:
        print(json.dumps(one_round(args, wl, outdir), default=float))
        return 0
    if args.setup_only:
        times = []
        for _ in range(wl.setup_repeats):
            start = time.perf_counter()
            wl.setup()
            times.append(time.perf_counter() - start)
        print(json.dumps(times))
        return 0

    problems = []
    try:
        measured = {"precheck": wl.precheck(args.seed)}
    except checks.CheckFailed as exc:
        measured = {}
        problems.append(f"precheck: {exc}")

    # setup_s is an end-to-end metric, so a traced run does not time it
    setups = []
    if args.trace:
        rounds = [spawn(args, "--one-round"), spawn(args, "--one-round", traced=True)]
    else:
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            setups += [spawn(args, "--setup-only") for _ in range(SETUP_PROCESSES)]
            rounds.append(spawn(args, "--one-round"))
        setups += [spawn(args, "--setup-only") for _ in range(SETUP_PROCESSES)]
    for k, rnd in enumerate(rounds, 1):
        problems += [f"round {k}: {p}" for p in rnd.pop("problems")]
    measured["rounds"] = [rnd.pop("checks") for rnd in rounds]

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        metrics = {k: tuple(v) for k, v in rounds[1].pop("layers").items()}
        metrics["trace.overhead_s"] = (rounds[1]["wall_s"] - rounds[0]["wall_s"], "s")
    else:
        metrics = end_to_end(setups, rounds)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(), problems=problems,
                  checks=measured, setup_s=setups, rounds=rounds)
    with open(outdir / f"result-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, default=float)
        fh.write("\n")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"]))
    print("checks: " + json.dumps(measured, default=float))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value if value is None else format(value, '.6g')} {unit}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
