"""Run a workload once per seed and summarise each end-to-end metric.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload compare-1d --seeds 1-10

For each metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
the figure BENCHMARK.json's bounds are held against.  Runs are sequential.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        vals = "  ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: failed {res['failed']}/{res['attempted']}  {vals}", flush=True)

    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{args.workload} {name}: median {med:.5g} [{q1:.5g}, {q3:.5g}] "
              f"spread {(q3 - q1) / med:.4f} (bound {metric['bound']})")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload} failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
