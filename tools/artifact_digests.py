"""Run a fixed matrix of small CLI runs and print one sha256 per artifact.

Usage:
    python tools/artifact_digests.py OUTDIR [--src SRC]

Each run writes into its own directory under OUTDIR.  The CSVs are hashed
as written; a metadata JSON is hashed with its `config.outdir` blanked, so
two trees run into different directories give the same digest for the
same run.  SRC is the `src` directory of the tree to run (default: the one
next to this script).  To compare two trees, run this script once per tree
and `diff` the two outputs; they match when every artifact is
byte-identical.

The matrix covers converge on ex1 and ex6; shock on ex1 (perturbed mesh),
ex3, ex7 and ex8; energy on ex2, ex3 and ex4; compare-ctcs on ex4, ex5 and
ex7 (its leapfrog comparator is the 1000^2 grid).  It takes about 15 s on
one core.  Set OPENBLAS_NUM_THREADS=1 on both sides, since the bits of
small matrix products may depend on the BLAS thread count.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys

RUNS = {
    "converge-ex1-p2": ["converge", "--problem", "ex1", "--ns", "10,20,40"],
    "converge-ex1-p3-a": ["converge", "--problem", "ex1", "-p", "3", "--flux", "a",
                          "--ns", "10,20,40"],
    "converge-ex1-p3-s": ["converge", "--problem", "ex1", "-p", "3", "--flux", "s",
                          "--ns", "10,20,40"],
    "converge-ex6": ["converge", "--problem", "ex6", "--ns", "8,16"],
    "shock-ex1-perturbed": ["shock", "--problem", "ex1", "--ns", "40", "--mesh-perturb", "0.1",
                            "--seed", "7"],
    "shock-ex3": ["shock", "--problem", "ex3", "--ns", "40"],
    "shock-ex7": ["shock", "--problem", "ex7", "--ns", "20"],
    "shock-ex8": ["shock", "--problem", "ex8", "--ns", "40"],
    "energy-ex2": ["energy", "--problem", "ex2", "--ns", "40", "--chi", "0"],
    "energy-ex3": ["energy", "--problem", "ex3", "--ns", "40"],
    "energy-ex4": ["energy", "--problem", "ex4", "--ns", "40"],
    "compare-ex4": ["compare-ctcs", "--problem", "ex4", "--ns", "40"],
    "compare-ex5": ["compare-ctcs", "--problem", "ex5", "--ns", "40"],
    "compare-ex7": ["compare-ctcs", "--problem", "ex7", "--ns", "40"],
}


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        meta = json.loads(data)
        meta["config"]["outdir"] = ""
        # the layout of the CLI's own metadata writer
        data = (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                      os.pardir, "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from wavedg import cli

    failed = 0
    for name, run in RUNS.items():
        rundir = os.path.join(args.outdir, name)
        with contextlib.redirect_stdout(sys.stderr):  # stdout is for the digests
            code = cli.main(run + ["--outdir", rundir])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            failed += 1
    for root, _, files in sorted(os.walk(args.outdir)):
        for fname in sorted(files):
            path = os.path.join(root, fname)
            print(f"{digest(path)}  {os.path.relpath(path, args.outdir)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
