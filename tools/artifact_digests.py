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

The matrix covers converge on ex1 (also with alternating side 1) and ex6
(also with the Sommerfeld flux, with alternating side 1, the one 2D run
whose faces take the lower cell's v trace, and with --parallel, whose
levels run in a process pool and whose CSV matches the serial run's);
shock on ex1 (perturbed mesh), ex3 (also with the central flux undamped,
and without the penalty), ex7 (also with the central flux, the one 2D
run of it; at p = 3 on 14^2: one strip of 196 cells, whose p = 3 source
product has a row count at which OpenBLAS rounds small products
differently; at p = q = 3 on 28^2, where u's and v's vertex jumps take
different orders of one degree, and at p = 4 on 16^2, whose u jumps
take orders 1 to 3; both abort at step 2 or 3 on coarser meshes) and ex8
(also at 80^2, the one 2D run that the kernel evaluates in two framed
strips, on two strip workers where the process may use two CPUs); energy
on ex2 (also with the Sommerfeld flux at speed 2), ex3 and ex4;
compare-ctcs on ex4, ex5 and ex7 (its leapfrog comparator is the 1000^2
grid); and nine custom problems: two from config files written to
OUTDIR/configs, a Neumann box with the cubic source in 1D (shock) and a
Gaussian on a 1-by-2 rectangle in 2D (energy), and seven from flags, a
periodic sine in 1D (shock), a Gaussian on (-1, 3) with the sine-Gordon
source in 1D (energy; `--domain=-1,3` keeps argparse from reading the
bounds as a flag), on the 1-by-2 rectangle a sine (energy) and a box with
the cubic source (shock), and a sine between Neumann walls in 1D to
t = 2 under the alternating flux (energy; with the defaults, without
damping and penalty, and on side 1), the runs in which the walls' fluxes
act on a state that is not near zero there.  Four runs replay a run
above from its metadata JSON alone (`--config` of the JSON; the names end
in `-replay`): the perturbed ex1 shock, the two-strip ex8 shock, the
Gaussian with the sine-Gordon source from flags and compare-ctcs on ex4;
each must give its source's digests, or the script exits 1.  Only the
runs' own directories are hashed, 98 artifacts in all.  These runs split a
`field.row_blocks` partition into several blocks: compare-ex7 runs the
1000^2 leapfrog in 32 blocks, as two runs of 16 on two leapfrog workers
where two CPUs are usable, shock-ex8-strips at 80^2 has 2 kernel strips
and 2 SSP-RK3 stage blocks, and shock-ex8 at 40^2 takes its source
integral in 2 blocks.  It takes about 25 s on one core.  Running it once
under `taskset -c 0` and once on two CPUs checks the serial and the
threaded paths.  The bits of
small matrix products may depend on the BLAS thread count, so the script
sets OPENBLAS_NUM_THREADS and OMP_NUM_THREADS to 1 before numpy loads,
unless the caller has set them, as the test suite does.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

NEUMANN_SINE = ["energy", "--problem", "custom", "--dim", "1", "--domain", "0,1", "--initial",
                "sine", "--boundary", "neumann", "--ns", "40", "--t-final", "2"]

RUNS = {
    "converge-ex1-p2": ["converge", "--problem", "ex1", "--ns", "10,20,40"],
    "converge-ex1-p3-a": ["converge", "--problem", "ex1", "-p", "3", "--flux", "a",
                          "--ns", "10,20,40"],
    "converge-ex1-p3-s": ["converge", "--problem", "ex1", "-p", "3", "--flux", "s",
                          "--ns", "10,20,40"],
    "converge-ex6": ["converge", "--problem", "ex6", "--ns", "8,16"],
    "converge-ex6-parallel": ["converge", "--problem", "ex6", "--ns", "8,16", "--parallel"],
    "shock-ex1-perturbed": ["shock", "--problem", "ex1", "--ns", "40", "--mesh-perturb", "0.1",
                            "--seed", "7"],
    "shock-ex1-perturbed-replay": ["shock", "--config",
                                   "{outdir}/shock-ex1-perturbed/ex1_shock_ofedg_n40.json"],
    "shock-ex3": ["shock", "--problem", "ex3", "--ns", "40"],
    "shock-ex7": ["shock", "--problem", "ex7", "--ns", "20"],
    "shock-ex7-p3": ["shock", "--problem", "ex7", "-p", "3", "--ns", "14"],
    "shock-ex7-p3-q3": ["shock", "--problem", "ex7", "-p", "3", "-q", "3", "--ns", "28"],
    "shock-ex7-p4": ["shock", "--problem", "ex7", "-p", "4", "--ns", "16"],
    "shock-ex8": ["shock", "--problem", "ex8", "--ns", "40"],
    "shock-ex8-strips": ["shock", "--problem", "ex8", "--ns", "80"],
    "shock-ex8-strips-replay": ["shock", "--config",
                                "{outdir}/shock-ex8-strips/ex8_shock_ofedg_n80.json"],
    "energy-ex2": ["energy", "--problem", "ex2", "--ns", "40", "--chi", "0"],
    "energy-ex3": ["energy", "--problem", "ex3", "--ns", "40"],
    "energy-ex4": ["energy", "--problem", "ex4", "--ns", "40"],
    "compare-ex4": ["compare-ctcs", "--problem", "ex4", "--ns", "40"],
    "compare-ex4-replay": ["compare-ctcs", "--config",
                           "{outdir}/compare-ex4/ex4_compare_n40.json"],
    "compare-ex5": ["compare-ctcs", "--problem", "ex5", "--ns", "40"],
    "compare-ex7": ["compare-ctcs", "--problem", "ex7", "--ns", "40"],
    "shock-ex3-central-undamped": ["shock", "--problem", "ex3", "--ns", "40", "--flux", "c",
                                   "--damping", "0"],
    "shock-ex3-no-penalty": ["shock", "--problem", "ex3", "--ns", "40", "--penalty", "0"],
    "converge-ex1-side1": ["converge", "--problem", "ex1", "--ns", "10,20",
                           "--alternating-side", "1"],
    "converge-ex6-s": ["converge", "--problem", "ex6", "--ns", "8,16", "--flux", "s"],
    "converge-ex6-side1": ["converge", "--problem", "ex6", "--ns", "8,16",
                           "--alternating-side", "1"],
    "shock-ex7-central": ["shock", "--problem", "ex7", "--ns", "20", "--flux", "c"],
    "energy-ex2-s": ["energy", "--problem", "ex2", "--ns", "40", "--flux", "s",
                     "--sommerfeld-speed", "2"],
    "shock-custom-1d": ["shock", "--config", "{configs}/custom-1d.cfg"],
    "energy-custom-2d": ["energy", "--config", "{configs}/custom-2d.cfg"],
    "shock-custom-1d-sine": ["shock", "--problem", "custom", "--dim", "1", "--domain", "0,1",
                             "--initial", "sine", "--ns", "40"],
    "energy-custom-1d-gauss": ["energy", "--problem", "custom", "--dim", "1", "--domain=-1,3",
                               "--initial", "gauss", "--ns", "40", "--source", "sine_gordon"],
    "energy-custom-1d-gauss-replay": [
        "energy", "--config", "{outdir}/energy-custom-1d-gauss/custom_energy_ofedg_n40.json"],
    "energy-custom-2d-sine": ["energy", "--problem", "custom", "--dim", "2",
                              "--domain", "0,1,0,2", "--initial", "sine", "--ns", "12"],
    "shock-custom-2d-box": ["shock", "--problem", "custom", "--dim", "2", "--domain", "0,1,0,2",
                            "--initial", "box", "--ns", "12", "--source", "cubic_4"],
    "energy-custom-1d-neumann": NEUMANN_SINE,
    "energy-custom-1d-neumann-undamped": NEUMANN_SINE + ["--damping", "0", "--penalty", "0"],
    "energy-custom-1d-neumann-side1": NEUMANN_SINE + ["--alternating-side", "1"],
}

#: replay run -> the run whose metadata JSON it replays
REPLAYS = {name: name.removesuffix("-replay") for name in RUNS if name.endswith("-replay")}

#: config files written under OUTDIR/configs for the custom-problem runs
CONFIGS = {
    "custom-1d.cfg": "problem = custom\ndim = 1\ndomain = 0,1\ninitial = box\n"
                     "source = cubic_4\nboundary = neumann\nns = 40\n",
    "custom-2d.cfg": "problem = custom\ndim = 2\ndomain = 0,1,0,2\ninitial = gauss\nns = 12\n",
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


def run_digests(outdir: str, name: str) -> dict:
    """The digest of each artifact of the run, by its path under the run's directory."""
    top = os.path.join(outdir, name)
    return {os.path.relpath(os.path.join(root, fname), top): digest(os.path.join(root, fname))
            for root, _, files in os.walk(top) for fname in files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                      os.pardir, "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from wavedg import cli

    configs = os.path.join(args.outdir, "configs")
    os.makedirs(configs, exist_ok=True)
    for fname, text in CONFIGS.items():
        with open(os.path.join(configs, fname), "w") as fh:
            fh.write(text)
    failed = 0
    for name, run in RUNS.items():
        rundir = os.path.join(args.outdir, name)
        argv = [a.format(configs=configs, outdir=args.outdir) for a in run]
        with contextlib.redirect_stdout(sys.stderr):  # stdout is for the digests
            code = cli.main(argv + ["--outdir", rundir])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            failed += 1
    for name, source in REPLAYS.items():
        if run_digests(args.outdir, name) != run_digests(args.outdir, source):
            print(f"{name}: artifacts differ from those of {source}", file=sys.stderr)
            failed += 1
    for name in sorted(RUNS):
        for rel, sha in sorted(run_digests(args.outdir, name).items()):
            print(f"{sha}  {os.path.join(name, rel)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
