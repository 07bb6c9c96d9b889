"""Compare two OUTDIRs of tools/artifact_digests.py and size every difference.

Usage:
    python tools/artifact_diff.py A B

Prints one line per file under either OUTDIR, by its path there (run
directory first; the digest tool's config files under `configs/` too),
saying "identical" or "differs", and under a differing one what moved:

- a CSV, per column: the rows that differ, the largest absolute and
  relative deviation over them, and the first such row with both texts;
- a metadata JSON, each differing leaf by its path (`a.b[2]`) with both
  values; `config.outdir` is ignored, as the digest tool blanks it;
- any other file: its sizes; a file present on one side only: that side.

Values are compared by their float64 bits first, so 0.0 against -0.0, or
a NaN against a NaN of another sign or payload, counts as a difference,
while a NaN equals a NaN of the same bits.  The deviation of a signed zero
is 0, that of a NaN is NaN.  (The CLI prints every NaN as `nan` or `NaN`,
so its own artifacts carry no NaN sign or payload.)  A CSV whose
texts differ but whose values have the same bits is reported as differing
in text only.  Exits 0 when every artifact is identical, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(a, b) -> bool:
    """Equal JSON leaves or CSV values: floats by their bits, others by type and value."""
    if isinstance(a, float) and isinstance(b, float):
        return _bits(a) == _bits(b)
    return type(a) is type(b) and a == b


def _deviation(a: float, b: float) -> tuple[float, float]:
    """|a - b| and that over max(|a|, |b|), or itself where that is 0; NaN from a NaN."""
    dev = abs(a - b)
    top = max(abs(a), abs(b))
    return dev, (dev / top if top else dev)


def _max(values) -> float:
    """The largest value, NaN if any is NaN."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def diff_csv(a: bytes, b: bytes) -> list[str]:
    """Per column of two CSVs with one header line: rows that differ in bits and their size."""
    rows_a, rows_b = a.decode().splitlines(), b.decode().splitlines()
    notes = []
    if rows_a[:1] != rows_b[:1]:
        notes.append(f"header: {rows_a[:1]} vs {rows_b[:1]}")
    if len(rows_a) != len(rows_b):
        notes.append(f"rows: {len(rows_a) - 1} vs {len(rows_b) - 1}")
    names = rows_a[0].split(",") if rows_a else []
    moved = {name: [] for name in names}  # name -> [(row, text a, text b)]
    for row, (line_a, line_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if line_a == line_b:
            continue
        for name, ta, tb in zip(names, line_a.split(","), line_b.split(",")):
            if ta != tb and not _same(float(ta), float(tb)):
                moved[name].append((row, ta, tb))
    for name, rows in moved.items():
        if not rows:
            continue
        devs = [_deviation(float(ta), float(tb)) for _, ta, tb in rows]
        row, ta, tb = rows[0]
        notes.append(f"column {name}: {len(rows)} of {len(rows_a) - 1} rows differ, "
                     f"max abs {_max(d[0] for d in devs):.3g}, "
                     f"max rel {_max(d[1] for d in devs):.3g}, first row {row}: {ta} vs {tb}")
    return notes or ["text only; every value has the same bits"]


def _leaves(x, path: str = ""):
    """(path, value) of every leaf of parsed JSON; an empty dict or list is a leaf."""
    if isinstance(x, dict) and x:
        for key in sorted(x):
            yield from _leaves(x[key], f"{path}.{key}" if path else key)
    elif isinstance(x, list) and x:
        for i, item in enumerate(x):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, x


def diff_json(a: bytes, b: bytes) -> list[str]:
    """Every leaf that differs between two metadata JSONs, config.outdir ignored."""
    leaves = []
    for data in (a, b):
        meta = json.loads(data)
        if isinstance(meta, dict) and isinstance(meta.get("config"), dict):
            meta["config"]["outdir"] = ""
        leaves.append(dict(_leaves(meta)))
    notes = []
    missing = object()
    for path in sorted(leaves[0].keys() | leaves[1].keys()):
        va, vb = (side.get(path, missing) for side in leaves)
        if va is missing or vb is missing:
            notes.append(f"{path}: only in {'B' if va is missing else 'A'}")
        elif not _same(va, vb):
            note = f"{path}: {va!r} vs {vb!r}"
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (va, vb)):
                dev, rel = _deviation(float(va), float(vb))
                note += f" (abs {dev:.3g}, rel {rel:.3g})"
            notes.append(note)
    return notes


def diff_artifact(path_a: str, path_b: str) -> list[str]:
    """Notes on how the artifact differs between the two paths; empty when identical."""
    sides = []
    for path in (path_a, path_b):
        with open(path, "rb") as fh:
            sides.append(fh.read())
    if path_a.endswith(".json"):
        return diff_json(*sides)
    if sides[0] == sides[1]:
        return []
    if path_a.endswith(".csv"):
        return diff_csv(*sides)
    return [f"bytes: {len(sides[0])} vs {len(sides[1])}"]


def _artifacts(top: str) -> set:
    return {os.path.relpath(os.path.join(root, fname), top)
            for root, _, files in os.walk(top) for fname in files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="OUTDIR of one tree's digest run")
    parser.add_argument("b", help="OUTDIR of the other tree's digest run")
    args = parser.parse_args(argv)
    for top in (args.a, args.b):
        if not os.path.isdir(top):
            parser.error(f"{top!r} is not a directory")
    in_a, in_b = _artifacts(args.a), _artifacts(args.b)
    paths = sorted(in_a | in_b)
    width = max((len(p) for p in paths), default=0)
    differing = 0
    for rel in paths:
        if rel not in in_a or rel not in in_b:
            notes = [f"only in {'A' if rel in in_a else 'B'}"]
        else:
            notes = diff_artifact(os.path.join(args.a, rel), os.path.join(args.b, rel))
        print(f"{rel:<{width}}  {'differs' if notes else 'identical'}")
        for note in notes:
            print(f"    {note}")
        differing += bool(notes)
    print(f"{len(paths) - differing} of {len(paths)} artifacts identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
