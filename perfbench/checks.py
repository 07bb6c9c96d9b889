"""Output checks of the benchmark workloads.

Each check compares an output against an independent computation or a
property the method must have, never against a stored copy of an earlier
output.  A check returns the figure it measured and raises CheckFailed when
the output is wrong.
"""
from __future__ import annotations

import itertools

import numpy as np

from wavedg import cli, diagnostics
from wavedg.field import total_degree_modes

# The x<->y mirror of a symmetric ex8 run differs only by rounding in the
# order of summation: measured 7e-16 (u) and 1.2e-15 (v) relative at 120 steps.
MIRROR_RTOL = 1e-12
# the oracle gate of the test suite
ORACLE_RTOL = 1e-10


class CheckFailed(AssertionError):
    pass


def mirror_deviation(coeffs: np.ndarray, degree: int) -> float:
    """max |c - mirror(c)| / max |c| for 2D modal coefficients (nx, ny, nm).

    The mirror swaps x and y: cell (i, j) takes cell (j, i)'s coefficients
    with each mode (m1, m2) read from mode (m2, m1).
    """
    modes = total_degree_modes(degree)
    index = {tuple(m): k for k, m in enumerate(modes)}
    swap = np.array([index[(m2, m1)] for m1, m2 in modes])
    mirrored = np.transpose(coeffs, (1, 0, 2))[..., swap]
    scale = float(np.max(np.abs(coeffs)))
    return float(np.max(np.abs(coeffs - mirrored))) / scale if scale > 0.0 else 0.0


def check_mirror_2d(u: np.ndarray, p: int, v: np.ndarray, q: int) -> dict:
    """Finite states equal to their x<->y mirror within MIRROR_RTOL."""
    for name, arr in (("u", u), ("v", v)):
        if not np.all(np.isfinite(arr)):
            raise CheckFailed(f"final {name} has non-finite coefficients")
    dev = {"u": mirror_deviation(u, p), "v": mirror_deviation(v, q)}
    for name, val in dev.items():
        if not val <= MIRROR_RTOL:
            raise CheckFailed(f"final {name} is not mirror-symmetric: deviation {val:.3e}")
    return dev


def check_oracle_rhs(du, dv, du_ref, dv_ref) -> float:
    """Relative deviation of one RHS from the brute-force reassembly."""
    scale = max(1.0, float(np.max(np.abs(du_ref))), float(np.max(np.abs(dv_ref))))
    dev = max(float(np.max(np.abs(du - du_ref))), float(np.max(np.abs(dv - dv_ref)))) / scale
    if not dev <= ORACLE_RTOL:
        raise CheckFailed(f"RHS differs from the brute-force reassembly by {dev:.3e}")
    return dev


def check_characteristic_fronts(x, profile, coarse_h: float, expected) -> list:
    """Fronts of the profile, each within one coarse cell of an expected position.

    Fronts are read as the CLI reads the comparator's profile: swings through
    its mid-range, each at its own half height.
    """
    res = diagnostics.compare_front_positions(
        x, profile, x, profile, coarse_h=coarse_h, merge_factor=cli.FRONT_MERGE_FACTOR,
        match_factor=cli.FRONT_MATCH_FACTOR, band_fraction=cli.FRONT_BAND_FRACTION)
    found = [float(f) for f in res.reference_fronts]
    if len(found) != len(expected) or any(
            abs(f - e) > coarse_h for f, e in zip(sorted(found), sorted(expected))):
        raise CheckFailed(f"fronts {found} are not within one cell ({coarse_h:.4g}) "
                          f"of {list(expected)}")
    return found


def check_transpose_symmetric(u: np.ndarray) -> None:
    """A field solved from x<->y symmetric data on a square grid equals its transpose."""
    if not np.array_equal(u, u.T):
        raise CheckFailed("comparator field is not x<->y symmetric: "
                          f"max |u - u.T| = {float(np.max(np.abs(u - u.T))):.3e}")


def check_csv_readback(path, columns: dict, chunk_rows: int = 100_000) -> int:
    """The CSV at path holds exactly these columns, in this order; returns rows.

    The file is parsed chunk by chunk, so the check adds little to the
    run's peak memory.
    """
    names = list(columns)
    cols = [np.asarray(columns[k], dtype=float) for k in names]
    rows = 0
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != names:
            raise CheckFailed(f"{path}: header {header}, expected {names}")
        while True:
            lines = list(itertools.islice(fh, chunk_rows))
            if not lines:
                break
            data = np.loadtxt(lines, delimiter=",", ndmin=2)
            for k, name in enumerate(names):
                if not np.array_equal(data[:, k], cols[k][rows:rows + len(data)]):
                    raise CheckFailed(f"{path}: column {name!r} does not read back "
                                      "to the solved values")
            rows += len(data)
    if any(rows != len(col) for col in cols):
        raise CheckFailed(f"{path}: {rows} rows, expected {len(cols[0])}")
    return rows
