"""Error norms, discrete energies, convergence-rate fits, oscillation metrics.

The quadratic energy is the undivided form integral(u_x^2 + v^2) (gradient
form in 2D).  When a source term is supplied, the reported energy switches
to the halved quadratic part plus the integral of the source antiderivative;
run metadata records which normalization was used.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .field import write_columns_csv


def l2_error(fld, exact) -> float:
    """L2 norm of (field - exact) by per-cell Gauss quadrature."""
    q = fld.gauss_points(fld.degree + 5)
    diff = q.values(fld.coeffs) - np.asarray(exact(*q.points), dtype=float)
    return float(np.sqrt(q.integrate(diff**2)))


def gradient_l2_error(fld, exact_dx, exact_dy=None) -> float:
    """L2 norm of the gradient error (derivative error in 1D)."""
    q = fld.gauss_points(fld.degree + 5)
    grads = q.gradient(fld.coeffs)
    if len(grads) == 2 and exact_dy is None:
        raise ValueError("2D gradient error needs exact_dy")
    sq = sum((g - np.asarray(f(*q.points), dtype=float))**2
             for g, f in zip(grads, (exact_dx, exact_dy)))
    return float(np.sqrt(q.integrate(sq)))


def source_integral(u, source) -> float:
    """integral(G(u)) by per-cell Gauss quadrature, G the source antiderivative."""
    q = u.gauss_points(u.degree + 3)
    return q.integrate(source.antiderivative_G(q.values(u.coeffs)))


def energy(u, v, source=None) -> float:
    """Discrete energy of the pair (u, v).

    Without a source: integral(u_x^2 + v^2) (gradient form in 2D, no 1/2).
    With a source: 0.5 * integral(v^2 + u_x^2) + integral(G(u)), where G is
    the source antiderivative supplied by the source descriptor.
    """
    quad = u.gradient_energy() + v.l2_squared()
    if source is None:
        return quad
    return 0.5 * quad + source_integral(u, source)


@dataclass
class ConvergenceTable:
    """Refinement study: cell counts, mesh sizes, errors, optional extras."""

    ns: list
    hs: list
    errors: list
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.ns) == len(self.hs) == len(self.errors)):
            raise ValueError("table columns must have equal lengths")
        if any(n2 <= n1 for n1, n2 in zip(self.ns, self.ns[1:])):
            raise ValueError("cell counts must be strictly increasing")

    @property
    def saturated(self) -> bool:
        return any(e == 0.0 for e in self.errors)

    def pairwise_slopes(self) -> list:
        out = []
        for (h1, e1), (h2, e2) in zip(zip(self.hs, self.errors), zip(self.hs[1:], self.errors[1:])):
            if e1 <= 0.0 or e2 <= 0.0:
                out.append(float("nan"))
            else:
                out.append(float(np.log(e1 / e2) / np.log(h1 / h2)))
        return out

    def least_squares_slope(self) -> float:
        hs = np.asarray(self.hs)
        es = np.asarray(self.errors)
        ok = es > 0.0
        if ok.sum() < 2:
            return float("nan")
        return float(np.polyfit(np.log(hs[ok]), np.log(es[ok]), 1)[0])

    def write_csv(self, path: str | os.PathLike) -> None:
        slopes = [float("nan")] + self.pairwise_slopes()
        cols = {
            "n": np.asarray(self.ns, dtype=float),
            "h": np.asarray(self.hs, dtype=float),
            "error": np.asarray(self.errors, dtype=float),
            "slope": np.asarray(slopes, dtype=float),
        }
        for name, vals in self.extras.items():
            cols[name] = np.asarray(vals, dtype=float)
        write_columns_csv(path, cols)


@dataclass(frozen=True)
class OscillationReport:
    """Overshoot/undershoot against known solution bounds, plus total variation."""

    overshoot: float
    undershoot: float
    total_variation: float


def oscillation_metrics(values, lower: float, upper: float) -> OscillationReport:
    """Excess of midpoint samples beyond [lower, upper] and their variation."""
    vals = np.asarray(values, dtype=float)
    over = max(0.0, float(vals.max()) - upper)
    under = max(0.0, lower - float(vals.min()))
    tv = float(np.sum(np.abs(np.diff(vals))))
    return OscillationReport(overshoot=over, undershoot=under, total_variation=tv)


def level_crossings(x, u, level: float) -> np.ndarray:
    """Positions where the sampled profile crosses `level` (linear interp)."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(u, dtype=float) - level
    out = []
    for i in range(len(s) - 1):
        if s[i] == 0.0:
            out.append(x[i])
        elif s[i] * s[i + 1] < 0.0:
            frac = s[i] / (s[i] - s[i + 1])
            out.append(x[i] + frac * (x[i + 1] - x[i]))
    if len(s) and s[-1] == 0.0:
        out.append(x[-1])
    return np.asarray(out)


def _swings(s, band: float) -> list:
    """Hysteresis swings of the level-shifted profile s as (start, end, sign).

    A swing registers when the profile passes from below -band to above
    +band (sign +1) or back (sign -1), so plateau wiggles straddling the
    level do not count.  It starts at the last sample beyond the far band
    edge and ends at the first sample beyond the near one.
    """
    out = []
    state = -1 if s[0] < 0.0 else 1
    last_low = last_high = 0
    for i in range(1, len(s)):
        val = s[i]
        if val <= -band:
            if state > 0:
                out.append((last_high, i, -1))
                state = -1
            last_low = i
        elif val >= band:
            if state < 0:
                out.append((last_low, i, 1))
                state = 1
            last_high = i
    return out


def front_positions(x, u, level: float, band: float, halfwidth: float) -> np.ndarray:
    """Fronts of a sampled profile, each read at its own half height.

    Fronts are the hysteresis swings through `level` (band as in
    `_swings`).  Inside each swing the front's steep part is the largest
    change over two samples in the swing's direction; two samples, so that
    cell-to-cell ringing of a dispersive comparator does not outrank the
    front itself.  The front is placed where the profile crosses the
    midpoint of its lowest and highest values within `halfwidth` of the
    steep part, taking the crossing nearest to it.  A global level would
    read a smeared ramp near its top or bottom, or land on a slow tail
    ahead of the front, whenever the front does not span the whole range.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    last = len(u) - 1
    out = []
    for start, end, sign in _swings(u - level, band):
        ks = np.arange(start, end)
        k = int(ks[np.argmax(sign * (u[np.minimum(ks + 2, last)] - u[ks]))])
        centre = 0.5 * (x[k] + x[min(k + 2, last)])
        win = np.abs(x - centre) <= halfwidth
        half = 0.5 * (float(u[win].min()) + float(u[win].max()))
        crossings = level_crossings(x[win], u[win], half)
        out.append(crossings[np.argmin(np.abs(crossings - centre))])
    return np.asarray(out)


def bin_average(x_fine, u_fine, edges) -> np.ndarray:
    """Average a fine profile over the cells bounded by `edges`.

    Collapses a finer comparator grid onto the coarse cell layout so both
    profiles are compared at the same resolution.
    """
    x_fine = np.asarray(x_fine, dtype=float)
    edges = np.asarray(edges, dtype=float)
    idx = np.clip(np.searchsorted(edges, x_fine, side="right") - 1, 0, len(edges) - 2)
    sums = np.bincount(idx, weights=np.asarray(u_fine, dtype=float), minlength=len(edges) - 1)
    cnts = np.bincount(idx, minlength=len(edges) - 1)
    return sums / np.maximum(cnts, 1)


def merge_close(positions, tol: float) -> np.ndarray:
    """Collapse clusters of crossings closer than tol into their means.

    A dispersive comparator can wiggle through the detection level near a
    front; merging turns each wiggle packet back into one front position.
    """
    pos = np.sort(np.asarray(positions, dtype=float))
    if len(pos) == 0:
        return pos
    groups = [[pos[0]]]
    for pnt in pos[1:]:
        if pnt - groups[-1][-1] < tol:
            groups[-1].append(pnt)
        else:
            groups.append([pnt])
    return np.asarray([float(np.mean(g)) for g in groups])


# half-width, in coarse cells, of the neighbourhood of a front's steep part
# whose lowest and highest values set the front's half height
FRONT_WINDOW_CELLS = 6.0


@dataclass(frozen=True)
class FrontComparison:
    level: float
    reference_fronts: np.ndarray
    test_fronts: np.ndarray
    max_offset: float
    matches: bool

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "reference_fronts": list(map(float, self.reference_fronts)),
            "test_fronts": list(map(float, self.test_fronts)),
            "max_offset": self.max_offset,
            "matches": self.matches,
        }


def compare_front_positions(x_ref, u_ref, x_test, u_test, coarse_h: float,
                            level: float | None = None, merge_factor: float = 1.5,
                            match_factor: float = 2.0,
                            band_fraction: float = 0.15) -> FrontComparison:
    """Match the half-height positions of the fronts of two profiles.

    Fronts are detected in both profiles as swings through one level, which
    defaults to the mid-range of the reference, with a hysteresis band of
    band_fraction times the reference's range, so comparator ringing on a
    plateau near the level is not read as extra fronts.  Each front is then
    read at its own half height around its steep part (`front_positions`,
    within FRONT_WINDOW_CELLS coarse cells).  Fronts closer than
    merge_factor * coarse_h collapse to one; the profiles agree when front
    counts match and every paired offset stays within match_factor * coarse_h.
    """
    u_ref = np.asarray(u_ref, dtype=float)
    if level is None:
        level = 0.5 * (float(u_ref.max()) + float(u_ref.min()))
    band = band_fraction * (float(u_ref.max()) - float(u_ref.min()))
    halfwidth = FRONT_WINDOW_CELLS * coarse_h
    fr = merge_close(front_positions(x_ref, u_ref, level, band, halfwidth),
                     merge_factor * coarse_h)
    ft = merge_close(front_positions(x_test, u_test, level, band, halfwidth),
                     merge_factor * coarse_h)
    if len(fr) != len(ft) or len(fr) == 0:
        offset = float("inf") if len(fr) != len(ft) else 0.0
        return FrontComparison(level, fr, ft, offset, len(fr) == len(ft))
    offset = float(np.max(np.abs(fr - ft)))
    return FrontComparison(level, fr, ft, offset, offset <= match_factor * coarse_h)
