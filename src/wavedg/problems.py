"""Built-in experiment problems for the runner.

Each entry fixes domain, initial data, boundary kind, source term and the
comparison data (closed-form solution where one exists, otherwise a finite
difference comparator resolution).  The parallel sweep pickles no
problem callable: each level re-resolves its problem from the config.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mesh import BOUNDARY_KINDS
from .scheme1d import SOURCES

_SQ75 = math.sqrt(0.75)
_SQ2 = math.sqrt(2.0)


# zero initial velocity, 1D
def zero_u1(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# ex1: smooth traveling wave on (-1, 1)
def ex1_exact(x, t):
    return np.sin(np.pi * (x - t))


def ex1_exact_dx(x, t):
    return np.pi * np.cos(np.pi * (x - t))


def ex1_exact_dt(x, t):
    return -np.pi * np.cos(np.pi * (x - t))


def ex1_u0(x):
    return ex1_exact(x, 0.0)


def ex1_u1(x):
    return ex1_exact_dt(x, 0.0)


# ex2: standing breather of u_tt = u_xx - sin u on (-40, 40)
def _breather_w(x, t):
    return 2.0 * _SQ75 * np.cos(0.5 * t) / np.cosh(_SQ75 * np.asarray(x))


def ex2_exact(x, t):
    return 4.0 * np.arctan(_breather_w(x, t))


def ex2_exact_dx(x, t):
    w = _breather_w(x, t)
    return 4.0 * (-_SQ75 * w * np.tanh(_SQ75 * np.asarray(x))) / (1.0 + w**2)


def ex2_exact_dt(x, t):
    x = np.asarray(x)
    wt = -_SQ75 * np.sin(0.5 * t) / np.cosh(_SQ75 * x)
    return 4.0 * wt / (1.0 + _breather_w(x, t) ** 2)


def ex2_u0(x):
    return ex2_exact(x, 0.0)


# ex3: piecewise-constant data on (-1, 1); closed form by splitting the
# step into half-amplitude left/right translates (periodic extension)
def ex3_u0(x):
    xm = np.mod(np.asarray(x, dtype=float) + 1.0, 2.0) - 1.0
    return np.where(np.abs(xm) < 0.5, 1.0, 0.5)


def ex3_exact(x, t):
    return 0.5 * (ex3_u0(np.asarray(x) - t) + ex3_u0(np.asarray(x) + t))


# ex4 / ex5: piecewise-constant data on (0, 1) with nonlinear sources
def _double_box(x, lo_val, hi_val):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out = np.where((x >= 0.3) & (x <= 0.425), hi_val, out)
    out = np.where((x >= 0.575) & (x <= 0.7), lo_val, out)
    return out


def ex4_u0(x):
    return _double_box(x, 2.5, 5.0)


def ex5_u0(x):
    return _double_box(x, 2.0, 4.0)


# ex6: smooth plane wave on the periodic square
def ex6_exact(x, y, t):
    return np.sin(np.asarray(x) + np.asarray(y) + _SQ2 * t)


def ex6_exact_dx(x, y, t):
    return np.cos(np.asarray(x) + np.asarray(y) + _SQ2 * t)


ex6_exact_dy = ex6_exact_dx


def ex6_exact_dt(x, y, t):
    return _SQ2 * np.cos(np.asarray(x) + np.asarray(y) + _SQ2 * t)


def ex6_u0(x, y):
    return ex6_exact(x, y, 0.0)


def ex6_u1(x, y):
    return ex6_exact_dt(x, y, 0.0)


# ex7 / ex8: square bumps on [-1, 1]^2 with nonlinear sources
def ex7_u0(x, y):
    x, y = np.asarray(x), np.asarray(y)
    inside = (x >= 0.375) & (x <= 0.625) & (y >= 0.375) & (y <= 0.625)
    return np.where(inside, 0.5, 0.0)


def ex8_u0(x, y):
    x, y = np.asarray(x), np.asarray(y)
    box1 = (x >= 0.3) & (x <= 0.425) & (y >= 0.3) & (y <= 0.425)
    box2 = (x >= 0.575) & (x <= 0.7) & (y >= 0.575) & (y <= 0.7)
    return np.where(box1, 0.5, np.where(box2, 0.25, 0.0))


def zero_u1_2d(x, y):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)


def make_custom_problem(dim: int, domain: tuple, initial: str, source: str | None,
                        boundary: str) -> "Problem":
    """Ad-hoc problem: registry initial data, zero initial velocity, no
    closed form (so it works with the shock/energy/compare runners only).

    Every argument is checked here; a `ValueError` names its config key.
    """
    if dim not in (1, 2):
        raise ValueError(f"'dim' must be 1 or 2, got {dim}")
    if len(domain) != 2 * dim:
        raise ValueError(f"'domain' must be a,b (1D) or ax,bx,ay,by (2D), got {list(domain)}")
    if not all(math.isfinite(a) and math.isfinite(b) and a < b
               for a, b in zip(domain[::2], domain[1::2])):
        raise ValueError(f"'domain' bounds must be finite, each lower bound below its upper "
                         f"bound, got {list(domain)}")
    if initial not in ("sine", "gauss", "box"):
        raise ValueError(f"'initial': unknown initial data {initial!r} "
                         "(choose from sine, gauss, box)")
    if source is not None and source not in SOURCES:
        raise ValueError(f"'source': unknown source {source!r} (choose from {', '.join(SOURCES)})")
    if boundary not in BOUNDARY_KINDS or (dim == 2 and boundary != "periodic"):
        raise ValueError(f"'boundary' {boundary!r} is not supported in {dim}D "
                         f"(1D: {' or '.join(BOUNDARY_KINDS)}; 2D: periodic)")
    if dim == 1:
        a, b = domain
        mid = 0.5 * (a + b)
        width = b - a

        def u0(x):
            x = np.asarray(x, dtype=float)
            if initial == "sine":
                return np.sin(2.0 * np.pi * (x - a) / width)
            if initial == "gauss":
                return np.exp(-(((x - mid) / (0.1 * width)) ** 2))
            return np.where(np.abs(x - mid) < 0.25 * width, 1.0, 0.0)

        return Problem(key="custom", title=f"custom 1D ({initial})", dim=1,
                       domain=(a, b), u0=u0, u1=zero_u1, boundary=boundary,
                       source_name=source, default_n=160)
    ax, bx, ay, by = domain
    mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
    wx, wy = bx - ax, by - ay

    def u0_2d(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if initial == "sine":
            return np.sin(2.0 * np.pi * (x - ax) / wx) * np.sin(2.0 * np.pi * (y - ay) / wy)
        if initial == "gauss":
            return np.exp(-(((x - mx) / (0.1 * wx)) ** 2) - ((y - my) / (0.1 * wy)) ** 2)
        inside = (np.abs(x - mx) < 0.25 * wx) & (np.abs(y - my) < 0.25 * wy)
        return np.where(inside, 1.0, 0.0)

    return Problem(key="custom", title=f"custom 2D ({initial})", dim=2,
                   domain=(ax, bx, ay, by), u0=u0_2d, u1=zero_u1_2d,
                   boundary=boundary, source_name=source, default_n=64)


@dataclass(frozen=True)
class Problem:
    key: str
    title: str
    dim: int
    domain: tuple
    u0: Callable
    u1: Callable
    boundary: str = "periodic"
    source_name: str | None = None
    exact: Callable | None = None
    exact_dx: Callable | None = None
    exact_dy: Callable | None = None
    exact_dt: Callable | None = None
    t_final: float = 0.25
    default_n: int = 160
    comparator_intervals: int | None = None
    exact_bounds: tuple | None = None
    notes: dict = field(default_factory=dict)


EXAMPLES: dict[str, Problem] = {
    "ex1": Problem(
        key="ex1", title="smooth traveling wave, linear", dim=1, domain=(-1.0, 1.0),
        u0=ex1_u0, u1=ex1_u1, exact=ex1_exact, exact_dx=ex1_exact_dx, exact_dt=ex1_exact_dt,
        default_n=160,
    ),
    "ex2": Problem(
        key="ex2", title="standing breather, sine-Gordon", dim=1, domain=(-40.0, 40.0),
        u0=ex2_u0, u1=zero_u1, boundary="neumann", source_name="sine_gordon",
        exact=ex2_exact, exact_dx=ex2_exact_dx, exact_dt=ex2_exact_dt, default_n=320,
    ),
    "ex3": Problem(
        key="ex3", title="piecewise-constant data, linear", dim=1, domain=(-1.0, 1.0),
        u0=ex3_u0, u1=zero_u1, exact=ex3_exact, default_n=160, exact_bounds=(0.5, 1.0),
    ),
    "ex4": Problem(
        key="ex4", title="double box, strong sine source", dim=1, domain=(0.0, 1.0),
        u0=ex4_u0, u1=zero_u1, source_name="sine_gordon_160", default_n=320,
        comparator_intervals=1000,
    ),
    "ex5": Problem(
        key="ex5", title="double box, cubic source", dim=1, domain=(0.0, 1.0),
        u0=ex5_u0, u1=zero_u1, source_name="cubic_4", default_n=320,
        comparator_intervals=1000,
    ),
    "ex6": Problem(
        key="ex6", title="smooth plane wave, 2D linear", dim=2,
        domain=(-math.pi, math.pi, -math.pi, math.pi),
        u0=ex6_u0, u1=ex6_u1, exact=ex6_exact, exact_dx=ex6_exact_dx,
        exact_dy=ex6_exact_dy, exact_dt=ex6_exact_dt, default_n=40,
    ),
    "ex7": Problem(
        key="ex7", title="square bump, 2D sine source", dim=2, domain=(-1.0, 1.0, -1.0, 1.0),
        u0=ex7_u0, u1=zero_u1_2d, source_name="sine_gordon_16", default_n=200,
        comparator_intervals=1000,
        notes={"profile_row": 0.5},
    ),
    "ex8": Problem(
        key="ex8", title="two square bumps, 2D cubic source", dim=2,
        domain=(-1.0, 1.0, -1.0, 1.0),
        u0=ex8_u0, u1=zero_u1_2d, source_name="cubic_4", default_n=320,
        comparator_intervals=1000,
        notes={
            "profile_row": 0.3625,
            "operator": "full Laplacian (both second derivatives) plus source",
        },
    ),
}
