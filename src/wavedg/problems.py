"""Built-in experiment problems for the runner.

Each entry fixes domain, initial data, boundary kind, source term and the
comparison data (closed-form solution where one exists, otherwise a finite
difference comparator resolution).  The parallel sweep pickles no
problem callable: each level re-resolves its problem from the config.

Each fact is written once.  Smooth initial data are the closed forms at
t = 0 (`functools.partial`); every zero initial velocity is `zero_u1`, of
any number of coordinates; the box data of ex4, ex5, ex7 and ex8 come from
one builder, `boxes`; and `make_custom_problem` has one body for 1D and 2D.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mesh import BOUNDARY_KINDS
from .scheme1d import SOURCES

_SQ75 = math.sqrt(0.75)
_SQ2 = math.sqrt(2.0)


def zero_u1(*coords):
    """Zero initial velocity, shaped like the broadcast coordinates."""
    return np.zeros(np.broadcast_shapes(*(np.shape(c) for c in coords)))


def boxes(*spec):
    """Initial data of any number of coordinates: `height` on the closed box where
    every coordinate lies in [lo, hi], for each (lo, hi, height) of spec (the first
    listed where boxes overlap), and 0 elsewhere.  Each comparison reads one
    coordinate array, before they broadcast."""
    def u0(*coords):
        coords = [np.asarray(c, dtype=float) for c in coords]
        out = zero_u1(*coords)
        for lo, hi, height in reversed(spec):
            inside = functools.reduce(operator.and_, [(c >= lo) & (c <= hi) for c in coords])
            np.copyto(out, height, where=inside)
        return out

    return u0


# ex1: smooth traveling wave on (-1, 1)
def ex1_exact(x, t):
    return np.sin(np.pi * (x - t))


def ex1_exact_dx(x, t):
    return np.pi * np.cos(np.pi * (x - t))


def ex1_exact_dt(x, t):
    return -np.pi * np.cos(np.pi * (x - t))


# ex2: standing breather of u_tt = u_xx - sin u on (-40, 40); its velocity at
# t = 0 is -0.0 everywhere, so the problem starts from zero_u1's +0.0
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


# ex3: piecewise-constant data on (-1, 1); closed form by splitting the
# step into half-amplitude left/right translates (periodic extension)
def ex3_u0(x):
    xm = np.mod(np.asarray(x, dtype=float) + 1.0, 2.0) - 1.0
    return np.where(np.abs(xm) < 0.5, 1.0, 0.5)


def ex3_exact(x, t):
    return 0.5 * (ex3_u0(np.asarray(x) - t) + ex3_u0(np.asarray(x) + t))


# ex4 / ex5: two boxes on (0, 1) with nonlinear sources; ex8 puts them on
# the diagonal of [-1, 1]^2
_LEFT_BOX = (0.3, 0.425)
_RIGHT_BOX = (0.575, 0.7)


# ex6: smooth plane wave on the periodic square
def ex6_exact(x, y, t):
    return np.sin(np.asarray(x) + np.asarray(y) + _SQ2 * t)


def ex6_exact_dx(x, y, t):
    return np.cos(np.asarray(x) + np.asarray(y) + _SQ2 * t)


ex6_exact_dy = ex6_exact_dx


def ex6_exact_dt(x, y, t):
    return _SQ2 * np.cos(np.asarray(x) + np.asarray(y) + _SQ2 * t)


def make_custom_problem(dim: int, domain: tuple, initial: str, source: str | None,
                        boundary: str) -> "Problem":
    """Ad-hoc problem: registry initial data, zero initial velocity, neither a
    closed form nor a comparator (so it works with the shock/energy runners only).

    On the box [a_i, b_i] of width w_i = b_i - a_i and midpoint m_i per axis,
    the initial data are the product of sin(2 pi (x_i - a_i) / w_i) (sine),
    exp(-sum of ((x_i - m_i) / (0.1 w_i))^2) (gauss), or 1 where every
    |x_i - m_i| < w_i / 4 and 0 elsewhere (box).

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
    axes = [(a, 0.5 * (a + b), b - a) for a, b in zip(domain[::2], domain[1::2])]

    def u0(*coords):
        at = [(np.asarray(x, dtype=float), *axis) for x, axis in zip(coords, axes)]
        if initial == "sine":
            return math.prod(np.sin(2.0 * np.pi * (x - a) / w) for x, a, _, w in at)
        if initial == "gauss":
            return np.exp(-sum(((x - m) / (0.1 * w)) ** 2 for x, _, m, w in at))
        inside = functools.reduce(operator.and_, [np.abs(x - m) < 0.25 * w for x, _, m, w in at])
        return np.where(inside, 1.0, 0.0)

    return Problem(key="custom", title=f"custom {dim}D ({initial})", dim=dim,
                   domain=tuple(domain), u0=u0, u1=zero_u1, boundary=boundary,
                   source_name=source, default_n={1: 160, 2: 64}[dim])


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
        u0=functools.partial(ex1_exact, t=0.0), u1=functools.partial(ex1_exact_dt, t=0.0),
        exact=ex1_exact, exact_dx=ex1_exact_dx, exact_dt=ex1_exact_dt, default_n=160,
    ),
    "ex2": Problem(
        key="ex2", title="standing breather, sine-Gordon", dim=1, domain=(-40.0, 40.0),
        u0=functools.partial(ex2_exact, t=0.0), u1=zero_u1, boundary="neumann",
        source_name="sine_gordon",
        exact=ex2_exact, exact_dx=ex2_exact_dx, exact_dt=ex2_exact_dt, default_n=320,
    ),
    "ex3": Problem(
        key="ex3", title="piecewise-constant data, linear", dim=1, domain=(-1.0, 1.0),
        u0=ex3_u0, u1=zero_u1, exact=ex3_exact, default_n=160, exact_bounds=(0.5, 1.0),
    ),
    "ex4": Problem(
        key="ex4", title="double box, strong sine source", dim=1, domain=(0.0, 1.0),
        u0=boxes((*_LEFT_BOX, 5.0), (*_RIGHT_BOX, 2.5)), u1=zero_u1,
        source_name="sine_gordon_160", default_n=320,
        comparator_intervals=1000,
    ),
    "ex5": Problem(
        key="ex5", title="double box, cubic source", dim=1, domain=(0.0, 1.0),
        u0=boxes((*_LEFT_BOX, 4.0), (*_RIGHT_BOX, 2.0)), u1=zero_u1,
        source_name="cubic_4", default_n=320,
        comparator_intervals=1000,
    ),
    "ex6": Problem(
        key="ex6", title="smooth plane wave, 2D linear", dim=2,
        domain=(-math.pi, math.pi, -math.pi, math.pi),
        u0=functools.partial(ex6_exact, t=0.0), u1=functools.partial(ex6_exact_dt, t=0.0),
        exact=ex6_exact, exact_dx=ex6_exact_dx,
        exact_dy=ex6_exact_dy, exact_dt=ex6_exact_dt, default_n=40,
    ),
    "ex7": Problem(
        key="ex7", title="square bump, 2D sine source", dim=2, domain=(-1.0, 1.0, -1.0, 1.0),
        u0=boxes((0.375, 0.625, 0.5)), u1=zero_u1, source_name="sine_gordon_16", default_n=200,
        comparator_intervals=1000,
        notes={"profile_row": 0.5},
    ),
    "ex8": Problem(
        key="ex8", title="two square bumps, 2D cubic source", dim=2,
        domain=(-1.0, 1.0, -1.0, 1.0),
        u0=boxes((*_LEFT_BOX, 0.5), (*_RIGHT_BOX, 0.25)), u1=zero_u1,
        source_name="cubic_4", default_n=320,
        comparator_intervals=1000,
        notes={
            "profile_row": 0.3625,
            "operator": "full Laplacian (both second derivatives) plus source",
        },
    ),
}
