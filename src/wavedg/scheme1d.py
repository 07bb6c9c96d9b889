"""Semi-discrete right-hand side of the 1D scheme.

The solver evolves the pair (u, v) with v = u_t.  Per cell, the update of u
combines a mean constraint (the cell mean of u_t equals the cell mean of v)
with equations tested against derivatives of the test modes.  Interface
coupling enters through a parameterized numerical flux, an interface
penalty acting on the jump of u, and jump-driven projection damping that
switches itself off where the solution is smooth.

Sign conventions: at an interface, "minus" is the limit from the left cell
and "plus" from the right, and jumps read plus - minus.  The penalty adds
(c/h^2) * jump * (interior test trace) with the orientation that pulls the
interior trace toward the exterior one, which is the dissipative direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import basis
from .basis import (
    derivative_matrix,
    endpoint_values,
    gauss_rule,
    mass_diagonal,
    stiffness_matrix,
    vandermonde,
)
from .mesh import Mesh1D

#: below this |u|, g(u)/u is replaced by g'(0) from the source descriptor
G_OVER_U_THRESHOLD = 1e-8


@dataclass(frozen=True)
class FluxParams:
    """Interface flux family: weighting alpha plus dissipation weights.

    vhat   = alpha*v+ + (1-alpha)*v- + tau*[[u_x]]
    uxhat  = (1-alpha)*u_x+ + alpha*u_x- + beta*[[v]]

    alpha = 1/2 with tau = beta = 0 is the central flux; alpha in {0, 1}
    gives the alternating flux; alpha = 1/2, tau = s/2, beta = 1/(2s) is the
    Sommerfeld flux with speed s > 0.

    Sides: `alternating(0)` takes vhat = v- and uxhat = u_x+ in 1D, but v+
    and d_n u- on a 2D face, where zeta = alpha - 1/2 weighs the sides
    mirrored: the 2D kernel calls `numerical_fluxes` with
    FluxParams(1 - alpha, tau, beta), minus the lower cell and u_x the
    normal derivative d_n u.  Side 1 swaps both.
    """

    alpha: float = 0.5
    tau: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"flux weighting 'alpha' must lie in [0, 1], got {self.alpha}")
        if not (0.0 <= self.tau < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError(f"flux dissipation weights 'tau' and 'beta' must be nonnegative "
                             f"and finite, got {self.tau} and {self.beta}")

    @classmethod
    def central(cls) -> "FluxParams":
        return cls(alpha=0.5)

    @classmethod
    def alternating(cls, side: int = 0) -> "FluxParams":
        if side not in (0, 1):
            raise ValueError(f"'alternating_side' must be 0 or 1, got {side}")
        return cls(alpha=float(side))

    @classmethod
    def sommerfeld(cls, speed: float = 1.0) -> "FluxParams":
        if not (0.0 < speed < math.inf and 0.5 / speed < math.inf):
            raise ValueError(f"'sommerfeld_speed' must be positive, with s and 1/(2s) finite, "
                             f"got {speed}")
        return cls(alpha=0.5, tau=0.5 * speed, beta=0.5 / speed)

    @property
    def zeta(self) -> float:
        """Per-direction component of the 2D weighting vector."""
        return self.alpha - 0.5


def flux_from_name(name: str, speed: float = 1.0, side: int = 0) -> FluxParams:
    """The flux named a, c or s (or in full); speed and side are checked for every name."""
    key = name.strip().lower()
    full = {"a": "alternating", "c": "central", "s": "sommerfeld"}.get(key, key)
    if full not in ("alternating", "central", "sommerfeld"):
        raise ValueError(f"'flux': unknown flux kind {name!r} (choose from a, c, s)")
    made = {"sommerfeld": FluxParams.sommerfeld(speed),
            "alternating": FluxParams.alternating(side), "central": FluxParams.central()}
    return made[full]


@dataclass(frozen=True)
class SourceTerm:
    """Nonlinear source g(u) with antiderivative data for energy reporting.

    antiderivative_G(u) = -integral_0^u g(z) dz, and gprime0 = g'(0) is the
    limit of g(u)/u used to regularize the quotient near u = 0.
    """

    name: str
    g: Callable
    antiderivative_G: Callable
    gprime0: float

    def g_over_u(self, u):
        u = np.asarray(u, dtype=float)
        small = np.abs(u) < G_OVER_U_THRESHOLD
        safe = np.where(small, 1.0, u)
        return np.where(small, self.gprime0, self.g(u) / safe)


def _g_sine(c, u):
    return c * np.sin(u)


def _G_sine(c, u):
    return c * (np.cos(u) - 1.0)


def _sine_source(name: str, c: float) -> SourceTerm:
    """The source g(u) = c sin u, with G(u) = c (cos u - 1) and g'(0) = c.

    g and G are partials of module-level functions, so the term pickles.
    """
    return SourceTerm(name, partial(_g_sine, c), partial(_G_sine, c), c)


def _g_cubic_4(u):  # ((4u)u)u, in one temporary
    out = 4.0 * u
    out *= u
    out *= u
    return out


def _G_cubic_4(u):  # -((u u)(u u)), in one temporary; a scalar has no out to negate into
    out = u * u
    out *= out
    return np.negative(out, out=out) if isinstance(out, np.ndarray) else -out


SOURCES: dict[str, SourceTerm] = {
    "sine_gordon": _sine_source("sine_gordon", -1.0),
    "sine_gordon_160": _sine_source("sine_gordon_160", 160.0),
    "sine_gordon_16": _sine_source("sine_gordon_16", 16.0),
    "cubic_4": SourceTerm("cubic_4", _g_cubic_4, _G_cubic_4, 0.0),
}


@dataclass(frozen=True)
class SolverConfig:
    """Degrees, flux, penalty/damping switches and source handling."""

    p: int
    q: int
    penalty_coefficient: float = 1.0
    damping: bool = True
    penalty: bool = True
    flux: FluxParams = FluxParams()
    chi: int = 1
    source: SourceTerm | None = None

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"degree 'p' must be at least 2, got {self.p}")
        if not max(1, self.p - 2) <= self.q <= self.p:
            raise ValueError(f"degree 'q' must lie in [max(1, p-2), p], got {self.q}")
        if not 0.0 <= self.penalty_coefficient < math.inf:
            raise ValueError(f"'penalty_coefficient' must be nonnegative and finite, "
                             f"got {self.penalty_coefficient}")
        if self.chi not in (0, 1):
            raise ValueError(f"'chi' must be 0 or 1, got {self.chi}")

    @property
    def quad_points(self) -> int:
        return basis.volume_quadrature_points(self.p)


def _weighted_sum(c1: float, x1, c2: float, x2):
    """c1*x1 + c2*x2 without its zero-weight term; a unit-weight term alone is x1 or x2 itself."""
    if c2 == 0.0:
        return x1 if c1 == 1.0 else c1 * x1
    if c1 == 0.0:
        return x2 if c2 == 1.0 else c2 * x2
    return c1 * x1 + c2 * x2


def numerical_fluxes(v_minus, v_plus, ux_minus, ux_plus, params: FluxParams):
    """Single-valued interface states (vhat, uxhat) of `FluxParams`; inputs broadcast.

    The one flux routine of both kernels.  Zero-weight terms are skipped,
    since they add only a signed zero on finite inputs, and a unit-weight
    side comes back as the input itself; so a derivative that no term reads
    (the alternating flux without tau) may be None.
    """
    a = params.alpha
    vhat = _weighted_sum(a, v_plus, 1.0 - a, v_minus)
    if params.tau:
        vhat = vhat + params.tau * (ux_plus - ux_minus)
    uxhat = _weighted_sum(1.0 - a, ux_plus, a, ux_minus)
    if params.beta:
        uxhat = uxhat + params.beta * (v_plus - v_minus)
    return vhat, uxhat


@lru_cache(maxsize=None)
def _tables(p: int, q: int, nq: int):
    """Reference matrices shared by all cells for a (p, q) pair and nq-point rule."""
    dp = derivative_matrix(p)
    dq = derivative_matrix(q)
    mp = mass_diagonal(p)
    kp = stiffness_matrix(p)
    dq_pad = np.zeros((p + 1, q + 1))
    dq_pad[: q + 1, :] = dq
    kpq = dp.T @ (mp[:, None] * dq_pad)  # (p+1, q+1): test V^p against v in V^q
    kqp = kpq.T
    kinv = np.linalg.inv(kp[1:, 1:])
    ep_l, ep_r = endpoint_values(p, 1)
    eq_l, eq_r = endpoint_values(q, 0)
    rule = gauss_rule(nq)
    return {
        "rule": rule,
        "vp_tab": vandermonde(rule.nodes, p),  # P_m at the volume nodes
        "vq_tab": vandermonde(rule.nodes, q),
        "dp": dp,
        "kp": kp,
        "kpq": kpq,
        "kqp": kqp,
        "kinv": kinv,
        "p_left": ep_l[0],    # P_m(-1)
        "p_right": ep_r[0],   # P_m(+1)
        "dp_left": ep_l[1],   # P'_m(-1)
        "dp_right": ep_r[1],  # P'_m(+1)
        "q_left": eq_l[0],
        "q_right": eq_r[0],
        "inv2kp1_p": 1.0 / (2.0 * np.arange(p + 1) + 1.0),
        "two_m_q": 2.0 * np.arange(q + 1) + 1.0,
    }


def damping_weights(ju: np.ndarray, jv: np.ndarray, widths: np.ndarray,
                    config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Damping weights (for_u, for_v) from derivative jumps at the two cell ends.

    for_u[j, l] = 2(2l+1)/(2p-1) * h_j^l / l! * sqrt(J_l(right)^2 + J_l(left)^2)
    for l = 1..p, with J_l the jump of the l-th derivative of u; for_v[j, l],
    l = 0..q, is the analogue with denominator (2q-1), the power h_j^(l+1),
    and jumps of v.
    """
    p, q = config.p, config.q
    sq_u = np.sqrt(ju[:-1] ** 2 + ju[1:] ** 2)  # (N, p+1), per-cell ends
    sq_v = np.sqrt(jv[:-1] ** 2 + jv[1:] ** 2)
    for_u = np.zeros_like(sq_u)
    for_v = np.zeros_like(sq_v)
    for l in range(1, p + 1):
        for_u[:, l] = (2.0 * (2 * l + 1) / (2 * p - 1)) * widths**l / math.factorial(l) * sq_u[:, l]
    for l in range(0, q + 1):
        for_v[:, l] = (2.0 * (2 * l + 1) / (2 * q - 1)) * widths**(l + 1) / math.factorial(l) * sq_v[:, l]
    return for_u, for_v


def sum_by_degree(weights: np.ndarray, degrees: np.ndarray, first: int) -> np.ndarray:
    """Per mode a: weights[..., first] + ... + weights[..., degrees[a]], 0 where degrees[a] = 0.

    weights holds one damping weight per derivative order on its last axis,
    and a mode of degree k is damped by every order first..k of its cell.
    The modes come sorted by degree, and the sums run in np.cumsum's order.
    """
    out = np.empty(weights.shape[:-1] + degrees.shape)
    ends = np.searchsorted(degrees, np.arange(1, degrees[-1] + 2)).tolist()  # modes of degree <= l
    out[..., :ends[0]] = 0.0
    acc = weights[..., first]
    for l in range(1, len(ends)):
        if l > first:
            acc = acc + weights[..., l]
        out[..., ends[l - 1]:ends[l]] = acc[..., None]
    return out


def _traces(coeffs: np.ndarray, mesh: Mesh1D, ends) -> tuple[np.ndarray, np.ndarray]:
    """(minus, plus)[g, r]: order-r derivative limits from the left and right of
    interface g = 0..N, from the endpoint tables (left, right)[r, m].  The ends
    are wrapped when periodic; a Neumann wall mirrors them with sign (-1)^r."""
    orders = np.arange(len(ends[0]))
    scale = (2.0 / mesh.widths)[:, None] ** orders[None, :]
    left, right = (coeffs @ e.T * scale for e in ends)
    if mesh.boundary == "periodic":
        return np.concatenate([right[-1:], right]), np.concatenate([left, left[:1]])
    signs = (-1.0) ** orders
    return np.concatenate([left[:1] * signs, right]), np.concatenate([left, right[-1:] * signs])


def _solve_with_quotient(b, vcoef, u_at, h, inv_h, t, source: SourceTerm) -> np.ndarray:
    """du of the chi = 1 scheme from the u-equation rows b, which it overwrites.

    The quotient g(u)/u couples all modes of u_t, so each cell's local system
    gains a mass-type block and is solved densely.
    """
    rho = source.g_over_u(u_at)
    v_at = vcoef @ t["vq_tab"].T
    w = t["rule"].weights
    vp_tab = t["vp_tab"]
    mg = np.einsum("jg,gm,gn->jmn", rho * w[None, :], vp_tab, vp_tab)
    mg *= 0.5 * h[:, None, None]
    b -= np.einsum("jg,gm->jm", rho * v_at * w[None, :], vp_tab) * (0.5 * h[:, None])
    a = np.zeros(mg.shape)
    a[:, 1:, :] = 2.0 * inv_h[:, None, None] * t["kp"][None, 1:, :] - mg[:, 1:, :]
    a[:, 0, 0] = 1.0
    b[:, 0] = vcoef[:, 0]
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for j in range(len(a)):
            if abs(np.linalg.det(a[j])) < 1e-300:
                raise np.linalg.LinAlgError(
                    f"singular local system in cell {j} (source-augmented solve)")
        raise


def rhs_arrays_1d(ucoef: np.ndarray, vcoef: np.ndarray, mesh: Mesh1D,
                  config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (du, dv) of the modal coefficients."""
    p, q = config.p, config.q
    t = _tables(p, q, config.quad_points)
    h = mesh.widths
    inv_h = 1.0 / h
    u_minus, u_plus = _traces(ucoef, mesh, endpoint_values(p, p))
    v_minus, v_plus = _traces(vcoef, mesh, endpoint_values(q, q))
    ju = u_plus - u_minus
    vhat, uxhat = numerical_fluxes(v_minus[:, 0], v_plus[:, 0],
                                   u_minus[:, 1], u_plus[:, 1], config.flux)
    if config.damping:
        sigma_u, sigma_v = damping_weights(ju, v_plus - v_minus, h, config)
    if config.source is not None:
        u_at = ucoef @ t["vp_tab"].T

    # u equation: tested against the derivatives of the degree-p modes
    b = 2.0 * inv_h[:, None] * (vcoef @ t["kpq"].T)
    flux_right = (vhat - v_minus[:, 0])[1:]   # at the right end of each cell
    flux_left = (vhat - v_plus[:, 0])[:-1]    # at the left end
    b += flux_right[:, None] * (2.0 * inv_h)[:, None] * t["dp_right"][None, :]
    b -= flux_left[:, None] * (2.0 * inv_h)[:, None] * t["dp_left"][None, :]
    if config.penalty and config.penalty_coefficient > 0.0:
        pen = ju[1:, 0, None] * t["p_right"][None, :] - ju[:-1, 0, None] * t["p_left"][None, :]
        b += (config.penalty_coefficient / mesh.h**2) * pen
    if config.damping:
        wu = sum_by_degree(sigma_u, np.arange(p + 1), 1)
        weighted = wu * (ucoef @ t["dp"].T) * t["inv2kp1_p"][None, :]
        b -= 4.0 * inv_h[:, None] ** 2 * (weighted @ t["dp"])
    if config.chi == 1 and config.source is not None:
        du = _solve_with_quotient(b, vcoef, u_at, h, inv_h, t, config.source)
    else:
        du = np.empty_like(b)
        du[:, 0] = vcoef[:, 0]
        du[:, 1:] = 0.5 * h[:, None] * (b[:, 1:] @ t["kinv"])

    # v equation: mass solve on the degree-q modes
    rhs = -2.0 * inv_h[:, None] * (ucoef @ t["kqp"].T)
    rhs += uxhat[1:, None] * t["q_right"][None, :]
    rhs -= uxhat[:-1, None] * t["q_left"][None, :]
    if config.source is not None:
        g_w = config.source.g(u_at) * t["rule"].weights[None, :]
        rhs += np.einsum("jg,gm->jm", g_w, t["vq_tab"]) * (0.5 * h[:, None])
    dv = rhs * t["two_m_q"][None, :] * inv_h[:, None]
    if config.damping:
        dv -= sum_by_degree(sigma_v, np.arange(q + 1), 0) * vcoef * inv_h[:, None]
    return du, dv
