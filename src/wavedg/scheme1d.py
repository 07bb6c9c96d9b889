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
from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import (
    derivative_matrix,
    endpoint_values,
    gauss_rule,
    mass_diagonal,
    stiffness_matrix,
    vandermonde,
)
from .field import DGField1D, Traces, interface_traces
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
    mirrored (`scheme2d._fast_fluxes`); side 1 swaps both.
    """

    alpha: float = 0.5
    tau: float = 0.0
    beta: float = 0.0
    sommerfeld_speed: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("flux weighting alpha must lie in [0, 1]")
        if self.tau < 0.0 or self.beta < 0.0:
            raise ValueError("flux dissipation weights must be nonnegative")

    @classmethod
    def central(cls) -> "FluxParams":
        return cls(alpha=0.5)

    @classmethod
    def alternating(cls, side: int = 0) -> "FluxParams":
        if side not in (0, 1):
            raise ValueError("alternating flux takes side 0 or 1")
        return cls(alpha=float(side))

    @classmethod
    def sommerfeld(cls, speed: float = 1.0) -> "FluxParams":
        if speed <= 0.0:
            raise ValueError("Sommerfeld speed must be positive")
        return cls(alpha=0.5, tau=0.5 * speed, beta=0.5 / speed, sommerfeld_speed=speed)

    @property
    def zeta(self) -> float:
        """Per-direction component of the 2D weighting vector."""
        return self.alpha - 0.5


def flux_from_name(name: str, speed: float = 1.0, side: int = 0) -> FluxParams:
    key = name.strip().lower()
    if key in ("a", "alternating"):
        return FluxParams.alternating(side)
    if key in ("c", "central"):
        return FluxParams.central()
    if key in ("s", "sommerfeld"):
        return FluxParams.sommerfeld(speed)
    raise ValueError(f"unknown flux kind {name!r}")


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


def _g_sine_gordon(u):
    return -np.sin(u)


def _G_sine_gordon(u):
    return 1.0 - np.cos(u)


def _g_sine_gordon_160(u):
    return 160.0 * np.sin(u)


def _G_sine_gordon_160(u):
    return 160.0 * (np.cos(u) - 1.0)


def _g_sine_gordon_16(u):
    return 16.0 * np.sin(u)


def _G_sine_gordon_16(u):
    return 16.0 * (np.cos(u) - 1.0)


def _g_cubic_4(u):
    return 4.0 * u * u * u


def _G_cubic_4(u):
    u2 = u * u
    return -(u2 * u2)


SOURCES: dict[str, SourceTerm] = {
    "sine_gordon": SourceTerm("sine_gordon", _g_sine_gordon, _G_sine_gordon, -1.0),
    "sine_gordon_160": SourceTerm("sine_gordon_160", _g_sine_gordon_160, _G_sine_gordon_160, 160.0),
    "sine_gordon_16": SourceTerm("sine_gordon_16", _g_sine_gordon_16, _G_sine_gordon_16, 16.0),
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
    boundary: str = "periodic"

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("degree p must be at least 2")
        if self.q < 1:
            raise ValueError("degree q must be at least 1")
        if not max(1, self.p - 2) <= self.q <= self.p:
            raise ValueError("q must lie in [max(1, p-2), p]")
        if self.penalty_coefficient < 0.0:
            raise ValueError("penalty coefficient must be nonnegative")
        if self.chi not in (0, 1):
            raise ValueError("chi must be 0 or 1")
        if self.boundary not in ("periodic", "neumann"):
            raise ValueError(f"unsupported boundary kind {self.boundary!r}")

    @property
    def quad_points(self) -> int:
        return self.p + 3


def numerical_fluxes(v_minus, v_plus, ux_minus, ux_plus, params: FluxParams):
    """Single-valued interface states (vhat, uxhat); inputs broadcast."""
    a = params.alpha
    jump_ux = np.asarray(ux_plus) - np.asarray(ux_minus)
    jump_v = np.asarray(v_plus) - np.asarray(v_minus)
    vhat = a * v_plus + (1.0 - a) * v_minus + params.tau * jump_ux
    uxhat = (1.0 - a) * ux_plus + a * ux_minus + params.beta * jump_v
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


def damping_weights(traces_u: Traces, traces_v: Traces, widths: np.ndarray,
                    config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Damping weights (for_u, for_v) from derivative jumps at the two cell ends.

    for_u[j, l] = 2(2l+1)/(2p-1) * h_j^l / l! * sqrt(J_l(right)^2 + J_l(left)^2)
    for l = 1..p, with J_l the jump of the l-th derivative of u; for_v[j, l],
    l = 0..q, is the analogue with denominator (2q-1), the power h_j^(l+1),
    and jumps of v.
    """
    p, q = config.p, config.q
    ju = traces_u.jumps()
    jv = traces_v.jumps()
    sq_u = np.sqrt(ju[:-1] ** 2 + ju[1:] ** 2)  # (N, p+1), per-cell ends
    sq_v = np.sqrt(jv[:-1] ** 2 + jv[1:] ** 2)
    for_u = np.zeros_like(sq_u)
    for_v = np.zeros_like(sq_v)
    for l in range(1, p + 1):
        for_u[:, l] = (2.0 * (2 * l + 1) / (2 * p - 1)) * widths**l / math.factorial(l) * sq_u[:, l]
    for l in range(0, q + 1):
        for_v[:, l] = (2.0 * (2 * l + 1) / (2 * q - 1)) * widths**(l + 1) / math.factorial(l) * sq_v[:, l]
    return for_u, for_v


class _Assembly:
    """Shared per-call context: traces, fluxes, damping, quadrature data."""

    def __init__(self, ucoef: np.ndarray, vcoef: np.ndarray, mesh: Mesh1D, config: SolverConfig):
        p, q = config.p, config.q
        self.config = config
        self.mesh = mesh
        self.u = ucoef
        self.v = vcoef
        self.t = _tables(p, q, config.quad_points)
        self.tr_u = interface_traces(DGField1D(mesh, p, ucoef), p, config.boundary)
        self.tr_v = interface_traces(DGField1D(mesh, q, vcoef), q, config.boundary)
        self.vhat, self.uxhat = numerical_fluxes(
            self.tr_v.minus[:, 0], self.tr_v.plus[:, 0],
            self.tr_u.minus[:, 1], self.tr_u.plus[:, 1], config.flux)
        self.sigma_u = self.sigma_v = None
        if config.damping:
            self.sigma_u, self.sigma_v = damping_weights(self.tr_u, self.tr_v, mesh.widths, config)
        self.rho = None
        self.g_at = None
        if config.source is not None:
            u_at = ucoef @ self.t["vp_tab"].T
            self.g_at = config.source.g(u_at)
            if config.chi == 1:
                self.rho = config.source.g_over_u(u_at)
                self.v_at = vcoef @ self.t["vq_tab"].T


def _solve_ut(ctx: _Assembly) -> np.ndarray:
    cfg, t = ctx.config, ctx.t
    mesh, u, v = ctx.mesh, ctx.u, ctx.v
    p = cfg.p
    h = mesh.widths
    inv_h = 1.0 / h

    b = 2.0 * inv_h[:, None] * (v @ t["kpq"].T)

    flux_right = (ctx.vhat - ctx.tr_v.minus[:, 0])[1:]   # at the right end of each cell
    flux_left = (ctx.vhat - ctx.tr_v.plus[:, 0])[:-1]    # at the left end
    b += flux_right[:, None] * (2.0 * inv_h)[:, None] * t["dp_right"][None, :]
    b -= flux_left[:, None] * (2.0 * inv_h)[:, None] * t["dp_left"][None, :]

    if cfg.penalty and cfg.penalty_coefficient > 0.0:
        ju = ctx.tr_u.jumps()[:, 0]
        pen = ju[1:, None] * t["p_right"][None, :] - ju[:-1, None] * t["p_left"][None, :]
        b += (cfg.penalty_coefficient / mesh.h**2) * pen

    if ctx.sigma_u is not None:
        # mode k of u_x is damped by every level l <= k
        wu = np.zeros((mesh.ncells, p + 1))
        wu[:, 1:] = np.cumsum(ctx.sigma_u[:, 1:], axis=1)
        du_ref = u @ t["dp"].T
        weighted = wu * du_ref * t["inv2kp1_p"][None, :]
        b -= 4.0 * inv_h[:, None] ** 2 * (weighted @ t["dp"])

    if cfg.chi == 1 and cfg.source is not None:
        # the quotient term couples all modes of u_t, so the local system gains
        # a mass-type block and is solved densely per cell
        w = t["rule"].weights
        vp_tab = t["vp_tab"]
        mg = np.einsum("jg,gm,gn->jmn", ctx.rho * w[None, :], vp_tab, vp_tab)
        mg *= 0.5 * h[:, None, None]
        b -= np.einsum("jg,gm->jm", ctx.rho * ctx.v_at * w[None, :], vp_tab) * (0.5 * h[:, None])
        a = np.zeros((mesh.ncells, p + 1, p + 1))
        a[:, 1:, :] = 2.0 * inv_h[:, None, None] * t["kp"][None, 1:, :] - mg[:, 1:, :]
        a[:, 0, :] = 0.0
        a[:, 0, 0] = 1.0
        rhs = b.copy()
        rhs[:, 0] = v[:, 0]
        try:
            return np.linalg.solve(a, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            for j in range(mesh.ncells):
                if abs(np.linalg.det(a[j])) < 1e-300:
                    raise np.linalg.LinAlgError(
                        f"singular local system in cell {j} (source-augmented solve)")
            raise

    du = np.empty_like(b)
    du[:, 0] = v[:, 0]
    du[:, 1:] = 0.5 * h[:, None] * (b[:, 1:] @ t["kinv"])
    return du


def _solve_vt(ctx: _Assembly) -> np.ndarray:
    cfg, t = ctx.config, ctx.t
    mesh, u, v = ctx.mesh, ctx.u, ctx.v
    h = mesh.widths
    inv_h = 1.0 / h

    rhs = -2.0 * inv_h[:, None] * (u @ t["kqp"].T)
    rhs += ctx.uxhat[1:, None] * t["q_right"][None, :]
    rhs -= ctx.uxhat[:-1, None] * t["q_left"][None, :]
    if ctx.g_at is not None:
        rhs += np.einsum("jg,gm->jm", ctx.g_at * t["rule"].weights[None, :], t["vq_tab"]) * (0.5 * h[:, None])
    dv = rhs * t["two_m_q"][None, :] * inv_h[:, None]
    if ctx.sigma_v is not None:
        # mode m >= 1 of v is damped by levels l = 0..m
        wv = np.cumsum(ctx.sigma_v, axis=1)
        wv[:, 0] = 0.0
        dv -= wv * v * inv_h[:, None]
    return dv


def rhs_arrays_1d(ucoef: np.ndarray, vcoef: np.ndarray, mesh: Mesh1D,
                  config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (du, dv) of the modal coefficients."""
    ctx = _Assembly(ucoef, vcoef, mesh, config)
    return _solve_ut(ctx), _solve_vt(ctx)

