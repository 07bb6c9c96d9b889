"""Brute-force reference assembly of the semi-discrete right-hand sides.

Deliberately independent of the solver internals: polynomials are handled
through numpy's Legendre convenience class with domain mapping, every
integral is a dense Gauss quadrature, local projections are Gram-matrix
solves (not coefficient truncation), and each weak-form term is assembled
per cell with explicit loops.  Only the modal coefficient layout is shared,
since that is the data format under test.

The 2D face flux family is kept here too, as plain expressions
(`fluxes_2d`); the solver's buffered flux kernel must match it.

`eval_1d` and `eval_2d` evaluate a DG field pointwise the same
independent way.

The module also keeps the time stepping in its plain whole-array form:
SSP-RK3 with fresh arrays per stage, and the leapfrog comparator over
np.roll copies.  The in-place and blocked solver code must match them bit
for bit.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as npleg

NQ = 20  # dense quadrature nodes per direction


def _rule(xl, xr):
    nodes, weights = npleg.leggauss(NQ)
    x = xl + 0.5 * (nodes + 1.0) * (xr - xl)
    w = 0.5 * (xr - xl) * weights
    return x, w


def _cell_series(coeffs, xl, xr):
    return npleg.Legendre(np.asarray(coeffs, dtype=float), domain=[xl, xr])


def _basis_series(m, size, xl, xr):
    c = np.zeros(size)
    c[m] = 1.0
    return _cell_series(c, xl, xr)


def _project_values(series, level, xl, xr, x):
    """Values at x of the L2 projection of `series` onto degree <= level."""
    level = max(level, 0)
    xq, wq = _rule(xl, xr)
    basis = [_basis_series(k, level + 1, xl, xr) for k in range(level + 1)]
    gram = np.array([[np.sum(wq * bi(xq) * bj(xq)) for bj in basis] for bi in basis])
    rhs = np.array([np.sum(wq * bi(xq) * series(xq)) for bi in basis])
    coef = np.linalg.solve(gram, rhs)
    return sum(c * b(x) for c, b in zip(coef, basis))


def eval_1d(fld, x, order: int = 0):
    """The order-th derivative of a 1D DG field at x, by numpy's Legendre series.

    A point on an inner node reads the cell on its right, the right end the
    last cell; a point outside the mesh is a ValueError.
    """
    mesh = fld.mesh
    xa = np.asarray(x, dtype=float)
    if np.any(xa < mesh.a - 1e-14) or np.any(xa > mesh.b + 1e-14):
        raise ValueError("evaluation point outside domain")
    cells = np.clip(np.searchsorted(mesh.nodes, xa, side="right") - 1, 0, mesh.ncells - 1)
    out = np.array([_cell_series(fld.coeffs[j], mesh.nodes[j], mesh.nodes[j + 1]).deriv(order)(xv)
                    for j, xv in zip(cells.ravel(), xa.ravel())]).reshape(xa.shape)
    return out if xa.ndim else float(out)


def brute_rhs_1d(ucoef, vcoef, nodes, p, q, alpha, tau, beta, c_penalty,
                 penalty_on, damping_on, chi=0, source=None, boundary="periodic",
                 source_quad=None):
    """Dense reassembly of (du, dv) for one state; small meshes only."""
    nodes = np.asarray(nodes, dtype=float)
    ncell = len(nodes) - 1
    widths = np.diff(nodes)
    h_glob = widths.max()
    useries = [_cell_series(ucoef[j], nodes[j], nodes[j + 1]) for j in range(ncell)]
    vseries = [_cell_series(vcoef[j], nodes[j], nodes[j + 1]) for j in range(ncell)]

    def trace(series_list, g, side, order):
        # side "minus": limit from cell g-1; "plus": from cell g (g = 0..ncell)
        if side == "minus":
            if g == 0:
                if boundary == "periodic":
                    return series_list[ncell - 1].deriv(order)(nodes[-1]) if order else series_list[ncell - 1](nodes[-1])
                inner = trace(series_list, 0, "plus", order)
                return inner * (-1.0) ** order
            s = series_list[g - 1]
            return s.deriv(order)(nodes[g]) if order else s(nodes[g])
        if g == ncell:
            if boundary == "periodic":
                return series_list[0].deriv(order)(nodes[0]) if order else series_list[0](nodes[0])
            inner = trace(series_list, ncell, "minus", order)
            return inner * (-1.0) ** order
        s = series_list[g]
        return s.deriv(order)(nodes[g]) if order else s(nodes[g])

    def jump(series_list, g, order):
        return trace(series_list, g, "plus", order) - trace(series_list, g, "minus", order)

    vhat = np.empty(ncell + 1)
    uxhat = np.empty(ncell + 1)
    for g in range(ncell + 1):
        vm = trace(vseries, g, "minus", 0)
        vp = trace(vseries, g, "plus", 0)
        um = trace(useries, g, "minus", 1)
        up = trace(useries, g, "plus", 1)
        vhat[g] = alpha * vp + (1.0 - alpha) * vm + tau * (up - um)
        uxhat[g] = (1.0 - alpha) * up + alpha * um + beta * (vp - vm)

    du = np.zeros_like(np.asarray(ucoef, dtype=float))
    dv = np.zeros_like(np.asarray(vcoef, dtype=float))
    nq_src = source_quad if source_quad is not None else p + 3

    for j in range(ncell):
        xl, xr = nodes[j], nodes[j + 1]
        hj = widths[j]
        xq, wq = _rule(xl, xr)
        phis = [_basis_series(m, p + 1, xl, xr) for m in range(p + 1)]
        psis = [_basis_series(m, q + 1, xl, xr) for m in range(q + 1)]
        uj, vj = useries[j], vseries[j]

        sigma = np.zeros(p + 1)
        sigma_t = np.zeros(q + 1)
        if damping_on:
            for l in range(1, p + 1):
                jl = jump(useries, j, l)
                jr = jump(useries, j + 1, l)
                sigma[l] = (2.0 * (2 * l + 1) / (2 * p - 1)) * hj**l / math.factorial(l) \
                    * math.sqrt(jl**2 + jr**2)
            for l in range(0, q + 1):
                jl = jump(vseries, j, l)
                jr = jump(vseries, j + 1, l)
                sigma_t[l] = (2.0 * (2 * l + 1) / (2 * q - 1)) * hj**(l + 1) / math.factorial(l) \
                    * math.sqrt(jl**2 + jr**2)

        amat = np.zeros((p + 1, p + 1))
        bvec = np.zeros(p + 1)
        amat[0] = [np.sum(wq * phi(xq)) for phi in phis]
        bvec[0] = np.sum(wq * vj(xq))
        for m in range(1, p + 1):
            dphi = phis[m].deriv(1)
            for n in range(p + 1):
                amat[m, n] = np.sum(wq * phis[n].deriv(1)(xq) * dphi(xq))
            bvec[m] = np.sum(wq * vj.deriv(1)(xq) * dphi(xq))
            bvec[m] += (vhat[j + 1] - trace(vseries, j + 1, "minus", 0)) * dphi(xr)
            bvec[m] -= (vhat[j] - trace(vseries, j, "plus", 0)) * dphi(xl)
            if penalty_on:
                bvec[m] += c_penalty / h_glob**2 * (
                    jump(useries, j + 1, 0) * phis[m](xr) - jump(useries, j, 0) * phis[m](xl))
            if damping_on:
                ux = uj.deriv(1)
                for l in range(1, p + 1):
                    if sigma[l] == 0.0:
                        continue
                    proj = _project_values(ux, l - 1, xl, xr, xq)
                    bvec[m] -= sigma[l] / hj * np.sum(wq * (ux(xq) - proj) * dphi(xq))
        if chi == 1 and source is not None:
            nodes_s, w_s = npleg.leggauss(nq_src)
            xs = xl + 0.5 * (nodes_s + 1.0) * (xr - xl)
            ws = 0.5 * (xr - xl) * w_s
            rho = source.g_over_u(uj(xs))
            for m in range(1, p + 1):
                for n in range(p + 1):
                    amat[m, n] -= np.sum(ws * rho * phis[m](xs) * phis[n](xs))
                bvec[m] -= np.sum(ws * rho * vj(xs) * phis[m](xs))
        du[j] = np.linalg.solve(amat, bvec)

        mass = np.array([[np.sum(wq * pi(xq) * pj(xq)) for pj in psis] for pi in psis])
        rhs = np.zeros(q + 1)
        for m in range(q + 1):
            dpsi = psis[m].deriv(1)
            rhs[m] = -np.sum(wq * uj.deriv(1)(xq) * dpsi(xq))
            rhs[m] += uxhat[j + 1] * psis[m](xr) - uxhat[j] * psis[m](xl)
            if damping_on:
                for l in range(0, q + 1):
                    if sigma_t[l] == 0.0:
                        continue
                    proj = _project_values(vj, l - 1, xl, xr, xq)
                    rhs[m] -= sigma_t[l] / hj * np.sum(wq * (vj(xq) - proj) * psis[m](xq))
        if source is not None:
            nodes_s, w_s = npleg.leggauss(nq_src)
            xs = xl + 0.5 * (nodes_s + 1.0) * (xr - xl)
            ws = 0.5 * (xr - xl) * w_s
            for m in range(q + 1):
                rhs[m] += np.sum(ws * source.g(uj(xs)) * psis[m](xs))
        dv[j] = np.linalg.solve(mass, rhs)

    return du, dv


# ---------------------------------------------------------------------------
# 2D oracle


def _modes_2d(degree):
    modes = [(m1, m2) for m2 in range(degree + 1) for m1 in range(degree + 1 - m2)]
    modes.sort(key=lambda t: (t[0] + t[1], t[0]))
    return modes


def fluxes_2d(v_minus, v_plus, dnu_minus, dnu_plus, params, normal_sign: float = 1.0):
    """Face flux (vhat, grad-u-hat dot n) for an axis-aligned face.

    Inputs are traces of v and of the derivative of u along the outward
    normal of the minus cell; normal_sign is that normal's sign along its
    axis (+1 when it points in the positive axis direction).  params carries
    the weighting alpha and the dissipation weights tau and beta; the
    per-direction weighting is zeta = alpha - 1/2.  The pair is
    single-valued: evaluating from the plus side (swapped traces, negated
    normal derivatives, normal_sign flipped) reproduces vhat and negates
    the normal flux component.
    """
    z = normal_sign * (params.alpha - 0.5)
    jump_v = np.asarray(v_plus) - np.asarray(v_minus)
    jump_dnu = np.asarray(dnu_plus) - np.asarray(dnu_minus)
    vhat = 0.5 * (v_plus + v_minus) - z * jump_v + params.tau * jump_dnu
    gradn_hat = 0.5 * (dnu_plus + dnu_minus) + z * jump_dnu + params.beta * jump_v
    return vhat, gradn_hat


class _CellPoly2D:
    """One cell's polynomial with independent tensor-Legendre evaluation."""

    def __init__(self, coeffs, modes, box):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.modes = modes
        self.xl, self.xr, self.yl, self.yr = box

    def __call__(self, x, y, rx=0, ry=0):
        xi = (2.0 * np.asarray(x) - (self.xl + self.xr)) / (self.xr - self.xl)
        eta = (2.0 * np.asarray(y) - (self.yl + self.yr)) / (self.yr - self.yl)
        out = 0.0
        for c, (m1, m2) in zip(self.coeffs, self.modes):
            if c == 0.0:
                continue
            cx = np.zeros(m1 + 1)
            cx[m1] = 1.0
            cy = np.zeros(m2 + 1)
            cy[m2] = 1.0
            fx = npleg.legval(xi, npleg.legder(cx, rx) if rx else cx) if rx <= m1 else 0.0
            fy = npleg.legval(eta, npleg.legder(cy, ry) if ry else cy) if ry <= m2 else 0.0
            out = out + c * fx * fy
        sx = (2.0 / (self.xr - self.xl)) ** rx
        sy = (2.0 / (self.yr - self.yl)) ** ry
        return out * sx * sy


def eval_2d(fld, x: float, y: float, orders: tuple[int, int] = (0, 0)) -> float:
    """d^orders of a 2D DG field at the point (x, y), by `_CellPoly2D`.

    As `eval_1d`, a point on an inner node reads the cell above it.
    """
    mesh = fld.mesh
    if not (mesh.xnodes[0] - 1e-14 <= x <= mesh.xnodes[-1] + 1e-14
            and mesh.ynodes[0] - 1e-14 <= y <= mesh.ynodes[-1] + 1e-14):
        raise ValueError("evaluation point outside domain")
    i = min(max(int(np.searchsorted(mesh.xnodes, x, side="right")) - 1, 0), mesh.nx - 1)
    j = min(max(int(np.searchsorted(mesh.ynodes, y, side="right")) - 1, 0), mesh.ny - 1)
    box = (mesh.xnodes[i], mesh.xnodes[i + 1], mesh.ynodes[j], mesh.ynodes[j + 1])
    return float(_CellPoly2D(fld.coeffs[i, j], _modes_2d(fld.degree), box)(x, y, *orders))


def brute_rhs_2d(ucoef, vcoef, xnodes, ynodes, p, q, alpha, tau, beta,
                 c_penalty, penalty_on, damping_on, source=None, source_quad=None):
    """Dense reassembly of the 2D right-hand side on a periodic Cartesian mesh."""
    xnodes = np.asarray(xnodes, dtype=float)
    ynodes = np.asarray(ynodes, dtype=float)
    nx, ny = len(xnodes) - 1, len(ynodes) - 1
    modes_p = _modes_2d(p)
    modes_q = _modes_2d(q)
    nmp, nmq = len(modes_p), len(modes_q)
    hx = xnodes[1] - xnodes[0]
    hy = ynodes[1] - ynodes[0]
    h_d = math.sqrt(hx**2 + hy**2)
    zeta = np.array([alpha - 0.5, alpha - 0.5])

    def box(i, j):
        return (xnodes[i], xnodes[i + 1], ynodes[j], ynodes[j + 1])

    upoly = {(i, j): _CellPoly2D(ucoef[i, j], modes_p, box(i, j)) for i in range(nx) for j in range(ny)}
    vpoly = {(i, j): _CellPoly2D(vcoef[i, j], modes_q, box(i, j)) for i in range(nx) for j in range(ny)}

    gl_nodes, gl_w = npleg.leggauss(NQ)

    def cell_quad(i, j):
        xl, xr, yl, yr = box(i, j)
        xq = xl + 0.5 * (gl_nodes + 1.0) * (xr - xl)
        yq = yl + 0.5 * (gl_nodes + 1.0) * (yr - yl)
        wx = 0.5 * (xr - xl) * gl_w
        wy = 0.5 * (yr - yl) * gl_w
        return xq[:, None] + 0.0 * yq[None, :], 0.0 * xq[:, None] + yq[None, :], wx[:, None] * wy[None, :]

    def basis_phi(i, j, modes):
        xl, xr, yl, yr = box(i, j)
        out = []
        for a, _m in enumerate(modes):
            c = np.zeros(len(modes))
            c[a] = 1.0
            out.append(_CellPoly2D(c, modes, (xl, xr, yl, yr)))
        return out

    len_x = xnodes[-1] - xnodes[0]
    len_y = ynodes[-1] - ynodes[0]

    def wrapped(i, j):
        """Periodic neighbor index plus the coordinate shift into its frame."""
        sx = 0.0
        sy = 0.0
        if i < 0:
            sx = -len_x
        elif i >= nx:
            sx = len_x
        if j < 0:
            sy = -len_y
        elif j >= ny:
            sy = len_y
        return (i % nx, j % ny), (sx, sy)

    du = np.zeros_like(np.asarray(ucoef, dtype=float))
    dv = np.zeros_like(np.asarray(vcoef, dtype=float))
    nq_src = source_quad if source_quad is not None else p + 3

    for i in range(nx):
        for j in range(ny):
            xl, xr, yl, yr = box(i, j)
            xq2, yq2, wq2 = cell_quad(i, j)
            phis = basis_phi(i, j, modes_p)
            psis = basis_phi(i, j, modes_q)
            uj = upoly[(i, j)]
            vj = vpoly[(i, j)]

            # face quadrature: (points, weights, own traces) per face
            def face_data(axis, side):
                if axis == 0:
                    xv = xr if side > 0 else xl
                    yq = yl + 0.5 * (gl_nodes + 1.0) * (yr - yl)
                    w = 0.5 * (yr - yl) * gl_w
                    pts = (np.full(NQ, xv), yq)
                    nbr, shift = wrapped(i + side, j)
                else:
                    xvq = xl + 0.5 * (gl_nodes + 1.0) * (xr - xl)
                    yv = yr if side > 0 else yl
                    w = 0.5 * (xr - xl) * gl_w
                    pts = (xvq, np.full(NQ, yv))
                    nbr, shift = wrapped(i, j + side)
                # evaluate a wrapped neighbor in its own frame
                pts_nbr = (pts[0] - shift[0], pts[1] - shift[1])
                normal = np.zeros(2)
                normal[axis] = float(side)
                return pts, pts_nbr, w, nbr, normal

            faces = [face_data(0, 1), face_data(0, -1), face_data(1, 1), face_data(1, -1)]

            sigma = np.zeros(p + 1)
            sigma_t = np.zeros(q + 1)
            if damping_on:
                corners = [(xl, yl), (xr, yl), (xl, yr), (xr, yr)]
                # two edge-neighbors meeting each corner: x-neighbor, y-neighbor
                nbrs = [
                    (wrapped(i - 1, j), wrapped(i, j - 1)),
                    (wrapped(i + 1, j), wrapped(i, j - 1)),
                    (wrapped(i - 1, j), wrapped(i, j + 1)),
                    (wrapped(i + 1, j), wrapped(i, j + 1)),
                ]

                def vertex_sum(poly_map, own, r1, r2):
                    total = 0.0
                    for (cx, cy), ((na, sa), (nb, sb)) in zip(corners, nbrs):
                        val = own(cx, cy, r1, r2)
                        total += (val - poly_map[na](cx - sa[0], cy - sa[1], r1, r2)) ** 2
                        total += (val - poly_map[nb](cx - sb[0], cy - sb[1], r1, r2)) ** 2
                    return total

                for l in range(1, p + 1):
                    acc = 0.0
                    for r1 in range(l + 1):
                        acc += math.sqrt(0.25 * vertex_sum(upoly, uj, r1, l - r1))
                    sigma[l] = (2.0 * (2 * l + 1) / (2 * p - 1)) * h_d**l / math.factorial(l) * acc
                for l in range(0, q + 1):
                    acc = 0.0
                    for r1 in range(l + 1):
                        acc += math.sqrt(0.25 * vertex_sum(vpoly, vj, r1, l - r1))
                    sigma_t[l] = (2.0 * (2 * l + 1) / (2 * q - 1)) * h_d**(l + 1) \
                        / math.factorial(l + 1) * acc

            amat = np.zeros((nmp, nmp))
            bvec = np.zeros(nmp)
            for bcol, phib in enumerate(phis):
                amat[0, bcol] = np.sum(wq2 * phib(xq2, yq2))
            bvec[0] = np.sum(wq2 * vj(xq2, yq2))
            for m in range(1, nmp):
                phim = phis[m]
                for n in range(nmp):
                    phin = phis[n]
                    amat[m, n] = np.sum(wq2 * (
                        phin(xq2, yq2, 1, 0) * phim(xq2, yq2, 1, 0)
                        + phin(xq2, yq2, 0, 1) * phim(xq2, yq2, 0, 1)))
                bvec[m] = np.sum(wq2 * (
                    vj(xq2, yq2, 1, 0) * phim(xq2, yq2, 1, 0)
                    + vj(xq2, yq2, 0, 1) * phim(xq2, yq2, 0, 1)))
                for pts, pts_nbr, w, nbr, normal in faces:
                    px, py = pts
                    qx, qy = pts_nbr
                    v_in = vj(px, py)
                    v_out = vpoly[nbr](qx, qy)
                    gu_in = np.array([uj(px, py, 1, 0), uj(px, py, 0, 1)])
                    gu_out = np.array([upoly[nbr](qx, qy, 1, 0), upoly[nbr](qx, qy, 0, 1)])
                    jump_v_vec = v_out * (-normal)[:, None] + v_in * normal[:, None]
                    jump_gu = (gu_out.T @ (-normal)) + (gu_in.T @ normal)
                    vhat = 0.5 * (v_out + v_in) + zeta @ jump_v_vec - tau * jump_gu
                    grad_phi_n = phim(px, py, 1, 0) * normal[0] + phim(px, py, 0, 1) * normal[1]
                    bvec[m] += np.sum(w * (vhat - v_in) * grad_phi_n)
                    if penalty_on:
                        bvec[m] += c_penalty / h_d**2 * np.sum(
                            w * (upoly[nbr](qx, qy) - uj(px, py)) * phim(px, py))
                if damping_on:
                    for l in range(1, p + 1):
                        if sigma[l] == 0.0:
                            continue
                        pux = _project2d_values(uj, modes_p, l - 1, box(i, j), xq2, yq2, wq2, (1, 0))
                        puy = _project2d_values(uj, modes_p, l - 1, box(i, j), xq2, yq2, wq2, (0, 1))
                        bvec[m] -= sigma[l] / h_d * np.sum(wq2 * (
                            (uj(xq2, yq2, 1, 0) - pux) * phim(xq2, yq2, 1, 0)
                            + (uj(xq2, yq2, 0, 1) - puy) * phim(xq2, yq2, 0, 1)))
            du[i, j] = np.linalg.solve(amat, bvec)

            mass = np.zeros((nmq, nmq))
            rhs = np.zeros(nmq)
            for m in range(nmq):
                psim = psis[m]
                for n in range(nmq):
                    mass[m, n] = np.sum(wq2 * psis[n](xq2, yq2) * psim(xq2, yq2))
                rhs[m] = -np.sum(wq2 * (
                    uj(xq2, yq2, 1, 0) * psim(xq2, yq2, 1, 0)
                    + uj(xq2, yq2, 0, 1) * psim(xq2, yq2, 0, 1)))
                for pts, pts_nbr, w, nbr, normal in faces:
                    px, py = pts
                    qx, qy = pts_nbr
                    v_in = vj(px, py)
                    v_out = vpoly[nbr](qx, qy)
                    gu_in = np.array([uj(px, py, 1, 0), uj(px, py, 0, 1)])
                    gu_out = np.array([upoly[nbr](qx, qy, 1, 0), upoly[nbr](qx, qy, 0, 1)])
                    jump_v_vec = v_out * (-normal)[:, None] + v_in * normal[:, None]
                    grad_hat = (0.5 * (gu_out + gu_in)
                                - ((zeta @ (-normal)) * gu_out + (zeta @ normal) * gu_in)
                                - beta * jump_v_vec)
                    rhs[m] += np.sum(w * (grad_hat.T @ normal) * psim(px, py))
                if damping_on:
                    for l in range(0, q + 1):
                        if sigma_t[l] == 0.0:
                            continue
                        pv = _project2d_values(vj, modes_q, l - 1, box(i, j), xq2, yq2, wq2, (0, 0))
                        rhs[m] -= sigma_t[l] / h_d * np.sum(
                            wq2 * (vj(xq2, yq2) - pv) * psim(xq2, yq2))
                if source is not None:
                    sn, sw = npleg.leggauss(nq_src)
                    xs = xl + 0.5 * (sn + 1.0) * (xr - xl)
                    ys = yl + 0.5 * (sn + 1.0) * (yr - yl)
                    wsx = 0.5 * (xr - xl) * sw
                    wsy = 0.5 * (yr - yl) * sw
                    xg = xs[:, None] + 0.0 * ys[None, :]
                    yg = 0.0 * xs[:, None] + ys[None, :]
                    wg = wsx[:, None] * wsy[None, :]
                    rhs[m] += np.sum(wg * source.g(uj(xg, yg)) * psim(xg, yg))
            dv[i, j] = np.linalg.solve(mass, rhs)

    return du, dv


def _project2d_values(poly, modes, level, cell_box, xq, yq, wq, deriv):
    """Values of the projection of d^deriv poly onto total degree <= level."""
    level = max(level, 0)
    keep = [a for a, (m1, m2) in enumerate(modes) if m1 + m2 <= level]
    basis = []
    for a in keep:
        c = np.zeros(len(modes))
        c[a] = 1.0
        basis.append(_CellPoly2D(c, modes, cell_box))
    target = poly(xq, yq, *deriv)
    gram = np.array([[np.sum(wq * bi(xq, yq) * bj(xq, yq)) for bj in basis] for bi in basis])
    rhs = np.array([np.sum(wq * bi(xq, yq) * target) for bi in basis])
    coef = np.linalg.solve(gram, rhs)
    out = 0.0
    for c, b in zip(coef, basis):
        out = out + c * b(xq, yq)
    return out


def ssp_rk3_out_of_place(state, rhs, dt):
    """SSP-RK3 as each stage's fresh arrays: the Shu-Osher form, term by term.

    state is a tuple of arrays; rhs maps it to a tuple of derivatives.
    """
    s1 = tuple(a + dt * d for a, d in zip(state, rhs(state)))
    s2 = tuple(0.75 * a + 0.25 * (b + dt * d) for a, b, d in zip(state, s1, rhs(s1)))
    return tuple((1.0 / 3.0) * a + (2.0 / 3.0) * (b + dt * d)
                 for a, b, d in zip(state, s2, rhs(s2)))


def _laplacian_1d(u: np.ndarray, dx: float) -> np.ndarray:
    return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / dx**2


def _laplacian_2d(u: np.ndarray, dx: float, dy: float) -> np.ndarray:
    return ((np.roll(u, -1, 0) - 2.0 * u + np.roll(u, 1, 0)) / dx**2
            + (np.roll(u, -1, 1) - 2.0 * u + np.roll(u, 1, 1)) / dy**2)


def ctcs_roll_reference_1d(u0, u1, g, grid, steps: int):
    """The leapfrog as whole-array expressions over np.roll copies; (points, values)."""
    x = grid.points
    dt, dx = grid.dt, grid.dx
    source = g if g is not None else (lambda u: 0.0)
    prev = np.asarray(u0(x), dtype=float)
    vel = np.asarray(u1(x), dtype=float)
    if np.ndim(vel) == 0:
        vel = np.full_like(prev, float(vel))
    curr = prev + dt * vel + 0.5 * dt**2 * (_laplacian_1d(prev, dx) + source(prev))
    for _ in range(steps - 1):
        nxt = 2.0 * curr - prev + dt**2 * (_laplacian_1d(curr, dx) + source(curr))
        prev, curr = curr, nxt
    return x, curr


def ctcs_roll_reference_2d(u0, u1, g, grid, steps: int):
    """2D form of ctcs_roll_reference_1d with the five-point Laplacian; (x, y, values)."""
    x = grid.xpoints
    y = grid.ypoints
    xx, yy = np.meshgrid(x, y, indexing="ij")
    dt = grid.dt
    source = g if g is not None else (lambda u: 0.0)
    prev = np.asarray(u0(xx, yy), dtype=float)
    vel = np.asarray(u1(xx, yy), dtype=float)
    if np.ndim(vel) == 0:
        vel = np.full_like(prev, float(vel))
    curr = prev + dt * vel + 0.5 * dt**2 * (_laplacian_2d(prev, grid.dx, grid.dy) + source(prev))
    for _ in range(steps - 1):
        nxt = 2.0 * curr - prev + dt**2 * (_laplacian_2d(curr, grid.dx, grid.dy) + source(curr))
        prev, curr = curr, nxt
    return x, y, curr
