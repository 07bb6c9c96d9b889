"""Semi-discrete right-hand side of the 2D scheme on Cartesian meshes.

Per rectangular cell the u update couples a mean constraint with
gradient-tested rows; interface coupling uses fluxes parameterized by the
weighting vector zeta = (alpha - 1/2, alpha - 1/2), an edge penalty on the
jump of u, and damping driven by squared jumps of derivatives at the four
cell vertices.  Each vertex jump compares the cell against its two
edge-neighbors sharing the faces incident to that vertex (the diagonal
neighbor is excluded).

The edge penalty is oriented the same dissipative way as in 1D: it adds
(c/h^2) * (exterior trace - interior trace) tested with the interior test
trace on every face.

Damping orders.  Level l of the u damping damps u_x - P^(l-1) u_x, and
u_x has degree p - 1, so only the levels 1..p-1 can act on u, and only on
the modes of u_x of total degree 1..p-1: the level-p weight would multiply
only zeros, and no level reaches a mode of degree 0.  So u's vertex jumps
are taken at orders 1..p-1 only, and the fold of the u damping runs over
those modes only; at p = 2 that is 2 of u's 6 jump columns and 2 of its
6 modes.  The dropped terms are zeros, and every right-hand side compared
kept the bits of the full sums.  v's jumps are taken at every order 0..q, since level l damps
v - P^(l-1) v (level 0 like level 1) and every level acts.

A `Mesh2D` is uniform and periodic in both directions by construction;
the in-cell source quotient treatment (chi = 1) is a 1D-only feature.

Strips.  `rhs_arrays_2d` evaluates the mesh in x-strips (`row_blocks`), at
most max(1, CELLS_PER_STRIP // ny) rows each, balanced so that their
heights differ by at most one row.  Every strip, that of a one-strip mesh
too, is copied out framed: with one ghost cell on all four sides, taken
with periodic wrap, and flattened to (cells, modes).  In a frame w = ny + 2
cells wide a cell's neighbour along y is the next cell and its neighbour
along x the cell w further on, so every shift is a plain slice and a face
array is the difference of two slices.  The kernel keeps the band of the
strip's own rows, ghost columns included, and writes their inner columns
to the output.  Every term couples a cell only to its edge neighbours: the
face traces and fluxes, the two-sided penalty and gradient faces, and the
vertex jumps that drive the damping.  So only the ghost cells see wrong
neighbours, and they are dropped.  Each squared vertex jump is taken once
per face and added into both of its cells, corner by corner in the order
BL, BR, TL, TR, since (a - b)^2 equals (b - a)^2 exactly.

BLAS computes each row of a product independently of the others, so the
strips give the whole-mesh numbers bit for bit.  That needs products of
more than a few hundred rows: OpenBLAS 0.3.31 rounds some small products
differently.  With p = 3 and a source, the product over 36 quadrature
values per cell gives other last bits for 200 rows or fewer than for 250
or more.  Balanced strips keep every block at about half of
CELLS_PER_STRIP cells or more, never a sliver of one row.  For the same
reason the cell-local source products run on the strip's own rows of the
input, without the frame, so that a one-strip mesh multiplies exactly its
own cells: on framed rows, meshes of 100 to 200 cells with a source at
p >= 3 got other last bits of dv.

Workers.  Given an executor, `rhs_arrays_2d` submits one task per strip
through `field.run_tasks`, so that a free worker takes the next strip:
strip costs differ once subnormal coefficients appear.  On threads,
numpy's ufuncs and BLAS release the GIL, so the strips' array work
overlaps.  `Discretization2D.stepping` makes a `ThreadPoolExecutor` of one
worker per CPU of the affinity mask, capped at the number of strips
(`field.worker_count`), for one `with` block, which `timeint.integrate`
steps in, so its threads end when the run returns or aborts.  One worker,
or a mesh of one strip, runs the strips in the calling thread.  A strip's
numbers depend only on the rows it reads, never on the worker that
computes it or on what the others do, and each strip writes only its own
rows of the output, so every worker count gives the serial bits,
provided that BLAS itself is deterministic: with BLAS on one thread
(OPENBLAS_NUM_THREADS=1) it is.

Buffers.  The caller owns the output pair `out`; every other array of a
strip, its framed copies, products, traces and weights, is made fresh for
that strip, 0.2 to 1 MB at CELLS_PER_STRIP cells.  Buffers named and kept
per worker between calls saved no time: one serial ex8 RHS at 320^2 after
15 steps took 53.5 ms with them and 52.3 ms with fresh arrays, 38.2 and
36.5 ms on two workers (BLAS on one thread, 2-vCPU Xeon, medians of six
alternated batches, the same bytes).  That holds once glibc's malloc keeps
freed blocks of that size rather than returning them to the system, as it
does after the process has freed a larger block; a run's projections free
mesh-sized arrays first.  Before that, each such RHS page-faulted about
37,000 times and took 120 to 180 ms, against about 90 ms with the buffers.
Every trace, corner and face product writes a contiguous array of its own,
since operands sliced by mode cost more than the products they would save:
`pen += both[..., :6]` on an 18 x 320 block took 43 us against 11 us for a
contiguous operand, and one (5796, 20) product of four stacked trace
tables with one subtraction on each trace's columns 409 to 443 us, against
143 to 149 us for four products and contiguous subtractions.  GEMM cost
here follows the size of the output, not the number of calls.
CELLS_PER_STRIP was set by timing one RHS of the ex8 configuration at
320^2 (p = 2, q = 1, source, damping and penalty on) on one core of a
shared 2-vCPU Xeon, three sweeps of the framed kernel: strips of 5,120
cells took 67 to 69 ms, of 2,560 cells 65 to 88 ms, of 10,240 cells 76 to
97 ms, of 640 cells 107 to 150 ms, and one strip of the whole mesh 124 to
158 ms.
"""
from __future__ import annotations

import math
from concurrent.futures import Executor
from functools import lru_cache

import numpy as np

from .basis import derivative_matrix, gauss_rule, mass_diagonal, vandermonde
from .field import gradient_gram, n_modes, row_blocks, run_tasks, total_degree_modes
from .mesh import Mesh2D
from .scheme1d import FluxParams, SolverConfig, numerical_fluxes, sum_by_degree

_CORNERS = ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))  # BL, BR, TL, TR

#: cells per strip of one right-hand side evaluation; see the module docstring
CELLS_PER_STRIP = 5120


@lru_cache(maxsize=None)
def _dxy_matrices(degree: int):
    """Reference mode-to-mode derivative maps on the total-degree set."""
    modes = total_degree_modes(degree)
    index = {tuple(m): i for i, m in enumerate(modes)}
    nm = len(modes)
    d1 = derivative_matrix(degree)
    dx = np.zeros((nm, nm))
    dy = np.zeros((nm, nm))
    for a, (m1, m2) in enumerate(modes):
        for k in range(m1):
            if d1[k, m1]:
                dx[index[(k, m2)], a] = d1[k, m1]
        for k in range(m2):
            if d1[k, m2]:
                dy[index[(m1, k)], a] = d1[k, m2]
    dx.setflags(write=False)
    dy.setflags(write=False)
    return dx, dy


def _mm(arr: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Contract the trailing axis against a table via BLAS, into a fresh C-contiguous array."""
    return (arr.reshape(-1, arr.shape[-1]) @ table).reshape(arr.shape[:-1] + table.shape[1:])


def _corner_major_tables(degree: int, hx: float, hy: float, orders: range) -> tuple:
    """Per corner: derivative tables for every alpha with |alpha| in orders, (nm, n_alpha).

    Column k of a corner's table holds d^alpha_k phi_a at that corner, in
    physical scaling, alpha_k the k-th multi-index of `_alphas(orders)`.
    One matmul per corner then yields contiguous per-corner value arrays.
    """
    modes = total_degree_modes(degree)
    alphas = _alphas(orders)
    out = []
    for xi, eta in _CORNERS:
        cols = np.empty((len(modes), len(alphas)))
        for k, (r1, r2) in enumerate(alphas):
            vx = vandermonde(xi, degree, r1)
            vy = vandermonde(eta, degree, r2)
            scale = (2.0 / hx) ** r1 * (2.0 / hy) ** r2
            cols[:, k] = vx[modes[:, 0]] * vy[modes[:, 1]] * scale
        cols.setflags(write=False)
        out.append(cols)
    return tuple(out)


def _alphas(orders: range) -> tuple:
    """The multi-indices (r1, r2) of every order l in orders, by order, r1 rising."""
    return tuple((r1, l - r1) for l in orders for r1 in range(l + 1))


def _vertex_jump_acc(block: np.ndarray, width: int, orders: range, corners: tuple) -> np.ndarray:
    """Per order l in orders: sum over |alpha| = l of sqrt(quarter-sum of corner jumps).

    The corner jump of d^alpha u at one of the four corners (bottom-left,
    bottom-right, top-left, top-right) sums the squared differences against
    the two edge-neighbors meeting that corner; the diagonal neighbor is not
    compared.  block is a framed strip flattened to (cells, modes), width
    cells to a row (see `_strip_rhs`), and corners the four corner tables of
    the orders in orders (`_corner_major_tables`); the result has one row
    per cell of every row but the first and the last and one column per
    order 0..orders.stop - 1, shape (cells - 2 width, orders.stop), and
    the columns of the orders below orders.start are zero.  Each squared
    jump is taken once per face and read by both of its cells, since
    (a - b)^2 == (b - a)^2 exactly.
    """
    n, w = len(block), width
    rows = n - 2 * w
    bl, br, tl, tr = (_mm(block, tab) for tab in corners)

    def sq_jump(a, b):
        jump = a - b
        return np.square(jump, out=jump)

    # x-face k joins cells k and k + w, y-face k cells w - 1 + k and w + k
    xb, xt = sq_jump(br[:n - w], bl[w:]), sq_jump(tr[:n - w], tl[w:])
    yl, yr = sq_jump(tl[w - 1:n - w], bl[w:n - w + 1]), sq_jump(tr[w - 1:n - w], br[w:n - w + 1])
    # per corner, in the order BL, BR, TL, TR: its x-face jump plus its y-face jump
    total = xb[:rows] + yl[:rows]
    for x, y in ((xb[w:], yr[:rows]), (xt[:rows], yl[1:]), (xt[w:], yr[1:])):
        total += x + y
    total *= 0.25
    roots = np.sqrt(total, out=total)
    out = np.zeros((rows, orders.stop))
    for k, (r1, r2) in enumerate(_alphas(orders)):
        out[:, r1 + r2] += roots[:, k]
    return out


def damping_coeffs_2d(ucoef: np.ndarray, vcoef: np.ndarray, mesh: Mesh2D, config: SolverConfig):
    """Damping weights (for_u[i,j,l], l=0..p; for_v[i,j,l], l=0..q) of a framed block.

    ucoef and vcoef are framed blocks, (rows + 2, cols + 2, modes), whose
    outer ring of cells holds each edge cell's periodic neighbours.  The
    weights come back for the block's rows 1..rows, every column included,
    shape (rows, cols + 2, orders); those of the two outer columns are not
    meaningful.  For a whole periodic mesh, frame it with
    np.pad(coeffs, ((1, 1), (1, 1), (0, 0)), mode="wrap") and keep [:, 1:-1].

    for_u at order l sums, over the multi-indices of that order, the root of
    the quarter-sum of squared vertex jumps, scaled by
    2(2l+1)/(2p-1) * h_d^l / l!; for_v uses (2q-1), h_d^(l+1) and (l+1)!.
    for_u is taken at l = 1..p-1 only, and its columns 0 and p are zero:
    level l damps u_x - P^(l-1) u_x, and u_x has degree p - 1, so the
    weights of orders 0 and p would multiply only zeros (see `_strip_rhs`).
    for_v is taken at every order.
    """
    p, q = config.p, config.q
    t = _tables2d(p, q, float(mesh.hx[0]), float(mesh.hy[0]), config.quad_points)
    h_d = mesh.h
    rows, width = ucoef.shape[0] - 2, ucoef.shape[1]
    (orders_u, corners_u), (orders_v, corners_v) = t["jumps"]["u"], t["jumps"]["v"]
    acc_u = _vertex_jump_acc(ucoef.reshape(-1, ucoef.shape[-1]), width, orders_u, corners_u)
    acc_v = _vertex_jump_acc(vcoef.reshape(-1, vcoef.shape[-1]), width, orders_v, corners_v)
    for_u = np.zeros((rows, width, p + 1))
    for_v = np.zeros((rows, width, q + 1))
    acc_u, acc_v = acc_u.reshape(rows, width, -1), acc_v.reshape(rows, width, -1)
    for l in orders_u:
        for_u[..., l] = (2.0 * (2 * l + 1) / (2 * p - 1)) * h_d**l / math.factorial(l) * acc_u[..., l]
    for l in orders_v:
        for_v[..., l] = (2.0 * (2 * l + 1) / (2 * q - 1)) * h_d**(l + 1) / math.factorial(l + 1) * acc_v[..., l]
    return for_u, for_v


@lru_cache(maxsize=None)
def _tables2d(p: int, q: int, hx: float, hy: float, nq: int):
    """Every table of the 2D kernel for one cell geometry, built once.

    "faces" holds one entry per axis, for the faces normal to it (axis 0:
    x, vertical faces; axis 1: y, horizontal faces).  Each face table is the
    normal factor of a mode at the cell's upper (+1) or lower (-1) side
    times its tangential factor at the face's quadrature nodes, shape
    (nmodes, nquad).  "jumps" maps "u" and "v" to the orders of their
    vertex jumps and the corner tables of those orders: 1..p-1 for u,
    0..q for v (see `damping_coeffs_2d`).  "fold" holds the mass and the
    total degree of the modes of degree 1..p-1, the only modes of u_x that
    the u damping weighs (see `_strip_rhs`), and each face its rows of the
    reference derivative map; "degrees_v" holds the total degree of each
    mode of v.  The strips' workers only read this cache: `rhs_arrays_2d`
    fills it before it submits the strips.
    """
    modes = total_degree_modes(p)
    nmq = n_modes(q)
    rule = gauss_rule(nq)
    v0 = vandermonde(rule.nodes, p)
    ends = (vandermonde(1.0, p), vandermonde(-1.0, p),
            vandermonde(1.0, p, 1), vandermonde(-1.0, p, 1))
    m1, m2 = modes[:, 0], modes[:, 1]
    g = gradient_gram(p, hx, hy)
    mass2 = mass_diagonal(p)[m1] * mass_diagonal(p)[m2]
    basis_vol = v0[:, m1][:, None, :] * v0[:, m2][None, :, :]  # (g, h, nm)
    w2 = rule.weights[:, None] * rule.weights[None, :]
    faces = []
    fold = slice(1, n_modes(p - 1))  # the modes sorted by degree: those of degree 1..p-1
    for normal, tangent, h_n, h_t, d_ref in zip((m1, m2), (m2, m1), (hx, hy), (hy, hx),
                                                 _dxy_matrices(p)):
        tang = v0[:, tangent].T
        hi, lo = (end[normal][:, None] * tang for end in ends[:2])
        d_hi, d_lo = (end[normal][:, None] * tang * (2.0 / h_n) for end in ends[2:])
        fw = rule.weights * (0.5 * h_t)
        pen_hi, pen_lo = (hi * fw).T, (lo * fw).T
        faces.append({
            # trace tables, one product each: upper and lower side, value and normal derivative
            "hi": hi, "lo": lo, "d_hi": d_hi, "d_lo": d_lo,
            "v_hi": hi[:nmq], "v_lo": lo[:nmq],
            # assembly tables with face weights folded in, (nq, nm)
            "hi_w": (d_hi * fw).T.copy(),
            "lo_w": (d_lo * fw).T.copy(),
            # testing tables of the penalty and of gradn on either side of a face
            "pen_hi": pen_hi.copy(), "pen_lo": pen_lo.copy(),
            "gn_hi": pen_hi[:, :nmq].copy(), "gn_lo": pen_lo[:, :nmq].copy(),
            # reference derivative rows of the fold's modes, (n_fold, nm)
            "d_fold": d_ref[fold],
            "aspect": h_t / h_n,
        })
    return {
        "nmq": nmq,
        "mass2": mass2,
        "g": g,
        "ginv": np.linalg.inv(g[1:, 1:]),
        "jacobian": 0.25 * hx * hy,
        "faces": faces,
        "jumps": {field: (orders, _corner_major_tables(degree, hx, hy, orders))
                  for field, degree, orders in (("u", p, range(1, p)), ("v", q, range(q + 1)))},
        "fold": {"mass2": mass2[fold], "degrees": modes[fold].sum(axis=1)},
        "degrees_v": total_degree_modes(q).sum(axis=1),
        "bv_flat": basis_vol.reshape(nq * nq, -1).T,  # (nm, ngh)
        "bvw_q": (basis_vol * w2[:, :, None]).reshape(nq * nq, -1)[:, :nmq],  # (ngh, nmq)
    }


def _two_sided_faces(faces, hi, lo, shift: int, out) -> None:
    """Add a face quantity, tested on both sides, into out in place.

    Row k of faces is the face above (x: right of) cell k - shift of out and
    below cell k; each cell adds its upper face's value tested with its
    upper-side traces (hi) and subtracts its lower face's value tested with
    its lower-side traces (lo).  The penalty fits this form because the
    upper cell sees exactly the negated jump.
    """
    out += _mm(faces[shift:], hi)
    out -= _mm(faces[:len(out)], lo)


def _framed(arr: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of arr with one periodic ghost cell on all four sides."""
    out = np.empty((stop - start + 2, arr.shape[1] + 2) + arr.shape[2:])
    out[1:-1, 1:-1] = arr[start:stop]
    out[0, 1:-1] = arr[start - 1]
    out[-1, 1:-1] = arr[stop % len(arr)]
    out[:, 0] = out[:, -2]
    out[:, -1] = out[:, 1]
    return out


def rhs_arrays_2d(ucoef: np.ndarray, vcoef: np.ndarray, mesh: Mesh2D, config: SolverConfig,
                  out=None, pool: Executor | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (du, dv) of the 2D modal coefficients.

    out, if given, is a (du, dv) pair to write into, which must not overlap
    the inputs; otherwise fresh arrays are returned.  pool, an executor,
    runs one task per strip, and the first failing strip's error is raised
    once every strip has ended; without one, the strips run in this thread.
    """
    if config.source is not None and config.chi == 1:
        raise ValueError("the in-cell source quotient treatment is 1D-only; use chi=0 in 2D")
    du, dv = out if out is not None else (np.empty(ucoef.shape), np.empty(vcoef.shape))
    t = _tables2d(config.p, config.q, float(mesh.hx[0]), float(mesh.hy[0]), config.quad_points)

    def run(rows: slice) -> None:
        _strip_rhs(ucoef, vcoef, rows.start, rows.stop, mesh, config, t, du, dv)

    run_tasks(pool, run, row_blocks(ucoef.shape[0], ucoef.shape[1], CELLS_PER_STRIP))
    return du, dv


def _strip_rhs(ucoef, vcoef, start: int, stop: int, mesh: Mesh2D, config: SolverConfig,
               t: dict, du, dv) -> None:
    """Write the right-hand side of rows start..stop-1 to the same rows of du, dv.

    t holds the `_tables2d` of the mesh's cell.  The rows are framed (see
    the module docstring) and flattened, so that the cells w apart are
    x-neighbours and consecutive cells y-neighbours.  The accumulators hold
    the band of the strip's own rows, ghost columns included, and their
    inner columns go to du, dv at the end.
    """
    nm, nmq = ucoef.shape[-1], t["nmq"]
    rows, w = stop - start, ucoef.shape[1] + 2
    u3, v3 = _framed(ucoef, start, stop), _framed(vcoef, start, stop)
    u, v = u3.reshape(-1, nm), v3.reshape(-1, nmq)
    n = len(u)
    nb, band = n - 2 * w, slice(w, n - w)
    fp = config.flux
    # a 2D face weighs its sides mirrored against 1D's: see FluxParams
    face_flux = FluxParams(1.0 - fp.alpha, fp.tau, fp.beta)

    # v's modes are the degree-q prefix of u's, so its tables are row prefixes
    b = _mm(v[band], t["g"][:nmq])  # integral of grad v . grad phi_a
    rhs = _mm(u[band], t["g"][:, :nmq])
    np.negative(rhs, out=rhs)

    # a one-sided vhat (alternating flux) is that side's own v trace, so the
    # face correction vhat - v on that side vanishes and is skipped
    takes_minus = fp.zeta == 0.5 and not fp.tau
    takes_plus = fp.zeta == -0.5 and not fp.tau
    penalty = config.penalty and config.penalty_coefficient > 0.0
    if penalty:
        pen = np.zeros((nb, nm))

    # axis 0: vertical faces, shift w, normal +x; axis 1: horizontal faces,
    # shift 1, normal +y.  Face k lies between cells w - s + k and w + k,
    # from the lower face of the band's first cell to the upper face of its last.
    for f, s in zip(t["faces"], (w, 1)):
        lower, upper = u[w - s:n - w], u[w:n - w + s]
        # the alternating flux reads the normal derivative on one side only
        dnu_m = _mm(lower, f["d_hi"]) if fp.zeta != 0.5 or fp.tau else None
        dnu_p = _mm(upper, f["d_lo"]) if fp.zeta != -0.5 or fp.tau else None
        v_m, v_p = _mm(v[w - s:n - w], f["v_hi"]), _mm(v[w:n - w + s], f["v_lo"])
        vhat, gn = numerical_fluxes(v_m, v_p, dnu_m, dnu_p, face_flux)
        if not takes_minus:
            b += _mm(vhat[s:] - v_m[s:], f["hi_w"])
        if not takes_plus:
            b -= _mm(vhat[:nb] - v_p[:nb], f["lo_w"])
        if penalty:
            jump = _mm(upper, f["lo"]) - _mm(lower, f["hi"])
            _two_sided_faces(jump, f["pen_hi"], f["pen_lo"], s, pen)
        _two_sided_faces(gn, f["gn_hi"], f["gn_lo"], s, rhs)

    if penalty:
        pen *= config.penalty_coefficient / mesh.h**2
        b += pen

    sig_u = sig_v = None
    if config.damping:
        sig_u, sig_v = damping_coeffs_2d(u3, v3, mesh, config)
        # a mode of u_x of total degree k is damped by every level 1..k; u_x
        # has no mode of degree p, and its modes of degree 0 are not damped,
        # so the fold runs over the modes of degree 1..p-1 only
        wu = sum_by_degree(sig_u.reshape(nb, -1), t["fold"]["degrees"], 1)
        for f in t["faces"]:
            weighted = _mm(u[band], f["d_fold"].T)
            weighted *= wu
            weighted *= t["fold"]["mass2"]
            fold = _mm(weighted, f["d_fold"])
            fold *= f["aspect"] / mesh.h
            b -= fold

    own = slice(None), slice(1, -1)  # the strip's own cells of a (rows, w, .) band
    du[start:stop, :, 0] = vcoef[start:stop, :, 0]
    du[start:stop, :, 1:] = _mm(b[:, 1:], t["ginv"]).reshape(rows, w, nm - 1)[own]

    if config.source is not None:
        # cell-local, on the strip's own rows of the input: see the module docstring
        g_at = config.source.g(_mm(ucoef[start:stop], t["bv_flat"]))
        fold = _mm(g_at, t["bvw_q"])
        fold *= t["jacobian"]
        rhs.reshape(rows, w, nmq)[own] += fold

    dv_band = np.divide(rhs, t["jacobian"] * t["mass2"][:nmq], out=rhs)
    if sig_v is not None:
        # a mode of v of total degree k >= 1 is damped by every level 0..k
        wv = sum_by_degree(sig_v.reshape(nb, -1), t["degrees_v"], 0)
        wv *= v[band]
        wv /= mesh.h
        dv_band -= wv
    dv[start:stop] = dv_band.reshape(rows, w, nmq)[own]
