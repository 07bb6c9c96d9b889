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
more than a few hundred rows.  On OpenBLAS 0.3.31 (SkylakeX kernels) every
product of this kernel up to p = 4 gave the same rows when a block of up
to 20,480 rows was split in two pieces of 3 rows or more, except the
source's product over the nq^2 quadrature values of a cell, which gave
other rows in pieces of up to 300 rows at p = 3, q = 1 (150 at q = 2, 50
at q = 3).  Balanced strips keep every block at about half of
CELLS_PER_STRIP cells or more, never a sliver of one row.  For the same
reason the cell-local source products run on the strip's own rows of the
input, without the frame, so that a one-strip mesh multiplies exactly its
own cells: on framed rows, meshes of 100 to 200 cells with a source at
p >= 3 got other last bits of dv.  They run in `row_blocks` of at most
SOURCE_CELLS cells, which bounds their temporaries, two arrays of nq^2
values per cell (50 doubles at p = 2); balanced too, a block holds about
half of SOURCE_CELLS cells or more unless its strip is smaller.

Workers.  Given an executor, `rhs_arrays_2d` submits one task per strip
through `field.run_tasks`, so that a free worker takes the next strip:
strip costs differ once subnormal coefficients appear.  On threads,
numpy's ufuncs and BLAS release the GIL, so the strips' array work
overlaps; but each numpy call takes the GIL to start and to end, and a
worker that finds it held sleeps until the other lets it go.  So a strip
makes few calls, each on the whole band: the fields' vertex jumps share
one pass, the order sums go straight to the weights of each order, and
the constants of every strip are computed once per call (CHANGES.md,
PR 25, has the time and the context switches that this saves).
`stepping(mesh, config)` makes a `ThreadPoolExecutor` of one worker per
CPU of the affinity mask, capped at the number of strips
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
that strip, and each step of the strip (`_framed_terms`, `_face_terms`,
`_damping_terms`, the source blocks) drops its temporaries when it ends.
The x jumps are written over the corner values they came from, and the
corner sums over the corner values read no more.  A serial ex8 RHS at
320^2 peaks at 4.23 MB of temporaries (tracemalloc) in strips of 10,240
cells, against 4.53 MB in the 5,120-cell strips of the kernel before.
Buffers named and kept per worker between calls saved no time: one
serial ex8 RHS at 320^2 after 15 steps took 53.5 ms with them and 52.3 ms
with fresh arrays, 38.2 and 36.5 ms on two workers (medians of six
alternated batches, the same bytes).  That holds once glibc's malloc
keeps freed blocks of that size rather than returning them to the
system, as it does after the process has freed a larger block; a run's
projections free mesh-sized arrays first.  Before that, each such RHS
page-faulted about 37,000 times and took 120 to 180 ms.  The corner
products write into column slices of one array, which BLAS does as fast
and with the same bits as into an array of their own.  An elementwise
operation whose rows are a few interleaved columns, or that broadcasts a
per-mode vector along the rows, costs several times one on whole rows: a
(10240, 2) array times a (2,) vector took 61 us against 10 us times a
(10240, 2) array, and a multiply on 2 of 5 columns 151 us against 15 us
on one.  So the per-mode factors are repeated along a framed row and
applied to (rows, w * modes) views, and the orders are summed and scaled
one column at a time.  GEMM cost here follows the size of the output, not
the number of calls.

CELLS_PER_STRIP was set by `ex8-dg2d` rounds (320^2, 60 steps, BLAS on
one thread, 2-vCPU Xeon, in-process `getrusage`) on two workers,
alternated three times (CHANGES.md, PR 25): strips of 5,120 cells took
6.32-6.60 s with 62-63k switches and a peak RSS of 90.7-91.0 MB, of
10,240 cells 5.94-6.16 s with 16-18k and 94.3-95.0 MB, and of 15,360
cells 6.29-6.60 s with 9.5-10k and 98.1-99.0 MB, the same bytes.
"""
from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import lru_cache

import numpy as np

from .basis import derivative_matrix, gauss_rule, mass_diagonal, vandermonde
from .field import (gradient_gram, n_modes, row_blocks, run_tasks, total_degree_modes,
                    worker_count)
from .mesh import Mesh2D
from .scheme1d import FluxParams, SolverConfig, damping_factors, damping_sums, numerical_fluxes

_CORNERS = ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))  # BL, BR, TL, TR

#: cells per strip of one right-hand side evaluation; see the module docstring
CELLS_PER_STRIP = 10240
#: most cells per block of a strip's source quadrature; see the module docstring
SOURCE_CELLS = 5120


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
    One matmul per corner then yields that corner's values of every alpha.
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


def _vertex_jump_roots(blocks: tuple, width: int, corners: tuple) -> np.ndarray:
    """Per cell and per column of the corner tables: sqrt(quarter-sum of its corner jumps).

    The corner jump of d^alpha u at one of the four corners (bottom-left,
    bottom-right, top-left, top-right) sums the squared differences against
    the two edge-neighbors meeting that corner; the diagonal neighbor is not
    compared.  blocks holds one framed strip per field, flattened to (cells,
    modes), width cells to a row (see `_framed_terms`), and corners per field
    its four corner tables (`_corner_major_tables`).  The fields' corner
    values go side by side into one array, so that one pass of elementwise
    operations serves them all.  The result has one row per cell of every
    row but the first and the last and the fields' columns in turn, shape
    (cells - 2 width, columns).  Each squared jump is taken once per face
    and read by both of its cells, since (a - b)^2 == (b - a)^2 exactly.
    """
    n, w = len(blocks[0]), width
    rows = n - 2 * w
    corner = np.empty((4, n, sum(tables[0].shape[1] for tables in corners)))  # BL, BR, TL, TR
    first = 0
    for block, tables in zip(blocks, corners):
        cols = slice(first, first + tables[0].shape[1])
        for k, table in enumerate(tables):
            np.matmul(block, table, out=corner[k, :, cols])
        first = cols.stop
    # x-face k joins cells k and k + w, y-face k cells w - 1 + k and w + k; per face
    # the jumps of its two vertices, TL - BL and TR - BR (y), BR - BL and TR - TL (x),
    # the x jumps written over the BR and TR values that no later step reads
    yj = np.subtract(corner[2:, w - 1:n - w], corner[:2, w:n - w + 1])
    xj = np.subtract(corner[1::2, :n - w], corner[0::2, w:], out=corner[1::2, :n - w])
    np.square(xj, out=xj)
    np.square(yj, out=yj)
    # per corner, in the order BL, BR, TL, TR: its x-face jump plus its y-face
    # jump, summed over the BL and TL values, which are read no more
    total, scratch = corner[0, :rows], corner[2, :rows]
    np.add(xj[0, :rows], yj[0, :rows], out=total)
    for x, y in ((xj[0, w:], yj[1, :rows]), (xj[1, :rows], yj[0, 1:]), (xj[1, w:], yj[1, 1:])):
        np.add(x, y, out=scratch)
        total += scratch
    total *= 0.25
    return np.sqrt(total, out=total)


def _sum_orders(roots: np.ndarray, first: int, orders: range, out: np.ndarray, factors) -> None:
    """out[:, k] = factors[k] * the sum of roots' columns of order orders[k].

    roots' columns first, first + 1, ... hold the multi-indices
    `_alphas(orders)`; each order's are summed r1 rising, one column at a
    time, since an operation on a few interleaved columns costs several
    times one on a single column.
    """
    col = first
    for k, l in enumerate(orders):
        o = out[:, k]
        if l:
            np.add(roots[:, col], roots[:, col + 1], out=o)
            for c in range(col + 2, col + l + 1):
                o += roots[:, c]
            o *= factors[k]
        else:
            np.multiply(roots[:, col], factors[k], out=o)
        col += l + 1


def damping_coeffs_2d(ucoef: np.ndarray, vcoef: np.ndarray, mesh: Mesh2D, config: SolverConfig):
    """Damping weights (for_u[i,j,l], l=0..p; for_v[i,j,l], l=0..q) of a framed block.

    ucoef and vcoef are framed blocks, (rows + 2, cols + 2, modes), whose
    outer ring of cells holds each edge cell's periodic neighbours.  The
    weights come back for the block's rows 1..rows, every column included,
    shape (rows, cols + 2, orders); those of the two outer columns are not
    meaningful.  For a whole periodic mesh, frame it with
    np.pad(coeffs, ((1, 1), (1, 1), (0, 0)), mode="wrap") and keep [:, 1:-1].
    The two are views of one array, which the caller may write.

    for_u at order l sums, over the multi-indices of that order, the root of
    the quarter-sum of squared vertex jumps, scaled by the order's
    `damping_factors` at h = mesh.h and v_shift 1: for_v divides by (l+1)!.
    for_u is taken at l = 1..p-1 only, and its columns 0 and p are zero:
    level l damps u_x - P^(l-1) u_x, and u_x has degree p - 1, so the
    weights of orders 0 and p would multiply only zeros (see `_damping_terms`).
    for_v is taken at every order.
    """
    p, q = config.p, config.q
    t = _tables2d(p, q, float(mesh.hx[0]), float(mesh.hy[0]), config.quad_points)
    rows, width = ucoef.shape[0] - 2, ucoef.shape[1]
    (orders_u, corners_u), (orders_v, corners_v) = t["jumps"]
    roots = _vertex_jump_roots((ucoef.reshape(-1, ucoef.shape[-1]),
                                vcoef.reshape(-1, vcoef.shape[-1])), width, (corners_u, corners_v))
    factors_u, factors_v = damping_factors(p, q, mesh.h, 1)
    weights = np.zeros((len(roots), p + q + 2))
    _sum_orders(roots, 0, orders_u, weights[:, 1:p], factors_u)
    _sum_orders(roots, corners_u[0].shape[1], orders_v, weights[:, p + 1:], factors_v)
    return (weights[:, :p + 1].reshape(rows, width, p + 1),
            weights[:, p + 1:].reshape(rows, width, q + 1))


@lru_cache(maxsize=None)
def _tables2d(p: int, q: int, hx: float, hy: float, nq: int):
    """Every table of the 2D kernel for one cell geometry, built once.

    "faces" holds one entry per axis, for the faces normal to it (axis 0:
    x, vertical faces; axis 1: y, horizontal faces).  Each face table is the
    normal factor of a mode at the cell's upper (+1) or lower (-1) side
    times its tangential factor at the face's quadrature nodes, shape
    (nmodes, nquad).  "jumps" holds for u and for v the orders of their
    vertex jumps and the corner tables of those orders: 1..p-1 for u,
    0..q for v (see `damping_coeffs_2d`).  "fold" holds the mass and the
    total degree of the modes of degree 1..p-1, the only modes of u_x that
    the u damping weighs (see `_damping_terms`), and each face its rows of the
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
        "jumps": tuple((orders, _corner_major_tables(degree, hx, hy, orders))
                       for degree, orders in ((p, range(1, p)), (q, range(q + 1)))),
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
    out += faces[shift:] @ hi
    out -= faces[:len(out)] @ lo


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
    fp = config.flux
    # the constants of every strip; a 2D face weighs its sides mirrored against 1D's: see FluxParams
    k = {
        "flux": FluxParams(1.0 - fp.alpha, fp.tau, fp.beta),
        # the alternating flux reads the normal derivative on one side only
        "reads_minus": fp.zeta != 0.5 or fp.tau,
        "reads_plus": fp.zeta != -0.5 or fp.tau,
        "penalty": config.penalty_coefficient / mesh.h**2
        if config.penalty and config.penalty_coefficient > 0.0 else None,
        "fold_scale": [f["aspect"] / mesh.h for f in t["faces"]],
        # per-mode factors repeated along a framed row of w cells: on a band
        # viewed as (rows, w * modes) they broadcast along whole rows
        "fold_mass": np.tile(t["fold"]["mass2"], ucoef.shape[1] + 2),
        "mass": np.tile(t["jacobian"] * t["mass2"][:t["nmq"]], ucoef.shape[1] + 2),
    }

    def run(rows: slice) -> None:
        _strip_rhs(ucoef, vcoef, rows, mesh, config, t, k, du, dv)

    run_tasks(pool, run, row_blocks(ucoef.shape[0], ucoef.shape[1], CELLS_PER_STRIP))
    return du, dv


@contextmanager
def stepping(mesh: Mesh2D, config: SolverConfig):
    """The right-hand side of a state (u, v), each call writing over the previous call's
    output pair; the strip executor, of one worker per usable CPU and strip, is made only
    for more than one worker, and ends with the block."""
    out = (np.empty((mesh.nx, mesh.ny, n_modes(config.p))),
           np.empty((mesh.nx, mesh.ny, n_modes(config.q))))
    workers = worker_count(len(row_blocks(mesh.nx, mesh.ny, CELLS_PER_STRIP)))
    pool = ThreadPoolExecutor(workers, "wavedg-strip") if workers > 1 else None
    with pool or nullcontext():
        yield lambda state: rhs_arrays_2d(state[0], state[1], mesh, config, out=out, pool=pool)


def _strip_rhs(ucoef, vcoef, rows: slice, mesh: Mesh2D, config: SolverConfig, t: dict, k: dict,
               du, dv) -> None:
    """Write the right-hand side of the rows to the same rows of du, dv.

    t holds the `_tables2d` of the mesh's cell and k the constants that
    `rhs_arrays_2d` computes once.  `_framed_terms` writes du and returns
    the terms of dv that read neighbours; then the source, cell-local, is
    added in `row_blocks` of at most SOURCE_CELLS cells, on the input's own
    rows (see the module docstring).  Each step's temporaries end with it.
    """
    rhs, wv = _framed_terms(ucoef, vcoef, rows, mesh, config, t, k, du)
    start, height, nmq = rows.start, rows.stop - rows.start, t["nmq"]
    rhs_own = rhs.reshape(height, -1, nmq)[:, 1:-1]
    if config.source is not None:
        for block in row_blocks(height, ucoef.shape[1], SOURCE_CELLS):
            cells = ucoef[start + block.start:start + block.stop]
            fold = _mm(config.source.g(_mm(cells, t["bv_flat"])), t["bvw_q"])
            fold *= t["jacobian"]
            rhs_own[block] += fold
    band = rhs.reshape(height, -1)
    np.divide(band, k["mass"], out=band)
    if wv is None:
        dv[rows] = rhs_own
    else:
        np.subtract(rhs_own, wv.reshape(height, -1, nmq)[:, 1:-1], out=dv[rows])


def _framed_terms(ucoef, vcoef, rows: slice, mesh: Mesh2D, config: SolverConfig,
                  t: dict, k: dict, du) -> tuple:
    """Write du of the rows; return the band's v terms before the source and its v damping.

    The rows are framed (see the module docstring) and flattened, so that
    the cells w apart are x-neighbours and consecutive cells y-neighbours.
    The accumulators hold the band of the strip's own rows, ghost columns
    included, and their inner columns go to du at the end.  The v damping,
    weight * v / h per mode, is None without damping.
    """
    start, stop = rows.start, rows.stop
    nm, nmq = ucoef.shape[-1], t["nmq"]
    w = ucoef.shape[1] + 2
    u3, v3 = _framed(ucoef, start, stop), _framed(vcoef, start, stop)
    u, v = u3.reshape(-1, nm), v3.reshape(-1, nmq)
    n = len(u)

    # v's modes are the degree-q prefix of u's, so its tables are row prefixes
    b = v[w:n - w] @ t["g"][:nmq]  # integral of grad v . grad phi_a
    rhs = u[w:n - w] @ t["g"][:, :nmq]
    np.negative(rhs, out=rhs)

    pen = np.zeros((n - 2 * w, nm)) if k["penalty"] is not None else None
    # axis 0: vertical faces, shift w, normal +x; axis 1: horizontal faces, shift 1, normal +y
    for f, s in zip(t["faces"], (w, 1)):
        _face_terms(u, v, w, s, f, k, b, rhs, pen)
    if pen is not None:
        pen *= k["penalty"]
        b += pen
        del pen  # before the damping pass, the strip's largest

    wv = _damping_terms(u3, v3, mesh, config, t, k, b) if config.damping else None

    own = slice(None), slice(1, -1)  # the strip's own cells of a (rows, w, .) band
    du[rows, :, 0] = vcoef[rows, :, 0]
    du[rows, :, 1:] = (b[:, 1:] @ t["ginv"]).reshape(stop - start, w, nm - 1)[own]
    return rhs, wv


def _face_terms(u, v, w: int, s: int, f: dict, k: dict, b, rhs, pen) -> None:
    """Add the terms of the faces of one axis, shift s, into b, rhs and pen (if not None).

    u and v are framed strips, w cells to a row, and b, rhs and pen hold
    their band.  Face k lies between cells w - s + k and w + k, from the
    lower face of the band's first cell to the upper face of its last.  A
    side's correction vhat - v is skipped where `numerical_fluxes` returns
    that side's trace itself as vhat (the alternating flux without tau).
    """
    n, nb = len(u), len(b)
    lower, upper = u[w - s:n - w], u[w:n - w + s]
    if pen is not None:
        jump = upper @ f["lo"]
        jump -= lower @ f["hi"]
        _two_sided_faces(jump, f["pen_hi"], f["pen_lo"], s, pen)
        del jump  # before the traces of the flux
    dnu_m = lower @ f["d_hi"] if k["reads_minus"] else None
    dnu_p = upper @ f["d_lo"] if k["reads_plus"] else None
    v_m, v_p = v[w - s:n - w] @ f["v_hi"], v[w:n - w + s] @ f["v_lo"]
    vhat, gn = numerical_fluxes(v_m, v_p, dnu_m, dnu_p, k["flux"])
    if vhat is not v_m:
        b += (vhat[s:] - v_m[s:]) @ f["hi_w"]
    if vhat is not v_p:
        b -= (vhat[:nb] - v_p[:nb]) @ f["lo_w"]
    _two_sided_faces(gn, f["gn_hi"], f["gn_lo"], s, rhs)


def _damping_terms(u3, v3, mesh: Mesh2D, config: SolverConfig, t: dict, k: dict, b):
    """Subtract the u damping's fold from b; return the v damping, weight * v / h per mode.

    u3 and v3 are framed strips, and b holds their band.  `damping_sums`
    turns the weights per order into the weights per degree, v's degree 0
    zeroed, which are gathered per mode.
    """
    rows = len(u3) - 2
    ub = u3[1:-1].reshape(-1, u3.shape[-1])
    sig_u, sig_v = damping_coeffs_2d(u3, v3, mesh, config)
    sig_u, sig_v = sig_u.reshape(len(b), -1), sig_v.reshape(len(b), -1)
    damping_sums(sig_u, sig_v, config.p - 1)
    # u_x has no mode of degree p, and its modes of degree 0 are not damped,
    # so the fold runs over the modes of degree 1..p-1 only
    wu = sig_u[:, t["fold"]["degrees"]]
    for f, scale in zip(t["faces"], k["fold_scale"]):
        weighted = ub @ f["d_fold"].T
        weighted *= wu
        by_row = weighted.reshape(rows, -1)
        np.multiply(by_row, k["fold_mass"], out=by_row)
        fold = weighted @ f["d_fold"]
        fold *= scale
        b -= fold
    wv = sig_v[:, t["degrees_v"]]
    wv *= v3[1:-1].reshape(-1, v3.shape[-1])
    wv /= mesh.h
    return wv
