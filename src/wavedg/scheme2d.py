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

Meshes must be uniform and periodic in both directions; the in-cell source
quotient treatment (chi = 1) is a 1D-only feature.

Strips.  `rhs_arrays_2d` evaluates the mesh in x-strips of whole rows, at
most max(1, CELLS_PER_STRIP // ny) rows each, balanced so that their
heights differ by at most one row.  A mesh that fits in one strip runs as
one pass.  Otherwise each strip is copied out with one ghost row on each
side, taken with periodic wrap, the kernel runs on that block as if it
were periodic, and the strip's own rows are copied to the output.  Every
term couples a cell only to its edge neighbours: the face traces and
fluxes, the two-sided penalty and gradient faces, and the vertex jumps
that drive the damping.  The block's own wrap along x therefore corrupts
only the ghost rows, which are dropped, and the rows kept see exactly the
neighbours they have in the mesh.  BLAS computes each row of a product
independently of the others, so the strips give the whole-mesh numbers
bit for bit.  That last step needs products of more than a few hundred
rows: OpenBLAS 0.3.31 rounds some small products differently.  With
p = 3 and a source, the product over 36 quadrature values per cell gives
other last bits for 200 rows or fewer than for 250 or more.  Balanced
strips keep every block at about half of CELLS_PER_STRIP cells or more,
never a sliver of one row.

Workers.  A `StripPool` deals the strips round-robin to its workers,
which run on threads; numpy's ufuncs and BLAS release the GIL, so the
strips' array work overlaps.  `Discretization2D` sizes its pool to the
CPUs of the process's affinity mask (`discretization.usable_cpus`),
capped at the number of strips, and `timeint.integrate` ends its threads
when it returns or aborts.  One worker, or a mesh of one strip, runs the
strips in the calling thread.  A strip's numbers depend only on the rows
it reads, never on the worker that computes it or on what the others do,
and each strip writes only its own rows of the output, so every worker
count gives the serial bits, provided that BLAS itself is
deterministic: with BLAS on one thread (OPENBLAS_NUM_THREADS=1) it is.

Buffers.  The caller owns the output pair `out` and each worker its own
`StripWorkspace`, which holds the ghosted strip copies and the kernel's
large intermediates, all sized to one strip.  Passing the same pool or
workspace on every call, as `timeint.integrate` does through its
discretization, allocates them once for a run.  The damping weights and
the source function's own temporaries remain ordinary strip-sized arrays.
CELLS_PER_STRIP was set by timing one RHS of the ex8 configuration at
320^2 (p = 2, q = 1, source, damping and penalty on) on one core of a
shared 2-vCPU Xeon, three sweeps: strips of 2,560, 5,120 and 10,240 cells
took 111 to 156 ms, strips of 640 cells 276 to 291 ms, and one whole-mesh
pass 166 to 190 ms.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache

import numpy as np

from .basis import derivative_matrix, gauss_rule, mass_diagonal, vandermonde
from .field import gradient_gram, n_modes, total_degree_modes
from .mesh import Mesh2D
from .scheme1d import FluxParams, SolverConfig

_CORNERS = ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))  # BL, BR, TL, TR

#: cells per strip of one right-hand side evaluation; see the module docstring
CELLS_PER_STRIP = 5120


def _roll_slices(axis: int, shift: int) -> tuple:
    """(destination, source) index pairs that realize np.roll by shift = +-1."""
    pre = (slice(None),) * axis
    if shift == 1:
        pairs = ((slice(1, None), slice(None, -1)), (slice(0, 1), slice(-1, None)))
    else:
        pairs = ((slice(None, -1), slice(1, None)), (slice(-1, None), slice(0, 1)))
    return tuple((pre + (d,), pre + (s,)) for d, s in pairs)


def _minus_rolled(a, b, shift: int, axis: int, out=None) -> np.ndarray:
    """a - np.roll(b, shift, axis) without materializing the rolled copy.

    out may be a itself, which subtracts in place.
    """
    if out is None:
        out = np.empty(a.shape)
    for dst, src in _roll_slices(axis, shift):
        np.subtract(a[dst], b[src], out=out[dst])
    return out


def _rolled_minus(b, shift: int, axis: int, a, out) -> np.ndarray:
    """np.roll(b, shift, axis) - a, written to out, without the rolled copy."""
    for dst, src in _roll_slices(axis, shift):
        np.subtract(b[src], a[dst], out=out[dst])
    return out


def _rolled(b, shift: int, axis: int, out) -> np.ndarray:
    """np.roll(b, shift, axis), written to out."""
    for dst, src in _roll_slices(axis, shift):
        out[dst] = b[src]
    return out


def _weighted_sum(c1: float, x1, c2: float, x2, out, tmp):
    """c1*x1 + c2*x2, dropping zero-weight terms and unit factors.

    A dropped term adds a signed zero, so finite inputs give the same
    values as the full expression.  The result is out, or x1 or x2 itself
    when a unit factor leaves it unchanged; tmp is scratch.
    """
    if c2 == 0.0:
        return x1 if c1 == 1.0 else np.multiply(c1, x1, out=out)
    if c1 == 0.0:
        return x2 if c2 == 1.0 else np.multiply(c2, x2, out=out)
    np.multiply(c1, x1, out=out)
    return np.add(out, np.multiply(c2, x2, out=tmp), out=out)


def _fast_fluxes(v_minus, v_own, dnu_minus, dnu_own, params: FluxParams, axis: int, buf):
    """Face fluxes (vhat, grad-u-hat . n) of every face normal to one axis.

    The energy-based DG flux family (Appelo & Hagstrom, SINUM 53, 2015),
    for the face i+1/2 with normal n = +e_axis and z = params.zeta:

        vhat   = (1/2 - z) v+ + (1/2 + z) v- + tau [[d_n u]]
        gradn  = (1/2 + z) d_n u+ + (1/2 - z) d_n u- + beta [[v]]

    with minus the lower cell i, plus the upper cell i+1 and [[.]] = plus -
    minus.  Mirrored from the 1D `numerical_fluxes`, the alternating flux of
    side 0 (z = -1/2) takes vhat = v+ and gradn = d_n u- here, v- and u_x+
    in 1D.  Face i+1/2's plus-side traces are cell i+1's own lower-side
    traces (v_own, dnu_own rolled by -1 along axis); the roll is only taken
    where a term needs it, since the alternating flux reads one side of each
    pair.  buf(name) gives a scratch array shaped like the traces.
    """
    z = params.zeta
    a_plus, a_minus = 0.5 - z, 0.5 + z
    tmp = buf("flux_tmp")
    v_plus = _rolled(v_own, -1, axis, buf(f"v_plus{axis}")) if a_plus or params.beta else None
    dnu_plus = _rolled(dnu_own, -1, axis, buf(f"dnu_plus{axis}")) if a_minus or params.tau else None
    vhat = _weighted_sum(a_plus, v_plus, a_minus, v_minus, buf(f"vhat{axis}"), tmp)
    if params.tau:
        jump = np.subtract(dnu_plus, dnu_minus, out=tmp)
        vhat = np.add(vhat, np.multiply(params.tau, jump, out=tmp), out=buf(f"vhat{axis}"))
    gradn = _weighted_sum(a_minus, dnu_plus, a_plus, dnu_minus, buf(f"gradn{axis}"), tmp)
    if params.beta:
        jump = np.subtract(v_plus, v_minus, out=tmp)
        gradn = np.add(gradn, np.multiply(params.beta, jump, out=tmp), out=buf(f"gradn{axis}"))
    return vhat, gradn


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


def _mm(arr: np.ndarray, table: np.ndarray, out=None) -> np.ndarray:
    """Contract the trailing axis against a table via BLAS.

    out, if given, is a C-contiguous array that receives the result.
    """
    lead = arr.shape[:-1]
    flat = arr.reshape(-1, arr.shape[-1])
    if out is None:
        return (flat @ table).reshape(lead + (table.shape[1],))
    np.matmul(flat, table, out=out.reshape(-1, table.shape[1]))
    return out


@lru_cache(maxsize=None)
def _corner_major_tables(degree: int, max_order: int, hx: float, hy: float) -> tuple:
    """Per corner: derivative tables for all |alpha| <= max_order, (nm, n_alpha).

    Column k of a corner's table holds d^alpha_k phi_a at that corner, in
    physical scaling.  One matmul per corner then yields contiguous
    per-corner value arrays.
    """
    modes = total_degree_modes(degree)
    alphas = _alphas_upto(max_order)
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


@lru_cache(maxsize=None)
def _alphas_upto(max_order: int) -> tuple:
    out = []
    for l in range(max_order + 1):
        for r1 in range(l + 1):
            out.append((r1, l - r1))
    return tuple(out)


def _sq_jump_pair(own, nb1, shift1, axis1, nb2, shift2, axis2) -> np.ndarray:
    """(own - roll(nb1))**2 + (own - roll(nb2))**2: one corner's two edge-neighbor jumps."""
    first = _minus_rolled(own, nb1, shift1, axis1)
    np.square(first, out=first)
    second = _minus_rolled(own, nb2, shift2, axis2)
    np.square(second, out=second)
    first += second
    return first


def _vertex_jump_acc(coeffs: np.ndarray, degree: int, max_order: int,
                     hx: float, hy: float) -> np.ndarray:
    """Per order l: sum over |alpha| = l of sqrt(quarter-sum of corner jumps).

    The corner jump of d^alpha u at one of the four corners (bottom-left,
    bottom-right, top-left, top-right) sums the squared differences against
    the two edge-neighbors meeting that corner; the diagonal neighbor is not
    compared.  Returns shape (nx, ny, max_order+1); all multi-index corner
    values come from one stacked matmul and the four-corner jump algebra
    runs over every multi-index at once.
    """
    alphas = _alphas_upto(max_order)
    tabs = _corner_major_tables(degree, max_order, hx, hy)
    bl = _mm(coeffs, tabs[0])
    br = _mm(coeffs, tabs[1])
    tl = _mm(coeffs, tabs[2])
    tr = _mm(coeffs, tabs[3])
    total = _sq_jump_pair(bl, br, 1, 0, tl, 1, 1)
    total += _sq_jump_pair(br, bl, -1, 0, tr, 1, 1)
    total += _sq_jump_pair(tl, tr, 1, 0, bl, -1, 1)
    total += _sq_jump_pair(tr, tl, -1, 0, br, -1, 1)
    total *= 0.25
    roots = np.sqrt(total, out=total)
    out = np.zeros(coeffs.shape[:-1] + (max_order + 1,))
    for k, (r1, r2) in enumerate(alphas):
        out[..., r1 + r2] += roots[..., k]
    return out


def damping_coeffs_2d(ucoef: np.ndarray, vcoef: np.ndarray, mesh: Mesh2D,
                      config: SolverConfig):
    """Damping weights (for_u[i,j,l], l=1..p; for_v[i,j,l], l=0..q).

    for_u at order l sums, over the multi-indices of that order, the root of
    the quarter-sum of squared vertex jumps, scaled by
    2(2l+1)/(2p-1) * h_d^l / l!; for_v uses (2q-1), h_d^(l+1) and (l+1)!.
    """
    p, q = config.p, config.q
    hx, hy = float(mesh.hx[0]), float(mesh.hy[0])
    h_d = mesh.h
    acc_u = _vertex_jump_acc(ucoef, p, p, hx, hy)
    acc_v = _vertex_jump_acc(vcoef, q, q, hx, hy)
    for_u = np.zeros(ucoef.shape[:2] + (p + 1,))
    for_v = np.zeros(vcoef.shape[:2] + (q + 1,))
    for l in range(1, p + 1):
        for_u[..., l] = (2.0 * (2 * l + 1) / (2 * p - 1)) * h_d**l / math.factorial(l) * acc_u[..., l]
    for l in range(0, q + 1):
        for_v[..., l] = (2.0 * (2 * l + 1) / (2 * q - 1)) * h_d**(l + 1) / math.factorial(l + 1) * acc_v[..., l]
    return for_u, for_v


@lru_cache(maxsize=None)
def _tables2d(p: int, q: int, hx: float, hy: float, nq: int):
    """Face/volume trace tables, shape (nmodes, nquad), for one cell geometry.

    "faces" holds one entry per axis, for the faces normal to it (axis 0:
    x, vertical faces; axis 1: y, horizontal faces).  Each face table is the
    normal factor of a mode at the cell's upper (+1) or lower (-1) side
    times its tangential factor at the face's quadrature nodes.
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
    for normal, tangent, h_n, h_t, d_ref in zip((m1, m2), (m2, m1), (hx, hy), (hy, hx),
                                                 _dxy_matrices(p)):
        tang = v0[:, tangent].T
        hi, lo = (end[normal][:, None] * tang for end in ends[:2])
        d_hi, d_lo = (end[normal][:, None] * tang * (2.0 / h_n) for end in ends[2:])
        fw = rule.weights * (0.5 * h_t)
        pen_hi, pen_lo = (hi * fw).T, (lo * fw).T
        faces.append({
            # stacked trace tables: one matmul per field and axis
            "u": np.concatenate([hi, lo, d_hi, d_lo], axis=1),
            "v": np.concatenate([hi, lo], axis=1)[:nmq],
            # assembly tables with face weights folded in, (nq, nm)
            "hi_w": (d_hi * fw).T.copy(),
            "lo_w": (d_lo * fw).T.copy(),
            # both sides of a face from one matmul: [minus cell | plus cell]
            "pen": np.concatenate([pen_hi, pen_lo], axis=1),
            "gradn": np.concatenate([pen_hi[:, :nmq], pen_lo[:, :nmq]], axis=1),
            "d_ref": d_ref,
            "aspect": h_t / h_n,
        })
    return {
        "nmq": nmq,
        "rule": rule,
        "mass2": mass2,
        "g": g,
        "ginv": np.linalg.inv(g[1:, 1:]),
        "faces": faces,
        "bv_flat": basis_vol.reshape(nq * nq, -1).T,  # (nm, ngh)
        "bvw_q": (basis_vol * w2[:, :, None]).reshape(nq * nq, -1)[:, :nmq],  # (ngh, nmq)
    }


def _sum_by_degree(sig, first: int, out) -> np.ndarray:
    """out[..., a] = sig[..., first] + ... + sig[..., deg(a)], 0 where deg(a) = 0.

    The sums run in np.cumsum's order.  Modes are sorted by total degree,
    so the modes of degree l are the block n_modes(l-1):n_modes(l).
    """
    out[..., 0] = 0.0
    acc = sig[..., first]
    for l in range(1, sig.shape[-1]):
        if l > first:
            acc = acc + sig[..., l]
        out[..., n_modes(l - 1):n_modes(l)] = acc[..., None]
    return out


def _two_sided_faces(face_vals, table, axis: int, out, both) -> np.ndarray:
    """Add a face quantity, tested on both sides, into out in place.

    Face i+1/2 adds its value tested with cell i's upper-side traces and
    subtracts it tested with cell i+1's lower-side traces; table holds the
    two test tables side by side, and both receives that product.  Matmul
    rows are independent, so testing before the shift gives the same
    numbers as shifting first.  The penalty fits this form because cell
    i+1 sees exactly the negated jump.
    """
    _mm(face_vals, table, both)
    half = table.shape[1] // 2
    out += both[..., :half]
    return _minus_rolled(out, both[..., half:], 1, axis, out=out)


class StripWorkspace:
    """Scratch arrays of `rhs_arrays_2d`, kept between calls by their owner.

    A named buffer is allocated on first use, or again when a larger strip
    needs more room; a smaller strip uses its leading part.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _gather_strip(arr: np.ndarray, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """Rows start..stop-1 of arr with one periodic ghost row on each side."""
    out[0] = arr[start - 1]
    out[1:-1] = arr[start:stop]
    out[-1] = arr[stop % arr.shape[0]]
    return out


def strip_bounds(nx: int, ny: int) -> list[tuple[int, int]]:
    """(start, stop) rows of each strip of an nx-by-ny mesh; see the module docstring."""
    strips = -(-nx // max(1, CELLS_PER_STRIP // ny))
    return [(k * nx // strips, (k + 1) * nx // strips) for k in range(strips)]


class StripPool:
    """The workers that evaluate the strips of `rhs_arrays_2d`, one `StripWorkspace` each.

    Worker k takes strips k, k + workers, k + 2 workers, ...  One worker
    runs them in the calling thread and starts no thread; more run on a
    thread pool whose threads start on first use and end at `close`.  work
    is the first worker's workspace (a fresh one by default).
    """

    def __init__(self, workers: int = 1, work: StripWorkspace | None = None):
        self.work = [work if work is not None else StripWorkspace()]
        self.work += [StripWorkspace() for _ in range(workers - 1)]
        self._threads = ThreadPoolExecutor(workers, "wavedg-strip") if workers > 1 else None

    def deal(self, fn, items: list) -> None:
        """fn(items[k::workers], work[k]) for every worker k with items, then wait for all."""
        if self._threads is None:
            fn(items, self.work[0])
            return
        n = len(self.work)
        futures = [self._threads.submit(fn, items[k::n], w)
                   for k, w in enumerate(self.work) if items[k::n]]
        wait(futures)
        for f in futures:
            f.result()

    def close(self) -> None:
        """End the threads, if any; the pool takes no more work."""
        if self._threads is not None:
            self._threads.shutdown()


def rhs_arrays_2d(ucoef: np.ndarray, vcoef: np.ndarray, mesh: Mesh2D, config: SolverConfig,
                  out=None, work: StripWorkspace | None = None,
                  pool: StripPool | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (du, dv) of the 2D modal coefficients.

    out, if given, is a (du, dv) pair to write into, which must not overlap
    the inputs; otherwise fresh arrays are returned.  pool runs the strips
    on its workers, each with its own scratch arrays; without one, the
    strips run in this thread in work, or in a fresh workspace.  A caller
    that evaluates many right-hand sides passes the same pool or workspace
    each time.
    """
    if not mesh.is_uniform():
        raise ValueError("the 2D scheme assumes a uniform Cartesian mesh")
    if config.source is not None and config.chi == 1:
        raise ValueError("the in-cell source quotient treatment is 1D-only; use chi=0 in 2D")
    du, dv = out if out is not None else (np.empty(ucoef.shape), np.empty(vcoef.shape))
    pool = pool if pool is not None else StripPool(work=work)
    p, q = config.p, config.q
    hx, hy = float(mesh.hx[0]), float(mesh.hy[0])
    t = _tables2d(p, q, hx, hy, config.quad_points)
    nx, ny = ucoef.shape[:2]
    bounds = strip_bounds(nx, ny)
    if len(bounds) == 1:
        _strip_rhs(ucoef, vcoef, mesh, config, t, pool.work[0], du, dv)
        return du, dv
    if config.damping:
        # fill these caches here, not from several workers at once
        _corner_major_tables(p, p, hx, hy)
        _corner_major_tables(q, q, hx, hy)

    def run(deal, work):
        for start, stop in deal:
            lead = (stop - start + 2, ny)
            us = _gather_strip(ucoef, start, stop, work.take("u_in", lead + ucoef.shape[2:]))
            vs = _gather_strip(vcoef, start, stop, work.take("v_in", lead + vcoef.shape[2:]))
            dus = work.take("du_out", us.shape)
            dvs = work.take("dv_out", vs.shape)
            _strip_rhs(us, vs, mesh, config, t, work, dus, dvs)
            du[start:stop] = dus[1:-1]
            dv[start:stop] = dvs[1:-1]

    pool.deal(run, bounds)
    return du, dv


def _strip_rhs(ucoef, vcoef, mesh: Mesh2D, config: SolverConfig, t: dict,
               work: StripWorkspace, du, dv) -> None:
    """Write the right-hand side of a block of rows, periodic in both directions, to du, dv.

    t holds the `_tables2d` of the mesh's cell.
    """
    hx, hy = float(mesh.hx[0]), float(mesh.hy[0])
    nm, nmq = ucoef.shape[-1], t["nmq"]
    nq_face = len(t["rule"].weights)
    fp = config.flux

    def buf(name, width=nq_face):
        return work.take(name, ucoef.shape[:-1] + (width,))

    # v's modes are the degree-q prefix of u's, so its tables are row prefixes
    b = _mm(vcoef, t["g"][:nmq], buf("b", nm))  # integral of grad v . grad phi_a

    # a one-sided vhat (alternating flux) is that side's own v trace, so the
    # face correction vhat - v on that side vanishes and is skipped
    takes_minus = fp.zeta == 0.5 and not fp.tau
    takes_plus = fp.zeta == -0.5 and not fp.tau
    penalty = config.penalty and config.penalty_coefficient > 0.0
    if penalty:
        pen = buf("pen", nm)
        pen.fill(0.0)
    gradn = []

    # axis 0: vertical interfaces, indexed by the cell on their left, normal +x;
    # axis 1: horizontal interfaces, indexed by the cell below, normal +y
    for axis, f in enumerate(t["faces"]):
        u_tr = _mm(ucoef, f["u"], buf(f"u_tr{axis}", 4 * nq_face))
        v_tr = _mm(vcoef, f["v"], buf(f"v_tr{axis}", 2 * nq_face))
        v_m, v_own = v_tr[..., :nq_face], v_tr[..., nq_face:]
        u_m, u_own, dnu_m, dnu_own = (u_tr[..., k * nq_face:(k + 1) * nq_face] for k in range(4))
        vhat, gn = _fast_fluxes(v_m, v_own, dnu_m, dnu_own, fp, axis, buf)
        gradn.append(gn)
        if not takes_minus:
            b += _mm(np.subtract(vhat, v_m, out=buf("face")), f["hi_w"], buf("fold", nm))
        if not takes_plus:
            b -= _mm(_rolled_minus(vhat, 1, axis, v_own, buf("face")), f["lo_w"], buf("fold", nm))
        if penalty:
            _two_sided_faces(_rolled_minus(u_own, -1, axis, u_m, buf("face")), f["pen"], axis,
                             pen, buf("both", 2 * nm))

    if penalty:
        pen *= config.penalty_coefficient / mesh.h**2
        b += pen

    sig_u = sig_v = None
    if config.damping:
        sig_u, sig_v = damping_coeffs_2d(ucoef, vcoef, mesh, config)
        h_d = mesh.h
        # a mode of total degree k is damped by every level 1..k
        wu = _sum_by_degree(sig_u, 1, buf("wu", nm))
        for f in t["faces"]:
            weighted = _mm(ucoef, f["d_ref"].T, buf("d_ref", nm))
            weighted *= wu
            weighted *= t["mass2"]
            fold = _mm(weighted, f["d_ref"], buf("fold", nm))
            fold *= f["aspect"] / h_d
            b -= fold

    du[..., 0] = vcoef[..., 0]
    du[..., 1:] = _mm(b[..., 1:], t["ginv"], buf("fold", nm - 1))

    # v equation: mass solve over the degree-q prefix of the mode list
    rhs = _mm(ucoef, t["g"][:, :nmq], buf("rhs_v", nmq))
    np.negative(rhs, out=rhs)
    for axis, (f, gn) in enumerate(zip(t["faces"], gradn)):
        _two_sided_faces(gn, f["gradn"], axis, rhs, buf("both", 2 * nmq))

    if config.source is not None:
        u_at = _mm(ucoef, t["bv_flat"], buf("u_at", t["bv_flat"].shape[1]))
        g_at = config.source.g(u_at)
        fold = _mm(g_at, t["bvw_q"], buf("fold", nmq))
        fold *= 0.25 * hx * hy
        rhs += fold

    np.divide(rhs, 0.25 * hx * hy * t["mass2"][:nmq], out=dv)
    if sig_v is not None:
        # a mode of v of total degree k >= 1 is damped by every level 0..k
        wv = _sum_by_degree(sig_v, 0, buf("wv", nmq))
        wv *= vcoef
        wv /= mesh.h
        dv -= wv

