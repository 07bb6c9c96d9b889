"""2D semi-discrete assembly: fluxes, vertex jumps, oracle equivalence, reduction."""
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from oracles import brute_rhs_2d, fluxes_2d
from wavedg.basis import gauss_rule, mass_diagonal, vandermonde
from wavedg.field import DGField2D, gradient_gram, n_modes, row_blocks, total_degree_modes
from wavedg.mesh import cartesian_mesh_2d, uniform_mesh_1d
from wavedg.problems import EXAMPLES
from wavedg.scheme1d import SOURCES, FluxParams, SolverConfig, SourceTerm, numerical_fluxes
from wavedg import scheme1d, scheme2d
from wavedg.discretization import Discretization2D
from wavedg.scheme2d import _dxy_matrices, damping_coeffs_2d, rhs_arrays_2d


def _recording_executors(monkeypatch) -> list:
    """The max_workers of each executor that scheme2d.stepping makes from here on."""
    made = []

    def recording(max_workers, *args, **kwargs):
        made.append(max_workers)
        return ThreadPoolExecutor(max_workers, *args, **kwargs)

    monkeypatch.setattr(scheme2d, "ThreadPoolExecutor", recording)
    return made


def _random_state_2d(rng, nx, ny, p, q, scale=1.0):
    return (scale * rng.standard_normal((nx, ny, n_modes(p))),
            scale * rng.standard_normal((nx, ny, n_modes(q))))


def test_fluxes_2d_consistency():
    for fp in (FluxParams.central(), FluxParams.alternating(1), FluxParams.sommerfeld(2.0)):
        vhat, gn = fluxes_2d(0.7, 0.7, -1.1, -1.1, fp)
        assert vhat == pytest.approx(0.7) and gn == pytest.approx(-1.1)


def test_fluxes_2d_plain_average():
    vhat, _ = fluxes_2d(0.0, 2.0, 0.0, 0.0, FluxParams.central())
    assert vhat == pytest.approx(1.0)


def test_fluxes_2d_single_valued():
    # swapping sides (and the normal) must reproduce vhat and negate the
    # normal flux component
    fp = FluxParams(alpha=0.8, tau=0.3, beta=0.2)
    vm, vp, dm, dp_ = 0.4, -1.2, 2.0, 0.5
    vhat, gn = fluxes_2d(vm, vp, dm, dp_, fp)
    # from the other side: traces swap, normal derivatives and normal negate
    vhat2, gn2 = fluxes_2d(vp, vm, -dp_, -dm, fp, normal_sign=-1.0)
    assert vhat2 == pytest.approx(vhat)
    assert gn2 == pytest.approx(-gn)


def test_fluxes_2d_reduce_to_1d_with_alpha_map():
    # on a vertical face the 2D family with weighting alpha equals the 1D
    # family with weighting 1 - alpha
    rng = np.random.default_rng(3)
    for alpha in (0.0, 0.25, 0.5, 1.0):
        fp2 = FluxParams(alpha=alpha, tau=0.2, beta=0.1)
        fp1 = FluxParams(alpha=1.0 - alpha, tau=0.2, beta=0.1)
        vm, vp, dm, dp_ = rng.standard_normal(4)
        vhat2, gn2 = fluxes_2d(vm, vp, dm, dp_, fp2)
        vhat1, gn1 = numerical_fluxes(vm, vp, dm, dp_, fp1)
        assert vhat2 == pytest.approx(vhat1, abs=1e-13)
        assert gn2 == pytest.approx(gn1, abs=1e-13)


FLUX_CASES = {
    "central": FluxParams.central(),
    "alternating0": FluxParams.alternating(0),
    "alternating1": FluxParams.alternating(1),
    "sommerfeld": FluxParams.sommerfeld(1.3),
    "generic": FluxParams(alpha=0.8, tau=0.3, beta=0.7),
}


def _mirrored(fp: FluxParams) -> FluxParams:
    """The weights with which the 2D kernel calls numerical_fluxes on its faces."""
    return FluxParams(1.0 - fp.alpha, fp.tau, fp.beta)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("fluxname", sorted(FLUX_CASES))
def test_fast_fluxes_match_the_reference_flux(fluxname, axis):
    # the 2D face fluxes are numerical_fluxes with the sides mirrored.  In a
    # 5 x 4 block flattened to 20 cells, face k joins cell k (minus) to
    # cell k + 4 along x or k + 1 along y (plus), whose lower-side traces are
    # that slice further on; the reference is the pointwise flux formula
    rng = np.random.default_rng(61 + axis)
    fp = FLUX_CASES[fluxname]
    v_minus, v_own, dnu_minus, dnu_own = rng.standard_normal((4, 20, 3))
    shift = (4, 1)[axis]
    sides = (v_minus[:-shift], v_own[shift:], dnu_minus[:-shift], dnu_own[shift:])
    vhat, gradn = numerical_fluxes(*sides, _mirrored(fp))
    vhat_ref, gradn_ref = fluxes_2d(*sides, fp)
    assert np.allclose(vhat, vhat_ref, rtol=0.0, atol=1e-14)
    assert np.allclose(gradn, gradn_ref, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("side", [0, 1])
def test_alternating_side_reads_mirrored_sides_in_1d_and_2d(side):
    # side 0 takes vhat = v- and uxhat = u_x+ in 1D, but vhat = v+ and
    # gradn = d_n u- on a 2D face; side 1 swaps both
    fp = FluxParams.alternating(side)
    v_minus, v_plus, d_minus, d_plus = 1.0, 2.0, 3.0, 4.0
    want_1d = (v_minus, d_plus) if side == 0 else (v_plus, d_minus)
    assert numerical_fluxes(v_minus, v_plus, d_minus, d_plus, fp) == want_1d
    # two faces, each with its upper cell's lower-side traces as the plus side
    vhat, gradn = numerical_fluxes(np.full(2, v_minus), np.full(2, v_plus), np.full(2, d_minus),
                                   np.full(2, d_plus), _mirrored(fp))
    want_2d = (v_plus, d_minus) if side == 0 else (v_minus, d_plus)
    assert vhat.tolist() == [want_2d[0]] * 2 and gradn.tolist() == [want_2d[1]] * 2


@pytest.mark.parametrize("side", [0, 1])
def test_fluxes_take_none_for_a_derivative_no_term_reads(side):
    # the alternating flux without tau reads u_x on one side only, in 1D
    # and on a 2D face; the other may be None, and on finite inputs the
    # result equals the full formula of FluxParams, weights 0 and 1 included
    rng = np.random.default_rng(89 + side)
    vm, vp, dm, dp_ = rng.standard_normal((4, 30))
    for beta in (0.0, 0.7):
        one_d = FluxParams(float(side), 0.0, beta)
        for fp in (one_d, _mirrored(one_d)):
            a = fp.alpha
            want = (a * vp + (1.0 - a) * vm + fp.tau * (dp_ - dm),
                    (1.0 - a) * dp_ + a * dm + fp.beta * (vp - vm))
            got = numerical_fluxes(vm, vp, None if a == 0.0 else dm, None if a == 1.0 else dp_, fp)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # against the 2D reference: side 0 reads d_n u- only on a 2D face, side 1 d_n u+ only
    fp = FluxParams.alternating(side)
    got = numerical_fluxes(vm, vp, dm if side == 0 else None, dp_ if side == 1 else None,
                           _mirrored(fp))
    for g, w in zip(got, fluxes_2d(vm, vp, dm, dp_, fp)):
        assert np.allclose(g, w, rtol=0.0, atol=1e-15)


def _framed(coeffs: np.ndarray) -> np.ndarray:
    """A whole periodic mesh's coefficients with one wrapped ghost cell on every side."""
    return np.pad(coeffs, ((1, 1), (1, 1), (0, 0)), mode="wrap")


def _vertex_jump_acc(f: DGField2D) -> np.ndarray:
    """Per order 0..degree: the vertex-jump sums of a field over its whole periodic mesh."""
    framed = _framed(f.coeffs)
    orders = range(f.degree + 1)
    corners = scheme2d._corner_major_tables(f.degree, float(f.mesh.hx[0]), float(f.mesh.hy[0]),
                                            orders)
    roots = scheme2d._vertex_jump_roots((framed.reshape(-1, framed.shape[-1]),),
                                        framed.shape[1], (corners,))
    acc = np.empty((len(roots), f.degree + 1))
    scheme2d._sum_orders(roots, 0, orders, acc, [1.0] * len(orders))
    return acc.reshape(f.mesh.nx, f.mesh.ny + 2, -1)[:, 1:-1]


def _damping_coeffs(u, v, mesh, cfg):
    """damping_coeffs_2d over a whole periodic mesh, framed by wrap."""
    return tuple(s[:, 1:-1] for s in damping_coeffs_2d(_framed(u), _framed(v), mesh, cfg))


def test_vertex_jumps_single_polynomial():
    m = cartesian_mesh_2d(0, 1, 0, 1, 3, 3)
    f = DGField2D.project(lambda x, y: 1.7 + 0 * x * y, m, 2)
    assert np.max(np.abs(_vertex_jump_acc(f))) < 1e-10


def test_vertex_jumps_checkerboard():
    m = cartesian_mesh_2d(0, 1, 0, 1, 4, 4)
    f = DGField2D(m, 2)
    ix, iy = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    f.coeffs[..., 0] = (ix + iy) % 2
    acc = _vertex_jump_acc(f)
    # both face-neighbors differ by 1 at every corner: squared jumps 2 at
    # each of the four corners, so the root of their quarter-sum is sqrt(2)
    assert np.allclose(acc[..., 0], np.sqrt(2.0))
    # piecewise constants have no derivative jumps
    assert np.all(acc[..., 1:] == 0.0)


def test_vertex_jumps_single_cell_bump():
    m = cartesian_mesh_2d(0, 1, 0, 1, 3, 3)
    f = DGField2D(m, 2)
    delta = 0.7
    f.coeffs[1, 1, 0] = delta
    acc = _vertex_jump_acc(f)[..., 0]
    expected = np.zeros((3, 3))
    # the bumped cell sees both face-neighbors differ by delta at each corner:
    # squared jumps 2 delta^2 at four corners
    expected[1, 1] = np.sqrt(2.0) * delta
    # an edge neighbor sees the bump across one face, at two of its corners
    # (the left neighbor at its BR/TR corners): squared jumps delta^2 at two
    for i, j in ((0, 1), (2, 1), (1, 0), (1, 2)):
        expected[i, j] = delta / np.sqrt(2.0)
    # diagonal neighbors are not compared, so the corner cells stay at 0
    assert np.allclose(acc, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("p, q", [(2, 1), (3, 3)])
def test_face_shared_damping_weights_equal_the_per_corner_formula(p, q):
    # each corner's two squared jumps against its edge neighbours, taken with
    # np.roll over the whole periodic mesh and summed corner by corner in the
    # order BL, BR, TL, TR, at every order; the kernel squares each jump once
    # per face and takes u's orders 1..p-1 only
    rng = np.random.default_rng(17 + p + q)
    m = cartesian_mesh_2d(0.0, 0.7, 0.0, 0.9, 9, 7)
    hx, hy, h_d = float(m.hx[0]), float(m.hy[0]), m.h

    def per_corner(coeffs, degree):
        orders = range(degree + 1)
        bl, br, tl, tr = (coeffs @ tab for tab in
                          scheme2d._corner_major_tables(degree, hx, hy, orders))
        total = (bl - np.roll(br, 1, 0)) ** 2 + (bl - np.roll(tl, 1, 1)) ** 2
        total += (br - np.roll(bl, -1, 0)) ** 2 + (br - np.roll(tr, 1, 1)) ** 2
        total += (tl - np.roll(tr, 1, 0)) ** 2 + (tl - np.roll(bl, -1, 1)) ** 2
        total += (tr - np.roll(tl, -1, 0)) ** 2 + (tr - np.roll(br, -1, 1)) ** 2
        roots = np.sqrt(0.25 * total)
        acc = np.zeros((9, 7, degree + 1))
        for k, (r1, r2) in enumerate(scheme2d._alphas(orders)):
            acc[..., r1 + r2] += roots[..., k]
        return acc

    u, v = _random_state_2d(rng, 9, 7, p, q)
    acc_u, acc_v = per_corner(u, p), per_corner(v, q)
    want_u, want_v = np.zeros((9, 7, p + 1)), np.zeros((9, 7, q + 1))
    for l in range(0, p + 1):
        want_u[..., l] = (2.0 * (2 * l + 1) / (2 * p - 1)) * h_d**l / math.factorial(l) * acc_u[..., l]
    for l in range(0, q + 1):
        want_v[..., l] = (2.0 * (2 * l + 1) / (2 * q - 1)) * h_d**(l + 1) / math.factorial(l + 1) * acc_v[..., l]
    sig_u, sig_v = _damping_coeffs(u, v, m, SolverConfig(p=p, q=q))
    assert np.array_equal(sig_u[..., 1:p], want_u[..., 1:p])
    # the weights of orders 0 and p would multiply only zeros: they are not taken
    assert np.all(want_u[..., [0, p]] > 0.0)
    assert np.array_equal(sig_u[..., [0, p]], np.zeros((9, 7, 2)))
    assert np.array_equal(sig_v, want_v)


def test_damping_coeffs_2d_formula_spot_check():
    # q = 1, l = 0, h_d = diag size: quarter-sum of unit squared v jumps = 1
    # at one cell gives sigma_v = 2 * h_d * 1
    m = cartesian_mesh_2d(0.0, 0.3, 0.0, 0.4, 3, 4)
    cfg = SolverConfig(p=2, q=1)
    u = DGField2D(m, 2)
    v = DGField2D(m, 1)
    v.coeffs[1, 1, 0] = 1.0
    sig_u, sig_v = _damping_coeffs(u.coeffs, v.coeffs, m, cfg)
    h_d = m.h
    # bumped cell: each corner has both neighbors differing by 1 -> sq = 2
    # quarter-sum over 4 corners = 2 -> sqrt = sqrt(2)
    assert sig_v[1, 1, 0] == pytest.approx(2.0 * h_d * np.sqrt(2.0), rel=1e-12)
    assert np.max(np.abs(sig_u)) == 0.0


def test_zero_state_zero_rhs_2d():
    m = cartesian_mesh_2d(0, 1, 0, 1, 3, 3)
    cfg = SolverConfig(p=2, q=1, chi=0)
    du, dv = rhs_arrays_2d(np.zeros((3, 3, 6)), np.zeros((3, 3, 3)), m, cfg)
    assert np.all(du == 0.0) and np.all(dv == 0.0)


def test_frozen_state_2d():
    m = cartesian_mesh_2d(-1, 1, -1, 1, 4, 4)
    u = np.zeros((4, 4, 6))
    u[1:3, 1:3, 0] = 1.0
    v = np.zeros((4, 4, 3))
    cfg = SolverConfig(p=2, q=1, chi=0, penalty=False)
    du, dv = rhs_arrays_2d(u, v, m, cfg)
    assert np.max(np.abs(du)) == 0.0 and np.max(np.abs(dv)) == 0.0
    cfg_on = SolverConfig(p=2, q=1, chi=0, penalty=True)
    du_on, _ = rhs_arrays_2d(u, v, m, cfg_on)
    assert np.max(np.abs(du_on)) > 1e-8


def test_chi_rejected_in_2d():
    m = cartesian_mesh_2d(0, 1, 0, 1, 3, 3)
    cfg = SolverConfig(p=2, q=1, chi=1, source=SOURCES["sine_gordon"])
    with pytest.raises(ValueError):
        rhs_arrays_2d(np.zeros((3, 3, 6)), np.zeros((3, 3, 3)), m, cfg)


@pytest.mark.parametrize("fluxname", ["central", "alternating", "sommerfeld"])
def test_oracle_equivalence_2d(fluxname):
    # the oracle takes the damping's vertex jumps at every order and folds
    # every mode, so p > 2 checks that u's dropped orders 0 and p change nothing
    rng = np.random.default_rng({"central": 4, "alternating": 5, "sommerfeld": 6}[fluxname])
    m = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.5, 3, 3)
    flux = {
        "central": FluxParams.central(),
        "alternating": FluxParams.alternating(1),
        "sommerfeld": FluxParams.sommerfeld(1.0),
    }[fluxname]
    for p, q, states in ((2, 1, 3), (3, 2, 1), (3, 3, 1), (4, 2, 1)):
        cfg = SolverConfig(p=p, q=q, flux=flux, chi=0, damping=True, penalty=True)
        for _ in range(states):
            u, v = _random_state_2d(rng, 3, 3, p, q)
            du, dv = rhs_arrays_2d(u, v, m, cfg)
            du_o, dv_o = brute_rhs_2d(u, v, m.xnodes, m.ynodes, p, q,
                                      flux.alpha, flux.tau, flux.beta, 1.0, True, True)
            scale = max(1.0, np.max(np.abs(du_o)), np.max(np.abs(dv_o)))
            assert np.max(np.abs(du - du_o)) <= 1e-10 * scale
            assert np.max(np.abs(dv - dv_o)) <= 1e-10 * scale


def test_oracle_equivalence_2d_with_source():
    rng = np.random.default_rng(9)
    m = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 3, 3)
    src = SOURCES["cubic_4"]
    cfg = SolverConfig(p=2, q=1, flux=FluxParams.alternating(), chi=0, source=src)
    u, v = _random_state_2d(rng, 3, 3, 2, 1, scale=0.5)
    du, dv = rhs_arrays_2d(u, v, m, cfg)
    du_o, dv_o = brute_rhs_2d(u, v, m.xnodes, m.ynodes, 2, 1, 0.0, 0.0, 0.0,
                              1.0, True, True, source=src)
    scale = max(1.0, np.max(np.abs(du_o)), np.max(np.abs(dv_o)))
    assert np.max(np.abs(du - du_o)) <= 1e-10 * scale
    assert np.max(np.abs(dv - dv_o)) <= 1e-10 * scale


@pytest.mark.parametrize("nx, ny", [(1, 5), (6, 1), (2, 2)])
def test_oracle_equivalence_2d_on_thin_meshes(nx, ny):
    # one cell across an axis is its own neighbour on both sides of it; the
    # framed strip wraps it onto itself along x and along y
    rng = np.random.default_rng(11 + nx + 10 * ny)
    m = cartesian_mesh_2d(0.0, 0.8, 0.0, 1.1, nx, ny)
    for flux in (FluxParams(alpha=0.8, tau=0.3, beta=0.7), FluxParams.alternating(0)):
        cfg = SolverConfig(p=2, q=1, flux=flux, chi=0, damping=True, penalty=True,
                           source=SOURCES["cubic_4"])
        u, v = _random_state_2d(rng, nx, ny, 2, 1, scale=0.5)
        du, dv = rhs_arrays_2d(u, v, m, cfg)
        du_o, dv_o = brute_rhs_2d(u, v, m.xnodes, m.ynodes, 2, 1, flux.alpha, flux.tau,
                                  flux.beta, 1.0, True, True, source=cfg.source)
        scale = max(1.0, np.max(np.abs(du_o)), np.max(np.abs(dv_o)))
        assert np.max(np.abs(du - du_o)) <= 1e-10 * scale
        assert np.max(np.abs(dv - dv_o)) <= 1e-10 * scale


def _mass2(degree):
    """Reference mass of each mode of the total-degree set."""
    modes, mass = total_degree_modes(degree), mass_diagonal(degree)
    return mass[modes[:, 0]] * mass[modes[:, 1]]


def _de_dt_2d(u, v, m, cfg):
    """d/dt E = 2 integral(grad u . grad u_t + v v_t) of the RHS at (u, v), and the sum
    of its terms' magnitudes, the scale of its round-off."""
    du, dv = rhs_arrays_2d(u, v, m, cfg)
    hx, hy = float(m.hx[0]), float(m.hy[0])
    term_u = u * (du @ gradient_gram(cfg.p, hx, hy))
    term_v = 0.25 * hx * hy * _mass2(cfg.q) * v * dv
    return (2.0 * (np.sum(term_u) + np.sum(term_v)),
            2.0 * (np.sum(np.abs(term_u)) + np.sum(np.abs(term_v))))


def test_energy_dissipation_2d_random_states():
    rng = np.random.default_rng(31)
    m = cartesian_mesh_2d(0, 1, 0, 1, 4, 4)

    def de_dt(u, v, cfg):
        return _de_dt_2d(u, v, m, cfg)[0]

    for _ in range(6):
        u, v = _random_state_2d(rng, 4, 4, 2, 1)
        for flux in (FluxParams.central(), FluxParams.alternating()):
            cfg = SolverConfig(p=2, q=1, chi=0, damping=False, penalty=False, flux=flux)
            assert abs(de_dt(u, v, cfg)) < 1e-10
        cfg_s = SolverConfig(p=2, q=1, chi=0, damping=False, penalty=False,
                             flux=FluxParams.sommerfeld(1.0))
        assert de_dt(u, v, cfg_s) <= 1e-11
        cfg_d = SolverConfig(p=2, q=1, chi=0, damping=True, penalty=False)
        assert de_dt(u, v, cfg_d) <= 1e-11
        # the penalty's share has either sign; it is its closed form
        cfg_p = SolverConfig(p=2, q=1, chi=0, damping=False, penalty=True)
        (on, scale_on), (off, scale_off) = (_de_dt_2d(u, v, m, c)
                                            for c in (cfg_p, replace(cfg_p, penalty=False)))
        assert abs(on - off - _penalty_share_2d(u, v, m, cfg_p)) <= 1e-14 * (scale_on + scale_off)


def _face_jumps(coeffs, degree, m, axis, order):
    """[[d_n^order]] of a field, upper minus lower, on every face normal to axis (periodic),
    at five Gauss nodes of each face, exact for squares of degree 8, and their weights."""
    modes = total_degree_modes(degree)
    sides = (float(m.hx[0]), float(m.hy[0]))
    h_n, h_t = sides[axis], sides[1 - axis]
    rule = gauss_rule(5)
    along = vandermonde(rule.nodes, degree)[:, modes[:, 1 - axis]]
    hi, lo = ((2.0 / h_n) ** order * vandermonde(side, degree, order)[modes[:, axis]] * along
              for side in (1.0, -1.0))
    return np.roll(coeffs, -1, axis=axis) @ lo.T - coeffs @ hi.T, 0.5 * h_t * rule.weights


def _flux_share_2d(u, v, m, cfg):
    """-2 times the face integral of tau [[d_n u]]^2 + beta [[v]]^2."""
    total = 0.0
    for axis in (0, 1):
        (ju, w), (jv, _) = _face_jumps(u, cfg.p, m, axis, 1), _face_jumps(v, cfg.q, m, axis, 0)
        total += np.sum((cfg.flux.tau * ju**2 + cfg.flux.beta * jv**2) * w)
    return -2.0 * total


def _penalty_share_2d(u, v, m, cfg):
    """-2 (c/h^2) times the face integral of [[u]] [[u - u_bar]], h the cell diagonal and
    u_bar each cell's mean."""
    off_mean = u.copy()
    off_mean[..., 0] = 0.0
    total = 0.0
    for axis in (0, 1):
        (ju, w), (jr, _) = (_face_jumps(c, cfg.p, m, axis, 0) for c in (u, off_mean))
        total += np.sum(ju * jr * w)
    return -2.0 * cfg.penalty_coefficient / m.h**2 * total


def _damping_share_2d(u, v, m, cfg):
    """-2 sum of (w/h) times each mode of u_x, u_y and v squared times its mass."""
    wrap = ((1, 1), (1, 1), (0, 0))
    sigma_u, sigma_v = (s[:, 1:-1] for s in damping_coeffs_2d(
        np.pad(u, wrap, mode="wrap"), np.pad(v, wrap, mode="wrap"), m, cfg))
    hx, hy = float(m.hx[0]), float(m.hy[0])
    dx, dy = _dxy_matrices(cfg.p)
    grad2 = ((2.0 / hx) * (u @ dx.T)) ** 2 + ((2.0 / hy) * (u @ dy.T)) ** 2
    total = 0.0
    for sigma, squares, degree, first in ((sigma_u, grad2, cfg.p, 1), (sigma_v, v**2, cfg.q, 0)):
        rate = np.stack([sigma[..., first:k + 1].sum(axis=-1) * (k > 0)
                         for k in total_degree_modes(degree).sum(axis=1)], axis=-1) / m.h
        total += np.sum(rate * squares * 0.25 * hx * hy * _mass2(degree))
    return -2.0 * total


@pytest.mark.parametrize("p, q", [(2, 1), (3, 2), (3, 3), (4, 2)])
def test_energy_identity_closed_forms_2d(p, q):
    # as in 1D, on cells with hx != hy: the central flux and both alternating sides
    # conserve the energy without damping and penalty, and the Sommerfeld flux, the
    # penalty and the damping each add their closed form, now a face or cell integral
    rng = np.random.default_rng(10 * p + q)
    m = cartesian_mesh_2d(0.0, 0.7, 0.0, 0.9, 6, 5)
    base = SolverConfig(p=p, q=q, chi=0, damping=False, penalty=False)
    for trial in range(4):
        u, v = _random_state_2d(rng, 6, 5, p, q)
        for flux in (FluxParams.central(), FluxParams.alternating(0), FluxParams.alternating(1)):
            rate, scale = _de_dt_2d(u, v, m, replace(base, flux=flux))
            assert abs(rate) <= 1e-14 * scale, (flux, trial)
        off, scale_off = _de_dt_2d(u, v, m, base)
        for cfg, share in ((replace(base, flux=FluxParams.sommerfeld(2.0)), _flux_share_2d),
                           (replace(base, penalty=True), _penalty_share_2d),
                           (replace(base, damping=True), _damping_share_2d)):
            on, scale_on = _de_dt_2d(u, v, m, cfg)
            assert abs(on - off - share(u, v, m, cfg)) <= 1e-14 * (scale_on + scale_off), \
                (share.__name__, trial)


def test_reduction_to_1d_on_extruded_data():
    # y-constant data on an Ny=1 periodic strip reproduces the 1D update:
    # exact for alpha = 1/2 fluxes with damping off; the penalty coefficient
    # is rescaled because the 2D formula divides by the global diagonal size
    rng = np.random.default_rng(12)
    n = 6
    m1 = uniform_mesh_1d(0.0, 1.0, n)
    hy = 0.3
    m2 = cartesian_mesh_2d(0.0, 1.0, 0.0, hy, n, 1)
    u1 = rng.standard_normal((n, 3))
    v1 = rng.standard_normal((n, 2))

    modes = total_degree_modes(2)
    u2 = np.zeros((n, 1, 6))
    v2 = np.zeros((n, 1, 3))
    for a, (m1d, m2d) in enumerate(modes):
        if m2d == 0 and m1d <= 2:
            u2[:, 0, a] = u1[:, m1d]
    for a, (m1d, m2d) in enumerate(total_degree_modes(1)):
        if m2d == 0 and m1d <= 1:
            v2[:, 0, a] = v1[:, m1d]

    for flux in (FluxParams.central(), FluxParams.sommerfeld(1.2)):
        c1 = 1.0
        c2 = c1 * (m2.h / m1.h) ** 2
        cfg1 = SolverConfig(p=2, q=1, damping=False, penalty=True,
                            penalty_coefficient=c1, flux=flux)
        cfg2 = SolverConfig(p=2, q=1, chi=0, damping=False, penalty=True,
                            penalty_coefficient=c2, flux=flux)
        from wavedg.scheme1d import rhs_arrays_1d

        du1, dv1 = rhs_arrays_1d(u1, v1, m1, cfg1)
        du2, dv2 = rhs_arrays_2d(u2, v2, m2, cfg2)
        for a, (m1d, m2d) in enumerate(modes):
            if m2d == 0 and m1d <= 2:
                assert np.allclose(du2[:, 0, a], du1[:, m1d], atol=1e-11)
            else:
                assert np.allclose(du2[:, 0, a], 0.0, atol=1e-11)
        for a, (m1d, m2d) in enumerate(total_degree_modes(1)):
            if m2d == 0:
                assert np.allclose(dv2[:, 0, a], dv1[:, m1d], atol=1e-11)
            else:
                assert np.allclose(dv2[:, 0, a], 0.0, atol=1e-11)


def test_rotation_symmetry_of_damping():
    # rotating the data by 90 degrees permutes the damping weights
    rng = np.random.default_rng(14)
    n = 4
    m = cartesian_mesh_2d(0, 1, 0, 1, n, n)
    cfg = SolverConfig(p=2, q=1, chi=0)
    u = rng.standard_normal((n, n, 6))
    v = rng.standard_normal((n, n, 3))
    modes2 = total_degree_modes(2)
    modes1 = total_degree_modes(1)

    def rotate(coeffs, modes):
        # (x, y) -> (y, -x): cell (i, j) -> (n-1-j, i); P_m(-t) = (-1)^m P_m(t)
        out = np.zeros_like(coeffs)
        idx = {tuple(mm): a for a, mm in enumerate(modes)}
        for a, (mx, my) in enumerate(modes):
            target = idx[(my, mx)]
            sign = (-1.0) ** my
            rot = np.transpose(coeffs[..., a])[::-1, :]
            out[..., target] += sign * rot
        return out

    su, sv = _damping_coeffs(u, v, m, cfg)
    su_r, sv_r = _damping_coeffs(rotate(u, modes2), rotate(v, modes1), m, cfg)
    assert np.allclose(np.transpose(su, (1, 0, 2))[::-1], su_r, atol=1e-11)
    assert np.allclose(np.transpose(sv, (1, 0, 2))[::-1], sv_r, atol=1e-11)


def test_rhs_arrays_2d_shapes_from_projected_fields():
    m = cartesian_mesh_2d(0, 1, 0, 1, 3, 3)
    u = DGField2D.project(lambda x, y: np.sin(2 * np.pi * x) * 0 + 1.0, m, 2)
    v = DGField2D.project(lambda x, y: 0 * x, m, 1)
    cfg = SolverConfig(p=2, q=1, chi=0)
    du, dv = rhs_arrays_2d(u.coeffs, v.coeffs, m, cfg)
    assert du.shape == (3, 3, 6)
    assert dv.shape == (3, 3, 3)



def _whole_and_strips(monkeypatch, u, v, mesh, cfg, cells_per_strip):
    """rhs_arrays_2d as one pass over the mesh and in strips of that size."""
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 10**9)
    whole = rhs_arrays_2d(u, v, mesh, cfg)
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", cells_per_strip)
    return whole, rhs_arrays_2d(u, v, mesh, cfg)


@pytest.mark.parametrize("fluxname", sorted(FLUX_CASES))
@pytest.mark.parametrize("penalty", [False, True])
@pytest.mark.parametrize("source", [None, "cubic_4"])
def test_strips_match_whole_mesh_bit_for_bit(monkeypatch, fluxname, penalty, source):
    # 23 rows in strips of at most 96 // 16 = 6: heights 5, 6, 6, 6
    rng = np.random.default_rng(41)
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.5, 23, 16)
    cfg = SolverConfig(p=2, q=1, chi=0, flux=FLUX_CASES[fluxname], penalty=penalty,
                       source=SOURCES[source] if source else None)
    u, v = _random_state_2d(rng, 23, 16, 2, 1, scale=0.5)
    (du, dv), (du_s, dv_s) = _whole_and_strips(monkeypatch, u, v, mesh, cfg, 96)
    assert np.array_equal(du, du_s) and np.array_equal(dv, dv_s)


@pytest.mark.parametrize("fluxname", ["alternating1", "generic"])
def test_strips_match_whole_mesh_at_the_built_in_strip_size(monkeypatch, fluxname):
    # one row of 64 more than a strip holds: the mesh is cut into 2 strips.
    # p = 3 with a source contracts 36 quadrature values per cell, a product
    # that BLAS rounds differently below a few hundred rows.  On unit cells
    # the source outweighs the face terms, and a last bit of it shows in dv.
    rng = np.random.default_rng(43)
    nx = scheme2d.CELLS_PER_STRIP // 64 + 1
    assert len(row_blocks(nx, 64, scheme2d.CELLS_PER_STRIP)) >= 2
    mesh = cartesian_mesh_2d(0.0, nx, 0.0, 64.0, nx, 64)
    cfg = SolverConfig(p=3, q=1, chi=0, flux=FLUX_CASES[fluxname], source=SOURCES["cubic_4"])
    for _ in range(6):
        u, v = _random_state_2d(rng, nx, 64, 3, 1, scale=2.0)
        (du, dv), (du_s, dv_s) = _whole_and_strips(monkeypatch, u, v, mesh, cfg,
                                                   scheme2d.CELLS_PER_STRIP)
        assert np.array_equal(du, du_s) and np.array_equal(dv, dv_s)


def test_strip_workers_at_the_built_in_strip_size_give_the_one_strip_bytes(monkeypatch):
    # p = q = 3: u's vertex jumps take orders 1..2 and v's 0..3, side by side
    # in one pass.  2 * (CELLS_PER_STRIP // 64) + 1 rows of 64 are 3 strips
    # on 2 workers, against one strip in this thread; on cells of about unit
    # size the source's last bits show, as in the test above.
    rng = np.random.default_rng(83)
    nx = 2 * (scheme2d.CELLS_PER_STRIP // 64) + 1
    assert len(row_blocks(nx, 64, scheme2d.CELLS_PER_STRIP)) >= 3
    mesh = cartesian_mesh_2d(0.0, nx, 0.0, 0.8 * 64, nx, 64)
    cfg = SolverConfig(p=3, q=3, chi=0, flux=FLUX_CASES["generic"], source=SOURCES["cubic_4"])
    u, v = _random_state_2d(rng, nx, 64, 3, 3, scale=2.0)
    with ThreadPoolExecutor(2) as pool:
        got = rhs_arrays_2d(u, v, mesh, cfg, pool=pool)
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 10**9)
    want = rhs_arrays_2d(u, v, mesh, cfg)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_a_strip_takes_its_source_in_blocks_of_at_most_source_cells():
    # 64 rows of 320 cells: strips of 32 rows, each taking its source in two
    # blocks of 16 rows, 5,120 cells
    calls = []

    def g(x):
        calls.append(x.shape[:2])
        return SOURCES["cubic_4"].g(x)

    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 64, 320)
    cfg = SolverConfig(p=2, q=1, chi=0, source=SourceTerm("recorded", g, g, 0.0))
    u, v = _random_state_2d(np.random.default_rng(89), 64, 320, 2, 1)
    rhs_arrays_2d(u, v, mesh, cfg)
    assert len(row_blocks(64, 320, scheme2d.CELLS_PER_STRIP)) == 2
    assert calls == [(16, 320)] * 4 and 16 * 320 <= scheme2d.SOURCE_CELLS


def test_rhs_commutes_with_periodic_shift_along_x(monkeypatch):
    # strips of 6 rows, shifted by 7: every cell lands in another strip position
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    rng = np.random.default_rng(47)
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 23, 16)
    for flux in (FluxParams.alternating(0), FluxParams.sommerfeld(1.0)):
        cfg = SolverConfig(p=2, q=1, chi=0, flux=flux, source=SOURCES["cubic_4"])
        u, v = _random_state_2d(rng, 23, 16, 2, 1, scale=0.5)
        du, dv = rhs_arrays_2d(u, v, mesh, cfg)
        du_r, dv_r = rhs_arrays_2d(np.roll(u, 7, axis=0), np.roll(v, 7, axis=0), mesh, cfg)
        assert np.array_equal(du_r, np.roll(du, 7, axis=0))
        assert np.array_equal(dv_r, np.roll(dv, 7, axis=0))


def test_rhs_commutes_with_periodic_shift_along_y(monkeypatch):
    # shifted by 5 of 16 columns: every cell crosses the frame's wrapped columns
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    rng = np.random.default_rng(49)
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 23, 16)
    for flux in (FluxParams.alternating(0), FluxParams.sommerfeld(1.0)):
        cfg = SolverConfig(p=2, q=1, chi=0, flux=flux, source=SOURCES["cubic_4"])
        u, v = _random_state_2d(rng, 23, 16, 2, 1, scale=0.5)
        du, dv = rhs_arrays_2d(u, v, mesh, cfg)
        du_r, dv_r = rhs_arrays_2d(np.roll(u, 5, axis=1), np.roll(v, 5, axis=1), mesh, cfg)
        assert np.array_equal(du_r, np.roll(du, 5, axis=1))
        assert np.array_equal(dv_r, np.roll(dv, 5, axis=1))


@pytest.mark.parametrize("cells_per_strip", [96, 10**9])
def test_successive_rhs_results_do_not_alias(monkeypatch, cells_per_strip):
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", cells_per_strip)
    rng = np.random.default_rng(53)
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 23, 16)
    cfg = SolverConfig(p=2, q=1, chi=0)
    u1, v1 = _random_state_2d(rng, 23, 16, 2, 1)
    u2, v2 = _random_state_2d(rng, 23, 16, 2, 1)
    with ThreadPoolExecutor(2) as pool:
        for kwargs in ({}, {"pool": pool}):
            first = rhs_arrays_2d(u1, v1, mesh, cfg, **kwargs)
            kept = [a.copy() for a in first]
            second = rhs_arrays_2d(u2, v2, mesh, cfg, **kwargs)
            for a in first:
                for b in (*second, u1, v1, u2, v2):
                    assert not np.shares_memory(a, b)
            assert all(np.array_equal(a, b) for a, b in zip(first, kept))


def test_rhs_writes_into_supplied_arrays(monkeypatch):
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    rng = np.random.default_rng(59)
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 23, 16)
    cfg = SolverConfig(p=2, q=1, chi=0)
    u, v = _random_state_2d(rng, 23, 16, 2, 1)
    du, dv = rhs_arrays_2d(u, v, mesh, cfg)
    with ThreadPoolExecutor(2) as executor:
        for pool in (None, executor):
            out = (np.full(u.shape, np.nan), np.full(v.shape, np.nan))
            got = rhs_arrays_2d(u, v, mesh, cfg, out=out, pool=pool)
            assert got[0] is out[0] and got[1] is out[1]
            assert np.array_equal(out[0], du) and np.array_equal(out[1], dv)


@pytest.mark.parametrize("fluxname", sorted(FLUX_CASES))
@pytest.mark.parametrize("penalty", [False, True])
@pytest.mark.parametrize("source", [None, "cubic_4"])
def test_strip_workers_give_the_serial_bytes(monkeypatch, fluxname, penalty, source):
    # 23 rows in 4 strips of at most 96 // 16 = 6 rows; 8 CPUs still make 4 workers
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    made = _recording_executors(monkeypatch)
    rng = np.random.default_rng(61)
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.5, 23, 16)
    cfg = SolverConfig(p=2, q=1, chi=0, flux=FLUX_CASES[fluxname], penalty=penalty,
                       source=SOURCES[source] if source else None)
    for _ in range(2):
        u, v = _random_state_2d(rng, 23, 16, 2, 1, scale=0.5)
        du, dv = rhs_arrays_2d(u, v, mesh, cfg)
        for cpus, workers in ((1, 1), (2, 2), (3, 3), (8, 4)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            made.clear()
            with scheme2d.stepping(mesh, cfg) as rhs:
                assert made == ([workers] if workers > 1 else [])
                got = rhs((u, v))
                assert np.array_equal(got[0], du) and np.array_equal(got[1], dv)
        # more workers than strips: the idle ones get no strip
        with ThreadPoolExecutor(6) as pool:
            got = rhs_arrays_2d(u, v, mesh, cfg, pool=pool)
            assert np.array_equal(got[0], du) and np.array_equal(got[1], dv)


@pytest.mark.parametrize("cpus, n", [(4, 6), (1, 23)])
def test_one_strip_or_one_cpu_starts_no_thread(monkeypatch, cpus, n):
    # 6 x 16 cells are one strip of 96; 23 x 16 are four
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, n, 16)
    u, v = _random_state_2d(np.random.default_rng(73), n, 16, 2, 1)
    made = _recording_executors(monkeypatch)
    before = threading.active_count()
    with scheme2d.stepping(mesh, SolverConfig(p=2, q=1, chi=0)) as rhs:
        rhs((u, v))
        assert made == [] and threading.active_count() == before


def test_build_starts_no_executor_and_stepping_one_for_its_block(monkeypatch):
    # 23 x 23 cells are six strips of at most 4 rows; two CPUs make two workers
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    made = _recording_executors(monkeypatch)
    before = threading.active_count()
    disc = Discretization2D.build(EXAMPLES["ex8"], 23)
    assert made == []
    u, v = _random_state_2d(np.random.default_rng(79), 23, 23, 2, 1)
    with scheme2d.stepping(disc.mesh, SolverConfig(p=2, q=1, chi=0)) as rhs:
        rhs((u, v))
        assert made == [2] and threading.active_count() == before + 2
    assert made == [2] and threading.active_count() == before


def test_each_kernels_stepping_gives_its_rhs_bytes(monkeypatch):
    # 23 x 16 cells are four strips, run on two workers
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rng = np.random.default_rng(83)
    cfg = SolverConfig(p=2, q=1, chi=0, source=SOURCES["cubic_4"])
    mesh1 = uniform_mesh_1d(0.0, 1.0, 16)
    mesh2 = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.5, 23, 16)
    for kernel, mesh, rhs_arrays, state in (
            (scheme1d, mesh1, scheme1d.rhs_arrays_1d,
             (rng.standard_normal((16, 3)), rng.standard_normal((16, 2)))),
            (scheme2d, mesh2, rhs_arrays_2d, _random_state_2d(rng, 23, 16, 2, 1))):
        with kernel.stepping(mesh, cfg) as rhs:
            for _ in range(2):  # each call writes the same bytes, over the last one's in 2D
                du, dv = rhs_arrays(*state, mesh, cfg)
                got = rhs(state)
                assert np.array_equal(got[0], du) and np.array_equal(got[1], dv)
                state = (state[0] + 0.25, state[1] - 0.5)


def test_a_failing_strip_is_raised_after_every_worker_is_done(monkeypatch):
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", 96)
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 23, 16)
    rng = np.random.default_rng(67)
    u, v = _random_state_2d(rng, 23, 16, 2, 1)
    done = []

    def g(x):
        if x.shape[0] == 5:  # the first strip, 5 rows (the source runs on a strip's own rows)
            raise FloatingPointError("bad strip")
        time.sleep(0.05)  # the other worker is still busy when the first one fails
        done.append(x.shape[0])
        return x

    cfg = SolverConfig(p=2, q=1, chi=0, source=SourceTerm("failing", g, g, 0.0))
    with ThreadPoolExecutor(2) as pool:
        with pytest.raises(FloatingPointError, match="bad strip"):
            rhs_arrays_2d(u, v, mesh, cfg, pool=pool)
        # every other strip ran to the end before the error came out
        assert done.count(6) == 3
