"""2D semi-discrete assembly: fluxes, vertex jumps, oracle equivalence, reduction."""
import numpy as np
import pytest

from oracles import brute_rhs_2d, fluxes_2d
from wavedg.field import DGField2D, n_modes, total_degree_modes
from wavedg.mesh import cartesian_mesh_2d, uniform_mesh_1d
from wavedg.scheme1d import SOURCES, FluxParams, SolverConfig, numerical_fluxes
from wavedg import scheme2d
from wavedg.scheme2d import StripWorkspace, damping_coeffs_2d, rhs_arrays_2d


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


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("fluxname", sorted(FLUX_CASES))
def test_fast_fluxes_match_the_reference_flux(fluxname, axis):
    # _fast_fluxes reads face i+1/2's plus side as cell i+1's own lower-side
    # traces; the reference takes both sides of every face explicitly
    rng = np.random.default_rng(61 + axis)
    fp = FLUX_CASES[fluxname]
    v_minus, v_own, dnu_minus, dnu_own = rng.standard_normal((4, 5, 4, 3))
    work = StripWorkspace()
    vhat, gradn = scheme2d._fast_fluxes(v_minus, v_own, dnu_minus, dnu_own, fp, axis,
                                        lambda name: work.take(name, v_own.shape))
    vhat_ref, gradn_ref = fluxes_2d(v_minus, np.roll(v_own, -1, axis),
                                    dnu_minus, np.roll(dnu_own, -1, axis), fp)
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
    # two cells along x: face 0's plus side is cell 1's own lower-side trace
    work = StripWorkspace()
    vhat, gradn = scheme2d._fast_fluxes(
        np.full(2, v_minus), np.full(2, v_plus), np.full(2, d_minus), np.full(2, d_plus),
        fp, 0, lambda name: work.take(name, (2,)))
    want_2d = (v_plus, d_minus) if side == 0 else (v_minus, d_plus)
    assert vhat.tolist() == [want_2d[0]] * 2 and gradn.tolist() == [want_2d[1]] * 2


def _vertex_jump_acc(f: DGField2D, max_order: int) -> np.ndarray:
    return scheme2d._vertex_jump_acc(f.coeffs, f.degree, max_order,
                                     float(f.mesh.hx[0]), float(f.mesh.hy[0]))


def test_vertex_jumps_single_polynomial():
    m = cartesian_mesh_2d(0, 1, 0, 1, 3, 3)
    f = DGField2D.project(lambda x, y: 1.7 + 0 * x * y, m, 2)
    assert np.max(np.abs(_vertex_jump_acc(f, 2))) < 1e-10


def test_vertex_jumps_checkerboard():
    m = cartesian_mesh_2d(0, 1, 0, 1, 4, 4)
    f = DGField2D(m, 2)
    ix, iy = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    f.coeffs[..., 0] = (ix + iy) % 2
    acc = _vertex_jump_acc(f, 2)
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
    acc = _vertex_jump_acc(f, 0)[..., 0]
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


def test_damping_coeffs_2d_formula_spot_check():
    # q = 1, l = 0, h_d = diag size: quarter-sum of unit squared v jumps = 1
    # at one cell gives sigma_v = 2 * h_d * 1
    m = cartesian_mesh_2d(0.0, 0.3, 0.0, 0.4, 3, 4)
    cfg = SolverConfig(p=2, q=1)
    u = DGField2D(m, 2)
    v = DGField2D(m, 1)
    v.coeffs[1, 1, 0] = 1.0
    sig_u, sig_v = damping_coeffs_2d(u.coeffs, v.coeffs, m, cfg)
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
    rng = np.random.default_rng({"central": 4, "alternating": 5, "sommerfeld": 6}[fluxname])
    m = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.5, 3, 3)
    flux = {
        "central": FluxParams.central(),
        "alternating": FluxParams.alternating(1),
        "sommerfeld": FluxParams.sommerfeld(1.0),
    }[fluxname]
    cfg = SolverConfig(p=2, q=1, flux=flux, chi=0, damping=True, penalty=True)
    for _ in range(3):
        u, v = _random_state_2d(rng, 3, 3, 2, 1)
        du, dv = rhs_arrays_2d(u, v, m, cfg)
        du_o, dv_o = brute_rhs_2d(u, v, m.xnodes, m.ynodes, 2, 1,
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


def test_energy_dissipation_2d_random_states():
    from wavedg.diagnostics import energy

    rng = np.random.default_rng(31)
    m = cartesian_mesh_2d(0, 1, 0, 1, 4, 4)

    def de_dt(u, v, cfg):
        du, dv = rhs_arrays_2d(u, v, m, cfg)
        from wavedg.basis import mass_diagonal
        from wavedg.scheme2d import gradient_gram

        g = gradient_gram(2, float(m.hx[0]), float(m.hy[0]))
        term_u = np.einsum("xya,ab,xyb->", u, g, du)
        modes_q = total_degree_modes(1)
        mq = mass_diagonal(1)
        w = mq[modes_q[:, 0]] * mq[modes_q[:, 1]]
        vol = 0.25 * float(m.hx[0]) * float(m.hy[0])
        term_v = vol * np.sum(w[None, None, :] * v * dv)
        return 2.0 * (term_u + term_v)

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
        cfg_p = SolverConfig(p=2, q=1, chi=0, damping=False, penalty=True)
        assert de_dt(u, v, cfg_p) <= 1e-11


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

    su, sv = damping_coeffs_2d(u, v, m, cfg)
    su_r, sv_r = damping_coeffs_2d(rotate(u, modes2), rotate(v, modes1), m, cfg)
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
    # p = 3 with a source contracts 36 quadrature values per cell, a product
    # that BLAS rounds differently below a few hundred rows.  81 rows of 64
    # are cut into strips of 40 and 41 rows, not 80 and 1; with the 1-row
    # strip about half of these states differ in the last bit.
    rng = np.random.default_rng(43)
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 81, 64)
    cfg = SolverConfig(p=3, q=1, chi=0, flux=FLUX_CASES[fluxname], source=SOURCES["cubic_4"])
    for _ in range(6):
        u, v = _random_state_2d(rng, 81, 64, 3, 1, scale=2.0)
        (du, dv), (du_s, dv_s) = _whole_and_strips(monkeypatch, u, v, mesh, cfg,
                                                   scheme2d.CELLS_PER_STRIP)
        assert np.array_equal(du, du_s) and np.array_equal(dv, dv_s)


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


@pytest.mark.parametrize("cells_per_strip", [96, 10**9])
def test_successive_rhs_results_do_not_alias(monkeypatch, cells_per_strip):
    monkeypatch.setattr(scheme2d, "CELLS_PER_STRIP", cells_per_strip)
    rng = np.random.default_rng(53)
    mesh = cartesian_mesh_2d(0.0, 1.0, 0.0, 1.0, 23, 16)
    cfg = SolverConfig(p=2, q=1, chi=0)
    work = StripWorkspace()
    u1, v1 = _random_state_2d(rng, 23, 16, 2, 1)
    u2, v2 = _random_state_2d(rng, 23, 16, 2, 1)
    for kwargs in ({}, {"work": work}):
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
    out = (np.full(u.shape, np.nan), np.full(v.shape, np.nan))
    got = rhs_arrays_2d(u, v, mesh, cfg, out=out)
    assert got[0] is out[0] and got[1] is out[1]
    du, dv = rhs_arrays_2d(u, v, mesh, cfg)
    assert np.array_equal(out[0], du) and np.array_equal(out[1], dv)
