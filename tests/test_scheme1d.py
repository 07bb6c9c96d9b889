"""1D semi-discrete assembly: fluxes, damping, penalty, oracle equivalence."""
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from oracles import brute_rhs_1d
from wavedg.diagnostics import energy, gradient_l2_error, l2_error
from wavedg.basis import derivative_matrix, endpoint_values, mass_diagonal
from wavedg.field import DGField1D, n_modes, total_degree_modes
from wavedg.mesh import perturb_mesh_1d, uniform_mesh_1d
from wavedg.scheme1d import (
    SOURCES,
    FluxParams,
    SolverConfig,
    SourceTerm,
    _traces,
    damping_factors,
    damping_sums,
    damping_weights,
    flux_from_name,
    numerical_fluxes,
    rhs_arrays_1d,
)


def _random_state(rng, n, p, q, scale=1.0):
    return scale * rng.standard_normal((n, p + 1)), scale * rng.standard_normal((n, q + 1))


def _jumps(f: DGField1D) -> np.ndarray:
    """plus - minus of every derivative of f at every interface, as the RHS forms them."""
    minus, plus = _traces(f.coeffs, f.mesh, endpoint_values(f.degree, f.degree))
    return plus - minus


def _damping(u: DGField1D, v: DGField1D, cfg: SolverConfig):
    """damping_weights from the fields' interface jumps, as the RHS takes them."""
    return damping_weights(_jumps(u), _jumps(v), u.mesh.widths, cfg)


def test_flux_examples():
    # continuous traces reproduce the point values for any parameters
    for fp in (FluxParams.central(), FluxParams.alternating(), FluxParams.sommerfeld(2.0)):
        vhat, uxhat = numerical_fluxes(1.3, 1.3, -0.4, -0.4, fp)
        assert vhat == pytest.approx(1.3) and uxhat == pytest.approx(-0.4)
    vhat, uxhat = numerical_fluxes(0.0, 1.0, 0.0, 0.0, FluxParams.central())
    assert vhat == pytest.approx(0.5) and uxhat == pytest.approx(0.0)
    vhat, uxhat = numerical_fluxes(0.0, 1.0, 0.0, 0.0, FluxParams.sommerfeld(1.0))
    assert vhat == pytest.approx(0.5) and uxhat == pytest.approx(0.5)


@pytest.mark.parametrize("mirrored", [False, True])
def test_a_one_sided_vhat_is_that_side_itself(mirrored):
    # the 2D kernel skips a face's correction vhat - v where vhat is that side's own
    # trace; it calls the flux with the weighting mirrored, FluxParams(1 - alpha, tau, beta)
    rng = np.random.default_rng(3)
    v_m, v_p, ux_m, ux_p = rng.standard_normal((4, 9))

    def vhat_of(fp):
        if mirrored:
            fp = FluxParams(1.0 - fp.alpha, fp.tau, fp.beta)
        return numerical_fluxes(v_m, v_p, ux_m, ux_p, fp)[0], fp.alpha

    for side in (0, 1):
        vhat, alpha = vhat_of(FluxParams.alternating(side))
        assert vhat is (v_p if alpha == 1.0 else v_m)
    for fp in (FluxParams.central(), FluxParams.sommerfeld(2.0), FluxParams(0.0, tau=0.3),
               FluxParams(1.0, tau=0.3)):
        vhat, _ = vhat_of(fp)
        assert not (np.shares_memory(vhat, v_m) or np.shares_memory(vhat, v_p)), fp


def test_flux_parameter_validation():
    with pytest.raises(ValueError):
        FluxParams(alpha=1.5)
    with pytest.raises(ValueError):
        FluxParams(tau=-1.0)
    with pytest.raises(ValueError):
        FluxParams.sommerfeld(0.0)
    # NaN and the infinities are rejected at construction, naming the key
    with pytest.raises(ValueError, match="'tau'"):
        FluxParams(tau=math.nan)
    for speed in (math.inf, math.nan):
        with pytest.raises(ValueError, match="'sommerfeld_speed'"):
            FluxParams.sommerfeld(speed)
    # speed and side are checked whichever flux is named
    with pytest.raises(ValueError, match="'sommerfeld_speed'"):
        flux_from_name("a", -1.0, 0)
    with pytest.raises(ValueError, match="'alternating_side'"):
        flux_from_name("s", 1.0, 7)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(p=1, q=1)
    with pytest.raises(ValueError):
        SolverConfig(p=2, q=0)
    with pytest.raises(ValueError):
        SolverConfig(p=2, q=3)  # q > p
    with pytest.raises(ValueError):
        SolverConfig(p=5, q=2)  # q < p - 2
    for coef in (math.inf, math.nan):
        with pytest.raises(ValueError, match="'penalty_coefficient'"):
            SolverConfig(p=2, q=1, penalty_coefficient=coef)
    SolverConfig(p=2, q=2)
    SolverConfig(p=4, q=2)


def test_damping_coefficient_values():
    # direct formula spot checks: p=2, h=0.1, unit first-derivative jumps
    m = uniform_mesh_1d(0.0, 0.2, 2)
    cfg = SolverConfig(p=2, q=1)
    u = DGField1D(m, 2)
    # P_1 slope on cell 0 only: physical slope 2/h * a1
    u.coeffs[0, 1] = 0.05  # u_x = 1 on cell 0, 0 on cell 1
    v = DGField1D(m, 1)
    for_u, _ = _damping(u, v, cfg)
    # both ends of each cell see |[[u_x]]| = 1
    expected = (6.0 / 3.0) * 0.1 * np.sqrt(2.0)
    assert for_u[0, 1] == pytest.approx(expected, rel=1e-12)
    assert for_u[1, 1] == pytest.approx(expected, rel=1e-12)
    # columns 0 and p stay zero under value and u_xx jumps: an order-p weight
    # would only multiply u_x's mode p, which is zero
    u.coeffs[0, 2] = 0.3
    for_u, _ = _damping(u, v, cfg)
    assert for_u.shape == (2, 3) and np.all(for_u[:, [0, 2]] == 0.0) and np.all(for_u[:, 1] > 0)

    # v jump of 2 at a single interface, q=1, l=0, h=0.1
    v2 = DGField1D(m, 1)
    v2.coeffs[0, 0] = 2.0  # jumps of size 2 at both interfaces of the pair
    _, for_v = _damping(u, v2, cfg)
    assert for_v[0, 0] == pytest.approx(2.0 * 0.1 * np.sqrt(8.0), rel=1e-12)


def test_single_interface_v_jump_value():
    # isolate one interface by using a three-cell non-periodic-like setup:
    # with periodic wrap, choose data whose jump is nonzero at one interface only
    m = uniform_mesh_1d(0.0, 0.3, 3)
    cfg = SolverConfig(p=2, q=1)
    u = DGField1D(m, 2)
    v = DGField1D(m, 1, np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 0.0]]))
    # jumps: interface 0 (wrap): 0 - 2 = -2; interface 1: +2; interface 2: 0; interface 3 = wrap of 0
    _, for_v = _damping(u, v, cfg)
    # cell 1 sees jump 2 at its left end only: sigma~ = 2 * 0.1 * 2 = 0.4
    assert for_v[1, 0] == pytest.approx(0.4, rel=1e-12)


def test_smooth_field_damping_vanishes():
    m = uniform_mesh_1d(-1, 1, 8)
    cfg = SolverConfig(p=3, q=2)
    u = DGField1D.project(lambda x: 0 * x + 1.7, m, 3)
    v = DGField1D.project(lambda x: 0 * x - 0.3, m, 2)
    for_u, for_v = _damping(u, v, cfg)
    # derivative jumps of projection roundoff carry (2/h)^l amplification
    assert np.max(np.abs(for_u)) < 1e-12
    assert np.max(np.abs(for_v)) < 1e-12


def test_damping_vanishing_rate_under_refinement():
    # for projections of smooth data the damping weights shrink at rate >= p
    vals = []
    for n in (40, 80):
        m = uniform_mesh_1d(-1, 1, n)
        cfg = SolverConfig(p=2, q=1)
        u = DGField1D.project(lambda x: np.sin(np.pi * x), m, 2)
        v = DGField1D.project(lambda x: np.cos(np.pi * x), m, 1)
        for_u, _ = _damping(u, v, cfg)
        vals.append(np.max(for_u[:, 1:]))
    assert vals[0] / vals[1] > 2.0**2


def test_boundary_closure_values():
    # the closure is _traces' fill of the two boundary ghost sides, chosen by
    # the mesh's boundary kind
    m = uniform_mesh_1d(0, 1, 3, boundary="neumann")
    f = DGField1D.project(lambda x: 0.7 * x, m, 2)
    minus, plus = _traces(f.coeffs, m, endpoint_values(2, 1))
    assert minus[0, 1] == pytest.approx(-0.7, abs=1e-13)
    assert minus[0, 0] == pytest.approx(plus[0, 0], abs=1e-13)
    # value jump at the wall vanishes, so the penalty contribution does too
    assert (plus - minus)[0, 0] == pytest.approx(0.0, abs=1e-13)
    assert plus[-1, 1] == pytest.approx(-0.7, abs=1e-13)
    assert (plus - minus)[-1, 0] == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(ValueError):
        uniform_mesh_1d(0, 1, 3, boundary="dirichlet")


def test_zero_state_gives_zero_rhs():
    m = uniform_mesh_1d(-1, 1, 6)
    cfg = SolverConfig(p=2, q=1)
    du, dv = rhs_arrays_1d(np.zeros((6, 3)), np.zeros((6, 2)), m, cfg)
    assert np.all(du == 0.0) and np.all(dv == 0.0)


def test_frozen_state_piecewise_constant():
    # cell-aligned piecewise constants with zero v: every term of the update
    # vanishes unless the penalty is on
    m = uniform_mesh_1d(-1, 1, 8)
    u = np.zeros((8, 3))
    u[:, 0] = np.where(np.abs(m.centers) < 0.5, 1.0, 0.5)
    v = np.zeros((8, 2))
    off = SolverConfig(p=2, q=1, penalty=False, damping=True)
    du, dv = rhs_arrays_1d(u, v, m, off)
    assert np.max(np.abs(du)) == 0.0
    assert np.max(np.abs(dv)) == 0.0
    on = SolverConfig(p=2, q=1, penalty=True, damping=True)
    du_on, _ = rhs_arrays_1d(u, v, m, on)
    assert np.max(np.abs(du_on)) > 1e-6


def test_linearity_without_source():
    rng = np.random.default_rng(0)
    m = uniform_mesh_1d(0, 1, 5)
    cfg = SolverConfig(p=3, q=2, damping=False, penalty=True, flux=FluxParams.sommerfeld(1.3))
    u1, v1 = _random_state(rng, 5, 3, 2)
    u2, v2 = _random_state(rng, 5, 3, 2)
    a, b = 0.37, -1.21
    du1, dv1 = rhs_arrays_1d(u1, v1, m, cfg)
    du2, dv2 = rhs_arrays_1d(u2, v2, m, cfg)
    du, dv = rhs_arrays_1d(a * u1 + b * u2, a * v1 + b * v2, m, cfg)
    assert np.allclose(du, a * du1 + b * du2, atol=1e-12)
    assert np.allclose(dv, a * dv1 + b * dv2, atol=1e-12)


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2)])
@pytest.mark.parametrize("fluxname", ["central", "alternating", "sommerfeld"])
def test_oracle_equivalence_linear(p, q, fluxname):
    rng = np.random.default_rng({"central": 1, "alternating": 2, "sommerfeld": 3}[fluxname] + 10 * p)
    m = uniform_mesh_1d(0.0, 1.0, 6)
    flux = {
        "central": FluxParams.central(),
        "alternating": FluxParams.alternating(),
        "sommerfeld": FluxParams.sommerfeld(1.0),
    }[fluxname]
    cfg = SolverConfig(p=p, q=q, flux=flux, damping=True, penalty=True)
    for _ in range(5):
        u, v = _random_state(rng, 6, p, q)
        du, dv = rhs_arrays_1d(u, v, m, cfg)
        du_o, dv_o = brute_rhs_1d(
            u, v, m.nodes, p, q, flux.alpha, flux.tau, flux.beta,
            cfg.penalty_coefficient, True, True)
        scale = max(1.0, np.max(np.abs(du_o)), np.max(np.abs(dv_o)))
        assert np.max(np.abs(du - du_o)) <= 1e-10 * scale
        assert np.max(np.abs(dv - dv_o)) <= 1e-10 * scale


def test_oracle_equivalence_variants():
    # damping and penalty toggles, on a modestly nonuniform mesh
    rng = np.random.default_rng(77)
    m = perturb_mesh_1d(uniform_mesh_1d(0.0, 1.0, 6), 0.2, seed=4)
    for damping in (False, True):
        for penalty in (False, True):
            cfg = SolverConfig(p=2, q=1, flux=FluxParams.alternating(1),
                               damping=damping, penalty=penalty)
            u, v = _random_state(rng, 6, 2, 1)
            du, dv = rhs_arrays_1d(u, v, m, cfg)
            du_o, dv_o = brute_rhs_1d(u, v, m.nodes, 2, 1, 1.0, 0.0, 0.0,
                                      1.0, penalty, damping)
            scale = max(1.0, np.max(np.abs(du_o)), np.max(np.abs(dv_o)))
            assert np.max(np.abs(du - du_o)) <= 1e-10 * scale
            assert np.max(np.abs(dv - dv_o)) <= 1e-10 * scale


def test_oracle_equivalence_neumann():
    # both alternating sides take uxhat = 0 at the walls, as the central flux does
    rng = np.random.default_rng(8)
    m = uniform_mesh_1d(-1.0, 1.0, 5, boundary="neumann")
    for flux in (FluxParams.central(), FluxParams.alternating(0), FluxParams.alternating(1)):
        cfg = SolverConfig(p=2, q=1, flux=flux)
        u, v = _random_state(rng, 5, 2, 1)
        du, dv = rhs_arrays_1d(u, v, m, cfg)
        du_o, dv_o = brute_rhs_1d(u, v, m.nodes, 2, 1, flux.alpha, 0.0, 0.0, 1.0, True, True,
                                  boundary="neumann")
        scale = max(1.0, np.max(np.abs(du_o)), np.max(np.abs(dv_o)))
        assert np.max(np.abs(du - du_o)) <= 1e-10 * scale, flux
        assert np.max(np.abs(dv - dv_o)) <= 1e-10 * scale, flux


def test_oracle_equivalence_with_source_quotient():
    # cubic source: every nonlinear integrand is a polynomial integrated
    # exactly by both quadratures, so agreement is to roundoff
    rng = np.random.default_rng(21)
    m = uniform_mesh_1d(0.0, 1.0, 5)
    src = SOURCES["cubic_4"]
    cfg = SolverConfig(p=2, q=1, flux=FluxParams.sommerfeld(1.0), chi=1, source=src)
    for _ in range(3):
        u, v = _random_state(rng, 5, 2, 1, scale=0.5)
        du, dv = rhs_arrays_1d(u, v, m, cfg)
        du_o, dv_o = brute_rhs_1d(u, v, m.nodes, 2, 1, 0.5, 0.5, 0.5, 1.0, True, True,
                                  chi=1, source=src)
        scale = max(1.0, np.max(np.abs(du_o)), np.max(np.abs(dv_o)))
        assert np.max(np.abs(du - du_o)) <= 1e-10 * scale
        assert np.max(np.abs(dv - dv_o)) <= 1e-10 * scale


def test_chi_correction_identity_cases():
    # the source quotient enters the u update only with chi = 1 and a source:
    # otherwise du is the plain solve, bit for bit
    rng = np.random.default_rng(5)
    m = uniform_mesh_1d(0, 1, 4)
    u, v = _random_state(rng, 4, 2, 1)
    plain, _ = rhs_arrays_1d(u, v, m, SolverConfig(p=2, q=1, chi=0, source=None))
    for cfg in (SolverConfig(p=2, q=1, chi=0, source=SOURCES["sine_gordon"]),
                SolverConfig(p=2, q=1, chi=1, source=None)):
        assert np.array_equal(rhs_arrays_1d(u, v, m, cfg)[0], plain)
    quotient, _ = rhs_arrays_1d(u, v, m, SolverConfig(p=2, q=1, chi=1,
                                                       source=SOURCES["sine_gordon"]))
    assert not np.allclose(quotient, plain)


def test_chi_regularization_at_zero():
    # g(u)/u falls back to g'(0) where u vanishes
    src = SOURCES["sine_gordon"]
    assert src.g_over_u(0.0) == pytest.approx(-1.0)
    assert src.g_over_u(1e-12) == pytest.approx(-1.0)
    assert src.g_over_u(0.1) == pytest.approx(-np.sin(0.1) / 0.1)
    assert src.antiderivative_G(0.0) == 0.0


def test_sine_sources_keep_their_closed_forms_and_pickle():
    # g = c sin u, G = c (cos u - 1) from one factory: c = -1 gives -sin u
    # and 1 - cos u bit for bit, and every term survives a pickle round trip
    u = np.random.default_rng(3).uniform(-7.0, 7.0, 257)
    closed = {"sine_gordon": (-np.sin(u), 1.0 - np.cos(u), -1.0),
              "sine_gordon_160": (160.0 * np.sin(u), 160.0 * (np.cos(u) - 1.0), 160.0),
              "sine_gordon_16": (16.0 * np.sin(u), 16.0 * (np.cos(u) - 1.0), 16.0)}
    for name, (g, big_g, gprime0) in closed.items():
        src = pickle.loads(pickle.dumps(SOURCES[name]))
        assert src.name == name and src.gprime0 == gprime0
        assert np.array_equal(src.g(u), g) and np.array_equal(src.antiderivative_G(u), big_g)


def test_cubic_source_keeps_the_bytes_of_its_closed_form():
    # the values include signed zeros, subnormals, cubes and fourth powers in
    # the subnormal range, overflow to inf, inf and NaN
    tiny = np.finfo(float).smallest_subnormal
    u = np.concatenate([[0.0, -0.0, tiny, -tiny, 1e-310, -3e-320, 1e-104, -2.7e-105, 3e-78,
                         1e200, -1e200, 1e77, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0],
                        np.random.default_rng(5).uniform(-30.0, 30.0, 100)])
    kept = u.copy()
    src = SOURCES["cubic_4"]
    with np.errstate(over="ignore", invalid="ignore"):
        g, big_g = src.g(u), src.antiderivative_G(u)
        u2 = u * u
        assert g.tobytes() == (4.0 * u * u * u).tobytes()
        assert big_g.tobytes() == (-(u2 * u2)).tobytes()
    assert u.tobytes() == kept.tobytes()
    assert src.g(1.5) == 13.5 and src.antiderivative_G(-2.0) == -16.0


def _former_sum_by_degree(weights, degrees, first):
    """The kernels' former per-mode sum: weights[..., first] + ... + weights[..., degrees[a]]
    per mode a, 0 where degrees[a] = 0, left to right over the orders."""
    out = np.empty(weights.shape[:-1] + degrees.shape)
    ends = np.searchsorted(degrees, np.arange(1, degrees[-1] + 2)).tolist()  # modes of degree <= l
    out[..., :ends[0]] = 0.0
    acc = weights[..., first]
    for l in range(1, len(ends)):
        if l > first:
            acc = acc + weights[..., l]
        out[..., ends[l - 1]:ends[l]] = acc[..., None]
    return out


@pytest.mark.parametrize("first", [0, 1])
def test_sum_by_degree_equals_the_former_sums_of_both_kernels(first):
    # damping_sums as each kernel reads it per mode, against the former per-mode sum,
    # which is 0 at degree 0; weights from subnormal to 1e4, and zeros, as damping
    # weights come; first 1 passes them as u's, first 0 as v's, whose column 0 is zeroed
    rng = np.random.default_rng(71 + first)

    def weights(orders):
        w = np.exp(rng.uniform(math.log(1e-320), math.log(1e4), (40, orders)))
        w[rng.random(w.shape) < 0.1] = 0.0
        return w

    for p in range(2, 7):
        sig = weights(p + 1)
        if first == 1:  # u's orders 0 and p are zero, as both kernels fill them
            sig[:, [0, p]] = 0.0
        sums = []
        for last_u in (p, p - 1):  # u's sums run through order p in 1D, p - 1 in 2D
            got, other = sig.copy(), np.zeros_like(sig)
            damping_sums(*((got, other) if first else (other, got)), last_u)
            sums.append(got)
        if first == 0:
            assert not sums[0][:, 0].any() and sig[:, 0].any()
        # 1D: one mode per degree
        assert sums[0].tobytes() == _former_sum_by_degree(sig, np.arange(p + 1), first).tobytes()
        # 2D: u's fold reads the modes of total degree 1..p-1, v every mode
        degrees = total_degree_modes(p).sum(axis=1)
        read = slice(first, n_modes(p - first))
        want = _former_sum_by_degree(sig, degrees, first)[:, read]
        assert sums[1][:, degrees[read]].tobytes() == want.tobytes()


def test_damping_factors_are_pinned_to_the_formula():
    # p = 3, q = 2, h = 0.5, written out by hand: u's orders 1, 2 take 2(2l+1)/5 h^l / l!,
    # v's orders 0..2 take 2(2l+1)/3 h^(l+1) / (l + v_shift)!
    u, v = damping_factors(3, 2, 0.5, 0)
    assert u == pytest.approx([0.6, 0.25], rel=1e-15)
    assert v == pytest.approx([1.0 / 3.0, 0.5, 5.0 / 24.0], rel=1e-15)
    u, v = damping_factors(3, 2, 0.5, 1)
    assert u == pytest.approx([0.6, 0.25], rel=1e-15)
    assert v == pytest.approx([1.0 / 3.0, 0.25, 5.0 / 72.0], rel=1e-15)


def test_solve_ut_consistency_refinement():
    # with matched smooth data the u update tracks d/dx(-pi cos(pi x)) in the
    # derivative seminorm; the instantaneous consistency order is p-1 (the
    # final-time solution error still converges at p+1, asserted elsewhere)
    errs = []
    for n in (40, 80):
        m = uniform_mesh_1d(-1, 1, n)
        cfg = SolverConfig(p=2, q=1, damping=False, penalty=False)
        u = DGField1D.project(lambda x: np.sin(np.pi * x), m, 2)
        v = DGField1D.project(lambda x: -np.pi * np.cos(np.pi * x), m, 1)
        du, _ = rhs_arrays_1d(u.coeffs, v.coeffs, m, cfg)
        duf = DGField1D(m, 2, du)
        errs.append(gradient_l2_error(duf, lambda x: np.pi**2 * np.sin(np.pi * x)))
    assert errs[0] / errs[1] > 2.0 ** 1 * 0.8


def test_solve_vt_weak_laplacian_rate():
    # v update approximates u_xx for a smooth projected u
    errs = []
    for n in (40, 80):
        m = uniform_mesh_1d(-1, 1, n)
        cfg = SolverConfig(p=2, q=1, damping=False, penalty=False, flux=FluxParams.central())
        u = DGField1D.project(lambda x: np.sin(np.pi * x), m, 2)
        v = DGField1D(m, 1)
        _, dv = rhs_arrays_1d(u.coeffs, v.coeffs, m, cfg)
        dvf = DGField1D(m, 1, dv)
        errs.append(l2_error(dvf, lambda x: -np.pi**2 * np.sin(np.pi * x)))
    # the weak second derivative of a projection is consistent at order p-1
    assert errs[0] / errs[1] > 2.0 ** 1 * 0.8


def _de_dt(u, v, m, cfg):
    """d/dt E = 2 integral(u_x (u_t)_x + v v_t) of the RHS at (u, v), and the sum of
    its terms' magnitudes, the scale of its round-off."""
    du, dv = rhs_arrays_1d(u, v, m, cfg)
    d = derivative_matrix(cfg.p)
    inv = 1.0 / (2.0 * np.arange(cfg.p + 1) + 1.0)
    term_u = 4.0 / m.widths[:, None] * (u @ d.T) * (du @ d.T) * inv[None, :]
    term_v = 0.5 * m.widths[:, None] * mass_diagonal(cfg.q)[None, :] * v * dv
    return (2.0 * (np.sum(term_u) + np.sum(term_v)),
            2.0 * (np.sum(np.abs(term_u)) + np.sum(np.abs(term_v))))


def test_energy_identity_random_states():
    # d/dt E = 2 integral(u_x (u_t)_x + v v_t): conserved for central and
    # alternating fluxes with damping and penalty off; nonpositive with the
    # Sommerfeld flux or the damping; the penalty adds its closed form, which
    # has either sign (test_penalty_energy_share_can_be_positive)
    rng = np.random.default_rng(123)
    m = uniform_mesh_1d(0, 1, 8)

    def de_dt(u, v, cfg):
        return _de_dt(u, v, m, cfg)[0]

    for trial in range(10):
        u, v = _random_state(rng, 8, 2, 1)
        for flux in (FluxParams.central(), FluxParams.alternating()):
            cfg = SolverConfig(p=2, q=1, damping=False, penalty=False, flux=flux)
            assert abs(de_dt(u, v, cfg)) < 1e-11
        cfg_s = SolverConfig(p=2, q=1, damping=False, penalty=False, flux=FluxParams.sommerfeld(1.0))
        assert de_dt(u, v, cfg_s) <= 1e-12
        cfg_d = SolverConfig(p=2, q=1, damping=True, penalty=False)
        assert de_dt(u, v, cfg_d) <= 1e-12
        cfg_p = SolverConfig(p=2, q=1, damping=False, penalty=True)
        (on, scale_on), (off, scale_off) = (_de_dt(u, v, m, c)
                                            for c in (cfg_p, replace(cfg_p, penalty=False)))
        assert abs(on - off - _penalty_share(u, v, m, cfg_p)) <= 1e-14 * (scale_on + scale_off)


@pytest.mark.parametrize("perturb", [0.0, 0.3])
@pytest.mark.parametrize("p, q", [(2, 1), (3, 2), (3, 3), (4, 2)])
def test_energy_identity_random_states_neumann(p, q, perturb):
    # a Neumann wall does no work: its fluxes take u_x = 0 and the interior v, so
    # the undamped, penalty-free energy is conserved for the central flux and both
    # alternating sides, whose mirrored ghost would hand the wall -u_x or u_x
    rng = np.random.default_rng(10 * p + q)
    m = uniform_mesh_1d(0.0, 1.0, 17, boundary="neumann")
    if perturb:
        m = perturb_mesh_1d(m, perturb, seed=3)
    for trial in range(5):
        u, v = _random_state(rng, 17, p, q)
        for flux in (FluxParams.central(), FluxParams.alternating(0), FluxParams.alternating(1)):
            cfg = SolverConfig(p=p, q=q, damping=False, penalty=False, flux=flux)
            rate, scale = _de_dt(u, v, m, cfg)
            assert abs(rate) <= 1e-14 * scale, (flux, trial)


def _flux_share(u, v, m, cfg):
    """-2 sum(tau [[u_x]]^2 + beta [[v]]^2) over the interfaces of a periodic mesh."""
    ju, jv = _jumps(DGField1D(m, cfg.p, u))[1:, 1], _jumps(DGField1D(m, cfg.q, v))[1:, 0]
    return -2.0 * np.sum(cfg.flux.tau * ju**2 + cfg.flux.beta * jv**2)


def _penalty_share(u, v, m, cfg):
    """-2 (c/h^2) sum [[u]] [[u - u_bar]] over the interfaces of a periodic mesh, u_bar
    each cell's mean: the u rows that the penalty enters leave the mean to v."""
    off_mean = u.copy()
    off_mean[:, 0] = 0.0
    ju, jr = (_jumps(DGField1D(m, cfg.p, c))[1:, 0] for c in (u, off_mean))
    return -2.0 * cfg.penalty_coefficient / m.h**2 * np.sum(ju * jr)


def _damping_share(u, v, m, cfg):
    """-2 sum of (w/h) times each Legendre mode of u_x and of v squared times its mass."""
    sigma_u, sigma_v = _damping(DGField1D(m, cfg.p, u), DGField1D(m, cfg.q, v), cfg)
    h = m.widths[:, None]
    ux = (2.0 / h) * (u @ derivative_matrix(cfg.p).T)
    total = 0.0
    for sigma, modes, first in ((sigma_u, ux, 1), (sigma_v, v, 0)):
        rate = np.stack([sigma[:, first:k + 1].sum(axis=1) * (k > 0)
                         for k in range(modes.shape[1])], axis=1) / h
        total += np.sum(rate * modes**2 * 0.5 * h * mass_diagonal(modes.shape[1] - 1))
    return -2.0 * total


@pytest.mark.parametrize("perturb", [0.0, 0.3])
@pytest.mark.parametrize("p, q", [(2, 1), (3, 2), (3, 3), (4, 2)])
def test_energy_identity_closed_forms(p, q, perturb):
    # without damping and penalty the central flux and both alternating sides conserve
    # the energy; the Sommerfeld flux, the penalty and the damping each add their closed
    # form, the share of a mechanism being the rate with it on minus the rate with it off
    rng = np.random.default_rng(10 * p + q)
    m = uniform_mesh_1d(0.0, 1.0, 17)
    if perturb:
        m = perturb_mesh_1d(m, perturb, seed=3)
    base = SolverConfig(p=p, q=q, damping=False, penalty=False)
    for trial in range(5):
        u, v = _random_state(rng, 17, p, q)
        for flux in (FluxParams.central(), FluxParams.alternating(0), FluxParams.alternating(1)):
            rate, scale = _de_dt(u, v, m, replace(base, flux=flux))
            assert abs(rate) <= 1e-14 * scale, (flux, trial)
        off, scale_off = _de_dt(u, v, m, base)
        for cfg, share in ((replace(base, flux=FluxParams.sommerfeld(2.0)), _flux_share),
                           (replace(base, penalty=True), _penalty_share),
                           (replace(base, damping=True), _damping_share)):
            on, scale_on = _de_dt(u, v, m, cfg)
            assert abs(on - off - share(u, v, m, cfg)) <= 1e-14 * (scale_on + scale_off), \
                (share.__name__, trial)


def test_penalty_energy_share_can_be_positive():
    # [[u]] [[u - u_bar]] = [[u - u_bar]]^2 + [[u_bar]] [[u - u_bar]], and the second term
    # has either sign: with the cell means scaled up, 41 of 200 such draws gain energy
    # from the penalty, the first of them the third draw
    rng = np.random.default_rng(123)
    m = uniform_mesh_1d(0.0, 1.0, 8)
    base = SolverConfig(p=2, q=1, damping=False, penalty=False)
    cfg = replace(base, penalty=True)
    for _ in range(3):
        u, v = _random_state(rng, 8, 2, 1)
        u[:, 0] *= 5.0
    (on, scale_on), (off, scale_off) = _de_dt(u, v, m, cfg), _de_dt(u, v, m, base)
    assert on - off == pytest.approx(1378.52, abs=0.01)
    assert abs(on - off - _penalty_share(u, v, m, cfg)) <= 1e-14 * (scale_on + scale_off)


def test_energy_examples():
    m1 = uniform_mesh_1d(-1, 1, 1)
    u = DGField1D.project(lambda x: x, m1, 2)
    v = DGField1D(m1, 1)
    assert energy(u, v) == pytest.approx(2.0, abs=1e-13)
    z = DGField1D(m1, 2)
    assert energy(z, DGField1D(m1, 1)) == 0.0
    m = uniform_mesh_1d(-1, 1, 64)
    us = DGField1D.project(lambda x: np.sin(np.pi * x), m, 3)
    assert energy(us, DGField1D(m, 2)) == pytest.approx(np.pi**2, rel=1e-6)


# each flux with the flux that the mirror image of a mesh reads: left and right swap,
# so the alternating flux's side 0 becomes its side 1
MIRRORED_FLUXES = [(FluxParams.central(), FluxParams.central()),
                   (FluxParams.alternating(0), FluxParams.alternating(1)),
                   (FluxParams.alternating(1), FluxParams.alternating(0)),
                   (FluxParams.sommerfeld(2.0), FluxParams.sommerfeld(2.0))]
SOURCE_CHI = [(None, 0), (None, 1), ("cubic_4", 0), ("cubic_4", 1)]


@pytest.mark.parametrize("flux", [f for f, _ in MIRRORED_FLUXES])
def test_rhs_of_a_periodically_shifted_state_is_the_shifted_rhs(flux):
    # widths of 1/16 are exact, so every cell and both wrapped ends see the same numbers
    m = uniform_mesh_1d(0.0, 1.0, 16)
    u, v = _random_state(np.random.default_rng(16), 16, 3, 2)
    for source, chi in SOURCE_CHI:
        cfg = SolverConfig(p=3, q=2, flux=flux, chi=chi, source=source and SOURCES[source])
        du, dv = rhs_arrays_1d(u, v, m, cfg)
        su, sv = rhs_arrays_1d(np.roll(u, 5, axis=0), np.roll(v, 5, axis=0), m, cfg)
        assert np.array_equal(su, np.roll(du, 5, axis=0)), (source, chi)
        assert np.array_equal(sv, np.roll(dv, 5, axis=0)), (source, chi)


@pytest.mark.parametrize("flux, mirrored", MIRRORED_FLUXES)
def test_rhs_of_a_reflected_state_at_neumann_walls_is_the_reflected_rhs(flux, mirrored):
    # reflection x -> -x: the cells reverse and mode m changes sign as (-1)^m
    m = uniform_mesh_1d(-1.0, 1.0, 12, boundary="neumann")

    def reflect(c):
        return c[::-1] * (-1.0) ** np.arange(c.shape[1])

    u, v = _random_state(np.random.default_rng(12), 12, 3, 2)
    for source, chi in SOURCE_CHI:
        src = source and SOURCES[source]
        du, dv = rhs_arrays_1d(u, v, m, SolverConfig(p=3, q=2, flux=mirrored, chi=chi, source=src))
        ru, rv = rhs_arrays_1d(reflect(u), reflect(v), m,
                               SolverConfig(p=3, q=2, flux=flux, chi=chi, source=src))
        for got, want in ((ru, reflect(du)), (rv, reflect(dv))):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (source, chi)
