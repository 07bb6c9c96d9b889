"""Built-in problem definitions: PDE residuals, data consistency, fronts."""
import numpy as np
import pytest

from wavedg.problems import EXAMPLES, make_custom_problem
from wavedg.scheme1d import SOURCES


def _second_diff(f, x, t, eps, arg):
    if arg == "t":
        return (f(x, t + eps) - 2 * f(x, t) + f(x, t - eps)) / eps**2
    return (f(x + eps, t) - 2 * f(x, t) + f(x - eps, t)) / eps**2


def test_ex1_exact_satisfies_wave_equation():
    prob = EXAMPLES["ex1"]
    x = np.linspace(-0.9, 0.9, 7)
    t = 0.13
    eps = 1e-4
    utt = _second_diff(prob.exact, x, t, eps, "t")
    uxx = _second_diff(prob.exact, x, t, eps, "x")
    assert np.allclose(utt, uxx, atol=1e-5)
    assert np.allclose(prob.exact(x, 0.0), prob.u0(x))
    assert np.allclose(prob.exact_dt(x, 0.0), prob.u1(x))


def test_ex2_breather_satisfies_sine_gordon():
    prob = EXAMPLES["ex2"]
    src = SOURCES["sine_gordon"]
    x = np.linspace(-3.0, 3.0, 9)
    t = 0.4
    eps = 1e-4
    utt = _second_diff(prob.exact, x, t, eps, "t")
    uxx = _second_diff(prob.exact, x, t, eps, "x")
    resid = utt - uxx - src.g(prob.exact(x, t))
    assert np.max(np.abs(resid)) < 1e-5
    assert np.allclose(prob.exact(x, 0.0), prob.u0(x))
    assert np.allclose(prob.u1(x), 0.0)
    # analytic derivatives agree with finite differences
    dx = (prob.exact(x + 1e-6, t) - prob.exact(x - 1e-6, t)) / 2e-6
    assert np.allclose(prob.exact_dx(x, t), dx, atol=1e-7)
    dt = (prob.exact(x, t + 1e-6) - prob.exact(x, t - 1e-6)) / 2e-6
    assert np.allclose(prob.exact_dt(x, t), dt, atol=1e-7)


def test_ex3_exact_levels():
    prob = EXAMPLES["ex3"]
    t = 0.25
    # three plateaus after the step splits into half-amplitude translates
    assert prob.exact(0.0, t) == pytest.approx(1.0)
    assert prob.exact(0.5, t) == pytest.approx(0.75)
    assert prob.exact(-0.5, t) == pytest.approx(0.75)
    assert prob.exact(0.9, t) == pytest.approx(0.5)
    assert prob.exact(np.array([-0.9]), t)[0] == pytest.approx(0.5)
    assert prob.exact(0.1, 0.0) == pytest.approx(1.0)


def test_ex6_exact_satisfies_wave_equation_2d():
    prob = EXAMPLES["ex6"]
    x = np.linspace(-2.0, 2.0, 5)
    y = 0.3
    t = 0.2
    eps = 1e-4
    utt = (prob.exact(x, y, t + eps) - 2 * prob.exact(x, y, t) + prob.exact(x, y, t - eps)) / eps**2
    uxx = (prob.exact(x + eps, y, t) - 2 * prob.exact(x, y, t) + prob.exact(x - eps, y, t)) / eps**2
    uyy = (prob.exact(x, y + eps, t) - 2 * prob.exact(x, y, t) + prob.exact(x, y - eps, t)) / eps**2
    assert np.allclose(utt, uxx + uyy, atol=1e-5)


def test_source_antiderivatives_match():
    # G(u) = -integral of g: check by finite differences
    u = np.linspace(-2.0, 2.0, 21)
    eps = 1e-6
    for name, src in SOURCES.items():
        dg = (src.antiderivative_G(u + eps) - src.antiderivative_G(u - eps)) / (2 * eps)
        assert np.allclose(dg, -src.g(u), atol=1e-6), name
        assert src.antiderivative_G(0.0) == pytest.approx(0.0)
        # the regularized quotient is continuous at zero
        assert src.g_over_u(1e-9) == pytest.approx(src.gprime0)
        assert src.g_over_u(1e-4) == pytest.approx(src.gprime0, abs=1e-4)


def test_initial_boxes_alignment():
    # ex4/ex5/ex8 jumps sit on cell interfaces at their default resolutions
    for key in ("ex4", "ex5"):
        prob = EXAMPLES[key]
        h = (prob.domain[1] - prob.domain[0]) / 320
        for edge in (0.3, 0.425, 0.575, 0.7):
            assert abs((edge - prob.domain[0]) / h - round((edge - prob.domain[0]) / h)) < 1e-9
    prob8 = EXAMPLES["ex8"]
    h = 2.0 / 320
    for edge in (0.3, 0.425, 0.575, 0.7):
        assert abs((edge + 1.0) / h - round((edge + 1.0) / h)) < 1e-9


def test_ex3_front_positions_after_quarter_period():
    # the damped run places the fronts at the half-amplitude splitting
    # positions +-0.25 and +-0.75
    from wavedg.diagnostics import level_crossings
    from wavedg.field import DGField1D
    from wavedg.mesh import uniform_mesh_1d
    from wavedg.scheme1d import FluxParams, SolverConfig
    from wavedg.timeint import integrate

    prob = EXAMPLES["ex3"]
    mesh = uniform_mesh_1d(-1.0, 1.0, 320)
    cfg = SolverConfig(p=2, q=1, flux=FluxParams.alternating())
    u0 = DGField1D.project(prob.u0, mesh, 2)
    v0 = DGField1D.project(prob.u1, mesh, 1)
    u, _, _ = integrate(u0, v0, cfg, t_final=0.25)
    mids = u.midpoint_values()
    inner = np.sort(level_crossings(mesh.centers, mids, 0.875))
    outer = np.sort(level_crossings(mesh.centers, mids, 0.625))
    assert np.allclose(inner, [-0.25, 0.25], atol=3 * mesh.h)
    assert np.allclose(outer, [-0.75, 0.75], atol=3 * mesh.h)


@pytest.mark.parametrize("args, key", [
    ((1, (0.0, 1.0), "bogus", None, "periodic"), "'initial'"),
    ((3, (0.0, 1.0, 0.0, 1.0), "sine", None, "periodic"), "'dim'"),
    ((1, (1.0, 0.0), "sine", None, "periodic"), "'domain'"),
    ((2, (0.0, 1.0, 0.0, 1.0), "sine", "bogus", "periodic"), "'source'"),
    ((1, (0.0, 1.0), "sine", None, "dirichlet"), "'boundary'"),
    ((2, (0.0, 1.0, 0.0, 1.0), "sine", None, "neumann"), "'boundary'"),
])
def test_custom_problem_rejects_bad_arguments_when_made(args, key):
    with pytest.raises(ValueError, match=key):
        make_custom_problem(*args)

