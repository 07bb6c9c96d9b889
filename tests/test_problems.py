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


def test_ex6_derivatives_match_central_differences():
    prob = EXAMPLES["ex6"]
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    y = np.linspace(-2.5, 2.5, 6)[None, :]
    t, eps = 0.3, 1e-6
    for exact_d, (ex, ey, et) in ((prob.exact_dx, (eps, 0, 0)), (prob.exact_dy, (0, eps, 0)),
                                  (prob.exact_dt, (0, 0, eps))):
        fd = (prob.exact(x + ex, y + ey, t + et) - prob.exact(x - ex, y - ey, t - et)) / (2 * eps)
        assert np.allclose(exact_d(x, y, t), fd, atol=1e-7)


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


def test_closed_form_data_start_from_their_solutions():
    # u0 and (where it is derived) u1 are the closed forms at t = 0, bit for bit
    x = np.linspace(-1.0, 1.0, 101)
    for key in ("ex1", "ex2"):
        prob = EXAMPLES[key]
        xs = x * prob.domain[1]
        assert np.array_equal(prob.u0(xs), prob.exact(xs, 0.0))
    assert np.array_equal(EXAMPLES["ex1"].u1(x), EXAMPLES["ex1"].exact_dt(x, 0.0))
    ex6 = EXAMPLES["ex6"]
    xx, yy = np.meshgrid(3.0 * x, np.linspace(-3.0, 3.0, 37), indexing="ij")
    assert np.array_equal(ex6.u0(xx, yy), ex6.exact(xx, yy, 0.0))
    assert np.array_equal(ex6.u1(xx, yy), ex6.exact_dt(xx, yy, 0.0))


def test_zero_velocities_are_positive_zeros_of_the_broadcast_shape():
    x, y = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.0, 1.0, 3)[None, :]
    # ex2's derivative at t = 0 is -0.0, which is why its problem keeps a zero u1
    assert np.all(np.signbit(EXAMPLES["ex2"].exact_dt(x[:, 0], 0.0)))
    for key in ("ex2", "ex3", "ex4", "ex5"):
        u1 = EXAMPLES[key].u1(x)
        assert u1.shape == (5, 1) and u1.dtype == float
        assert np.all(u1 == 0.0) and not np.any(np.signbit(u1))
    for key in ("ex7", "ex8"):
        u1 = EXAMPLES[key].u1(x, y)
        assert u1.shape == (5, 3) and not np.any(u1) and not np.any(np.signbit(u1))


def test_box_data_take_closed_boxes():
    x = np.array([0.2999, 0.3, 0.36, 0.425, 0.4251, 0.5, 0.575, 0.7, 0.7001])
    assert np.array_equal(EXAMPLES["ex4"].u0(x), [0, 5.0, 5.0, 5.0, 0, 0, 2.5, 2.5, 0])
    assert np.array_equal(EXAMPLES["ex5"].u0(x), [0, 4.0, 4.0, 4.0, 0, 0, 2.0, 2.0, 0])
    # 2D: both coordinates inside one box, edges included
    xs = np.array([0.3, 0.425, 0.6, 0.7, 0.375, 0.625, 0.36])
    ys = np.array([0.425, 0.3, 0.7, 0.575, 0.625, 0.375, 0.6])
    assert np.array_equal(EXAMPLES["ex8"].u0(xs, ys), [0.5, 0.5, 0.25, 0.25, 0, 0, 0])
    assert np.array_equal(EXAMPLES["ex7"].u0(xs, ys), [0, 0, 0, 0, 0.5, 0.5, 0])
    assert EXAMPLES["ex8"].u0(xs[:, None], ys[None, :]).shape == (7, 7)


@pytest.mark.parametrize("dim, domain, point", [
    (1, (-1.0, 3.0), (0.3,)),
    (2, (0.0, 1.0, 0.0, 2.0), (0.3, 0.9)),
])
@pytest.mark.parametrize("initial", ["sine", "gauss", "box"])
def test_custom_initial_data_follow_the_docstring(dim, domain, point, initial):
    prob = make_custom_problem(dim, domain, initial, None, "periodic")
    lo, hi = domain[::2], domain[1::2]
    mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
    width = [b - a for a, b in zip(lo, hi)]
    expect = {
        "sine": np.prod([np.sin(2 * np.pi * (x - a) / w) for x, a, w in zip(point, lo, width)]),
        "gauss": np.exp(-sum(((x - m) / (0.1 * w)) ** 2 for x, m, w in zip(point, mid, width))),
        "box": float(all(abs(x - m) < w / 4 for x, m, w in zip(point, mid, width))),
    }[initial]
    assert prob.u0(*point) == pytest.approx(expect, rel=1e-14, abs=1e-300)
    # the box is open: a point on its edge (a quarter width from the middle) is outside
    edge = [m + w / 4 for m, w in zip(mid, width)]
    inner = [m + w / 8 for m, w in zip(mid, width)]
    if initial == "box":
        assert prob.u0(*edge) == 0.0 and prob.u0(*inner) == 1.0
    assert prob.u1(*point) == 0.0
    assert (prob.dim, prob.domain, prob.default_n) == (dim, domain, {1: 160, 2: 64}[dim])
    assert prob.title == f"custom {dim}D ({initial})"
