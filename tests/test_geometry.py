import numpy as np
import pytest

from pmcgraph.grid import build_grid, constant_field, field_from_expr, variables
from pmcgraph.geometry import (
    GL_NODES,
    ConformalFactor,
    WarpedProfile,
    _GL_W,
    _GL_X,
    conformal_mean_curvature,
    conformal_transform_pmc,
    divergence_oracle,
    jacobi_residual,
    pmc_residual,
    second_fundamental_norm,
    warped_to_conformal,
)
from pmcgraph.expr import EvalDomainError
from pmcgraph.pmc import graph_normal_env, parse_pmc

TWO_PI = 6.283185307179586
LN4 = 1.3862943611198906
# a factor's variables over the 2-D base: the base point, then the height
FACTOR_2D = (*variables(2)[:2], "r")


def interior_collar(grid, width):
    """Nodes at least `width` inside every dirichlet boundary."""
    pos = grid.node_positions()
    m = ~grid.boundary_mask
    for ax in range(grid.dimension):
        if grid.topology[ax] != "dirichlet":
            continue
        lo = grid.origin[ax]
        hi = lo + grid.lengths[ax]
        m &= (pos[ax] - lo >= width - 1e-12) & (hi - pos[ax] >= width - 1e-12)
    return m


# -- conformal factor ---------------------------------------------------------

def test_factor_from_expr():
    F = ConformalFactor.from_expr("-ln(r)")
    assert F.derivative_mode == "analytic"
    assert F.eval(dict(zip(FACTOR_2D, (0.0, 0.0, 1.0)))) == 0.0
    assert F.partial("r", dict(zip(FACTOR_2D, (0.0, 0.0, 2.0)))) == -0.5
    assert F.partial("x1", dict(zip(FACTOR_2D, (0.0, 0.0, 2.0)))) == 0.0


def test_factor_from_callable_fd():
    F = ConformalFactor.from_callable(lambda x1, x2, r: 0.5 * r * r + x1)
    assert F.derivative_mode == "fd"
    assert F.partial("r", dict(zip(FACTOR_2D, (0.0, 0.0, 3.0)))) == pytest.approx(3.0, abs=1e-7)
    assert F.partial("x1", dict(zip(FACTOR_2D, (0.0, 0.0, 3.0)))) == pytest.approx(1.0, abs=1e-7)


def test_factor_from_callable_analytic():
    F = ConformalFactor.from_callable(
        lambda x1, x2, r: -np.log(r),
        d_base=(lambda x1, x2, r: 0.0 * r, lambda x1, x2, r: 0.0 * r),
        d_r=lambda x1, x2, r: -1.0 / r)
    assert F.derivative_mode == "analytic"
    assert F.partial("r", dict(zip(FACTOR_2D, (0.0, 0.0, 2.0)))) == -0.5


# -- conformal curvature ------------------------------------------------------

def test_horosphere_curvature_is_minus_n():
    # constant-height graphs under f = -ln r have curvature -n exactly,
    # discretely too: the gradient vanishes node-by-node
    F = ConformalFactor.from_expr("-ln(r)")
    g = build_grid(2, (16, 16), (1.0, 1.0), "periodic")
    for c in (1.0, 1.7):
        u = constant_field(g, c)
        cmc = conformal_mean_curvature(g, u, F)
        assert np.max(np.abs(cmc.values + 2.0)) < 1e-13

    g1 = build_grid(1, (16,), (1.0,), "periodic")
    cmc1 = conformal_mean_curvature(g1, constant_field(g1, 1.3), F)
    assert np.max(np.abs(cmc1.values + 1.0)) < 1e-13


def test_horosphere_oracle_agrees():
    F = ConformalFactor.from_expr("-ln(r)")
    g = build_grid(2, (16, 16), (1.0, 1.0), "periodic")
    u = constant_field(g, 1.7)
    d = divergence_oracle(g, u, F)
    assert np.max(np.abs(d.values + 2.0)) < 1e-13


def test_oracle_cross_check_converges():
    # the two curvature assemblies are independent discretizations; their
    # gap must close at second order under refinement
    F = ConformalFactor.from_expr(f"0.3*sin({TWO_PI}*x1) + 0.2*cos(r)")
    errs = []
    for s in (32, 64):
        g = build_grid(2, (s, s), (1.0, 1.0), "periodic")
        u = field_from_expr(g, f"0.2*sin({TWO_PI}*x1) + 0.1*cos({TWO_PI}*x2)")
        a = conformal_mean_curvature(g, u, F)
        b = divergence_oracle(g, u, F)
        errs.append(np.max(np.abs(a.values - b.values)))
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_conformal_residual_wiring():
    F = ConformalFactor.from_expr("-ln(r)")
    g = build_grid(2, (16, 16), (1.0, 1.0), "periodic")
    u = constant_field(g, 1.0)
    res = pmc_residual(g, u, parse_pmc("-2"), F=F)
    assert np.max(np.abs(res.values)) < 1e-13


# -- prescription transform ---------------------------------------------------

def test_transform_minimal_in_hyperbolic_slab():
    # H == 0 under f = -ln z transforms to 2t/z in the product metric
    H = parse_pmc("0")
    F = ConformalFactor.from_expr("-ln(r)")
    Hp = conformal_transform_pmc(H, F, 2)
    assert Hp.provenance == "transformed"
    assert Hp.has_exact_partials
    assert Hp.eval(dict(zip(variables(2), (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)))) == pytest.approx(2.0, abs=1e-15)
    assert Hp.eval(dict(zip(variables(2), (0.0, 0.0, 2.0, 0.0, 0.0, 0.5)))) == pytest.approx(0.5, abs=1e-15)
    # d/dz of 2t/z at z=1, t=1 is -2
    assert Hp.partial("z", dict(zip(variables(2), (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)))) == pytest.approx(-2.0, abs=1e-15)


def test_transform_residual_identity():
    # product residual of the transformed prescription equals e^f times the
    # conformal residual of the original, node for node
    g = build_grid(2, (16, 16), (1.0, 1.0), "periodic")
    u = field_from_expr(g, f"1.2 + 0.1*sin({TWO_PI}*x1) + 0.05*cos({TWO_PI}*x2)")
    H = parse_pmc("0.2*z - 0.1*y1")
    F = ConformalFactor.from_expr(f"0.1*sin({TWO_PI}*x1) - 0.5*ln(r)")
    Hp = conformal_transform_pmc(H, F, 2)
    res_prod = pmc_residual(g, u, Hp)
    res_conf = pmc_residual(g, u, H, F=F)
    pos = g.node_positions()
    f = F.eval(dict(zip(FACTOR_2D, (pos[0], pos[1], u.values))))
    gap = res_prod.values - np.exp(f) * res_conf.values
    gap[g.boundary_mask] = 0.0
    assert np.max(np.abs(gap)) < 1e-12


def test_transform_callable_path():
    H = parse_pmc("0")
    F = ConformalFactor.from_callable(lambda x1, x2, r: -np.log(r))
    Hp = conformal_transform_pmc(H, F, 2)
    assert Hp.eval(dict(zip(variables(2), (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)))) == pytest.approx(2.0, abs=1e-7)


# -- warped products ----------------------------------------------------------

def test_warped_reparam_exponential_profile():
    P = WarpedProfile.from_expr("r")
    F, (s_lo, s_hi) = warped_to_conformal(P, (0.5, 2.0))
    assert s_lo == 0.0
    assert abs(s_hi - LN4) < 1e-10
    # f(s) = ln r(s) = s + ln(0.5); the height derivative is h'(r(s)) = 1
    s = np.linspace(0.0, s_hi, 7)
    assert np.max(np.abs(F.eval({"r": s}) - (s + np.log(0.5)))) < 1e-9
    assert np.max(np.abs(F.partial("r", {"r": s}) - 1.0)) < 1e-12
    assert F.derivative_mode == "analytic"


def test_gauss_legendre_rule_is_leggauss_written_out():
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    for written, exact in ((_GL_X, x), (_GL_W, w)):
        assert written.dtype == np.float64 and written.shape == (GL_NODES,)
        assert np.array_equal(written, exact)


def test_warped_roundtrip():
    P = WarpedProfile.from_expr("r")
    F, (_, s_hi) = warped_to_conformal(P, (0.5, 2.0))
    r = np.linspace(0.5, 2.0, 50)
    s = np.array([F.s_of_r(v) for v in r])
    assert np.all(np.diff(s) > 0.0)
    back = F.r_of_s(s)
    assert np.max(np.abs(back - r)) < 1e-9


def test_warped_transform_has_exact_height_partial():
    # h = r^2 on [1, 2]: s = 1 - 1/r, and for H = 0 in one dimension the
    # pullback is H' = -h'(r(s)) t, so dH'/dz = -h''(r) h(r) t = -2 r^2 t
    P = WarpedProfile.from_expr("r^2")
    F, (_, s_hi) = warped_to_conformal(P, (1.0, 2.0))
    Hp = conformal_transform_pmc(parse_pmc("0"), F, 1)
    assert Hp.has_exact_partials
    assert F.derivative_mode == "analytic"
    s = np.array([0.05, 0.2, 0.35, 0.45])
    t = np.array([1.0, 0.8, 0.5, 0.3])
    r = 1.0 / (1.0 - s)
    dz = Hp.partial("z", dict(zip(variables(1), (np.zeros_like(s), s, np.zeros_like(s), t))))
    np.testing.assert_allclose(dz, -2.0 * r * r * t, rtol=1e-8, atol=0.0)


def test_warped_rejects_nonpositive_profile():
    P = WarpedProfile.from_expr("1 - r")
    with pytest.raises(ValueError, match="must be positive"):
        warped_to_conformal(P, (0.5, 2.0))


def test_warped_rejects_bad_interval():
    P = WarpedProfile.from_expr("r")
    with pytest.raises(ValueError, match="increasing"):
        warped_to_conformal(P, (2.0, 0.5))


def test_warped_range_enforced():
    P = WarpedProfile.from_expr("r")
    F, (_, s_hi) = warped_to_conformal(P, (0.5, 2.0))
    with pytest.raises(ValueError, match="outside the reparameterized range"):
        F.r_of_s(s_hi + 0.1)


@pytest.mark.parametrize("text, interval, s_exact", [
    ("r^2", (1.0, 2.0), lambda r: 1.0 - 1.0 / r),
    ("exp(r)", (0.0, 3.0), lambda r: 1.0 - np.exp(-r)),
])
def test_warped_closed_form_profiles(text, interval, s_exact):
    F, (s_lo, s_hi) = warped_to_conformal(WarpedProfile.from_expr(text), interval)
    assert s_lo == 0.0
    assert abs(s_hi - s_exact(interval[1])) < 1e-12
    r = np.linspace(*interval, 201)
    s = F.s_of_r(r)
    assert np.max(np.abs(s - s_exact(r))) < 1e-12
    back = F.r_of_s(s)
    assert np.max(np.abs(back - r)) < 1e-12
    # an array call is the per-scalar calls, bit for bit
    scalar_s = [F.s_of_r(v) for v in r]
    scalar_r = [F.r_of_s(v) for v in s]
    assert all(type(v) is float for v in scalar_s + scalar_r)
    assert np.array_equal(s, scalar_s)
    assert np.array_equal(back, scalar_r)
    # one out-of-range height fails the whole array call
    bad = s.copy()
    bad[100] = s_hi + 0.01
    with pytest.raises(ValueError, match="outside the reparameterized range"):
        F.r_of_s(bad)
    with pytest.raises(ValueError, match="outside the warped interval"):
        F.s_of_r(interval[1] + 0.5)


def test_warped_table_near_a_zero_of_h_is_right_or_refused():
    # h = r - 0.5 + 1e-12 on [0.5, 1]: s_hi = ln(5e11), almost all of it
    # within a few 1e-12 of r = 0.5; a table that cannot resolve that
    # must raise, never return a wrong s_hi
    P = WarpedProfile.from_expr("r - 0.5 + 1e-12")
    try:
        _F, (_, s_hi) = warped_to_conformal(P, (0.5, 1.0))
    except ValueError as exc:
        assert "[0.5, 1]" in str(exc)
    else:
        assert abs(s_hi - np.log(5e11)) < 1e-6


# -- graph geometry fields ----------------------------------------------------

def test_theta_on_cap():
    # on the unit cap the tilt equals the height itself
    g = build_grid(2, (33, 33), (1.0, 1.0), "dirichlet", origin=(-0.5, -0.5))
    u = field_from_expr(g, "sqrt(1 - x1^2 - x2^2)")
    th = graph_normal_env(g, u.values)[0]["t"]
    assert th[16, 16] == 1.0  # flat at the pole, discretely too
    assert np.max(np.abs(th - u.values)) < 1e-3
    assert np.all(th > 0.0)
    assert np.all(th <= 1.0)


def test_second_fundamental_norm_sphere():
    g = build_grid(2, (33, 33), (1.0, 1.0), "dirichlet", origin=(-0.5, -0.5))
    u = field_from_expr(g, "sqrt(1 - x1^2 - x2^2)")
    a2 = second_fundamental_norm(g, u)
    m = ~g.boundary_mask
    assert np.max(np.abs(a2.values[m] - 2.0)) < 2e-3


def test_second_fundamental_norm_circle_1d():
    g = build_grid(1, (65,), (2.0,), "dirichlet", origin=(-1.0,))
    u = field_from_expr(g, "sqrt(4 - x1^2)")
    a2 = second_fundamental_norm(g, u)
    m = ~g.boundary_mask
    assert np.max(np.abs(a2.values[m] - 0.25)) < 1e-4


def test_second_fundamental_norm_plane_is_zero():
    g = build_grid(2, (9, 9), (1.0, 1.0), "dirichlet")
    u = field_from_expr(g, "0.3 + 0.2*x1 - 0.1*x2")
    a2 = second_fundamental_norm(g, u)
    assert np.max(np.abs(a2.values)) < 1e-12


def test_second_fundamental_norm_keeps_the_2d_closed_form_bit_for_bit():
    from pmcgraph.calculus import node_gradients, operators

    # the one formula over the axes, summed in its order, is the former
    # 2-D branch written out: M = g^-1 Hess, |A|^2 = tr(M M)/omega^2
    g = build_grid(2, (33, 29), (1.0, 1.0), ("dirichlet", "periodic"), origin=(-0.5, 0.0))
    u = field_from_expr(g, f"sqrt(2 - x1^2) + 0.2*sin({TWO_PI}*x2)*x1")
    ops = operators(g)
    v1, v2 = node_gradients(g, u.values)
    omega2 = 1.0 + (v1 * v1 + v2 * v2)
    h11 = ops.div[0](ops.along[0](u.values))
    h22 = ops.div[1](ops.along[1](u.values))
    h12 = ops.grad[1](v1)
    g11 = 1.0 - v1 * v1 / omega2
    g22 = 1.0 - v2 * v2 / omega2
    g12 = -v1 * v2 / omega2
    m11 = g11 * h11 + g12 * h12
    m12 = g11 * h12 + g12 * h22
    m21 = g12 * h11 + g22 * h12
    m22 = g12 * h12 + g22 * h22
    want = (m11 * m11 + 2.0 * m12 * m21 + m22 * m22) / omega2
    want[g.boundary_mask] = 0.0
    assert np.array_equal(second_fundamental_norm(g, u).values, want)


def test_jacobi_residual_cap():
    # interior residual of the tilt in the stability equation, measured on
    # the fixed region three coarse spacings inside the boundary (nearer
    # rows difference one-sided-stencil noise and stay O(1) at every h)
    errs = []
    for s in (33, 65):
        g = build_grid(2, (s, s), (1.0, 1.0), "dirichlet", origin=(-0.5, -0.5))
        u = field_from_expr(g, "sqrt(1 - x1^2 - x2^2)")
        r = jacobi_residual(g, u, parse_pmc("2"))
        errs.append(np.max(np.abs(r.values[interior_collar(g, 3.0 / 32)])))
    assert errs[0] < 8e-3
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_jacobi_residual_catenoid():
    g = build_grid(2, (65, 65), (1.0, 1.0), "dirichlet", origin=(1.25, -0.5))
    u = field_from_expr(g, "ln(sqrt(x1^2 + x2^2) + sqrt(x1^2 + x2^2 - 1))")
    m = interior_collar(g, 3.0 / 32)
    rp = pmc_residual(g, u, parse_pmc("0"))
    assert np.max(np.abs(rp.values[m])) < 3e-4
    rj = jacobi_residual(g, u, parse_pmc("0"))
    assert np.max(np.abs(rj.values[m])) < 3e-3


@pytest.mark.parametrize("name, label", [
    (None, "conformal factor"),
    ("x1", "factor gradient"),
    ("x2", "factor gradient"),
    ("r", "factor height derivative"),
])
def test_factor_domain_errors_keep_their_labels(name, label):
    F = ConformalFactor.from_expr("sqrt(x1) + sqrt(x2) + sqrt(r)")
    # the value is finite at 0, its derivatives 0.5/sqrt(0) are not
    env = dict(zip(FACTOR_2D, (0.0, 0.0, -1.0 if name is None else 0.0)))
    with pytest.raises(EvalDomainError, match=f"^{label} evaluated to a non-finite value"):
        F.eval(env) if name is None else F.partial(name, env)


def test_callable_factor_reads_its_base_off_its_parameter_count():
    # a 1-D factor f(x1, r) under the 1-D conformal curvature
    grid = build_grid(1, 8, 1.0, "dirichlet")
    F = ConformalFactor.from_callable(lambda x1, r: -np.log(r), d_base=(lambda x1, r: 0.0 * r,),
                                      d_r=lambda x1, r: -1.0 / r)
    assert F.ast.variables() == {"x1", "r"}
    assert np.array_equal(conformal_mean_curvature(grid, constant_field(grid, 1.5), F).values,
                          conformal_mean_curvature(grid, constant_field(grid, 1.5),
                                                   ConformalFactor.from_expr("-ln(r)")).values)
    with pytest.raises(ValueError, match="callable of 1 parameters"):
        ConformalFactor.from_callable(lambda r: -np.log(r))
