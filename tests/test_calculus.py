import numpy as np
import pytest

from pmcgraph.calculus import (
    _divergence,
    face_gradients,
    graph_laplacian,
    integrate,
    mean_curvature_product,
    node_gradients,
    quadrature_weights,
)
from pmcgraph.grid import (
    ScalarField,
    build_grid,
    constant_field,
    face_positions,
    field_from_expr,
    sup_norm,
)

TWO_PI = 6.283185307179586


def interior_max(field):
    vals = np.abs(field.values[~field.grid.boundary_mask])
    return float(vals.max())


# ---------------------------------------------------------------------------
# gradient


def test_gradient_exact_on_quadratics_dirichlet():
    # centered and the second-order one-sided boundary stencils are both
    # exact for quadratics
    g = build_grid(1, 9, 1.0, "dirichlet")
    u = field_from_expr(g, "x1^2")
    (du,) = node_gradients(g, u.values)
    assert np.max(np.abs(du - 2.0 * g.axis_coords[0])) < 1e-13


def test_gradient_order_periodic():
    errs = []
    for s in (32, 64):
        g = build_grid(1, s, 1.0, "periodic")
        u = field_from_expr(g, f"sin({TWO_PI}*x1)")
        (du,) = node_gradients(g, u.values)
        want = TWO_PI * np.cos(TWO_PI * g.axis_coords[0])
        errs.append(np.max(np.abs(du - want)))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9


def test_gradient_2d_components():
    g = build_grid(2, (16, 17), (1.0, 1.0), ("periodic", "dirichlet"))
    u = field_from_expr(g, f"sin({TWO_PI}*x1) + x2^2")
    d1, d2 = node_gradients(g, u.values)
    X1, X2 = g.node_positions()
    assert np.max(np.abs(d2 - 2.0 * X2)) < 1e-12
    # centered-difference phase error for sin at h=1/16 is 2*pi*(1-sinc(2*pi*h))
    assert np.max(np.abs(d1 - TWO_PI * np.cos(TWO_PI * X1))) < 0.2


# one-sided ends, wrap-around faces and zero boundary rows: 1-D periodic and
# dirichlet, a dirichlet line of four nodes, a torus, a dirichlet square and
# both mixed orders, with unequal spacings
_SMALL = [((12,), ("periodic",)), ((12,), ("dirichlet",)), ((4,), ("dirichlet",)),
          ((8, 6), ("periodic", "periodic")), ((4, 4), ("dirichlet", "dirichlet")),
          ((8, 9), ("periodic", "dirichlet")), ((9, 8), ("dirichlet", "periodic"))]


@pytest.mark.parametrize("shape, topology", _SMALL)
def test_every_operator_matches_its_dense_matrix(shape, topology):
    from dense_operators import grid_operators

    from pmcgraph.calculus import operators

    grid = build_grid(len(shape), shape, (0.9, 1.3)[:len(shape)], topology)
    rng = np.random.default_rng(5)
    ops = operators(grid)
    for kind, (stencils, dense) in enumerate(zip(ops, grid_operators(grid))):
        for ax, (op, D) in enumerate(zip(stencils, dense)):
            x = rng.standard_normal(op.in_shape)
            out = op(x)
            assert out.shape == op.shape, (kind, ax)
            np.testing.assert_allclose(out.reshape(-1), D @ x.reshape(-1),
                                       rtol=0, atol=1e-13 * np.max(np.abs(D)))
            if kind == 3:
                # div is exactly 0 on every dirichlet layer
                assert np.all(out[grid.boundary_mask] == 0.0)


# ---------------------------------------------------------------------------
# flux divergence


def test_flux_divergence_linear_field_is_exactly_one():
    g = build_grid(2, (17, 17), (1.0, 1.0), "dirichlet")
    fx = face_positions(g, 0)[0]
    div = _divergence(g, (fx, np.zeros((17, 16))))
    inner = div[1:-1, 1:-1]
    assert np.max(np.abs(inner - 1.0)) < 1e-12
    assert np.all(div[g.boundary_mask] == 0.0)


def test_flux_divergence_periodic_integrates_to_zero():
    g = build_grid(2, (12, 8), (1.0, 1.0), "periodic")
    rng = np.random.default_rng(3)
    V = (rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    total = integrate(ScalarField(g, _divergence(g, V)))
    assert abs(total) < 1e-12


def test_face_transverse_gradient_is_four_point_average():
    g = build_grid(2, (8, 8), (1.0, 1.0), "periodic")
    rng = np.random.default_rng(11)
    u = rng.standard_normal(g.shape)
    comps = face_gradients(g, u, 0)
    h = g.spacing[1]
    i, j = 3, 4  # face joining nodes (3,4) and (4,4)
    want = (u[3, 5] - u[3, 3] + u[4, 5] - u[4, 3]) / (4.0 * h)
    assert abs(comps[1][i, j] - want) < 1e-14


# ---------------------------------------------------------------------------
# mean curvature


def test_mcp_constant_and_plane_are_flat():
    g = build_grid(2, (16, 16), (1.0, 1.0), "periodic")
    assert sup_norm(mean_curvature_product(constant_field(g, 0.7))) == 0.0

    gd = build_grid(2, (17, 17), (1.0, 1.0), "dirichlet")
    plane = field_from_expr(gd, "0.3*x1 + 0.4*x2")
    assert interior_max(mean_curvature_product(plane)) < 1e-13


def test_mcp_translation_invariance():
    g = build_grid(2, (16, 16), (1.0, 1.0), "periodic")
    u = field_from_expr(g, f"0.2*sin({TWO_PI}*x1)+0.1*cos({TWO_PI}*x2)")
    shifted = ScalarField(g, u.values + 0.7)
    a = mean_curvature_product(u)
    b = mean_curvature_product(shifted)
    assert sup_norm(a, b) < 1e-12


def cap_error(shape, collar):
    # sup over the fixed common interior of the study (a collar one
    # coarsest-spacing wide), so the measured order is not polluted by the
    # node marching into the corner as h shrinks
    g = build_grid(2, (shape, shape), (1.0, 1.0), "dirichlet", origin=(-0.5, -0.5))
    u = field_from_expr(g, "sqrt(1 - x1^2 - x2^2)")
    H = mean_curvature_product(u)
    X1, X2 = g.node_positions()
    mask = (np.abs(X1) <= 0.5 - collar + 1e-12) & (np.abs(X2) <= 0.5 - collar + 1e-12)
    return float(np.max(np.abs(H.values[mask] - 2.0)))


def test_mcp_spherical_cap_second_order():
    e1, e2 = cap_error(33, 1.0 / 32), cap_error(65, 1.0 / 32)
    assert e1 < 0.05
    assert np.log2(e1 / e2) > 1.8


def test_mcp_1d_circle_arc():
    # graph of sqrt(R^2 - x^2) has curvature 1/R (R = 2 here)
    g = build_grid(1, 65, 1.0, "dirichlet", origin=(-0.5,))
    u = field_from_expr(g, "sqrt(4 - x1^2)")
    H = mean_curvature_product(u)
    assert interior_max(ScalarField(g, H.values - np.where(g.boundary_mask, 0.0, 0.5))) < 2e-4


# ---------------------------------------------------------------------------
# graph laplacian


def test_graph_laplacian_reduces_to_flat_laplacian():
    g = build_grid(2, (17, 17), (1.0, 1.0), "dirichlet")
    flat = constant_field(g, 0.0)
    phi = field_from_expr(g, "x1^2")
    lap = graph_laplacian(flat, phi)
    assert np.max(np.abs(lap.values[~g.boundary_mask] - 2.0)) < 1e-11


def test_graph_laplacian_grid_mismatch():
    g = build_grid(1, 8, 1.0, "periodic")
    h = build_grid(1, 8, 2.0, "periodic")
    with pytest.raises(ValueError):
        graph_laplacian(constant_field(g, 0.0), constant_field(h, 0.0))


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_periodic_sine_squared():
    g = build_grid(1, 64, 1.0, "periodic")
    f = field_from_expr(g, f"sin({TWO_PI}*x1)^2")
    assert abs(integrate(f) - 0.5) < 1e-12


def test_integrate_constants_exact():
    gd = build_grid(2, (9, 13), (2.0, 3.0), "dirichlet")
    assert abs(integrate(constant_field(gd, 1.0)) - 6.0) < 1e-12
    gp = build_grid(2, (8, 8), (2.0, 3.0), "periodic")
    assert abs(integrate(constant_field(gp, 1.0)) - 6.0) < 1e-12


def test_quadrature_weights_shape_and_sum():
    g = build_grid(2, (9, 13), (2.0, 3.0), ("periodic", "dirichlet"))
    w = quadrature_weights(g)
    assert w.shape == g.shape
    assert abs(w.sum() - 6.0) < 1e-12
