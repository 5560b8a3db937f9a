import os

import numpy as np
import pytest

from pmcgraph.expr import ParseError, parse_expr
from pmcgraph.grid import (
    ScalarField,
    build_grid,
    constant_field,
    face_positions,
    field_from_expr,
    read_field_csv,
    refine_grid,
    sup_norm,
    write_field_csv,
)

TWO_PI = 6.283185307179586


def test_spacing_conventions():
    per = build_grid(1, 64, 1.0, "periodic")
    assert per.spacing == (0.015625,)  # 1/64 exactly
    dir_ = build_grid(1, 65, 1.0, "dirichlet")
    assert dir_.spacing == (0.015625,)  # 1/64 exactly
    assert per.node_count == 64 and dir_.node_count == 65


def test_axis_coords_and_positions():
    g = build_grid(2, (8, 5), (2.0, 1.0), ("periodic", "dirichlet"), origin=(-1.0, 0.0))
    assert np.allclose(g.axis_coords[0], -1.0 + 0.25 * np.arange(8), atol=0)
    assert np.allclose(g.axis_coords[1], 0.25 * np.arange(5), atol=0)
    X1, X2 = g.node_positions()
    assert X1.shape == (8, 5) and X2.shape == (8, 5)
    assert X1[3, 0] == g.axis_coords[0][3]
    assert X2[0, 4] == 1.0


def test_boundary_masks():
    assert not build_grid(2, (10, 8), (1, 1), "periodic").boundary_mask.any()
    d = build_grid(2, (10, 8), (1, 1), "dirichlet")
    assert np.flatnonzero(d.boundary_mask).size == 32  # perimeter of a 10x8 lattice
    mixed = build_grid(2, (10, 8), (1, 1), ("periodic", "dirichlet"))
    assert np.flatnonzero(mixed.boundary_mask).size == 20
    d1 = build_grid(1, 9, 1.0, "dirichlet")
    assert list(np.flatnonzero(d1.boundary_mask)) == [0, 8]


def test_validation_errors():
    with pytest.raises(ValueError):
        build_grid(3, (4, 4, 4), (1, 1, 1), "periodic")
    with pytest.raises(ValueError):
        build_grid(1, 3, 1.0, "periodic")  # too few nodes
    with pytest.raises(ValueError):
        build_grid(1, 8, -1.0, "periodic")
    with pytest.raises(ValueError):
        build_grid(1, 8, 1.0, "neumann")
    with pytest.raises(ValueError):
        build_grid(2, (8, 8), (1, 1), ("periodic",) * 3)


def test_field_from_expr_matches_direct_eval():
    g = build_grid(1, 64, 1.0, "periodic")
    f = field_from_expr(g, f"sin({TWO_PI}*x1)")
    want = np.sin(TWO_PI * np.arange(64) / 64.0)
    assert np.max(np.abs(f.values - want)) < 1e-15


def test_field_expr_rejects_out_of_scope_variables():
    g = build_grid(1, 8, 1.0, "periodic")
    with pytest.raises(Exception) as err:
        field_from_expr(g, "sin(z)")
    assert "z" in str(err.value)
    with pytest.raises(Exception) as err:
        field_from_expr(g, "x2")
    assert "x2" in str(err.value)


def test_constant_expression_broadcasts():
    g = build_grid(2, (6, 4), (1, 1), "periodic")
    f = field_from_expr(g, "0.25")
    assert f.values.shape == (6, 4)
    assert np.all(f.values == 0.25)


def test_fields_are_immutable():
    g = build_grid(1, 8, 1.0, "periodic")
    f = constant_field(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        g.boundary_mask[0] = True


def test_non_finite_field_rejected():
    g = build_grid(1, 8, 1.0, "periodic")
    vals = np.zeros(8)
    vals[3] = np.inf
    with pytest.raises(ValueError):
        ScalarField(g, vals)


def test_sup_norm_and_grid_identity():
    g = build_grid(1, 8, 1.0, "periodic")
    a = constant_field(g, 1.0)
    b = constant_field(g, -0.5)
    assert sup_norm(a) == 1.0
    assert sup_norm(a, b) == 1.5
    other = build_grid(1, 8, 2.0, "periodic")
    with pytest.raises(ValueError):
        sup_norm(a, constant_field(other, 1.0))


def test_csv_header_format(tmp_path):
    g = build_grid(2, (6, 4), (1.0, 2.5), ("periodic", "dirichlet"), origin=(0.0, -1.25))
    f = constant_field(g, 0.5)
    path = os.path.join(tmp_path, "f.csv")
    write_field_csv(f, path)
    with open(path) as fh:
        head = fh.readline().rstrip("\n")
    assert head == "# dim=2 shape=6,4 lengths=1,2.5 topology=p,d origin=0,-1.25"


def test_csv_roundtrip_exact(tmp_path):
    g = build_grid(2, (6, 5), (1.0, 3.0), ("periodic", "dirichlet"), origin=(0.25, 0.0))
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.standard_normal(g.shape))
    path = os.path.join(tmp_path, "f.csv")
    write_field_csv(f, path)
    back = read_field_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_csv_error_cases(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as fh:
        fh.write("1.0\n2.0\n")
    with pytest.raises(ValueError):
        read_field_csv(path)
    with open(path, "w") as fh:
        fh.write("# dim=1 shape=8 lengths=1 topology=p origin=0\n1.0\n")
    with pytest.raises(ValueError):
        read_field_csv(path)  # wrong value count


def test_face_positions_offset():
    g = build_grid(1, 8, 1.0, "dirichlet")
    (fx,) = face_positions(g, 0)
    h = g.spacing[0]
    assert fx.shape == (7,)
    assert abs(fx[0] - 0.5 * h) < 1e-15


def test_refine_periodic_and_dirichlet():
    gp = build_grid(1, 8, 1.0, "periodic")
    fp = refine_grid(gp)
    assert fp.shape == (16,) and abs(fp.spacing[0] - gp.spacing[0] / 2) < 1e-16
    gd = build_grid(1, 9, 1.0, "dirichlet")
    fd = refine_grid(gd)
    assert fd.shape == (17,) and abs(fd.spacing[0] - gd.spacing[0] / 2) < 1e-16


def test_one_dimensional_field_expression_refuses_x2():
    # unlike a prescription, a field expression reads the grid's own axes only
    g = build_grid(1, 8, 1.0, "periodic")
    with pytest.raises(ParseError, match=r"unknown identifier 'x2' \(allowed variables: x1\)"):
        field_from_expr(g, "x1 + x2")
    with pytest.raises(ValueError, match="variable 'x2' not defined on a 1D base grid"):
        field_from_expr(g, parse_expr("x1 + x2", ("x1", "x2")))
    assert field_from_expr(build_grid(2, (4, 4), (1, 1), "periodic"), "x2").values[0, 1] == 0.25
