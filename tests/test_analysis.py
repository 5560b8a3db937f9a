import numpy as np
import pytest

from pmcgraph.analysis import (
    RefinementReport,
    _suspect_flag,
    area_functional,
    blowup_diagnostics,
    domain_volume,
    mesh_area_oracle,
    total_variation,
)
from pmcgraph.grid import ScalarField, build_grid, constant_field
from pmcgraph.pmc import QuasiDecomposition, parse_pmc
from pmcgraph.solver import BarrierPair, SolveConfig

TWO_PI = 6.283185307179586


def _unit_square(n=17, topology="dirichlet", origin=None):
    return build_grid(2, (n, n), (1.0, 1.0), (topology, topology), origin=origin)


def test_area_of_flat_graph_is_domain_volume():
    for topo, n in (("dirichlet", 17), ("periodic", 16)):
        g = _unit_square(n, topo)
        u = constant_field(g, 0.7)
        assert abs(area_functional(g, u) - 1.0) < 1e-12
        assert abs(domain_volume(g) - 1.0) < 1e-12
        # one-sided stencil arithmetic leaves rounding dust, nothing more
        assert total_variation(g, u) < 1e-13


def test_area_of_affine_graph():
    g = _unit_square(33)
    x1 = g.node_positions()[0]
    u = ScalarField(g, x1.copy())
    # one-sided boundary stencils are exact on affine data
    assert abs(area_functional(g, u) - np.sqrt(2.0)) < 1e-12
    assert abs(total_variation(g, u) - 1.0) < 1e-12


def test_area_translation_invariance_is_exact():
    g = _unit_square(16, "periodic")
    x1, x2 = g.node_positions()
    u = ScalarField(g, 0.2 * np.sin(TWO_PI * x1) + 0.1 * np.cos(TWO_PI * x2))
    shifted = ScalarField(g, u.values + 0.7)
    assert area_functional(g, u) == area_functional(g, shifted)


def test_total_variation_of_sine_sheet():
    # integral of |2*pi*cos(2*pi*x1)| over the unit square is 4; the kinks of
    # the integrand sit on grid nodes, so only the O(h^2) gradient error is
    # visible
    errs = []
    for n in (64, 128):
        g = _unit_square(n, "periodic")
        x1 = g.node_positions()[0]
        u = ScalarField(g, np.sin(TWO_PI * x1))
        errs.append(abs(total_variation(g, u) - 4.0))
    assert errs[0] < 0.01
    assert errs[0] / errs[1] > 3.0


def test_mesh_oracle_flat_and_planar_are_exact():
    g = _unit_square(17)
    assert mesh_area_oracle(g, constant_field(g, 0.0)) == 1.0
    x1 = g.node_positions()[0]
    assert abs(mesh_area_oracle(g, ScalarField(g, x1.copy())) - np.sqrt(2.0)) < 1e-12


def test_mesh_oracle_closes_periodic_cells():
    g = _unit_square(16, "periodic")
    assert abs(mesh_area_oracle(g, constant_field(g, 0.3)) - 1.0) < 1e-12
    x1 = g.node_positions()[0]
    u = ScalarField(g, 0.1 * np.sin(TWO_PI * x1))
    a_mesh = mesh_area_oracle(g, u)
    a_func = area_functional(g, u)
    assert abs(a_mesh - a_func) / a_func < 0.01


def test_mesh_oracle_rejects_1d():
    g = build_grid(1, 17, 1.0, "dirichlet")
    with pytest.raises(ValueError, match="arc-length"):
        mesh_area_oracle(g, constant_field(g, 0.0))


def test_mesh_oracle_tracks_area_functional_on_cap():
    rel = []
    for n in (17, 33):
        g = _unit_square(n, origin=(-0.5, -0.5))
        pos = g.node_positions()
        cap = np.sqrt(4.0 - pos[0] ** 2 - pos[1] ** 2)
        u = ScalarField(g, cap)
        a = area_functional(g, u)
        rel.append(abs(mesh_area_oracle(g, u) - a) / a)
    assert rel[0] < 0.02
    assert rel[1] < rel[0]


def test_perimeter_lower_bound_holds_for_smooth_fields():
    rng = np.random.default_rng(11)
    g = _unit_square(16, "periodic")
    x1, x2 = g.node_positions()
    fields = [
        constant_field(g, 1.3),
        ScalarField(g, 0.4 * np.sin(TWO_PI * x1) - 0.2 * np.cos(TWO_PI * x2)),
        ScalarField(g, rng.standard_normal(g.shape)),
    ]
    for u in fields:
        area = area_functional(g, u)
        assert area >= domain_volume(g) - 1e-12
        assert area >= total_variation(g, u) - 1e-12


def _constant_pair(lower, upper, trace=None):
    # a builder of constant barriers, with a constant trace on dirichlet grids
    return lambda grid: BarrierPair(
        constant_field(grid, lower), constant_field(grid, upper),
        None if trace is None else constant_field(grid, trace))


def test_refinement_study_on_flat_problem():
    g = build_grid(1, 17, 1.0, "dirichlet")
    rep = blowup_diagnostics(parse_pmc("0"), _constant_pair(-0.5, 0.5, 0.0), g, levels=3)
    assert len(rep.rows) == 3
    assert all(row["converged"] for row in rep.rows)
    assert all(row["max_grad"] < 1e-10 for row in rep.rows)
    assert not rep.suspected_nongraphical
    assert rep.levels[0] == 2 * rep.levels[1]
    d = rep.to_dict()
    assert d["errors"] == []


def test_refinement_study_accepts_split_prescription():
    g = build_grid(1, 16, 1.0, "periodic")
    D = QuasiDecomposition(parse_pmc("-z"), parse_pmc("0.3"))
    rep = blowup_diagnostics(D, _constant_pair(-1.0, 1.0), g, levels=2)
    assert all(abs(row["area"] - 1.0) < 1e-10 for row in rep.rows)
    assert not rep.suspected_nongraphical


def test_refinement_study_steepening_cap():
    # R close to the domain circumradius: refinement resolves the steep rim
    # better and the worst tilt keeps decreasing.  The barriers are rebuilt
    # from the closed form on every level -- interpolating them would leave
    # curvature noise the finer residual checks cannot absorb.
    R = 0.8

    def pair_for(grid):
        pos = grid.node_positions()
        cap = np.sqrt(R * R - pos[0] ** 2 - pos[1] ** 2)
        return BarrierPair(ScalarField(grid, cap - 0.05),
                           ScalarField(grid, cap + 0.05),
                           ScalarField(grid, cap))

    g = _unit_square(17, origin=(-0.5, -0.5))
    cfg = SolveConfig(allowance_constant=60.0)
    rep = blowup_diagnostics(parse_pmc(f"{2.0 / R}"), pair_for, g, cfg=cfg, levels=3)
    thetas = [row["min_theta"] for row in rep.rows if row["converged"]]
    assert len(thetas) == 3
    assert thetas[0] > thetas[1] > thetas[2]
    assert not rep.suspected_nongraphical


def test_refinement_study_continues_past_failures(monkeypatch):
    import pmcgraph.solver as solver

    # one Newton step is too few for either level
    monkeypatch.setattr(solver, "NEWTON_BUDGET", 1)
    g = build_grid(1, 17, 1.0, "dirichlet")
    rep = blowup_diagnostics(parse_pmc("1.5"), _constant_pair(-0.5, 0.5, 0.0), g,
                             levels=2)
    assert len(rep.rows) == 2
    assert rep.errors and not rep.suspected_nongraphical


def test_refinement_study_keeps_the_levels_it_solved_when_a_finer_build_fails():
    g = _unit_square(9, "periodic")
    coarse = _constant_pair(-1.0, 1.0)

    def build(grid):
        if grid != g:
            raise ValueError("no barriers on the refined grid")
        return coarse(grid)

    rep = blowup_diagnostics(parse_pmc("-z"), build, g, levels=3)
    assert [row["converged"] for row in rep.rows] == [True, False, False]
    assert rep.rows[0]["consistency_ok"]
    assert rep.errors == [{"level": level, "error": "no barriers on the refined grid"}
                          for level in (1, 2)]
    assert not rep.suspected_nongraphical
    # the coarsest pair is the study's own precondition: its failure is raised
    with pytest.raises(ValueError, match="no barriers"):
        blowup_diagnostics(parse_pmc("-z"), build, build_grid(2, (8, 8), (1.0, 1.0), "periodic"))


def test_suspect_flag_logic():
    assert _suspect_flag([0.1, 0.25, 0.6], True)
    assert not _suspect_flag([0.1, 0.15, 0.6], True)
    assert not _suspect_flag([0.1, 0.25, 0.6], False)
    assert not _suspect_flag([0.0, 0.0], True)
    assert not _suspect_flag([0.3], True)
    # doubling at the rounding floor is noise, not blow-up
    assert not _suspect_flag([1e-13, 1e-12, 1e-11], True)


def test_report_requires_two_levels():
    with pytest.raises(ValueError, match="at least 2"):
        RefinementReport([{"spacing": 0.1}], {}, False, [])
    g = build_grid(1, 16, 1.0, "periodic")
    with pytest.raises(ValueError, match="at least 2"):
        blowup_diagnostics(parse_pmc("-z"), _constant_pair(-1.0, 1.0), g, levels=1)
