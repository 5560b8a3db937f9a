import numpy as np
import pytest

from pmcgraph.grid import ScalarField, build_grid, sup_norm
from pmcgraph.pmc import (
    PMCFunction,
    QuasiDecomposition,
    WorkingBox,
    parse_pmc,
    pmc_residual,
)
from pmcgraph.solver import (
    BarrierPair,
    Cutoff,
    LaggedLU,
    MonotonicityError,
    SolveConfig,
    SolverFailure,
    assemble_jacobian,
    barriers_from_phi,
    check_barrier,
    gamma_for,
    outer_iterate,
    penalized_pmc,
    solve_inner,
    solve_quasi,
)
from pmcgraph.calculus import mean_curvature_product_values
from pmcgraph.pmc import graph_normal_env

TWO_PI = 6.283185307179586


def _residual_vec(grid, values, F):
    env, _ = graph_normal_env(grid, values)
    return (mean_curvature_product_values(grid, values)
            - np.asarray(F._fn(env), dtype=float)).reshape(-1)


def _jacobian_and_differences(grid, u, F, columns, eps=1e-6):
    """The unknowns' Jacobian at u, with centered differences of the
    residual's unknown rows by each unknown of `columns`, in order.

    Also checks that a shift of 0.5 adds 0.5 to the diagonal and nothing
    else.
    """
    unknown = np.flatnonzero(~grid.boundary_mask.reshape(-1))
    J = assemble_jacobian(grid, u, F).toarray()
    np.testing.assert_array_equal(
        assemble_jacobian(grid, u, F, shift=0.5).toarray(),
        J + 0.5 * np.eye(unknown.size))
    diffs = []
    for k in columns:
        up = u.reshape(-1).copy()
        dn = u.reshape(-1).copy()
        up[unknown[k]] += eps
        dn[unknown[k]] -= eps
        fd = (_residual_vec(grid, up.reshape(grid.shape), F)
              - _residual_vec(grid, dn.reshape(grid.shape), F)) / (2 * eps)
        diffs.append(fd[unknown])
    return J, diffs


# ---------------------------------------------------------------------------
# Jacobian


@pytest.mark.parametrize("shape, topology", [
    ((8, 9), ("periodic", "dirichlet")),
    ((8, 8), ("periodic", "periodic")),
    ((9, 8), ("dirichlet", "periodic")),
    ((9, 9), ("dirichlet", "dirichlet")),
    ((8,), ("periodic",)),
], ids=["periodic-dirichlet", "periodic-periodic", "dirichlet-periodic",
        "dirichlet-dirichlet", "periodic-1d"])
def test_jacobian_matches_finite_differences_mixed_grid(shape, topology):
    grid = build_grid(len(shape), shape, (1.0,) * len(shape), topology)
    rng = np.random.default_rng(7)
    u = 0.4 * rng.standard_normal(grid.shape)
    F = parse_pmc(
        "0.4*z - 0.3*t + 0.2*sin(y1) + 0.1*y1*y2 + 0.02*x2 "
        "- 0.05*cos(6.283185307179586*x1)")
    n = int(np.count_nonzero(~grid.boundary_mask))
    columns = rng.choice(n, size=min(n, 30), replace=False)
    J, diffs = _jacobian_and_differences(grid, u, F, columns)
    worst = 0.0
    for k, fd in zip(columns, diffs):
        diff = np.max(np.abs(J[:, k] - fd))
        scale = max(1.0, np.max(np.abs(fd)))
        worst = max(worst, diff / scale)
    assert worst <= 1e-5


def test_jacobian_matches_finite_differences_1d_dirichlet():
    grid = build_grid(1, (9,), (1.0,), ("dirichlet",))
    rng = np.random.default_rng(3)
    u = 0.5 * rng.standard_normal(grid.shape)
    F = parse_pmc("0.3*z + 0.4*sin(y1) - 0.2*t + 0.1*x1")
    columns = range(int(np.count_nonzero(~grid.boundary_mask)))
    J, diffs = _jacobian_and_differences(grid, u, F, columns)
    for k, fd in zip(columns, diffs):
        assert np.max(np.abs(J[:, k] - fd)) <= 1e-5


# ---------------------------------------------------------------------------
# cutoff profile


def test_cutoff_plateau_and_support_are_exact():
    cut = Cutoff(0.0, 1.0, -1.0, 2.0)
    assert cut.a_ramp == -0.5 and cut.b_ramp == 1.5
    assert cut.h(0.0) == 1.0 and cut.h(0.5) == 1.0 and cut.h(1.0) == 1.0
    assert cut.h(-0.5) == 0.0 and cut.h(-0.9) == 0.0
    assert cut.h(1.5) == 0.0 and cut.h(1.9) == 0.0
    assert cut.h_prime(0.5) == 0.0 and cut.h_prime(-0.8) == 0.0


def test_cutoff_ramp_frozen_values():
    cut = Cutoff(0.0, 1.0, -1.0, 2.0)
    # quintic smoothstep: value 1/2 and slope 1.875/width at the ramp midpoint
    assert abs(cut.h(-0.25) - 0.5) < 1e-15
    assert abs(cut.h_prime(-0.25) - 3.75) < 1e-15
    assert abs(cut.h(1.25) - 0.5) < 1e-15
    assert abs(cut.h_prime(1.25) + 3.75) < 1e-15
    # C^1 at the plateau edge
    assert abs(cut.h(-1e-9) - 1.0) < 1e-8
    assert abs(cut.h_prime(-1e-9)) < 1e-7
    r = np.linspace(-1.0, 2.0, 601)
    hv = cut.h(r)
    assert np.all(hv >= 0.0) and np.all(hv <= 1.0)


def test_cutoff_rejects_bad_ordering():
    with pytest.raises(ValueError, match="a < c1 < c2 < b"):
        Cutoff(0.5, 0.4, 0.0, 1.0)
    with pytest.raises(ValueError, match="a < c1 < c2 < b"):
        Cutoff(0.0, 1.0, 0.2, 2.0)


# ---------------------------------------------------------------------------
# penalty size


def test_gamma_frozen_value_for_sine_prescription():
    H = parse_pmc("0.5*sin(z)")
    cut = Cutoff(-1.0, 1.0, -3.0, 3.0)
    box = WorkingBox((-1.0, 1.0), ((0.0, 1.0),))
    g = gamma_for(H, cut, box, samples=9)
    # lattice keeps z inside the plateau, so the slope is 0.5*cos(z),
    # maximized at the sampled point z = 0
    assert abs(float(g) - 1.525) < 1e-14
    assert abs(g.sup_slope - 0.5) < 1e-14
    assert g.worst_point["z"] == 0.0
    cert = g.certificate()
    assert cert["gamma"] == float(g) and cert["samples"] == 9


def test_gamma_floor_is_one():
    box = WorkingBox((-1.0, 1.0), ((0.0, 1.0),))
    cut = Cutoff(-1.0, 1.0, -3.0, 3.0)
    assert float(gamma_for(parse_pmc("0"), cut, box)) == 1.0
    # height-free prescriptions need no penalty beyond the floor
    assert float(gamma_for(parse_pmc("0.3*sin(x1)"), cut, box)) == 1.0


def test_penalized_prescription_is_uniformly_decreasing():
    H = parse_pmc("0.5*sin(z)")
    cut = Cutoff(-1.0, 1.0, -3.0, 3.0)
    box = WorkingBox((-1.0, 1.0), ((0.0, 1.0),))
    g = gamma_for(H, cut, box)
    F = penalized_pmc(H, cut, g)
    assert F.provenance == "penalized"
    # on the plateau: d/dz = 0.5*cos(z) - gamma, equal to -1.025 at z=0
    dz = F.d_z(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert abs(dz + 1.025) < 1e-14
    env = box.sample_lattice(9)
    slope = F._partial("z", env)
    assert np.max(slope) <= -1.0 + 1e-12
    # outside the cutoff support only the penalty survives
    val = F.eval(0.0, 0.0, 2.5, 0.0, 0.0, 1.0)
    assert abs(val + float(g) * 2.5) < 1e-14


# ---------------------------------------------------------------------------
# barrier checks


def test_check_barrier_torus_sine_frozen_residuals():
    grid = build_grid(2, (32, 32), (1.0, 1.0), ("periodic", "periodic"))
    H = parse_pmc(f"0.5*sin(z) + 0.1*sin({TWO_PI}*x1)")
    lo = ScalarField(grid, np.full(grid.shape, 0.25))
    hi = ScalarField(grid, np.full(grid.shape, np.pi + 0.25))
    B = BarrierPair(lo, hi)
    out = check_barrier(B, H)
    assert out["passed"]
    # flat barriers: residual is -H evaluated at the barrier height, and the
    # grid contains the extremal points of sin(2*pi*x1) exactly
    assert abs(out["worst_sub"] - (0.1 - 0.5 * np.sin(0.25))) < 1e-13
    assert abs(out["worst_super"] - (0.5 * np.sin(0.25) - 0.1)) < 1e-13
    assert abs(out["worst_sub"] + 0.02370197962726147) < 1e-13
    assert out["tol"] == 1e-8 + 10.0 * grid.max_spacing() ** 2


def test_check_barrier_cap_translates():
    # a vertical translate of an exact solution is a barrier on either side
    grid = build_grid(2, (17, 17), (1.0, 1.0), ("dirichlet", "dirichlet"),
                origin=(-0.5, -0.5))
    pos = grid.node_positions()
    rho2 = pos[0] ** 2 + pos[1] ** 2
    cap = np.sqrt(4.0 - rho2)
    psi = ScalarField(grid, cap.copy())
    B = BarrierPair(ScalarField(grid, cap - 0.1),
                    ScalarField(grid, cap + 0.1), psi)
    out = check_barrier(B, parse_pmc("1"))
    assert out["passed"]


def test_check_barrier_rejects_unordered_interior():
    grid = build_grid(1, (17,), (1.0,), ("periodic",))
    c = ScalarField(grid, np.zeros(grid.shape))
    B = BarrierPair(c, ScalarField(grid, np.zeros(grid.shape)))
    with pytest.raises(ValueError, match="not strictly ordered"):
        check_barrier(B, parse_pmc("0"))


def test_barrier_pair_validation():
    grid = build_grid(1, (17,), (1.0,), ("periodic",))
    lo = ScalarField(grid, np.zeros(grid.shape))
    hi = ScalarField(grid, np.ones(grid.shape))
    with pytest.raises(ValueError, match="lower barrier exceeds"):
        BarrierPair(hi, lo)
    with pytest.raises(ValueError, match="no boundary trace"):
        BarrierPair(lo, hi, ScalarField(grid, np.zeros(grid.shape)))
    dgrid = build_grid(1, (17,), (1.0,), ("dirichlet",))
    dlo = ScalarField(dgrid, np.zeros(dgrid.shape))
    dhi = ScalarField(dgrid, np.ones(dgrid.shape))
    with pytest.raises(ValueError, match="needs a boundary trace"):
        BarrierPair(dlo, dhi)
    bad = ScalarField(dgrid, np.full(dgrid.shape, 2.0))
    with pytest.raises(ValueError, match="bracket"):
        BarrierPair(dlo, dhi, bad)


# ---------------------------------------------------------------------------
# inner solve


def test_inner_solve_linear_height_coupling():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    init = ScalarField(grid, np.full(grid.shape, 3.0))
    u, rep = solve_inner(grid, parse_pmc("-z"), None, init)
    assert rep["converged"] and not rep["bordered"]
    assert rep["newton_steps"] <= 3
    assert np.max(np.abs(u.values)) < 1e-9

    u2, _ = solve_inner(grid, parse_pmc("1.7 - z"), None,
                        ScalarField(grid, np.zeros(grid.shape)))
    assert np.max(np.abs(u2.values - 1.7)) < 1e-9


def test_inner_solve_pins_mean_when_gauge_free():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    x = grid.node_positions()[0]
    init = ScalarField(grid, 0.7 + 0.3 * np.sin(TWO_PI * x))
    u, rep = solve_inner(grid, parse_pmc("0"), None, init)
    assert rep["bordered"]
    # minimal graphs over the circle are constants; the gauge keeps the mean
    assert np.max(np.abs(u.values - 0.7)) < 1e-8


def test_inner_solve_cap_dirichlet():
    grid = build_grid(2, (17, 17), (1.0, 1.0), ("dirichlet", "dirichlet"),
                origin=(-0.5, -0.5))
    pos = grid.node_positions()
    cap = np.sqrt(4.0 - pos[0] ** 2 - pos[1] ** 2)
    psi = ScalarField(grid, cap.copy())
    init = ScalarField(grid, np.full(grid.shape, float(np.min(cap))))
    box = WorkingBox.from_grid(grid, (1.0, 2.5))
    u, rep = solve_inner(grid, parse_pmc("1"), psi, init, box=box)
    assert rep["converged"]
    err = np.max(np.abs(u.values - cap))
    assert err < 1e-3

    # a second start far from the solution lands on the same discrete answer
    init2 = ScalarField(grid, cap + 0.2 * np.cos(np.pi * pos[0]) *
                        np.cos(np.pi * pos[1]))
    u2, _ = solve_inner(grid, parse_pmc("1"), psi, init2, box=box)
    assert sup_norm(u, u2) < 10 * 1e-10


def test_inner_solve_refuses_increasing_prescription():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    init = ScalarField(grid, np.zeros(grid.shape))
    box = WorkingBox.from_grid(grid, (-1.0, 1.0))
    with pytest.raises(ValueError, match="refuses to run"):
        solve_inner(grid, parse_pmc("z"), None, init, box=box)


def test_inner_solve_budget_failure_carries_best_iterate():
    grid = build_grid(2, (17, 17), (1.0, 1.0), ("dirichlet", "dirichlet"),
                origin=(-0.5, -0.5))
    pos = grid.node_positions()
    cap = np.sqrt(4.0 - pos[0] ** 2 - pos[1] ** 2)
    psi = ScalarField(grid, cap.copy())
    init = ScalarField(grid, np.full(grid.shape, float(np.min(cap))))
    cfg = SolveConfig(max_newton=1)
    with pytest.raises(SolverFailure, match="exhausted") as exc:
        solve_inner(grid, parse_pmc("1"), psi, init, cfg)
    assert exc.value.best is not None
    assert exc.value.best.grid == grid
    assert len(exc.value.residual_history) == 2


def test_inner_solve_pseudo_time_fallback():
    # a min_step of 1 tries the full Newton step alone, and an armijo
    # constant of 0.5 refuses it from this flat seed, so the
    # pseudo-transient branch does all the work
    grid = build_grid(2, (17, 17), (1.0, 1.0), ("dirichlet", "dirichlet"),
                origin=(-0.5, -0.5))
    pos = grid.node_positions()
    cap = np.sqrt(4.0 - pos[0] ** 2 - pos[1] ** 2)
    psi = ScalarField(grid, cap.copy())
    init = ScalarField(grid, np.full(grid.shape, float(np.min(cap))))
    cfg = SolveConfig(min_step=1.0, armijo_c=0.5, max_newton=200)
    u, rep = solve_inner(grid, parse_pmc("1"), psi, init, cfg)
    assert rep["ptc_steps"] > 0 and rep["newton_steps"] == 0
    assert np.max(np.abs(u.values - cap)) < 1e-3


def test_solve_config_refuses_steps_and_thresholds_out_of_range():
    for key, value in (("min_step", 2.0), ("min_step", 0.0), ("min_step", -1.0),
                       ("theta_threshold", 0.0), ("theta_threshold", 1.5),
                       ("allowance_constant", -1.0), ("min_step", float("nan"))):
        with pytest.raises(ValueError, match=key):
            SolveConfig(**{key: value})
    cfg = SolveConfig(min_step=1.0, theta_threshold=1.0, allowance_constant=0.0)
    assert (cfg.min_step, cfg.theta_threshold, cfg.allowance_constant) == (1.0, 1.0, 0.0)


def test_a_min_step_of_zero_would_count_zero_steps_as_newton_steps(monkeypatch):
    import pmcgraph.solver as solver

    # a tolerance below the residual's rounding floor: once the iterate
    # reaches that floor, no step s >= min_step passes the line search
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    init = ScalarField(grid, 1.3 + 0.1 * np.sin(TWO_PI * np.arange(16) / 16))
    F = parse_pmc("1 - z + 0.1*sin(z)")
    real = solver.assemble_jacobian

    def run(min_step):
        seen = []

        def recording(grid, values, F, shift=0.0, parts=None):
            seen.append((values.copy(), shift))
            return real(grid, values, F, shift, parts)

        monkeypatch.setattr(solver, "assemble_jacobian", recording)
        cfg = SolveConfig(tol_inner=1e-300, max_newton=8)
        # set after construction, which now refuses a min_step of 0
        cfg.min_step = min_step
        with pytest.raises(SolverFailure):
            solve_inner(grid, F, None, init, cfg)
        return seen

    # the default halts the line search and moves to pseudo-time steps
    assert any(shift > 0.0 for _, shift in run(SolveConfig().min_step))
    # at 0 the halving reaches a step that leaves the iterate as it is,
    # accepts it as a Newton step, and does so until the budget runs out
    seen = run(0.0)
    assert all(shift == 0.0 for _, shift in seen)
    assert np.array_equal(seen[-1][0], seen[-2][0])


def _supersolution_seed():
    # the 16x16 torus_sine problem penalized and anchored at its upper
    # barrier u0 = pi + 0.25, inside the default cutoff plateau: the residual
    # there is -H(x, u0) = 0.5*sin(0.25) - 0.1*sin(2*pi*x1) >= 0.0237
    grid, H, B = _torus_sine_16()
    gamma = 2.0
    F = penalized_pmc(H, Cutoff(0.25 - 0.1 * np.pi, 1.1 * np.pi + 0.25,
                                0.25 - 0.5 * np.pi, 1.5 * np.pi + 0.25), gamma)
    return grid, F, B.u0, gamma * B.u0.values


def test_candidate_supersolution_is_returned_unsolved():
    grid, F, seed, source = _supersolution_seed()
    lagged = LaggedLU()
    u, rep = solve_inner(grid, F, None, seed, source=source, lagged=lagged,
                         candidate=True)
    assert rep["supersolution"] and not rep["converged"]
    assert rep["newton_steps"] == rep["ptc_steps"] == 0
    assert lagged.linear_solves == 0
    assert np.array_equal(u.values, seed.values)
    assert rep["residual_sup"] > SolveConfig().tol_outer


def _solved_as_without_candidate(grid, F, seed, source, cfg=None):
    runs = []
    for candidate in (False, True):
        lagged = LaggedLU()
        u, rep = solve_inner(grid, F, None, seed, cfg, source=source,
                             lagged=lagged, candidate=candidate)
        runs.append((u.values, rep, lagged.linear_solves))
    (plain, plain_rep, plain_solves), (u, rep, solves) = runs
    assert not plain_rep["supersolution"] and not rep["supersolution"]
    assert rep["converged"] and rep["newton_steps"] >= 1
    assert rep == plain_rep and solves == plain_solves == rep["newton_steps"]
    assert np.array_equal(u, plain)


def test_candidate_below_its_problem_at_one_node_is_solved():
    grid, F, seed, source = _supersolution_seed()
    # a larger source at one node makes the residual there negative
    source = source.copy()
    source[3, 5] += 1.0
    _solved_as_without_candidate(grid, F, seed, source)


def test_candidate_residual_is_judged_against_tol_outer():
    grid, F, seed, source = _supersolution_seed()
    # the same seed, with tol_outer above its smallest residual
    _solved_as_without_candidate(grid, F, seed, source, SolveConfig(tol_outer=0.05))


def test_supersolution_seed_without_the_candidate_flag_is_solved():
    grid, F, seed, source = _supersolution_seed()
    lagged = LaggedLU()
    u, rep = solve_inner(grid, F, None, seed, source=source, lagged=lagged)
    assert rep["converged"] and not rep["supersolution"]
    assert rep["newton_steps"] >= 1 and lagged.linear_solves == rep["newton_steps"]
    assert rep["residual_sup"] <= SolveConfig().tol_inner
    # the solution lies below the supersolution it started from
    assert np.all(u.values < seed.values)


# ---------------------------------------------------------------------------
# outer iteration


def test_outer_direct_mode_constant_solution():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, -0.8)),
                    ScalarField(grid, np.full(grid.shape, 0.9)))
    v, rep = outer_iterate(parse_pmc("-z"), B)
    assert rep.converged and rep.mode == "direct"
    assert rep.gamma == 0.0 and rep.outer_count <= 3
    assert np.max(np.abs(v.values)) < 1e-8
    assert rep.min_theta == 1.0
    assert rep.consistency_ok
    assert rep.final_residual <= rep.consistency_bound
    assert max(rep.monotonicity_violations) <= 1e-9
    assert max(rep.confinement_violations) <= 1e-9


def test_outer_direct_mode_dirichlet():
    grid = build_grid(1, (17,), (1.0,), ("dirichlet",))
    psi = ScalarField(grid, np.zeros(grid.shape))
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, -0.5)),
                    ScalarField(grid, np.full(grid.shape, 0.5)), psi)
    v, rep = outer_iterate(parse_pmc("0"), B)
    assert rep.converged and rep.mode == "direct"
    assert np.max(np.abs(v.values)) < 1e-10


def test_outer_penalized_torus_sine():
    grid = build_grid(2, (16, 16), (1.0, 1.0), ("periodic", "periodic"))
    H = parse_pmc(f"0.5*sin(z) + 0.1*sin({TWO_PI}*x1)")
    lo = ScalarField(grid, np.full(grid.shape, 0.25))
    hi = ScalarField(grid, np.full(grid.shape, np.pi + 0.25))
    B = BarrierPair(lo, hi)
    v, rep = outer_iterate(H, B)
    assert rep.converged and rep.mode == "penalized"
    assert rep.gamma > 1.0
    # iteration counters are deterministic: only a deliberate solver change
    # may move them, and each move is recorded as old -> new in CHANGES.md
    assert rep.outer_count == 16
    assert sum(rep.inner_newton_counts) == 20
    assert rep.accelerated_steps == 3 and rep.rejected_steps == 6
    assert rep.linear_solves == 20
    # iterates climbed monotonically and stayed in the slab
    assert max(rep.monotonicity_violations) <= 1e-9
    assert max(rep.confinement_violations) <= 1e-9
    assert np.all(v.values >= 0.25 - 1e-9)
    assert np.all(v.values <= np.pi + 0.25 + 1e-9)
    # the solve is certified: residual of the original prescription within
    # the penalty-times-step bound
    assert rep.consistency_ok
    res = pmc_residual(grid, v, H)
    assert np.max(np.abs(res.values)) <= rep.consistency_bound
    # the certificate holds at every sampled point
    cert = rep.gamma_certificate
    assert cert is not None and cert["gamma"] == rep.gamma
    assert -cert["sup_slope"] + rep.gamma >= 1.0


def _torus_sine_16():
    grid = build_grid(2, (16, 16), (1.0, 1.0), ("periodic", "periodic"))
    H = parse_pmc(f"0.5*sin(z) + 0.1*sin({TWO_PI}*x1)")
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, 0.25)),
                    ScalarField(grid, np.full(grid.shape, np.pi + 0.25)))
    return grid, H, B


def test_accelerated_sweeps_return_the_plain_iteration_limit():
    grid, H, B = _torus_sine_16()
    v, rep = outer_iterate(H, B)
    assert rep.rejected_steps >= 1
    # the plain Picard iteration, run far past the default tol_outer
    F = penalized_pmc(H, Cutoff(*(rep.cutoff[k] for k in "c1 c2 a b".split())),
                      rep.gamma)
    u, step = B.u1, np.inf
    while step > 1e-12:
        u_next, _ = solve_inner(grid, F, None, u, SolveConfig(),
                                source=rep.gamma * u.values)
        step = sup_norm(u_next, u)
        u = u_next
    assert sup_norm(v, u) <= 1e-9


def test_anderson_candidate_is_clipped_into_the_slab():
    from pmcgraph.solver import _anderson_candidate, _clip

    # two sweeps of x -> 0.9x + b per node, whose fixed point is 10b: node 0
    # extrapolates pi past the upper barrier 2, node 1 lands inside the
    # slab, node 2 below its last sweep output
    b = np.array([(2.0 + np.pi) / 10.0, 0.15, -0.05])
    x = [np.zeros(3), b]
    g = [0.9 * xi + b for xi in x]
    f = [gi - xi for gi, xi in zip(g, x)]
    upper = np.full(3, 2.0)
    proposal = _anderson_candidate(f, g)
    assert proposal[0] - upper[0] == pytest.approx(np.pi)
    cand, bound = _clip(proposal, g[-1], upper)
    assert np.array_equal(bound, upper)
    assert np.all((g[-1] <= cand) & (cand <= upper))
    assert np.allclose(cand, [2.0, 1.5, g[-1][2]])
    assert g[-1][2] > 10.0 * b[2]


def test_clip_keeps_candidates_below_discarded_supersolutions():
    from pmcgraph.solver import _clip

    last = np.array([0.0, 1.0, 2.0])
    # u0, lowered at nodes 0 and 1 by a candidate discarded as a strict
    # supersolution, as `outer_iterate` lowers it
    upper = np.minimum(np.full(3, 3.0), np.array([0.5, 2.5, 3.5]))
    cand, bound = _clip(np.full(3, 4.0), last, upper)
    assert np.array_equal(cand, [0.5, 2.5, 3.0])
    assert np.array_equal(bound, upper)
    # an output that rounding lifted past that bound at node 0: the bound
    # gives way to it, and a proposal below it is clipped up to it
    last = np.array([0.6, 1.0, 2.0])
    cand, bound = _clip(np.array([0.0, 2.0, 5.0]), last, upper)
    assert np.array_equal(bound, [0.6, 2.5, 3.0])
    assert np.array_equal(cand, [0.6, 2.0, 3.0])
    assert np.all(bound >= last)


def test_accelerated_sweeps_start_above_the_last_output(monkeypatch):
    import pmcgraph.solver as solver

    grid, H, B = _torus_sine_16()
    calls = []
    real = solver.solve_inner

    def recording(grid, F, psi, init, cfg=None, **kwargs):
        u, rep = real(grid, F, psi, init, cfg, **kwargs)
        calls.append((kwargs.get("candidate", False), init.values, u.values))
        return u, rep

    monkeypatch.setattr(solver, "solve_inner", recording)
    _, rep = outer_iterate(H, B)
    assert (rep.outer_count, rep.accelerated_steps, rep.rejected_steps) == (16, 3, 6)
    candidates = [(seed, calls[i - 1][2])
                  for i, (candidate, seed, _) in enumerate(calls) if candidate]
    # every candidate sweep is counted or discarded
    assert len(candidates) == rep.accelerated_steps + rep.rejected_steps
    for seed, last in candidates:
        # a candidate is built right after the counted sweep whose output
        # it was clipped above: it lies above that output at one node at least
        assert np.all(seed >= last) and np.any(seed > last)


def test_loose_tol_outer_discards_candidates_instead_of_aborting():
    from pmcgraph.solver import MONOTONE_ABORT

    # a candidate sweep that moves down by more than MONOTONE_ABORT but
    # less than tol_outer is discarded: counting it would abort the solve
    grid, H, B = _torus_sine_16()
    v, rep = outer_iterate(H, B, SolveConfig(tol_outer=1e-3))
    assert rep.converged and rep.consistency_ok
    assert max(rep.monotonicity_violations) <= MONOTONE_ABORT
    assert max(rep.confinement_violations) <= MONOTONE_ABORT


def test_monotonicity_abort_carries_the_partial_counts():
    # a penalty far below the certified one: the first sweep moves down
    grid, H, B = _torus_sine_16()
    with pytest.raises(MonotonicityError) as exc:
        outer_iterate(H, B, SolveConfig(gamma=0.001))
    assert str(exc.value).startswith("outer sweep 1 moved down by ")
    partial = exc.value.partial
    assert partial["gamma"] == 0.001 and partial["rejected_steps"] == 0
    assert partial["outer_count"] == len(partial["step_history"]) == 1
    assert partial["residual_history"] == exc.value.residual_history


def test_sweep_budget_counts_discarded_sweeps():
    grid, H, B = _torus_sine_16()
    with pytest.raises(SolverFailure) as exc:
        outer_iterate(H, B, SolveConfig(max_outer=9))
    partial = exc.value.partial
    # the ninth inner solve started from a rejected candidate
    assert partial["rejected_steps"] == 1
    assert partial["outer_count"] == len(partial["step_history"]) == 8
    assert len(exc.value.residual_history) == 8


def test_inner_failure_partial_counts_sweeps_not_solves(monkeypatch):
    import pmcgraph.solver as solver

    grid, H, B = _torus_sine_16()
    calls = []
    real = solver.solve_inner

    def failing_tenth(*args, **kwargs):
        calls.append(1)
        if len(calls) == 10:
            raise SolverFailure("injected", residual_history=[1.0])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_inner", failing_tenth)
    with pytest.raises(SolverFailure) as exc:
        outer_iterate(H, B)
    partial = exc.value.partial
    # nine solves ran: eight counted sweeps and one discarded candidate
    assert partial["outer_count"] == 8 and partial["rejected_steps"] == 1
    assert partial["residual_history"][-1] == 1.0


def test_non_converged_message_names_last_and_smallest_step():
    grid, H, B = _torus_sine_16()
    with pytest.raises(SolverFailure) as exc:
        outer_iterate(H, B, SolveConfig(max_outer=5))
    steps = exc.value.partial["step_history"]
    # the Anderson candidates overshoot first: the steps grow, yet the
    # iteration converges, so no ratio of steps is reported
    assert steps[-1] > steps[0]
    message = str(exc.value)
    assert "contraction" not in message
    assert f"last step {steps[-1]:.3e}" in message
    assert f"smallest step {min(steps):.3e}" in message
    assert exc.value.partial["factorizations"] >= 1
    assert exc.value.partial["krylov_iterations"] >= 0
    assert exc.value.partial["linear_solves"] >= 5


def test_lagged_factor_counters_are_pinned_and_match_refactoring(monkeypatch):
    import pmcgraph.solver as solver

    grid, H, B = _torus_sine_16()
    v, rep = outer_iterate(H, B)
    assert rep.factorizations == 1 and rep.krylov_iterations == 18
    # every linear solve factors its own matrix
    monkeypatch.setattr(solver.LaggedLU, "_krylov", lambda self, A, b, tol: None)
    v_direct, direct = outer_iterate(H, B)
    assert direct.krylov_iterations == 0
    assert direct.factorizations > rep.factorizations
    assert np.max(np.abs(v.values - v_direct.values)) <= 1e-12
    assert direct.outer_count == rep.outer_count
    assert direct.inner_newton_counts == rep.inner_newton_counts
    assert direct.accelerated_steps == rep.accelerated_steps
    assert direct.rejected_steps == rep.rejected_steps


def test_newton_needs_no_refactorization_when_no_relative_target_is_met(
        monkeypatch):
    import pmcgraph.solver as solver

    grid, H, B = _torus_sine_16()
    _, rep = outer_iterate(H, B)
    # every cycle must then meet a forcing term or the tol_inner floor; on
    # fine grids the arithmetic falls short of KRYLOV_RTOL the same way
    monkeypatch.setattr(solver, "KRYLOV_RTOL", 0.0)
    _, floor = outer_iterate(H, B)
    assert floor.factorizations == 1
    assert floor.outer_count == rep.outer_count
    assert floor.accelerated_steps == rep.accelerated_steps
    assert floor.rejected_steps == rep.rejected_steps
    assert floor.inner_newton_counts == rep.inner_newton_counts


def _horosphere_16():
    from pmcgraph.geometry import ConformalFactor, conformal_transform_pmc

    # the horosphere config's conformal problem on a 16x16 torus
    grid = build_grid(2, (16, 16), (1.0, 1.0), ("periodic", "periodic"))
    H = conformal_transform_pmc(parse_pmc("-1 - z"),
                                ConformalFactor.from_expr("-ln(r)"), 2)
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, 0.8)),
                    ScalarField(grid, np.full(grid.shape, 1.25)))
    return grid, H, B, SolveConfig(box=(0.5, 2.0))


def _penalized_case(case):
    if case == "horosphere":
        return _horosphere_16()
    return (*_torus_sine_16(), SolveConfig())


@pytest.mark.parametrize("case", ["torus_sine", "horosphere"])
def test_only_the_exit_sweep_needs_the_inner_tolerance(case):
    from pmcgraph.solver import SWEEP_FORCING

    grid, H, B, cfg = _penalized_case(case)
    _, rep = outer_iterate(H, B, cfg)
    assert rep.mode == "penalized" and rep.converged
    # early sweeps stop at a fraction of their seed's residual over gamma,
    # above tol_inner, the first sweep too: its seed, the lower barrier,
    # lies on the cutoff's plateau and is its anchor, so that residual is
    # the barrier's own ...
    seed = np.max(np.abs(pmc_residual(grid, B.u1, H).values))
    assert (cfg.tol_inner < rep.residual_history[0]
            <= SWEEP_FORCING * seed / max(rep.gamma, 1.0))
    assert max(rep.residual_history[1:]) > cfg.tol_inner
    # ... but the exit sweep is solved to it, so the bound still holds
    assert rep.residual_history[-1] <= cfg.tol_inner
    assert rep.step_history[-1] <= cfg.tol_outer
    assert rep.consistency_ok
    assert rep.final_residual <= cfg.tol_inner + rep.gamma * rep.step_history[-1]


# both runs stop at a step of at most tol_outer, so their fields differ by
# a fraction of it: 8.4e-13 on the torus, 1.04e-9 on the horosphere
@pytest.mark.parametrize("case, agree", [("torus_sine", 1e-9),
                                         ("horosphere", 1e-8)])
def test_exact_sweeps_reach_the_same_field_with_more_linear_solves(
        monkeypatch, case, agree):
    import pmcgraph.solver as solver

    grid, H, B, cfg = _penalized_case(case)
    v, rep = outer_iterate(H, B, cfg)
    # every sweep solved to tol_inner
    monkeypatch.setattr(solver, "SWEEP_FORCING", 0.0)
    v_exact, exact = outer_iterate(H, B, cfg)
    assert max(exact.residual_history) <= cfg.tol_inner
    assert sup_norm(v, v_exact) <= agree
    assert exact.outer_count == rep.outer_count
    assert exact.accelerated_steps == rep.accelerated_steps
    assert exact.rejected_steps == rep.rejected_steps
    assert exact.linear_solves > rep.linear_solves
    assert sum(exact.inner_newton_counts) > sum(rep.inner_newton_counts)


def test_candidate_sweeps_start_from_their_anchor(monkeypatch):
    import pmcgraph.solver as solver

    grid, H, B = _torus_sine_16()
    real = solver.solve_inner
    starts = []

    def recording(grid, F, psi, init, *args, **kwargs):
        starts.append((init.values.copy(), kwargs["source"]))
        return real(grid, F, psi, init, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_inner", recording)
    _, rep = outer_iterate(H, B)
    assert rep.accelerated_steps + rep.rejected_steps > 0
    # every sweep's first Newton iterate is its anchor, source / gamma; a
    # finishing solve starts from its sweep's output instead
    fresh = [k for k in range(len(starts))
             if k == 0 or not np.array_equal(starts[k][1], starts[k - 1][1])]
    assert len(fresh) == rep.outer_count + rep.rejected_steps
    for k in fresh:
        init, source = starts[k]
        assert np.array_equal(rep.gamma * init, source)


@pytest.mark.parametrize("case", ["torus_sine", "horosphere"])
def test_a_seed_above_the_inner_tolerance_takes_a_newton_step(monkeypatch, case):
    import pmcgraph.solver as solver

    grid, H, B, cfg = _penalized_case(case)
    real = solver.solve_inner
    reports = []

    def recording(*args, **kwargs):
        u, rep = real(*args, **kwargs)
        reports.append(rep)
        return u, rep

    monkeypatch.setattr(solver, "solve_inner", recording)
    outer_iterate(H, B, cfg)
    # no sweep is judged by a step its solve never took: only a seed that
    # already meets tol_inner, or a candidate returned unsolved, takes none
    for rep in reports:
        if rep["residual_history"][0] > cfg.tol_inner and not rep["supersolution"]:
            assert rep["newton_steps"] + rep["ptc_steps"] >= 1
    # and the loose sweeps were there to check
    assert any(rep["tolerance"] > cfg.tol_inner for rep in reports)


# GMRES iterations with loose sweeps forced at FORCING_MAX, and under the
# rule of a solve at tol_inner, 32 and 8.  The fields differ by 7.4e-13 on
# the torus and 1.9e-10 on the horosphere, which stops at a step of 1e-8
@pytest.mark.parametrize("case, krylov, tight, agree", [("torus_sine", 18, 32, 1e-12),
                                                        ("horosphere", 6, 8, 1e-9)])
def test_loose_forcing_changes_only_the_krylov_counts(
        monkeypatch, case, krylov, tight, agree):
    import pmcgraph.solver as solver

    grid, H, B, cfg = _penalized_case(case)
    v, rep = outer_iterate(H, B, cfg)
    assert rep.krylov_iterations == krylov
    real = solver._forcing_term
    monkeypatch.setattr(solver, "_forcing_term",
                        lambda loose, pseudo_time, history: real(False, pseudo_time, history))
    v_tight, every = outer_iterate(H, B, cfg)
    assert every.krylov_iterations == tight
    for name in ("outer_count", "accelerated_steps", "rejected_steps",
                 "inner_newton_counts", "linear_solves", "factorizations"):
        assert getattr(rep, name) == getattr(every, name), name
    assert sup_norm(v, v_tight) <= agree


def test_only_loose_solves_force_at_forcing_max(monkeypatch):
    import pmcgraph.solver as solver
    from pmcgraph.solver import FORCING_FIRST, FORCING_MAX

    # the penalized torus of `_supersolution_seed`, anchored at its lower
    # barrier 0.25 instead, with its penalty 2
    grid, F, _, _ = _supersolution_seed()
    lower = ScalarField(grid, np.full(grid.shape, 0.25))
    source = 2.0 * lower.values
    real = solver._forcing_term
    etas = []

    def recording(loose, pseudo_time, history):
        etas.append(real(loose, pseudo_time, history))
        return etas[-1]

    monkeypatch.setattr(solver, "_forcing_term", recording)
    # a loose sweep from the lower barrier, then the solve that finishes
    # it to tol_inner from its output
    u, loose = solve_inner(grid, F, None, lower, source=source, forcing=0.01)
    assert loose["tolerance"] > SolveConfig().tol_inner
    assert etas == [FORCING_MAX] * loose["newton_steps"] and etas
    etas.clear()
    _, finish = solve_inner(grid, F, None, u, source=source)
    assert finish["tolerance"] == SolveConfig().tol_inner
    assert finish["newton_steps"] >= 2
    assert etas[0] == FORCING_FIRST and max(etas[1:]) <= FORCING_MAX


@pytest.mark.parametrize("case, evals, every", [("torus_sine", 30, 42),
                                                ("horosphere", 15, 16)])
def test_each_iterate_is_evaluated_once(monkeypatch, case, evals, every):
    import pmcgraph.solver as solver

    grid, H, B, cfg = _penalized_case(case)
    real = solver._graph_residual
    calls = []

    def counting(grid, values, F):
        calls.append(values.copy())
        return real(grid, values, F)

    monkeypatch.setattr(solver, "_graph_residual", counting)
    v, rep = outer_iterate(H, B, cfg)
    assert len(calls) == evals
    # no two of them at the same iterate
    assert len({c.tobytes() for c in calls}) == evals
    # each solve evaluating its own seed gives the same solve, bit for bit
    calls.clear()
    inner = solver.solve_inner
    monkeypatch.setattr(solver, "solve_inner",
                        lambda *args, evaluation=None, **kwargs: inner(*args, **kwargs))
    v_own, own = outer_iterate(H, B, cfg)
    assert len(calls) == every
    assert np.array_equal(v.values, v_own.values)
    assert rep.to_dict() == own.to_dict()


@pytest.mark.parametrize("case", ["torus_sine", "horosphere"])
def test_every_linear_solve_belongs_to_a_counted_sweep(case):
    grid, H, B, cfg = _penalized_case(case)
    _, rep = outer_iterate(H, B, cfg)
    assert rep.linear_solves == sum(rep.inner_newton_counts)


# the torus discards 6 candidates, each of which took one linear solve
# when solved; the horosphere discards none
@pytest.mark.parametrize("case, saved", [("torus_sine", 6), ("horosphere", 0)])
def test_unsolved_supersolution_candidates_change_only_the_solve_counts(
        monkeypatch, case, saved):
    import pmcgraph.solver as solver

    grid, H, B, cfg = _penalized_case(case)
    v, rep = outer_iterate(H, B, cfg)
    real = solver.solve_inner

    def solving_every_candidate(*args, candidate=False, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_inner", solving_every_candidate)
    v_all, every = outer_iterate(H, B, cfg)
    assert np.array_equal(v.values, v_all.values)
    for name in ("step_history", "residual_history", "outer_count",
                 "accelerated_steps", "rejected_steps", "inner_newton_counts"):
        assert getattr(rep, name) == getattr(every, name), name
    assert every.linear_solves - rep.linear_solves == saved


def test_no_factor_passes_between_solves():
    grid, H, B = _torus_sine_16()
    _, first = outer_iterate(H, B)
    # a solve of another problem on the same grid in between: a factor
    # left over from it would change the next solve's counters
    other = parse_pmc(f"0.5*sin(z) + 0.1*cos({TWO_PI}*x2)")
    _, between = outer_iterate(other, B)
    _, second = outer_iterate(H, B)
    assert first.to_dict() == second.to_dict()
    assert first.factorizations >= 1 and between.factorizations >= 1


def _line_jacobian(shape, topology, text="0.2*sin(y1) - 0.3*t - 2*z"):
    grid = build_grid(len(shape), shape, (1.0,) * len(shape), topology)
    # a smooth graph, so that the system stays well conditioned on fine grids
    u = 0.3 * sum(np.sin(TWO_PI * x + k)
                  for k, x in enumerate(grid.node_positions()))
    return assemble_jacobian(grid, u, parse_pmc(text))


# fully periodic, each with and without the border: one line, inverted
# whole, in 1-D; in 2-D lines of 6 to 130 unknowns that wrap on axis 0, so
# the last line is the tail
_WRAPPED = [((12,), ("periodic",)), ((128,), ("periodic",)),
            ((256,), ("periodic",)), ((300,), ("periodic",)),
            ((8, 6), ("periodic", "periodic")), ((16, 8), ("periodic", "periodic")),
            ((16, 16), ("periodic", "periodic")), ((24, 20), ("periodic", "periodic")),
            ((6, 130), ("periodic", "periodic"))]
# the ends of the twisted elimination, wrapped and bordered likewise: 3
# head lines, one level and the root; 6 head lines, whose first level pairs
# a line with the dummy
_WRAPPED_ENDS = [((4, 5), ("periodic", "periodic")), ((7, 130), ("periodic", "periodic"))]
# a dirichlet axis, so no border: one line in 1-D; in 2-D no wrap when axis
# 0 is dirichlet, from 2 lines (one level with the dummy) up, and the wrap
# when only axis 1 is
_DIRICHLET = [((12,), ("dirichlet",)), ((302,), ("dirichlet",)),
              ((4, 4), ("dirichlet", "dirichlet")), ((7, 9), ("dirichlet", "dirichlet")),
              ((22, 12), ("dirichlet", "dirichlet")), ((40, 9), ("dirichlet", "dirichlet")),
              ((8, 9), ("periodic", "dirichlet")), ((30, 20), ("periodic", "dirichlet")),
              ((9, 8), ("dirichlet", "periodic")), ((32, 20), ("dirichlet", "periodic")),
              ((12, 130), ("dirichlet", "periodic"))]


@pytest.mark.parametrize("shape, topology, gauge_free", [
    *((shape, topology, False) for shape, topology in _WRAPPED + _DIRICHLET),
    *((shape, topology, True) for shape, topology in _WRAPPED),
    *((shape, topology, free) for shape, topology in _WRAPPED_ENDS
      for free in (False, True)),
])
def test_block_lu_matches_a_dense_solve(shape, topology, gauge_free):
    from pmcgraph.solver import LineLU

    # a height-free prescription leaves the constants in the kernel, which
    # the border row removes
    text = "0.2*sin(y1) - 0.3*t" if gauge_free else "0.2*sin(y1) - 0.3*t - 2*z"
    J = _line_jacobian(shape, topology, text)
    A = J.bordered() if gauge_free else J
    dense = A.toarray()
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    Ab = dense @ b
    assert np.max(np.abs(A @ b - Ab)) <= 1e-12 * np.max(np.abs(Ab))
    assert A.nnz == J.nnz + 2 * J.shape[0] * gauge_free
    x = LineLU(A).solve(b)
    expected = np.linalg.solve(dense, b)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


# besides the grids above: a 1-D line of two unknowns, and long lines or
# many short ones along either axis
_MORE = [((4,), ("dirichlet",)), ((257,), ("dirichlet",)),
         ((6, 100), ("dirichlet", "dirichlet")), ((65, 65), ("dirichlet", "dirichlet")),
         ((4, 257), ("periodic", "dirichlet")), ((257, 4), ("dirichlet", "periodic")),
         ((64, 64), ("periodic", "periodic"))]


def _chain_entries(grid):
    """Every composed `_jacobian_chains` entry between two unknowns, zero
    weights included: its row, column, weight and the index of its
    coefficient in `_jacobian_coefficients`, rows and columns as unknowns."""
    from pmcgraph.solver import _jacobian_chains

    keep = np.flatnonzero(~grid.boundary_mask.reshape(-1))
    pos = np.full(grid.node_count, -1)
    pos[keep] = np.arange(keep.size)
    rows, cols, wts, src = [], [], [], []
    offset = 0
    for outer, inner in _jacobian_chains(grid):
        chain = outer @ inner
        rows.append(np.broadcast_to(np.arange(grid.node_count), chain.cols.shape))
        cols.append(chain.cols)
        wts.append(chain.weights)
        src.append(offset + np.repeat(outer.cols, inner.width, axis=0))
        offset += inner.cols.shape[1]
    r, c, w, q = (np.concatenate(x, axis=None) for x in (rows, cols, wts, src))
    inside = (pos[r] >= 0) & (pos[c] >= 0)
    return pos[r[inside]], pos[c[inside]], w[inside], q[inside]


def test_jacobian_entries_stay_in_their_rows_neighbourhood():
    # the stencil has one slot per neighbour offset in {-1, 0, 1}^d, so no
    # entry of an unknown may reach farther, wrapping on periodic axes
    offsets = []
    for shape, topology in _WRAPPED + _WRAPPED_ENDS + _DIRICHLET + _MORE:
        grid = build_grid(len(shape), shape, (1.0,) * len(shape), topology)
        r, c, w, _ = _chain_entries(grid)
        lines = [n if top == "periodic" else n - 2 for n, top in zip(shape, topology)]
        at_r = np.unravel_index(r[w != 0.0], lines)
        at_c = np.unravel_index(c[w != 0.0], lines)
        step = [(ac - ar + 1) % n - 1 if top == "periodic" else ac - ar
                for ar, ac, n, top in zip(at_r, at_c, lines, topology)]
        far = np.any(np.abs(step) > 1, axis=0)
        assert not np.any(far), (shape, topology)
        offsets.append(len(set(zip(*step))))
    # the check bites: the entries of every grid take all 3^d offsets
    assert offsets == [3 ** len(shape) for shape, _ in
                       _WRAPPED + _WRAPPED_ENDS + _DIRICHLET + _MORE]


def test_jacobian_stencil_sums_every_chain_entry_into_its_slot():
    from pmcgraph.solver import _jacobian_coefficients, _jacobian_plan

    F = parse_pmc("0.4*z - 0.3*t + 0.2*sin(y1) + 0.1*y1*y2 "
                  "- 0.05*cos(6.283185307179586*x1)")
    for shape, topology in _WRAPPED + _WRAPPED_ENDS + _DIRICHLET + _MORE:
        grid = build_grid(len(shape), shape, (1.0,) * len(shape), topology)
        r, c, w, q = _chain_entries(grid)
        n = int(np.count_nonzero(~grid.boundary_mask))
        # the pattern size of the entries summed by position, zero weights
        # included, which the sorted plan of earlier versions stored
        assert _jacobian_plan(grid).nnz == np.unique(r * n + c).size, (shape, topology)
        if n > 1500:
            continue
        u = 0.4 * np.random.default_rng(7).standard_normal(grid.shape)
        dense = np.zeros((n, n))
        np.add.at(dense, (r, c), w * _jacobian_coefficients(grid, u, F)[q])
        J = assemble_jacobian(grid, u, F).toarray()
        assert np.max(np.abs(J - dense)) <= 1e-12 * np.max(np.abs(dense)), (shape, topology)


def test_lagged_factor_refactors_far_or_resized_systems():
    from pmcgraph.solver import LaggedLU

    def direct(A, b):
        return np.linalg.solve(A.toarray(), b)

    grid = build_grid(2, (16, 12), (1.0, 1.0), ("periodic", "periodic"))
    rng = np.random.default_rng(0)
    u = 0.3 * rng.standard_normal(grid.shape)
    F = parse_pmc("0.5*sin(z) - 2*z")
    A = assemble_jacobian(grid, u, F)
    b = rng.standard_normal(A.shape[0])
    lagged = LaggedLU()
    np.testing.assert_allclose(lagged.solve(A, b), direct(A, b), rtol=0, atol=1e-12)
    assert (lagged.factorizations, lagged.krylov_iterations) == (1, 0)
    # a nearby matrix is solved by GMRES on the old factor
    near = assemble_jacobian(grid, u + 1e-3 * rng.standard_normal(grid.shape), F)
    x = lagged.solve(near, b)
    assert lagged.factorizations == 1 and lagged.krylov_iterations > 0
    assert np.max(np.abs(near @ x - b)) <= 1e-10 * np.linalg.norm(b)
    # one restart cycle cannot fix a factor this far off
    far = assemble_jacobian(grid, u, F, shift=1e4)
    np.testing.assert_allclose(lagged.solve(far, b), direct(far, b), rtol=0, atol=1e-12)
    assert lagged.factorizations == 2
    # the bordered periodic system is one unknown larger
    big = A.bordered()
    b_big = rng.standard_normal(A.shape[0] + 1)
    np.testing.assert_allclose(lagged.solve(big, b_big), direct(big, b_big),
                               rtol=0, atol=1e-12)
    assert lagged.factorizations == 3


def test_lagged_solve_applies_the_factor_once_per_iteration_and_once_more(
        monkeypatch):
    from pmcgraph.solver import LaggedLU, LineLU

    applies = []
    real = LineLU.solve
    monkeypatch.setattr(LineLU, "solve",
                        lambda self, b: applies.append(b.size) or real(self, b))
    grid = build_grid(2, (16, 12), (1.0, 1.0), ("periodic", "periodic"))
    rng = np.random.default_rng(0)
    u = 0.3 * rng.standard_normal(grid.shape)
    F = parse_pmc("0.5*sin(z) - 2*z")
    b = rng.standard_normal(grid.node_count)
    lagged = LaggedLU()
    lagged.solve(assemble_jacobian(grid, u, F), b)
    assert len(applies) == 1
    for k in range(3):
        applies.clear()
        before = lagged.krylov_iterations
        near = assemble_jacobian(grid, u + 1e-3 * (k + 1) * np.cos(u), F)
        lagged.solve(near, b)
        assert lagged.factorizations == 1
        # x0 = M b, then one M v per iteration; no solve is repeated
        assert len(applies) == lagged.krylov_iterations - before + 1 >= 2


def test_lagged_cycle_stops_at_the_callers_tolerance(monkeypatch):
    from pmcgraph.solver import KRYLOV_RTOL, LaggedLU, LineLU

    applies = []
    real = LineLU.solve
    monkeypatch.setattr(LineLU, "solve",
                        lambda self, b: applies.append(b.size) or real(self, b))
    grid = build_grid(2, (16, 12), (1.0, 1.0), ("periodic", "periodic"))
    rng = np.random.default_rng(0)
    u = 0.3 * rng.standard_normal(grid.shape)
    F = parse_pmc("0.5*sin(z) - 2*z")
    lagged = LaggedLU()
    lagged.solve(assemble_jacobian(grid, u, F),
                 rng.standard_normal(grid.node_count))
    near = assemble_jacobian(grid, u + 1e-3 * rng.standard_normal(grid.shape), F)
    # a right-hand side whose start x0 = M b already leaves less than atol
    atol = 1e-8
    b = rng.standard_normal(grid.node_count)
    b *= 0.5 * atol / np.linalg.norm(b - near @ lagged.factor.solve(b))
    assert atol > KRYLOV_RTOL * np.linalg.norm(b)
    applies.clear()
    x = lagged.solve(near, b, atol)
    assert (lagged.factorizations, lagged.krylov_iterations) == (1, 0)
    assert len(applies) == 1
    assert np.linalg.norm(near @ x - b) <= atol
    # without a tolerance the cycle runs on to KRYLOV_RTOL
    x = lagged.solve(near, b)
    assert lagged.factorizations == 1 and lagged.krylov_iterations > 0
    assert np.linalg.norm(near @ x - b) <= KRYLOV_RTOL * np.linalg.norm(b)


def test_singular_linear_system_gives_a_non_finite_step():
    from pmcgraph.solver import StencilMatrix, spsolve

    # one dense block, and several blocks with a wrap
    for shape in ((4,), (4, 4), (24, 20)):
        J = _line_jacobian(shape, ("periodic",) * len(shape))
        zero = StencilMatrix(J.plan, np.zeros_like(J.data))
        assert np.all(np.isnan(spsolve(zero, np.ones(zero.shape[0]))))


def test_direct_mode_reports_no_acceleration_and_no_quasi_keys():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, -0.8)),
                    ScalarField(grid, np.full(grid.shape, 0.9)))
    _, rep = outer_iterate(parse_pmc("-z"), B)
    d = rep.to_dict()
    assert d["mode"] == "direct"
    assert d["accelerated_steps"] == 0 and d["rejected_steps"] == 0
    assert not {"quasi_check", "theta_threshold", "graphical", "jacobi_sup",
                "refinement"} & set(d)


def test_outer_rejects_bad_barriers():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    B = BarrierPair(ScalarField(grid, np.zeros(grid.shape)),
                    ScalarField(grid, np.ones(grid.shape)))
    with pytest.raises(ValueError, match="barrier check failed"):
        outer_iterate(parse_pmc("2"), B)


def test_outer_box_must_contain_barrier_range():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, -0.8)),
                    ScalarField(grid, np.full(grid.shape, 0.9)))
    cfg = SolveConfig(box=(-0.5, 2.0))
    with pytest.raises(ValueError, match="strictly inside"):
        outer_iterate(parse_pmc("-z"), B, cfg)


# ---------------------------------------------------------------------------
# barrier construction


@pytest.mark.parametrize("phi", ["0.2*cos(z)", "-0.2*cos(z)"])
def test_barriers_from_phi_symmetric_pair(phi):
    # phi's bound is its largest absolute sample, from either extreme
    grid = build_grid(1, (33,), (1.0,), ("dirichlet",))
    psi = ScalarField(grid, np.zeros(grid.shape))
    B = barriers_from_phi(grid, parse_pmc("0"), parse_pmc(phi), psi)
    interior = ~grid.boundary_mask
    assert np.all(B.u1.values[interior] < 0.0)
    assert np.all(B.u0.values[interior] > 0.0)
    # the two tilted problems are mirror images
    assert np.max(np.abs(B.u0.values + B.u1.values)) < 1e-8
    # deflection scale of -u'' = 0.21 with zero trace is alpha/8 at the center
    assert abs(float(np.min(B.u1.values)) + 0.21 / 8.0) < 2e-3


def test_barriers_from_phi_zero_perturbation_degenerates():
    grid = build_grid(1, (17,), (1.0,), ("dirichlet",))
    psi = ScalarField(grid, np.zeros(grid.shape))
    B = barriers_from_phi(grid, parse_pmc("0"), parse_pmc("0"), psi)
    assert np.array_equal(B.u1.values, B.u0.values)


def test_barriers_from_phi_rejects_height_dependence():
    grid = build_grid(1, (17,), (1.0,), ("dirichlet",))
    psi = ScalarField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError, match="height-free"):
        barriers_from_phi(grid, parse_pmc("-0.5*z"), parse_pmc("0"), psi)


def test_barriers_from_phi_needs_dirichlet():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    psi = ScalarField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError, match="dirichlet"):
        barriers_from_phi(grid, parse_pmc("0"), parse_pmc("0"), psi)


# ---------------------------------------------------------------------------
# quasi-decreasing frontend


def test_solve_quasi_constant_solution():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    D = QuasiDecomposition(parse_pmc("-z"), parse_pmc("0.3"))
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, -1.0)),
                    ScalarField(grid, np.full(grid.shape, 1.0)))
    v, rep = solve_quasi(D, B)
    assert np.max(np.abs(v.values - 0.3)) < 1e-7
    assert rep.graphical and rep.min_theta == 1.0
    assert rep.jacobi_sup < 1e-9
    assert rep.refinement is not None and rep.refinement["stable"]
    assert rep.refinement["relative_change"] <= 1e-10
    d = rep.to_dict()
    assert d["graphical"] is True and "quasi_check" in d


def test_solve_quasi_rejects_increasing_split():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    D = QuasiDecomposition(parse_pmc("z"), parse_pmc("0"))
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, -1.0)),
                    ScalarField(grid, np.full(grid.shape, 1.0)))
    with pytest.raises(ValueError, match="not quasi-decreasing"):
        solve_quasi(D, B)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        SolveConfig(tol_inner=0.0)
    with pytest.raises(ValueError, match="gamma"):
        SolveConfig(gamma=-2.0)
    with pytest.raises(ValueError, match="increasing"):
        SolveConfig(box=(1.0, 1.0))
    with pytest.raises(ValueError, match="increasing"):
        SolveConfig(cutoff=(0.5, 0.5))
    with pytest.raises(ValueError, match="armijo"):
        SolveConfig(armijo_c=1.5)
