import numpy as np
import pytest

from pmcgraph.expr import Var
from pmcgraph.grid import ScalarField, build_grid, sup_norm, variables
from pmcgraph.pmc import (
    PMCFunction,
    QuasiDecomposition,
    WorkingBox,
    parse_pmc,
    pmc_residual,
)
from pmcgraph.solver import (
    BarrierPair,
    LaggedLU,
    MonotonicityError,
    SolveConfig,
    SolverFailure,
    StencilMatrix,
    assemble_jacobian,
    barriers_from_phi,
    check_barrier,
    gamma_for,
    outer_iterate,
    solve_inner,
    solve_quasi,
)
from pmcgraph.calculus import mean_curvature_product_values
from pmcgraph.pmc import graph_normal_env

from dense_operators import chain_entries, dense_jacobian

TWO_PI = 6.283185307179586


def _residual_vec(grid, values, F):
    env, _ = graph_normal_env(grid, values)
    return (mean_curvature_product_values(grid, values)
            - np.asarray(F.eval(env), dtype=float)).reshape(-1)


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
        "- 0.05*cos(6.283185307179586*x1)" if grid.dimension == 2 else
        "0.4*z - 0.3*t + 0.2*sin(y1) - 0.05*cos(6.283185307179586*x1)")
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
# penalty size


def test_gamma_frozen_value_for_sine_prescription():
    H = parse_pmc("0.5*sin(z)")
    slab = WorkingBox((-1.0, 1.0), ((0.0, 1.0),))
    cert, sup_above = gamma_for(H, slab, samples=9)
    # the slope is 0.5*cos(z), maximized at the sampled point z = 0
    assert abs(cert["gamma"] - 0.525) < 1e-14
    assert abs(cert["sup_slope"] - 0.5) < 1e-14
    assert cert["worst_point"]["z"] == 0.0
    assert cert["samples"] == 9 and cert["slab"] == [-1.0, 1.0]
    assert cert.keys() == {"gamma", "sup_slope", "worst_point", "samples", "slab"}
    # the rows lie 0.25 apart, and a narrower slab reads its bound off the
    # rows from the one at or below its lower end upward: z = 0.1 starts at
    # the row z = 0, z = 0.3 at the row z = 0.25, z = 0.5 at its own row,
    # and a lower end below the slab reads every row
    assert sup_above(0.1) == sup_above(0.0) == cert["sup_slope"]
    assert sup_above(0.3) == sup_above(0.25) == 0.5 * np.cos(0.25)
    assert sup_above(0.5) == 0.5 * np.cos(0.5)
    assert sup_above(-5.0) == cert["sup_slope"]
    assert sup_above(1.0) == sup_above(7.0) == 0.5 * np.cos(1.0)


def test_gamma_has_no_floor():
    slab = WorkingBox((-1.0, 1.0), ((0.0, 1.0),))
    # height-free prescriptions need no penalty at all
    assert gamma_for(parse_pmc("0"), slab)[0]["gamma"] == 0.0
    assert gamma_for(parse_pmc("0.3*sin(x1)"), slab)[0]["gamma"] == 0.0
    # nor one that decreases in height; its sup over every narrower slab
    # is its own
    cert, sup_above = gamma_for(parse_pmc("-2*z"), slab)
    assert cert["gamma"] == 0.0 and cert["sup_slope"] == -2.0
    assert sup_above(0.5) == -2.0
    # H = -(z - 0.25)^2 increases in height below z = 0.25 only: the slab
    # needs a penalty, and a slab from the row z = 0.25 upward does not
    cert, sup_above = gamma_for(parse_pmc("-(z - 0.25)^2"), slab)
    assert cert["gamma"] == 1.05 * cert["sup_slope"] == 1.05 * 2.5
    assert sup_above(0.0) == 0.5 and sup_above(0.3) == 0.0
    assert sup_above(0.5) == -0.5


def test_penalized_prescription_is_uniformly_decreasing():
    H = parse_pmc("0.5*sin(z)")
    slab = WorkingBox((-1.0, 1.0), ((0.0, 1.0),))
    gamma = gamma_for(H, slab)[0]["gamma"]
    # the penalty gamma*(u - anchor) gives the inner problem the height
    # slope d/dz of H - gamma*z = 0.5*cos(z) - gamma, equal to -0.025 at z=0
    dz = H.partial("z", dict(zip(variables(1), (0.0, 0.0, 0.0, 1.0)))) - gamma
    assert abs(dz + 0.025) < 1e-14
    # at every sample of the slab, 5% of the sampled sup below 0
    slope = H.partial("z", slab.sample_lattice(9)) - gamma
    assert np.max(slope) <= -0.05 * 0.5 + 1e-12


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
    assert rep["residual_sup"] <= rep["tolerance"] and not rep["bordered"]
    assert rep["newton_steps"] <= 3
    assert np.max(np.abs(u.values)) < 1e-9

    u2, _ = solve_inner(grid, parse_pmc("1.7 - z"), None,
                        ScalarField(grid, np.zeros(grid.shape)))
    assert np.max(np.abs(u2.values - 1.7)) < 1e-9


def test_four_parameter_callable_prescription_solves_on_a_1d_grid():
    # the callable's 2d + 2 = 4 parameters make it a prescription of the
    # 1-D base, whose environments hold x1, z, y1 and t only
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    H = PMCFunction.from_callable(lambda x1, z, y1, t: 1.7 - z + 0.0 * (x1 + y1 + t))
    pair = BarrierPair(ScalarField(grid, np.zeros(grid.shape)),
                       ScalarField(grid, np.full(grid.shape, 3.0)))
    v, rep = outer_iterate(H, pair, SolveConfig())
    assert rep.consistency_ok
    assert np.max(np.abs(v.values - 1.7)) < 1e-8


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
    u, rep = solve_inner(grid, parse_pmc("1"), psi, init)
    assert rep["residual_sup"] <= rep["tolerance"]
    err = np.max(np.abs(u.values - cap))
    assert err < 1e-3

    # a second start far from the solution lands on the same discrete answer
    init2 = ScalarField(grid, cap + 0.2 * np.cos(np.pi * pos[0]) *
                        np.cos(np.pi * pos[1]))
    u2, _ = solve_inner(grid, parse_pmc("1"), psi, init2)
    assert sup_norm(u, u2) < 10 * 1e-10


def test_inner_solve_budget_failure_carries_best_iterate(monkeypatch):
    import pmcgraph.solver as solver

    monkeypatch.setattr(solver, "NEWTON_BUDGET", 1)
    grid = build_grid(2, (17, 17), (1.0, 1.0), ("dirichlet", "dirichlet"),
                origin=(-0.5, -0.5))
    pos = grid.node_positions()
    cap = np.sqrt(4.0 - pos[0] ** 2 - pos[1] ** 2)
    psi = ScalarField(grid, cap.copy())
    init = ScalarField(grid, np.full(grid.shape, float(np.min(cap))))
    with pytest.raises(SolverFailure, match="exhausted 1 steps") as exc:
        solve_inner(grid, parse_pmc("1"), psi, init)
    assert exc.value.best is not None
    assert exc.value.best.grid == grid
    assert len(exc.value.residual_history) == 2


def test_solve_config_refuses_steps_and_thresholds_out_of_range():
    for key, value in (("max_outer", 0), ("samples", 4), ("samples", 1),
                       ("allowance_constant", float("nan")), ("allowance_constant", -1.0)):
        with pytest.raises(ValueError, match=key):
            SolveConfig(**{key: value})
    cfg = SolveConfig(max_outer=1, samples=3, allowance_constant=0.0)
    assert (cfg.max_outer, cfg.samples, cfg.allowance_constant) == (1, 3, 0.0)


def test_a_stagnating_line_search_fails_with_its_best_iterate(monkeypatch):
    import pmcgraph.solver as solver

    # a tolerance below the residual's rounding floor, with the solve's own
    # floor taken away: once the iterate reaches that floor, no step
    # s >= MIN_STEP passes the line search, and the solve fails there
    # rather than spend its step budget
    monkeypatch.setattr(solver, "FLOOR_ULPS", 0.0)
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    init = ScalarField(grid, 1.3 + 0.1 * np.sin(TWO_PI * np.arange(16) / 16))
    F = parse_pmc("1 - z + 0.1*sin(z)")
    real = solver.assemble_jacobian
    shifts = []

    def recording(grid, values, F, shift=0.0, parts=None):
        shifts.append(shift)
        return real(grid, values, F, shift, parts)

    monkeypatch.setattr(solver, "assemble_jacobian", recording)
    cfg = SolveConfig(tol_inner=1e-300)
    with pytest.raises(SolverFailure, match="line search stagnated") as exc:
        solve_inner(grid, F, None, init, cfg)
    assert exc.value.best is not None and exc.value.best.grid == grid
    # one Jacobian per step, the last one's line search refused every step
    assert 1 < len(shifts) < solver.NEWTON_BUDGET
    assert len(exc.value.residual_history) == len(shifts)
    assert all(shift == 0.0 for shift in shifts)


def _supersolution_seed():
    # the 16x16 torus_sine problem penalized and anchored at its upper
    # barrier u0 = pi + 0.25: the residual there is
    # -H(x, u0) = 0.5*sin(0.25) - 0.1*sin(2*pi*x1) >= 0.0237
    grid, H, B = _torus_sine_16()
    return grid, H, B.u0, (2.0, B.u0.values)


def _record_passes(monkeypatch):
    """Record what `outer_iterate` does, in order: ("clip", proposal, last,
    upper) for each proposal its gate clips, with the bracket's upper end
    as the gate passes it; ("gate", candidate, verdict, tol) for each
    candidate the gate tests, the candidate being the field the gate
    evaluated right before the test; and ("solve", seed, output, keywords)
    for each inner solve."""
    import pmcgraph.solver as solver

    log, evaluated = [], []
    clip, evaluate, test, solve = (solver._clip, solver._graph_residual,
                                   solver._strict_supersolution, solver.solve_inner)

    def clipping(proposal, last, upper):
        log.append(("clip", proposal, last, upper))
        return clip(proposal, last, upper)

    def evaluating(grid, values, F):
        evaluated.append(values.copy())
        return evaluate(grid, values, F)

    def testing(residual, tol):
        verdict = test(residual, tol)
        log.append(("gate", evaluated[-1], verdict, tol))
        return verdict

    def solving(grid, F, psi, init, cfg=None, **kwargs):
        u, rep = solve(grid, F, psi, init, cfg, **kwargs)
        log.append(("solve", init.values.copy(), u.values.copy(), kwargs))
        return u, rep

    monkeypatch.setattr(solver, "_clip", clipping)
    monkeypatch.setattr(solver, "_graph_residual", evaluating)
    monkeypatch.setattr(solver, "_strict_supersolution", testing)
    monkeypatch.setattr(solver, "solve_inner", solving)
    return log


def _judged(log):
    """(log index, candidate, last output, unsolved, discarded) of each
    candidate the gate tested, from a `_record_passes` log.  The gate tests
    a candidate right after a counted sweep, so the last output is that of
    the solve before the test.  A candidate the gate admits is the seed of
    the next solve, and its sweep was discarded if the next sweep, the next
    solve with another penalty, starts from that last output again."""
    out = []
    for i, (kind, cand, unsolved, _) in enumerate(log):
        if kind != "gate":
            continue
        last = next(e[2] for e in reversed(log[:i]) if e[0] == "solve")
        solves = [e for e in log[i + 1:] if e[0] == "solve"]
        discarded = unsolved
        if not unsolved:
            assert np.array_equal(solves[0][1], cand)
            after = [e for e in solves[1:]
                     if not _same(e[3]["penalty"], solves[0][3]["penalty"])]
            discarded = bool(after) and np.array_equal(after[0][1], last)
        out.append((i, cand, last, unsolved, discarded))
    return out


def test_candidate_supersolution_is_returned_unsolved(monkeypatch):
    from pmcgraph.solver import _graph_residual, _strict_supersolution

    # the seed's residual, its penalty included, is above tol_outer at
    # every unknown
    grid, H, seed, (gamma, anchor) = _supersolution_seed()
    residual = (_graph_residual(grid, seed.values, H)[0]
                + gamma * (seed.values - anchor)).reshape(-1)
    assert np.min(residual) > SolveConfig().tol_outer
    assert _strict_supersolution(residual, SolveConfig().tol_outer)
    # the gate discards such a candidate before any Newton step: no solve
    # starts from it, the sweep is redone from the last output, and the
    # candidate bounds every later clip from above
    grid, H, B = _torus_sine_16()
    log = _record_passes(monkeypatch)
    _, rep = outer_iterate(H, B, SolveConfig(gamma=BOX_GAMMA))
    unsolved = [j for j in _judged(log) if j[3]]
    assert 1 <= len(unsolved) <= rep.rejected_steps
    for i, cand, last, _, _ in unsolved:
        assert not any(e[0] == "solve" and np.array_equal(e[1], cand) for e in log)
        redo = next(e for e in log[i + 1:] if e[0] == "solve")
        assert np.array_equal(redo[1], last)
        inside = cand[~grid.boundary_mask]
        assert all(np.all(e[3] <= inside) for e in log[i + 1:] if e[0] == "clip")
    # so every linear solve belongs to a counted sweep
    assert rep.linear_solves == sum(rep.inner_newton_counts)


def _same(a, b):
    # reports of `solve_inner`: numbers, arrays and nested sequences of
    # them, equal entry by entry
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return bool(np.array_equal(a, b))


def _solved_as_plain(grid, H, seed, penalty, cfg=None):
    # the gate admits the seed, and its solve from the gate's evaluation is
    # its plain solve, bit for bit
    from pmcgraph.solver import _graph_residual, _strict_supersolution

    cfg = cfg or SolveConfig()
    gamma, anchor = penalty
    evaluation = _graph_residual(grid, seed.values, H)
    assert not _strict_supersolution(
        (evaluation[0] + gamma * (seed.values - anchor)).reshape(-1), cfg.tol_outer)
    runs = []
    for handed in (None, evaluation):
        lagged = LaggedLU()
        u, rep = solve_inner(grid, H, None, seed, cfg, penalty=penalty,
                             lagged=lagged, evaluation=handed)
        runs.append((u.values, rep, lagged.linear_solves))
    (plain, plain_rep, plain_solves), (u, rep, solves) = runs
    assert rep["residual_sup"] <= rep["tolerance"] and rep["newton_steps"] >= 1
    assert _same(rep, plain_rep) and solves == plain_solves == rep["newton_steps"]
    assert np.array_equal(u, plain)


def test_candidate_below_its_problem_at_one_node_is_solved():
    grid, H, seed, (gamma, anchor) = _supersolution_seed()
    # an anchor higher by 1/gamma at one node makes the residual there
    # negative
    anchor = anchor.copy()
    anchor[3, 5] += 1.0 / gamma
    _solved_as_plain(grid, H, seed, (gamma, anchor))


def test_candidate_residual_is_judged_against_tol_outer(monkeypatch):
    grid, H, seed, penalty = _supersolution_seed()
    # the same seed, with tol_outer above its smallest residual
    _solved_as_plain(grid, H, seed, penalty, SolveConfig(tol_outer=0.05))
    # the gate passes the solve's own tol_outer
    grid, H, B = _torus_sine_16()
    log = _record_passes(monkeypatch)
    outer_iterate(H, B, SolveConfig(tol_outer=1e-3, gamma=BOX_GAMMA))
    tols = [e[3] for e in log if e[0] == "gate"]
    assert tols and set(tols) == {1e-3}


def test_solve_inner_solves_a_supersolution_seed():
    grid, H, seed, penalty = _supersolution_seed()
    lagged = LaggedLU()
    u, rep = solve_inner(grid, H, None, seed, penalty=penalty, lagged=lagged)
    assert rep["residual_sup"] <= rep["tolerance"]
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


@pytest.mark.parametrize("case", ["cap", "quasi"])
def test_height_monotone_prescription_is_one_sweep_at_gamma_zero(case):
    # a prescription that does not increase in height over the barrier
    # slab takes the one outer path at gamma = 0: its one sweep does not
    # read the anchor, so it is solved exactly and ends the iteration
    if case == "cap":
        grid, H, B, _ = _cap_17()
        psi = B.psi
        seed = ScalarField(grid, np.clip(psi.values, B.u1.values, B.u0.values))
    else:
        grid = build_grid(2, (16, 16), (1.0, 1.0), ("periodic", "periodic"))
        H, psi = parse_pmc("-z + 0.3*t"), None
        B = BarrierPair(ScalarField(grid, np.full(grid.shape, -1.0)),
                        ScalarField(grid, np.full(grid.shape, 1.0)))
        seed = B.u1
    v, rep = outer_iterate(H, B)
    assert rep.outer_count == 1 and rep.mode == "direct" and rep.gamma == 0
    # the slab-sized penalty certifies gamma = 0
    cert = rep.gamma_certificate
    assert cert["gamma"] == 0.0 and cert["sup_slope"] <= 0.0 and rep.consistency_ok
    zmin, zmax = B.z_bounds()
    assert cert["slab"] == [zmin, zmax]
    assert rep.cutoff["c1"] <= zmin and zmax <= rep.cutoff["c2"]
    # the direct Newton solve of H from the same seed, bit for bit: the
    # plateau clip never bound
    u, _ = solve_inner(grid, H, psi, seed)
    assert np.array_equal(v.values, u.values)


def test_a_box_an_ulp_outside_the_barriers_leaves_no_plateau():
    # the plateau pads the barrier range [0.3, 0.9] by half the gap to the
    # box, half an ulp here, which rounds onto the box's edge
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, 0.3)),
                    ScalarField(grid, np.full(grid.shape, 0.9)))
    edge = np.nextafter(0.3, 0.0)
    with pytest.raises(ValueError, match="strictly inside the working z-range"):
        outer_iterate(parse_pmc("0.6 - z"), B, SolveConfig(box=(edge, 2.0)))
    # a box two ulps out leaves room for it
    v, rep = outer_iterate(parse_pmc("0.6 - z"), B,
                           SolveConfig(box=(np.nextafter(edge, 0.0), 2.0)))
    assert rep.converged and rep.cutoff["c1"] == edge
    assert rep.cutoff["c2"] == pytest.approx(0.96, abs=1e-15)
    assert np.allclose(v.values, 0.6)


def test_outer_penalized_torus_sine():
    grid = build_grid(2, (16, 16), (1.0, 1.0), ("periodic", "periodic"))
    H = parse_pmc(f"0.5*sin(z) + 0.1*sin({TWO_PI}*x1)")
    lo = ScalarField(grid, np.full(grid.shape, 0.25))
    hi = ScalarField(grid, np.full(grid.shape, np.pi + 0.25))
    B = BarrierPair(lo, hi)
    v, rep = outer_iterate(H, B)
    assert rep.converged and rep.mode == "penalized"
    # two penalized sweeps lift the last output above z = 1.82, the lowest
    # row of the slab's lattice from which H = 0.5*sin(z) + ... no longer
    # increases in height, and the third is the direct solve
    assert rep.gamma_history == [rep.gamma, rep.gamma, 0.0]
    # iteration counters are deterministic: only a deliberate solver change
    # may move them, and each move is recorded as old -> new in CHANGES.md
    assert rep.outer_count == 3
    assert sum(rep.inner_newton_counts) == 9
    assert rep.accelerated_steps == 0 and rep.rejected_steps == 0
    assert rep.linear_solves == 9
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
    # the certificate holds at every sampled point of the barrier slab,
    # where the slope of 0.5*sin(z) is largest at its lower end
    cert = rep.gamma_certificate
    assert cert is not None and cert["gamma"] == rep.gamma
    assert cert["slab"] == [0.25, np.pi + 0.25]
    assert cert["sup_slope"] == 0.5 * np.cos(0.25) and cert["worst_point"]["z"] == 0.25
    assert rep.gamma == 1.05 * cert["sup_slope"]


def _torus_sine_16():
    grid = build_grid(2, (16, 16), (1.0, 1.0), ("periodic", "periodic"))
    H = parse_pmc(f"0.5*sin(z) + 0.1*sin({TWO_PI}*x1)")
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, 0.25)),
                    ScalarField(grid, np.full(grid.shape, np.pi + 0.25)))
    return grid, H, B


# the torus's penalty as it was sized over the whole working box, cutoff
# ramps included, with a floor of 1.  Given as `SolveConfig(gamma=...)` it
# stays fixed for every sweep, so the 16/3/6 sweeps (counted/accelerated/
# discarded) of the 16x16 torus propose, clip, admit and discard Anderson
# candidates; the slab-sized penalty takes 3/0/0 sweeps and proposes none
BOX_GAMMA = 1.9064653208705127


def test_accelerated_sweeps_return_the_plain_iteration_limit():
    grid, H, B = _torus_sine_16()
    v, rep = outer_iterate(H, B, SolveConfig(gamma=BOX_GAMMA))
    assert rep.rejected_steps >= 1
    # the plain Picard iteration, run far past the default tol_outer
    u, step = B.u1, np.inf
    while step > 1e-12:
        u_next, _ = solve_inner(grid, H, None, u, SolveConfig(),
                                penalty=(rep.gamma, u.values))
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
    grid, H, B = _torus_sine_16()
    log = _record_passes(monkeypatch)
    _, rep = outer_iterate(H, B, SolveConfig(gamma=BOX_GAMMA))
    assert (rep.outer_count, rep.accelerated_steps, rep.rejected_steps) == (16, 3, 6)
    judged = _judged(log)
    # every candidate sweep is counted or discarded
    assert len(judged) == rep.accelerated_steps + rep.rejected_steps
    assert sum(discarded for *_, discarded in judged) == rep.rejected_steps
    for _, seed, last, _, _ in judged:
        # a candidate is built right after the counted sweep whose output
        # it was clipped above: it lies above that output at one node at least
        assert np.all(seed >= last) and np.any(seed > last)


def _one_dimensional_multiple_solutions():
    # H = 0.02 sin(pi z) vanishes at every integer height, so the slab
    # [0.05, 3.5] holds several constant solutions; its candidates land on
    # the bracket's upper end again and again
    grid = build_grid(1, (32,), (1.0,), ("periodic",))
    H = parse_pmc("0.02*sin(3.141592653589793*z)")
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, 0.05)),
                    ScalarField(grid, np.full(grid.shape, 3.5)))
    return grid, H, B, SolveConfig(max_outer=3000)


def _torus_sine_64():
    # at the box-sized penalty, which keeps its sweeps penalized
    grid = build_grid(2, (64, 64), (1.0, 1.0), ("periodic", "periodic"))
    H = parse_pmc(f"0.5*sin(z) + 0.1*sin({TWO_PI}*x1)")
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, 0.25)),
                    ScalarField(grid, np.full(grid.shape, np.pi + 0.25)))
    return grid, H, B, SolveConfig(gamma=BOX_GAMMA)


@pytest.mark.parametrize("problem", [_torus_sine_64, _one_dimensional_multiple_solutions],
                         ids=["torus-64", "1d-several-solutions"])
def test_a_discarded_candidate_is_not_proposed_again(monkeypatch, problem):
    grid, H, B, cfg = problem()
    log = _record_passes(monkeypatch)
    try:
        _, rep = outer_iterate(H, B, cfg)
        rejected = rep.rejected_steps
    except SolverFailure as exc:
        rejected = exc.partial["rejected_steps"]
    judged = _judged(log)
    # a discarded candidate's sweep is redone from the output before it
    discarded = [k for k, (*_, gone) in enumerate(judged) if gone]
    assert len(discarded) == rejected > 0
    for j, (_, cand, _, _, _) in enumerate(judged):
        assert not any(np.array_equal(cand, judged[k][1]) for k in discarded if k < j)


def test_newton_iterates_stay_on_the_cutoff_plateau():
    from pmcgraph.solver import SWEEP_FORCING

    # the 64x64 torus's first two sweeps at its slab-sized penalty, then
    # the direct solve from the second output
    grid, H, B, _ = _torus_sine_64()
    v, rep = outer_iterate(H, B)
    gamma = 0.5086790213980885
    assert rep.gamma_history == [gamma, gamma, 0.0]
    c1, c2 = rep.cutoff["c1"], rep.cutoff["c2"]
    u = B.u1
    for _ in range(2):
        u, _ = solve_inner(grid, H, None, u, penalty=(gamma, u.values),
                           forcing=SWEEP_FORCING / max(gamma, 1.0), bounds=(c1, c2))
    w, _ = solve_inner(grid, H, None, u, bounds=(c1, c2))
    assert c1 <= np.min(w.values) and np.max(w.values) <= c2
    assert sup_norm(w, v) <= 1e-9


def _cap_17():
    # the cap's constant-curvature problem on a 17x17 dirichlet square
    grid = build_grid(2, (17, 17), (1.0, 1.0), ("dirichlet", "dirichlet"),
                      origin=(-0.5, -0.5))
    x1, x2 = grid.node_positions()
    cap = np.sqrt(1.0 - x1 ** 2 - x2 ** 2)
    B = BarrierPair(ScalarField(grid, cap - 0.1), ScalarField(grid, cap + 0.1),
                    ScalarField(grid, cap))
    return grid, parse_pmc("2"), B, SolveConfig()


@pytest.mark.parametrize("case", ["torus-64", "torus-16-box-gamma", "horosphere", "cap",
                                  "1d-several-solutions"])
def test_every_evaluated_field_lies_on_the_plateau(monkeypatch, case):
    import pmcgraph.solver as solver

    # the sweeps evaluate H only at fields on the plateau [c1, c2]: their
    # seeds, gate candidates and clipped Newton trial iterates.  At the
    # box-sized penalty the 16x16 torus's gate admits candidates too
    grid, H, B, cfg = {
        "torus-64": lambda: (*_torus_sine_64()[:3], SolveConfig()),
        "torus-16-box-gamma": lambda: _penalized_case("torus_sine", candidates=True),
        "horosphere": _horosphere_16,
        "cap": _cap_17,
        "1d-several-solutions": _one_dimensional_multiple_solutions,
    }[case]()
    real = solver._graph_residual
    fields = []

    def recording(grid, values, F):
        fields.append(values.copy())
        return real(grid, values, F)

    monkeypatch.setattr(solver, "_graph_residual", recording)
    _, rep = outer_iterate(H, B, cfg)
    c1, c2 = rep.cutoff["c1"], rep.cutoff["c2"]
    assert rep.cutoff.keys() == {"c1", "c2"} and fields
    for values in fields:
        assert c1 <= np.min(values) and np.max(values) <= c2


# the box-sized penalty returned u = 3 on (k, u1, x term) = (0.02, 0.05,
# no), (0.02, 0.3, no), (0.1, 0.3, yes) and (0.5, 0.05, yes): an accelerated
# sweep landed above the unstable zero z = 2
@pytest.mark.parametrize("k, u1, x_term", [
    (k, u1, x_term) for k in (0.02, 0.1, 0.5) for u1 in (0.05, 0.3)
    for x_term in (False, True)])
def test_accelerated_solve_returns_the_minimal_solution(k, u1, x_term):
    # H = k sin(pi z) > 0 on (u1, 1) and vanishes at every integer height, so
    # u = 1 is the minimal solution in the slab [u1, 3.5]; the small x term
    # moves it by about 0.002 / (4 pi^2) only
    grid = build_grid(1, (32,), (1.0,), ("periodic",))
    text = f"{k}*sin(3.141592653589793*z)"
    if x_term:
        text += f" + 0.002*sin({TWO_PI}*x1)"
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, u1)),
                    ScalarField(grid, np.full(grid.shape, 3.5)))
    v, rep = outer_iterate(parse_pmc(text), B, SolveConfig(max_outer=3000))
    assert rep.converged
    assert np.max(np.abs(v.values - 1.0)) <= 1e-3


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
    assert partial["gamma_history"] == [0.001]
    assert partial["residual_history"] == exc.value.residual_history
    # the counts the report shares with it, and no more
    assert partial.keys() == {"mode", "gamma", "gamma_history", "outer_count",
                              "rejected_steps",
                              "factorizations", "krylov_iterations", "linear_solves",
                              "residual_history", "step_history"}


def test_sweep_budget_counts_discarded_sweeps():
    grid, H, B = _torus_sine_16()
    with pytest.raises(SolverFailure) as exc:
        outer_iterate(H, B, SolveConfig(max_outer=9, gamma=BOX_GAMMA))
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

    def failing_ninth(*args, **kwargs):
        calls.append(1)
        if len(calls) == 9:
            raise SolverFailure("injected", residual_history=[1.0])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_inner", failing_ninth)
    with pytest.raises(SolverFailure) as exc:
        outer_iterate(H, B, SolveConfig(gamma=BOX_GAMMA))
    partial = exc.value.partial
    # eight solves ran, one per counted sweep, and the gate discarded one
    # candidate unsolved
    assert partial["outer_count"] == 8 and partial["rejected_steps"] == 1
    assert partial["residual_history"][-1] == 1.0


def test_non_converged_message_names_last_and_smallest_step():
    grid, H, B = _torus_sine_16()
    with pytest.raises(SolverFailure) as exc:
        outer_iterate(H, B, SolveConfig(max_outer=5, gamma=BOX_GAMMA))
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
    assert rep.factorizations == 1 and rep.krylov_iterations == 10
    # every linear solve builds the preconditioner of its own matrix
    real = solver.LaggedLU.solve

    def fresh(self, A, b, *args):
        self.preconditioner = None
        return real(self, A, b, *args)

    monkeypatch.setattr(solver.LaggedLU, "solve", fresh)
    v_direct, direct = outer_iterate(H, B)
    assert direct.factorizations == direct.linear_solves > rep.factorizations
    # two sequences of inexact Newton steps, each to tol_inner
    assert np.max(np.abs(v.values - v_direct.values)) <= 1e-10
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


def _penalized_case(case, candidates=False):
    # with `candidates` the torus takes its box-sized penalty, so that its
    # sweeps propose Anderson candidates; the horosphere's do at its
    # slab-sized one
    if case == "horosphere":
        return _horosphere_16()
    cfg = SolveConfig(gamma=BOX_GAMMA) if candidates else SolveConfig()
    return (*_torus_sine_16(), cfg)


@pytest.mark.parametrize("case", ["torus_sine", "horosphere"])
def test_only_the_exit_sweep_needs_the_inner_tolerance(case):
    from pmcgraph.solver import SWEEP_FORCING

    grid, H, B, cfg = _penalized_case(case)
    _, rep = outer_iterate(H, B, cfg)
    assert rep.mode == "penalized" and rep.converged
    # early sweeps stop at a fraction of their seed's residual over gamma,
    # above tol_inner, the first sweep too: its seed, the lower barrier,
    # lies on the plateau and is its anchor, so that residual is
    # the barrier's own ...
    seed = np.max(np.abs(pmc_residual(grid, B.u1, H).values))
    assert (cfg.tol_inner < rep.residual_history[0]
            <= SWEEP_FORCING * seed / max(rep.gamma, 1.0))
    assert max(rep.residual_history[1:]) > cfg.tol_inner
    # ... but the exit sweep is solved to it, so the bound still holds.  A
    # penalized exit sweep stops at a step of tol_outer; the torus's exit
    # sweep is the direct solve at gamma = 0, which needs no small step
    assert rep.residual_history[-1] <= cfg.tol_inner
    assert rep.gamma_history[-1] == 0.0 or rep.step_history[-1] <= cfg.tol_outer
    assert rep.consistency_ok
    assert (rep.final_residual
            <= cfg.tol_inner + rep.gamma_history[-1] * rep.step_history[-1])


# the horosphere's runs both stop at a step of at most tol_outer, so their
# fields differ by a fraction of it, 1.4e-11; the torus's both end with the
# direct solve at gamma = 0, and their fields agree bit for bit
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
    grid, H, B = _torus_sine_16()
    log = _record_passes(monkeypatch)
    _, rep = outer_iterate(H, B, SolveConfig(gamma=BOX_GAMMA))
    assert rep.accelerated_steps + rep.rejected_steps > 0
    starts = [(seed, kwargs["penalty"]) for kind, seed, _, kwargs in log if kind == "solve"]
    unsolved = sum(e[2] for e in log if e[0] == "gate")
    # every sweep's first Newton iterate is its anchor, but for the
    # candidates the gate discards unsolved; a finishing solve starts from
    # its sweep's output instead
    fresh = [k for k in range(len(starts))
             if k == 0 or not _same(starts[k][1], starts[k - 1][1])]
    assert unsolved >= 1
    assert len(fresh) == rep.outer_count + rep.rejected_steps - unsolved
    for k in fresh:
        init, (gamma, anchor) = starts[k]
        assert gamma == rep.gamma and np.array_equal(init, anchor)


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
    # already meets tol_inner takes none
    for rep in reports:
        if rep["residual_history"][0] > cfg.tol_inner:
            assert rep["newton_steps"] >= 1
    # and the loose sweeps were there to check
    assert any(rep["tolerance"] > cfg.tol_inner for rep in reports)


# GMRES iterations with loose sweeps forced at FORCING_MAX, and under the
# rule of a solve at tol_inner, 32 and 7, the torus at its box-sized
# penalty, whose sweeps stay penalized and loose up to the exit sweep.  The
# fields differ by 7.4e-13 on the torus; on the horosphere, which stops at
# a step of 1e-8, every cycle meets both forcing terms alike
@pytest.mark.parametrize("case, krylov, tight, agree", [("torus_sine", 18, 32, 1e-12),
                                                        ("horosphere", 7, 7, 1e-9)])
def test_loose_forcing_changes_only_the_krylov_counts(
        monkeypatch, case, krylov, tight, agree):
    import pmcgraph.solver as solver

    grid, H, B, cfg = _penalized_case(case, candidates=True)
    v, rep = outer_iterate(H, B, cfg)
    assert rep.krylov_iterations == krylov
    real = solver._forcing_term
    monkeypatch.setattr(solver, "_forcing_term",
                        lambda loose, history: real(False, history))
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
    grid, H, _, _ = _supersolution_seed()
    lower = ScalarField(grid, np.full(grid.shape, 0.25))
    penalty = (2.0, lower.values)
    real = solver._forcing_term
    etas = []

    def recording(loose, history):
        etas.append(real(loose, history))
        return etas[-1]

    monkeypatch.setattr(solver, "_forcing_term", recording)
    # a loose sweep from the lower barrier, then the solve that finishes
    # it to tol_inner from its output
    u, loose = solve_inner(grid, H, None, lower, penalty=penalty, forcing=0.01)
    assert loose["tolerance"] > SolveConfig().tol_inner
    assert etas == [FORCING_MAX] * loose["newton_steps"] and etas
    etas.clear()
    _, finish = solve_inner(grid, H, None, u, penalty=penalty)
    assert finish["tolerance"] == SolveConfig().tol_inner
    assert finish["newton_steps"] >= 2
    assert etas[0] == FORCING_FIRST and max(etas[1:]) <= FORCING_MAX


# the torus at its box-sized penalty, whose sweeps evaluate no field twice;
# at the slab-sized one see the next test
@pytest.mark.parametrize("case, evals, every", [("torus_sine", 30, 45),
                                                ("horosphere", 14, 20)])
def test_each_iterate_is_evaluated_once(monkeypatch, case, evals, every):
    import pmcgraph.solver as solver

    grid, H, B, cfg = _penalized_case(case, candidates=True)
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
    # each solve evaluating its own seed gives the same solve, bit for bit;
    # the gate still evaluates each candidate, so an admitted one is
    # evaluated twice
    calls.clear()
    inner = solver.solve_inner
    monkeypatch.setattr(solver, "solve_inner",
                        lambda *args, evaluation=None, **kwargs: inner(*args, **kwargs))
    v_own, own = outer_iterate(H, B, cfg)
    assert len(calls) == every
    assert np.array_equal(v.values, v_own.values)
    assert rep.to_dict() == own.to_dict()


def test_the_direct_sweep_after_the_penalty_drops_starts_from_an_evaluation(monkeypatch):
    import pmcgraph.solver as solver

    # the 64x64 torus_sine config: two sweeps at its slab-sized penalty,
    # then the direct sweep from the second output, seeded with that
    # output's evaluation.  The one field evaluated twice is the full
    # Newton step clipped to u = c2, a trial of the first sweep and of the
    # direct one
    grid, H, B, _ = _torus_sine_64()
    real, inner = solver._graph_residual, solver.solve_inner
    log = []

    def evaluating(grid, values, H):
        log.append(values.copy())
        return real(grid, values, H)

    def solving(*args, **kwargs):
        log.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver, "_graph_residual", evaluating)
    monkeypatch.setattr(solver, "solve_inner", solving)
    _, rep = outer_iterate(H, B)
    assert rep.gamma_history == [rep.gamma, rep.gamma, 0.0] and rep.gamma > 0.0
    sweeps = [i for i, e in enumerate(log) if e is None]
    calls = [e for e in log if e is not None]
    assert len(sweeps) == 3 and len(calls) == 14
    assert len({c.tobytes() for c in calls}) == 13
    twice = [i for i, e in enumerate(log) if e is not None
             and sum(c.tobytes() == e.tobytes() for c in calls) == 2]
    assert len(twice) == 2 and np.all(log[twice[0]] == rep.cutoff["c2"])
    assert sweeps[0] < twice[0] < sweeps[1] and sweeps[2] < twice[1]
    # the direct sweep evaluates no seed: its first call is that trial
    assert twice[1] == sweeps[2] + 1


@pytest.mark.parametrize("problem", [
    lambda: (*_torus_sine_64()[:3], SolveConfig()), lambda: _horosphere_16(),
    lambda: _cap_17(), lambda: _one_dimensional_multiple_solutions()],
    ids=["torus-64", "horosphere", "cap", "1d-several-solutions"])
def test_the_report_reads_the_returned_fields_evaluation(problem):
    # final_residual, min_theta and sup_abs_curvature come off the last
    # output's evaluation, bit for bit what a fresh pass over the returned
    # field gives, at gamma = 0 (torus, cap) and above it (horosphere,
    # several solutions)
    grid, H, B, cfg = problem()
    v, rep = outer_iterate(H, B, cfg)
    assert rep.final_residual == float(np.max(np.abs(pmc_residual(grid, v, H).values)))
    assert rep.min_theta == float(np.min(graph_normal_env(grid, v.values)[0]["t"]))
    assert rep.sup_abs_curvature == float(np.max(np.abs(
        mean_curvature_product_values(grid, v.values))))


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

    grid, H, B, cfg = _penalized_case(case, candidates=True)
    v, rep = outer_iterate(H, B, cfg)
    # the gate then finds no strict supersolution, and solves every
    # candidate
    monkeypatch.setattr(solver, "_strict_supersolution", lambda residual, tol: False)
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


# fully periodic, each with and without the border: one line in 1-D; in 2-D
# lines of 5 to 130 unknowns
_WRAPPED = [((12,), ("periodic",)), ((128,), ("periodic",)),
            ((256,), ("periodic",)), ((300,), ("periodic",)),
            ((8, 6), ("periodic", "periodic")), ((16, 8), ("periodic", "periodic")),
            ((16, 16), ("periodic", "periodic")), ((24, 20), ("periodic", "periodic")),
            ((6, 130), ("periodic", "periodic"))]
# few lines, wrapped and bordered likewise
_WRAPPED_ENDS = [((4, 5), ("periodic", "periodic")), ((7, 130), ("periodic", "periodic"))]
# a dirichlet axis, so no border: one line in 1-D; in 2-D from 2 lines up,
# with and without a periodic axis
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
    # the test of the block LU solver, on the same matrices, now of the
    # preconditioned GMRES solve that replaced it
    from pmcgraph.solver import KRYLOV_RTOL, spsolve

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
    # GMRES stops at a residual of KRYLOV_RTOL; the systems are well enough
    # conditioned that the solution then agrees to 1e-9
    x = spsolve(A, b)
    assert np.linalg.norm(A @ x - b) <= KRYLOV_RTOL * np.linalg.norm(b)
    expected = np.linalg.solve(dense, b)
    assert np.max(np.abs(x - expected)) <= 1e-9 * np.max(np.abs(expected))


# besides the grids above: a 1-D line of two unknowns, and long lines or
# many short ones along either axis
_MORE = [((4,), ("dirichlet",)), ((257,), ("dirichlet",)),
         ((6, 100), ("dirichlet", "dirichlet")), ((65, 65), ("dirichlet", "dirichlet")),
         ((4, 257), ("periodic", "dirichlet")), ((257, 4), ("dirichlet", "periodic")),
         ((64, 64), ("periodic", "periodic"))]


def test_jacobian_entries_stay_in_their_rows_neighbourhood():
    # the stencil has one slot per neighbour offset in {-1, 0, 1}^d, so no
    # entry of an unknown may reach farther, wrapping on periodic axes
    offsets = []
    for shape, topology in _WRAPPED + _WRAPPED_ENDS + _DIRICHLET + _MORE:
        grid = build_grid(len(shape), shape, (1.0,) * len(shape), topology)
        r, c, w, _ = chain_entries(grid)
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
    from pmcgraph.solver import _jacobian_plan

    # the prescription of each base: y2 only on the 2-D one
    F = {dim: parse_pmc("0.4*z - 0.3*t + 0.2*sin(y1) " + "+ 0.1*y1*y2 " * (dim == 2)
                        + "- 0.05*cos(6.283185307179586*x1)") for dim in (1, 2)}
    for shape, topology in _WRAPPED + _WRAPPED_ENDS + _DIRICHLET + _MORE:
        grid = build_grid(len(shape), shape, (1.0,) * len(shape), topology)
        r, c, w, q = chain_entries(grid)
        n = int(np.count_nonzero(~grid.boundary_mask))
        # the pattern size of the entries summed by position, which the
        # sorted plan of earlier versions stored
        assert _jacobian_plan(grid).nnz == np.unique(r * n + c).size, (shape, topology)
        if n > 1500:
            continue
        u = 0.4 * np.random.default_rng(7).standard_normal(grid.shape)
        dense = dense_jacobian(grid, u, F[grid.dimension])
        J = assemble_jacobian(grid, u, F[grid.dimension]).toarray()
        assert np.max(np.abs(J - dense)) <= 1e-12 * np.max(np.abs(dense)), (shape, topology)


def test_the_plan_keeps_no_weight_per_unknown():
    from pmcgraph.solver import _JacobianPlan

    # every float array of the plan, also one held in a list, has the same
    # shape at 64x64 as at 128x128: its weights are one per slot and
    # coefficient row, not one per unknown
    def floats(value):
        if isinstance(value, (list, tuple)):
            return [shape for item in value for shape in floats(item)]
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            return [value.shape]
        return []

    def shapes(n):
        plan = _JacobianPlan(build_grid(2, (n, n), (1.0, 1.0), ("dirichlet", "periodic")))
        return {name: floats(value) for name, value in vars(plan).items()}

    small, large = shapes(64), shapes(128)
    assert small == large and small["weights"] == [(9, 11)]


# the grids of the dense slot-by-slot check: 1-D periodic and dirichlet, a
# dirichlet line of two unknowns, a torus, a dirichlet square and both
# mixed orders
_SMALL = [((12,), ("periodic",)), ((12,), ("dirichlet",)), ((4,), ("dirichlet",)),
          ((8, 6), ("periodic", "periodic")), ((4, 4), ("dirichlet", "dirichlet")),
          ((8, 9), ("periodic", "dirichlet")), ((9, 8), ("dirichlet", "periodic"))]


@pytest.mark.parametrize("shape, topology", _SMALL)
def test_the_plan_has_one_slot_per_offset_over_the_grids_own_axes(shape, topology):
    import itertools

    # 3^d slots over the grid's own axes, the center one the diagonal: slot
    # s of a row holds the dense Jacobian's entry at the neighbour of offset
    # s, wrapping on a periodic axis, and 0 where that neighbour is a
    # dirichlet node; no slot is 0 on every row, as a 1-D row is no line of
    # a 2-D array
    grid = build_grid(len(shape), shape, (1.0,) * len(shape), topology)
    u = 0.4 * np.random.default_rng(7).standard_normal(grid.shape)
    F = parse_pmc("0.4*z - 0.3*t + 0.2*sin(y1) - 0.05*cos(6.283185307179586*x1)")
    J = assemble_jacobian(grid, u, F)
    dense = dense_jacobian(grid, u, F)
    lines = J.plan.lines
    assert J.data.shape == (3 ** grid.dimension,) + lines
    np.testing.assert_array_equal(J.data[J.plan.center].reshape(-1), np.diag(J.toarray()))
    scale = 1e-12 * np.max(np.abs(dense))
    for s, step in enumerate(itertools.product((-1, 0, 1), repeat=grid.dimension)):
        expected = np.zeros(lines)
        for row in np.ndindex(*lines):
            at = [i + d for i, d in zip(row, step)]
            at = [a % L if t == "periodic" else a for a, L, t in zip(at, lines, topology)]
            if all(0 <= a < L for a, L in zip(at, lines)):
                expected[row] = dense[np.ravel_multi_index(row, lines),
                                      np.ravel_multi_index(at, lines)]
        np.testing.assert_allclose(J.data[s], expected, rtol=0, atol=scale)
        assert np.any(J.data[s] != 0.0), step


def test_no_per_grid_cache_holds_an_array_per_node_and_slot():
    import tracemalloc

    from pmcgraph.calculus import operators
    from pmcgraph.solver import _jacobian_plan

    # the operators and the Jacobian's plan of a grid that no other test
    # builds hold less than one float per node: their stencils are taps and
    # windows, not index or weight arrays over the nodes
    grid = build_grid(2, (257, 257), (1.0, 2.0), ("dirichlet", "periodic"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        operators(grid)
        _jacobian_plan(grid)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 8 * grid.node_count

    def arrays(value):
        if isinstance(value, (list, tuple)):
            return [a for item in value for a in arrays(item)]
        if hasattr(value, "__dict__"):
            return arrays(list(vars(value).values()))
        return [value] if isinstance(value, np.ndarray) else []

    sizes = [a.size for a in arrays([operators(grid), _jacobian_plan(grid)])]
    assert sizes and max(sizes) < grid.node_count


def test_a_non_finite_coefficient_ends_in_a_non_finite_step(monkeypatch):
    import pmcgraph.solver as solver

    # a NaN in one coefficient reaches the linear solve, which gives NaNs
    grid, H, B = _torus_sine_16()
    real = solver._jacobian_coefficients

    def poisoned(*args, **kwargs):
        q = real(*args, **kwargs)
        q[0].flat[3] = np.nan
        return q

    monkeypatch.setattr(solver, "_jacobian_coefficients", poisoned)
    with pytest.raises(SolverFailure, match="non-finite step"):
        solve_inner(grid, H, None, B.u1, penalty=(1.0, B.u1.values))


def _smooth_graph():
    # a smooth graph on a torus, and a prescription rising in height
    grid = build_grid(2, (16, 12), (1.0, 1.0), ("periodic", "periodic"))
    x1, x2 = grid.node_positions()
    return grid, 0.1 * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2), parse_pmc("0.5*sin(z) - 2*z")


def test_lagged_factor_refactors_far_or_resized_systems():
    from pmcgraph.solver import KRYLOV_RTOL, LaggedLU

    def solved(A, x, b):
        return np.linalg.norm(A @ x - b) <= KRYLOV_RTOL * np.linalg.norm(b)

    grid, u, F = _smooth_graph()
    rng = np.random.default_rng(0)
    A = assemble_jacobian(grid, u, F)
    b = rng.standard_normal(A.shape[0])
    lagged = LaggedLU()
    assert solved(A, lagged.solve(A, b), b)
    assert lagged.factorizations == 1
    # a nearby matrix is solved by GMRES on the old preconditioner
    before = lagged.krylov_iterations
    near = assemble_jacobian(grid, u + 1e-3 * rng.standard_normal(grid.shape), F)
    assert solved(near, lagged.solve(near, b), b)
    assert lagged.factorizations == 1 and lagged.krylov_iterations > before
    # one restart cycle cannot fix a preconditioner this far off
    far = assemble_jacobian(grid, u, F, shift=1e4)
    assert solved(far, lagged.solve(far, b), b)
    assert lagged.factorizations == 2
    # the bordered periodic system is one unknown larger
    big = A.bordered()
    b_big = rng.standard_normal(A.shape[0] + 1)
    assert solved(big, lagged.solve(big, b_big), b_big)
    assert lagged.factorizations == 3


def _counting_applies(monkeypatch):
    # the size of every vector the preconditioner is applied to
    from pmcgraph.solver import Preconditioner

    applies = []
    real = Preconditioner.solve
    monkeypatch.setattr(Preconditioner, "solve",
                        lambda self, b: applies.append(b.size) or real(self, b))
    return applies


def test_lagged_solve_applies_the_factor_once_per_iteration_and_once_more(
        monkeypatch):
    from pmcgraph.solver import LaggedLU

    applies = _counting_applies(monkeypatch)
    grid, u, F = _smooth_graph()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(grid.node_count)
    lagged = LaggedLU()
    for k in range(4):
        applies.clear()
        before = lagged.krylov_iterations
        lagged.solve(assemble_jacobian(grid, u + 1e-3 * k * np.cos(u), F), b)
        assert lagged.factorizations == 1
        # x0 = M b, then one M v per iteration; no solve is repeated
        assert len(applies) == lagged.krylov_iterations - before + 1 >= 2


def test_lagged_cycle_stops_at_the_callers_tolerance(monkeypatch):
    from pmcgraph.solver import KRYLOV_RTOL, LaggedLU

    applies = _counting_applies(monkeypatch)
    grid, u, F = _smooth_graph()
    rng = np.random.default_rng(0)
    lagged = LaggedLU()
    lagged.solve(assemble_jacobian(grid, u, F),
                 rng.standard_normal(grid.node_count))
    near = assemble_jacobian(grid, u + 1e-3 * rng.standard_normal(grid.shape), F)
    # a right-hand side whose start x0 = M b already leaves less than atol
    atol = 1e-8
    b = rng.standard_normal(grid.node_count)
    b *= 0.5 * atol / np.linalg.norm(b - near @ lagged.preconditioner.solve(b))
    assert atol > KRYLOV_RTOL * np.linalg.norm(b)
    applies.clear()
    before = lagged.krylov_iterations
    x = lagged.solve(near, b, atol)
    assert (lagged.factorizations, lagged.krylov_iterations) == (1, before)
    assert len(applies) == 1
    assert np.linalg.norm(near @ x - b) <= atol
    # a bound on the residual's sup below that of x0 takes iterations
    bound = 0.5 * np.max(np.abs(b - near @ x))
    x = lagged.solve(near, b, atol, bound)
    assert lagged.factorizations == 1 and lagged.krylov_iterations > before
    assert np.max(np.abs(near @ x - b)) <= bound
    # without a tolerance the cycle runs on to KRYLOV_RTOL
    before = lagged.krylov_iterations
    x = lagged.solve(near, b)
    assert lagged.factorizations == 1 and lagged.krylov_iterations > before
    assert np.linalg.norm(near @ x - b) <= KRYLOV_RTOL * np.linalg.norm(b)


def test_krylov_basis_is_allocated_once_per_system_size():
    from pmcgraph.solver import KRYLOV_RESTART, LaggedLU

    grid, u, F = _smooth_graph()
    rng = np.random.default_rng(0)
    lagged = LaggedLU()
    bases = []
    for k in range(3):
        A = assemble_jacobian(grid, u + 1e-3 * k * np.cos(u), F)
        lagged.solve(A, rng.standard_normal(A.shape[0]))
        bases.append(lagged.basis)
    # V and Z of one restart cycle, reused by every later cycle
    assert bases[0].shape == (2 * KRYLOV_RESTART + 1, A.shape[0])
    assert bases[1] is bases[0] and bases[2] is bases[0]
    big = A.bordered()
    lagged.solve(big, rng.standard_normal(big.shape[0]))
    assert lagged.basis.shape == (2 * KRYLOV_RESTART + 1, big.shape[0])


def test_singular_linear_system_gives_a_non_finite_step():
    from pmcgraph.solver import StencilMatrix, spsolve

    # a zero matrix on one line, on several lines with a wrap, and on
    # dirichlet and mixed grids
    for shape, topology in (((4,), ("periodic",)), ((4, 4), ("periodic",) * 2),
                            ((24, 20), ("periodic",) * 2),
                            ((6, 5), ("dirichlet", "periodic")),
                            ((6, 5), ("dirichlet", "dirichlet"))):
        J = _line_jacobian(shape, topology)
        zero = StencilMatrix(J.plan, np.zeros_like(J.data))
        assert np.all(np.isnan(spsolve(zero, np.ones(zero.shape[0]))))
    # the unbordered Jacobian of a height-free prescription keeps the
    # constants in its kernel; GMRES stalls on a right-hand side off its range
    J = _line_jacobian((16, 12), ("periodic", "periodic"), "0.2*sin(y1) - 0.3*t")
    assert np.all(np.isnan(spsolve(J, np.ones(J.shape[0]))))


@pytest.mark.parametrize("config", ["cap.json", "torus_sine.json"])
def test_singular_system_ends_as_exit_3_with_a_partial_report(
        monkeypatch, tmp_path, config):
    import json
    import os

    import pmcgraph.solver as solver
    from pmcgraph.cli import main

    # every Jacobian of the solve zeroed: its linear solve gives NaNs
    real = solver.assemble_jacobian

    def zeroed(*args, **kwargs):
        J = real(*args, **kwargs)
        return StencilMatrix(J.plan, np.zeros_like(J.data))

    monkeypatch.setattr(solver, "assemble_jacobian", zeroed)
    path = os.path.join(os.path.dirname(__file__), "..", "configs", config)
    report = tmp_path / "report.json"
    assert main(["solve", "--config", path, "--out-report", str(report),
                 "--out-field", str(tmp_path / "field.csv")]) == 3
    doc = json.loads(report.read_text())
    assert "non-finite step" in doc["error"] and doc["partial"]["linear_solves"] == 1
    assert doc["best_iterate_path"] is not None


def _constant_jacobian(shape, gauge_free, border=None, topology=None):
    # the Jacobian at a constant graph, whose every row is the same stencil;
    # bordered when the prescription is height-free, unless told otherwise
    text = "0.2*sin(y1) - 0.3*t" if gauge_free else "0.2*sin(y1) - 0.3*t - 2*z"
    grid = build_grid(len(shape), shape, (1.0,) * len(shape),
                      topology or ("periodic",) * len(shape))
    J = assemble_jacobian(grid, np.full(grid.shape, 0.7), parse_pmc(text))
    return J.bordered() if (gauge_free if border is None else border) else J


# every fully periodic grid of _WRAPPED, and lines of odd length on both axes
_TORI = [shape for shape, _ in _WRAPPED] + [(7, 5), (33, 31)]


@pytest.mark.parametrize("shape", _TORI)
@pytest.mark.parametrize("gauge_free", [False, True])
def test_fourier_factor_matches_a_dense_solve(shape, gauge_free):
    # on a translation-invariant matrix of a torus the preconditioner is
    # the exact factor of a circulant
    from pmcgraph.solver import Preconditioner

    A = _constant_jacobian(shape, gauge_free)
    slots = A.data.reshape(len(A.data), -1)
    assert np.all(slots == slots[:, :1])
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    x = Preconditioner(A).solve(b)
    expected = np.linalg.solve(A.toarray(), b)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def _fourier_factor_solve(A, b):
    """The FFT solve of a translation-invariant `StencilMatrix` of a torus,
    as the solver wrote it before its general preconditioner: each slot's
    eigenvalue term through sin(phi/2)^2 against the row sum, and the
    bordered system's zero mode set to the border's value."""
    import math

    # a 1-D plan is one line of a 2-D array, its 3 slots the middle row
    # of the 3 x 3 offsets
    L0, m = lines = (1,) * (2 - len(A.plan.lines)) + A.plan.lines
    n = A.plan.n
    row = A.data.reshape(len(A.data), -1)[:, 0]
    row = row if len(row) == 9 else np.pad(row, 3)
    lam = np.full((L0, m // 2 + 1), math.fsum(row), dtype=complex)
    f0, f1 = np.fft.fftfreq(L0)[:, None], np.fft.rfftfreq(m)
    for s, value in enumerate(row):
        k0, k1 = divmod(s, 3)
        phi = 2.0 * np.pi * (f0 * (1 - k0) + f1 * (1 - k1))
        lam -= value * (2.0 * np.sin(0.5 * phi) ** 2 + 1j * np.sin(phi))
    lam0 = lam[0, 0].real
    if A.border:
        lam[0, 0] = 1.0
    f = np.fft.rfft2(b[:n].reshape(lines))
    if not A.border:
        return np.fft.irfft2(f / lam, s=lines).reshape(-1)
    g = b[n]
    mu = (f[0, 0].real - lam0 * g) / n
    f[0, 0] = g
    return np.append(np.fft.irfft2(f / lam, s=lines), mu)


@pytest.mark.parametrize("shape", _TORI)
@pytest.mark.parametrize("gauge_free", [False, True])
def test_preconditioner_reproduces_the_fourier_factor_bit_for_bit(shape, gauge_free):
    from pmcgraph.solver import Preconditioner

    # S = I and K = A exactly, so torus_sine and horosphere, whose first
    # Jacobian is such a matrix, keep every counter
    A = _constant_jacobian(shape, gauge_free)
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    M = Preconditioner(A)
    assert np.all(M.scale == 1.0)
    assert np.array_equal(M.solve(b), _fourier_factor_solve(A, b))


def test_fourier_factor_rejects_a_zero_eigenvalue():
    import math

    from pmcgraph.solver import Preconditioner

    # a height-free prescription leaves the constants in the kernel: the
    # zero mode's eigenvalue, the row sum, is 0.  Only the border pins it
    A = _constant_jacobian((8, 6), gauge_free=True, border=False)
    assert math.fsum(A.data.reshape(len(A.data), -1)[:, 0]) == 0.0
    Preconditioner(A.bordered())
    with pytest.raises(np.linalg.LinAlgError):
        Preconditioner(A)
    assert np.all(np.isnan(LaggedLU().solve(A, np.ones(A.shape[0]))))


@pytest.mark.parametrize("L", [1, 2, 5, 16, 31])
def test_sine_transform_is_the_dense_sine_matrix(L):
    from pmcgraph.solver import _sine_transform

    # -2 times the DST-I matrix sin(pi k n / (L + 1)), k, n = 1..L, along
    # either axis of a 2-D array; applied twice, 2(L + 1) times the identity
    k = np.arange(1, L + 1)
    Q = np.sin(np.pi * np.outer(k, k) / (L + 1))
    x = np.random.default_rng(L).standard_normal((L, 3))
    np.testing.assert_allclose(_sine_transform(x, 0), -2.0 * Q @ x, rtol=0, atol=1e-12 * L)
    np.testing.assert_allclose(_sine_transform(x.T, 1), -2.0 * (Q @ x).T, rtol=0,
                               atol=1e-12 * L)
    np.testing.assert_allclose(_sine_transform(_sine_transform(x, 0), 0),
                               2 * (L + 1) * x, rtol=0, atol=1e-12 * L)


# translation-invariant rows on a torus, on dirichlet and mixed grids, and
# in 1-D; the prescription reads no gradient, so that the stencil is
# symmetric across a dirichlet axis
_INVARIANT = [((16, 12), ("periodic", "periodic")), ((16, 12), ("dirichlet", "dirichlet")),
              ((9, 14), ("periodic", "dirichlet")), ((14, 9), ("dirichlet", "periodic")),
              ((20,), ("dirichlet",)), ((20,), ("periodic",))]


@pytest.mark.parametrize("shape, topology", _INVARIANT)
def test_preconditioner_is_exact_only_for_a_translation_invariant_matrix(shape, topology):
    from pmcgraph.solver import Preconditioner

    grid = build_grid(len(shape), shape, (1.0,) * len(shape), topology)
    A = assemble_jacobian(grid, np.full(grid.shape, 0.7), parse_pmc("-0.3*t - 2*z"))
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    expected = np.linalg.solve(A.toarray(), b)
    # FFT along periodic axes, DST-I along dirichlet ones
    x = Preconditioner(A).solve(b)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))
    # at a graph that is not constant the rows differ, and M is a
    # preconditioner only: GMRES takes iterations to meet KRYLOV_RTOL
    J = _line_jacobian(shape, topology, "-0.3*t - 2*z")
    x = Preconditioner(J).solve(b)
    expected = np.linalg.solve(J.toarray(), b)
    assert np.max(np.abs(x - expected)) > 1e-6 * np.max(np.abs(expected))
    lagged = LaggedLU()
    lagged.solve(J, b)
    assert lagged.factorizations == 1 and lagged.krylov_iterations > 0


@pytest.mark.parametrize("config", ["torus_sine.json", "horosphere.json"])
def test_shipped_periodic_solves_build_one_exact_preconditioner(
        monkeypatch, tmp_path, config):
    import json
    import os

    import pmcgraph.solver as solver
    from pmcgraph.cli import main

    # their first Jacobian is at a constant graph of a prescription whose
    # partials do not read x: the one preconditioner is its exact factor,
    # and the later systems take GMRES iterations on it
    built = []
    real = solver.Preconditioner
    monkeypatch.setattr(solver, "Preconditioner", lambda A: built.append(A) or real(A))
    path = os.path.join(os.path.dirname(__file__), "..", "configs", config)
    report = tmp_path / "report.json"
    assert main(["solve", "--config", path, "--out-report", str(report),
                 "--out-field", str(tmp_path / "field.csv")]) == 0
    doc = json.loads(report.read_text())
    assert doc["consistency_ok"] and doc["factorizations"] == 1
    assert doc["krylov_iterations"] == {"torus_sine.json": 10, "horosphere.json": 7}[config]
    slots = built[0].data.reshape(len(built[0].data), -1)
    assert len(built) == 1 and np.all(slots == slots[:, :1])


def _mixed_torus_sine():
    # the 16x16 torus_sine problem with its second axis dirichlet, at the
    # trace pi/2 between the barriers
    grid = build_grid(2, (16, 17), (1.0, 1.0), ("periodic", "dirichlet"))
    H = parse_pmc(f"0.5*sin(z) + 0.1*sin({TWO_PI}*x1)")
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, 0.25)),
                    ScalarField(grid, np.full(grid.shape, np.pi + 0.25)),
                    ScalarField(grid, np.full(grid.shape, 0.5 * np.pi)))
    return grid, H, B, SolveConfig()


def _steep_catenoid_33():
    # the catenoid config moved toward its neck: |Du| reaches about 5
    grid = build_grid(2, (33, 33), (0.8, 0.8), ("dirichlet", "dirichlet"),
                      origin=(1.02, -0.4))
    x1, x2 = grid.node_positions()
    r = np.sqrt(x1 ** 2 + x2 ** 2)
    cat = np.log(r + np.sqrt(r ** 2 - 1.0))
    B = BarrierPair(ScalarField(grid, cat - 0.05), ScalarField(grid, cat + 0.05),
                    ScalarField(grid, cat))
    return grid, parse_pmc("0"), B, SolveConfig(allowance_constant=100.0)


@pytest.mark.parametrize("problem", [_mixed_torus_sine, _steep_catenoid_33],
                         ids=["mixed-torus-sine", "steep-catenoid"])
def test_preconditioned_newton_converges_to_the_exactly_solved_field(
        monkeypatch, problem):
    import pmcgraph.solver as solver

    grid, H, B, cfg = problem()
    v, rep = outer_iterate(H, B, cfg)
    assert rep.consistency_ok and rep.krylov_iterations > 0
    # every Newton step solved by a dense LU instead, as the block LU did
    monkeypatch.setattr(solver, "spsolve", lambda A, b, *args: np.linalg.solve(A.toarray(), b))
    v_exact, exact = outer_iterate(H, B, cfg)
    assert sup_norm(v, v_exact) <= 1e-10


def test_a_tolerance_below_the_rounding_floor_keeps_every_counter(monkeypatch):
    import pmcgraph.solver as solver

    grid, H, B = _torus_sine_16()
    cfg = SolveConfig(tol_inner=1e-15)
    # the lower barrier moved down by one ulp at every node
    lower = BarrierPair(ScalarField(grid, np.nextafter(B.u1.values, -np.inf)), B.u0)
    counters = ("outer_count", "accelerated_steps", "rejected_steps", "inner_newton_counts",
                "linear_solves", "krylov_iterations", "factorizations")
    reports = [outer_iterate(H, pair, cfg)[1] for pair in (B, lower)]
    for name in counters:
        assert getattr(reports[0], name) == getattr(reports[1], name), name
    rep = reports[0]
    assert rep.rounding_floor > cfg.tol_inner and rep.consistency_ok
    assert rep.consistency_bound == rep.rounding_floor
    # without the floor the last sweep chases rounding until its line search
    # stagnates
    monkeypatch.setattr(solver, "FLOOR_ULPS", 0.0)
    with pytest.raises(SolverFailure, match="line search stagnated"):
        outer_iterate(H, B, cfg)


def test_shipped_sizes_keep_the_floor_below_the_default_tolerance():
    from pmcgraph.solver import rounding_floor

    # the 64x64 torus_sine config at its clip range's height, and the
    # tolerance it meets at 256x256
    torus = build_grid(2, (64, 64), (1.0, 1.0), ("periodic", "periodic"))
    assert 5e-11 < rounding_floor(torus, 3.71) < SolveConfig().tol_inner
    fine = build_grid(2, (256, 256), (1.0, 1.0), ("periodic", "periodic"))
    assert rounding_floor(fine, 3.71) == pytest.approx(16 * rounding_floor(torus, 3.71))


def test_penalized_horosphere_trees_share_every_repeated_subtree():
    grid, H, B, cfg = _horosphere_16()
    F = PMCFunction(H.ast - 1.64 * Var("z"))
    inner = {}

    def walk(node):
        if node.args and id(node) not in inner:
            inner[id(node)] = node.to_str()
            for a in node.args:
                walk(a)

    for tree in F.trees(["z", "y1", "y2", "t"]):
        walk(tree)
    # (1.0 / z) and its negation each appear in two of the trees
    assert len(inner) == 25
    assert len(set(inner.values())) == len(inner)


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


def _constant_pair(lower, upper):
    # a builder of the constant barriers on any fully periodic grid
    return lambda grid: BarrierPair(ScalarField(grid, np.full(grid.shape, lower)),
                                    ScalarField(grid, np.full(grid.shape, upper)))


def test_solve_quasi_constant_solution():
    grid = build_grid(1, (16,), (1.0,), ("periodic",))
    D = QuasiDecomposition(parse_pmc("-z"), parse_pmc("0.3"))
    v, rep = solve_quasi(D, _constant_pair(-1.0, 1.0), grid)
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
    with pytest.raises(ValueError, match="not quasi-decreasing"):
        solve_quasi(D, _constant_pair(-1.0, 1.0), grid)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        SolveConfig(tol_inner=0.0)
    with pytest.raises(ValueError, match="gamma"):
        SolveConfig(gamma=-2.0)
    with pytest.raises(ValueError, match="increasing"):
        SolveConfig(box=(1.0, 1.0))
