import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcgraph.grid import build_grid, constant_field, field_from_expr
from pmcgraph.expr import EvalDomainError, ParseError, Var
from pmcgraph.pmc import (
    MONOTONE_TOL,
    PMC_VARS,
    PMCFunction,
    QuasiDecomposition,
    WorkingBox,
    check_monotone,
    check_quasi_decreasing,
    graph_normal_env,
    parse_pmc,
    pmc_residual,
    sampled_range,
)

TWO_PI = 6.283185307179586


# -- PMCFunction --------------------------------------------------------------

def test_parse_and_eval():
    H = parse_pmc("0.5*sin(z) + 0.1*sin(6.283185307179586*x1)")
    assert abs(H.eval(dict(zip(PMC_VARS, (0.25, 0.0, 0.0, 0.0, 0.0, 1.0)))) - 0.1) < 1e-15
    assert H.provenance == "expression"
    assert H.has_exact_partials


def test_symbolic_partials():
    H = parse_pmc("z^2*t - 0.5*y1")
    # d/dz = 2 z t, d/dt = z^2, d/dy1 = -0.5
    assert H.partial("z", dict(zip(PMC_VARS, (0.0, 0.0, 3.0, 0.0, 0.0, 0.5)))) == pytest.approx(3.0, abs=1e-15)
    assert H.partial("t", dict(zip(PMC_VARS, (0.0, 0.0, 3.0, 0.0, 0.0, 0.5)))) == pytest.approx(9.0, abs=1e-15)
    assert H.partial("y1", dict(zip(PMC_VARS, (0.0, 0.0, 3.0, 0.2, 0.0, 0.5)))) == -0.5


def test_absent_variable_partial_is_exact_zero():
    H = parse_pmc("1 + 0.5*y1")
    # the height partial folds to the literal constant 0, so monotonicity
    # checks on height-free prescriptions pass with worst value exactly 0.0
    assert H.partial("z", dict(zip(PMC_VARS, (0.0, 0.0, 100.0, 0.5, 0.0, 0.5)))) == 0.0


def test_callable_fd_partials():
    H = PMCFunction.from_callable(lambda x1, x2, z, y1, y2, t: z * z * t)
    assert not H.has_exact_partials
    assert H.partial("z", dict(zip(PMC_VARS, (0.0, 0.0, 3.0, 0.0, 0.0, 0.5)))) == pytest.approx(3.0, rel=1e-8)
    assert H.partial("t", dict(zip(PMC_VARS, (0.0, 0.0, 3.0, 0.0, 0.0, 0.5)))) == pytest.approx(9.0, rel=1e-8)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError, match="t, x1, x2, y1, y2, z"):
        parse_pmc("sin(q)")


# -- WorkingBox ---------------------------------------------------------------

def test_box_validation():
    with pytest.raises(ValueError, match="a < b"):
        WorkingBox((1.0, 1.0), ((0.0, 1.0),))
    with pytest.raises(ValueError, match="base range"):
        WorkingBox((0.0, 1.0), ((2.0, 1.0),))
    box = WorkingBox((-1.0, 1.0), ((0.0, 1.0), (0.0, 2.0)))
    assert box.dimension == 2
    assert box.z_max - box.z_min == 2.0


def test_box_from_grid():
    g = build_grid(2, (8, 8), (1.0, 2.0), "periodic", origin=(0.0, -1.0))
    box = WorkingBox.from_grid(g, (0.0, 3.0))
    assert box.x_ranges == ((0.0, 1.0), (-1.0, 1.0))


def test_box_contains():
    box = WorkingBox((0.0, 1.0), ((0.0, 1.0),))
    assert box.contains_values(np.array([0.0, 0.5, 1.0]))
    assert box.contains_values(np.array([1.0 + 1e-13]))
    assert not box.contains_values(np.array([1.1]))


def test_lattice_is_upward_half_ball_1d():
    box = WorkingBox((0.0, 1.0), ((0.0, 1.0),))
    env = box.sample_lattice(samples=3)
    # 3 x1 * 3 z * {(y1,t)} with y1 in {-1,0,1}, t in {0,.5,1} and y1^2+t^2<=1:
    # (-1,0) (0,0) (0,.5) (0,1) (1,0) -> 5 normal pairs, 45 points total
    assert env["x1"].size == 45
    r2 = env["y1"] ** 2 + env["t"] ** 2
    assert np.all(r2 <= 1.0 + 1e-12)
    assert np.all(env["t"] >= 0.0)
    # the vertical pole and the horizontal corners are all sampled
    assert np.any((env["y1"] == 0.0) & (env["t"] == 1.0))
    assert np.any((env["y1"] == -1.0) & (env["t"] == 0.0))
    assert np.any((env["y1"] == 1.0) & (env["t"] == 0.0))


def test_lattice_count_2d():
    box = WorkingBox((0.0, 1.0), ((0.0, 1.0), (0.0, 1.0)))
    env = box.sample_lattice(samples=3)
    # normal triples surviving |Y|^2+t^2<=1: five at t=0, one each at t=.5, 1
    assert env["x1"].size == 27 * 7
    with pytest.raises(ValueError, match="at least 2"):
        box.sample_lattice(samples=1)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("samples", [2, 3, 9])
def test_lattice_matches_the_filtered_full_meshgrid(dimension, samples):
    box = WorkingBox((-0.3, 1.7), ((0.0, 1.0), (-2.0, 0.5))[:dimension])
    env = box.sample_lattice(samples)
    # the reference: every lattice point in C order, then the half-ball test
    axes = [np.linspace(lo, hi, samples) for lo, hi in box.x_ranges]
    axes.append(np.linspace(box.z_min, box.z_max, samples))
    axes += [np.linspace(-1.0, 1.0, samples)] * dimension
    axes.append(np.linspace(0.0, 1.0, samples))
    names = ("x1", "x2", "z", "y1", "y2", "t")
    if dimension == 1:
        names = ("x1", "z", "y1", "t")
    mesh = np.meshgrid(*axes, indexing="ij")
    full = {k: m.reshape(-1) for k, m in zip(names, mesh)}
    normal = [full[k] for k in names[dimension + 1:]]
    keep = sum(a * a for a in normal) <= 1.0 + 1e-12
    for k in names:
        np.testing.assert_array_equal(env[k], full[k][keep])
    if dimension == 1:
        assert not np.any(env["x2"]) and not np.any(env["y2"])


# -- monotonicity checks ------------------------------------------------------

def test_check_monotone_sine():
    H = parse_pmc("sin(z)")
    box = WorkingBox((0.25, 3.391592653589793), ((0.0, 1.0),))
    out = check_monotone(H, box)
    assert not out["passed"]
    # d/dz = cos(z) peaks at the low edge of the height range
    assert out["worst_value"] == pytest.approx(0.9689124217106447, abs=1e-15)
    assert out["worst_point"]["z"] == pytest.approx(0.25, abs=1e-15)


def test_check_monotone_height_free_passes_exactly():
    H = parse_pmc("1 + 0.5*y1 - 0.2*t")
    box = WorkingBox((-50.0, 50.0), ((0.0, 1.0),))
    out = check_monotone(H, box)
    assert out["passed"]
    assert out["worst_value"] == 0.0


def test_check_monotone_decreasing():
    H = parse_pmc("-z + 0.3*t")
    box = WorkingBox((-2.0, 2.0), ((0.0, 1.0), (0.0, 1.0)))
    out = check_monotone(H, box)
    assert out["passed"]
    assert out["worst_value"] == -1.0
    assert set(out["worst_point"]) == {"x1", "x2", "z", "y1", "y2", "t"}


def test_sampled_range_extremes_and_ties():
    box = WorkingBox((-1.0, 1.0), ((0.0, 1.0),))
    env = box.sample_lattice(3)
    # var=None bounds H itself; z is lowest and highest on whole lattice
    # slices, so each extreme is the first of its tied points
    lo, hi, lo_at, hi_at = sampled_range(parse_pmc("z + 0.5"), box, samples=3)
    assert (lo, hi) == (-0.5, 1.5)
    first_lo = int(np.flatnonzero(env["z"] == -1.0)[0])
    first_hi = int(np.flatnonzero(env["z"] == 1.0)[0])
    assert lo_at == {k: float(env[k][first_lo]) for k in ("x1", "z", "y1", "t")}
    assert hi_at == {k: float(env[k][first_hi]) for k in ("x1", "z", "y1", "t")}
    # a constant partial ties everywhere: both extremes sit at flat index 0
    lo, hi, lo_at, hi_at = sampled_range(parse_pmc("-2*z"), box, "z", lattice=env)
    assert lo == hi == -2.0
    assert lo_at == hi_at == {k: float(env[k][0]) for k in ("x1", "z", "y1", "t")}


_LEAF_CONSTS = ("0", "1", "0.5", "-2.25", "3")


def _expressions(names):
    """Prescription text from the grammar over the variables `names`."""
    leaves = st.sampled_from(tuple(names) + _LEAF_CONSTS)

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda p: f"({p[0]} {p[1]} {p[2]})"),
            st.tuples(st.sampled_from(("sin", "cos", "tanh", "abs", "exp")), inner).map(
                lambda p: f"{p[0]}({p[1]})"),
            st.tuples(st.sampled_from(("max", "min")), inner, inner).map(
                lambda p: f"{p[0]}({p[1]}, {p[2]})"),
            inner.map(lambda a: f"({a})^2"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def _range_cases(draw):
    dimension = draw(st.sampled_from((1, 2)))
    reads = draw(st.sets(st.sampled_from(PMC_VARS)))
    text = draw(_expressions(sorted(reads)))
    # a 2-D half-ball keeps no normal at 2 samples per axis
    samples = draw(st.sampled_from((3, 4, 5, 9) + ((2,) if dimension == 1 else ())))
    var = draw(st.sampled_from((None, "z", "t", "y1", "x1")))
    return dimension, reads, text, samples, var


def _range_or_error(*args, **kwargs):
    try:
        return sampled_range(*args, **kwargs)
    except EvalDomainError as exc:
        return str(exc)


def _first_of_class(env, reads, samples):
    """Flat indices of the first lattice point of each class agreeing on `reads`."""
    key = np.zeros(env["z"].size, dtype=np.int64)
    for k in PMC_VARS:
        if k in reads:
            key = key * samples + np.unique(env[k], return_inverse=True)[1]
    return np.sort(np.unique(key, return_index=True)[1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_range_cases())
def test_sampled_range_on_read_variables_equals_full_lattice(case):
    dimension, reads, text, samples, var = case
    box = WorkingBox((-0.3, 1.7), ((0.0, 1.0), (-2.0, 0.5))[:dimension])
    H = parse_pmc(text)
    full = box.sample_lattice(samples)
    # values, extremes, their points and any domain error are the full lattice's
    assert (_range_or_error(H, box, var, samples)
            == _range_or_error(H, box, var, samples, lattice=full))
    # the reduced lattice is the first point of each class, in lattice order
    sub = box.sample_lattice(samples, reads)
    rows = _first_of_class(full, reads, samples)
    assert set(sub) == set(PMC_VARS)
    for k in PMC_VARS:
        np.testing.assert_array_equal(sub[k], full[k][rows])


def test_reduced_lattice_of_an_empty_half_ball_is_empty():
    # at 2 samples per axis no 2-D normal lies in the closed half-ball
    box = WorkingBox((0.0, 1.0), ((0.0, 1.0), (0.0, 1.0)))
    env = box.sample_lattice(2, {"z", "t"})
    assert set(env) == set(PMC_VARS)
    assert all(v.shape == (0,) for v in env.values())


def test_callable_prescription_samples_the_full_lattice(monkeypatch):
    # a wrapped callable may read every variable: no axis can be dropped
    sizes = []
    sample_lattice = WorkingBox.sample_lattice

    def counted(self, *args, **kwargs):
        env = sample_lattice(self, *args, **kwargs)
        sizes.append(env["z"].size)
        return env

    monkeypatch.setattr(WorkingBox, "sample_lattice", counted)
    H = PMCFunction.from_callable(lambda x1, x2, z, y1, y2, t: -z + 0.0 * t)
    box = WorkingBox((-1.0, 1.0), ((0.0, 1.0), (0.0, 1.0)))
    assert check_monotone(H, box, 9)["passed"]
    assert sizes == [9 ** 3 * 281]


# -- quasi-decreasing splits --------------------------------------------------

def test_quasi_decomposition_composite():
    D = QuasiDecomposition.from_exprs("-z", "0.3")
    H = D.composite()
    assert H.eval(dict(zip(PMC_VARS, (0.0, 0.0, 2.0, 0.0, 0.0, 0.5)))) == pytest.approx(-1.85, abs=1e-15)
    assert H.partial("t", dict(zip(PMC_VARS, (0.0, 0.0, 2.0, 0.0, 0.0, 0.5)))) == pytest.approx(0.3, abs=1e-15)
    assert H.partial("z", dict(zip(PMC_VARS, (0.0, 0.0, 2.0, 0.0, 0.0, 0.5)))) == -1.0
    assert H.provenance == "composite"


def test_quasi_decomposition_variable_scoping():
    with pytest.raises(ParseError):
        QuasiDecomposition.from_exprs("-z + t", "0.3")  # t not allowed in H1
    with pytest.raises(ParseError):
        QuasiDecomposition.from_exprs("-z", "z")  # z not allowed in H2


def test_check_quasi_decreasing():
    box = WorkingBox((-2.0, 2.0), ((0.0, 1.0),))
    good = QuasiDecomposition.from_exprs("-z", "0.3*y1")
    out = check_quasi_decreasing(good, box)
    assert out["passed"] and out["h2_height_free"]

    bad = QuasiDecomposition.from_exprs("z", "0.3")
    out = check_quasi_decreasing(bad, box)
    assert not out["passed"]
    assert out["worst_value"] == 1.0


@pytest.mark.parametrize("slope", [0.1, -0.1])
def test_check_quasi_decreasing_flags_sneaky_h2(slope):
    # an H2 that smuggles height dependence in through a callable, rising or
    # falling: either sign of dH2/dz breaks the split
    h1 = PMCFunction.from_callable(lambda x1, x2, z, y1, y2, t: -z)
    h2 = PMCFunction.from_callable(lambda x1, x2, z, y1, y2, t: slope * z)
    box = WorkingBox((1.0, 2.0), ((0.0, 1.0),))
    out = check_quasi_decreasing(QuasiDecomposition(h1, h2), box)
    assert not out["h2_height_free"]
    assert not out["passed"]


# -- residual -----------------------------------------------------------------

def test_graph_normal_is_unit():
    g = build_grid(2, (17, 17), (1.0, 1.0), "dirichlet", origin=(-0.5, -0.5))
    u = field_from_expr(g, "sqrt(1 - x1^2 - x2^2)")
    env, omega = graph_normal_env(g, u.values)
    r2 = env["y1"] ** 2 + env["y2"] ** 2 + env["t"] ** 2
    assert np.max(np.abs(r2 - 1.0)) < 1e-14
    assert np.all(env["t"] > 0.0)
    assert np.max(np.abs(env["t"] * omega - 1.0)) < 1e-14


def test_residual_zero_for_plane():
    g = build_grid(2, (9, 9), (1.0, 1.0), "dirichlet")
    u = field_from_expr(g, "0.3 + 0.1*x1 - 0.2*x2")
    res = pmc_residual(g, u, parse_pmc("0"))
    assert np.max(np.abs(res.values)) < 1e-12


def test_residual_cap():
    g = build_grid(2, (33, 33), (1.0, 1.0), "dirichlet", origin=(-0.5, -0.5))
    u = field_from_expr(g, "sqrt(1 - x1^2 - x2^2)")
    res = pmc_residual(g, u, parse_pmc("2"))
    assert np.max(np.abs(res.values)) < 0.05
    assert np.max(np.abs(res.values[8:-8, 8:-8])) < 1e-3
    assert np.all(res.values[g.boundary_mask] == 0.0)


def test_residual_translation_covariance():
    g = build_grid(2, (16, 16), (1.0, 1.0), "periodic")
    u = field_from_expr(g, f"0.2*sin({TWO_PI}*x1) + 0.1*cos({TWO_PI}*x2)")
    shifted = constant_field(g, 3.0)
    H = parse_pmc("y1^2 + 0.5*t")  # height-free
    a = pmc_residual(g, u, H)
    b = pmc_residual(g, type(u)(g, u.values + shifted.values), H)
    # differencing heights near 3 instead of near 0 costs a few mantissa bits
    assert np.max(np.abs(a.values - b.values)) < 1e-11


def test_residual_box_exit_names_nodes():
    g = build_grid(2, (4, 4), (1.0, 1.0), "periodic")
    u = constant_field(g, 0.5)
    box = WorkingBox.from_grid(g, (0.6, 1.0))
    with pytest.raises(ValueError) as err:
        pmc_residual(g, u, parse_pmc("0"), box=box)
    msg = str(err.value)
    assert "16 node(s)" in msg
    assert "flat indices 0, 1, 2, 3, 4" in msg
    assert "..." in msg


def test_residual_inside_box_is_fine():
    g = build_grid(2, (4, 4), (1.0, 1.0), "periodic")
    u = constant_field(g, 0.5)
    box = WorkingBox.from_grid(g, (0.0, 1.0))
    res = pmc_residual(g, u, parse_pmc("0"), box=box)
    assert np.max(np.abs(res.values)) == 0.0


def test_residual_grid_mismatch():
    g = build_grid(2, (8, 8), (1.0, 1.0), "periodic")
    other = build_grid(2, (8, 8), (2.0, 1.0), "periodic")
    u = constant_field(other, 0.0)
    with pytest.raises(ValueError, match="not defined on"):
        pmc_residual(g, u, parse_pmc("0"))


def test_monotone_tolerance_is_tight():
    assert MONOTONE_TOL <= 1e-12


# -- one evaluation of a prescription and its partials ------------------------

PARTIALS = ("z", "y1", "y2", "t")


class _CountingProfile:
    """The height profile exp(-z/10) as a `Func` node, counting the
    evaluations of its value."""

    def __init__(self):
        from pmcgraph.expr import Func, Var

        self.calls = 0
        z = Var("z")
        self.node = Func("profile", self.value, (z,),
                         (Func("profile'", lambda r: -0.1 * np.exp(-0.1 * r), (z,)),))

    def value(self, r):
        self.calls += 1
        return np.exp(-0.1 * r)


def _prescription(case, profile=None):
    from pmcgraph.geometry import ConformalFactor, conformal_transform_pmc

    if case == "penalized":
        H = parse_pmc(f"0.5*sin(z) + 0.1*sin({TWO_PI}*x1) + 0.3*y1*t - sqrt(z + 1)")
        profile = profile or _CountingProfile()
        return PMCFunction(profile.node * H.ast - 1.9 * Var("z"))
    return conformal_transform_pmc(parse_pmc("-1 - z + 0.2*y2"),
                                   ConformalFactor.from_expr("-ln(r) + 0.1*x2*r"), 2)


def _lattice(samples):
    return WorkingBox((0.5, 2.0), ((0.0, 1.0), (0.0, 1.0))).sample_lattice(samples)


def _separate_calls(F, env):
    return [lambda: F.eval(env), lambda: F.partial("z", env), lambda: F.partial("y1", env),
            lambda: F.partial("y2", env), lambda: F.partial("t", env)]


def _first_error(calls):
    for call in calls:
        try:
            call()
        except EvalDomainError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("case", ["penalized", "transformed"])
def test_shared_evaluation_equals_separate_calls_bit_for_bit(case):
    F = _prescription(case)
    env = _lattice(5)
    shared = F.eval_with_partials(env, PARTIALS)
    separate = [call() for call in _separate_calls(F, env)]
    assert len(shared) == len(separate) == 5
    for a, b in zip(shared, separate):
        assert a.shape == np.shape(b)
        assert a.tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("case, z", [
    # the value is not finite there (ln of a negative height) ...
    ("transformed", -0.5),
    # ... or the value is, but its height partial, through 0.5/sqrt(z + 1), is not
    ("penalized", -1.0),
])
def test_shared_evaluation_raises_the_first_separate_error(case, z):
    F = _prescription(case)
    env = _lattice(3)
    env["z"] = np.where(np.arange(env["z"].size) == 7, z, env["z"])
    message = _first_error([lambda: F.eval_with_partials(env, PARTIALS)])
    assert message is not None
    assert message == _first_error(_separate_calls(F, env))
    assert message.startswith("d/dz of" if case == "penalized" else "transformed curvature")


def test_shared_evaluation_computes_a_common_subtree_once():
    counter = _CountingProfile()
    F = _prescription("penalized", counter)
    env = _lattice(3)
    for call in _separate_calls(F, env):
        call()
    # the profile is a factor of the value and of the partials by z, y1 and
    # t; the one by y2 folds to the constant 0
    assert counter.calls == 4
    counter.calls = 0
    F.eval_with_partials(env, PARTIALS)
    assert counter.calls == 1


# -- the 1-D rule -----------------------------------------------------------

def test_one_dimensional_prescription_reads_x2_and_y2_as_zero():
    H = parse_pmc("1 + x2 + 3*y2")
    box = WorkingBox((0.5, 2.0), ((0.0, 1.0),))
    lattice = box.sample_lattice(5)
    assert tuple(lattice) == PMC_VARS
    assert np.all(lattice["x2"] == 0.0) and np.all(lattice["y2"] == 0.0)
    assert np.all(H.eval(lattice) == 1.0)
    grid = build_grid(1, 8, 1.0, "periodic")
    u = field_from_expr(grid, f"1 + 0.1*sin({TWO_PI}*x1)")
    env, _ = graph_normal_env(grid, u.values)
    assert tuple(env) == PMC_VARS
    assert np.all(env["x2"] == 0.0) and np.all(env["y2"] == 0.0)
    assert np.all(H.eval(env) == 1.0)
    assert np.all(H.partial("y2", env) == 3.0)


@pytest.mark.parametrize("ranges, names", [
    (((0.0, 1.0),), ("x1", "z", "y1", "t")),
    (((0.0, 1.0), (0.0, 1.0)), PMC_VARS),
])
def test_worst_point_names_the_box_variables_only(ranges, names):
    box = WorkingBox((0.5, 2.0), ranges)
    rep = check_monotone(parse_pmc("-z + x2*y2"), box, samples=5)
    assert tuple(rep["worst_point"]) == names
    for point in sampled_range(parse_pmc("z + x2"), box, samples=5)[2:]:
        assert tuple(point) == names
