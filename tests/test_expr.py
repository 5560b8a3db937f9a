import numpy as np
import pytest

from pmcgraph.expr import (
    Call,
    EvalDomainError,
    ExprNode,
    Func,
    ParseError,
    Var,
    eval_checked,
    parse_expr,
    shared_subtrees,
    takes_differences,
)

VARS = ("x1", "x2", "z", "y1", "y2", "t")


def ev(text, variables=VARS, **env):
    node = parse_expr(text, variables)
    return eval_checked(node, env)


def test_arithmetic_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("2*3+4") == 10.0
    assert ev("6/3/2") == 1.0
    assert ev("2-3-4") == -5.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("-z^2", z=3.0) == -9.0
    assert ev("2^-3") == 0.125
    assert ev("(2+3)*4") == 20.0
    assert ev("--5") == 5.0


def test_literals():
    assert ev("0.5") == 0.5
    assert ev(".25") == 0.25
    assert ev("1e3") == 1000.0
    assert ev("2.5e-2") == 0.025


def test_functions():
    assert ev("sin(0)") == 0.0
    assert abs(ev("cos(0)") - 1.0) == 0.0
    assert ev("min(z, 2)", z=5.0) == 2.0
    assert ev("max(z, 2)", z=5.0) == 5.0
    assert ev("abs(z)", z=-3.5) == 3.5
    assert abs(ev("tanh(100)") - 1.0) < 1e-12
    assert ev("sqrt(z)", z=9.0) == 3.0
    assert abs(ev("ln(exp(2))") - 2.0) < 1e-15
    assert abs(ev("tan(0.5)") - np.tan(0.5)) < 1e-15


def test_sample_curvature_expression():
    # frozen: 0.5*sin(0) + 0.1*sin(2*pi*0.25) = 0.1
    got = ev("0.5*sin(z)+0.1*sin(6.283185307179586*x1)", x1=0.25, z=0.0)
    assert abs(got - 0.1) < 1e-15


def test_vectorized_eval_broadcast():
    z = np.linspace(-1.0, 1.0, 11)
    got = ev("z^2 + x1", z=z, x1=2.0)
    assert np.allclose(got, z**2 + 2.0, atol=1e-15)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("foo(z)", VARS)
    assert err.value.position == 1
    assert "foo" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_expr("z + $", VARS)
    assert err.value.position == 5

    with pytest.raises(ParseError) as err:
        parse_expr("(z", VARS)
    assert "')'" in str(err.value)

    with pytest.raises(ParseError):
        parse_expr("z +", VARS)

    with pytest.raises(ParseError):
        parse_expr("", VARS)

    with pytest.raises(ParseError):
        parse_expr("sin(z, x1)", VARS)


def test_unknown_identifier_lists_allowed():
    with pytest.raises(ParseError) as err:
        parse_expr("q + 1", ("x1", "z"))
    msg = str(err.value)
    assert "'q'" in msg and "x1" in msg and "z" in msg


def test_variable_scoping():
    # r is only a variable where the caller says so
    node = parse_expr("1/r", ("r",))
    assert eval_checked(node, {"r": 2.0}) == 0.5
    with pytest.raises(ParseError):
        parse_expr("1/r", VARS)


def test_derivatives_basic():
    node = parse_expr("sin(z)*x1", VARS)
    dz = node.diff("z")
    got = eval_checked(dz, {"z": 0.3, "x1": 2.0})
    assert abs(got - 2.0 * np.cos(0.3)) < 1e-15

    cube = parse_expr("z^3", VARS).diff("z")
    assert eval_checked(cube, {"z": 2.0}) == 12.0

    selfpow = parse_expr("z^z", VARS).diff("z")
    want = 4.0 * (np.log(2.0) + 1.0)
    assert abs(eval_checked(selfpow, {"z": 2.0}) - want) < 1e-14


def test_derivative_of_absent_variable_is_exact_zero():
    # the partial must fold away completely, leaving no ln/div residue that
    # could go non-finite where the original expression is defined
    node = parse_expr("x1^2 + ln(x1)", ("x1", "z"))
    dz = node.diff("z")
    assert eval_checked(dz, {"x1": -5.0}) == 0.0


def test_derivative_abs_min_max():
    dabs = parse_expr("abs(z)", VARS).diff("z")
    assert eval_checked(dabs, {"z": -2.0}) == -1.0
    assert eval_checked(dabs, {"z": 3.0}) == 1.0

    dmin = parse_expr("min(z, 3-z)", VARS).diff("z")
    assert eval_checked(dmin, {"z": 1.0}) == 1.0   # left branch active
    assert eval_checked(dmin, {"z": 2.5}) == -1.0  # right branch active

    dmax = parse_expr("max(z, 3-z)", VARS).diff("z")
    assert eval_checked(dmax, {"z": 1.0}) == -1.0


def test_non_finite_eval_names_the_point():
    node = parse_expr("1/z", VARS)
    z = np.array([1.0, 0.0, 2.0])
    with pytest.raises(EvalDomainError) as err:
        eval_checked(node, {"z": z})
    assert "z=0" in str(err.value)

    with pytest.raises(EvalDomainError):
        eval_checked(parse_expr("ln(z)", VARS), {"z": -1.0})


def test_division_not_checked_until_evaluation():
    node = parse_expr("1/z", VARS)  # parses fine
    assert eval_checked(node, {"z": 4.0}) == 0.25


def test_func_node_chain_rule_and_difference_fallback():
    # a Python-coded square applied to 2x: the rule gives 2a, chained with
    # d(2x)/dx = 2; without a rule a centered difference stands in
    arg = parse_expr("2*x", ("x",))
    rule = Func("twice", lambda a: 2.0 * a, (arg,))
    exact = Func("sq", lambda a: a * a, (arg,), (rule,)).diff("x")
    assert eval_checked(exact, {"x": 1.5}) == 12.0
    assert not takes_differences(exact)

    approx = Func("sq", lambda a: a * a, (arg,)).diff("x")
    assert takes_differences(approx)
    assert abs(eval_checked(approx, {"x": 1.5}) - 12.0) < 1e-8
    # an absent variable folds to the literal 0
    assert eval_checked(Func("sq", lambda a: a * a, (arg,)).diff("y"), {}) == 0.0


# ---------------------------------------------------------------------------
# operators


def test_operators_fold_zero_and_unit_factors():
    # a zero term reads no variable, so certificates sample no axis for it
    assert (Var("z") + 0.0 * Var("y1")).variables() == {"z"}
    z = Var("z")
    assert z * 1.0 is z


def test_numpy_scalars_defer_to_node_operators():
    assert isinstance(np.float64(2.0) * Var("z"), ExprNode)


def test_operator_tree_evaluates_like_parsed_text():
    rng = np.random.default_rng(3)
    env = {"z": rng.normal(size=50), "t": rng.uniform(size=50)}
    built = eval_checked(2.0 * Var("z") - Var("t"), env)
    parsed = eval_checked(parse_expr("2*z - t", VARS), env)
    assert np.array_equal(built, parsed)


# ---------------------------------------------------------------------------
# the function table

# name -> heights z where f(2z + 0.1) is smooth; for abs, min and max one
# on each side of the kink, min and max reading 1 - z as their second argument
PARSED_FUNCTIONS = {
    "sin": (0.2, 0.45), "cos": (0.2, 0.45), "tan": (0.2, 0.45),
    "exp": (0.2, 0.45), "ln": (0.2, 0.45), "sqrt": (0.2, 0.45),
    "tanh": (0.2, 0.45), "abs": (-0.4, 0.2), "min": (0.2, 0.6), "max": (0.2, 0.6),
}


def test_the_parser_accepts_the_table_but_sign():
    assert set(Call._TABLE) - {"sign"} == set(PARSED_FUNCTIONS)
    with pytest.raises(ParseError, match="unknown function 'sign'"):
        parse_expr("sign(z)", VARS)


@pytest.mark.parametrize("name", sorted(PARSED_FUNCTIONS))
def test_partial_of_each_parsed_function_matches_a_centered_difference(name):
    second = ", 1 - z" if name in ("min", "max") else ""
    node = parse_expr(f"{name}(2*z + 0.1{second})", VARS)
    dz = node.diff("z")
    h = 1e-6
    for z in PARSED_FUNCTIONS[name]:
        fd = (eval_checked(node, {"z": z + h}) - eval_checked(node, {"z": z - h})) / (2 * h)
        assert eval_checked(dz, {"z": z}) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_shared_subtrees_makes_equal_subtrees_one_node():
    a, b = (parse_expr(t, VARS) for t in ("sin(z)*sin(z) + 1/z", "-(1/z) + 1/z"))
    sa, sb = shared_subtrees([a, b])
    assert sa.to_str() == a.to_str() and sb.to_str() == b.to_str()
    # both sin(z) are one node, and so are the three 1/z across the trees
    assert sa.a.a is sa.a.b
    assert sa.b is sb.a.a is sb.b
    env = {"z": np.linspace(0.5, 2.0, 7)}
    for old, new in ((a, sa), (b, sb)):
        assert np.array_equal(old.eval(env), new.eval(env))
    # a numeric function is one node only with its own function
    f = Func("f", np.sin, [Var("z")])
    g = Func("f", np.cos, [Var("z")])
    sf, sg = shared_subtrees([f, g])
    assert sf is not sg and sf.fn is np.sin and sg.fn is np.cos
