"""Arithmetic expressions over named variables.

Small recursive-descent parser plus symbolic partial derivatives, used for
curvature functions, conformal factors and barrier/field expressions.

Grammar (whitespace ignored, positions reported 1-based):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER
            | IDENT                      # variable
            | IDENT '(' expr ')'         # 1-argument function
            | IDENT '(' expr ',' expr ')'# 2-argument function
            | '(' expr ')'

Functions: sin cos tan exp ln sqrt tanh abs (one argument), min max (two),
the rows of `Call._TABLE`, which also holds each one's evaluator and
derivative rule.  Numbers are decimal literals with optional fraction and
exponent part.

Evaluation is vectorized over numpy arrays.  Domain problems (division by
zero, ln of a negative, ...) are not caught eagerly; `eval_checked` raises
once a non-finite value appears, naming the first offending sample point.
It also evaluates several trees at once, such as a prescription and its
partials, computing each subtree they share once; `shared_subtrees` makes
the subtrees of one structure one node, so that each is shared.

A tree may also hold `Func` nodes, numeric functions given as Python code;
where such a node has no derivative rule, `Func.diff` takes a centered
difference of step `FD_STEP`, the only finite-difference code in the package.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "ParseError",
    "EvalDomainError",
    "ExprNode",
    "Func",
    "parse_expr",
    "eval_checked",
    "shared_subtrees",
    "takes_differences",
    "Add",
    "Mul",
    "Call",
    "Const",
    "Var",
    "rename_var",
]

FD_STEP = 1e-6


class ParseError(ValueError):
    """Raised for malformed expression text; carries a 1-based position."""

    def __init__(self, position, message):
        self.position = position
        super().__init__(f"parse error at position {position}: {message}")


class EvalDomainError(ValueError):
    """Raised when an expression evaluates to a non-finite value."""


# ---------------------------------------------------------------------------
# AST


class ExprNode:
    """Base class; a node's children are its `args`, `()` for a leaf, and
    `variables`, `rename_var` and `takes_differences` walk them.  Subclasses
    implement _eval (a leaf: eval), diff and to_str.

    `a + b`, `a - b`, `a * b` and `c * a` build trees through the
    simplifying constructors below, with a number operand taken as a
    `Const`; numpy defers to them (`__array_ufunc__ = None`), so
    `np.float64(c) * a` is a node too.
    """

    __array_ufunc__ = None
    args = ()
    differenced = False

    def __add__(self, other):
        return _add(self, _node(other))

    def __sub__(self, other):
        return _sub(self, _node(other))

    def __mul__(self, other):
        return _mul(self, _node(other))

    def __rmul__(self, other):
        return _mul(_node(other), self)

    def eval(self, env, memo=None):
        """The value over `env`, a mapping of variable names to scalars or
        arrays.  With a `memo` dict each inner node is evaluated at most
        once per memo, keyed by identity, so trees evaluated with one memo
        compute the subtrees they share once."""
        if memo is None:
            return self._eval(env, None)
        if self not in memo:
            memo[self] = self._eval(env, memo)
        return memo[self]

    def variables(self):
        return frozenset().union(*(a.variables() for a in self.args))

    def _map(self, fn):
        """Copy with fn applied to each child; a leaf is its own copy."""
        return type(self)(*map(fn, self.args)) if self.args else self

    def __repr__(self):
        return f"<expr {self.to_str()}>"


class Const(ExprNode):
    def __init__(self, value):
        self.value = float(value)

    def eval(self, env, memo=None):
        # a leaf is as cheap to read as to look up in a memo
        return self.value

    def diff(self, name):
        return Const(0.0)

    def to_str(self):
        return repr(self.value)


class Var(ExprNode):
    def __init__(self, name):
        self.name = name

    def eval(self, env, memo=None):
        return env[self.name]

    def diff(self, name):
        return Const(1.0 if name == self.name else 0.0)

    def variables(self):
        return frozenset((self.name,))

    def to_str(self):
        return self.name


class _Binary(ExprNode):
    symbol = "?"

    def __init__(self, a, b):
        self.a = a
        self.b = b
        self.args = (a, b)

    def _eval(self, env, memo):
        return self.op(self.a.eval(env, memo), self.b.eval(env, memo))

    def to_str(self):
        return f"({self.a.to_str()} {self.symbol} {self.b.to_str()})"


class Add(_Binary):
    symbol, op = "+", operator.add

    def diff(self, name):
        return _add(self.a.diff(name), self.b.diff(name))


class Sub(_Binary):
    symbol, op = "-", operator.sub

    def diff(self, name):
        return _sub(self.a.diff(name), self.b.diff(name))


class Mul(_Binary):
    symbol, op = "*", operator.mul

    def diff(self, name):
        return _add(_mul(self.a.diff(name), self.b),
                    _mul(self.a, self.b.diff(name)))


class Div(_Binary):
    symbol, op = "/", operator.truediv

    def diff(self, name):
        da, db = self.a.diff(name), self.b.diff(name)
        num = _sub(_mul(da, self.b), _mul(self.a, db))
        return _div(num, _mul(self.b, self.b))


class Pow(_Binary):
    symbol, op = "^", operator.pow

    def diff(self, name):
        a, b = self.a, self.b
        da, db = a.diff(name), b.diff(name)
        if isinstance(b, Const):
            # c * a^(c-1) * a'
            return _mul(_mul(Const(b.value), _pow(a, Const(b.value - 1.0))), da)
        if isinstance(a, Const):
            # a^b * ln(a) * b'
            return _mul(_mul(self, Const(float(np.log(a.value)))), db)
        # a^b * (b' ln a + b a'/a)
        inner = _add(_mul(db, _fold(Call("ln", (a,)))), _div(_mul(b, da), a))
        return _mul(self, inner)


class Neg(ExprNode):
    def __init__(self, a):
        self.a = a
        self.args = (a,)

    def _eval(self, env, memo):
        return -self.a.eval(env, memo)

    def diff(self, name):
        return _neg(self.a.diff(name))

    def to_str(self):
        return f"(-{self.a.to_str()})"


def _chain(outer):
    """Derivative rule of a one-argument function whose own derivative at
    the argument u of node f is the tree outer(f, u)."""
    return lambda f, du: _mul(outer(f, f.args[0]), du)


def _min_max(f, da, db):
    """Derivative rule of min and max, from min/max = (a+b)/2 -/+ |a-b|/2."""
    a, b = f.args
    half = Const(0.5)
    sym = _mul(half, _add(da, db))
    swing = _mul(_mul(half, _fold(Call("sign", (_sub(a, b),)))), _sub(da, db))
    return _sub(sym, swing) if f.name == "min" else _add(sym, swing)


class Call(ExprNode):
    """Call of a named function.  `_TABLE` maps each name to its numpy
    evaluator, whose `nin` is the arity, and to its derivative rule,
    rule(node, *argument derivatives) -> tree.  The parser accepts every
    name but `sign`, which only derivatives build."""

    _TABLE = {
        "sin": (np.sin, _chain(lambda f, u: _fold(Call("cos", (u,))))),
        "cos": (np.cos, _chain(lambda f, u: _neg(_fold(Call("sin", (u,)))))),
        "tan": (np.tan, _chain(
            lambda f, u: _div(Const(1.0), _mul(c := _fold(Call("cos", (u,))), c)))),
        "exp": (np.exp, _chain(lambda f, u: f)),
        "ln": (np.log, _chain(lambda f, u: _div(Const(1.0), u))),
        "sqrt": (np.sqrt, _chain(lambda f, u: _div(Const(0.5), f))),
        "tanh": (np.tanh, _chain(lambda f, u: _sub(Const(1.0), _mul(f, f)))),
        "abs": (np.abs, _chain(lambda f, u: _fold(Call("sign", (u,))))),
        "min": (np.minimum, _min_max),
        "max": (np.maximum, _min_max),
        "sign": (np.sign, lambda f, du: Const(0.0)),
    }

    def __init__(self, name, args):
        self.name = name
        self.fn = self._TABLE[name][0]
        self.args = tuple(args)

    def _eval(self, env, memo):
        return self.fn(*(a.eval(env, memo) for a in self.args))

    def to_str(self):
        inner = ", ".join(a.to_str() for a in self.args)
        return f"{self.name}({inner})"

    def diff(self, name):
        return self._TABLE[self.name][1](self, *(a.diff(name) for a in self.args))

    def _map(self, fn):
        return Call(self.name, map(fn, self.args))


class Func(Call):
    """Call of a numeric function given as Python code.

    `fn(*values)` maps the evaluated arguments to values.  `rules[i]`, when
    given, is a node for the partial of fn in its i-th argument, built over
    the same argument nodes; `diff` chains it with that argument's own
    derivative.  An argument without a rule is differentiated by a centered
    difference of step FD_STEP, and the node standing for that difference
    has `differenced` set.
    """

    def __init__(self, name, fn, args, rules=None, differenced=False):
        self.name = name
        self.fn = fn
        self.args = tuple(args)
        self.rules = tuple(rules) if rules is not None else (None,) * len(self.args)
        self.differenced = differenced

    def diff(self, name):
        out = Const(0.0)
        for i, (arg, rule) in enumerate(zip(self.args, self.rules)):
            darg = arg.diff(name)
            if _is_const(darg, 0.0):
                continue
            if rule is None:
                rule = Func(f"d{i + 1}{self.name}", _centered(self.fn, i),
                            self.args, differenced=True)
            out = _add(out, _mul(rule, darg))
        return out

    def _map(self, fn):
        return Func(self.name, self.fn, map(fn, self.args),
                    [r if r is None else fn(r) for r in self.rules], self.differenced)


def _centered(fn, i):
    """fn's centered difference quotient in its i-th argument."""
    def quotient(*values):
        hi, lo = list(values), list(values)
        hi[i] = np.asarray(values[i], dtype=float) + FD_STEP
        lo[i] = np.asarray(values[i], dtype=float) - FD_STEP
        return (fn(*hi) - fn(*lo)) / (2.0 * FD_STEP)
    return quotient


# ---------------------------------------------------------------------------
# Simplifying constructors, behind `ExprNode`'s operators too.  Besides
# keeping derivative trees and rewritten prescriptions small these guarantee
# that a partial in an absent variable folds to the literal constant 0, with
# no leftover ln/div factors that could poison evaluation, and that a term
# with a zero factor reads no variable, so certificates sample no axis for it.


def _node(x):
    return x if isinstance(x, ExprNode) else Const(x)


def _is_const(node, value=None):
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


def _fold(node):
    """node, or its value as a Const when its children are all constants
    and the value is finite."""
    if all(isinstance(a, Const) for a in node.args):
        with np.errstate(all="ignore"):
            v = float(node.eval({}))
        if np.isfinite(v):
            return Const(v)
    return node


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _fold(Add(a, b))


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return _fold(Sub(a, b))


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _fold(Mul(a, b))


def _div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return _fold(Div(a, b))


def _neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _pow(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    return _fold(Pow(a, b))


# ---------------------------------------------------------------------------
# Tokenizer / parser


class _Token:
    def __init__(self, kind, text, pos):
        self.kind = kind  # num | ident | op | lparen | rparen | comma | end
        self.text = text
        self.pos = pos  # 0-based offset into the source


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ParseError(i + 1, f"bad number literal '{lit}'") from None
            tokens.append(_Token("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
        elif c == ",":
            tokens.append(_Token("comma", c, i))
        else:
            raise ParseError(i + 1, f"unexpected character {c!r}")
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


# binary operators by precedence, loosest first
_LEVELS = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.variables = frozenset(variables)
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind, what):
        tok = self.take()
        if tok.kind != kind:
            if tok.kind == "end":
                raise ParseError(tok.pos + 1, f"expected {what}, got end of input")
            raise ParseError(tok.pos + 1, f"expected {what}, got {tok.text!r}")
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.pos + 1, f"unexpected trailing input {tok.text!r}")
        return node

    def expr(self, level=0):
        """A left-associative chain of `_LEVELS[level]`'s operators; past
        the last level, a unary."""
        if level == len(_LEVELS):
            return self.unary()
        ops = _LEVELS[level]
        node = self.expr(level + 1)
        while self.peek().kind == "op" and self.peek().text in ops:
            node = ops[self.take().text](node, self.expr(level + 1))
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return _neg_parse(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            node = Pow(node, self.unary())
        return node

    def atom(self):
        tok = self.take()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "lparen":
                if name not in Call._TABLE or name == "sign":
                    raise ParseError(tok.pos + 1, f"unknown function '{name}'")
                self.take()
                args = [self.expr()]
                for _ in range(1, Call._TABLE[name][0].nin):
                    self.expect("comma", "','")
                    args.append(self.expr())
                self.expect("rparen", "')'")
                return Call(name, args)
            if name not in self.variables:
                allowed = ", ".join(sorted(self.variables))
                raise ParseError(
                    tok.pos + 1,
                    f"unknown identifier '{name}' (allowed variables: {allowed})")
            return Var(name)
        if tok.kind == "end":
            raise ParseError(tok.pos + 1, "expected a value, got end of input")
        raise ParseError(tok.pos + 1, f"expected a value, got {tok.text!r}")


def _neg_parse(a):
    # keep parse trees literal (no folding surprises in error positions),
    # except the trivial negated constant
    if isinstance(a, Const):
        return Const(-a.value)
    return Neg(a)


def parse_expr(text, variables):
    """Parse `text` into an AST whose variables must come from `variables`.

    Parameters
    ----------
    text : str
        Expression source.
    variables : iterable of str
        Names allowed as variables in this context.

    Returns
    -------
    ExprNode

    Raises
    ------
    ParseError
        On any syntax problem or unknown identifier, with a 1-based
        position into `text`.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError(1, "empty expression")
    return _Parser(text, variables).parse()


def rename_var(node, old, new):
    """Copy of an AST with every occurrence of variable `old` renamed."""
    if isinstance(node, Var):
        return Var(new) if node.name == old else node
    return node._map(lambda a: rename_var(a, old, new))


def shared_subtrees(nodes):
    """The trees `nodes` rebuilt so that subtrees of one structure are one
    node, which an evaluation with a memo then computes once.  Two subtrees
    have one structure when they are of one type, call one function and
    have the same children, or are equal leaves; the table that finds them
    lives for this call only."""
    table = {}

    def share(node):
        node = node._map(share)
        key = (type(node), getattr(node, "fn", None),
               tuple(map(id, node.args)) if node.args else node.to_str())
        return table.setdefault(key, node)

    return [share(n) for n in nodes]


def takes_differences(node):
    """True when evaluating `node` takes a centered difference somewhere."""
    return node.differenced or any(takes_differences(a) for a in node.args)


def eval_checked(node, env, label="expression"):
    """Evaluate `node` over an environment of scalars/arrays.

    Broadcasts like numpy.  If any entry of the result is non-finite the
    evaluation fails with `EvalDomainError` naming the first offending
    sample point (lowest flat index).

    `node` may also be a list of nodes with a list of as many labels: they
    are evaluated together, each subtree they share (by identity) once,
    and checked in order, so the list of results and the first error are
    those of one call per node.

    A tree that reads a variable `env` lacks fails with a ValueError naming
    that variable and the environment's variables.
    """
    shared = isinstance(node, list)
    nodes, labels = (node, label) if shared else ([node], [label])
    memo = {} if shared else None
    try:
        with np.errstate(all="ignore"):
            outs = [np.asarray(n.eval(env, memo), dtype=float) for n in nodes]
    except KeyError as exc:
        reads = [lab for n, lab in zip(nodes, labels) if exc.args[0] in n.variables()]
        if not reads:
            raise
        raise ValueError(f"{reads[0]} reads variable '{exc.args[0]}', which is not among the "
                         f"variables it is evaluated over ({', '.join(env)})") from None
    for out, name in zip(outs, labels):
        bad = ~np.isfinite(out)
        if bad.any():
            arrays = {k: np.asarray(v, dtype=float) for k, v in env.items()}
            names = sorted(arrays)
            broad = np.broadcast_arrays(out, *(arrays[k] for k in names))
            flat = int(np.flatnonzero(~np.isfinite(broad[0]))[0])
            coords = ", ".join(
                f"{k}={broad[1 + i].reshape(-1)[flat]:.17g}" for i, k in enumerate(names))
            raise EvalDomainError(
                f"{name} evaluated to a non-finite value at ({coords})")
    return outs if shared else outs[0]
