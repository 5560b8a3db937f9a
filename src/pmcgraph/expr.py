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

Functions: sin cos tan exp ln sqrt tanh abs (one argument), min max (two).
Numbers are decimal literals with optional fraction and exponent part.

Evaluation is vectorized over numpy arrays.  Domain problems (division by
zero, ln of a negative, ...) are not caught eagerly; `eval_checked` raises
once a non-finite value appears, naming the first offending sample point.
It also evaluates several trees at once, such as a prescription and its
partials, computing each subtree they share once.

A tree may also hold `Func` nodes, numeric functions given as Python code;
where such a node has no derivative rule, `Func.diff` takes a centered
difference of step `FD_STEP`, the only finite-difference code in the package.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ParseError",
    "EvalDomainError",
    "ExprNode",
    "Func",
    "parse_expr",
    "eval_checked",
    "takes_differences",
]

FUNCTIONS_1 = ("sin", "cos", "tan", "exp", "ln", "sqrt", "tanh", "abs")
FUNCTIONS_2 = ("min", "max")
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
    """Base class; subclasses implement _eval (a leaf: eval), diff,
    variables and to_str.

    `a + b`, `a - b`, `a * b` and `c * a` build trees through the
    simplifying constructors below, with a number operand taken as a
    `Const`; numpy defers to them (`__array_ufunc__ = None`), so
    `np.float64(c) * a` is a node too.
    """

    __array_ufunc__ = None

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

    def _eval(self, env, memo):
        raise NotImplementedError

    def diff(self, name):
        raise NotImplementedError

    def variables(self):
        raise NotImplementedError

    def to_str(self):
        raise NotImplementedError

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

    def variables(self):
        return frozenset()

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

    def variables(self):
        return self.a.variables() | self.b.variables()

    def to_str(self):
        return f"({self.a.to_str()} {self.symbol} {self.b.to_str()})"


class Add(_Binary):
    symbol = "+"

    def _eval(self, env, memo):
        return self.a.eval(env, memo) + self.b.eval(env, memo)

    def diff(self, name):
        return _add(self.a.diff(name), self.b.diff(name))


class Sub(_Binary):
    symbol = "-"

    def _eval(self, env, memo):
        return self.a.eval(env, memo) - self.b.eval(env, memo)

    def diff(self, name):
        return _sub(self.a.diff(name), self.b.diff(name))


class Mul(_Binary):
    symbol = "*"

    def _eval(self, env, memo):
        return self.a.eval(env, memo) * self.b.eval(env, memo)

    def diff(self, name):
        return _add(_mul(self.a.diff(name), self.b),
                    _mul(self.a, self.b.diff(name)))


class Div(_Binary):
    symbol = "/"

    def _eval(self, env, memo):
        return self.a.eval(env, memo) / self.b.eval(env, memo)

    def diff(self, name):
        da, db = self.a.diff(name), self.b.diff(name)
        num = _sub(_mul(da, self.b), _mul(self.a, db))
        return _div(num, _mul(self.b, self.b))


class Pow(_Binary):
    symbol = "^"

    def _eval(self, env, memo):
        return self.a.eval(env, memo) ** self.b.eval(env, memo)

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
        inner = _add(_mul(db, _call("ln", (a,))), _div(_mul(b, da), a))
        return _mul(self, inner)


class Neg(ExprNode):
    def __init__(self, a):
        self.a = a

    def _eval(self, env, memo):
        return -self.a.eval(env, memo)

    def diff(self, name):
        return _neg(self.a.diff(name))

    def variables(self):
        return self.a.variables()

    def to_str(self):
        return f"(-{self.a.to_str()})"


class Call(ExprNode):
    _EVAL = {
        "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
        "ln": np.log, "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs,
        "min": np.minimum, "max": np.maximum, "sign": np.sign,
    }

    def __init__(self, name, args):
        self.name = name
        self.args = tuple(args)

    def _eval(self, env, memo):
        fn = self._EVAL[self.name]
        return fn(*(a.eval(env, memo) for a in self.args))

    def variables(self):
        out = frozenset()
        for a in self.args:
            out = out | a.variables()
        return out

    def to_str(self):
        inner = ", ".join(a.to_str() for a in self.args)
        return f"{self.name}({inner})"

    def diff(self, name):
        if self.name in ("min", "max"):
            a, b = self.args
            da, db = a.diff(name), b.diff(name)
            # min = (a+b)/2 - |a-b|/2, max = (a+b)/2 + |a-b|/2
            half = Const(0.5)
            sym = _mul(half, _add(da, db))
            swing = _mul(_mul(half, _call("sign", (_sub(a, b),))), _sub(da, db))
            return _sub(sym, swing) if self.name == "min" else _add(sym, swing)
        (u,) = self.args
        du = u.diff(name)
        if self.name == "sin":
            outer = _call("cos", (u,))
        elif self.name == "cos":
            outer = _neg(_call("sin", (u,)))
        elif self.name == "tan":
            c = _call("cos", (u,))
            outer = _div(Const(1.0), _mul(c, c))
        elif self.name == "exp":
            outer = self
        elif self.name == "ln":
            outer = _div(Const(1.0), u)
        elif self.name == "sqrt":
            outer = _div(Const(0.5), self)
        elif self.name == "tanh":
            outer = _sub(Const(1.0), _mul(self, self))
        elif self.name == "abs":
            outer = _call("sign", (u,))
        elif self.name == "sign":
            return Const(0.0)
        else:  # pragma: no cover - parser rejects unknown names
            raise ValueError(f"no derivative rule for {self.name}")
        return _mul(outer, du)


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

    def _eval(self, env, memo):
        return self.fn(*(a.eval(env, memo) for a in self.args))

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


def _fold2(cls, a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        with np.errstate(all="ignore"):
            v = cls(a, b).eval({})
        v = float(v)
        if np.isfinite(v):
            return Const(v)
    return cls(a, b)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _fold2(Add, a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return _fold2(Sub, a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _fold2(Mul, a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return _fold2(Div, a, b)


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
    return _fold2(Pow, a, b)


def _call(name, args):
    if all(isinstance(a, Const) for a in args):
        with np.errstate(all="ignore"):
            v = float(Call(name, args).eval({}))
        if np.isfinite(v):
            return Const(v)
    return Call(name, args)


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

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
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
                if name in FUNCTIONS_1:
                    arity = 1
                elif name in FUNCTIONS_2:
                    arity = 2
                else:
                    raise ParseError(tok.pos + 1, f"unknown function '{name}'")
                self.take()
                args = [self.expr()]
                if arity == 2:
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
    if isinstance(node, Const):
        return node
    if isinstance(node, Neg):
        return Neg(rename_var(node.a, old, new))
    if isinstance(node, _Binary):
        return type(node)(rename_var(node.a, old, new), rename_var(node.b, old, new))
    if isinstance(node, Func):
        return Func(node.name, node.fn,
                    tuple(rename_var(a, old, new) for a in node.args),
                    tuple(r if r is None else rename_var(r, old, new)
                          for r in node.rules),
                    node.differenced)
    if isinstance(node, Call):
        return Call(node.name, tuple(rename_var(a, old, new) for a in node.args))
    raise TypeError(f"cannot rename variables in {node!r}")


def takes_differences(node):
    """True when evaluating `node` takes a centered difference somewhere."""
    if isinstance(node, Func) and node.differenced:
        return True
    if isinstance(node, Neg):
        return takes_differences(node.a)
    if isinstance(node, _Binary):
        return takes_differences(node.a) or takes_differences(node.b)
    if isinstance(node, Call):
        return any(takes_differences(a) for a in node.args)
    return False


def eval_checked(node, env, label="expression"):
    """Evaluate `node` over an environment of scalars/arrays.

    Broadcasts like numpy.  If any entry of the result is non-finite the
    evaluation fails with `EvalDomainError` naming the first offending
    sample point (lowest flat index).

    `node` may also be a list of nodes with a list of as many labels: they
    are evaluated together, each subtree they share (by identity) once,
    and checked in order, so the list of results and the first error are
    those of one call per node.
    """
    shared = isinstance(node, list)
    nodes, labels = (node, label) if shared else ([node], [label])
    memo = {} if shared else None
    with np.errstate(all="ignore"):
        outs = [np.asarray(n.eval(env, memo), dtype=float) for n in nodes]
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
