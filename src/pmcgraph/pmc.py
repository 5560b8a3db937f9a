"""Curvature prescriptions H(x, z, Y, t) and pointwise checks.

A prescription is evaluated with base point x, height z, the horizontal
part Y of the upward unit normal and its vertical part t = 1/omega; for the
graph of u these are Y = -Du/omega, t = 1/omega, so |Y|^2 + t^2 = 1 with
t > 0.  Every prescription is an expression tree (`expr.ExprNode`), and its
partial derivatives are the tree's symbolic derivatives; only a `Func` node
built without a derivative rule, such as a wrapped Python callable, is
differentiated by a centered difference.

The variables are named once, by `grid.variables(dimension)`: x1..xn, z,
y1..yn, t over an n-dimensional base.  A prescription is parsed over the
widest base's names, `PMC_VARS`, and evaluated on an environment, a dict
from its base's names to scalars or arrays (`PMCFunction.eval(env)`,
`PMCFunction.partial(name, env)`).  Every environment holds exactly its
grid's or box's `variables(dimension)`, so a prescription may read only
those, as a field expression may read only its grid's coordinates.

The certificates (`check_monotone`, `check_quasi_decreasing` and, in the
solver, `barriers_from_phi`) bound an expression over a `WorkingBox`
through one function, `sampled_range`.  It reads the extremes of a
deterministic lattice of the box, so each bound holds at the samples.
Each certificate samples only the sub-lattice of the variables its tree
reads, whose extremes and extreme points are those of the whole lattice.
The solver's penalty certificate, `gamma_for`, reads the same lattice
(`WorkingBox.sample_lattice`) with its z axis kept, for the sup of each
height row.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .calculus import node_gradients
from .expr import (
    Add,
    Func,
    Mul,
    Var,
    eval_checked,
    parse_expr,
    shared_subtrees,
    takes_differences,
)
from .grid import DIMENSIONS, variables

__all__ = [
    "PMCFunction",
    "QuasiDecomposition",
    "WorkingBox",
    "parse_pmc",
    "check_monotone",
    "check_quasi_decreasing",
    "sampled_range",
    "graph_normal_env",
    "callable_variables",
    "MONOTONE_TOL",
]

# slack admitted when testing sampled partials against 0 (exact symbolic
# partials of z-free prescriptions evaluate to the literal 0.0)
MONOTONE_TOL = 1e-12


# what a prescription may be parsed over: the widest base's variables; on
# a d-dimensional base it may read only `variables(d)` (`grid.require_reads`)
PMC_VARS = variables(max(DIMENSIONS))


def callable_variables(fn, names_of):
    """`names_of(d)` for the base dimension d in `DIMENSIONS` that names as
    many variables as `fn` takes parameters; ValueError when none does."""
    count = len(inspect.signature(fn).parameters)
    fits = [names_of(d) for d in DIMENSIONS if len(names_of(d)) == count]
    if not fits:
        raise ValueError(f"a callable of {count} parameters fits no base dimension "
                         f"in {DIMENSIONS}")
    return fits[0]


class PMCFunction:
    """Curvature prescription H(x, z, Y, t) held as one expression tree.

    Parsed text, wrapped callables and every rewrite (composite, tilt term,
    conformal pullback) are trees, and the first partials are the
    tree's `diff`.  `has_exact_partials` is False when one of them takes a
    centered difference (a `Func` node without a derivative rule).  `eval`
    and `partial` take an environment, a dict from variable names to
    scalars or arrays (`graph_normal_env`, `WorkingBox.sample_lattice`).

    Parameters
    ----------
    ast : ExprNode
        Tree over the variables of one base, `variables(d)`.
    provenance : str
        How the prescription was built: 'expression', 'callable',
        'composite' or 'transformed'.
    text : str, optional
        Source text, when there is one.
    label : str
        Name used in domain-error messages.
    """

    def __init__(self, ast, provenance="expression", text=None, label="curvature"):
        self.provenance = provenance
        self.text = text
        self.label = label
        self.ast, *partials = shared_subtrees([ast] + [ast.diff(v) for v in PMC_VARS])
        self._partials = dict(zip(PMC_VARS, partials))

    @classmethod
    def from_callable(cls, fn):
        """Wrap fn over `variables(d)` in order, with the base dimension d
        read off its 2d + 2 parameters; partials by centered differences."""
        args = [Var(v) for v in callable_variables(fn, variables)]
        return cls(Func("H", fn, args), provenance="callable")

    def eval(self, env):
        return eval_checked(self.ast, env, label=self.label)

    def partial(self, name, env):
        """dH/d`name` at `env`, for a name of `PMC_VARS`."""
        return eval_checked(self._partials[name], env, label=f"d/d{name} of {self.label}")

    def eval_with_partials(self, env, names):
        """[H, dH/d names[0], ...] at `env`, as one evaluation in which the
        value and the partials compute each subtree they share once.  Bit
        for bit what `eval` and `partial` return, and a non-finite value
        raises the error the first of those calls would raise."""
        labels = [self.label] + [f"d/d{v} of {self.label}" for v in names]
        return eval_checked(self.trees(names), env, labels)

    def trees(self, names):
        """[H, dH/d names[0], ...] as trees, in which no two inner nodes
        have one structure (`expr.shared_subtrees`)."""
        return [self.ast] + [self._partials[v] for v in names]

    @property
    def has_exact_partials(self):
        return not any(takes_differences(d) for d in self._partials.values())

    def __repr__(self):
        src = f" {self.text!r}" if self.text else ""
        return f"PMCFunction({self.provenance}{src})"


def parse_pmc(expr):
    """Parse curvature-prescription text over the variables `PMC_VARS`."""
    return PMCFunction(parse_expr(expr, PMC_VARS), text=expr)


class QuasiDecomposition:
    """Split prescription H = H1(x, z, Y) + t * H2(x, Y).

    H1 must be non-increasing in the height, H2 height- and t-free; the
    split is what the decreasing-part solver consumes.
    """

    def __init__(self, H1, H2):
        self.H1 = H1
        self.H2 = H2

    @classmethod
    def from_exprs(cls, h1_text, h2_text):
        h1 = PMCFunction(parse_expr(h1_text, set(PMC_VARS) - {"t"}), text=h1_text,
                         label="decreasing part")
        h2 = PMCFunction(parse_expr(h2_text, set(PMC_VARS) - {"z", "t"}), text=h2_text,
                         label="bounded part")
        return cls(h1, h2)

    def composite(self):
        """The full prescription H1 + t*H2 as a PMCFunction."""
        ast = Add(self.H1.ast, Mul(Var("t"), self.H2.ast))
        text = None
        if self.H1.text and self.H2.text:
            text = f"({self.H1.text}) + t*({self.H2.text})"
        return PMCFunction(ast, provenance="composite", text=text)


class WorkingBox:
    """Compact region where height monotonicity and penalties are certified.

    Holds the height range [z_min, z_max] and the base-coordinate ranges;
    the normal arguments always range over the upward unit half-ball
    |Y|^2 + t^2 <= 1, t >= 0 (graph normals have t = 1/omega > 0).
    """

    def __init__(self, z_range, x_ranges):
        a, b = (float(z_range[0]), float(z_range[1]))
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"box z-range must be finite with a < b, got ({a}, {b})")
        self.z_min, self.z_max = a, b
        self.x_ranges = tuple((float(lo), float(hi)) for lo, hi in x_ranges)
        for lo, hi in self.x_ranges:
            if not lo < hi:
                raise ValueError(f"bad base range ({lo}, {hi})")
        if len(self.x_ranges) not in DIMENSIONS:
            raise ValueError(
                f"working box needs {' or '.join(map(str, DIMENSIONS))} base ranges")

    @classmethod
    def from_grid(cls, grid, z_range):
        ranges = tuple((o, o + L) for o, L in zip(grid.origin, grid.lengths))
        return cls(z_range, ranges)

    @property
    def dimension(self):
        return len(self.x_ranges)

    def contains_values(self, values):
        v = np.asarray(values)
        return bool(np.all(v >= self.z_min - 1e-12) and np.all(v <= self.z_max + 1e-12))

    def require_values(self, values):
        """Raise ValueError naming the nodes where the heights `values`
        leave the z-range, never a silent clamp."""
        if self.contains_values(values):
            return
        flat = np.asarray(values).reshape(-1)
        bad = np.flatnonzero((flat < self.z_min - 1e-12) | (flat > self.z_max + 1e-12))
        head = ", ".join(str(i) for i in bad[:5])
        raise ValueError(
            f"graph leaves the working box z-range [{self.z_min:.6g}, {self.z_max:.6g}] "
            f"at {bad.size} node(s) (flat indices {head}{', ...' if bad.size > 5 else ''})")

    def sample_lattice(self, samples=9, reads=None):
        """Deterministic sample environment over box x base x half-ball.

        Axis order `variables(dimension)` with `samples` points per axis
        (endpoints included, so box corners are in the lattice, and for an
        odd count the normal poles too); normal samples outside the closed
        unit half-ball are dropped.  Returns arrays of equal length,
        flattened C-order, over `variables(dimension)`.

        With a set `reads` of variable names, only the first point of each
        class of lattice points that agree on those variables is kept, in
        lattice order: an unread base axis stays at its first sample, and
        the normals are the first kept normal of each combination of read
        components.  An expression reading only `reads` takes the same
        values there as on the whole lattice, with each extreme first met
        at the same point.
        """
        samples = int(samples)
        if samples < 2:
            raise ValueError("need at least 2 samples per axis")
        dim = self.dimension
        names = variables(dim)
        base = [np.linspace(lo, hi, samples) for lo, hi in self.x_ranges]
        base.append(np.linspace(self.z_min, self.z_max, samples))
        normal = [np.linspace(-1.0, 1.0, samples)] * dim
        normal.append(np.linspace(0.0, 1.0, samples))
        # the half-ball test reads the normal axes alone, so filter their
        # sub-lattice once; each base point then repeats the kept normals,
        # which is the C order of the full lattice
        index = [m.reshape(-1) for m in np.indices((samples,) * (dim + 1))]
        ball = [a[i] for a, i in zip(normal, index)]
        keep = np.flatnonzero(sum(a * a for a in ball) <= 1.0 + 1e-12)
        if reads is not None:
            base = [a if n in reads else a[:1] for n, a in zip(names, base)]
            # a normal's class is its sample indices on the read axes
            key = np.zeros(keep.size, dtype=np.int64)
            for n, i in zip(names[dim + 1:], index):
                if n in reads:
                    key = key * samples + i[keep]
            keep = keep[np.sort(np.unique(key, return_index=True)[1])]
        ball = [a[keep] for a in ball]
        flat = [np.repeat(m.reshape(-1), keep.size)
                for m in np.meshgrid(*base, indexing="ij")]
        flat += [np.tile(a, math.prod(b.size for b in base)) for a in ball]
        return dict(zip(names, flat))

    def __repr__(self):
        return (f"WorkingBox(z=[{self.z_min:.6g}, {self.z_max:.6g}], "
                f"x={self.x_ranges})")


def _worst_point(env, idx):
    return {k: float(np.asarray(v).reshape(-1)[idx]) for k, v in env.items()}


def sampled_range(H, box, var=None, samples=9, lattice=None):
    """Smallest and largest lattice sample of H, or of its `var` partial.

    Returns (lo, hi, lo_point, hi_point): the extreme sampled values, each
    with the lattice point where it occurs (lowest flat index on ties).
    Without a `lattice` it samples the sub-lattice of the variables the
    expression reads (`box.sample_lattice(samples, reads)`), whose
    extremes and points are those of the whole lattice; a given `lattice`,
    such as the whole `box.sample_lattice(samples)`, is sampled as it is.
    """
    node = H.ast if var is None else H._partials[var]
    env = box.sample_lattice(samples, node.variables()) if lattice is None else lattice
    vals = H.eval(env) if var is None else H.partial(var, env)
    vals = np.broadcast_to(vals, env["z"].shape)
    i, j = int(np.argmin(vals)), int(np.argmax(vals))
    return float(vals[i]), float(vals[j]), _worst_point(env, i), _worst_point(env, j)


def check_monotone(H, box, samples=9):
    """Sample dH/dz over the box lattice; pass iff the sup is <= ~0.

    Returns a dict with `passed`, the signed `worst_value` (sup of the
    sampled height derivative) and the lattice point attaining it (lowest
    flat index on ties).
    """
    _, worst, _, at = sampled_range(H, box, "z", samples)
    return {
        "passed": bool(worst <= MONOTONE_TOL),
        "worst_value": worst,
        "worst_point": at,
        "samples": int(samples),
    }


def check_quasi_decreasing(D, box, samples=9):
    """Check a split prescription: H1 non-increasing in z, H2 z-free."""
    mono = check_monotone(D.H1, box, samples)
    lo, hi, _, _ = sampled_range(D.H2, box, "z", samples)
    h2_free = bool(max(hi, -lo) <= MONOTONE_TOL)
    return {
        "passed": mono["passed"] and h2_free,
        "worst_value": mono["worst_value"],
        "worst_point": mono["worst_point"],
        "h2_height_free": h2_free,
        "samples": int(samples),
    }


def graph_normal_env(grid, values, grads=None):
    """Evaluation environment of a graph, and its area factor.

    Returns (env, omega): env maps x1..xn to the node positions, z to
    `values` and y1..yn, t to the upward unit normal (-Du/omega, 1/omega),
    with omega = sqrt(1 + |Du|^2) from the node gradients `grads` (computed
    when not given), over `variables(grid.dimension)`.  Every evaluation of a
    prescription at a graph, and every tilt 1/omega, is read from here.
    """
    if grads is None:
        grads = node_gradients(grid, values)
    omega = np.sqrt(1.0 + sum(g * g for g in grads))
    columns = [*grid.node_positions(), values, *(-g / omega for g in grads), 1.0 / omega]
    return dict(zip(variables(grid.dimension), columns)), omega
