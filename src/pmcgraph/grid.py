"""Structured grids over flat 1D/2D base domains, and fields living on them.

A grid is a uniform tensor-product lattice over a box.  Each axis is either
periodic (the box is a circle factor; the right edge wraps to the left) or
dirichlet (both edge node layers are boundary).  Grids and fields are
immutable after construction.

This module says what a base is: its allowed dimensions (`DIMENSIONS`) and
the variables an expression over a d-dimensional one reads (`variables`).
Field expressions, prescriptions and conformal factors read only their
grid's variables, and one that reads another is refused (`require_reads`).
"""

from __future__ import annotations

import functools

import numpy as np

from .expr import ExprNode, eval_checked, parse_expr

__all__ = [
    "BaseGrid",
    "ScalarField",
    "build_grid",
    "field_from_expr",
    "constant_field",
    "sup_norm",
    "write_field_csv",
    "read_field_csv",
    "refine_grid",
    "face_positions",
    "require_reads",
    "variables",
    "DIMENSIONS",
]

# the base dimensions a grid, a working box and a config may have
DIMENSIONS = (1, 2)


@functools.cache
def variables(dimension):
    """The variables an expression over a `dimension`-D base reads, in axis
    order: the base point x1..xn, the height z, the horizontal part y1..yn
    of the unit normal and its vertical part t.

    The one place that spells them: every vocabulary, environment and
    table header of the package is derived from it.
    """
    axes = range(1, dimension + 1)
    return (*(f"x{i}" for i in axes), "z", *(f"y{i}" for i in axes), "t")


def require_reads(node, names, what, dimension):
    """Refuse an expression tree that reads a variable outside `names`, the
    ones `what` may read on a `dimension`-D base: ValueError naming the
    first such variable."""
    extra = node.variables() - frozenset(names)
    if extra:
        raise ValueError(
            f"{what} uses variable '{min(extra)}' not defined on a {dimension}D base grid")


_TOPOLOGIES = ("periodic", "dirichlet")


def _as_tuple(value, dimension, caster, name):
    if np.isscalar(value) or isinstance(value, str):
        value = (value,) * dimension
    value = tuple(caster(v) for v in value)
    if len(value) != dimension:
        raise ValueError(f"{name} must have one entry per axis, got {value!r}")
    return value


class BaseGrid:
    """Uniform lattice on a 1D interval or 2D rectangle.

    Attributes
    ----------
    dimension : int
        One of `DIMENSIONS`, (1, 2).
    shape : tuple of int
        Nodes per axis (>= 4 each).
    lengths : tuple of float
        Box edge lengths (> 0).
    topology : tuple of str
        'periodic' or 'dirichlet' per axis.
    origin : tuple of float
        Coordinate of node index 0 on each axis.
    spacing : tuple of float
        Node spacing: length/shape on periodic axes (the seam node is not
        duplicated), length/(shape-1) on dirichlet axes.
    """

    def __init__(self, dimension, shape, lengths, topology, origin=None):
        dimension = int(dimension)
        if dimension not in DIMENSIONS:
            raise ValueError(
                f"dimension must be {' or '.join(map(str, DIMENSIONS))}, got {dimension}")
        self.dimension = dimension
        self.shape = _as_tuple(shape, dimension, int, "shape")
        for s in self.shape:
            if s < 4:
                raise ValueError(f"need at least 4 nodes per axis, got shape {self.shape}")
        self.lengths = _as_tuple(lengths, dimension, float, "lengths")
        for L in self.lengths:
            if not (L > 0 and np.isfinite(L)):
                raise ValueError(f"axis lengths must be positive, got {self.lengths}")
        topo = _as_tuple(topology, dimension, str, "topology")
        for t in topo:
            if t not in _TOPOLOGIES:
                raise ValueError(f"topology entries must be 'periodic' or 'dirichlet', got {t!r}")
        self.topology = topo
        if origin is None:
            origin = (0.0,) * dimension
        self.origin = _as_tuple(origin, dimension, float, "origin")

        self.spacing = tuple(
            L / s if t == "periodic" else L / (s - 1)
            for L, s, t in zip(self.lengths, self.shape, self.topology))
        self.node_count = int(np.prod(self.shape))

        coords = []
        for o, s, h in zip(self.origin, self.shape, self.spacing):
            axis = o + h * np.arange(s, dtype=float)
            if not np.all(np.diff(axis) > 0.0):
                # a spacing below the origin's ulp rounds nodes together
                raise ValueError(
                    f"node coordinates must increase along each axis, got spacing "
                    f"{h:.6g} at origin {o:.6g}")
            axis.flags.writeable = False
            coords.append(axis)
        self.axis_coords = tuple(coords)
        self._positions = tuple(np.meshgrid(*coords, indexing="ij"))
        for a in self._positions:
            a.flags.writeable = False

        mask = np.zeros(self.shape, dtype=bool)
        for ax, t in enumerate(self.topology):
            if t == "dirichlet":
                sel = [slice(None)] * dimension
                sel[ax] = 0
                mask[tuple(sel)] = True
                sel[ax] = -1
                mask[tuple(sel)] = True
        mask.flags.writeable = False
        self.boundary_mask = mask

    # -- derived views ----------------------------------------------------

    def node_positions(self):
        """Meshgrid of node coordinates, tuple of read-only arrays shaped like
        the grid, built once per grid."""
        return self._positions

    def is_fully_periodic(self):
        return all(t == "periodic" for t in self.topology)

    def max_spacing(self):
        return max(self.spacing)

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.dimension, self.shape, self.lengths, self.topology, self.origin)

    def __eq__(self, other):
        return isinstance(other, BaseGrid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        topo = ",".join(t[0] for t in self.topology)
        return f"BaseGrid(dim={self.dimension}, shape={self.shape}, topology={topo})"


def build_grid(dimension, shape, lengths, topology, origin=None):
    """Construct a `BaseGrid`; see the class docstring for conventions."""
    return BaseGrid(dimension, shape, lengths, topology, origin)


class ScalarField:
    """One real value per grid node, stored shaped like the grid."""

    def __init__(self, grid, values):
        values = np.array(values, dtype=float, copy=True)
        if values.shape != grid.shape:
            if values.size == grid.node_count:
                values = values.reshape(grid.shape)
            else:
                raise ValueError(
                    f"field values of shape {values.shape} do not fit grid {grid.shape}")
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values.reshape(-1)))[0])
            raise ValueError(f"field contains a non-finite value at flat node {bad}")
        values.flags.writeable = False
        self.grid = grid
        self.values = values

    def __repr__(self):
        lo, hi = float(self.values.min()), float(self.values.max())
        return f"ScalarField(range=[{lo:.6g}, {hi:.6g}], grid={self.grid!r})"


def face_positions(grid, axis):
    """Coordinates of face centers normal to `axis`, tuple of shaped arrays."""
    coords = []
    for ax in range(grid.dimension):
        c = grid.axis_coords[ax]
        if ax == axis:
            c = c + 0.5 * grid.spacing[ax]
            if grid.topology[ax] == "dirichlet":
                c = c[:-1]
        coords.append(c)
    return tuple(np.meshgrid(*coords, indexing="ij"))


def constant_field(grid, value):
    return ScalarField(grid, np.full(grid.shape, float(value)))


def field_from_expr(grid, expr):
    """Evaluate an expression of the base coordinates at every node.

    `expr` may be source text or an already-parsed node; only the grid's
    own coordinates x1..xn are available (`variables`).  Referencing
    anything else, x2 on a 1-D grid included, is rejected with the
    offending name in the message.
    """
    allowed = variables(grid.dimension)[:grid.dimension]
    if isinstance(expr, str):
        expr = parse_expr(expr, allowed)
    elif not isinstance(expr, ExprNode):
        raise TypeError(f"expr must be text or an ExprNode, got {type(expr)!r}")
    require_reads(expr, allowed, "field expression", grid.dimension)
    env = dict(zip(allowed, grid.node_positions()))
    values = eval_checked(expr, env, label="field expression")
    values = np.broadcast_to(values, grid.shape)
    return ScalarField(grid, values)


def _same_grid(a, b, what):
    if a.grid != b.grid:
        raise ValueError(f"{what} are defined on different grids")


def sup_norm(a, b=None):
    """Sup norm of a field, or of the difference of two fields on one grid."""
    if b is None:
        return float(np.max(np.abs(a.values)))
    _same_grid(a, b, "sup_norm operands")
    return float(np.max(np.abs(a.values - b.values)))


# ---------------------------------------------------------------------------
# Field CSV round-trip.  Header then one node value per line, row-major
# (first axis slowest).


def _fmt(x):
    return format(float(x), ".17g")


def write_field_csv(field, path):
    grid = field.grid
    head = (
        f"# dim={grid.dimension}"
        f" shape={','.join(str(s) for s in grid.shape)}"
        f" lengths={','.join(_fmt(L) for L in grid.lengths)}"
        f" topology={','.join(t[0] for t in grid.topology)}"
        f" origin={','.join(_fmt(o) for o in grid.origin)}"
    )
    values = field.values.reshape(-1).tolist()
    with open(path, "w") as fh:
        fh.write(head + "\n" + ("%.17g\n" * len(values)) % tuple(values))


def read_field_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing field header line")
    fields = {}
    for part in lines[0].lstrip("#").split():
        key, _, val = part.partition("=")
        fields[key] = val
    try:
        dim = int(fields["dim"])
        shape = tuple(int(s) for s in fields["shape"].split(","))
        lengths = tuple(float(s) for s in fields["lengths"].split(","))
        topo = tuple({"p": "periodic", "d": "dirichlet"}[s]
                     for s in fields["topology"].split(","))
        origin = tuple(float(s) for s in fields["origin"].split(","))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: bad field header: {exc}") from exc
    grid = build_grid(dim, shape, lengths, topo, origin)
    values = np.array([float(v) for v in lines[1:]], dtype=float)
    if values.size != grid.node_count:
        raise ValueError(
            f"{path}: expected {grid.node_count} values, found {values.size}")
    return ScalarField(grid, values.reshape(grid.shape))


# ---------------------------------------------------------------------------
# One level of uniform refinement (used for stability/refinement studies)


def refine_grid(grid):
    """Halve the spacing: periodic axes double, dirichlet axes go s -> 2s-1."""
    shape = tuple(
        2 * s if t == "periodic" else 2 * s - 1
        for s, t in zip(grid.shape, grid.topology))
    return build_grid(grid.dimension, shape, grid.lengths, grid.topology, grid.origin)

