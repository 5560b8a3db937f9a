"""Discrete calculus on structured grids: gradients, flux divergence,
nonparametric mean curvature, graph Laplacian, quadrature.

Every difference operator is a `Stencil` along one axis, applied by
shifted windows of the input array: out[j] = sum_k weight_k * x[j +
offset_k] along that axis, the taps added in order, with x wrapped on a
periodic axis.  `operators(grid)` builds four kinds once per grid, one of
each per axis:

- `grad[c]`, node to node, the derivative along axis c: centered inside
  and on periodic axes; second-order one-sided on the two layers of a
  dirichlet axis, so it is defined at every node;
- `along[k]`, node to face, the exact two-point difference across the
  faces of axis k;
- `avg[k]`, node to face, the average of a face's two endpoints;
- `div[k]`, face to node, the conservative difference of the two faces of
  axis k around a node, right minus left over h.

Face conventions for axis k: face i joins nodes i and i+1 along k (wrapping
on periodic axes, so a periodic axis has one face per node and a dirichlet
axis one fewer).  A face array is shaped like the grid with that count on
axis k.  The gradient on a face is `along[k]` for its component along k and
`avg[k]` of the node gradient for each transverse one.

All divergence-type operators are assembled in conservative (flux) form:
face fluxes first, then `div` back to nodes.  The rows of `div` are zero on
every boundary node (a node on a dirichlet layer of any axis), so every
nodal divergence-type output carries 0 there.  The solver's Jacobian is
composed from the same taps, so it differentiates this discretization and
no copy of it.
"""

from __future__ import annotations

import collections
import functools
import operator

import numpy as np

from .grid import ScalarField

__all__ = [
    "Stencil",
    "operators",
    "mean_curvature_product",
    "mean_curvature_product_values",
    "graph_laplacian",
    "integrate",
    "quadrature_weights",
    "node_gradients",
    "face_gradients",
    "graph_faces",
]


# ---------------------------------------------------------------------------
# stencils


def _along(axis, index):
    """The index tuple that takes `index` on `axis` and everything before."""
    return (slice(None),) * axis + (index,)


class Stencil:
    """A difference operator along one axis, applied by shifted windows.

    `taps` are (offset, weight) pairs: output position j on `axis` is the
    sum of weight * x[j + offset] over them, in order, with x the input
    (shaped `in_shape`) wrapped by `pad` = (lo, hi) layers on a periodic
    axis.  `pieces` apply them: each is an output window and the input
    windows and weights whose ordered sum fills it, first the taps' window
    and then, on a dirichlet axis, any end row with its own taps.  Every
    output outside the pieces is 0.
    """

    def __init__(self, in_shape, shape, axis, taps, pad, pieces):
        self.in_shape, self.shape, self.axis = in_shape, shape, axis
        self.taps, self.pad, self.pieces = taps, pad, pieces

    def padded(self, values):
        """The input, wrapped by `pad` on the axis: what the pieces read."""
        x = np.reshape(values, self.in_shape)
        (lo, hi), n = self.pad, self.in_shape[self.axis]
        if not (lo or hi):
            return x
        return np.concatenate([x[_along(self.axis, slice(n - lo, n))], x,
                               x[_along(self.axis, slice(0, hi))]], axis=self.axis)

    def __call__(self, values):
        x = self.padded(values)
        sums = [(window, functools.reduce(operator.iadd, (w * x[i] for i, w in reads)))
                for window, reads in self.pieces]
        if sums[0][1].shape == self.shape:
            return sums[0][1]
        out = np.zeros(self.shape)
        for window, total in sums:
            out[window] = total
        return out


Operators = collections.namedtuple("Operators", "grad along avg div")


@functools.lru_cache(maxsize=8)
def operators(grid):
    """The grid's `grad`, `along`, `avg` and `div` stencils, one per axis,
    built once per grid."""

    def stencil(ax, n_in, n_out, taps, ends=(), window=None):
        """The stencil of `taps` from n_in to n_out positions on axis ax;
        its taps fill the rows where they stay inside the input, within
        `window` on the other axes, and `ends` give other rows' taps."""
        offsets = [o for o, _ in taps]
        lo, hi = ((-min(offsets + [0]), max(offsets + [0]) + n_out - n_in)
                  if grid.topology[ax] == "periodic" else (0, 0))
        in_shape, shape = list(grid.shape), list(grid.shape)
        in_shape[ax], shape[ax] = n_in, n_out
        window = list(window or (slice(0, n) for n in shape))

        def rows(a, b):
            return tuple(window[:ax]) + (slice(a, b),) + tuple(window[ax + 1:])

        start, stop = max(0, -lo - min(offsets)), min(n_out, n_in + hi - max(offsets))
        pieces = [(rows(start, stop), [(rows(start + lo + o, stop + lo + o), w) for o, w in taps])]
        pieces += [(_along(ax, row), [(_along(ax, i), w) for i, w in end]) for row, end in ends]
        return Stencil(tuple(in_shape), tuple(shape), ax, taps, (lo, hi), pieces)

    # the nodes off every dirichlet layer, where `div` has its rows
    inner = [slice(0, n) if t == "periodic" else slice(1, n - 1)
             for n, t in zip(grid.shape, grid.topology)]
    grad, along, avg, div = [], [], [], []
    for ax, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        periodic = grid.topology[ax] == "periodic"
        nf = n if periodic else n - 1
        grad.append(stencil(ax, n, n, ((-1, -0.5 / h), (1, 0.5 / h)), ends=() if periodic else (
            (0, ((0, -1.5 / h), (1, 2.0 / h), (2, -0.5 / h))),
            (n - 1, ((n - 1, 1.5 / h), (n - 2, -2.0 / h), (n - 3, 0.5 / h))))))
        along.append(stencil(ax, n, nf, ((0, -1.0 / h), (1, 1.0 / h))))
        avg.append(stencil(ax, n, nf, ((0, 0.5), (1, 0.5))))
        div.append(stencil(ax, nf, n, ((-1, -1.0 / h), (0, 1.0 / h)), window=inner))
    return Operators(grad, along, avg, div)


# ---------------------------------------------------------------------------
# gradients


def node_gradients(grid, values):
    """List of node-centered partial-derivative arrays, one per axis."""
    return [g(values) for g in operators(grid).grad]


def face_gradients(grid, values, axis, grads=None):
    """All gradient components of `values` on the faces of `axis`.

    Returns a list of arrays shaped like the face array: entry `axis` is the
    exact along-face difference, other entries are endpoint averages of the
    node gradients `grads`, computed here when the caller has none.
    """
    ops = operators(grid)
    if grads is None:
        grads = node_gradients(grid, values)
    return [ops.along[axis](values) if m == axis else ops.avg[axis](g)
            for m, g in enumerate(grads)]


# ---------------------------------------------------------------------------
# divergence


def _divergence(grid, face_comps):
    """Nodal divergence of per-axis face arrays, component k on the faces
    of axis k.

    Interior nodes receive the conservative difference of adjacent face
    values; nodes on a dirichlet boundary are set to 0.  On an all-periodic
    grid the output sums to zero against the cell volumes (telescoping).
    """
    return sum(d(V) for d, V in zip(operators(grid).div, face_comps))


# ---------------------------------------------------------------------------
# nonparametric operators


def graph_faces(grid, values, grads=None):
    """Per axis, the face gradients of the graph of `values` on that axis's
    faces (`face_gradients`) and their area factor sqrt(1 + |Du|^2) there,
    as (components, omega); `grads` are the node gradients of `values`
    when the caller has them."""
    if grads is None:
        grads = node_gradients(grid, values)
    out = []
    for ax in range(grid.dimension):
        comps = face_gradients(grid, values, ax, grads)
        out.append((comps, np.sqrt(1.0 + sum(c * c for c in comps))))
    return out


def mean_curvature_product_values(grid, values, grads=None, faces=None):
    """`mean_curvature_product` on raw arrays; `grads`, the node gradients
    of `values`, and `faces`, their `graph_faces`, when the caller already
    has them."""
    if faces is None:
        faces = graph_faces(grid, values, grads)
    return -_divergence(grid, [comps[ax] / omega
                               for ax, (comps, omega) in enumerate(faces)])


def mean_curvature_product(field):
    """Mean curvature of the graph of `field` in the flat product metric.

    -div(Du/omega) with omega = sqrt(1+|Du|^2), assembled face-wise; the
    sign convention makes an upward bulge (a cap) positive.  Boundary nodes
    carry 0.
    """
    return ScalarField(field.grid, mean_curvature_product_values(field.grid, field.values))


def graph_laplacian(field, phi, grads=None):
    """Laplace-Beltrami of `phi` along the graph of `field`.

    Flux form of (1/omega) d_i(omega g^{ij} d_j phi) with the induced-metric
    inverse g^{ij} = delta^{ij} - u_i u_j / omega^2 evaluated from face
    gradients of the graph function, whose node gradients are `grads` when
    the caller has them.  Boundary nodes carry 0.
    """
    if field.grid != phi.grid:
        raise ValueError("graph_laplacian operands are on different grids")
    grid = field.grid
    u = field.values
    grads = node_gradients(grid, u) if grads is None else grads
    grads_phi = node_gradients(grid, phi.values)
    comps = []
    for ax, (gu, omega) in enumerate(graph_faces(grid, u, grads)):
        gphi = face_gradients(grid, phi.values, ax, grads_phi)
        inner = sum(gu[m] * gphi[m] for m in range(grid.dimension))
        flux = omega * (gphi[ax] - gu[ax] * inner / (omega * omega))
        comps.append(flux)
    omega_node = np.sqrt(1.0 + sum(g * g for g in grads))
    return ScalarField(grid, _divergence(grid, comps) / omega_node)


# ---------------------------------------------------------------------------
# quadrature


def _axis_weights(grid, ax):
    w = np.full(grid.shape[ax], grid.spacing[ax])
    if grid.topology[ax] == "dirichlet":
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


def quadrature_weights(grid):
    """Trapezoid tensor-product weights, shaped like the grid."""
    return functools.reduce(np.multiply.outer,
                            (_axis_weights(grid, ax) for ax in range(grid.dimension)))


def integrate(field):
    """Trapezoid-rule integral of a field over the base domain."""
    return float(np.sum(quadrature_weights(field.grid) * field.values))
