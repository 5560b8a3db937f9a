"""Discrete calculus on structured grids: gradients, flux divergence,
nonparametric mean curvature, graph Laplacian, quadrature.

Every difference operator is a `Stencil`, a fixed-width gather over flat
values: out[i] = sum_k weights[k, i] * v[cols[k, i]].  `operators(grid)`
builds four kinds once per grid, one of each per axis:

- `grad[c]`, node to node, the derivative along axis c: centered, with a
  zero-weight third slot on the node itself, inside and on periodic axes;
  second-order one-sided on the two layers of a dirichlet axis, so it is
  defined at every node;
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
composed from the same stencils, so it differentiates this discretization
and no copy of it.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

from .grid import ScalarField

__all__ = [
    "Stencil",
    "operators",
    "mean_curvature_product",
    "graph_laplacian",
    "integrate",
    "quadrature_weights",
    "node_gradients",
    "face_gradients",
    "graph_faces",
]


# ---------------------------------------------------------------------------
# stencils


class Stencil:
    """Fixed-width gather: out[i] = sum_k weights[k, i] * v[cols[k, i]].

    `cols` and `weights` are shaped (width, outputs); the input is read flat
    and the output has `shape`.  `a @ b` is the stencil of a(b(v)), of
    width a.width * b.width, slot k * b.width + l reading b's slot l through
    a's slot k.
    """

    def __init__(self, cols, weights, shape):
        # shared by every caller of the per-grid cache, so read-only
        cols.flags.writeable = weights.flags.writeable = False
        self.cols = cols
        self.weights = weights
        self.shape = shape

    @property
    def width(self):
        return self.cols.shape[0]

    def __call__(self, values):
        out = np.einsum("ki,ki->i", self.weights, np.take(values, self.cols))
        return out.reshape(self.shape)

    def __matmul__(self, inner):
        cols = [ic[oc] for oc in self.cols for ic in inner.cols]
        weights = [ow * iw[oc] for oc, ow in zip(self.cols, self.weights)
                   for iw in inner.weights]
        return Stencil(np.array(cols), np.array(weights), self.shape)


Operators = collections.namedtuple("Operators", "grad along avg div")


def _axis_stencil(in_shape, axis, pos, wts):
    """Stencil along one axis of an array shaped `in_shape`: output position
    j on `axis` reads input positions pos[k][j] with weights wts[k][j], at
    the same position on the other axis."""
    idx = np.arange(int(np.prod(in_shape))).reshape(in_shape)
    out_shape = list(in_shape)
    out_shape[axis] = len(pos[0])
    line = [1] * len(in_shape)
    line[axis] = -1
    cols = np.stack([np.take(idx, p, axis=axis).reshape(-1) for p in pos])
    weights = np.stack([np.broadcast_to(np.reshape(w, line), out_shape).reshape(-1)
                        for w in wts])
    return Stencil(cols, weights, tuple(out_shape))


@functools.lru_cache(maxsize=8)
def operators(grid):
    """The grid's `grad`, `along`, `avg` and `div` stencils, one per axis,
    built once per grid."""
    interior = ~grid.boundary_mask.reshape(-1)
    grad, along, avg, div = [], [], [], []
    for ax, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        periodic = grid.topology[ax] == "periodic"
        i = np.arange(n)
        pos = np.array([i - 1, i + 1, i])
        wts = np.array([-0.5, 0.5, 0.0])[:, None] / h * np.ones(n)
        if periodic:
            pos %= n
        else:
            pos[:, 0], wts[:, 0] = (0, 1, 2), np.array([-1.5, 2.0, -0.5]) / h
            pos[:, -1], wts[:, -1] = (n - 1, n - 2, n - 3), np.array([1.5, -2.0, 0.5]) / h
        grad.append(_axis_stencil(grid.shape, ax, pos, wts))

        nf = n if periodic else n - 1
        f = np.arange(nf)
        ends = [f, (f + 1) % n]
        along.append(_axis_stencil(grid.shape, ax, ends, [-1.0 / h, 1.0 / h]))
        avg.append(_axis_stencil(grid.shape, ax, ends, [0.5, 0.5]))

        faces = list(grid.shape)
        faces[ax] = nf
        left = (i - 1) % n if periodic else np.clip(i - 1, 0, nf - 1)
        d = _axis_stencil(tuple(faces), ax, [left, np.minimum(i, nf - 1)],
                          [-1.0 / h, 1.0 / h])
        div.append(Stencil(d.cols, d.weights * interior, d.shape))
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
