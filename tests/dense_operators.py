"""Dense references for the difference operators and the Jacobian.

Each axis's `grad`, `along`, `avg` and `div` is written out here as a dense
matrix from the definitions in `pmcgraph.calculus`, independently of its
stencils; a grid's operator is the Kronecker product of one matrix per axis
(C order, axis 0 slowest).  The Jacobian's chains are composed from the
same per-axis matrices.
"""

import numpy as np

from pmcgraph.solver import _jacobian_coefficients


def axis_matrices(n, h, periodic):
    """The dense (grad, along, avg, div) of one axis of n nodes, spacing h:
    node to node, node to face, node to face and face to node.  Face f
    joins nodes f and f + 1, wrapping on a periodic axis; `div` has zero
    rows on the two end nodes of a dirichlet axis."""
    nf = n if periodic else n - 1
    grad, along = np.zeros((n, n)), np.zeros((nf, n))
    avg, div = np.zeros((nf, n)), np.zeros((n, nf))
    for i in range(n):
        if periodic or 0 < i < n - 1:
            grad[i, (i - 1) % n] = -0.5 / h
            grad[i, (i + 1) % n] = 0.5 / h
            div[i, (i - 1) % nf] = -1.0 / h
            div[i, i] = 1.0 / h
    if not periodic:
        grad[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
        grad[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    for f in range(nf):
        along[f, f], along[f, (f + 1) % n] = -1.0 / h, 1.0 / h
        avg[f, f], avg[f, (f + 1) % n] = 0.5, 0.5
    return grad, along, avg, div


def _factors(grid):
    """Per axis: its (grad, along, avg, div), the identity, and the
    diagonal that keeps the nodes off its dirichlet layers."""
    out = []
    for n, h, t in zip(grid.shape, grid.spacing, grid.topology):
        keep = np.ones(n)
        if t == "dirichlet":
            keep[[0, -1]] = 0.0
        out.append((axis_matrices(n, h, t == "periodic"), np.eye(n), np.diag(keep)))
    return out


def _kron(mats):
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def grid_operators(grid):
    """The grid's dense grad, along, avg and div, one list per kind and one
    matrix per axis; div's rows are zero on every dirichlet layer."""
    factors = _factors(grid)
    ops = []
    for kind in range(4):
        ops.append([_kron([(mats[kind] if a == ax else (keep if kind == 3 else eye))
                           for a, (mats, eye, keep) in enumerate(factors)])
                    for ax in range(grid.dimension)])
    return ops


def _chains(grid):
    """Per coefficient block of the solver's Jacobian, in its order, the
    per-axis (outer, inner) matrices of outer . diag(c) . inner: per axis
    the flux through div of the along-face slope and of each transverse
    node gradient averaged onto the faces, then the prescription through
    the height and through each node gradient."""
    factors = _factors(grid)
    dims = range(grid.dimension)
    chains = []
    for ax in dims:
        grad, along, avg, div = factors[ax][0]
        outer = [div if a == ax else factors[a][1] for a in dims]
        chains.append((outer, [along if a == ax else factors[a][1] for a in dims]))
        for c in (c for c in dims if c != ax):
            chains.append((outer, [avg if a == ax else factors[a][0][0] if a == c
                                   else factors[a][1] for a in dims]))
    eye = [factors[a][1] for a in dims]
    chains.append((eye, eye))
    for c in dims:
        chains.append((eye, [factors[a][0][0] if a == c else factors[a][1] for a in dims]))
    return chains


def chain_entries(grid):
    """Every nonzero entry of the composed chains between two unknowns:
    its row, column, weight and the index of its coefficient in the
    `_jacobian_coefficients` blocks laid end to end, rows and columns as
    unknowns.  The entries of each chain are the products over the axes of
    each axis's entries outer[r, f] * inner[f, c]."""
    keep = np.flatnonzero(~grid.boundary_mask.reshape(-1))
    pos = np.full(grid.node_count, -1)
    pos[keep] = np.arange(keep.size)
    rows, cols, wts, src = [], [], [], []
    offset = 0
    for outer, inner in _chains(grid):
        per_axis = []
        for o, i in zip(outer, inner):
            r, f, c = (np.concatenate(x) for x in zip(*(
                (np.repeat(rr, cc.size), np.full(rr.size * cc.size, k), np.tile(cc, rr.size))
                for k, (rr, cc) in enumerate((np.flatnonzero(o[:, k]), np.flatnonzero(i[k]))
                                             for k in range(i.shape[0])))))
            per_axis.append((r, f, c, o[r, f] * i[f, c]))
        pick = [p.reshape(-1) for p in np.meshgrid(*(np.arange(len(e[0])) for e in per_axis),
                                                   indexing="ij")]
        middle = tuple(i.shape[0] for i in inner)
        rows.append(np.ravel_multi_index([e[0][p] for e, p in zip(per_axis, pick)], grid.shape))
        src.append(offset + np.ravel_multi_index([e[1][p] for e, p in zip(per_axis, pick)],
                                                 middle))
        cols.append(np.ravel_multi_index([e[2][p] for e, p in zip(per_axis, pick)], grid.shape))
        wts.append(np.prod([e[3][p] for e, p in zip(per_axis, pick)], axis=0))
        offset += int(np.prod(middle))
    r, c, w, q = (np.concatenate(x) for x in (rows, cols, wts, src))
    inside = (pos[r] >= 0) & (pos[c] >= 0)
    return pos[r[inside]], pos[c[inside]], w[inside], q[inside]


def dense_jacobian(grid, values, F):
    """The Jacobian over the unknowns at `values`, summed from
    `chain_entries` with the coefficients of `_jacobian_coefficients`."""
    r, c, w, q = chain_entries(grid)
    n = int(np.count_nonzero(~grid.boundary_mask))
    dense = np.zeros((n, n))
    flat = np.concatenate([b.reshape(-1) for b in _jacobian_coefficients(grid, values, F)])
    np.add.at(dense, (r, c), w * flat[q])
    return dense
