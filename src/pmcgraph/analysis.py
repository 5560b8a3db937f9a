"""Area and variation functionals, a mesh oracle, and refinement studies.

The area functional is the quadrature of sqrt(1+|Du|^2) with node-centered
gradients; it coincides with the perimeter of the subgraph for the smooth
fields this package produces, so the bound

    area >= max(domain volume, total variation)

holds node-wise (the integrand dominates both 1 and |Du|) and is asserted
here with positive quadrature weights doing the rest.  The mesh oracle
triangulates the actual graph vertices and knows nothing about gradients,
which makes it an independent check on the functional.
"""

from __future__ import annotations

import numpy as np

from .calculus import node_gradients, quadrature_weights
from .grid import refine_grid
from .pmc import QuasiDecomposition
from .solver import SolveConfig, SolverFailure, outer_iterate

__all__ = [
    "area_functional",
    "total_variation",
    "domain_volume",
    "mesh_area_oracle",
    "RefinementReport",
    "blowup_diagnostics",
]


def _slope_magnitude(grid, values):
    grads = node_gradients(grid, values)
    return np.sqrt(sum(g * g for g in grads))


def area_functional(grid, u):
    """Area of the graph of u: quadrature of sqrt(1 + |Du|^2)."""
    s = _slope_magnitude(grid, u.values)
    return float(np.sum(quadrature_weights(grid) * np.sqrt(1.0 + s * s)))


def total_variation(grid, u):
    """Quadrature of |Du| (Euclidean norm of the node-centered gradient)."""
    return float(np.sum(quadrature_weights(grid) * _slope_magnitude(grid, u.values)))


def domain_volume(grid):
    """Measure of the base domain (the quadrature weights sum to it)."""
    return float(np.sum(quadrature_weights(grid)))


def _extended_vertices(grid, values):
    """Graph vertex coordinates with periodic axes closed by one wrap row."""
    x = [np.asarray(c) for c in grid.axis_coords]
    u = np.asarray(values)
    for ax in range(grid.dimension):
        if grid.topology[ax] == "periodic":
            x[ax] = np.append(x[ax], grid.origin[ax] + grid.lengths[ax])
            first = [slice(None)] * grid.dimension
            first[ax] = slice(0, 1)
            u = np.concatenate([u, u[tuple(first)]], axis=ax)
    return x, u


def mesh_area_oracle(grid, u):
    """Triangulated surface area of the graph vertices themselves.

    Each cell is split along the lower-left to upper-right diagonal; the two
    Euclidean triangle areas are summed.  Independent of the gradient
    stencils, so it cross-checks area_functional.
    """
    if grid.dimension != 2:
        raise ValueError(
            "mesh area oracle needs a 2D grid; for 1D use an arc-length variant")
    x, uv = _extended_vertices(grid, u.values)
    X1, X2 = np.meshgrid(x[0], x[1], indexing="ij")
    P = np.stack([X1, X2, uv], axis=-1)
    LL = P[:-1, :-1]
    LR = P[1:, :-1]
    UL = P[:-1, 1:]
    UR = P[1:, 1:]
    diag = UR - LL
    a1 = 0.5 * np.linalg.norm(np.cross(LR - LL, diag), axis=-1)
    a2 = 0.5 * np.linalg.norm(np.cross(diag, UL - LL), axis=-1)
    return float(np.sum(a1) + np.sum(a2))


# ---------------------------------------------------------------------------
# refinement studies


class RefinementReport:
    """Per-level metrics of a refinement study, with Richardson-style orders.

    orders are estimated from consecutive level triples of each functional
    (log2 ratio of successive differences), so they need >= 3 levels; with
    two levels the lists are empty.
    """

    def __init__(self, rows, orders, suspected_nongraphical, errors):
        if len(rows) < 2:
            raise ValueError("a refinement study needs at least 2 levels")
        self.rows = rows
        self.orders = orders
        self.suspected_nongraphical = bool(suspected_nongraphical)
        self.errors = errors

    @property
    def levels(self):
        return [row["spacing"] for row in self.rows]

    def to_dict(self):
        return {
            "levels": self.levels,
            "rows": self.rows,
            "orders": self.orders,
            "suspected_nongraphical": self.suspected_nongraphical,
            "errors": self.errors,
        }


def _triple_orders(values):
    out = []
    for a, b, c in zip(values, values[1:], values[2:]):
        d1, d2 = abs(a - b), abs(b - c)
        if not (np.isfinite(d1) and np.isfinite(d2)) or d1 == 0.0 or d2 == 0.0:
            out.append(float("nan"))
        else:
            out.append(float(np.log2(d1 / d2)))
    return out


def _suspect_flag(max_grads, all_pass):
    """Non-graphicality heuristic: every halving at least doubles max |Du|.

    Only meaningful when the residual criteria still pass at every level --
    a diverging solve says nothing about the limit surface.  Slopes at the
    rounding floor (flat solutions) never count as growth.
    """
    if len(max_grads) < 2 or not all_pass:
        return False
    for a, b in zip(max_grads, max_grads[1:]):
        if not (a > 1e-8 and b >= 2.0 * a):
            return False
    return True


def blowup_diagnostics(prescription, build, grid, cfg=None, levels=2):
    """Refinement study of a solve: slope growth, tilt, functionals.

    Solves the problem on `levels` nested grids (each one halving the
    spacing), recording max |Du|, min Theta, total variation, area, and the
    final residual per level.  Solver failures are recorded and the study
    continues on the remaining levels.  The suspected-non-graphical flag is
    raised only when max |Du| at least doubles on every halving while every
    level still converged.

    `build` maps a grid to its `BarrierPair` and is called once per level,
    from the coarsest `grid` on: barriers interpolated from a coarser grid
    would carry curvature noise that a fine level's residual check cannot
    absorb.  An error building the coarsest pair is raised; one building a
    finer level's is recorded like a failed solve of that level.
    """
    if int(levels) < 2:
        raise ValueError("a refinement study needs at least 2 levels")
    if cfg is None:
        cfg = SolveConfig()
    H = (prescription.composite()
         if isinstance(prescription, QuasiDecomposition) else prescription)
    first = build(grid)
    rows = []
    errors = []
    max_grads = []
    all_pass = True
    for level in range(int(levels)):
        if level:
            grid = refine_grid(grid)
        row = {"level": level, "spacing": grid.max_spacing(),
               "shape": list(grid.shape)}
        try:
            v, rep = outer_iterate(H, build(grid) if level else first, cfg)
            slope = _slope_magnitude(grid, v.values)
            row.update({
                "converged": True,
                "max_grad": float(np.max(slope)),
                "min_theta": rep.min_theta,
                "total_variation": total_variation(grid, v),
                "area": area_functional(grid, v),
                "final_residual": rep.final_residual,
                "consistency_ok": rep.consistency_ok,
            })
            max_grads.append(row["max_grad"])
            all_pass = all_pass and rep.consistency_ok
        except (SolverFailure, ValueError) as exc:
            row.update({"converged": False, "error": str(exc)})
            errors.append({"level": level, "error": str(exc)})
            all_pass = False
        rows.append(row)

    orders = {}
    for key in ("total_variation", "area", "max_grad"):
        series = [row.get(key, float("nan")) for row in rows]
        orders[key] = _triple_orders(series)
    flag = _suspect_flag(max_grads, all_pass and len(max_grads) == len(rows))
    return RefinementReport(rows, orders, flag, errors)
