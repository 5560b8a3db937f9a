"""Barrier verification and the graph-curvature solvers.

Every prescription takes one outer iteration over one inner engine, damped
Newton.  The iteration clips Newton's trial iterates to a plateau that
holds the barrier range, and adds a penalty gamma*(u - anchor) to the
residual that makes the problem non-increasing in height over the barrier
slab, the heights the iterates take.  When the prescription is already non-increasing in height
over the slab, gamma is 0: the one sweep does not read its anchor, and it
is the direct solve (the diagonal shift -dF/dz >= 0 keeps the
linearization nondegenerate).  Otherwise a plain sweep anchors at the
previous output, and plain sweeps climb monotonically from the lower
barrier to the minimal fixed point of the original problem.
The slab narrows as they climb: once the prescription no longer increases
in height over [last output, u0], gamma drops to 0 and the next sweep is
the direct solve, which ends the iteration.  Anderson acceleration
proposes other anchors, and three rules of `outer_iterate` judge every
sweep; one gate at the top of each of its passes turns the pending proposal
into the sweep's anchor.  A sweep is plain exactly when its anchor is the
last output.  A proposal is clipped into one bracket, from the last output
up to the least known supersolution: u0, lowered by every candidate
discarded as a strict supersolution.  A candidate sweep is discarded if its
candidate was a strict supersolution of its own problem, found by the gate
before any Newton step, or if it moves down or leaves the slab by more than
min(tol_outer, MONOTONE_ABORT); a counted sweep that does so by more than
MONOTONE_ABORT aborts the solve.  The sweeps are inexact: each inner solve
stops at a fraction of its seed's residual over the penalty slope, which
estimates the sweep's step, and only a sweep that may end the iteration is
finished to the inner tolerance.

The Jacobian is composed from the residual's own stencils
(`calculus.operators`), so it is the exact derivative of the discrete
residual: div . diag(c) . (face stencil) for the flux of each axis, and
diag(c) . (node stencil) for the prescription through the height and the
unit normal, with c the pointwise derivatives.  `_jacobian_chains` lists
these compositions in the order of the coefficient blocks of
`_jacobian_coefficients`.  Its rows and columns are the unknowns, the
non-dirichlet nodes, and it is a 3^d-slot stencil over them, a
`StencilMatrix`: the unknowns form an array over the grid's own d axes,
and a row has one slot per neighbour offset in {-1, 0, 1}^d of that
array, wrapping on periodic axes, since no composed entry reaches
farther.  The plan of one grid composes the stencils' taps into the one
slot and the one weight of each entry; each Newton step only evaluates
the coefficients and adds each one, shifted to the rows that read it,
into its slots, and a product sums the slots over shifted windows of its
padded input.  No index array is built.  The coefficients read what the
residual of the same iterate computed (`_graph_residual`): its gradients,
area factors, and the prescription's partials, evaluated with its value.
That evaluation is of the prescription H itself: the penalty
gamma*(u - anchor) is added to its residual after it, and gamma to the
Jacobian's diagonal.  So one evaluation of a field serves every use of it,
whatever the anchor or gamma: the inner solve seeded at it, the outer
iteration's gate, a sweep after gamma drops, and the report of the
returned field.

The linear algebra is numpy's alone.  Each Newton system is solved by
GMRES, right-preconditioned by a fast direct solver of a nearby matrix
(`Preconditioner`): the diagonally scaled row mean of the Jacobian's
stencil, a constant stencil that the FFT along periodic axes and the DST-I
along dirichlet axes diagonalize, as each is a tensor product of one
operator per axis.  On a fully periodic grid a Jacobian whose every slot
holds one value on all rows, as at a constant iterate of a prescription
whose partials do not read x, is that matrix itself, which the
preconditioner then solves exactly.  The linear systems of one solve go
through one `LaggedLU`: it keeps the last preconditioner and runs one
GMRES restart cycle on each new system with it.  Successive Jacobians
differ only through u, so the lagged preconditioner serves about as well
as a new one; one is built from the new matrix only when that cycle misses
its tolerance or the system size changes.  Newton asks for inexact steps:
GMRES may stop once its residual is a forcing term times the Newton
residual (Eisenstat & Walker 1996), and never needs to go below a tenth of
the inner tolerance.  A loose sweep, which stops at a fraction of its
seed's residual, asks every step for the largest forcing term, in the
2-norm and in the sup norm it stops in.  No inner solve stops below the
residual's rounding floor (`rounding_floor`), which takes the inner
tolerance's place on fine grids.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator

import numpy as np

from .calculus import (
    Stencil,
    graph_faces,
    mean_curvature_product_values,
    node_gradients,
    operators,
)
from .expr import Var
from .grid import ScalarField, refine_grid, sup_norm, variables
from .pmc import (
    PMCFunction,
    WorkingBox,
    check_quasi_decreasing,
    graph_normal_env,
    pmc_residual,
    sampled_range,
)

__all__ = [
    "BarrierPair",
    "SolveConfig",
    "SolveReport",
    "SolverFailure",
    "MonotonicityError",
    "LaggedLU",
    "assemble_jacobian",
    "check_barrier",
    "working_box",
    "gamma_for",
    "solve_inner",
    "outer_iterate",
    "barriers_from_phi",
    "solve_quasi",
]

# hard abort threshold for comparison-principle violations; below it the
# violation is tolerated as scheme noise
MONOTONE_ABORT = 1e-6

# differences of sweep history behind each Anderson candidate of the
# penalized iteration.  Measured as sweeps (counted/accelerated/discarded)
# and linear solves at depths 1/2/3/5: the horosphere config takes 6/4/0,
# 7/5/0, 7/5/0 and 8/6/0 with 7/8/9/10 solves, and the several-solutions
# problem of tools/run_list.py 10/3/4, 10/4/3, 10/4/3 and 11/5/3 with
# 14/13/13/16.  The 64x64 torus_sine config takes 3/0/0 and 9 at each, as
# its penalty drops to 0 before Anderson proposes; at the fixed penalty
# 1.906 it counted 34/16/21/23 sweeps and discarded 22/5/7/6 more
ANDERSON_DEPTH = 2

# inexact sweeps of the penalized iteration: each inner solve stops at a
# sup-residual of SWEEP_FORCING times its seed's over max(gamma, 1), but
# never below tol_inner.  The penalty adds gamma to the inner problem's
# slope in the height, so the seed's residual over gamma estimates the
# sweep's step, and the stopping residual moves the sweep output by about
# SWEEP_FORCING of it.  Being below 1, it gives every seed above tol_inner
# at least one Newton step.  Measured as sweeps (counted/accelerated/
# discarded, a counted sweep being accelerated when its anchor is not the
# last output, as `outer_iterate` reports them) and linear solves at 0
# (exact sweeps), 1e-3, 3e-3, 0.01, 0.03, 0.1 and 0.3:
# - 64x64 torus_sine config: 3/0/0 at each, the last sweep the direct
#   solve at gamma = 0, with 13/11/11/9/9/9/8 linear solves.  At 128x128,
#   0.01 takes 3/0/0 and 9;
# - horosphere config (32x32): 7/5/0 up to 0.03 and 6/4/0 at 0.1 and 0.3,
#   with 13/9/8/8/8/6/6 linear solves.
# On the 16x16 torus the result lies 1.9e-10 off the limit of plain sweeps
# at the fixed penalty 1.906 at every value
SWEEP_FORCING = 0.01

# GMRES preconditioned by a lagged `Preconditioner`: one restart cycle of
# KRYLOV_RESTART iterations must reach its acceptance residual, or a new
# preconditioner is built, with which GMRES runs up to KRYLOV_CYCLES cycles.
# That residual is the larger of KRYLOV_RTOL*|b| and the caller's absolute
# tolerance, in the 2-norm, checked on the true residual.  KRYLOV_RTOL is
# the default and near the arithmetic's reach: an exact solve of a smooth
# right-hand side leaves 6.7e-14 / 2.7e-13 / 1.2e-12 of it at 64x64 /
# 128x128 / 256x256.  GMRES iterations per linear solve, with the
# preconditioner built for each matrix: 8 on cap at 257x257, 10 on the
# catenoid at 257x257, 24 on the catenoid moved to the origin (1.02, -0.4),
# where |Du| reaches about 5, at 257x257, and 1-2 on torus_sine_x_slope at
# 256x256; a lagged one took as many or fewer.  A build per matrix instead
# made the in-process solve of the x slope 0.42 s against 0.35 s and that of
# torus_sine at 256x256 0.56 s against 0.42 s, and the others within noise.
# So the steep catenoid needs a second cycle; KRYLOV_CYCLES leaves room for
# steeper graphs and bounds the work on a system GMRES cannot solve
KRYLOV_RESTART = 20
KRYLOV_RTOL = 1e-11
KRYLOV_CYCLES = 10

# inexact Newton forcing terms of the inner solve (Dembo, Eisenstat &
# Steihaug 1982; Eisenstat & Walker 1996, choice 2), as `_forcing_term`
# picks them.  A loose solve, a penalized sweep stopping at a fraction of
# its seed's residual above tol_inner, uses FORCING_MAX on every Newton
# step: it stops at SWEEP_FORCING/max(gamma, 1) of its seed's sup-residual,
# 0.01 on the torus below and 6.1e-3 on the horosphere, so no step of it
# needs a finer linear solve.  Since it stops in the sup norm, its steps'
# linear residuals must be at most FORCING_MAX of the Newton residual in the
# sup norm too: with the 2-norm condition alone, the cap config at the
# explicit penalty 0.1 took 10 linear solves instead of 7, its steps
# landing at up to 6 times their sweep's tolerance, while an exact solve
# overshot that condition by orders of magnitude.  The sup condition moves
# no count of the torus or the horosphere below, nor of the torus at the
# fixed penalty 1.906.  A solve to tol_inner uses FORCING_FIRST on its
# first step and min(FORCING_MAX, 0.9*(|R_k|/|R_k-1|)^2) after it, with sup
# norms.  Every step may stop at a 2-norm residual of
# FORCING_FLOOR*tol_inner, which bounds the sup norm, so the linearized
# residual of the last step stays below tol_inner.  Measured as GMRES
# iterations of the 64x64 torus_sine config (3/0/0 sweeps, counted as in
# the SWEEP_FORCING table, 9 linear solves, 1 factorization) and of the
# horosphere config (7/5/0 sweeps, 8 linear solves); no sweep or
# linear-solve count moves in any of these:
# - loose steps at FORCING_MAX: 10 and 7; under the rule of a solve to
#   tol_inner: 11 and 7.  At 128x128: 10 against 11;
# - FORCING_MAX at 1e-3: 12 and 7; at 0.03: 10 and 7; at 0.1: 10 and 5;
#   FORCING_MAX on a loose solve's first step only: 10 and 7;
# - FORCING_FIRST 1e-10: 11 and 7, and at 128x128 11 with a second
#   factorization; FORCING_FIRST 1e-6, FORCING_FLOOR 0 or 0.5: no count
#   changes, also at 128x128.
# At the fixed penalty 1.906 the torus took 16/3/5 sweeps, 20 linear
# solves and 18 GMRES iterations, and 32 under the rule of a solve to
# tol_inner.  At 256x256 the torus_sine config takes 9 linear solves, 10
# GMRES iterations and 1 preconditioner, exact for its first Jacobian
FORCING_FIRST = 1e-8
FORCING_MAX = 1e-2
FORCING_FLOOR = 0.1

# the rounding floor of the inner solve, in units of eps*|u|*W, with W the
# absolute row sum of the curvature's flux stencils (`rounding_floor`).
# Moving a node by one ulp, at most eps*|u|, moves the residual of a row by
# at most about eps*|u|*W.  Moving every node of the solved torus_sine field
# one ulp up or down at random moved its sup-residual by 1.5e-11 / 5.8e-11 /
# 2.3e-10 at 64x64 / 128x128 / 256x256, 0.64 of eps*max|u|*W at each; on
# the catenoid at 257x257 by 2.1e-10, 0.92 of it.  Twice the bound leaves
# room for the residual evaluation's own rounding, of the same size.  With
# the clip range's height, 3.71, it is 5.4e-11 on the 64x64 torus, below
# the default tol_inner, and 8.6e-10 at 256x256
FLOOR_ULPS = 2.0

# the inner solve's line search: a step s of the Newton direction is
# accepted where it lowers the 2-norm residual by the factor 1 - ARMIJO_C*s
# (Armijo 1966), and s halves from 1 until it does; below MIN_STEP the
# search has stagnated and the solve fails
ARMIJO_C = 1e-4
MIN_STEP = 2.0 ** -20

# the inner solve's budget of Newton steps; a solve that still misses its
# tolerance after that many fails
NEWTON_BUDGET = 50

# `solve_quasi` calls its result graphical when min Theta, the smallest
# vertical component of the unit normal, is at least this
THETA_THRESHOLD = 1e-3


class SolverFailure(RuntimeError):
    """Solve did not reach its tolerance; carries the best iterate so far."""

    def __init__(self, message, best=None, residual_history=None, partial=None):
        super().__init__(message)
        self.best = best
        self.residual_history = list(residual_history or [])
        self.partial = partial


class MonotonicityError(SolverFailure):
    """A counted sweep moved down or left the barrier slab by more than
    MONOTONE_ABORT."""


@dataclasses.dataclass
class SolveConfig:
    """Knobs shared by the inner and outer solvers.

    gamma is "auto" (sampled-slope certificate with a 5% safety factor) or an
    explicit positive number, which holds for every sweep.
    box is an explicit working z-range; default is the barrier range padded
    by half its span.  The rest is the module's: the inner solve's step
    budget NEWTON_BUDGET and line-search constants ARMIJO_C and MIN_STEP,
    the graphical verdict's THETA_THRESHOLD, and `outer_iterate`'s plateau,
    derived from the barrier range and the working box.
    """

    tol_inner: float = 1e-10
    tol_outer: float = 1e-8
    max_outer: int = 200
    gamma: object = "auto"
    samples: int = 9
    allowance_constant: float = 10.0
    box: object = None

    def __post_init__(self):
        if not (self.tol_inner > 0.0 and self.tol_outer > 0.0):
            raise ValueError("tolerances must be positive")
        if int(self.max_outer) < 1:
            raise ValueError("max_outer must be at least 1")
        if self.gamma != "auto":
            self.gamma = float(self.gamma)
            if not self.gamma > 0.0:
                raise ValueError("explicit gamma must be positive")
        if self.box is not None:
            a, b = float(self.box[0]), float(self.box[1])
            if not a < b:
                raise ValueError(f"box z-range must be increasing, got ({a}, {b})")
            self.box = (a, b)
        self.tol_inner = float(self.tol_inner)
        self.tol_outer = float(self.tol_outer)
        self.max_outer = int(self.max_outer)
        self.samples = int(self.samples)
        if self.samples < 3 or self.samples % 2 == 0:
            # an even count misses the normal poles, and at 2 the 2-D
            # half-ball keeps no sample at all
            raise ValueError(f"samples must be an odd count >= 3, got {self.samples}")
        self.allowance_constant = float(self.allowance_constant)
        if not self.allowance_constant >= 0.0:
            raise ValueError(
                f"allowance_constant must be non-negative, got {self.allowance_constant}")


class BarrierPair:
    """Ordered sub/super-solution pair with shared boundary trace.

    u1 is the lower (sub) barrier, u0 the upper; psi supplies the dirichlet
    boundary values and must be bracketed by the barriers there.  Periodic
    grids carry no trace.
    """

    def __init__(self, u1, u0, psi=None):
        if u1.grid != u0.grid:
            raise ValueError("barriers live on different grids")
        grid = u1.grid
        gap = u0.values - u1.values
        if np.min(gap) < -1e-12:
            i = int(np.argmin(gap.reshape(-1)))
            raise ValueError(
                f"lower barrier exceeds the upper one (flat node {i}, "
                f"u1={u1.values.reshape(-1)[i]:.6g} > u0={u0.values.reshape(-1)[i]:.6g})")
        has_dirichlet = any(t == "dirichlet" for t in grid.topology)
        if has_dirichlet:
            if psi is None:
                raise ValueError("dirichlet grid needs a boundary trace psi")
            if psi.grid != grid:
                raise ValueError("boundary trace lives on a different grid")
            b = grid.boundary_mask
            if (np.max(u1.values[b] - psi.values[b]) > 1e-12
                    or np.max(psi.values[b] - u0.values[b]) > 1e-12):
                raise ValueError("barriers do not bracket the boundary trace")
        elif psi is not None:
            raise ValueError("fully periodic grid takes no boundary trace")
        self.grid = grid
        self.u1 = u1
        self.u0 = u0
        self.psi = psi

    def z_bounds(self):
        return float(np.min(self.u1.values)), float(np.max(self.u0.values))


def check_barrier(B, H, allowance=10.0):
    """Verify the barrier inequalities against a product-metric prescription.

    The lower barrier must have residual <= tol everywhere in the interior
    (its curvature does not exceed the prescription) and the upper barrier
    residual >= -tol, with tol = 1e-8 + allowance*h^2 absorbing the scheme's
    truncation error.  Interior ordering u1 < u0 is a hard error.  Under a
    conformal metric H is the `conformal_transform_pmc` pullback, as in
    `outer_iterate`: its residual is the conformal one times e^f > 0, so
    the signs agree and the tolerance is the solver's own.
    """
    grid = B.grid
    interior = ~grid.boundary_mask
    gap = (B.u0.values - B.u1.values)[interior]
    if gap.size and np.min(gap) <= 0.0:
        k = int(np.argmin(gap))
        idx = np.flatnonzero(interior.reshape(-1))[k]
        raise ValueError(
            f"barriers are not strictly ordered in the interior (flat node {idx})")
    h = grid.max_spacing()
    tol = 1e-8 + allowance * h * h
    r1 = pmc_residual(grid, B.u1, H).values
    r0 = pmc_residual(grid, B.u0, H).values
    worst_sub = float(np.max(r1[interior])) if gap.size else 0.0
    worst_super = float(np.min(r0[interior])) if gap.size else 0.0
    return {
        "passed": bool(worst_sub <= tol and worst_super >= -tol),
        "worst_sub": worst_sub,
        "worst_super": worst_super,
        "tol": tol,
        "allowance_constant": float(allowance),
    }


# ---------------------------------------------------------------------------
# penalty size


def gamma_for(H, slab, samples=9):
    """Penalty size making H decrease in height over the barrier slab, with
    its certificate and the slope bound of every narrower slab.

    `slab` is the `WorkingBox` of the heights the sweeps' iterates take,
    [min u1, max u0].  Samples dH/dz over its lattice, the z axis always
    among the read ones, and returns (certificate, sup_above).  The
    certificate is the dict of `gamma` = 1.05*max(0, sup), the sampled
    `sup_slope`, its `worst_point`, the per-axis `samples` and the `slab`'s
    z-range, so -dH/dz + gamma >= 0 holds at every sampled point by
    construction; a sup <= 0 gives gamma = 0, the direct solve.
    `sup_above(z)` is the sampled sup over the lattice's z rows from the row
    at or below z upward: the bound over the narrower slab [z, max u0], read
    off the same samples.
    """
    env = slab.sample_lattice(samples, H.ast.diff("z").variables() | {"z"})
    slope = np.broadcast_to(H.partial("z", env), env["z"].shape)
    j = int(np.argmax(slope))
    rows = np.linspace(slab.z_min, slab.z_max, samples)
    # the sup of each z row and of every row above it
    above = np.maximum.accumulate(
        [np.max(slope[env["z"] == z]) for z in rows[::-1]])[::-1]

    def sup_above(z):
        return float(above[max(int(np.searchsorted(rows, z, "right")) - 1, 0)])

    sup = float(slope[j])
    return {"gamma": 1.05 * max(0.0, sup), "sup_slope": sup,
            "worst_point": {k: float(v[j]) for k, v in env.items()},
            "samples": int(samples), "slab": [slab.z_min, slab.z_max]}, sup_above


# ---------------------------------------------------------------------------
# Jacobian assembly


class _JacobianPlan:
    """The Jacobian's stencil on one grid, and where each stencil
    contribution lands in it.

    Rows and columns are the unknowns, the non-dirichlet nodes in flat
    order.  They form an array over the grid's own axes, shaped `lines`,
    which wraps on the `periodic` axes.  A row has 3^d slots, one per
    neighbour offset in {-1, 0, 1}^d of that array in C order, so slot
    `center` = 3^d // 2 is the offset 0, the diagonal.  Slot s of the rows
    `rows[s]` (a slice per axis) has a neighbour that is an unknown; on the
    other rows it is a dirichlet node and the entry stays 0.  `nnz` counts
    the entries of those windows.  A product reads the input padded by one
    on each axis, wrapped on a periodic axis and 0 on a dirichlet one
    (`padded`), through slot s's `windows[s]`.

    The contributions are the entries of outer . diag(c) . inner over the
    `_jacobian_chains`, composed from the stencils' taps: on a uniform grid
    each lands in the slot of the sum of its taps' offsets, with the
    product of their weights, on every row.  So slot s of row i is
    sum_k weights[s, k] * coefficient_k[i], with coefficient row k one
    coefficient block of `_jacobian_coefficients` read through one tap of
    its chain's outer stencil (`chains`, in order): the window of the
    padded block that the tap reads for the unknowns.
    """

    def __init__(self, grid):
        d = grid.dimension
        self.periodic = tuple(t == "periodic" for t in grid.topology)
        self.lines = tuple(s - 2 * (t == "dirichlet") for s, t in zip(grid.shape, grid.topology))
        self.n = math.prod(self.lines)
        self.center = 3 ** d // 2
        self.windows, self.rows = zip(*(
            (tuple(slice(1 + o, 1 + o + L) for o, L in zip(off, self.lines)),
             tuple(slice(0, L) if wrap else slice(max(0, -o), L - max(0, o))
                   for o, L, wrap in zip(off, self.lines, self.periodic)))
            for off in itertools.product((-1, 0, 1), repeat=d)))
        self.nnz = sum(math.prod(r.stop - r.start for r in rows) for rows in self.rows)

        self.chains = _jacobian_chains(grid)
        self.weights = np.zeros((3 ** d, sum(len(outer.taps) for outer, _ in self.chains)))
        for k, (outer, inner, (o, w_out)) in enumerate(
                (outer, inner, tap) for outer, inner in self.chains for tap in outer.taps):
            # every composed tap: the sum of its offsets on each axis and the
            # product of its weights, in the chain's order
            for taps in itertools.product(*(s.taps for s in inner)):
                step = [1 + o * (a == outer.axis) + sum(t[0] for s, t in zip(inner, taps)
                                                        if s.axis == a) for a in range(d)]
                self.weights[np.ravel_multi_index(step, (3,) * d), k] += (
                    w_out * math.prod(w for _, w in taps))

    def padded(self, x):
        """The unknowns' values x, shaped `lines` and padded by one on each
        axis: wrapped on a periodic axis, 0 on a dirichlet one."""
        out = np.zeros(tuple(L + 2 for L in self.lines))
        out[tuple(slice(1, L + 1) for L in self.lines)] = x.reshape(self.lines)
        for a in (a for a, wrap in enumerate(self.periodic) if wrap):
            before = (slice(None),) * a
            out[before + (0,)], out[before + (-1,)] = out[before + (-2,)], out[before + (1,)]
        return out


_jacobian_plan = functools.lru_cache(maxsize=8)(_JacobianPlan)


def _jacobian_chains(grid):
    """(outer, inner) pairs, one per coefficient block of
    `_jacobian_coefficients` and in its order: block b contributes
    outer_b . diag(coefficients_b) . inner_b to the Jacobian, with inner_b
    the composition of a tuple of stencils, the first applied last, and
    the identity where it is empty.

    The residual mcp(u) - F is -sum_k div[k](g_k/omega) - F, with g the face
    gradient (along[k], and avg[k] . grad[c] transverse) and F read through
    the node gradients, so the flux blocks go through `div` and the
    prescription blocks through the identity.
    """
    ops = operators(grid)
    # the identity, read on the unknowns
    unknowns = tuple(slice(0, n) if t == "periodic" else slice(1, n - 1)
                     for n, t in zip(grid.shape, grid.topology))
    eye = Stencil(grid.shape, grid.shape, 0, ((0, 1.0),), (0, 0), [(unknowns, [(unknowns, 1.0)])])
    chains = []
    for ax, div in enumerate(ops.div):
        chains.append((div, (ops.along[ax],)))
        chains.extend((div, (ops.avg[ax], g)) for c, g in enumerate(ops.grad) if c != ax)
    chains.append((eye, ()))
    chains.extend((eye, (g,)) for g in ops.grad)
    return chains


def _graph_residual(grid, values, F):
    """mcp(u) - F(graph env of u) at every node, and what the Jacobian at u
    reads besides: the node gradients, the `graph_faces`, the node area
    factor omega and F's partials by z, y1..y_dim and t, evaluated with F
    itself (`PMCFunction.eval_with_partials`)."""
    grads = node_gradients(grid, values)
    faces = graph_faces(grid, values, grads)
    mcp = mean_curvature_product_values(grid, values, grads, faces)
    env, omega = graph_normal_env(grid, values, grads)
    names = variables(grid.dimension)[grid.dimension:]
    value, *partials = F.eval_with_partials(env, names)
    return mcp - value, (grads, faces, omega, partials)


def _jacobian_coefficients(grid, values, F, parts=None):
    """Per-step coefficients of the `_jacobian_chains` blocks, one array
    per block, shaped like the output of its inner stencils: the
    derivatives of the residual's terms by the quantities they read.

    Blocks, in order: per axis the face derivative of -g_along/omega by the
    along-face slope, then by each transverse component; the node-local
    -dF/dz; per axis the node-local derivative of -F through the unit
    normal, by the node gradient.  `parts` are the `_graph_residual` parts
    at `values`, when the caller has them.
    """
    dim = grid.dimension
    if parts is None:
        parts = _graph_residual(grid, values, F)[1]
    grads, faces, omega_node, (Fz, *Fy, Ft) = parts
    coefs = []
    for ax, (comps, omega) in enumerate(faces):
        om3 = omega ** 3
        tsq = sum(comps[c] * comps[c] for c in range(dim) if c != ax)
        coefs.append(-(1.0 + tsq) / om3)
        coefs.extend(comps[ax] * comps[c] / om3 for c in range(dim) if c != ax)

    om3 = omega_node ** 3

    def nodal(partial):
        return np.broadcast_to(partial, grid.shape)

    coefs.append(-nodal(Fz))
    Fy, Ft = [nodal(d) for d in Fy], nodal(Ft)
    for l in range(dim):
        mult = Ft * (-grads[l] / om3)
        for m in range(dim):
            dY = grads[m] * grads[l] / om3
            if m == l:
                dY = dY - 1.0 / omega_node
            mult = mult + Fy[m] * dY
        coefs.append(-mult)
    return coefs


def assemble_jacobian(grid, values, F, shift=0.0, parts=None):
    """Derivative of the discrete residual mcp(u) - F(graph env of u).

    A `StencilMatrix` over the unknowns, the non-dirichlet nodes (rows and
    columns in flat order); `shift` is added to the diagonal, and `parts`
    are the parts of the residual at `values` that the Jacobian reads, when
    the caller has them (`_graph_residual`).  The stencil is planned once
    per grid, so a call only evaluates the coefficients and takes one
    product with the plan's weights.
    """
    plan = _jacobian_plan(grid)
    q = _jacobian_coefficients(grid, values, F, parts)
    reads = [x[window] for block, (outer, _) in zip(q, plan.chains)
             for x in [outer.padded(block)] for window, _ in outer.pieces[0][1]]
    data = np.zeros((len(plan.weights),) + plan.lines)
    # each slot sums its coefficient rows k in order: a matrix product's
    # fused multiply-adds would round differently where a weight is no
    # power of 2
    for s, k in zip(*np.nonzero(plan.weights)):
        rows = plan.rows[s]
        data[s][rows] += plan.weights[s, k] * reads[k][rows]
    if shift:
        data[plan.center] += shift
    return StencilMatrix(plan, data)


# ---------------------------------------------------------------------------
# linear algebra


class StencilMatrix:
    """Square matrix over the unknowns of a `_JacobianPlan`: `data[s]`,
    shaped like the plan's `lines`, holds each row's entry in slot s, one
    of the 3^d offsets over the grid's own axes, and `data[plan.center]`
    is the diagonal.  A product is the sum over the slots, in order, of
    data[s] times the padded input read through slot s's window.

    With `border` it gains a last row and column of ones and a zero corner:
    the bordered system that pins the mean of a gauge-free periodic solve.
    """

    def __init__(self, plan, data, border=False):
        self.plan, self.data, self.border = plan, data, bool(border)
        self.shape = (plan.n + self.border,) * 2
        self.nnz = plan.nnz + 2 * plan.n * self.border

    def bordered(self):
        return StencilMatrix(self.plan, self.data, border=True)

    def _product(self, x):
        x = self.plan.padded(x)
        return functools.reduce(operator.iadd, (d * x[window] for d, window
                                                in zip(self.data, self.plan.windows))).reshape(-1)

    def __matmul__(self, x):
        if not self.border:
            return self._product(x)
        return np.append(self._product(x[:-1]) + x[-1], np.sum(x[:-1]))

    def toarray(self):
        # column j is the product with the j-th unit vector
        return np.array([self @ e for e in np.eye(self.shape[0])]).T


def _exact_mean(x):
    """Mean over the last axis, as the first entry plus the mean of the
    differences from it: exact when every entry is equal."""
    first = x[..., :1]
    return (first + np.mean(x - first, axis=-1, keepdims=True))[..., 0]


def _sine_transform(x, axis):
    """-2 times the DST-I of the real array x along `axis`: the imaginary
    part of the rfft of the odd extension [0, x, 0, -x reversed], of length
    2(L + 1).  Entry k is -2 sum_n x_n sin(pi k n / (L + 1)), k, n = 1..L,
    so applying it twice multiplies by 2(L + 1)."""
    x = np.moveaxis(x, axis, -1)
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return np.moveaxis(np.fft.rfft(odd)[..., 1:x.shape[-1] + 1].imag, -1, axis)


class Preconditioner:
    """M^-1 = S K^-1 S for a `StencilMatrix` A, applied by fast transforms:
    a fast direct solver of a nearby separable matrix as the preconditioner
    of a nonseparable one (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).

    S = diag(|a_ii| / mean |a_ii|)^(-1/2) evens out the diagonal, and K is
    translation-invariant: its slot s holds the mean of slot s of S A S over
    the rows whose neighbours are all unknowns (every row along an axis too
    short to have such rows), symmetrized across each dirichlet axis.  Its
    slots are the 3^d offsets over the grid's own d axes, so K is a kernel
    of shape (3,) * d and a sum of tensor products of one operator per
    axis.  The discrete Fourier transform diagonalizes it along a periodic
    axis, with the eigenvalue exp(i d phi) for the offset d, and the DST-I
    along a dirichlet axis of L unknowns, with cos(d theta_j), theta_j =
    pi j / (L + 1) (Golub & Van Loan, Matrix Computations, 4th ed., sec.
    4.8).  A solve transforms along every axis, divides by the eigenvalues
    and transforms back.

    On a translation-invariant matrix of a fully periodic grid S = I and
    K = A bit for bit, so M is the exact factor of that circulant.  Each
    slot's term of an eigenvalue, value * (exp(-i phi) - 1) relative to the
    row sum, is taken through sin(phi/2)^2, so that no low frequency loses
    digits to cancellation against the row sum.  The constants are the
    zero mode's eigenvector on a fully periodic grid, so the bordered
    system, K x + mu = f with sum(x) = g, sets that mode of x to g and mu to
    (f_0 - lambda_0 g) / N, with f_0 the sum of f; S scales f and x only.
    Raises numpy's LinAlgError on a zero diagonal entry or a zero
    eigenvalue, the bordered system's zero mode excepted.
    """

    def __init__(self, A):
        p = A.plan
        self.n, self.lines, self.shape, self.border = p.n, p.lines, A.shape, A.border
        diag = np.abs(A.data[p.center]).reshape(-1)
        if not np.all(diag > 0.0):
            raise np.linalg.LinAlgError("zero diagonal entry")
        self.scale = np.sqrt(_exact_mean(diag) / diag)
        slots = (3,) * len(p.lines)
        scale = p.padded(self.scale)
        sas = A.data * self.scale.reshape(p.lines) * np.array([scale[w] for w in p.windows])
        self.fft_axes = tuple(a for a, wrap in enumerate(p.periodic) if wrap)
        self.sine_axes = tuple(a for a, wrap in enumerate(p.periodic) if not wrap)
        inner = tuple(slice(1, -1) if a in self.sine_axes and L > 2 else slice(None)
                      for a, L in enumerate(p.lines))
        kernel = _exact_mean(sas[(..., *inner)].reshape(slots + (-1,)))
        for a in self.sine_axes:
            kernel = 0.5 * (kernel + np.flip(kernel, a))

        # each axis's angles theta_j of the DST-I, or frequencies of the FFT
        last = (self.fft_axes or (None,))[-1]
        coords = np.ix_(*(np.pi * np.arange(1, L + 1) / (L + 1) if a in self.sine_axes
                          else (np.fft.rfftfreq if a == last else np.fft.fftfreq)(L)
                          for a, L in enumerate(p.lines)))
        lam = np.full(tuple(c.size for c in coords), math.fsum(kernel.reshape(-1)),
                      dtype=complex)
        for k, value in np.ndenumerate(kernel):
            phi = 2.0 * np.pi * sum(coords[a] * (1 - k[a]) for a in self.fft_axes)
            # 1 - exp(-i phi) c, with c the product of cos(d theta) over the
            # dirichlet axes
            q = 2.0 * np.sin(0.5 * phi) ** 2 + 1j * np.sin(phi)
            if self.sine_axes:
                c = math.prod(np.cos((k[a] - 1) * coords[a]) for a in self.sine_axes)
                q = 1.0 - c * (1.0 - q)
            lam -= value * q
        if np.any(lam.reshape(-1)[self.border:] == 0):
            raise np.linalg.LinAlgError("zero eigenvalue")
        self.lam0 = lam.flat[0].real
        if self.border:
            lam.flat[0] = 1.0
        # the DST-I applied twice multiplies by 2(L + 1)
        lam *= math.prod(2 * (p.lines[a] + 1) for a in self.sine_axes)
        self.lam = lam if self.fft_axes else lam.real

    def solve(self, b):
        y = (b[:self.n] * self.scale).reshape(self.lines)
        for a in self.sine_axes:
            y = _sine_transform(y, a)
        if self.fft_axes:
            y = np.fft.rfftn(y, axes=self.fft_axes)
        if self.border:
            mu = (y.flat[0].real - self.lam0 * b[self.n]) / self.n
            y.flat[0] = b[self.n]
        y = y / self.lam
        if self.fft_axes:
            y = np.fft.irfftn(y, s=[self.lines[a] for a in self.fft_axes], axes=self.fft_axes)
        for a in self.sine_axes:
            y = _sine_transform(y, a)
        x = y.reshape(-1) * self.scale
        return np.append(x, mu) if self.border else x


class LaggedLU:
    """Linear solver of one solve: GMRES preconditioned by the last
    `Preconditioner`, reused.

    `solve(A, b, atol, bound)` runs right-preconditioned GMRES (Saad &
    Schultz 1986) from x0 = M b, restarted every KRYLOV_RESTART iterations,
    until its true residual is at most max(KRYLOV_RTOL*|b|, atol) in the
    2-norm, so by default KRYLOV_RTOL*|b|, and at most `bound` in the sup
    norm, by default no bound.  M is the preconditioner built from an
    earlier matrix of the same size while one restart cycle on the new
    matrix meets the 2-norm target, and any later cycles the bound.  It is
    built from the new matrix only when there is none of its size or GMRES
    stops short, and GMRES then runs up to KRYLOV_CYCLES cycles from the
    new M's x0.  A system the cycles cannot solve, one whose cycle does not
    lower the residual or whose last cycle misses the target, gets a step
    of NaNs, and so does a matrix whose preconditioner does not exist (a
    zero diagonal entry or eigenvalue); the caller reports the non-finite
    step.  Make one per
    solve: a preconditioner never passes from one solve to another.  It
    counts its `solve` calls, its preconditioner builds as
    `factorizations` and its GMRES iterations.  The Krylov basis is
    allocated once and reused while the system size stays.
    """

    def __init__(self):
        self.preconditioner = self.basis = None
        self.factorizations = self.krylov_iterations = self.linear_solves = 0

    def solve(self, A, b, atol=0.0, bound=np.inf):
        self.linear_solves += 1
        tol = max(KRYLOV_RTOL * np.linalg.norm(b), atol)
        if self.preconditioner is not None and self.preconditioner.shape == A.shape:
            x = self._krylov(A, b, tol, bound, 1)
            if x is not None:
                return x
        # drop the old one first: a matrix without a preconditioner leaves none
        self.preconditioner = None
        try:
            self.preconditioner = Preconditioner(A)
        except np.linalg.LinAlgError:
            return np.full(A.shape[0], np.nan)
        self.factorizations += 1
        x = self._krylov(A, b, tol, bound, KRYLOV_CYCLES)
        return np.full(A.shape[0], np.nan) if x is None else x

    def _krylov(self, A, b, tol, bound, cycles):
        """x from right-preconditioned GMRES started at x0 = M b and
        restarted every KRYLOV_RESTART iterations, once its true residual r
        has |r|_2 <= tol and |r|_inf <= bound, or None if `cycles` cycles do
        not get |r|_2 to tol, KRYLOV_CYCLES do not get it there, or a cycle
        does not lower |r|_2.

        A cycle aims at |r|_2 <= tol, and once that holds at |r|_2 <= bound,
        which bounds |r|_inf.  It keeps each M v of its basis, so M is
        applied once per iteration and once for x0.
        """
        M = self.preconditioner.solve
        x = M(b)
        r = b - A @ x
        beta = np.linalg.norm(r)
        k = KRYLOV_RESTART
        for cycle in range(KRYLOV_CYCLES):
            if beta <= tol and np.max(np.abs(r)) <= bound:
                return x
            if beta > tol and cycle == cycles:
                return None
            target = tol if beta > tol else bound
            if self.basis is None or self.basis.shape[1] != b.size:
                self.basis = np.empty((2 * k + 1, b.size))
            V, Z = self.basis[:k + 1], self.basis[k + 1:]
            H, rot, g = np.zeros((k + 1, k)), np.zeros((k, 2)), np.zeros(k + 1)
            g[0] = beta
            V[0] = r / beta
            for j in range(k):
                Z[j] = M(V[j])
                w = A @ Z[j]
                # classical Gram-Schmidt, run twice for orthogonality
                for _ in range(2):
                    c = V[:j + 1] @ w
                    w -= c @ V[:j + 1]
                    H[:j + 1, j] += c
                H[j + 1, j] = np.linalg.norm(w)
                for i in range(j):
                    cs, sn = rot[i]
                    H[i, j], H[i + 1, j] = (cs * H[i, j] + sn * H[i + 1, j],
                                            cs * H[i + 1, j] - sn * H[i, j])
                rho = np.hypot(H[j, j], H[j + 1, j])
                if rho == 0.0:
                    return None
                rot[j] = H[j, j] / rho, H[j + 1, j] / rho
                H[j, j] = rho
                g[j + 1] = -rot[j, 1] * g[j]
                g[j] *= rot[j, 0]
                self.krylov_iterations += 1
                if abs(g[j + 1]) <= target:
                    break
                V[j + 1] = w / H[j + 1, j]
            y = np.linalg.solve(np.triu(H[:j + 1, :j + 1]), g[:j + 1])
            x += y @ Z[:j + 1]
            r = b - A @ x
            last, beta = beta, np.linalg.norm(r)
            if not beta < last:
                return None
        return x if beta <= tol and np.max(np.abs(r)) <= bound else None


def spsolve(A, b, lagged=None, atol=0.0, bound=np.inf):
    """Solve A x = b through `lagged`, or through a fresh `LaggedLU`: by
    GMRES preconditioned by fast transforms, to a true residual of at most
    max(KRYLOV_RTOL*|b|, atol) (`LaggedLU.solve`).
    Every Newton step makes exactly one call.  The benchmark's tracer
    (perfbench/spans.py) wraps this module-level name, counts its calls as
    linear solves and reads the system size off the first argument.
    """
    return (LaggedLU() if lagged is None else lagged).solve(A, b, atol, bound)


# ---------------------------------------------------------------------------
# inner solve


def rounding_floor(grid, height):
    """The sup-residual that rounding keeps an inner solve from telling
    apart from 0, for fields of sup norm `height` on `grid`: FLOOR_ULPS *
    eps * height * W.  W sums over the axes the largest absolute row sum
    of div[k] times that of along[k] (`calculus.operators`), which bounds
    the absolute row sums of the flux stencil div[k] . along[k], 4/h^2 on a
    uniform axis."""
    ops = operators(grid)
    W = sum(sum(abs(w) for _, w in d.taps) * sum(abs(w) for _, w in a.taps)
            for d, a in zip(ops.div, ops.along))
    return FLOOR_ULPS * np.finfo(float).eps * height * float(W)


def _forcing_term(loose, history):
    """The forcing term of the next step's linear solve (see FORCING_*):
    FORCING_MAX in a `loose` solve, one that stops above tol_inner, and
    otherwise FORCING_FIRST for the solve's first step, with one entry in
    its sup-residual `history`, and Eisenstat & Walker's choice 2 after
    it."""
    if loose:
        return FORCING_MAX
    if len(history) == 1:
        return FORCING_FIRST
    return min(FORCING_MAX, 0.9 * (history[-1] / history[-2]) ** 2)


def solve_inner(grid, H, psi, init, cfg=None, penalty=None,
                lagged=None, forcing=0.0, evaluation=None, bounds=None):
    """Damped Newton on the discrete prescribed-curvature system.

    Solves mcp(u) - H(graph env of u) + gamma*(u - anchor) = 0, with
    `penalty` = (gamma, anchor), gamma >= 0 and anchor a nodal field, or
    without the term when `penalty` is None.  The term adds gamma to the
    Jacobian's diagonal, and at gamma = 0 the anchor is not read.  H - gamma*z
    must be non-increasing in height at the heights the iterates take.
    psi fixes the dirichlet boundary (None on fully periodic grids).  On a
    fully periodic grid, at gamma = 0 with a height-free H, the mean of the
    iterate is pinned through a bordered linear system.  `lagged` is the
    LaggedLU shared by the sweeps of one outer solve; without one the call
    makes its own.  The solve stops at a sup-residual of
    max(cfg.tol_inner, forcing * the seed's), the report's `tolerance`, so
    a `forcing` below 1 takes at least one Newton step from a seed above
    cfg.tol_inner; the outer iteration loosens its sweeps this way.  Where
    the report's `floor`, the `rounding_floor` of the largest height of the
    seed and of `bounds`, exceeds cfg.tol_inner, it takes cfg.tol_inner's
    place in all of this: the effective tol_inner is the larger of the two.
    A loose solve, one whose tolerance is above the effective tol_inner,
    forces each Newton step's linear solve at FORCING_MAX
    (`_forcing_term`), in the 2-norm and in the sup norm; the linear
    solves' floor stays at FORCING_FLOOR times the effective tol_inner
    either way.

    Every iterate is evaluated once: its residual pass keeps what the
    Jacobian reads (`_graph_residual` of H, before the penalty).  The
    report's `evaluation` is that of the returned field.  A solve seeded at
    a field already evaluated with the same H, such a returned field or a
    candidate the outer iteration's gate evaluated, takes that evaluation
    as `evaluation` in place of evaluating init, whatever its penalty.

    With `bounds` = (lo, hi) every trial iterate is clipped into [lo, hi]
    at the unknowns.  The outer iteration passes its plateau, which holds
    the barrier slab: the penalty certificate holds on the slab only, and
    off it the problem may have solutions of its own, which a Newton step
    from a far seed can reach.

    Returns (solution field, report dict).  Raises SolverFailure with the
    best iterate when the step budget runs out, and when the line search
    stagnates: no step of at least MIN_STEP lowers the residual.
    """
    if cfg is None:
        cfg = SolveConfig()
    gamma, anchor = penalty or (0.0, None)
    has_dirichlet = any(t == "dirichlet" for t in grid.topology)
    if has_dirichlet and psi is None:
        raise ValueError("dirichlet grid needs boundary data")
    if init.grid != grid:
        raise ValueError("initial iterate is not defined on the supplied grid")
    if lagged is None:
        lagged = LaggedLU()

    u = init.values.astype(float).copy()
    if has_dirichlet:
        u[grid.boundary_mask] = psi.values[grid.boundary_mask]
    unknown = np.flatnonzero(~grid.boundary_mask.reshape(-1))

    def residual(vals, evaluation=None):
        # the residual at vals on the unknowns, and its evaluation: the
        # `_graph_residual` of H before the penalty, with the parts the
        # Jacobian at an accepted iterate reads
        if evaluation is None:
            evaluation = _graph_residual(grid, vals, H)
        out = evaluation[0] + gamma * (vals - anchor) if gamma else evaluation[0]
        return out.reshape(-1)[unknown], evaluation

    def trial(step):
        # the iterate moved by `step`, with its residual and its
        # evaluation, or None where the prescription refuses it
        v = u.copy()
        moved = v.reshape(-1)[unknown] + step
        v.reshape(-1)[unknown] = moved if bounds is None else np.clip(moved, *bounds)
        try:
            return (v, *residual(v))
        except ValueError:
            return None

    R, evaluated = residual(u, evaluation)
    # a height-free prescription leaves the mean free when no penalty holds
    # it: read off dH/dz at the seed, the first Jacobian's block
    bordered = (not gamma and grid.is_fully_periodic()
                and np.max(np.abs(evaluated[1][-1][0])) <= 1e-13)

    res_sup = float(np.max(np.abs(R))) if R.size else 0.0
    floor = rounding_floor(grid, max([float(np.max(np.abs(u))), *map(abs, bounds or ())]))
    tol_inner = max(cfg.tol_inner, floor)
    atol_floor = FORCING_FLOOR * tol_inner
    tol = max(tol_inner, forcing * res_sup)
    history = [res_sup]
    newton_steps = 0

    while res_sup > tol:
        if newton_steps >= NEWTON_BUDGET:
            raise SolverFailure(
                f"inner solve exhausted {NEWTON_BUDGET} steps "
                f"(residual {res_sup:.3e}, tolerance {tol:.3e})",
                best=ScalarField(grid, u), residual_history=history)
        J = assemble_jacobian(grid, u, H, shift=gamma, parts=evaluated[1])
        phi0 = np.linalg.norm(R)
        eta = _forcing_term(tol > tol_inner, history)
        A, rhs = (J.bordered(), np.append(-R, 0.0)) if bordered else (J, -R)
        # a loose solve's forcing holds in the sup norm it stops in too
        bound = max(FORCING_MAX * res_sup, atol_floor) if tol > tol_inner else np.inf
        delta = spsolve(A, rhs, lagged, max(eta * phi0, atol_floor), bound)[:R.size]
        if not np.all(np.isfinite(delta)):
            raise SolverFailure(
                "linear solve produced a non-finite step (singular linearization)",
                best=ScalarField(grid, u), residual_history=history)

        s = 1.0
        while s >= MIN_STEP:
            step = trial(s * delta)
            if step and np.all(np.isfinite(step[1])) and (
                    np.linalg.norm(step[1]) <= (1.0 - ARMIJO_C * s) * phi0):
                u, R, evaluated = step
                res_sup = float(np.max(np.abs(R)))
                newton_steps += 1
                history.append(res_sup)
                break
            s *= 0.5
        else:
            raise SolverFailure(
                "inner solve: line search stagnated "
                f"(residual {res_sup:.3e}, tolerance {tol:.3e})",
                best=ScalarField(grid, u), residual_history=history)

    report = {
        "newton_steps": newton_steps,
        # always 0: the benchmark's tracer still reads this key
        "ptc_steps": 0,
        "residual_sup": res_sup,
        "residual_history": history,
        "tolerance": tol,
        "floor": floor,
        "bordered": bool(bordered),
        "evaluation": evaluated,
    }
    return ScalarField(grid, u), report


# ---------------------------------------------------------------------------
# outer iteration


@dataclasses.dataclass
class SolveReport:
    """Everything observable about one solve, JSON-ready via to_dict().

    The `_QUASI` fields are the quasi-decreasing certificate; only
    solve_quasi sets them, and to_dict omits them from every other report.
    """

    converged: bool
    mode: str
    gamma: float
    gamma_history: list
    gamma_certificate: object
    cutoff: object
    outer_count: int
    accelerated_steps: int
    rejected_steps: int
    factorizations: int
    krylov_iterations: int
    linear_solves: int
    inner_newton_counts: list
    residual_history: list
    step_history: list
    monotonicity_violations: list
    confinement_violations: list
    final_residual: float
    rounding_floor: float
    consistency_bound: float
    consistency_ok: bool
    min_theta: float
    sup_abs_u: float
    sup_abs_curvature: float
    barrier_check: dict
    box: dict
    grid: dict
    quasi_check: object = None
    theta_threshold: object = None
    graphical: object = None
    jacobi_sup: object = None
    refinement: object = None

    _QUASI = ("quasi_check", "theta_threshold", "graphical", "jacobi_sup",
              "refinement")

    def to_dict(self):
        skip = self._QUASI if self.quasi_check is None else ()
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name not in skip}


def _anderson_candidate(f_hist, g_hist):
    """Anderson's proposal for the next anchor of the penalized sweeps.

    f_hist and g_hist hold f = T(x) - x and g = T(x) of the last counted
    sweeps x -> T(x), oldest first, two at least.  The proposal is the
    type-II Anderson candidate g - dG c, with c the least-squares fit of the
    differences dF to the newest f (Walker & Ni 2011); `_clip` puts it into
    the bracket.
    """
    f, g = f_hist[-1], g_hist[-1]
    dF = np.diff(f_hist, axis=0).T
    dG = np.diff(g_hist, axis=0).T
    coef = np.linalg.lstsq(dF, f, rcond=None)[0]
    return g - dG @ coef


def _clip(proposal, last, upper):
    """Rule 2 of `outer_iterate`: the proposal clipped pointwise into the
    bracket [last, upper], returned with the bracket's upper end.  `last`
    is the last counted output and `upper` the pointwise min of u0 and every
    candidate discarded as a strict supersolution.  Rounding may lift an
    output past such a candidate; the upper end then gives way to it, so it
    never falls below the last output."""
    upper = np.maximum(upper, last)
    return np.clip(proposal, last, upper), upper


def _strict_supersolution(residual, tol):
    """Rule 3 of `outer_iterate` before any Newton step: a candidate whose
    `residual` in its own problem exceeds `tol` at every unknown is a strict
    supersolution of that problem.  Anchored at itself, the candidate's
    penalty term is 0, so that residual is H's own."""
    return bool(residual.size and np.min(residual) > tol)


def _grid_meta(grid):
    return {
        "dimension": grid.dimension,
        "shape": list(grid.shape),
        "lengths": list(grid.lengths),
        "topology": list(grid.topology),
        "origin": list(grid.origin),
    }


def working_box(B, cfg):
    """The box certificates sample: `cfg.box`'s z-range, which must hold the
    barrier range strictly inside, or else the barrier range widened by half
    its span at each end; base ranges from the barriers' grid."""
    zmin, zmax = B.z_bounds()
    span = zmax - zmin
    if span <= 0.0:
        span = 1.0
    if cfg.box is not None:
        a, b = cfg.box
        if not (a < zmin and zmax < b):
            raise ValueError(
                f"barrier range [{zmin:.6g}, {zmax:.6g}] must lie strictly "
                f"inside the working z-range ({a:.6g}, {b:.6g})")
        return WorkingBox.from_grid(B.grid, (a, b))
    return WorkingBox.from_grid(B.grid, (zmin - 0.5 * span, zmax + 0.5 * span))


def outer_iterate(H, B, cfg=None):
    """Solve the prescribed-curvature problem between the barriers.

    Each sweep x -> T(x) solves the penalized problem anchored at x,
    starting from the lower barrier, with every Newton trial iterate
    clipped to the plateau [c1, c2] (`solve_inner`'s `bounds`): the
    barrier range padded at each end by the smaller of 10% of its span and
    half the gap to the working box.  The first sweep's penalty
    gamma is the explicit cfg.gamma, or `gamma_for`'s over the barrier slab
    [min u1, max u0], which is 0 where H does not increase in height there.
    A sweep at gamma = 0 does not read its anchor: it is solved to tol_inner
    and ends the iteration, the direct solve.  At gamma > 0 T is monotone,
    so plain sweeps climb to the minimal solution u* between the barriers.
    The comparison argument behind that needs H - gamma*z non-increasing
    only at the heights the iterates take, the slab [last output, u0],
    which narrows as they climb.  So with an "auto" penalty, after each
    counted sweep, the sampled sup of dH/dz over the narrower slab is read
    off `gamma_for`'s lattice; once it is <= 0, gamma drops to 0, the
    pending proposal is dropped, and the next sweep is the direct solve
    from the last output, seeded with that output's evaluation: an
    evaluation is of H alone, whatever the penalty.  An explicit cfg.gamma
    stays fixed for every sweep.  The report's `gamma` is the first sweep's,
    `gamma_history` holds every counted sweep's, and `mode` is "penalized"
    iff one of them is above 0, "direct" otherwise.  Once two sweeps are
    counted, Anderson proposes the next anchor after each counted sweep
    (`_anderson_candidate`), and three rules judge every sweep.  Rules 1,
    2 and the first half of rule 3 are one gate at the top of each pass,
    which turns the pending proposal into the sweep's anchor; an admitted
    candidate's solve starts from the evaluation the gate made of it:

    1. A sweep is plain exactly when its anchor is the last output.  A
       proposal that the clip leaves equal, at every unknown, to the last
       output or to a candidate discarded before keeps the anchor there;
       any other is a candidate, and a candidate sweep that counts adds to
       `accelerated_steps`.
    2. Each proposal is clipped into one bracket (`_clip`): from the last
       output up to the pointwise min of u0 and every candidate discarded as
       a strict supersolution.  As T is monotone, u* = lim T^k(u1) <= s for
       every supersolution s >= u1.
    3. A candidate sweep is discarded (`rejected_steps`) and redone from the
       last output if its candidate was a strict supersolution of its
       problem, with a residual above tol_outer at every unknown
       (`_strict_supersolution`), found by the gate before any Newton
       step, or if it moves down or leaves the slab by more than
       min(tol_outer, MONOTONE_ABORT), so the candidate was no
       subsolution.  A counted sweep that moves down or leaves the slab by
       more than MONOTONE_ABORT aborts the solve with MonotonicityError;
       smaller violations are tolerated as scheme noise.  Like every
       SolverFailure raised here, the error carries the counts so far as
       `partial`, the ten the report takes from the same record.

    A proposal stays pending until the next counted sweep replaces it, so
    a sweep redone after a discard is plain by rule 1.

    Every sweep's Newton solve starts from its anchor.  A penalized sweep's
    inner solve stops at tol_k = max(tol_inner,
    SWEEP_FORCING * |R(seed)| / max(gamma, 1)), with R(seed) the residual
    of its Newton seed in its own problem.  A sweep whose step is at most
    max(tol_outer, tol_k) is finished to tol_inner from the same anchor and
    measured again, so the exit sweep is a counted one solved to
    tol_inner, with step <= tol_outer at gamma > 0, and the consistency
    bound tol_inner + gamma*step holds, with the exit sweep's gamma.  Here
    tol_inner is the effective one, the larger of cfg.tol_inner and the
    inner solves' `rounding_floor` at the clip range's height, which the
    report gives as `rounding_floor`.
    `inner_newton_counts` adds up both solves of such a sweep; max_outer
    caps all sweeps, discarded ones included.  The report's
    `final_residual`, `min_theta` and `sup_abs_curvature` are read off the
    returned field's evaluation, and that field must lie in the working
    box.  A plateau that does not lie strictly inside the working box, as
    rounding leaves it when an explicit box lies within an ulp of the
    barrier range, is refused with a ValueError.
    """
    if cfg is None:
        cfg = SolveConfig()
    grid = B.grid
    box = working_box(B, cfg)
    barrier_check = check_barrier(B, H, allowance=cfg.allowance_constant)
    if not barrier_check["passed"]:
        raise ValueError(
            "barrier check failed (worst sub-solution residual "
            f"{barrier_check['worst_sub']:.3e}, worst super-solution residual "
            f"{barrier_check['worst_super']:.3e}, tolerance {barrier_check['tol']:.3e})")
    zmin, zmax = B.z_bounds()
    span = max(zmax - zmin, 1e-12)
    c1 = zmin - min(0.1 * span, 0.5 * (zmin - box.z_min))
    c2 = zmax + min(0.1 * span, 0.5 * (box.z_max - zmax))
    # rounding can put an end on the box's edge when the box hugs the
    # barrier range
    if not (box.z_min < c1 and c2 < box.z_max):
        raise ValueError(
            f"cutoff plateau [{c1:.6g}, {c2:.6g}] must lie strictly inside "
            f"the working z-range ({box.z_min:.6g}, {box.z_max:.6g})")
    gamma_cert = sup_above = None
    gamma = cfg.gamma
    if gamma == "auto":
        gamma_cert, sup_above = gamma_for(
            H, WorkingBox.from_grid(grid, (zmin, zmax)), cfg.samples)
        gamma = gamma_cert["gamma"]
    # the first sweep's penalty, which names the report's mode
    sized = gamma

    interior = ~grid.boundary_mask
    u_prev = ScalarField(grid, B.u1.values.copy())
    # Newton seed for the first sweep.  The sweeps anchor at the lower
    # barrier, but seeding Newton with it leaves a trace mismatch at the
    # boundary ring once the solve pins boundary nodes to psi — an
    # O((psi - u1)/h^2) shock that saturates the flux derivatives on steep
    # graphs at fine spacings.  The inner problems are height-monotone, so
    # their solutions are seed-independent: start from the trace clipped
    # into the barrier slab instead.  Later sweeps seed from the previous
    # output, whose trace already matches.
    if B.psi is not None:
        seed = ScalarField(
            grid, np.clip(B.psi.values, B.u1.values, B.u0.values))
    else:
        seed = u_prev
    inner_counts = []
    residual_history = []
    step_history = []
    mono_viol = []
    conf_viol = []
    gamma_history = []
    # interior values of f = T(x) - x and g = T(x) over the last counted
    # sweeps x -> T(x), for the Anderson proposals
    f_hist = []
    g_hist = []
    # the upper end of the bracket of rule 2, over the interior
    upper = B.u0.values[interior]
    # the interior bytes of every discarded candidate, which rule 1 does
    # not propose again
    discarded = set()
    accelerated = 0
    rejected = 0
    lagged = LaggedLU()
    # the evaluation of u_prev once a solve returned it, for the next plain
    # sweep (`solve_inner`'s `evaluation`)
    evaluation = None
    # Anderson's proposal from the last counted sweeps, which the gate
    # judges at every pass until the next counted sweep replaces it
    proposal = None

    def partial(history):
        # the counts the report shares with an unfinished solve's exit-3
        # partial
        return {"mode": "penalized" if sized else "direct", "gamma": sized,
                "gamma_history": gamma_history,
                "outer_count": len(step_history), "rejected_steps": rejected,
                "factorizations": lagged.factorizations,
                "krylov_iterations": lagged.krylov_iterations,
                "linear_solves": lagged.linear_solves,
                "residual_history": history, "step_history": step_history}

    # the residual of a penalized sweep's seed over the penalty slope
    # estimates the sweep's step; a sweep at gamma = 0 is solved exactly
    forcing = SWEEP_FORCING / max(gamma, 1.0) if gamma else 0.0
    for m in range(cfg.max_outer):
        # the gate: rules 2, 1 and 3 before any Newton step turn the pending
        # proposal into this sweep's anchor, with its seed's evaluation
        anchor, seeded = u_prev, evaluation
        if proposal is not None:
            last = u_prev.values[interior]
            cand, upper = _clip(proposal, last, upper)
            if not (np.array_equal(cand, last) or cand.tobytes() in discarded):
                values = u_prev.values.copy()
                values[interior] = cand
                seeded = _graph_residual(grid, values, H)
                if _strict_supersolution(seeded[0][interior], cfg.tol_outer):
                    # lower the bracket's upper end, and redo the sweep
                    upper = np.minimum(upper, cand)
                    discarded.add(cand.tobytes())
                    rejected += 1
                    continue
                anchor = ScalarField(grid, values)
        plain = anchor is u_prev
        penalty = (gamma, anchor.values)
        try:
            u_next, irep = solve_inner(grid, H, B.psi,
                                       seed if m == 0 else anchor, cfg,
                                       penalty=penalty, lagged=lagged, forcing=forcing,
                                       evaluation=seeded, bounds=(c1, c2))
            inner_steps = irep["newton_steps"]
            step = sup_norm(u_next, anchor)
            tol = irep["tolerance"]
            if tol > max(cfg.tol_inner, irep["floor"]) and step <= max(cfg.tol_outer, tol):
                # a sweep that may end the iteration, or whose step is
                # within its own tolerance: finish it to tol_inner
                u_next, irep = solve_inner(grid, H, B.psi, u_next, cfg,
                                           penalty=penalty, lagged=lagged,
                                           evaluation=irep["evaluation"],
                                           bounds=(c1, c2))
                inner_steps += irep["newton_steps"]
                step = sup_norm(u_next, anchor)
        except SolverFailure as exc:
            exc.partial = partial(residual_history + exc.residual_history)
            raise
        diff = (u_next.values - anchor.values)[interior]
        viol = max(0.0, -float(np.min(diff))) if diff.size else 0.0
        conf = max(
            float(np.max(B.u1.values - u_next.values)),
            float(np.max(u_next.values - B.u0.values)),
            0.0,
        )
        if not plain and max(viol, conf) > min(cfg.tol_outer, MONOTONE_ABORT):
            # rule 3 after the solve: the candidate was no subsolution inside
            # the slab, so redo the sweep from the last output
            discarded.add(anchor.values[interior].tobytes())
            rejected += 1
            continue
        accelerated += not plain
        inner_counts.append(inner_steps)
        residual_history.append(irep["residual_sup"])
        step_history.append(float(step))
        mono_viol.append(viol)
        conf_viol.append(conf)
        gamma_history.append(gamma)
        if max(viol, conf) > MONOTONE_ABORT:
            raise MonotonicityError(
                f"outer sweep {len(step_history)} moved down by {viol:.3e} and "
                f"left the barrier slab by {conf:.3e} (> {MONOTONE_ABORT:g}); "
                "the discretization is too coarse or the penalty too small",
                best=u_next, residual_history=residual_history,
                partial=partial(residual_history))
        u_prev = u_next
        evaluation = irep["evaluation"]
        if step <= cfg.tol_outer or not gamma:
            # the next sweep at gamma = 0 would solve the same problem
            break
        if sup_above is not None and sup_above(float(np.min(u_prev.values))) <= 0.0:
            # H does not increase over the slab [last output, u0]: the next
            # sweep is the direct solve from the last output, and the pending
            # proposal, made with the old penalty, does not carry over
            gamma, forcing, proposal = 0.0, 0.0, None
            continue
        f_hist = (f_hist + [diff])[-ANDERSON_DEPTH - 1:]
        g_hist = (g_hist + [u_next.values[interior]])[-ANDERSON_DEPTH - 1:]
        proposal = _anderson_candidate(f_hist, g_hist) if len(f_hist) > 1 else None
    else:
        # no ratio of successive steps: Anderson candidates overshoot first,
        # so the steps grow for a few sweeps of a converging iteration
        raise SolverFailure(
            f"outer iteration did not converge in {cfg.max_outer} sweeps, "
            f"{rejected} of them discarded (last step {step_history[-1]:.3e}, "
            f"smallest step {min(step_history):.3e})",
            best=u_prev, residual_history=residual_history,
            partial=partial(residual_history))

    v = u_prev
    box.require_values(v.values)
    residual, (grads, faces, omega, _) = evaluation
    final_residual = float(np.max(np.abs(residual[interior]), initial=0.0))
    floor = irep["floor"]
    bound = max(cfg.tol_inner, floor) + gamma_history[-1] * max(step_history[-1], 0.0)
    report = SolveReport(
        **partial(residual_history),
        converged=True,
        gamma_certificate=gamma_cert,
        cutoff={"c1": c1, "c2": c2},
        accelerated_steps=accelerated,
        inner_newton_counts=inner_counts,
        monotonicity_violations=mono_viol,
        confinement_violations=conf_viol,
        final_residual=final_residual,
        rounding_floor=floor,
        consistency_bound=bound,
        consistency_ok=bool(final_residual <= bound),
        min_theta=float(np.min(1.0 / omega)),
        sup_abs_u=float(np.max(np.abs(v.values))),
        sup_abs_curvature=float(np.max(np.abs(
            mean_curvature_product_values(grid, v.values, grads, faces)))),
        barrier_check=barrier_check,
        box={"z_min": box.z_min, "z_max": box.z_max},
        grid=_grid_meta(grid),
    )
    return v, report


# ---------------------------------------------------------------------------
# barrier construction and the quasi-decreasing frontend


def barriers_from_phi(grid, Fbase, phi, psi, cfg=None):
    """Barriers for a prescription perturbed by a bounded term.

    Solves the two auxiliary problems with the perturbation replaced by the
    constant tilt terms -alpha*t and +alpha*t, where alpha is 1.05 times the
    sampled bound of phi over the working box, the range of psi widened by
    1 at each end.  The sub-barrier comes from -alpha (curvature pushed
    down), the super-barrier from +alpha, both with trace psi.  Fbase must
    be height-free; dirichlet grids only.
    """
    if cfg is None:
        cfg = SolveConfig()
    if not all(t == "dirichlet" for t in grid.topology):
        raise ValueError("barrier construction needs a dirichlet grid")
    z0, z1 = float(np.min(psi.values)), float(np.max(psi.values))
    box = WorkingBox.from_grid(grid, (z0 - 1.0, z1 + 1.0))
    lo, hi, _, _ = sampled_range(Fbase, box, "z", cfg.samples)
    dz = max(hi, -lo)
    if dz > 1e-12:
        raise ValueError(
            f"base prescription depends on height (sampled slope {dz:.3e}); "
            "the two-constant construction needs a height-free base")
    lo, hi, _, _ = sampled_range(phi, box, None, cfg.samples)
    alpha = 1.05 * max(hi, -lo)

    tilt = Var("t")
    u1, _ = solve_inner(grid, PMCFunction(Fbase.ast - alpha * tilt, label=Fbase.label),
                        psi, psi, cfg)
    u0, _ = solve_inner(grid, PMCFunction(Fbase.ast + alpha * tilt, label=Fbase.label),
                        psi, psi, cfg)
    if np.min(u0.values - u1.values) < -1e-12:
        k = int(np.argmin((u0.values - u1.values).reshape(-1)))
        raise ValueError(
            f"auxiliary solutions are not ordered (flat node {k}); "
            "the base problem is inconsistent with the perturbation bound")
    return BarrierPair(u1, u0, psi)


def solve_quasi(D, build, grid, cfg=None):
    """Solve for a split prescription and certify the result is a graph.

    `build` maps a grid to its `BarrierPair`, and `grid` is the one to
    solve on.  Runs the outer iteration on the composite H1 + t*H2 (the
    split's height monotonicity makes it the one sweep at gamma = 0) between
    the barriers `build(grid)`, then attaches the tilt certificate: min
    Theta, the stability-equation residual, the graphical flag, and a
    one-halving refinement comparison of min Theta, solved between barriers
    built anew on the refined grid.
    """
    from .geometry import jacobi_residual

    if cfg is None:
        cfg = SolveConfig()
    B = build(grid)
    box = working_box(B, cfg)
    qcheck = check_quasi_decreasing(D, box, cfg.samples)
    if not qcheck["passed"]:
        raise ValueError(
            "decomposition is not quasi-decreasing (sampled height slope "
            f"{qcheck['worst_value']:.6g} at {qcheck['worst_point']}"
            + ("" if qcheck["h2_height_free"] else "; bounded part depends on height")
            + ")")
    H = D.composite()
    v, report = outer_iterate(H, B, cfg)
    jac = jacobi_residual(grid, v, H)
    report.quasi_check = qcheck
    report.theta_threshold = THETA_THRESHOLD
    report.graphical = bool(report.min_theta >= THETA_THRESHOLD)
    report.jacobi_sup = float(np.max(np.abs(jac.values)))

    try:
        _, fine_report = outer_iterate(H, build(refine_grid(grid)), cfg)
    except (ValueError, SolverFailure) as exc:
        # the fine solve, or its barriers, can fail on their own; report
        # the attempt rather than abort the whole solve
        report.refinement = {"min_theta_coarse": report.min_theta,
                             "error": str(exc), "stable": False}
    else:
        coarse = report.min_theta
        change = abs(fine_report.min_theta - coarse) / max(abs(coarse), 1e-300)
        report.refinement = {
            "min_theta_coarse": coarse,
            "min_theta_fine": fine_report.min_theta,
            "relative_change": change,
            "stable": bool(change <= 0.2),
        }
    return v, report
