"""Barrier verification and the graph-curvature solvers.

Two regimes share one inner engine.  When the prescription is non-increasing
in height the discrete problem is solved directly by damped Newton (the
diagonal shift -dF/dz >= 0 keeps the linearization nondegenerate).  Otherwise
the outer iteration cuts the prescription off outside a plateau that holds
the barrier range and adds a penalty gamma*(z - anchor) large enough to
restore monotonicity; a plain sweep anchors at the previous output, and
plain sweeps climb monotonically from the lower barrier to the minimal fixed
point of the original problem.  Anderson acceleration proposes other
anchors, and three rules of `outer_iterate` judge every sweep.  A sweep is
plain exactly when its anchor is the last output.  A proposal is clipped
into one bracket, from the last output up to the least known
supersolution: u0, lowered by every candidate discarded as a strict
supersolution.  A candidate sweep is discarded if its candidate was a
strict supersolution of its own problem, found from its residual before
any Newton step, or if it moves down or leaves the slab by more than
min(tol_outer, MONOTONE_ABORT); a counted sweep that does so by more than
MONOTONE_ABORT aborts the solve.  The sweeps are inexact: each inner
solve stops at a fraction of its seed's residual over the penalty slope,
which estimates the sweep's step, and only a sweep that may end the
iteration is finished to the inner tolerance.

The Jacobian is composed from the residual's own stencils
(`calculus.operators`), so it is the exact derivative of the discrete
residual: div . diag(c) . (face stencil) for the flux of each axis, and
diag(c) . (node stencil) for the prescription through the height and the
unit normal, with c the pointwise derivatives.  `_jacobian_chains` lists
these compositions in the order of the coefficient blocks of
`_jacobian_coefficients`.  Its rows and columns are the unknowns, the
non-dirichlet nodes, and it is a nine-slot stencil over them, a
`StencilMatrix`: the unknowns form grid lines along axis 1 (a 1-D grid is
one line), and a row has one slot per neighbour offset in {-1, 0, 1}^2 of
that array, wrapping on periodic axes, since no composed entry reaches
farther.  The plan of one grid gets the slots' columns by index
arithmetic and finds the one slot each composed entry falls in on every
row; each Newton step only evaluates the coefficients and adds each entry
into its slot, and a product is one gather.  The coefficients read what the
residual of the same iterate computed (`_graph_residual`): its gradients,
area factors, and the prescription's partials, evaluated with its value.
That evaluation leaves out the anchor source, so it passes from an inner
solve to the next one seeded at its output, and every iterate of an outer
solve is evaluated once.

The linear algebra is numpy's alone.  Every grid is 1-D or 2-D, so each
grid line of a Jacobian couples only to its neighbouring lines, plus the
first and last lines to each other when axis 0 wraps and a border row
when the mean is pinned.  `LineLU` factors it by block LU with one block
per line and those extra couplings eliminated last, by one Schur
complement; it scatters every block from the slot array.  A 1-D grid is
one line, inverted whole.  The linear systems of one solve go through one
`LaggedLU`: it keeps the last factor and solves each new system by one
right-preconditioned GMRES restart cycle.  Successive Jacobians differ only
through u and the anchor source, so the lagged factor is a near-exact
preconditioner; the matrix is factored afresh only when that cycle misses
its tolerance or the system size changes.  Newton asks for inexact steps: a
cycle may stop once its residual is a forcing term times the Newton
residual (Eisenstat & Walker 1996), and never needs to go below a tenth of
the inner tolerance.  A loose sweep, which stops at a fraction of its
seed's residual, asks every step for the largest forcing term.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .calculus import (
    Stencil,
    graph_faces,
    mean_curvature_product_values,
    node_gradients,
    operators,
)
from .expr import Func, Var
from .grid import ScalarField, refine_field, refine_grid, sup_norm
from .pmc import (
    PMCFunction,
    WorkingBox,
    check_monotone,
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
    "check_barrier",
    "working_box",
    "Cutoff",
    "gamma_for",
    "penalized_pmc",
    "solve_inner",
    "outer_iterate",
    "barriers_from_phi",
    "solve_quasi",
]

# hard abort threshold for comparison-principle violations; below it the
# violation is tolerated as scheme noise
MONOTONE_ABORT = 1e-6

# differences of sweep history behind each Anderson candidate of the
# penalized iteration.  Measured on the 64x64 torus_sine config, depths
# 1/2/3/5 count 34/16/25/23 sweeps and discard 25/6/15/8 more; the
# horosphere takes 7-9 sweeps at each of them
ANDERSON_DEPTH = 2

# inexact sweeps of the penalized iteration: each inner solve stops at a
# sup-residual of SWEEP_FORCING times its seed's over max(gamma, 1), but
# never below tol_inner.  The penalty adds gamma to the inner problem's
# slope in the height, so the seed's residual over gamma estimates the
# sweep's step, and the stopping residual moves the sweep output by about
# SWEEP_FORCING of it.  Being below 1, it gives every seed above tol_inner
# at least one Newton step.  Measured as sweeps (counted/accelerated/
# discarded) and linear solves, with exact sweeps at 0:
# - 64x64 torus_sine config: 0 takes 16/8/6 and 36; 1e-3 17/9/6 and 27;
#   3e-3 15/8/5 and 23; 0.01 16/8/6 and 20; 0.03 17/8/7 and 24; 0.1 and
#   0.3 20/10/8 and 20.  At 128x128, 0.01 takes 16/8/6 and 21;
# - horosphere config (32x32): 7/5/0 at each, with 14/10/9/9/8/7/7 linear
#   solves from 0 to 0.3.
# On the 16x16 torus the result lies 1.9e-10 off the plain iteration's limit
# at 0, 3e-3 and 0.01, 9.8e-9 at 1e-3, 2e-9 at 0.03 and 1.6e-9 at 0.1
SWEEP_FORCING = 0.01

# GMRES preconditioned by a lagged LU factor: one restart cycle of this
# length must reach its acceptance residual, or the matrix is refactored.
# That residual is the larger of KRYLOV_RTOL*|b| and the caller's absolute
# tolerance, in the 2-norm, checked on the true residual.  KRYLOV_RTOL is
# the default and near the arithmetic's reach: a direct LineLU solve of a
# smooth right-hand side leaves 6.7e-14 / 2.7e-13 / 1.2e-12 of it at
# 64x64 / 128x128 / 256x256, and with KRYLOV_RTOL as the only target 40 of
# the 55 cycles of the 256x256 torus_sine config missed it
KRYLOV_RESTART = 20
KRYLOV_RTOL = 1e-11

# inexact Newton forcing terms of the inner solve (Dembo, Eisenstat &
# Steihaug 1982; Eisenstat & Walker 1996, choice 2), as `_forcing_term`
# picks them.  A loose solve, a penalized sweep stopping at a fraction of
# its seed's residual above tol_inner, uses FORCING_MAX on every Newton
# step: it stops at SWEEP_FORCING/max(gamma, 1) of its seed's residual,
# 5.2e-3 on the torus below and 1e-3 on the horosphere, so no step of it
# needs a finer linear solve.  A solve to tol_inner uses FORCING_FIRST on its
# first step and min(FORCING_MAX, 0.9*(|R_k|/|R_k-1|)^2) after it, with sup
# norms, and every pseudo-time step uses FORCING_FIRST.  Every step may
# stop at a 2-norm residual of FORCING_FLOOR*tol_inner, which bounds the
# sup norm, so the linearized residual of the last step stays below
# tol_inner.  Measured as GMRES iterations of the 64x64 torus_sine config
# (16/8/6 sweeps, 20 linear solves, 1 factorization) and of the horosphere
# config (7/5/0 sweeps, 9 linear solves):
# - loose steps at FORCING_MAX: 18 and 6, each loose step 0 or 1; under
#   the rule of a solve to tol_inner: 32 and 8.  At 128x128: 18 against 34;
# - loose steps at 1e-3: 19 and 8; at 0.03: 16, but horosphere takes 8/6/0
#   sweeps; at 0.1: 20/9/9 sweeps and 33 linear solves on the torus, 17
#   linear solves on the horosphere; FORCING_MAX on a loose solve's first
#   step only: 18 and 7;
# - FORCING_FIRST 1e-10 or 1e-6, FORCING_FLOOR 0 or 0.5: no count changes,
#   also at 128x128, since few steps are left to the solves to tol_inner.
# At 256x256 the torus_sine config takes 21 linear solves, 20 GMRES
# iterations and 1 factorization, in about 5.6 s by CLI on 2 cores
FORCING_FIRST = 1e-8
FORCING_MAX = 1e-2
FORCING_FLOOR = 0.1


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
    explicit positive number; cutoff is an explicit (c1, c2) plateau override,
    which must hold the barrier range, otherwise the plateau is the barrier
    range padded by 10% of its span.
    box is an explicit working z-range; default is the barrier range padded
    by half its span.
    """

    tol_inner: float = 1e-10
    tol_outer: float = 1e-8
    max_newton: int = 50
    max_outer: int = 200
    armijo_c: float = 1e-4
    min_step: float = 2.0 ** -20
    gamma: object = "auto"
    samples: int = 9
    theta_threshold: float = 1e-3
    allowance_constant: float = 10.0
    box: object = None
    cutoff: object = None
    refine_check: bool = True

    def __post_init__(self):
        if not (self.tol_inner > 0.0 and self.tol_outer > 0.0):
            raise ValueError("tolerances must be positive")
        if int(self.max_newton) < 1 or int(self.max_outer) < 1:
            raise ValueError("iteration caps must be at least 1")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo constant must lie in (0, 1)")
        if self.gamma != "auto":
            self.gamma = float(self.gamma)
            if not self.gamma > 0.0:
                raise ValueError("explicit gamma must be positive")
        if self.box is not None:
            a, b = float(self.box[0]), float(self.box[1])
            if not a < b:
                raise ValueError(f"box z-range must be increasing, got ({a}, {b})")
            self.box = (a, b)
        if self.cutoff is not None:
            c1, c2 = float(self.cutoff[0]), float(self.cutoff[1])
            if not c1 < c2:
                raise ValueError(f"cutoff plateau must be increasing, got ({c1}, {c2})")
            self.cutoff = (c1, c2)
        self.tol_inner = float(self.tol_inner)
        self.tol_outer = float(self.tol_outer)
        self.max_newton = int(self.max_newton)
        self.max_outer = int(self.max_outer)
        self.armijo_c = float(self.armijo_c)
        self.min_step = float(self.min_step)
        self.samples = int(self.samples)
        if self.samples < 3 or self.samples % 2 == 0:
            # an even count misses the normal poles, and at 2 the 2-D
            # half-ball keeps no sample at all
            raise ValueError(f"samples must be an odd count >= 3, got {self.samples}")
        self.theta_threshold = float(self.theta_threshold)
        self.allowance_constant = float(self.allowance_constant)
        self.refine_check = bool(self.refine_check)
        # a step above 1 skips the line search, and one at or below 0 lets
        # it halve to a zero step; min_theta lies in (0, 1]
        for key in ("min_step", "theta_threshold"):
            if not 0.0 < getattr(self, key) <= 1.0:
                raise ValueError(f"{key} must lie in (0, 1], got {getattr(self, key)}")
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

    def refined(self):
        """The pair interpolated onto the grid of one halving of the spacing."""
        fine = refine_grid(self.grid)
        return BarrierPair(
            refine_field(self.u1, fine), refine_field(self.u0, fine),
            refine_field(self.psi, fine) if self.psi is not None else None)


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
# height cutoff and penalty size


def _smoothstep(s):
    return s * s * s * (10.0 + s * (6.0 * s - 15.0))


def _smoothstep_prime(s):
    return 30.0 * s * s * (1.0 - s) * (1.0 - s)


class Cutoff:
    """C^2 plateau profile: 1 on [c1, c2], 0 outside the ramp feet.

    The ramps are quintic smoothsteps on [a', c1] and [c2, b'] where a', b'
    are the midpoints between the plateau and the working range ends, so the
    profile vanishes well inside the working range.
    """

    def __init__(self, c1, c2, a, b):
        c1, c2, a, b = float(c1), float(c2), float(a), float(b)
        if not (a < c1 < c2 < b):
            raise ValueError(
                f"cutoff needs a < c1 < c2 < b, got a={a:.6g} c1={c1:.6g} "
                f"c2={c2:.6g} b={b:.6g}")
        self.c1, self.c2, self.a, self.b = c1, c2, a, b
        self.a_ramp = 0.5 * (a + c1)
        self.b_ramp = 0.5 * (c2 + b)

    def _ramps(self, r):
        """The positions of r on the rising and the falling ramp, clipped
        to [0, 1], and the two ramps' widths."""
        w1, w2 = self.c1 - self.a_ramp, self.b_ramp - self.c2
        return (np.clip((r - self.a_ramp) / w1, 0.0, 1.0),
                np.clip((self.b_ramp - r) / w2, 0.0, 1.0), w1, w2)

    def _off_plateau(self, r, plateau, ramps):
        """`ramps(*self._ramps(r))` off the plateau [c1, c2], where both
        ramp positions are 1, and `plateau` on it: each ramp term is then
        exactly 1 or 0, so only the heights off it need the quintics."""
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, plateau)
        off = ~((r >= self.c1) & (r <= self.c2))
        if off.any():
            out[off] = ramps(*self._ramps(r[off]))
        return out if out.shape else float(out)

    def h(self, r):
        return self._off_plateau(
            r, 1.0, lambda s1, s2, w1, w2: _smoothstep(s1) * _smoothstep(s2))

    def h_prime(self, r):
        return self._off_plateau(
            r, 0.0, lambda s1, s2, w1, w2: (
                _smoothstep_prime(s1) / w1 * _smoothstep(s2)
                - _smoothstep(s1) * (_smoothstep_prime(s2) / w2)))

    def describe(self):
        return {"c1": self.c1, "c2": self.c2, "a": self.a, "b": self.b,
                "a_ramp": self.a_ramp, "b_ramp": self.b_ramp}


class Gamma(float):
    """Penalty size with its sampling certificate attached."""

    def __new__(cls, value, sup_slope, worst_point, samples):
        obj = float.__new__(cls, value)
        obj.sup_slope = float(sup_slope)
        obj.worst_point = worst_point
        obj.samples = int(samples)
        return obj

    def certificate(self):
        return {"gamma": float(self), "sup_slope": self.sup_slope,
                "worst_point": self.worst_point, "samples": self.samples}


def gamma_for(H, h, box, samples=9):
    """Penalty size making the cut-off prescription decrease in height.

    Samples d/dz of h(z)*H, h a `Cutoff`, over the box lattice and returns
    1 + 1.05*max(0, sup) as a float carrying the worst sample point, so the
    certificate -d(hH)/dz + gamma >= 1 holds at every sampled point by
    construction.
    """
    _, sup, _, worst = sampled_range(penalized_pmc(H, h, 0.0), box, "z", samples)
    return Gamma(1.0 + 1.05 * max(0.0, sup), sup, worst, samples)


def penalized_pmc(H, cutoff, gamma):
    """Cut-off, height-penalized prescription h(z)*H - gamma*z.

    The anchor part gamma*u_prev enters the inner solve as a nodal source,
    not here, so this object's height slope is h'H + hH_z - gamma <= -1 by
    the gamma certificate, uniformly on the working box.
    """
    z = Var("z")
    cut = Func("cutoff", cutoff.h, (z,), (Func("cutoff'", cutoff.h_prime, (z,)),))
    return PMCFunction(cut * H.ast - gamma * z, provenance="penalized", label=H.label)


# ---------------------------------------------------------------------------
# Jacobian assembly


class _JacobianPlan:
    """The Jacobian's stencil on one grid, and where each stencil
    contribution lands in it.

    Rows and columns are the unknowns, the non-dirichlet nodes in flat
    order.  They form an array shaped `lines`: L0 lines of L1 nodes along
    axis 1, a 1-D grid being one line (L0 = 1).  A row has 9 slots, one per
    neighbour offset in {-1, 0, 1}^2 of that array, wrapping on the
    `periodic` axes: slot 3 * k0 + k1 is the offset (k0 - 1, k1 - 1).
    `cols[s]` is the column of slot s, or the row's own where that
    neighbour is a dirichlet node or off a 1-D grid's line (its weight
    stays 0); `nnz` counts the others.  Only index arithmetic builds them.
    `link` lists the within-line slots k1 that read a node b of a line and
    the node c of the line they read, the same on every line.

    The contributions are the entries of outer . diag(c) . inner over the
    `_jacobian_chains` whose weight is not 0 on every row.  Each falls in
    the same slot on every row, which the plan checks, and `terms` holds
    one (slot, k, weight) per contribution: to row i it adds
    coefficient[src[k, i]] * weight[i], with the coefficient vector from
    `_jacobian_coefficients`, src[k] the coefficient each row reads through
    one outer slot, and the grid-only weight of the composed stencil.
    """

    def __init__(self, grid):
        pad = 2 - grid.dimension
        self.periodic = (False,) * pad + tuple(t == "periodic" for t in grid.topology)
        L0, L1 = self.lines = (1,) * pad + tuple(
            s - 2 * (t == "dirichlet") for s, t in zip(grid.shape, grid.topology))
        n = self.n = L0 * L1
        row = np.arange(n)
        cols = []
        for d0 in (-1, 0, 1):
            for d1 in (-1, 0, 1):
                y0, y1 = ((x + d) % L if wrap else x + d for x, d, L, wrap in zip(
                    np.ogrid[:L0, :L1], (d0, d1), self.lines, self.periodic))
                ok = (y0 >= 0) & (y0 < L0) & (y1 >= 0) & (y1 < L1)
                cols.append(np.where(ok, y0 * L1 + y1, row.reshape(L0, L1)).reshape(-1))
        self.cols = np.array(cols)
        self.nnz = int(np.count_nonzero(self.cols != row)) + n
        within = self.cols[3:6, :L1]
        k1, b = np.nonzero((within != row[:L1]) | (np.arange(3) == 1)[:, None])
        self.link = k1, b, within[k1, b]

        # the unknown each node is, -1 for a dirichlet node
        unknown = ~grid.boundary_mask.reshape(-1)
        keep = np.flatnonzero(unknown)
        pos = np.where(unknown, np.cumsum(unknown) - 1, -1)
        self.terms, src, offset = [], [], 0
        for outer, inner in _jacobian_chains(grid):
            reads = [pos[c] for c in inner.cols]
            for oc, ow in zip(outer.cols, outer.weights):
                oc, ow = oc[keep], ow[keep]
                src.append(offset + oc)
                for ic, iw in zip(reads, inner.weights):
                    # the gradient's slot on its own node weighs 0 everywhere
                    if not iw.any():
                        continue
                    # a contribution to a dirichlet column is dropped
                    col = ic[oc]
                    w = ow * iw[oc]
                    live = (w != 0.0) & (col >= 0)
                    if not live.any():
                        continue
                    # the slot, read off the first live row (every slot past
                    # a dirichlet end reads the row's own column), and
                    # checked on every row
                    i = int(np.argmax(live))
                    s = (4 if col[i] == i
                         else int(np.argmax(self.cols[:, i] == col[i])))
                    if np.any(live & (col != self.cols[s])):
                        raise RuntimeError("a Jacobian entry leaves its row's slots")
                    self.terms.append((s, len(src) - 1, w if live.all() else w * live))
            offset += inner.cols.shape[1]
        self.src = np.array(src)


@functools.lru_cache(maxsize=8)
def _jacobian_plan(grid):
    return _JacobianPlan(grid)


def _jacobian_chains(grid):
    """(outer, inner) stencil pairs, one per coefficient block of
    `_jacobian_coefficients` and in its order: block b contributes
    outer_b . diag(coefficients_b) . inner_b to the Jacobian.

    The residual mcp(u) - F is -sum_k div[k](g_k/omega) - F, with g the face
    gradient (along[k], and avg[k] . grad[c] transverse) and F read through
    the node gradients, so the flux blocks go through `div` and the
    prescription blocks through the identity.
    """
    ops = operators(grid)
    N = grid.node_count
    eye = Stencil(np.arange(N)[None], np.ones((1, N)), grid.shape)
    chains = []
    for ax, div in enumerate(ops.div):
        chains.append((div, ops.along[ax]))
        chains.extend((div, ops.avg[ax] @ g) for c, g in enumerate(ops.grad) if c != ax)
    chains.append((eye, eye))
    chains.extend((eye, g) for g in ops.grad)
    return chains


def _same(a, b):
    # arrays, numbers and nested sequences of them, equal entry by entry
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(map(_same, a, b)))
    return bool(np.array_equal(a, b))


class _Evaluation(tuple):
    """(residual, parts) of one iterate, as `_graph_residual` returns it.

    A solve reports the evaluation of its output, and the next solve seeded
    there takes it in place of its own; two evaluations are equal where all
    their arrays are, so reports that carry one still compare by value.
    """

    def __eq__(self, other):
        return _same(self, other)


def _graph_residual(grid, values, F):
    """mcp(u) - F(graph env of u) at every node, and what the Jacobian at u
    reads besides: the node gradients, the `graph_faces`, the node area
    factor omega and F's partials by z, y1..y_dim and t, evaluated with F
    itself (`PMCFunction.eval_with_partials`)."""
    grads = node_gradients(grid, values)
    faces = graph_faces(grid, values, grads)
    mcp = mean_curvature_product_values(grid, values, grads, faces)
    env, omega = graph_normal_env(grid, values, grads)
    names = ("z", "y1", "y2")[:grid.dimension + 1] + ("t",)
    value, *partials = F.eval_with_partials(env, names)
    return _Evaluation((mcp - value, (grads, faces, omega, partials)))


def _jacobian_coefficients(grid, values, F, parts=None):
    """Per-step coefficients of the `_jacobian_chains` blocks, flat: the
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
    return np.concatenate([c.reshape(-1) for c in coefs])


def assemble_jacobian(grid, values, F, shift=0.0, parts=None):
    """Derivative of the discrete residual mcp(u) - F(graph env of u).

    A `StencilMatrix` over the unknowns, the non-dirichlet nodes (rows and
    columns in flat order); `shift` is added to the diagonal, and `parts`
    are the parts of the residual at `values` that the Jacobian reads, when
    the caller has them (`_graph_residual`).  The stencil is planned once
    per grid, so a call only evaluates the coefficients and adds each
    contribution into its slot.
    """
    plan = _jacobian_plan(grid)
    q = _jacobian_coefficients(grid, values, F, parts)
    data = np.zeros(plan.cols.shape)
    read = q[plan.src]
    for s, g, w in plan.terms:
        data[s] += read[g] * w
    if shift:
        # slot 4 is the offset (0, 0), the diagonal
        data[4] += shift
    return StencilMatrix(plan, data)


# ---------------------------------------------------------------------------
# linear algebra


class StencilMatrix:
    """Square matrix over the unknowns of a `_JacobianPlan`: `data[s, i]`
    is row i's entry in slot s, so a product is the `Stencil` gather of
    the plan's columns.

    With `border` it gains a last row and column of ones and a zero corner:
    the bordered system that pins the mean of a gauge-free periodic solve.
    """

    def __init__(self, plan, data, border=False):
        self.plan = plan
        self.data = data
        self.border = bool(border)
        self.shape = (plan.n + self.border,) * 2
        self.nnz = plan.nnz + 2 * plan.n * self.border
        self._gather = Stencil(plan.cols, data, (plan.n,))

    def bordered(self):
        return StencilMatrix(self.plan, self.data, border=True)

    def __matmul__(self, x):
        if not self.border:
            return self._gather(x)
        return np.append(self._gather(x[:-1]) + x[-1], np.sum(x[:-1]))

    def toarray(self):
        out = np.zeros(self.shape)
        for c, v in zip(self.plan.cols, self.data):
            out[np.arange(self.plan.n), c] += v
        if self.border:
            out[-1, :-1] = out[:-1, -1] = 1.0
        return out

    def diagonal(self, lines, k0=1):
        """Dense couplings of the lines `lines` to the line before them
        (k0 = 0), to themselves (k0 = 1) or to the line after (k0 = 2): the
        three within-line slots of axis-0 slot k0, scattered by `link`."""
        p = self.plan
        k1, b, c = p.link
        out = np.zeros(np.shape(lines) + (p.lines[1],) * 2)
        out[..., b, c] = self.data.reshape(3, 3, *p.lines)[k0][
            k1, np.asarray(lines)[..., None], b]
        return out


class LineLU:
    """Block LU factor of a `StencilMatrix` over its grid lines.

    The head lines, all but the last one when axis 0 wraps, form a matrix
    T whose blocks couple only to their neighbours (Golub & Van Loan,
    Matrix Computations, sec. 4.5).  It is eliminated from both ends at
    once, a twisted block LU: level j eliminates lines j and 2a - j
    together, a = h // 2 >= 1 for h >= 2 head lines, and line a, the root,
    comes last.  The inverse of every pivot is kept, so that a sweep
    applies both of a level's in one stacked matmul.  For even h the second
    line of level 0 is a dummy, an identity coupled to nothing.  The tail,
    the last line when axis 0 wraps and then the border, is eliminated by
    one Schur complement: W = T^-1 C of the tail columns C is kept, with
    the inverse of E - R W.  `solve` reads those stacks and the couplings
    between lines of the matrix itself, kept as (rows, columns, values)
    triplets.  A matrix of one line, every 1-D one, is inverted whole,
    border and all.  Raises numpy's LinAlgError on
    an exactly singular pivot.
    """

    def __init__(self, A):
        p = A.plan
        self.A = A
        self.shape = A.shape
        self.W = None
        L0, m = p.lines
        if L0 == 1:
            self.root = np.linalg.inv(A.toarray())
            self.levels = 0
            return
        wrap = p.periodic[0]
        h = L0 - wrap
        t = m * wrap + A.border
        self.head = h * m
        a = self.levels = h // 2
        # the lines of each level; -1 is the dummy, which reads and writes
        # the last row of the padded work arrays
        order = self.order = np.array(
            [(j, 2 * a - j if 2 * a - j < h else -1) for j in range(a)],
            dtype=np.int64).reshape(a, 2)
        # the lines each level is eliminated from and into
        outward = np.concatenate([[[-1, -1]], order[:-1]])
        inward = np.concatenate([order[1:], [[a, a]]])[:a]
        k1, b, c = p.link
        # the weights `link` scatters into the couplings of every line to
        # the line before it (axis-0 slot 0) and after it (slot 2), read
        # once.  Dense blocks of them all would hold 2*L0*m*m doubles, twice
        # the pivot inverses: at 256x256 they raised the peak memory of a
        # torus_sine solve from 395 to 623 MiB
        weights = A.data.reshape(3, 3, *p.lines)[[0, 2]][:, k1, :, b]

        def band(k0, i, j):
            # the coupling of line i to line j through slot k0, or zero
            # unless both are lines (-1 is the dummy)
            out = np.zeros((m, m))
            if i >= 0 and j >= 0:
                out[b, c] = weights[:, k0 // 2, i]
            return out

        def sparse(blocks, rows_at, cols_at):
            # (rows, columns, values) of one level's (or the root's)
            # couplings as one, each at its rows and columns within the level
            return tuple(np.concatenate(x) for x in zip(*(
                (r + b, q + c, B[b, c]) for B, r, q in zip(blocks, rows_at, cols_at))))

        def eliminate(rows, prev, D, C, pivots, up):
            # the couplings of lines `rows` to the eliminated lines `prev`
            # (position 0 outward through slot 0, position 1 through slot
            # 2), subtracted from their pivots D and tail columns C
            low = [band(0, rows[0], prev[0]), band(2, rows[1], prev[1])]
            for k in range(2):
                D[k] -= low[k] @ pivots[k] @ up[k]
                C[k] -= low[k] @ W[prev[k]]
            return low

        self.inv = A.diagonal(order)
        self.inv[order < 0] = np.eye(m)
        self.fwd, self.bwd = [], []
        # the tail columns of every head line, W = T^-1 C once eliminated
        W = np.zeros((h + 1, m, t))
        if A.border:
            W[:h, :, -1] = 1.0
        for k0, i in ((0, 0), (2, h - 1)) if wrap else ():
            W[i][:, :m] += band(k0, i, h)
        for j, (rows, prev) in enumerate(zip(order, outward)):
            C = W[rows]
            if j:
                low = eliminate(rows, prev, self.inv[j], C, self.inv[j - 1], up)
                self.fwd.append(sparse(low, (0, m), (0, m)))
            self.inv[j] = np.linalg.inv(self.inv[j])
            up = [band(2, rows[0], inward[j][0]), band(0, rows[1], inward[j][1])]
            self.bwd.append(sparse(up, (0, m), (0, m * (j + 1 < a))))
            W[rows] = self.inv[j] @ C
        D, C = A.diagonal(a), W[a]
        low = eliminate((a, a), order[-1], [D, D], [C, C], self.inv[-1], up)
        self.root_fwd = sparse(low, (0, 0), (0, m))
        self.root = np.linalg.inv(D)
        if not t:
            return
        W[a] = self.root @ C
        for j in range(a - 1, -1, -1):
            for k, k0 in enumerate((2, 0)):
                i, o = order[j][k], inward[j][k]
                W[i] -= self.inv[j, k] @ (band(k0, i, o) @ W[o])
        W = W[:h]
        S = np.zeros((t, t))
        if A.border:
            S[:-1, -1] = S[-1, :-1] = 1.0
            S[-1] -= W.sum(axis=(0, 1))
        # the tail line couples to the last head line and, wrapping, to the
        # first
        self.tail_low = []
        if wrap:
            S[:m, :m] += A.diagonal(h)
            for k0, j in ((0, h - 1), (2, 0)):
                B = band(k0, h, j)
                S[:m] -= B @ W[j]
                self.tail_low.append((j, sparse([B], [0], [0])))
        self.tail_inv = np.linalg.inv(S)
        self.W = W.reshape(self.head, t)

    def solve(self, b):
        a = self.levels
        if not a:
            return self.root @ b
        m = self.root.shape[0]
        h = self.head // m
        y = np.zeros((h + 1, m))
        y[:h] = b[:self.head].reshape(h, m)
        # the levels' right-hand sides, then their solutions, in level order
        rhs = y[self.order][..., None]
        g = np.empty((a, 2, m, 1))
        for j, (S, w, out) in enumerate(zip(self.inv, rhs, g)):
            if j:
                r, c, v = self.fwd[j - 1]
                w = w - np.bincount(r, v * prev.ravel()[c], 2 * m).reshape(2, m, 1)
            prev = np.matmul(S, w, out=out)
        r, c, v = self.root_fwd
        up = y[a] = self.root @ (y[a] - np.bincount(r, v * prev.ravel()[c], m))
        for S, x, (r, c, v) in zip(self.inv[::-1], g[::-1], self.bwd[::-1]):
            x -= S @ np.bincount(r, v * up.ravel()[c], 2 * m).reshape(2, m, 1)
            up = x
        y[self.order] = g[..., 0]
        x = np.empty(self.shape[0])
        x[:self.head] = y[:h].reshape(-1)
        if self.W is None:
            return x
        tail = b[self.head:].copy()
        for j, (r, c, v) in self.tail_low:
            tail[:m] -= np.bincount(r, v * y[j][c], m)
        if self.A.border:
            tail[-1] -= x[:self.head].sum()
        tail = self.tail_inv @ tail
        x[:self.head] -= self.W @ tail
        x[self.head:] = tail
        return x


class LaggedLU:
    """Linear solver of one solve: the last block LU factor, reused.

    `solve(A, b, atol)` runs one GMRES cycle of `KRYLOV_RESTART` iterations
    on the new matrix, started from and preconditioned by the `LineLU` of an
    earlier one.  The cycle is accepted once its true residual is at most
    max(KRYLOV_RTOL*|b|, atol) in the 2-norm, so by default at
    KRYLOV_RTOL*|b|.  The new matrix is factored only when there is no
    factor of its size or the cycle stops short.  Make one per solve: a
    factor never passes from one solve to another.  It counts its `solve`
    calls, its factorizations and its GMRES iterations.
    """

    def __init__(self):
        self.factor = None
        self.factorizations = 0
        self.krylov_iterations = 0
        self.linear_solves = 0

    def solve(self, A, b, atol=0.0):
        self.linear_solves += 1
        if self.factor is not None and self.factor.shape == A.shape:
            x = self._krylov(A, b, max(KRYLOV_RTOL * np.linalg.norm(b), atol))
            if x is not None:
                return x
        # release the old factor first, so that two are never alive at once
        self.factor = None
        try:
            self.factor = LineLU(A)
        except np.linalg.LinAlgError:
            # exactly singular: a non-finite step, which the caller reports
            return np.full(A.shape[0], np.nan)
        self.factorizations += 1
        return self.factor.solve(b)

    def _krylov(self, A, b, tol):
        """x from one right-preconditioned GMRES cycle (Saad & Schultz 1986),
        or None if its true residual misses `tol`.

        The cycle starts from x0 = M b, M the lagged factor's solve, and
        keeps each M v of the basis, so the factor is applied once per
        iteration and once for x0.
        """
        M = self.factor.solve
        x = M(b)
        r = b - A @ x
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x
        k = KRYLOV_RESTART
        V = np.empty((k + 1, b.size))
        Z = np.empty((k, b.size))
        H = np.zeros((k + 1, k))
        rot = np.zeros((k, 2))
        g = np.zeros(k + 1)
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
            if abs(g[j + 1]) <= tol:
                break
            V[j + 1] = w / H[j + 1, j]
        y = np.linalg.solve(np.triu(H[:j + 1, :j + 1]), g[:j + 1])
        x += y @ Z[:j + 1]
        return x if np.linalg.norm(b - A @ x) <= tol else None


def spsolve(A, b, lagged=None, atol=0.0):
    """Solve A x = b through `lagged`, or by a fresh block LU factorization.

    A lagged factor's GMRES cycle may stop at a true residual of `atol`
    (`LaggedLU.solve`); a fresh factor's solve is direct.
    Every Newton step makes exactly one call.  The benchmark's tracer
    (perfbench/spans.py) wraps this module-level name, counts its calls as
    linear solves and reads the system size off the first argument.
    """
    return (LaggedLU() if lagged is None else lagged).solve(A, b, atol)


# ---------------------------------------------------------------------------
# inner solve


def _forcing_term(loose, pseudo_time, history):
    """The forcing term of the next step's linear solve (see FORCING_*):
    FORCING_FIRST for a `pseudo_time` step, FORCING_MAX in a `loose` solve,
    one that stops above tol_inner, and otherwise FORCING_FIRST for the
    solve's first step, with one entry in its sup-residual `history`, and
    Eisenstat & Walker's choice 2 after it."""
    if pseudo_time:
        return FORCING_FIRST
    if loose:
        return FORCING_MAX
    if len(history) == 1:
        return FORCING_FIRST
    return min(FORCING_MAX, 0.9 * (history[-1] / history[-2]) ** 2)


def solve_inner(grid, F, psi, init, cfg=None, box=None, source=None,
                lagged=None, forcing=0.0, candidate=False, evaluation=None):
    """Damped Newton on the discrete prescribed-curvature system.

    F must be non-increasing in height; when a working box is supplied that
    is verified by sampling and a failure refuses to run.  psi fixes the
    dirichlet boundary (None on fully periodic grids); `source` is an
    optional nodal field added to the prescription (the penalty anchor).
    On a fully periodic grid with a height-free prescription the mean of the
    iterate is pinned through a bordered linear system.  `lagged` is the
    LaggedLU shared by the sweeps of one outer solve; without one the call
    makes its own.  The solve stops at a sup-residual of
    max(cfg.tol_inner, forcing * the seed's), the report's `tolerance`, so
    a `forcing` below 1 takes at least one Newton step from a seed above
    cfg.tol_inner; the outer iteration loosens its sweeps this way.  A
    loose solve, one whose tolerance is above cfg.tol_inner, forces each
    Newton step's linear solve at FORCING_MAX (`_forcing_term`); the
    linear solves' floor stays at FORCING_FLOOR*cfg.tol_inner either way.
    A `candidate` seed, an Anderson candidate of the outer iteration, whose
    residual exceeds cfg.tol_outer at every unknown is a strict
    supersolution of this problem: it is returned unsolved, after 0 steps,
    with the report's `supersolution` set.

    Every iterate is evaluated once: its residual pass keeps what the
    Jacobian reads (`_graph_residual`, before the source).  The report's
    `evaluation` is that of the returned field, and a solve seeded there
    with the same F takes it as `evaluation` in place of evaluating init.

    Returns (solution field, report dict).  Raises SolverFailure with the
    best iterate when the step budget runs out; falls back to pseudo-time
    stepping when the line search stagnates.
    """
    if cfg is None:
        cfg = SolveConfig()
    if box is not None:
        mono = check_monotone(F, box, cfg.samples)
        if not mono["passed"]:
            raise ValueError(
                "prescription increases with height (sampled slope "
                f"{mono['worst_value']:.6g} at {mono['worst_point']}); "
                "the monotone solver refuses to run")
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
    src = None
    if source is not None:
        src = np.broadcast_to(np.asarray(source, dtype=float), grid.shape)

    def residual(vals, evaluation=None):
        # the residual at vals on the unknowns, and its evaluation: the
        # `_graph_residual` before the source, with the parts the Jacobian
        # at an accepted iterate reads
        if evaluation is None:
            evaluation = _graph_residual(grid, vals, F)
        out = evaluation[0] if src is None else evaluation[0] - src
        return out.reshape(-1)[unknown], evaluation

    def trial(step):
        # the iterate moved by `step`, with its residual and its
        # evaluation, or None where the prescription refuses it
        v = u.copy()
        v.reshape(-1)[unknown] += step
        try:
            return (v, *residual(v))
        except ValueError:
            return None

    R, evaluated = residual(u, evaluation)
    # a height-free prescription leaves the mean free: read off dF/dz at
    # the seed, the first Jacobian's block
    dz = evaluated[1][-1][0]
    bordered = grid.is_fully_periodic() and np.max(np.abs(dz)) <= 1e-13

    res_sup = float(np.max(np.abs(R))) if R.size else 0.0
    tol = max(cfg.tol_inner, forcing * res_sup)
    history = [res_sup]
    newton_steps = 0
    ptc_steps = 0
    ptc_dt = None
    supersolution = bool(candidate and R.size and np.min(R) > cfg.tol_outer)

    while res_sup > tol and not supersolution:
        if newton_steps + ptc_steps >= cfg.max_newton:
            raise SolverFailure(
                f"inner solve exhausted {cfg.max_newton} steps "
                f"(residual {res_sup:.3e}, tolerance {tol:.3e})",
                best=ScalarField(grid, u), residual_history=history)
        J = assemble_jacobian(
            grid, u, F, shift=0.0 if ptc_dt is None else 1.0 / ptc_dt,
            parts=evaluated[1])
        phi0 = np.linalg.norm(R)
        eta = _forcing_term(tol > cfg.tol_inner, ptc_dt is not None, history)
        atol = max(eta * phi0, FORCING_FLOOR * cfg.tol_inner)
        A, rhs = (J.bordered(), np.append(-R, 0.0)) if bordered else (J, -R)
        delta = spsolve(A, rhs, lagged, atol)[:R.size]
        if not np.all(np.isfinite(delta)):
            raise SolverFailure(
                "linear solve produced a non-finite step (singular linearization)",
                best=ScalarField(grid, u), residual_history=history)

        if ptc_dt is not None:
            # pseudo-transient phase: accept the damped implicit-Euler step,
            # grow the pseudo step as the residual drops
            step = trial(delta)
            if step is None:
                ptc_dt = max(ptc_dt * 0.25, 1e-8)
                ptc_steps += 1
                continue
            new_sup = float(np.max(np.abs(step[1])))
            if np.isfinite(new_sup) and new_sup <= res_sup * 1.2:
                (u, R, evaluated), res_sup = step, new_sup
                ptc_dt = min(ptc_dt * max(phi0 / max(np.linalg.norm(R), 1e-300), 0.5), 1e12)
            else:
                ptc_dt = max(ptc_dt * 0.25, 1e-8)
            ptc_steps += 1
            history.append(res_sup)
            continue

        s = 1.0
        while s >= cfg.min_step:
            step = trial(s * delta)
            if step and np.all(np.isfinite(step[1])) and (
                    np.linalg.norm(step[1]) <= (1.0 - cfg.armijo_c * s) * phi0):
                u, R, evaluated = step
                res_sup = float(np.max(np.abs(R)))
                newton_steps += 1
                history.append(res_sup)
                break
            s *= 0.5
        else:
            # stagnation: engage the parabolic relaxation fallback
            ptc_dt = 1.0

    report = {
        "newton_steps": newton_steps,
        "ptc_steps": ptc_steps,
        "residual_sup": res_sup,
        "residual_history": history,
        "tolerance": tol,
        "bordered": bool(bordered),
        "converged": not supersolution,
        "supersolution": supersolution,
        "evaluation": evaluated,
    }
    return ScalarField(grid, u), report


# ---------------------------------------------------------------------------
# outer iteration


@dataclasses.dataclass
class SolveReport:
    """Everything observable about one solve, JSON-ready via to_dict().

    The `_QUASI` fields are the quasi-decreasing certificate; only
    solve_quasi sets them, and to_dict omits them from other modes' reports.
    """

    converged: bool
    mode: str
    gamma: float
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
    consistency_bound: float
    consistency_ok: bool
    min_theta: float
    sup_abs_u: float
    sup_abs_curvature: float
    barrier_check: dict
    monotone_check: dict
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

    Monotone prescriptions go straight to the inner Newton solve.  Otherwise
    each sweep x -> T(x) solves the cut-off penalized problem anchored at x,
    starting from the lower barrier.  T is monotone, so plain sweeps climb
    to the minimal solution u* between the barriers, slowly (about 0.8-0.9
    per sweep on the shipped configs).  Once two sweeps are counted,
    Anderson proposes each next anchor (`_anderson_candidate`), and three
    rules judge every sweep:

    1. A sweep is plain exactly when its anchor is the last output.  A
       proposal that the clip leaves equal to the last output at every
       unknown keeps the anchor there; any other is a candidate, and a
       candidate sweep that counts adds to `accelerated_steps`.
    2. Each proposal is clipped into one bracket (`_clip`): from the last
       output up to the pointwise min of u0 and every candidate discarded as
       a strict supersolution.  As T is monotone, u* = lim T^k(u1) <= s for
       every supersolution s >= u1.
    3. A candidate sweep is discarded (`rejected_steps`) and redone from the
       last output if its candidate was a strict supersolution of its
       problem, with a residual above tol_outer at every unknown, which
       `solve_inner` finds before any Newton step when passed `candidate`,
       or if it moves down or leaves the slab by more than min(tol_outer,
       MONOTONE_ABORT), so the candidate was no subsolution.  A counted
       sweep that moves down or leaves the slab by more than MONOTONE_ABORT
       aborts the solve with MonotonicityError; smaller violations are
       tolerated as scheme noise.  Like every SolverFailure raised here,
       the error carries the counts so far as `partial`.

    Every sweep's Newton solve starts from its anchor.  A penalized sweep's
    inner solve stops at tol_k = max(tol_inner,
    SWEEP_FORCING * |R(seed)| / max(gamma, 1)), with R(seed) the residual
    of its Newton seed in its own problem.  A sweep whose step is at most
    max(tol_outer, tol_k) is finished to tol_inner from the same anchor and
    measured again, so the exit sweep is a counted one solved to
    tol_inner with step <= tol_outer, and the consistency bound
    tol_inner + gamma*step holds.  `inner_newton_counts` adds up both
    solves of such a sweep; max_outer caps all sweeps, discarded ones
    included.  An explicit cutoff plateau that does not hold the barrier
    range is refused with a ValueError.
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
    mono = check_monotone(H, box, cfg.samples)

    if mono["passed"]:
        mode = "direct"
        gamma_eff = 0.0
        gamma_cert = None
        cut = None
        F_core = H
    else:
        mode = "penalized"
        zmin, zmax = B.z_bounds()
        span = max(zmax - zmin, 1e-12)
        c1, c2 = cfg.cutoff or (zmin - 0.1 * span, zmax + 0.1 * span)
        if not (c1 <= zmin and zmax <= c2):
            # off the plateau the sweeps solve the cut-off problem, not H's
            raise ValueError(
                f"cutoff plateau [{c1:.6g}, {c2:.6g}] must hold the barrier "
                f"range [{zmin:.6g}, {zmax:.6g}]")
        cut = Cutoff(c1, c2, box.z_min, box.z_max)
        if cfg.gamma == "auto":
            gm = gamma_for(H, cut, box, cfg.samples)
            gamma_eff = float(gm)
            gamma_cert = gm.certificate()
        else:
            gamma_eff = float(cfg.gamma)
            gamma_cert = None
        F_core = penalized_pmc(H, cut, gamma_eff)

    interior = ~grid.boundary_mask
    u_prev = anchor = ScalarField(grid, B.u1.values.copy())
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
    # interior values of f = T(x) - x and g = T(x) over the last counted
    # sweeps x -> T(x), for the Anderson proposals of penalized mode
    f_hist = []
    g_hist = []
    # the upper end of the bracket of rule 2, over the interior
    upper = B.u0.values[interior]
    accelerated = 0
    rejected = 0
    lagged = LaggedLU()
    # the evaluation of u_prev once a solve returned it, for the next plain
    # sweep (`solve_inner`'s `evaluation`)
    evaluation = None

    def partial(history):
        # the counts of an unfinished solve, for its exit-3 report
        return {"mode": mode, "gamma": gamma_eff,
                "outer_count": len(step_history), "rejected_steps": rejected,
                "factorizations": lagged.factorizations,
                "krylov_iterations": lagged.krylov_iterations,
                "linear_solves": lagged.linear_solves,
                "residual_history": history, "step_history": step_history}

    # the residual of a penalized sweep's seed over the penalty slope
    # estimates the sweep's step
    forcing = 0.0 if mode == "direct" else SWEEP_FORCING / max(gamma_eff, 1.0)
    for m in range(cfg.max_outer):
        plain = anchor is u_prev
        source = None if mode == "direct" else gamma_eff * anchor.values
        try:
            u_next, irep = solve_inner(grid, F_core, B.psi,
                                       seed if m == 0 else anchor, cfg,
                                       source=source, lagged=lagged, forcing=forcing,
                                       candidate=not plain,
                                       evaluation=evaluation if plain else None)
            inner_steps = irep["newton_steps"] + irep["ptc_steps"]
            step = sup_norm(u_next, anchor)
            tol = irep["tolerance"]
            if (tol > cfg.tol_inner and step <= max(cfg.tol_outer, tol)
                    and not irep["supersolution"]):
                # a sweep that may end the iteration, or whose step is
                # within its own tolerance: finish it to tol_inner
                u_next, irep = solve_inner(grid, F_core, B.psi, u_next, cfg,
                                           source=source, lagged=lagged,
                                           evaluation=irep["evaluation"])
                inner_steps += irep["newton_steps"] + irep["ptc_steps"]
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
        if not plain and (irep["supersolution"] or
                          max(viol, conf) > min(cfg.tol_outer, MONOTONE_ABORT)):
            # rule 3: the candidate was no subsolution inside the slab, so
            # redo the sweep from the last output; a strict supersolution
            # lowers the bracket's upper end
            if irep["supersolution"]:
                upper = np.minimum(upper, anchor.values[interior])
            rejected += 1
            anchor = u_prev
            continue
        accelerated += not plain
        inner_counts.append(inner_steps)
        residual_history.append(irep["residual_sup"])
        step_history.append(float(step))
        mono_viol.append(viol)
        conf_viol.append(conf)
        if max(viol, conf) > MONOTONE_ABORT:
            raise MonotonicityError(
                f"outer sweep {len(step_history)} moved down by {viol:.3e} and "
                f"left the barrier slab by {conf:.3e} (> {MONOTONE_ABORT:g}); "
                "the discretization is too coarse or the penalty too small",
                best=u_next, residual_history=residual_history,
                partial=partial(residual_history))
        u_prev = anchor = u_next
        evaluation = irep["evaluation"]
        if step <= cfg.tol_outer:
            break
        if mode == "penalized":
            f_hist = (f_hist + [diff])[-ANDERSON_DEPTH - 1:]
            g_hist = (g_hist + [u_next.values[interior]])[-ANDERSON_DEPTH - 1:]
            if len(f_hist) > 1:
                # rules 2 and 1: a proposal clipped to the last output
                # leaves the next sweep plain
                cand, upper = _clip(_anderson_candidate(f_hist, g_hist),
                                    g_hist[-1], upper)
                if not np.array_equal(cand, g_hist[-1]):
                    values = u_next.values.copy()
                    values[interior] = cand
                    anchor = ScalarField(grid, values)
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
    final = pmc_residual(grid, v, H, box=box)
    final_residual = float(np.max(np.abs(final.values)))
    bound = cfg.tol_inner + gamma_eff * max(step_history[-1], 0.0)
    theta = graph_normal_env(grid, v.values)[0]["t"]
    report = SolveReport(
        converged=True,
        mode=mode,
        gamma=gamma_eff,
        gamma_certificate=gamma_cert,
        cutoff=cut.describe() if cut is not None else None,
        outer_count=len(step_history),
        accelerated_steps=accelerated,
        rejected_steps=rejected,
        factorizations=lagged.factorizations,
        krylov_iterations=lagged.krylov_iterations,
        linear_solves=lagged.linear_solves,
        inner_newton_counts=inner_counts,
        residual_history=residual_history,
        step_history=step_history,
        monotonicity_violations=mono_viol,
        confinement_violations=conf_viol,
        final_residual=final_residual,
        consistency_bound=bound,
        consistency_ok=bool(final_residual <= bound),
        min_theta=float(np.min(theta)),
        sup_abs_u=float(np.max(np.abs(v.values))),
        sup_abs_curvature=float(np.max(np.abs(
            mean_curvature_product_values(grid, v.values)))),
        barrier_check=barrier_check,
        monotone_check=mono,
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


def solve_quasi(D, B, cfg=None):
    """Solve for a split prescription and certify the result is a graph.

    Runs the outer iteration on the composite H1 + t*H2 (the split's height
    monotonicity makes it take the direct path), then attaches the tilt
    certificate: min Theta, the stability-equation residual, the graphical
    flag, and a one-halving refinement comparison of min Theta.
    """
    from .geometry import jacobi_residual

    if cfg is None:
        cfg = SolveConfig()
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
    grid = B.grid
    jac = jacobi_residual(grid, v, H)
    report.quasi_check = qcheck
    report.theta_threshold = cfg.theta_threshold
    report.graphical = bool(report.min_theta >= cfg.theta_threshold)
    report.jacobi_sup = float(np.max(np.abs(jac.values)))

    if cfg.refine_check:
        fine_pair = B.refined()
        try:
            _, fine_report = outer_iterate(H, fine_pair, cfg)
        except (ValueError, SolverFailure) as exc:
            # refined non-flat barriers can fail their own residual check;
            # report the attempt rather than abort the whole solve
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
