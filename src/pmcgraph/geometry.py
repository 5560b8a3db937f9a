"""Conformal product metrics, warped-product reduction, and the graph
geometry fields (tilt, second fundamental form, stability residual).

The ambient metric is either the flat product or its conformal rescale by
e^{2f(x,r)}.  Curvature of a graph in the rescaled metric relates to the
product-metric curvature through a zeroth-order correction in the unit
normal, which is what `conformal_transform_pmc` bakes into a prescription
so that every solve runs against the product operator.
"""

from __future__ import annotations

import numpy as np

from .calculus import (
    graph_faces,
    graph_laplacian,
    mean_curvature_product_values,
    node_gradients,
    operators,
)
from .expr import Call, Const, Func, Var, eval_checked, parse_expr, rename_var, takes_differences
from .grid import DIMENSIONS, ScalarField, face_positions, require_reads, variables
from .pmc import PMCFunction, callable_variables, graph_normal_env

__all__ = [
    "ConformalFactor",
    "WarpedProfile",
    "conformal_mean_curvature",
    "conformal_mean_curvature_values",
    "divergence_oracle",
    "conformal_transform_pmc",
    "warped_to_conformal",
    "second_fundamental_norm",
    "jacobi_residual",
]

def _factor_variables(dimension):
    """A factor's variables over a `dimension`-D base: the base point, then
    the height r."""
    return variables(dimension)[:dimension] + ("r",)


# what a factor may be parsed over: the widest base's factor variables; on
# a d-dimensional base it may read only `_factor_variables(d)`
FACTOR_VARS = _factor_variables(max(DIMENSIONS))


class ConformalFactor:
    """Scale exponent f(x, r) of a conformal product metric e^{2f}(dx²+dr²).

    The factor is an expression tree over the base point and the height r
    of one base, and its base gradient and height derivative are the tree's
    derivatives.  `eval` and `partial` take an environment over those
    names.
    `derivative_mode` is 'analytic' when the derivatives are exact (parsed
    text, or a callable with derivative rules) and 'fd' when one of them
    falls back to a centered difference.
    """

    def __init__(self, ast, text=None):
        self.ast = ast
        self.text = text
        self._partials = {v: ast.diff(v) for v in FACTOR_VARS}

    @classmethod
    def from_expr(cls, text):
        return cls(parse_expr(text, FACTOR_VARS), text=text)

    @classmethod
    def from_callable(cls, f, d_base=None, d_r=None):
        """Wrap f over the base point x1..xd and the height r in order, with
        the base dimension d read off its d + 1 parameters; derivatives by
        central differences unless given."""
        args = [Var(v) for v in callable_variables(f, _factor_variables)]
        given = list(d_base) if d_base is not None else [None] * (len(args) - 1)
        given.append(d_r)
        rules = [None if g is None else Func(f"d{a.name}f", g, args)
                 for a, g in zip(args, given)]
        return cls(Func("f", f, args, rules))

    @property
    def derivative_mode(self):
        exact = not any(takes_differences(d) for d in self._partials.values())
        return "analytic" if exact else "fd"

    def eval(self, env):
        return eval_checked(self.ast, env, label="conformal factor")

    def partial(self, name, env):
        """df/d`name` at `env`: a component of the base gradient, or the
        height derivative for r."""
        label = "factor height derivative" if name == "r" else "factor gradient"
        return eval_checked(self._partials[name], env, label=label)

    def __repr__(self):
        src = f" {self.text!r}" if self.text else ""
        return f"ConformalFactor({self.derivative_mode}{src})"


# ---------------------------------------------------------------------------
# curvature in the conformal metric


def _factor_env(positions, heights):
    """The factor's environment at `heights` over the base points
    `positions`, one array per base axis."""
    return dict(zip(variables(len(positions)), positions), r=heights)


def conformal_mean_curvature_values(grid, values, F, grads=None):
    n = grid.dimension
    grads = node_gradients(grid, values) if grads is None else grads
    _, omega = graph_normal_env(grid, values, grads)
    env = _factor_env(grid.node_positions(), values)
    f = F.eval(env)
    corr = F.partial("r", env)
    for name, g in zip(FACTOR_VARS, grads):
        corr = corr - F.partial(name, env) * g
    mcp = mean_curvature_product_values(grid, values, grads)
    out = np.exp(-f) * (mcp + n * corr / omega)
    out[grid.boundary_mask] = 0.0
    return out


def conformal_mean_curvature(grid, u, F):
    """Mean curvature of the graph of u in the metric e^{2f}(flat product).

    Equals e^{-f} (H_product + n (f_r - <Df, Du>)/omega) at the graph, with
    n the grid's dimension and all factor derivatives evaluated at
    (x, u(x)).  Boundary nodes carry 0.
    """
    return ScalarField(grid, conformal_mean_curvature_values(grid, u.values, F))


def divergence_oracle(grid, u, F):
    """Independent curvature evaluation via the weighted-divergence identity.

    The conformal mean curvature equals e^{-(n+1)f} div(e^{nf} nu), n the
    grid's dimension, for the unit product normal nu of the graph extended
    vertically.  Horizontal terms are assembled as face fluxes (factor
    evaluated at face midpoints), the vertical derivative analytically.
    Agrees with `conformal_mean_curvature` up to discretization error only.
    """
    n = grid.dimension
    values = u.values
    ops = operators(grid)
    grads = node_gradients(grid, values)
    div_h = 0.0
    for ax, (g, omega_face) in enumerate(graph_faces(grid, values, grads)):
        env = _factor_env(face_positions(grid, ax), ops.avg[ax](values))
        W = np.exp(n * F.eval(env)) * (-g[ax] / omega_face)
        div_h = div_h + ops.div[ax](W)

    omega = np.sqrt(1.0 + sum(g * g for g in grads))
    env = _factor_env(grid.node_positions(), values)
    f = F.eval(env)
    # the face fluxes differentiate e^{nf(x, u(x))} along the graph, i.e.
    # they pick up f_r u_k nu^k = -f_r |Du|^2/omega on top of the fixed-
    # height derivative; compensating that together with the true vertical
    # term d_r(e^{nf} nu^r) leaves n f_r e^{nf} (1+|Du|^2)/omega below
    vertical = n * F.partial("r", env) * np.exp(n * f) * omega
    out = np.exp(-(n + 1) * f) * (div_h + vertical)
    out[grid.boundary_mask] = 0.0
    return ScalarField(grid, out)


def conformal_transform_pmc(H, F, n):
    """Pull a conformal-metric prescription back to the product metric.

    A graph has curvature H(x, r, Y, t) in the e^{2f} metric exactly when
    its product curvature is

        H'(x, r, Y, t) = e^{f} H(x, r, Y, t) - n (<Df, Y> + f_r t),

    with factor derivatives at (x, r).  The height slot of the factor maps
    onto the prescription's z argument.  The transform is built on the two
    expression trees, so H' has exact partials wherever H and f do.  A
    factor that reads a variable the n-dimensional base lacks is refused.
    """
    n = int(n)
    require_reads(F.ast, _factor_variables(n), "conformal factor", n)
    names = variables(n)
    # <Df, Y> + f_r t: the factor's base variables and r against the
    # normal's components y1..yn and t
    drift = sum((rename_var(F.ast.diff(a), "r", "z") * Var(b)
                 for a, b in zip(names[:n] + ("r",), names[n + 1:])), Const(0.0))
    ast = Call("exp", (rename_var(F.ast, "r", "z"),)) * H.ast - n * drift
    text = None
    if H.text and F.text:
        text = f"exp({F.text})*({H.text}) - {n}*<D({F.text}),(Y,t)>"
    return PMCFunction(ast, provenance="transformed", text=text,
                       label="transformed curvature")


# ---------------------------------------------------------------------------
# warped products


class WarpedProfile:
    """Positive warping profile h(r) of the metric h(r)² dx² + dr².

    The height substitution ds = dr/h(r) turns that metric into the
    conformal form e^{2f}(dx² + ds²) with f = ln h, which is how the rest
    of the package consumes it.  `QUAD_TOL` is the absolute tolerance of
    s: `warped_to_conformal` splits a panel of its Gauss–Legendre table of
    ∫ dr/h until the one-panel and two-half-panel values differ by at most
    `QUAD_TOL`, and keeps the halves.
    """

    def __init__(self, ast, text=None):
        self.ast = ast
        self.text = text
        self._h_prime = ast.diff("r")

    @classmethod
    def from_expr(cls, text):
        return cls(parse_expr(text, ("r",)), text=text)

    def h(self, r):
        return eval_checked(self.ast, {"r": r}, label="warp profile")

    def h_prime(self, r):
        return eval_checked(self._h_prime, {"r": r}, label="warp profile derivative")

    def __repr__(self):
        return f"WarpedProfile({self.text!r})"


GL_NODES = 10
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)
MAX_PANELS = 2048
QUAD_TOL = 1e-12
MAX_NEWTON = 100


def quad(fn, a, b):
    """Gauss–Legendre integral of fn over [a, b], elementwise in a and b.

    `fn` maps an array of abscissae to values of the same shape; every
    interval gets the GL_NODES-point rule in one call of fn.  The weighted
    sum runs node by node, so an entry does not depend on the shape of a
    and b: an array call equals the per-scalar calls bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    vals = fn((a + half)[..., None] + half[..., None] * _GL_X)
    acc = _GL_W[0] * vals[..., 0]
    for i in range(1, GL_NODES):
        acc = acc + _GL_W[i] * vals[..., i]
    return half * acc


def _tabulate(inv_h, r_lo, r_hi):
    """-> (R, S): edges of Gauss–Legendre panels covering [r_lo, r_hi] and
    S[k] = ∫ inv_h over [r_lo, R[k]].

    Adaptive bisection, one level at a time: a panel whose value differs
    from the sum of its two halves by more than `QUAD_TOL` is split,
    otherwise its halves enter the table.  Raises ValueError when the table
    would pass MAX_PANELS or a panel can no longer be halved.
    """
    edges, values = [], []
    a, b = np.array([r_lo]), np.array([r_hi])
    whole = quad(inv_h, a, b)
    while a.size:
        m = 0.5 * (a + b)
        halves = quad(inv_h, np.concatenate([a, m]), np.concatenate([m, b]))
        left, right = halves[:a.size], halves[a.size:]
        err = np.abs(left + right - whole)
        ok = err <= QUAD_TOL
        edges += [a[ok], m[ok]]
        values += [left[ok], right[ok]]
        split = ~ok
        count = sum(e.size for e in edges) + 2 * np.count_nonzero(split)
        if count > MAX_PANELS or np.any(((m <= a) | (m >= b)) & split):
            worst = int(np.argmax(err))
            raise ValueError(
                f"cannot tabulate s = ∫ dr/h on [{r_lo:.6g}, {r_hi:.6g}] to "
                f"{QUAD_TOL:.3g} within {MAX_PANELS} panels; the panel "
                f"[{a[worst]:.17g}, {b[worst]:.17g}] still misses it by {err[worst]:.3g}")
        a, b = np.concatenate([a[split], m[split]]), np.concatenate([m[split], b[split]])
        whole = np.concatenate([left[split], right[split]])
    edges, values = np.concatenate(edges), np.concatenate(values)
    order = np.argsort(edges)
    R = np.append(edges[order], r_hi)
    S = np.concatenate([[0.0], np.cumsum(values[order])])
    return R, S


def _outside(values, lo, hi, what, where):
    """Raise the range error for the first entry of `values` outside [lo, hi]."""
    bad = ~((values >= lo) & (values <= hi))
    if bad.any():
        v = values.reshape(-1)[np.flatnonzero(bad)[0]]
        raise ValueError(f"{what} {v:.6g} outside the {where}")


def warped_to_conformal(P, interval):
    """Reparameterize a warped height into conformal form.

    For the profile h on [r_lo, r_hi] the substitution s(r) = ∫ dρ/h(ρ)
    turns the warped metric into e^{2f(s)}(dx² + ds²) with f(s) = ln h(r(s)).
    Returns (factor, (0, s(r_hi))).  The factor's tree holds f, its height
    derivative f_s = h'(r(s)) (chain rule through ds = dr/h) and f_ss =
    h''(r(s)) h(r(s)), each evaluating r(s) once per point, so prescriptions
    pulled back through it keep exact first partials.

    s(r) is tabulated once, on adaptive composite Gauss–Legendre panels of
    1/h (to `QUAD_TOL`, see `WarpedProfile`).  `factor.s_of_r` adds one
    Gauss–Legendre integral from the panel's left edge; `factor.r_of_s`
    starts from linear interpolation in the table and takes Newton steps
    r <- r - (s(r) - s) h(r), kept inside a shrinking bracket by bisection.
    Both take scalars or arrays, and return a float for a scalar.
    """
    r_lo, r_hi = float(interval[0]), float(interval[1])
    if not r_lo < r_hi:
        raise ValueError(f"warped interval must be increasing, got ({r_lo}, {r_hi})")
    probe = np.linspace(r_lo, r_hi, 257)
    hv = P.h(probe)
    if not np.all(np.isfinite(hv)) or np.min(hv) <= 0.0:
        k = int(np.argmin(hv))
        raise ValueError(
            f"warp profile must be positive on the interval; h({probe[k]:.6g}) = {hv[k]:.6g}")

    def inv_h(r):
        hr = np.broadcast_to(P.h(r), r.shape)
        if np.min(hr) <= 0.0:
            k = np.unravel_index(int(np.argmin(hr)), hr.shape)
            raise ValueError(
                f"warp profile must be positive on the interval; h({r[k]:.6g}) = {hr[k]:.6g}")
        return 1.0 / hr

    R, S = _tabulate(inv_h, r_lo, r_hi)
    last = R.size - 2
    s_hi = float(S[-1])
    r_tol = 4.0 * np.finfo(float).eps * max(abs(r_lo), abs(r_hi))

    def s_of_r(r):
        r = np.asarray(r, dtype=float)
        _outside(r, r_lo, r_hi, "radius", f"warped interval [{r_lo:.6g}, {r_hi:.6g}]")
        k = np.minimum(np.searchsorted(R, r, side="right") - 1, last)
        s = S[k] + quad(inv_h, R[k], r)
        return s if s.ndim else float(s)

    def r_of_s(s):
        s = np.asarray(s, dtype=float)
        _outside(s, -1e-9, s_hi + 1e-9, "height",
                 f"reparameterized range [0, {s_hi:.6g}]")
        target = np.clip(s, 0.0, s_hi).reshape(-1)
        k = np.minimum(np.searchsorted(S, target, side="right") - 1, last)
        r = np.interp(target, S, R)
        lo, hi = R[k], R[k + 1]
        todo = np.arange(r.size)
        for _ in range(MAX_NEWTON):
            if not todo.size:
                break
            x, kk = r[todo], k[todo]
            g = S[kk] + quad(inv_h, R[kk], x) - target[todo]
            lo[todo] = np.where(g < 0.0, x, lo[todo])
            hi[todo] = np.where(g > 0.0, x, hi[todo])
            newton = x - g * P.h(x)
            # a Newton step inside the bracket is taken, otherwise the
            # bracket is halved; a step below r_tol ends that point
            done = np.abs(newton - x) <= r_tol
            inside = (newton > lo[todo]) & (newton < hi[todo])
            r[todo] = np.where(inside, newton, np.where(done, x, 0.5 * (lo[todo] + hi[todo])))
            todo = todo[~done & (hi[todo] - lo[todo] > r_tol)]
        if todo.size:
            raise ValueError(
                f"r(s) did not converge in {MAX_NEWTON} steps at height "
                f"{target[todo[0]]:.17g}")
        r = r.reshape(s.shape)
        return r if r.ndim else float(r)

    h2 = P.ast.diff("r").diff("r")

    def f(s):
        return np.log(P.h(r_of_s(s)))

    def f_s(s):
        return P.h_prime(r_of_s(s))

    def f_ss(s):
        r = r_of_s(s)
        return eval_checked(h2, {"r": r}, label="warp profile second derivative") * P.h(r)

    s_var = Var("r")
    f_ss_node = Func("f_ss", f_ss, (s_var,))
    f_s_node = Func("f_s", f_s, (s_var,), (f_ss_node,))
    factor = ConformalFactor(Func("f", f, (s_var,), (f_s_node,)),
                             text=f"ln h(r(s)), h = {P.text}" if P.text else None)
    factor.r_of_s = r_of_s
    factor.s_of_r = s_of_r
    return factor, (0.0, s_hi)


# ---------------------------------------------------------------------------
# graph geometry fields


def second_fundamental_norm(grid, u, grads=None):
    """Squared norm of the graph's second fundamental form, |A|².

    One formula over the grid's own axes.  Centered second differences give
    the Hessian: Hess_aa is `div[a]` of the along-face difference, and
    Hess_ab = Hess_ba for a < b is the node gradient along axis b of that
    along axis a.  With the inverse induced metric g^-1 = I - Du Du^T/omega^2
    and M = g^-1 Hess, |A|^2 = tr(M M)/omega^2, summed as
    (2 - delta_ab) M_ab M_ba over a <= b.  The metric contractions are
    algebraic in the node gradient, `grads` when the caller has it.
    Boundary nodes carry 0.
    """
    values = u.values
    ops = operators(grid)
    grads = node_gradients(grid, values) if grads is None else grads
    omega2 = 1.0 + sum(g * g for g in grads)
    axes = range(grid.dimension)
    hess = [[None] * grid.dimension for _ in axes]
    for a in axes:
        hess[a][a] = ops.div[a](ops.along[a](values))
        for b in axes[a + 1:]:
            hess[a][b] = hess[b][a] = ops.grad[b](grads[a])
    ginv = [[float(a == b) - grads[a] * grads[b] / omega2 for b in axes] for a in axes]
    M = [[sum(ginv[a][c] * hess[c][b] for c in axes) for b in axes] for a in axes]
    out = sum((2.0 - (a == b)) * M[a][b] * M[b][a] for a in axes for b in axes[a:]) / omega2
    out[grid.boundary_mask] = 0.0
    return ScalarField(grid, out)


def jacobi_residual(grid, u, H):
    """Residual of the tilt in the graph's stability (Jacobi) equation.

    For a solved graph, Theta = 1/omega satisfies
    Delta_graph Theta + |A|^2 Theta = <Du, D eta>/omega^2 with
    eta(x) = H(x, u, -Du/omega, 1/omega), so this field's interior decay
    under refinement certifies the computed surface.  Boundary nodes 0.
    """
    grads_u = node_gradients(grid, u.values)
    env, omega = graph_normal_env(grid, u.values, grads_u)
    theta = ScalarField(grid, env["t"])
    lap = graph_laplacian(u, theta, grads_u)
    a2 = second_fundamental_norm(grid, u, grads_u)
    eta = np.broadcast_to(H.eval(env), grid.shape)
    grads_eta = node_gradients(grid, np.array(eta, dtype=float))
    inner = sum(gu * ge for gu, ge in zip(grads_u, grads_eta)) / (omega * omega)
    out = lap.values + a2.values * theta.values - inner
    out[grid.boundary_mask] = 0.0
    return ScalarField(grid, out)
