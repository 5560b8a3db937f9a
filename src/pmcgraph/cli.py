"""Config-driven command line: solves, checks, transforms, and reports.

One JSON config describes a whole problem (grid, prescription, metric,
barriers, solver knobs); the subcommand picks what to do with it:

    solve           outer iteration (or the split-prescription solve when
                    h1/h2 are given); writes a report and optionally the
                    solution field as CSV
    check-barrier   barrier inequalities against the prescription the
                    solver runs (the pullback in a conformal metric), i.e.
                    the barrier check of the solve report
    check-monotone  height-monotonicity (or quasi-decreasing) sampling check
    transform       tabulate the conformal-to-product transformed
                    prescription over the working box
    reparam         warped-profile reparameterization table (r, s, f)
    diagnose        refinement study of the solved problem
    eval-residual   residual of a stored field against the prescription

Exit codes are a stable contract: 0 success / check passed, 1 check failed
(including mathematical precondition failures such as unordered barriers or
a graph leaving its working box), 2 invalid config or unusable paths,
3 solver failure (a partial report with the residual history and the best
iterate is still emitted).

Reports are deterministic: keys sorted, floats at 17 significant digits, no
timestamps, and the effective config plus its SHA-256 embedded, so the same
config and version always produce byte-identical artifacts.
"""

import argparse
import collections
import dataclasses
import hashlib
import json
# argparse translates its messages through gettext, whose first lookup
# imports locale (about 2 ms); import it with the module, not inside a
# subcommand's run
import locale  # noqa: F401
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import blowup_diagnostics
from .expr import ParseError
from .geometry import (
    FACTOR_VARS,
    ConformalFactor,
    WarpedProfile,
    conformal_transform_pmc,
    warped_to_conformal,
)
from .grid import DIMENSIONS, build_grid, field_from_expr, read_field_csv, write_field_csv
from .pmc import (
    PMC_VARS,
    QuasiDecomposition,
    WorkingBox,
    check_monotone,
    check_quasi_decreasing,
    padded,
    parse_pmc,
    pmc_residual,
)
from .solver import (
    BarrierPair,
    SolveConfig,
    SolverFailure,
    barriers_from_phi,
    check_barrier,
    outer_iterate,
    solve_quasi,
    working_box,
)

SUBCOMMANDS = ("solve", "check-barrier", "check-monotone", "transform",
               "reparam", "diagnose", "eval-residual")

# every SolveConfig knob but the working box, which is a top-level key
_SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolveConfig)
                     if f.name != "box")

_TOP_KEYS = ("version", "grid", "pmc", "conformal", "box", "barriers",
             "solver", "field")


class CLIConfigError(ValueError):
    """Config does not validate; the message is the first failure found."""


# ---------------------------------------------------------------------------
# config loading, overrides, validation


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's conversion limit
        raise CLIConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


def apply_override(raw, spec):
    """Apply one `dot.path=value` override in place; values parse as JSON.

    Anything that does not parse as JSON is taken as a bare string, so
    `--override pmc.expr=-z` works without quoting gymnastics.
    """
    key, sep, text = spec.partition("=")
    if not sep or not key:
        raise CLIConfigError(f"override {spec!r} is not of the form key=value")
    try:
        value = json.loads(text)
    except ValueError:
        value = text
    node, where = raw, "the document root"
    *path, last = key.split(".")
    for part in path:
        if not isinstance(node, dict):
            break
        node, where = node.setdefault(part, {}), f"key {part!r}"
    if not isinstance(node, dict):
        raise CLIConfigError(f"override {spec!r} descends into a non-object at {where}")
    node[last] = value
    return raw


def _want(section, value, types, what):
    if not isinstance(value, types):
        names = "/".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise CLIConfigError(f"{section}: {what} must be {names}, got {type(value).__name__}")
    return value


def _finite(value):
    """A JSON number (bools excluded) as a finite float, else None.

    json reads NaN, Infinity and -Infinity, and integers too large for a
    float; none of them is a usable length, height or solver knob.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _float_list(section, value, count, what):
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise CLIConfigError(f"{section}: {what} must be a list of {count} numbers")
    out = [_finite(v) for v in value]
    if None in out:
        raise CLIConfigError(f"{section}: {what} must contain finite numbers only")
    return out


def _expr_str(section, value, what):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(float(value))  # a bare number is a constant expression
    if not isinstance(value, str) or not value.strip():
        raise CLIConfigError(f"{section}: {what} must be a non-empty expression string")
    return value


def _validate_grid(raw):
    g = _want("grid", raw, dict, "section")
    for key in g:
        if key not in ("dimension", "shape", "lengths", "topology", "origin"):
            raise CLIConfigError(f"grid: unknown key {key!r}")
    dims = " or ".join(map(str, DIMENSIONS))
    if "dimension" not in g:
        raise CLIConfigError(f"grid: dimension ({dims}) is required")
    dim = g["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim not in DIMENSIONS:
        raise CLIConfigError(f"grid: dimension must be the integer {dims}, got {dim!r}")
    shape = g.get("shape")
    if (not isinstance(shape, (list, tuple)) or len(shape) != dim
            or any(isinstance(s, bool) or not isinstance(s, int) for s in shape)):
        raise CLIConfigError(f"grid: shape must be a list of {dim} integer node counts")
    shape = list(shape)
    lengths = _float_list("grid", g.get("lengths"), dim, "lengths")
    topo = g.get("topology")
    if not isinstance(topo, (list, tuple)) or len(topo) != dim:
        raise CLIConfigError(f"grid: topology must be a list of {dim} entries")
    for t in topo:
        if t not in ("periodic", "dirichlet"):
            raise CLIConfigError(
                f"grid: topology entries must be 'periodic' or 'dirichlet', got {t!r}")
    origin = g.get("origin")
    if origin is not None:
        origin = _float_list("grid", origin, dim, "origin")
    return {"dimension": dim, "shape": shape, "lengths": lengths,
            "topology": list(topo), "origin": origin}


def _validate_pmc(raw):
    p = _want("pmc", raw, dict, "section")
    for key in p:
        if key not in ("expr", "h1", "h2"):
            raise CLIConfigError(f"pmc: unknown key {key!r}")
    has_expr = "expr" in p
    has_split = "h1" in p or "h2" in p
    if has_expr and has_split:
        raise CLIConfigError("pmc: give either expr or the h1/h2 pair, not both")
    if has_expr:
        return {"expr": _expr_str("pmc", p["expr"], "expr")}
    if "h1" in p and "h2" in p:
        return {"h1": _expr_str("pmc", p["h1"], "h1"),
                "h2": _expr_str("pmc", p["h2"], "h2")}
    raise CLIConfigError("pmc: needs expr, or both h1 and h2")


def _validate_conformal(raw):
    if raw is None or raw == "product":
        return "product"
    c = _want("conformal", raw, dict, "section")
    if set(c) == {"f"}:
        return {"f": _expr_str("conformal", c["f"], "f")}
    if set(c) == {"warped"}:
        w = _want("conformal", c["warped"], dict, "warped")
        if set(w) != {"h", "interval"}:
            raise CLIConfigError("conformal: warped needs exactly h and interval")
        interval = _float_list("conformal", w["interval"], 2, "interval")
        if not interval[0] < interval[1]:
            raise CLIConfigError("conformal: warped interval must be increasing")
        return {"warped": {"h": _expr_str("conformal", w["h"], "h"),
                           "interval": interval}}
    raise CLIConfigError(
        "conformal: must be \"product\", {\"f\": expr}, or {\"warped\": {...}}")


def _validate_barriers(raw):
    if raw is None:
        return None
    b = _want("barriers", raw, dict, "section")
    for key in b:
        if key not in ("u1", "u0", "psi", "from_phi"):
            raise CLIConfigError(f"barriers: unknown key {key!r}")
    psi = b.get("psi")
    if psi is not None:
        psi = _expr_str("barriers", psi, "psi")
    if "from_phi" in b:
        if "u1" in b or "u0" in b:
            raise CLIConfigError("barriers: give either u1/u0 or from_phi, not both")
        fp = _want("barriers", b["from_phi"], dict, "from_phi")
        for key in fp:
            if key not in ("base", "phi"):
                raise CLIConfigError(f"barriers: unknown from_phi key {key!r}")
        if "phi" not in fp:
            raise CLIConfigError("barriers: from_phi needs a phi expression")
        base = fp.get("base", "0")
        return {"from_phi": {"base": _expr_str("barriers", base, "base"),
                             "phi": _expr_str("barriers", fp["phi"], "phi")},
                "psi": psi}
    if "u1" not in b or "u0" not in b:
        raise CLIConfigError("barriers: needs u1 and u0 (or from_phi)")
    return {"u1": _expr_str("barriers", b["u1"], "u1"),
            "u0": _expr_str("barriers", b["u0"], "u0"),
            "psi": psi}


def _validate_solver(raw):
    if raw is None:
        return {}
    s = _want("solver", raw, dict, "section")
    out = {}
    for key, value in s.items():
        if key not in _SOLVER_KEYS:
            raise CLIConfigError(f"solver: unknown key {key!r}")
        if key == "cutoff":
            value = _float_list("solver", value, 2, "cutoff")
        elif key == "refine_check":
            value = _want("solver", value, bool, "refine_check")
        elif key in ("max_newton", "max_outer", "samples"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise CLIConfigError(f"solver: {key} must be an integer")
        elif not (key == "gamma" and value == "auto"):
            value = _finite(value)
            if value is None:
                raise CLIConfigError(f"solver: {key} must be a finite number"
                                     + (" or \"auto\"" if key == "gamma" else ""))
        out[key] = value
    return out


def validate_config(raw):
    """Normalize a raw config dict; raises CLIConfigError on the first flaw.

    The result is the *effective* config: defaults filled in, numbers cast,
    stable shape.  Its canonical rendering is what gets hashed into reports.
    """
    raw = _want("config", raw, dict, "document")
    for key in raw:
        if key not in _TOP_KEYS:
            raise CLIConfigError(f"unknown top-level key {key!r}")
    if "grid" not in raw:
        raise CLIConfigError("grid section is required")
    if "pmc" not in raw:
        raise CLIConfigError("pmc section is required")
    box = raw.get("box")
    if box is not None:
        box = _float_list("box", box, 2, "z-range")
        if not box[0] < box[1]:
            raise CLIConfigError("box: z-range must be increasing")
    field = raw.get("field")
    if field is not None and not isinstance(field, str):
        raise CLIConfigError("field: must be a path string")
    if type(raw.get("version", 1)) is not int or raw.get("version", 1) != 1:
        raise CLIConfigError("version: must be the integer 1 when given")
    return {
        "version": 1,
        "grid": _validate_grid(raw["grid"]),
        "pmc": _validate_pmc(raw["pmc"]),
        "conformal": _validate_conformal(raw.get("conformal")),
        "box": box,
        "barriers": _validate_barriers(raw.get("barriers")),
        "solver": _validate_solver(raw.get("solver")),
        "field": field,
    }


# ---------------------------------------------------------------------------
# deterministic report rendering


def _scalar_json(value):
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            return "null"
        return format(x, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value).__name__} into a report")


def _render(value, out, indent):
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(value, key=str)
        for i, key in enumerate(keys):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _render(value[key], out, indent + 2)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _render(item, out, indent + 2)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar_json(value))


def canonical_json(value):
    """Key-sorted JSON with floats at 17 significant digits; no timestamps."""
    out = []
    _render(value, out, 0)
    return "".join(out)


def config_hash(cfg):
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def emit_report(report, path=None):
    """Render a report deterministically; write to path or stdout.

    Adds the artifact version, and the SHA-256 of the embedded effective
    config when one is present, so artifacts are traceable and two runs of
    one config are byte-identical.
    """
    report = dict(report)
    report["artifact_version"] = __version__
    if "config" in report:
        report["config_sha256"] = config_hash(report["config"])
    text = canonical_json(report) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# building problem pieces out of the effective config


def _grid_of(cfg):
    g = cfg["grid"]
    try:
        return build_grid(g["dimension"], g["shape"], g["lengths"],
                          g["topology"], g["origin"])
    except (ValueError, TypeError) as exc:
        raise CLIConfigError(f"grid: {exc}") from exc


def _prescription_of(cfg):
    """-> ("pmc", PMCFunction) or ("split", QuasiDecomposition)."""
    p = cfg["pmc"]
    try:
        if "expr" in p:
            return "pmc", parse_pmc(p["expr"])
        return "split", QuasiDecomposition.from_exprs(p["h1"], p["h2"])
    except (ParseError, ValueError) as exc:
        raise CLIConfigError(f"pmc: {exc}") from exc


def _factor_of(cfg):
    """-> (ConformalFactor or None, metadata dict or None)."""
    c = cfg["conformal"]
    if c == "product":
        return None, None
    try:
        if "f" in c:
            return ConformalFactor.from_expr(c["f"]), {"mode": "conformal",
                                                       "f": c["f"]}
        w = c["warped"]
        profile = WarpedProfile.from_expr(w["h"])
        factor, s_range = warped_to_conformal(profile, w["interval"])
        return factor, {"mode": "warped", "h": w["h"],
                        "interval": list(w["interval"]),
                        "s_range": [float(s_range[0]), float(s_range[1])]}
    except (ParseError, ValueError) as exc:
        raise CLIConfigError(f"conformal: {exc}") from exc


def _solver_of(cfg):
    try:
        return SolveConfig(box=cfg["box"], **cfg["solver"])
    except (ValueError, TypeError) as exc:
        raise CLIConfigError(f"solver: {exc}") from exc


_Problem = collections.namedtuple("_Problem", "grid kind presc factor meta solk H")


def _problem(cfg):
    """The config's problem, built once for every subcommand but reparam.

    `kind`, `presc` as `_prescription_of`; `factor`, `meta` as
    `_factor_of`; `solk` the SolveConfig.  `H` is the prescription the
    product-metric solver runs, so every check reads what `solve` checks:
    the composite H1 + t*H2 of a split, the `conformal_transform_pmc`
    pullback under a conformal factor, else the prescription itself.  A
    split under a conformal metric is a config error.
    """
    grid = _grid_of(cfg)
    kind, presc = _prescription_of(cfg)
    factor, meta = _factor_of(cfg)
    solk = _solver_of(cfg)
    if kind == "split":
        if factor is not None:
            raise CLIConfigError(
                "split prescriptions (h1/h2) are product-metric only; "
                "use pmc.expr with a conformal metric")
        H = presc.composite()
    elif factor is not None:
        H = conformal_transform_pmc(presc, factor, grid.dimension)
    else:
        H = presc
    return _Problem(grid, kind, presc, factor, meta, solk, H)


def _barrier_builder(cfg, grid, solk):
    """-> callable fine_grid -> BarrierPair, rebuilt from expressions.

    Expression parsing happens eagerly (those failures are config errors);
    the mathematical assembly (ordering, boundary bracketing, auxiliary
    solves for from_phi) runs when the builder is called.
    """
    b = cfg["barriers"]
    if b is None:
        raise CLIConfigError("this subcommand needs a barriers section")
    psi_expr = b.get("psi")
    try:
        if "from_phi" in b:
            base = parse_pmc(b["from_phi"]["base"])
            phi = parse_pmc(b["from_phi"]["phi"])
            if psi_expr is None:
                raise CLIConfigError("barriers: from_phi needs a boundary trace psi")
            fields = (psi_expr,)

            def build(g):
                psi = field_from_expr(g, psi_expr)
                return barriers_from_phi(g, base, phi, psi, solk)
        else:
            u1_expr, u0_expr = b["u1"], b["u0"]
            fields = (u1_expr, u0_expr, psi_expr)

            def build(g):
                return BarrierPair(
                    field_from_expr(g, u1_expr), field_from_expr(g, u0_expr),
                    field_from_expr(g, psi_expr) if psi_expr is not None else None)
        for text in fields:
            if text is not None:
                field_from_expr(grid, text)  # surface parse errors now
    except (ParseError, ValueError) as exc:
        if isinstance(exc, CLIConfigError):
            raise
        raise CLIConfigError(f"barriers: {exc}") from exc
    return build


def _check_payload(message):
    return {"passed": False, "message": message}


def _float_rows(path, header, columns):
    rows = len(columns[0])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    cells = np.column_stack(columns).astype(float).reshape(-1).tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n" + (row * rows) % tuple(cells))
    return rows


# ---------------------------------------------------------------------------
# subcommands (each returns payload dict + exit code)


def _cmd_solve(cfg, args):
    p = _problem(cfg)
    build = _barrier_builder(cfg, p.grid, p.solk)
    try:
        if p.kind == "split":
            v, rep = solve_quasi(p.presc, build, p.grid, p.solk)
        else:
            v, rep = outer_iterate(p.H, build(p.grid), p.solk)
    except SolverFailure as exc:
        payload = {
            "converged": False,
            "error": str(exc),
            "residual_history": [float(r) for r in exc.residual_history],
            "best_iterate_path": None,
        }
        if exc.partial is not None:
            payload["partial"] = exc.partial
        if exc.best is not None:
            best_path = args.out_field
            if best_path is None and args.out_report is not None:
                best_path = os.path.splitext(args.out_report)[0] + ".best.csv"
            if best_path is None:
                best_path = "pmc_best_iterate.csv"
            write_field_csv(exc.best, best_path)
            payload["best_iterate_path"] = best_path
        return payload, 3
    except ValueError as exc:
        return _check_payload(str(exc)), 1
    payload = rep.to_dict()
    if p.factor is not None:
        payload["conformal"] = p.meta
        res = pmc_residual(p.grid, v, p.presc, F=p.factor)
        payload["conformal_residual_sup"] = float(np.max(np.abs(res.values)))
    if args.out_field is not None:
        write_field_csv(v, args.out_field)
        payload["solution_path"] = args.out_field
    return payload, 0


def _cmd_check_barrier(cfg, args):
    p = _problem(cfg)
    build = _barrier_builder(cfg, p.grid, p.solk)
    try:
        chk = check_barrier(build(p.grid), p.H, allowance=p.solk.allowance_constant)
    except (SolverFailure, ValueError) as exc:
        return _check_payload(str(exc)), 1
    return chk, 0 if chk["passed"] else 1


def _cmd_check_monotone(cfg, args):
    p = _problem(cfg)
    if p.solk.box is not None:
        box = WorkingBox.from_grid(p.grid, p.solk.box)
    else:
        if cfg["barriers"] is None:
            raise CLIConfigError("check-monotone needs a box or a barriers section")
        build = _barrier_builder(cfg, p.grid, p.solk)
        try:
            box = working_box(build(p.grid), p.solk)
        except (SolverFailure, ValueError) as exc:
            return _check_payload(str(exc)), 1
    if p.kind == "split":
        rep = check_quasi_decreasing(p.presc, box, p.solk.samples)
    else:
        rep = check_monotone(p.H, box, p.solk.samples)
    return dict(rep), 0 if rep["passed"] else 1


def _cmd_transform(cfg, args):
    p = _problem(cfg)
    if p.factor is None:
        raise CLIConfigError(
            "transform needs a conformal metric; in the product metric the "
            "prescription is already in solver form")
    if p.solk.box is None:
        raise CLIConfigError("transform needs an explicit box z-range to sample")
    try:
        env = WorkingBox.from_grid(p.grid, p.solk.box).sample_lattice(p.solk.samples)
        original = np.broadcast_to(p.presc.eval(env), env["z"].shape)
        transformed = np.broadcast_to(p.H.eval(env), env["z"].shape)
    except ValueError as exc:
        raise CLIConfigError(f"transform: {exc}") from exc
    payload = {
        "conformal": p.meta,
        "samples_per_axis": p.solk.samples,
        "rows": int(env["z"].size),
        "sup_abs_original": float(np.max(np.abs(original))),
        "sup_abs_transformed": float(np.max(np.abs(transformed))),
        "table_path": None,
    }
    if args.out_field is not None:
        _float_rows(args.out_field, ",".join(PMC_VARS) + ",original,transformed",
                    [env[k] for k in PMC_VARS] + [original, transformed])
        payload["table_path"] = args.out_field
    return payload, 0


def _cmd_reparam(cfg, args):
    c = cfg["conformal"]
    if c == "product" or "warped" not in c:
        raise CLIConfigError("reparam needs conformal.warped (a profile h and interval)")
    factor, meta = _factor_of(cfg)
    r_lo, r_hi = c["warped"]["interval"]
    r = np.linspace(r_lo, r_hi, 1001)
    s = factor.s_of_r(r)
    f = np.asarray(factor.eval(padded({"r": s}, FACTOR_VARS)))
    payload = {
        "conformal": meta,
        "rows": 1001,
        "s_strictly_increasing": bool(np.all(np.diff(s) > 0.0)),
        "s_range": [float(s[0]), float(s[-1])],
        "table_path": None,
    }
    if args.out_field is not None:
        _float_rows(args.out_field, "r,s,f", [r, s, f])
        payload["table_path"] = args.out_field
    return payload, 0


def _cmd_diagnose(cfg, args):
    p = _problem(cfg)
    build = _barrier_builder(cfg, p.grid, p.solk)
    levels = args.levels if args.levels is not None else 2
    if levels < 2:
        raise CLIConfigError("--levels must be at least 2")
    try:
        report = blowup_diagnostics(p.H, build, p.grid, cfg=p.solk, levels=levels)
    except (SolverFailure, ValueError) as exc:
        return _check_payload(str(exc)), 1
    payload = report.to_dict()
    if p.meta is not None:
        payload["conformal"] = p.meta
    return payload, 0


def _cmd_eval_residual(cfg, args):
    if cfg["field"] is None:
        raise CLIConfigError("eval-residual needs field: a path to a field CSV")
    try:
        u = read_field_csv(cfg["field"])
    except (OSError, ValueError) as exc:
        raise CLIConfigError(f"field: {exc}") from exc
    p = _problem(cfg)
    if u.grid != p.grid:
        raise CLIConfigError(
            f"field {cfg['field']!r} lives on a different grid than the config")
    # the residual in the config's own metric, as solve's conformal_residual_sup
    H = p.H if p.factor is None else p.presc
    box = WorkingBox.from_grid(p.grid, p.solk.box) if p.solk.box is not None else None
    try:
        res = pmc_residual(p.grid, u, H, F=p.factor, box=box)
    except ValueError as exc:
        return _check_payload(str(exc)), 1
    payload = {
        "field_path": cfg["field"],
        "residual_sup": float(np.max(np.abs(res.values))),
        "residual_path": None,
    }
    if p.meta is not None:
        payload["conformal"] = p.meta
    if args.out_field is not None:
        write_field_csv(res, args.out_field)
        payload["residual_path"] = args.out_field
    return payload, 0


_COMMANDS = {
    "solve": _cmd_solve,
    "check-barrier": _cmd_check_barrier,
    "check-monotone": _cmd_check_monotone,
    "transform": _cmd_transform,
    "reparam": _cmd_reparam,
    "diagnose": _cmd_diagnose,
    "eval-residual": _cmd_eval_residual,
}


def _parser():
    p = argparse.ArgumentParser(
        prog="pmcgraph",
        description="Prescribed-mean-curvature graph solver and checks, "
                    "driven by a JSON config.")
    p.add_argument("subcommand", choices=SUBCOMMANDS)
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--out-report", default=None,
                   help="write the JSON report here (default: stdout)")
    p.add_argument("--out-field", default=None,
                   help="write the produced field/table CSV here")
    p.add_argument("--levels", type=int, default=None,
                   help="refinement levels for diagnose (default 2)")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="dot-path config override, value parsed as JSON "
                        "(repeatable)")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        raw = _load_json(args.config)
        for spec in args.override:
            raw = apply_override(raw, spec)
        cfg = validate_config(raw)
        payload, code = _COMMANDS[args.subcommand](cfg, args)
    except CLIConfigError as exc:
        print(f"pmcgraph: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pmcgraph: cannot write output: {exc}", file=sys.stderr)
        return 2
    payload["subcommand"] = args.subcommand
    payload["config"] = cfg
    try:
        emit_report(payload, args.out_report)
    except OSError as exc:
        print(f"pmcgraph: cannot write report: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
