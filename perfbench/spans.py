"""In-memory span tracer for the pmcgraph layers.

`Tracer.install()` wraps the public functions of each traced
`pmcgraph` module, plus the two foreign hot calls `solver.spsolve` and
`geometry.quad` and the method `pmc.WorkingBox.sample_lattice`, by
replacing module and class attributes at run time. Every module of the
package that bound one of those functions by name (`from .solver import
outer_iterate`) is rebound too, so calls through `cli` are seen. No source
file is edited.

A span holds its name, start, end and parent span; the run id is stored
once per file, since one file holds exactly one run. Spans stay in memory
and are written by `dump()` when the run ends. `summarize()` turns a dumped
file into per-layer calls, busy time and self time. `span_cost()` times
what one span adds to a call, so that spans times that cost estimates the
tracer's overhead within the traced run itself.

Nothing in pmcgraph waits on a queue, a lock or another process: the whole
program is one thread of computation. Busy time and counts are therefore
the whole story; no span records waiting.
"""

import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# traced module -> layer name used in span names
LAYERS = {
    "pmcgraph.cli": "cli",
    "pmcgraph.expr": "expr",
    "pmcgraph.grid": "grid",
    "pmcgraph.calculus": "calculus",
    "pmcgraph.pmc": "pmc",
    "pmcgraph.geometry": "geometry",
    "pmcgraph.solver": "solver",
}

# foreign functions the layers call by a module-level name
FOREIGN = (("pmcgraph.solver", "spsolve"), ("pmcgraph.geometry", "quad"))


def _solve_inner_counts(counts, result, args):
    report = result[1]
    counts["newton_steps"] += report["newton_steps"]
    counts["ptc_steps"] += report["ptc_steps"]


def _jacobian_counts(counts, result, args):
    counts["jacobian_nnz"] = max(counts["jacobian_nnz"], int(result.nnz))


def _spsolve_counts(counts, result, args):
    counts["spsolve_unknowns"] = max(counts["spsolve_unknowns"], int(args[0].shape[0]))


def _lattice_counts(counts, result, args):
    counts["sample_points"] += int(np.asarray(result["z"]).size)


# span name -> hook that reads a counter off the call's return value
HOOKS = {
    "solver.solve_inner": _solve_inner_counts,
    "solver.assemble_jacobian": _jacobian_counts,
    "solver.spsolve": _spsolve_counts,
    "pmc.WorkingBox.sample_lattice": _lattice_counts,
}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        # 1 where no enclosing span has the same name, so busy time of a
        # recursive layer is not counted twice
        self.outer = array("b")
        self.counts = {"newton_steps": 0, "ptc_steps": 0, "jacobian_nnz": 0,
                       "spsolve_unknowns": 0, "sample_points": 0}
        self._stack = [-1]
        self._active = []
        self._restore = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        hook = HOOKS.get(name)
        stack, active, counts = self._stack, self._active, self.counts
        name_of, parent, start, end, outer = (
            self.name_of, self.parent, self.start, self.end, self.outer)

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            end.append(0.0)
            stack.append(sid)
            active[nid] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                active[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(counts, result, args)
            return result

        return traced

    def _targets(self):
        """-> [(span name, owner, attribute, original)] to wrap."""
        out = []
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in sorted(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == modname):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
        for modname, attr in FOREIGN:
            mod = sys.modules[modname]
            out.append((f"{LAYERS[modname]}.{attr}", mod, attr, getattr(mod, attr)))
        box = sys.modules["pmcgraph.pmc"].WorkingBox
        out.append(("pmc.WorkingBox.sample_lattice", box, "sample_lattice",
                    box.sample_lattice))
        return out

    def install(self):
        wrapped = {}
        for name, owner, attr, original in self._targets():
            wrapper = self._wrap(name, original)
            wrapped[id(original)] = (original, wrapper)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # rebind names other modules imported from the traced ones
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pmcgraph" or modname.startswith("pmcgraph.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        """Write the spans as one .npz file; names and counts ride along as JSON."""
        meta = {"run_id": self.run_id, "names": self.names, "counts": self.counts}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)),
                     name=np.frombuffer(self.name_of, dtype=np.int32),
                     parent=np.frombuffer(self.parent, dtype=np.int64),
                     start=np.frombuffer(self.start, dtype=np.float64),
                     end=np.frombuffer(self.end, dtype=np.float64),
                     outer=np.frombuffer(self.outer, dtype=np.int8))


def span_cost(repeats=5, calls=50_000):
    """Seconds one span adds to a call, timed in the calling process: the
    best of `repeats` loops of `calls` calls of a wrapped no-op, minus the
    same for the bare no-op."""
    def noop(*args, **kwargs):
        return None

    wrapped = Tracer(run_id="span-cost")._wrap("noop", noop)

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn(0)
            times.append(perf_counter() - t0)
        return min(times)

    return max(best(wrapped) - best(noop), 0.0) / calls


def summarize(path):
    """Per span name: calls, busy_s (outermost spans), self_s; plus counts.

    Self time is a span's duration minus the durations of its direct child
    spans; children of one span never overlap, as the program is one
    thread. Also returns `residual_evals`: residual evaluations made by
    the inner Newton solve, i.e. curvature-operator spans whose parent is a
    `solver.solve_inner` span.
    """
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        outer = data["outer"].astype(bool)
    names = meta["names"]
    k = len(names)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_time = dur - child_time
    calls = np.bincount(name, minlength=k)
    busy = np.bincount(name[outer], weights=dur[outer], minlength=k)
    self_sum = np.bincount(name, weights=self_time, minlength=k)
    layers = {n: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                  "self_s": float(self_sum[i])} for i, n in enumerate(names)}
    mcp = names.index("calculus.mean_curvature_product_values")
    inner = names.index("solver.solve_inner")
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    residual_evals = int(np.count_nonzero((name == mcp) & (parent_name == inner)))
    return {"run_id": meta["run_id"], "layers": layers, "counts": meta["counts"],
            "residual_evals": residual_evals, "spans": int(dur.size)}
