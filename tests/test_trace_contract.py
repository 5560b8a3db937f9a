"""The benchmark's traced run wraps pmcgraph functions by name.

`perfbench/spans.py` replaces module attributes at run time; these tests
import it read-only and check that the names it wraps still exist as plain
module functions, that every span a BENCHMARK.json per-layer metric reads
is one it wraps, and that a traced solve counts one `solver.spsolve` call
per linear solve, reads the Jacobian's pattern size and system size, and
sees every residual evaluation of the inner solve and its normal
environment.  Since the tracer sees public names only, no module of the
package may import a private name of another.  No module imports inside a
function, and each imports only the modules before it in one order.  And no
module spells a variable name such as "x2" that `grid.variables` derives
from the dimension.
"""

import ast
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import pmcgraph.cli  # noqa: F401  (with the package, every traced module)
from pmcgraph.grid import ScalarField, build_grid
from pmcgraph.pmc import parse_pmc
import pmcgraph.solver as solver
from pmcgraph.solver import BarrierPair, _jacobian_plan, outer_iterate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_foreign_names_are_module_functions(spans):
    for modname, attr in spans.FOREIGN:
        obj = getattr(importlib.import_module(modname), attr)
        assert inspect.isfunction(obj), (modname, attr)
        assert obj.__module__ == modname, (modname, attr)


def test_benchmark_layer_metrics_name_traced_spans(spans):
    # perfbench/run.py reads these metrics as layers[span][...]; a renamed
    # function would otherwise surface only as a KeyError in a traced run
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    traced = {name for name, *_ in spans.Tracer(run_id="names")._targets()}
    wanted = [m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]
              if m["name"].endswith((".calls", ".busy_s", ".self_s"))]
    assert wanted
    assert sorted(set(wanted) - traced) == []


def test_spsolve_takes_the_matrix_first():
    from pmcgraph.solver import spsolve

    first = next(iter(inspect.signature(spsolve).parameters.values()))
    assert first.name == "A"
    assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_traced_solve_counts_one_spsolve_per_linear_solve(spans, tmp_path):
    grid = build_grid(2, (16, 16), (1.0, 1.0), ("periodic", "periodic"))
    H = parse_pmc("0.5*sin(z) + 0.1*sin(6.283185307179586*x1)")
    B = BarrierPair(ScalarField(grid, np.full(grid.shape, 0.25)),
                    ScalarField(grid, np.full(grid.shape, np.pi + 0.25)))
    tracer = spans.Tracer(run_id="contract").install()
    # the inner solves that evaluate their own seed: no earlier solve or
    # barrier check handed them its evaluation of it
    traced_inner = solver.solve_inner
    fresh = []

    def recording(*args, evaluation=None, **kwargs):
        fresh.append(evaluation is None)
        return traced_inner(*args, evaluation=evaluation, **kwargs)

    solver.solve_inner = recording
    try:
        _, rep = outer_iterate(H, B)
    finally:
        solver.solve_inner = traced_inner
        tracer.uninstall()
    path = tmp_path / "trace.npz"
    tracer.dump(path)
    summary = spans.summarize(path)
    counts = summary["counts"]
    # no line search failed, so every Newton step made one solve; the
    # benchmark still reads the retired pseudo-time counter, always 0
    assert counts["ptc_steps"] == 0
    calls = summary["layers"]["solver.spsolve"]["calls"]
    assert calls == counts["newton_steps"] > 0
    assert calls >= rep["factorizations"]
    # the report counts the same linear solves as the benchmark's tracer
    assert calls == rep["linear_solves"]
    assert counts["spsolve_unknowns"] == grid.node_count
    # the per-layer metrics read the matrix's pattern size and shape
    assert counts["jacobian_nnz"] == _jacobian_plan(grid).nnz > 0
    # the inner solve evaluates its residual through the traced curvature
    # name, once per distinct iterate: at each seed it was not handed, and
    # again after every step's line search.  On this periodic grid every
    # seed was handed: the first sweep's, u1, by the barrier check, and each
    # later one by the solve that returned it (the first sweep evaluated u1
    # itself, one fresh seed, when the check used a second residual function)
    inner = summary["layers"]["solver.solve_inner"]["calls"]
    assert inner == len(fresh) > 0 and sum(fresh) == 0
    assert (summary["residual_evals"]
            >= counts["newton_steps"] + sum(fresh) > 0)
    # and builds each residual's normal environment through the traced name
    layers = summary["layers"]
    assert layers["pmc.graph_normal_env"]["calls"] >= summary["residual_evals"] > 0


def test_no_module_imports_a_private_name_of_another():
    # the tracer wraps public names only, so a private import hides a layer
    # (dunders such as the package's __version__ are public)
    reaches = []
    for path in sorted((PERFBENCH.parent / "src" / "pmcgraph").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").startswith("pmcgraph"))):
                reaches += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert reaches == []


# the package's modules in import order: each imports only those before it
LAYERS = ("expr", "grid", "calculus", "pmc", "geometry", "solver", "analysis", "cli")


def test_modules_import_at_top_level_and_only_the_modules_before_them():
    # an import inside a function hides an import cycle, so every import
    # statement sits at a module's top level, and a module imports of the
    # package only the modules before it in LAYERS (the package's
    # `__init__` and `from . import __version__` aside)
    nested, upward = [], []
    for path in sorted((PERFBENCH.parent / "src" / "pmcgraph").glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                nested += [f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
                           for node in ast.walk(stmt)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
        if path.stem == "__init__":
            continue
        upward += [f"{path.stem} imports {node.module}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                   and LAYERS.index(node.module) >= LAYERS.index(path.stem)]
    assert nested == [] and upward == []


def test_every_exported_name_resolves_and_the_package_imports_only_exported_names():
    # a module's __all__ lists names it defines, and every module of the
    # package, `__init__` included, imports from another module only names
    # of that module's __all__ (the package's own attributes aside)
    package = PERFBENCH.parent / "src" / "pmcgraph"
    unresolved, unlisted = [], []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"pmcgraph.{path.stem}")
        unresolved += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                       if not hasattr(module, name)]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                listed = importlib.import_module(f"pmcgraph.{node.module}").__all__
                unlisted += [f"{path.stem}: {node.module}.{alias.name}" for alias in node.names
                             if alias.name not in listed]
    assert unresolved == [] and unlisted == []


def _docstrings(tree):
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_no_module_spells_a_variable_name_outside_the_vocabulary():
    # `grid.variables` builds the names x1..xn and y1..yn from the dimension
    # (f-strings hold no such constant); every other module derives its
    # vocabulary, environments and headers from it, so a literal "x2" or
    # "y1" anywhere is a list that the dimension does not reach
    spelled = []
    for path in sorted((PERFBENCH.parent / "src" / "pmcgraph").glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        spelled += [f"{path.name}:{node.lineno}: {node.value!r}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and id(node) not in docstrings
                    and isinstance(node.value, str) and re.fullmatch(r"[xy]\d", node.value)]
    assert spelled == []
