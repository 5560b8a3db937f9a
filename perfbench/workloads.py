"""The benchmark workloads: a config generated from the seed, the CLI
command run on it, and the reference checks its outputs must pass.

The seed varies only inputs that keep each problem and its reference
intact; the program sees nothing but the generated config. The base
configs are copies of the shipped `configs/*.json`, so that an edit to a
shipped config does not silently change what the benchmark measures.
Why each workload is here is recorded in predictions.json.
"""

import copy
import json
import math
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

TORUS_SINE = {
    "version": 1,
    "grid": {"dimension": 2, "shape": [64, 64], "lengths": [1.0, 1.0],
             "topology": ["periodic", "periodic"]},
    "pmc": {"expr": "0.5*sin(z) + 0.1*sin(6.283185307179586*x1)"},
    "conformal": "product",
    "barriers": {"u1": "0.25", "u0": "3.391592653589793"},
    "solver": {"tol_inner": 1e-10, "tol_outer": 1e-8},
}

HOROSPHERE = {
    "version": 1,
    "grid": {"dimension": 2, "shape": [32, 32], "lengths": [1.0, 1.0],
             "topology": ["periodic", "periodic"]},
    "pmc": {"expr": "-1 - z"},
    "conformal": {"f": "-ln(r)"},
    "box": [0.5, 2.0],
    "barriers": {"u1": "0.8", "u0": "1.25"},
    "solver": {"max_outer": 1000},
}

WARPED_RADIAL = {
    "version": 1,
    "grid": {"dimension": 1, "shape": [33], "lengths": [1.0],
             "topology": ["dirichlet"], "origin": [0.0]},
    "pmc": {"expr": "0"},
    "conformal": {"warped": {"h": "r", "interval": [1.0, math.e]}},
    "box": [0.1, 0.9],
}


def read_field(path):
    """Values of a pmcgraph field CSV (one header line, one value a line)."""
    with open(path) as fh:
        fh.readline()
        return np.loadtxt(fh, dtype=float, ndmin=1)


def read_table(path):
    """Columns of a CSV table with one header line."""
    with open(path) as fh:
        fh.readline()
        return np.loadtxt(fh, dtype=float, delimiter=",", ndmin=2).T


def _solve_report_problems(report):
    problems = []
    for key in ("converged", "consistency_ok"):
        if report.get(key) is not True:
            problems.append(f"report {key} is {report.get(key)!r}, expected true")
    return problems


def _too_far(what, err, tol):
    return [f"{what} misses its reference by {err:.3e} > {tol:g}"] if not err <= tol else []


class Workload:
    name = ""
    subcommand = "solve"

    def make(self, seed):
        """-> (config dict, params dict) for this seed."""
        raise NotImplementedError

    def check(self, report, out_path, params):
        """-> list of problems with the run's report and output file."""
        raise NotImplementedError

    def counters(self, report):
        """Deterministic counters read off the report."""
        return {"sweeps": report.get("outer_count"),
                "inner_steps": sum(report.get("inner_newton_counts") or [])}


class TorusPenalized(Workload):
    name = "torus_penalized"
    # forcing sin(2*pi*x1 + phase); a phase of k whole grid cells translates
    # the solution by k cells on the periodic grid and leaves the work
    # unchanged. The reference is the x1 profile of the phase-0 solution
    # (torus_reference.py), which the solution of phase k must equal rolled
    # by k cells, at every x2.
    REFERENCE = HERE / "torus_reference.json"
    # measured at most 1e-9 over phases 1, 17, 33, 50 and 63 (solver
    # tol_outer 1e-8); the profile rolled one cell off misses by 5e-4
    TOL = 1e-7

    @staticmethod
    def config(k):
        phase = 2.0 * math.pi * k / 64
        cfg = copy.deepcopy(TORUS_SINE)
        cfg["pmc"]["expr"] = f"0.5*sin(z) + 0.1*sin(6.283185307179586*x1 + {phase!r})"
        return cfg

    def make(self, seed):
        k = random.Random(f"{self.name}:{seed}").randrange(64)
        return self.config(k), {"phase_cells": k}

    def check(self, report, out_path, params):
        problems = _solve_report_problems(report)
        u = read_field(out_path).reshape(64, 64)
        profile = np.asarray(json.loads(self.REFERENCE.read_text())["profile"])
        expected = np.roll(profile, -params["phase_cells"])[:, None]
        return problems + _too_far("phase-0 profile", float(np.max(np.abs(u - expected))), self.TOL)


class HorosphereConformal(Workload):
    name = "horosphere_conformal"
    # measured error 9.3e-8 at tol_outer 1e-8 and contraction 0.91
    TOL = 1e-6

    def make(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        # the problem does not depend on x, so shifting the base leaves the
        # work and the answer u = 1 unchanged
        origin = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(2)]
        cfg = copy.deepcopy(HOROSPHERE)
        cfg["grid"]["origin"] = origin
        return cfg, {"origin": origin}

    def check(self, report, out_path, params):
        problems = _solve_report_problems(report)
        err = float(np.max(np.abs(read_field(out_path) - 1.0)))
        return problems + _too_far("horosphere u = 1", err, self.TOL)


class WarpedReparam(Workload):
    name = "warped_reparam"
    subcommand = "reparam"
    ROWS = 1001
    # quad runs at epsabs 1e-12; measured errors are 2e-16 (s) and 3e-11 (f)
    TOL = 1e-9

    def make(self, seed):
        # h = r on [c, c*e]: s = ln(r/c) runs over [0, 1] and f = ln h = ln r
        c = round(random.Random(f"{self.name}:{seed}").uniform(1.0, 2.0), 6)
        cfg = copy.deepcopy(WARPED_RADIAL)
        cfg["conformal"]["warped"]["interval"] = [c, c * math.e]
        return cfg, {"r_min": c}

    def check(self, report, out_path, params):
        problems = []
        if report.get("rows") != self.ROWS:
            problems.append(f"report rows is {report.get('rows')!r}, expected {self.ROWS}")
        if report.get("s_strictly_increasing") is not True:
            problems.append("report s_strictly_increasing is not true")
        r, s, f = read_table(out_path)
        if r.size != self.ROWS:
            return problems + [f"table has {r.size} rows, expected {self.ROWS}"]
        problems += _too_far("s = ln(r/c)", float(np.max(np.abs(s - np.log(r / params["r_min"])))), self.TOL)
        problems += _too_far("f = ln r", float(np.max(np.abs(f - np.log(r)))), self.TOL)
        return problems

    def counters(self, report):
        return {"rows": report.get("rows")}


WORKLOADS = {w.name: w for w in (TorusPenalized(), HorosphereConformal(),
                                 WarpedReparam())}
