"""Time the stencil layer of two source trees, each measurement in a fresh
interpreter, and write the medians as JSON.

    python tools/bench_stencils.py OUT.json --before OLD/src --after src

Each of `--repeats` rounds runs every measurement once per tree, the trees
alternating, so that a drift of the host's speed hits both alike:

- `first_solve_s`: the in-process wall time of the first
  `pmcgraph.cli.main(["solve", ...])` of torus_sine (64x64) and horosphere
  (32x32), the package already imported;
- `build_s` and `build_bytes`: `calculus.operators(grid)` and
  `solver._jacobian_plan(grid)` of a new grid, timed, then built again for a
  grid of other lengths under `tracemalloc`, whose count of traced bytes
  still held afterwards is the caches' size: a 64x64 torus, and 257x257 and
  513x513 dirichlet squares;
- `cap513_wall_s` and `cap513_vmhwm_mib`: the CLI solve of configs/cap.json
  at 513x513, from the spawn of the interpreter to its exit, and the peak
  resident memory (`VmHWM`) the process reads from /proc/self/status at
  its end.

The children run with `OPENBLAS_NUM_THREADS` set to `--blas-threads`.  The
first line of the output holds the machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in the child: argv is the source tree, the measurement and a scratch
# directory; prints one JSON value
CHILD = r"""
import json, sys, time, tracemalloc
src, what, scratch = sys.argv[1:4]
sys.path.insert(0, src)
import numpy as np
from pmcgraph.cli import main
from pmcgraph.calculus import operators
from pmcgraph.grid import build_grid
from pmcgraph.solver import _jacobian_plan
kind, arg = what.split(":")
if kind == "solve":
    argv = ["solve", "--config", arg, "--out-report", scratch + "/report.json",
            "--out-field", scratch + "/field.csv"]
    t = time.perf_counter()
    code = main(argv)
    print(json.dumps({"s": time.perf_counter() - t, "exit": code}))
elif kind == "build":
    n, topology = int(arg), ("periodic" if arg == "64" else "dirichlet")
    grids = [build_grid(2, (n, n), (1.0, L), (topology,) * 2) for L in (1.0, 2.0)]
    t = time.perf_counter()
    operators(grids[0]); _jacobian_plan(grids[0])
    s = time.perf_counter() - t
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    operators(grids[1]); _jacobian_plan(grids[1])
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    print(json.dumps({"s": s, "bytes": held}))
else:
    code = main(["solve", "--config", arg, "--out-report", scratch + "/report.json",
                 "--out-field", scratch + "/field.csv"])
    status = dict(line.split(":", 1) for line in open("/proc/self/status") if ":" in line)
    print(json.dumps({"vmhwm_kib": int(status["VmHWM"].split()[0]), "exit": code}))
"""


def machine(blas_threads):
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "OPENBLAS_NUM_THREADS": blas_threads}


def run(src, what, scratch, blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    t = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", CHILD, src, what, scratch], env=env,
                         capture_output=True, text=True, check=True)
    value = json.loads(out.stdout.strip().splitlines()[-1])
    if value.get("exit", 0) != 0:
        raise RuntimeError(f"{what} exited {value['exit']} on {src}")
    value["wall_s"] = time.perf_counter() - t
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out")
    ap.add_argument("--before", required=True, help="the src/ directory of the old tree")
    ap.add_argument("--after", default=str(ROOT / "src"), help="the src/ of the new tree")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--blas-threads", type=int, default=1)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        cap = json.loads((ROOT / "configs" / "cap.json").read_text())
        cap["grid"]["shape"] = [513, 513]
        cap513 = os.path.join(scratch, "cap513.json")
        Path(cap513).write_text(json.dumps(cap))
        jobs = {
            "first_solve_s.torus_sine_64": f"solve:{ROOT / 'configs' / 'torus_sine.json'}",
            "first_solve_s.horosphere_32": f"solve:{ROOT / 'configs' / 'horosphere.json'}",
            **{f"build.{n}": f"build:{n}" for n in (64, 257, 513)},
            "cap513": f"cli:{cap513}",
        }
        samples = {tree: {name: [] for name in jobs} for tree in ("before", "after")}
        for _ in range(args.repeats):
            for name, what in jobs.items():
                for tree in ("before", "after"):
                    src = os.path.abspath(getattr(args, tree))
                    samples[tree][name].append(run(src, what, scratch, args.blas_threads))

    def medians(runs):
        out = {}
        for name, values in runs.items():
            if name.startswith("first_solve_s"):
                out[name] = statistics.median(v["s"] for v in values)
            elif name.startswith("build"):
                n = name.split(".")[1]
                out[f"build_s.{n}"] = statistics.median(v["s"] for v in values)
                out[f"build_bytes.{n}"] = statistics.median(v["bytes"] for v in values)
            else:
                out["cap513_wall_s"] = statistics.median(v["wall_s"] for v in values)
                out["cap513_vmhwm_mib"] = statistics.median(v["vmhwm_kib"] for v in values) / 1024
        return out

    doc = {"machine": machine(args.blas_threads), "repeats": args.repeats,
           "before": medians(samples["before"]), "after": medians(samples["after"])}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
