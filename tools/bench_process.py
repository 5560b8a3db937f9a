"""Time whole CLI processes of two source trees, each run in a fresh
interpreter, and write the medians and quartiles as JSON.

    python tools/bench_process.py OUT.json --before OLD/src --after src

A process's fixed cost is the interpreter, the numpy import, the package
import and the interpreter's exit; `main` is all the rest.  Each case runs
one subcommand on a shipped config: `solve` on torus_sine (64x64) and on
horosphere (32x32), and `reparam` on warped_radial.  For each run:

- `import_s`: `import pmcgraph.cli`, numpy already imported;
- `main_s`: `pmcgraph.cli.main(argv)`;
- `exit_s`: from `main`'s return (and the read of `VmHWM`) to the
  parent's `wait4` on the process, both read from CLOCK_MONOTONIC, which
  is one clock for every process;
- `wall_s`: the whole process, from its spawn to that `wait4`;
- `vmhwm_mib`: the peak resident memory (`VmHWM`) the process reads from
  /proc/self/status once `main` has returned.

One untimed run of each case per tree first writes the trees' bytecode,
as an installed package has it; the children may write bytecode whatever
`PYTHONDONTWRITEBYTECODE` says, or a stale or missing .pyc would be
compiled anew in every import timed.  Then each of REPEATS rounds runs
every case once per tree, the tree that goes first alternating from
round to round, so that a drift of the host's speed hits both alike.
`wins` counts, per case and metric, the rounds in which the new tree read
lower.  The children run with `OPENBLAS_NUM_THREADS` pinned to
BLAS_THREADS; the output's first key holds the machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_stencils import machine

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("import_s", "main_s", "exit_s", "wall_s", "vmhwm_mib")
REPEATS = 20
BLAS_THREADS = 1

# run in the child: argv is the source tree, then the CLI's argv; prints one
# JSON line as the last thing before the interpreter exits
CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy
t = time.monotonic()
import pmcgraph.cli
t_main = time.monotonic()
code = pmcgraph.cli.main(sys.argv[2:])
t_ret = time.monotonic()
status = dict(line.split(":", 1) for line in open("/proc/self/status") if ":" in line)
print(json.dumps({"import_s": t_main - t, "main_s": t_ret - t_main, "returned": time.monotonic(),
                  "vmhwm_kib": int(status["VmHWM"].split()[0]), "exit": code}), flush=True)
sys.exit(code)
"""


def run(src, argv, scratch):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with open(os.path.join(scratch, "stderr.txt"), "w+") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", CHILD, src, *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        _, status, _ = os.wait4(proc.pid, 0)
        reaped = time.monotonic()
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{' '.join(argv[:3])} exited {proc.returncode} on {src}:\n"
                               + err.read())
    value = json.loads(out.decode().strip().splitlines()[-1])
    return {"import_s": value["import_s"], "main_s": value["main_s"],
            "exit_s": reaped - value["returned"], "wall_s": reaped - spawned,
            "vmhwm_mib": value["vmhwm_kib"] / 1024}


def summary(runs):
    out = {}
    for name in METRICS:
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out")
    ap.add_argument("--before", required=True, help="the src/ directory of the old tree")
    ap.add_argument("--after", default=str(ROOT / "src"), help="the src/ of the new tree")
    args = ap.parse_args(argv)

    trees = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    with tempfile.TemporaryDirectory() as scratch:
        outputs = ["--out-report", os.path.join(scratch, "report.json")]
        cases = {
            "solve.torus_sine_64": ["solve", "--config", str(ROOT / "configs" / "torus_sine.json"),
                                    *outputs, "--out-field", os.path.join(scratch, "field.csv")],
            "solve.horosphere_32": ["solve", "--config", str(ROOT / "configs" / "horosphere.json"),
                                    *outputs, "--out-field", os.path.join(scratch, "field.csv")],
            "reparam.warped_radial": ["reparam", "--config",
                                      str(ROOT / "configs" / "warped_radial.json"), *outputs],
        }
        for case, cli_argv in cases.items():
            for tree in trees.values():
                run(tree, cli_argv, scratch)
        samples = {tree: {case: [] for case in cases} for tree in trees}
        for round_ in range(REPEATS):
            order = ("before", "after") if round_ % 2 == 0 else ("after", "before")
            for case, cli_argv in cases.items():
                for tree in order:
                    samples[tree][case].append(run(trees[tree], cli_argv, scratch))

    wins = {case: {name: sum(a[name] < b[name] for a, b in zip(samples["after"][case],
                                                               samples["before"][case]))
                   for name in METRICS}
            for case in cases}
    doc = {"machine": machine(BLAS_THREADS), "repeats": REPEATS,
           "before": {case: summary(runs) for case, runs in samples["before"].items()},
           "after": {case: summary(runs) for case, runs in samples["after"].items()},
           "wins": wins}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
