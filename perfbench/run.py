"""End-to-end and per-layer benchmark of the pmcgraph CLI.

Run it from the root of a pmcgraph checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

It drives the CLI from `src/` as a user would, one process at a time
(a closed loop of one client), on the workloads of workloads.py; the seed
varies only inputs that keep each problem and its reference intact.

With `--trace 0` it times untraced CLI processes for about S seconds
(at least two) and reports, as medians over them:

- `wall_s`: spawn of the CLI process until it exits;
- `solve_s`: in-process wall time of `pmcgraph.cli.main(argv)`, with the
  package already imported;
- `setup_s`: a fresh interpreter importing `pmcgraph.cli` and running
  `validate_config` on the workload's config (median of several);

These three are host-speed-scaled seconds: a shared host's speed can
wander by tens of percent from minute to minute, so a fixed reference task
(hostspeed.py) runs between the CLI processes, and the run's times are
scaled by the reference task's nominal duration over its mean duration in
the run. The unscaled medians and every reference time are printed on
the JSON line before the result. The other two metrics are not scaled:

- `peak_rss_mb`: peak resident memory of the CLI process;
- `ok_frac`: runs that passed the correctness gate over runs attempted
  (1 - fail_frac; a metric that is never 0).

With `--trace 1` it makes one untraced and one traced CLI run and reports
the per-layer metrics named in BENCHMARK.json: calls, busy and self time
of the wrapped layer functions (spans.py), the solver's step counters, the
cumulative import times from `-X importtime`, `trace.overhead_s`, the
traced minus the untraced `solve_s` of that single pair (so within the
run-to-run noise of `solve_s`), and `trace.span_cost_s`, the spans
recorded times the cost of one span timed in the traced process.

A run fails the gate when the CLI exits non-zero, when a solve report lacks
a true `converged` or `consistency_ok`, when the output misses its
reference (workloads.py), or when its report is not byte-identical to, or
its counters differ from, the first run of the same seed on the same
source tree. The `diagnose` command and the `analysis` module are not
exercised; perfbench/predictions.json lists what else is left out.

Every result is preceded on stdout by a JSON line recording the machine:
processor count, CPU model, Python/numpy/scipy versions and the OpenBLAS
thread setting the CLI ran with. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

# OpenBLAS threads of every child and of this process's reference task: one
# a processor, whatever the caller's environment says, since the thread
# count moves the solve times. Set before numpy is first imported.
THREADS = len(os.sched_getaffinity(0))
os.environ["OPENBLAS_NUM_THREADS"] = str(THREADS)

from hostspeed import REFERENCE_S, ReferenceTask  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUPS = 4          # fresh interpreters timed for setup_s, after one warm-up
MIN_RUNS = 2        # CLI runs per timed run, however long each takes
TIMEOUT_S = 150     # a single child process is killed after this


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine_record():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas_num_threads": THREADS,
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # let the package's bytecode be cached, as for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args, env, stderr_path):
    """Run one child to completion -> (exit code, wall seconds, peak RSS MiB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def inputs_hash(config, machine):
    """Hash of the machine record, the package sources and the generated
    config: the last bits of a solve may change with any of them."""
    h = hashlib.sha256(json.dumps(machine, sort_keys=True).encode())
    h.update(config.read_bytes())
    for path in sorted((ROOT / "src" / "pmcgraph").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _stderr_tail(path):
    text = Path(path).read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else "(no stderr)"


class Case:
    """One workload at one seed: its generated inputs, outputs and reference."""

    def __init__(self, workload, seed, machine):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-s{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        cfg, self.params = workload.make(seed)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(cfg, indent=2) + "\n")
        rel = self.dir.relative_to(ROOT)
        self.report = self.dir / "report.json"
        self.out = self.dir / ("table.csv" if workload.subcommand == "reparam" else "field.csv")
        self.argv = [workload.subcommand, "--config", str(rel / "config.json"),
                     "--out-report", str(rel / "report.json"),
                     "--out-field", str(rel / self.out.name)]
        self.env = child_env()
        self.src_dir = str(ROOT / "src") + os.sep
        # first passing run of this seed on these sources and this machine
        self.ref_path = self.dir / f"reference-{inputs_hash(self.config, machine)}.json"
        self.ref = json.loads(self.ref_path.read_text()) if self.ref_path.exists() else {}

    def against_reference(self, key, value):
        if key not in self.ref:
            self.ref[key] = value
            self.ref_path.write_text(json.dumps(self.ref, indent=2, sort_keys=True) + "\n")
            return []
        if self.ref[key] != value:
            return [f"{key} {value} differs from the first run of this seed: {self.ref[key]}"]
        return []

    def setup(self):
        """-> setup seconds of one fresh interpreter."""
        timing = self.dir / "setup.json"
        timing.unlink(missing_ok=True)
        code, _, _ = spawn([str(HERE / "invoke.py"), "setup", str(timing), str(self.config)],
                           self.env, self.dir / "setup.err")
        if code != 0 or not timing.exists():
            raise RuntimeError(f"setup exited {code}: {_stderr_tail(self.dir / 'setup.err')}")
        out = json.loads(timing.read_text())
        if not out["cli_file"].startswith(self.src_dir):
            raise RuntimeError(f"imported pmcgraph from {out['cli_file']}, not {self.src_dir}")
        return out["setup_s"]

    def run_cli(self, trace_path=None):
        """One CLI process -> (measurement dict, problems list)."""
        timing = self.dir / "timing.json"
        for stale in (timing, self.report, self.out):
            stale.unlink(missing_ok=True)
        code, wall, rss = spawn(
            [str(HERE / "invoke.py"), "cli", str(timing),
             str(trace_path) if trace_path else "-", "--", *self.argv],
            self.env, self.dir / "cli.err")
        run = {"wall_s": wall, "peak_rss_mb": rss}
        if code != 0:
            return run, [f"exit code {code}: {_stderr_tail(self.dir / 'cli.err')}"]
        try:
            run.update(json.loads(timing.read_text()))
            raw = self.report.read_bytes()
            run["report"] = report = json.loads(raw)
            problems = self.workload.check(report, self.out, self.params)
        except (OSError, ValueError) as exc:
            return run, [f"unreadable output: {exc}"]
        if not run["cli_file"].startswith(self.src_dir):
            problems.append(f"imported pmcgraph from {run['cli_file']}, not {self.src_dir}")
        if not problems:
            problems += self.against_reference(
                "report_sha256", hashlib.sha256(raw).hexdigest())
            problems += self.against_reference(
                "counters", self.workload.counters(report))
        return run, problems


def _median(values):
    return statistics.median(values) if values else None


def _record(failures, problems, what):
    if problems:
        failures.append(what)
        for p in problems:
            print(f"perfbench: {what}: {p}", file=sys.stderr)


def timed(case, seconds):
    """Untraced runs for about `seconds` -> (attempted, failed, metrics, raw).

    The reference task (hostspeed.py) runs after the set-up batch and
    after every CLI process; the run's times are scaled by
    REFERENCE_S over the mean of its reference times. `raw` holds the
    unscaled medians and every reference time.
    """
    case.setup()  # warm the page cache and the bytecode cache
    reference = ReferenceTask()
    setups = [case.setup() for _ in range(SETUPS)]
    references = [reference.run()]
    runs, failures = [], []
    start = time.perf_counter()
    while True:
        run, problems = case.run_cli()
        runs.append(run)
        references.append(reference.run())
        print(f"perfbench: {case.workload.name} run {len(runs)}: wall {run['wall_s']:.3f} s, "
              f"solve {run.get('solve_s', float('nan')):.3f} s, "
              f"reference task {references[-1]:.3f} s", file=sys.stderr)
        _record(failures, problems, f"{case.workload.name} run {len(runs)}")
        elapsed = time.perf_counter() - start
        # stop where the run ends nearest to `seconds`
        if len(runs) >= MIN_RUNS and elapsed + elapsed / len(runs) / 2 > seconds:
            break
    raw = {
        "wall_s": _median([r["wall_s"] for r in runs]),
        "solve_s": _median([r["solve_s"] for r in runs if "solve_s" in r]),
        "setup_s": _median(setups),
        "reference_task_s": references,
    }
    scale = REFERENCE_S / statistics.fmean(references)
    metrics = {
        "wall_s": raw["wall_s"] * scale,
        "solve_s": raw["solve_s"] * scale if raw["solve_s"] is not None else None,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        "ok_frac": (len(runs) - len(failures)) / len(runs),
    }
    return len(runs), len(failures), metrics, raw


def import_times(case):
    """-> (cli.import_s, geometry.import_s) from `-X importtime`.

    Each entry's figure is cumulative: the module's own body plus every
    module first imported while it ran. `cli.import_s` is the whole of
    `import pmcgraph.cli`, the sum of the package's top-level entries. On
    CPython that is the `pmcgraph.cli` entry alone: it nests the package
    `pmcgraph`, whose `__init__` imports every other module, numpy and scipy.
    """
    err = case.dir / "importtime.err"
    code, _, _ = spawn(["-X", "importtime", "-c", "import pmcgraph.cli"], case.env, err)
    if code != 0:
        raise RuntimeError(f"import failed: {_stderr_tail(err)}")
    cumulative, cli = {}, 0.0
    for line in err.read_text().splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                module = name.strip()
                cumulative[module] = int(cum) / 1e6
                top_level = len(name) - len(name.lstrip()) <= 1
                if top_level and module.split(".")[0] == "pmcgraph":
                    cli += cumulative[module]
    return cli, cumulative["pmcgraph.geometry"]


def traced(case, layer_names):
    """One untraced and one traced run -> (attempted, failed, metrics)."""
    from spans import summarize

    case.setup()  # warm the page cache and the bytecode cache
    cli_import_s, geometry_import_s = import_times(case)
    failures = []
    plain, problems = case.run_cli()
    _record(failures, problems, f"{case.workload.name} untraced run")
    trace_path = case.dir / "trace.npz"
    trace_path.unlink(missing_ok=True)
    run, problems = case.run_cli(trace_path)
    if not problems:
        s = summarize(trace_path)
        layers, counts = s["layers"], s["counts"]
        problems = case.against_reference("trace_counters", {
            "sweeps": run["report"].get("outer_count") or 0,
            "newton_steps": counts["newton_steps"],
            "ptc_steps": counts["ptc_steps"],
            "spsolve_calls": layers["solver.spsolve"]["calls"],
            "assemble_calls": layers["solver.assemble_jacobian"]["calls"],
        })
    _record(failures, problems, f"{case.workload.name} traced run")
    if failures:
        return 2, len(failures), {}
    evals = s["residual_evals"]
    metrics = {
        "cli.import_s": cli_import_s,
        "geometry.import_s": geometry_import_s,
        "solver.sweeps": run["report"].get("outer_count") or 0,
        "solver.newton_steps": counts["newton_steps"],
        "solver.ptc_steps": counts["ptc_steps"],
        "solver.linesearch_accept_ratio": counts["newton_steps"] / evals if evals else 0.0,
        "solver.jacobian_nnz": counts["jacobian_nnz"],
        "solver.spsolve.unknowns": counts["spsolve_unknowns"],
        "pmc.sample_points": counts["sample_points"],
        "trace.overhead_s": run["solve_s"] - plain["solve_s"],
        "trace.span_cost_s": s["spans"] * run["span_cost_s"],
    }
    for name in layer_names:
        if name not in metrics:
            span, _, field = name.rpartition(".")
            metrics[name] = layers[span][field]
    return 2, 0, metrics


def run_workload(workload, seed, seconds, trace, spec):
    machine = machine_record()
    case = Case(workload, seed, machine)
    print(json.dumps({"workload": workload.name, "seed": seed, "params": case.params,
                      "machine": machine}), flush=True)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        attempted, failed, values = traced(case, [m["name"] for m in declared])
    else:
        attempted, failed, values, raw = timed(case, seconds)
        print(json.dumps({"workload": workload.name, "unscaled_medians": raw}), flush=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if values.get(m["name"]) is not None}
    return {"correct": failed == 0 and len(metrics) == len(declared),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind like an interrupt, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "pmcgraph" / "cli.py").is_file():
        return fail(f"no pmcgraph sources under {ROOT / 'src'}; run from a checkout root")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         args.trace, spec)
        except RuntimeError as exc:
            return fail(f"{name}: {exc}")
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        for metric, v in result["metrics"].items():
            print(f"{name:22s} {metric:42s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": v for name, r in results.items()
                    for metric, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
