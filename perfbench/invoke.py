"""Child process of the benchmark: one timed pmcgraph action in a fresh
interpreter, its timings written as JSON.

    python3 perfbench/invoke.py setup TIMING_JSON CONFIG
    python3 perfbench/invoke.py cli TIMING_JSON TRACE_NPZ|- -- CLI_ARGS...

`setup` times importing `pmcgraph.cli` plus `validate_config` on CONFIG,
from the first statement of this interpreter: {"setup_s", "cli_file"}.

`cli` imports `pmcgraph.cli`, then times `pmcgraph.cli.main(CLI_ARGS)` with
the package already imported: {"solve_s", "cli_file"}.
With a TRACE_NPZ path the layers are traced (see spans.py), the spans
are written there when main returns, and the timings gain "span_cost_s",
the time one span adds to a call in this process. The process exits with
the CLI's own exit code, so the parent's spawn-to-exit time and peak RSS
are those of a CLI run.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def setup(timing_path, config_path):
    import pmcgraph.cli as cli

    with open(config_path) as fh:
        cli.validate_config(json.load(fh))
    setup_s = time.perf_counter() - T0
    with open(timing_path, "w") as fh:
        json.dump({"setup_s": setup_s, "cli_file": os.path.abspath(cli.__file__)}, fh)
    return 0


def run_cli(timing_path, trace_path, sep, *argv):
    if sep != "--":
        raise SystemExit("usage: invoke.py cli TIMING_JSON TRACE_NPZ|- -- CLI_ARGS...")
    import pmcgraph.cli as cli

    tracer = None
    if trace_path != "-":
        from spans import Tracer, span_cost

        tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}").install()
    t1 = time.perf_counter()
    code = cli.main(list(argv))
    solve_s = time.perf_counter() - t1
    timing = {"solve_s": solve_s, "cli_file": os.path.abspath(cli.__file__)}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(trace_path)
        timing["span_cost_s"] = span_cost()
    with open(timing_path, "w") as fh:
        json.dump(timing, fh)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "cli": run_cli}[mode](*rest))
