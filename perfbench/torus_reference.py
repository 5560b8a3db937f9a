"""Write torus_reference.json, the reference of the torus_penalized
workload: the x1 profile of its solution at forcing phase 0.

Run it from the root of a pmcgraph checkout, on the sources the reference
should stand for:

    python3 perfbench/torus_reference.py

It solves the phase-0 config with the CLI from `src/`, checks that the
field does not depend on x2, and writes its x1 profile with every digit.
"""

import json
import sys

import numpy as np

from run import HERE, ROOT, WORK, child_env, spawn
from workloads import TorusPenalized, read_field


def main():
    out = WORK / "torus-reference"
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(TorusPenalized.config(0), indent=2) + "\n")
    rel = out.relative_to(ROOT)
    code, _, _ = spawn([str(HERE / "invoke.py"), "cli", str(out / "timing.json"), "-", "--",
                        "solve", "--config", str(rel / "config.json"),
                        "--out-report", str(rel / "report.json"),
                        "--out-field", str(rel / "field.csv")],
                       child_env(), out / "cli.err")
    if code != 0:
        print(f"torus_reference: the solve exited {code}; see {out / 'cli.err'}", file=sys.stderr)
        return 1
    u = read_field(out / "field.csv").reshape(64, 64)
    spread = float(np.max(np.abs(u - u[:, :1])))
    if spread > TorusPenalized.TOL:
        print(f"torus_reference: the field varies by {spread:.3e} along x2", file=sys.stderr)
        return 1
    reference = {"about": "x1 profile of the torus_penalized solution at phase 0, "
                          "solved by the pmcgraph sources this benchmark was added with",
                 "profile": [float(v) for v in u[:, 0]]}
    TorusPenalized.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {TorusPenalized.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
