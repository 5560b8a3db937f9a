"""Write the CLI's outputs for every shipped config into one directory.

Runs `solve`, `check-monotone`, `check-barrier`, `transform`, `reparam`,
`diagnose` and `eval-residual` (of the field `solve` wrote) on each config
under `configs/`, plus the several-solutions problem of ROADMAP item 10,
horosphere in a working box that leaves little room around its barriers,
cap at the explicit penalty 0.1, which penalizes every sweep of a
prescription that does not rise in height, torus_sine at the explicit
penalty 1.9064653208705127, the one its
`auto` penalty was before it was sized to the barrier slab, which keeps that
older path of fixed-penalty sweeps in the comparison, and torus_sine with a
prescription whose height slope varies along x1, so that its first Jacobian
is not translation-invariant and the fast-transform preconditioner is not
exact for it, cap split
as h1 = 2, h2 = 0, which runs the quasi-decreasing solve with its refinement
block and a split diagnose between curved barriers, the same split in 1-D
(h1 = 1 over 65 dirichlet nodes, barriers about the arc sqrt(1 - x1^2)),
the one 1-D quasi-decreasing solve and the one 1-D |A|^2 in a report, and
warped_radial between barriers of polar lines, r cos(x1 - 0.5) = const,
the one warped solve (warped_radial alone has no barriers, so its solve
exits 2).
Every run writes `<command>/<case>.json` (the report), `<command>/<case>.csv`
(the field or table, when the command writes one) and `<command>/<case>.log`
(exit code, stdout and stderr).  Paths in the reports are relative to the
output directory, so the outputs of two checkouts compare with `diff -r`:

    python tools/run_list.py OUT_NEW
    python tools/run_list.py OUT_OLD --repo path/to/other/checkout
    diff -r OUT_OLD OUT_NEW

or, in one command, against the `src/` and `configs/` of a commit of the
checkout, extracted by `git archive` into a temporary directory; the paths
whose contents differ are printed, and any difference exits 1:

    python tools/run_list.py OUT_NEW --against HEAD~1

Under each differing `.json` report goes each changed leaf of the report,
as a dotted path such as `rows[1].final_residual: old -> new`: dicts and
lists of equal length are compared entry by entry, anything else whole, a
list of more than four entries shown as its length and last entry.  Under
each differing `.csv` goes the largest absolute difference of its numbers.

Runs go one at a time, each in its own interpreter, with the package
imported from `<repo>/src`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("solve", "check-monotone", "check-barrier", "transform", "reparam",
            "diagnose", "eval-residual")

# ROADMAP item 10: H > 0 between u1 and 1, so u = 1 is the minimal solution
SEVERAL_SOLUTIONS = {
    "version": 1,
    "grid": {"dimension": 1, "shape": [32], "lengths": [1.0], "topology": ["periodic"]},
    "pmc": {"expr": "0.02*sin(3.141592653589793*z)"},
    "conformal": "product",
    "barriers": {"u1": "0.05", "u0": "3.5"},
    "solver": {"max_outer": 3000},
}

# case -> (config file under the output's configs/, extra overrides)
EXTRA = {
    "several_solutions": ("several_solutions.json", ()),
    "horosphere_tight_box": ("horosphere.json", ("box=[0.79,1.26]",)),
    "cap_explicit_gamma": ("cap.json", ("solver.gamma=0.1",)),
    "cap_split": ("cap.json", ('pmc={"h1": "2", "h2": "0"}',)),
    "torus_sine_explicit_gamma": ("torus_sine.json", ("solver.gamma=1.9064653208705127",)),
    "torus_sine_x_slope": ("torus_sine.json", (
        "pmc.expr=0.5*sin(z)*(1 + 0.1*sin(6.283185307179586*x1))"
        " + 0.1*sin(6.283185307179586*x1)",)),
    "cap_1d_split": ("cap.json", (
        'grid={"dimension": 1, "shape": [65], "lengths": [1.0], "topology": ["dirichlet"],'
        ' "origin": [-0.5]}',
        'pmc={"h1": "1", "h2": "0"}',
        'barriers={"u1": "sqrt(1 - x1^2) - 0.1", "u0": "sqrt(1 - x1^2) + 0.1",'
        ' "psi": "sqrt(1 - x1^2)"}')),
    "warped_polar_lines": ("warped_radial.json", (
        'barriers={"u1": "0.25 - ln(cos(x1 - 0.5))", "u0": "0.35 - ln(cos(x1 - 0.5))",'
        ' "psi": "0.3 - ln(cos(x1 - 0.5))"}',)),
}


def run(repo, out, case, config, overrides, command):
    folder = out / command
    folder.mkdir(exist_ok=True)
    argv = [sys.executable, "-m", "pmcgraph.cli", command,
            "--config", f"configs/{config}",
            "--out-report", f"{command}/{case}.json",
            "--out-field", f"{command}/{case}.csv"]
    for item in overrides:
        argv += ["--override", item]
    if command == "eval-residual":
        argv += ["--override", f"field=solve/{case}.csv"]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    proc = subprocess.run(argv, cwd=out, env=env, capture_output=True, text=True)
    (folder / f"{case}.log").write_text(
        f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")
    return proc.returncode


def run_all(repo, out):
    """Write every case's outputs of the checkout `repo` into `out`."""
    if out.exists():
        shutil.rmtree(out)
    (out / "configs").mkdir(parents=True)
    cases = {}
    for path in sorted((repo / "configs").glob("*.json")):
        shutil.copy(path, out / "configs" / path.name)
        cases[path.stem] = (path.name, ())
    (out / "configs" / "several_solutions.json").write_text(
        json.dumps(SEVERAL_SOLUTIONS, indent=2) + "\n")
    cases.update(EXTRA)
    for case, (config, overrides) in cases.items():
        codes = [run(repo, out, case, config, overrides, c) for c in COMMANDS]
        print(case, " ".join(f"{c}={code}" for c, code in zip(COMMANDS, codes)), flush=True)


def archive(repo, rev, dest):
    """Extract the `src/` and `configs/` of commit `rev` of `repo` into `dest`."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", rev, "src", "configs"],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def differences(a, b):
    """Paths, relative to the trees `a` and `b`, of the files that are in
    one tree only or whose bytes differ."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for root in (a, b)]
    return sorted(str(p) for p in (files[0] ^ files[1]) | {
        p for p in files[0] & files[1] if (a / p).read_bytes() != (b / p).read_bytes()})


def shown(value):
    """A report value on one line: a list of more than four entries as its
    length and last entry."""
    if isinstance(value, list) and len(value) > 4:
        return f"[{len(value)} entries, last {json.dumps(value[-1])}]"
    return json.dumps(value, sort_keys=True)


def numbers(path):
    """The numbers of a CSV file, in order; its comment and header lines
    hold none."""
    out = []
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            for cell in line.split(","):
                try:
                    out.append(float(cell))
                except ValueError:
                    pass
    return out


ABSENT = object()


def changed_leaves(a, b, path=""):
    """(path, old, new) of each leaf where the report values `a` and `b`
    differ, ABSENT for a key only one side has: dicts are compared key by
    key and lists of equal length entry by entry, anything else whole."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [leaf for key in sorted(a.keys() | b.keys()) for leaf in changed_leaves(
            a.get(key, ABSENT), b.get(key, ABSENT), f"{path}.{key}" if path else key)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [leaf for i, (x, y) in enumerate(zip(a, b))
                for leaf in changed_leaves(x, y, f"{path}[{i}]")]
    return [] if a == b else [(path, a, b)]


def describe(old, new):
    """Lines saying how the file `new` differs from `old`: the changed
    leaves of a `.json` report, or the largest absolute difference of the
    numbers of a `.csv`."""
    if not (old.is_file() and new.is_file()):
        return [f"  only in {'new' if new.is_file() else 'old'}"]
    if old.suffix == ".json":
        a, b = (json.loads(p.read_text()) for p in (old, new))

        def value(v):
            return "(absent)" if v is ABSENT else shown(v)

        return [f"  {path}: {value(x)} -> {value(y)}" for path, x, y in changed_leaves(a, b)]
    if old.suffix == ".csv":
        a, b = numbers(old), numbers(new)
        if len(a) != len(b):
            return [f"  {len(a)} -> {len(b)} numbers"]
        largest = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
        return [f"  largest absolute difference {largest:.3g}"]
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory (replaced)")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and configs/ to run (default: this one)")
    parser.add_argument("--against", metavar="REV",
                        help="also run commit REV of the checkout and compare the outputs")
    args = parser.parse_args(argv)
    repo, out = args.repo.resolve(), args.out.resolve()
    run_all(repo, out)
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        old = Path(tmp) / "repo"
        archive(repo, args.against, old)
        print(f"--- {args.against}", flush=True)
        run_all(old, Path(tmp) / "out")
        changed = differences(Path(tmp) / "out", out)
        for path in changed:
            print(f"differs: {path}")
            for line in describe(Path(tmp) / "out" / path, out / path):
                print(line)
    print(f"{len(changed)} of the outputs differ from {args.against}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
