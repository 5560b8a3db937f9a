"""Command-line front end: config validation, subcommands, exit codes,
deterministic artifacts.

Everything runs in-process through cli.main(argv) — same code path as the
console script, without subprocess overhead — except the import checks,
which need a fresh interpreter.  Exit-code contract: 0 pass,
1 check failed, 2 bad config, 3 solver failure.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmcgraph
from pmcgraph.cli import (
    CLIConfigError,
    apply_override,
    canonical_json,
    config_hash,
    emit_report,
    main,
    validate_config,
)
from pmcgraph.grid import build_grid, constant_field, read_field_csv, write_field_csv
from pmcgraph.pmc import WorkingBox

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg_path(name):
    return os.path.join(CONFIGS, name)


def run(args):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def small_torus(extra=()):
    """The periodic sine problem shrunk to test size via overrides."""
    return ["--config", cfg_path("torus_sine.json"),
            "--override", "grid.shape=[16, 16]", *extra]


# ---------------------------------------------------------------------------
# canonical rendering and report emission


def test_canonical_json_sorts_keys_and_formats_floats():
    text = canonical_json({"b": 0.1, "a": 1.0, "c": [True, None, 7]})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.10000000000000001" in text  # 17 significant digits
    assert '"a": 1,' in text
    assert "true" in text and "null" in text
    json.loads(text)  # stays valid JSON


def test_canonical_json_handles_numpy_and_nonfinite():
    text = canonical_json({
        "i": np.int64(3),
        "x": np.float64(0.5),
        "flag": np.bool_(True),
        "bad": float("nan"),
        "worse": float("inf"),
        "arr": np.arange(3.0),
    })
    doc = json.loads(text)
    assert doc["i"] == 3 and doc["x"] == 0.5 and doc["flag"] is True
    assert doc["bad"] is None and doc["worse"] is None
    assert doc["arr"] == [0, 1, 2]


def test_emit_report_adds_version_and_config_hash(tmp_path):
    out = tmp_path / "r.json"
    emit_report({"config": {"k": 1}, "value": 2.0}, str(out))
    doc = read_json(out)
    assert doc["artifact_version"]
    assert doc["config_sha256"] == config_hash({"k": 1})
    assert len(doc["config_sha256"]) == 64


# ---------------------------------------------------------------------------
# config validation and overrides


def test_validate_normalizes_and_defaults():
    cfg = validate_config({
        "grid": {"dimension": 1, "shape": [9], "lengths": [1],
                 "topology": ["periodic"]},
        "pmc": {"expr": "-z"},
    })
    assert cfg["conformal"] == "product"
    assert cfg["barriers"] is None and cfg["box"] is None
    assert cfg["grid"]["lengths"] == [1.0]


def test_validate_rejects_bad_documents():
    base = {"grid": {"dimension": 1, "shape": [9], "lengths": [1.0],
                     "topology": ["periodic"]},
            "pmc": {"expr": "0"}}
    bad = [
        ({}, "grid section is required"),
        ({"grid": base["grid"]}, "pmc section is required"),
        ({**base, "pmc": {"expr": "0", "h1": "0", "h2": "0"}}, "not both"),
        ({**base, "pmc": {"h1": "-z"}}, "both h1 and h2"),
        ({**base, "mystery": 1}, "unknown top-level key"),
        ({**base, "grid": {**base["grid"], "topology": ["moebius"]}},
         "periodic"),
        ({**base, "conformal": {"f": "r", "warped": {}}}, "conformal"),
        ({**base, "box": [2.0, 1.0]}, "increasing"),
        ({**base, "barriers": {"u1": "0"}}, "u1 and u0"),
        ({**base, "barriers": {"u1": "0", "u0": "1",
                               "from_phi": {"phi": "0"}}}, "not both"),
        ({**base, "solver": {"warp_factor": 2}}, "unknown key"),
        # json reads NaN and +-Infinity, and integers no float can hold
        ({**base, "box": [0.0, math.inf]}, "box: z-range must contain finite"),
        ({**base, "grid": {**base["grid"], "origin": [math.nan]}},
         "grid: origin must contain finite"),
        ({**base, "grid": {**base["grid"], "lengths": [-math.inf]}},
         "grid: lengths must contain finite"),
        ({**base, "conformal": {"warped": {"h": "r", "interval": [1.0, math.nan]}}},
         "conformal: interval must contain finite"),
        ({**base, "solver": {"gamma": math.inf}}, "solver: gamma must be a finite"),
        ({**base, "solver": {"tol_outer": math.nan}},
         "solver: tol_outer must be a finite"),
        ({**base, "solver": {"tol_inner": 10 ** 400}},
         "solver: tol_inner must be a finite"),
        # the dimension is a JSON integer, as the node counts are
        ({**base, "grid": {**base["grid"], "dimension": 1.0}}, "grid: dimension"),
        ({**base, "grid": {**base["grid"], "dimension": "1"}}, "grid: dimension"),
        ({**base, "grid": {**base["grid"], "dimension": True}}, "grid: dimension"),
    ]
    for raw, needle in bad:
        with pytest.raises(CLIConfigError, match=needle):
            validate_config(raw)


def test_every_solver_config_field_but_box_is_a_solver_key():
    import dataclasses

    from pmcgraph.solver import SolveConfig

    base = {"grid": {"dimension": 1, "shape": [9], "lengths": [1.0],
                     "topology": ["periodic"]},
            "pmc": {"expr": "0"}}
    # the working box is a top-level key
    with pytest.raises(CLIConfigError, match="unknown key 'box'"):
        validate_config({**base, "solver": {"box": [0.0, 1.0]}})
    defaults = SolveConfig()
    for field in dataclasses.fields(SolveConfig):
        if field.name == "box":
            continue
        value = getattr(defaults, field.name)
        cfg = validate_config({**base, "solver": {field.name: value}})
        assert field.name in cfg["solver"]


def test_override_parses_json_with_string_fallback():
    raw = {"solver": {"tol_inner": 1e-10}}
    apply_override(raw, "solver.tol_inner=1e-6")
    apply_override(raw, "grid.shape=[5, 5]")
    apply_override(raw, "pmc.expr=-z")
    assert raw["solver"]["tol_inner"] == 1e-6
    assert raw["grid"]["shape"] == [5, 5]
    assert raw["pmc"]["expr"] == "-z"
    with pytest.raises(CLIConfigError, match="key=value"):
        apply_override(raw, "no-equals-sign")
    # the root is indexed too, and a document need not be an object
    with pytest.raises(CLIConfigError, match="non-object at the document root"):
        apply_override([1, 2], "a=1")


def test_numeric_override_of_expression_fields_is_accepted():
    cfg = validate_config({
        "grid": {"dimension": 1, "shape": [9], "lengths": [1.0],
                 "topology": ["periodic"]},
        "pmc": {"expr": "-z"},
        "barriers": {"u1": -1, "u0": 1.5},
    })
    assert cfg["barriers"]["u1"] == "-1.0"
    assert cfg["barriers"]["u0"] == "1.5"


def test_invalid_config_exits_2(tmp_path, capsys):
    assert run(["solve", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--config", str(bad)]) == 2
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert run(["solve", "--config", str(listed), "--override", "a=1"]) == 2
    # both prescription forms at once
    assert run(["solve", "--config", cfg_path("torus_sine.json"),
                "--override", "pmc.h1=0"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # node counts must be JSON integers: no strings, nulls, lists or floats
    for shape in ('["a", "b"]', "[null, 64]", "[[1], [2]]", "[64.7, 64]"):
        assert run(["check-barrier", "--config", cfg_path("torus_sine.json"),
                    "--override", f"grid.shape={shape}"]) == 2
        assert "grid: shape" in capsys.readouterr().err
    # non-finite numbers, which json reads, and a non-integer dimension
    for override, needle in (
            ("box=[0, Infinity]", "box: z-range"),
            ("grid.origin=[NaN, 0]", "grid: origin"),
            ("solver.gamma=Infinity", "solver: gamma"),
            ("solver.tol_outer=Infinity", "solver: tol_outer"),
            ("grid.dimension=2.7", "grid: dimension"),
            ('grid.dimension="2"', "grid: dimension")):
        for sub in ("solve", "check-monotone"):
            assert run([sub, "--config", cfg_path("torus_sine.json"),
                        "--override", override]) == 2, (sub, override)
            assert needle in capsys.readouterr().err


def test_solver_numbers_out_of_range_exit_2(capsys):
    # a negative allowance made the barrier tolerance negative; an even
    # sample count misses the normal poles
    for override, key in (("solver.allowance_constant=-1", "allowance_constant"),
                          ("solver.max_outer=0", "max_outer"),
                          ("solver.samples=4", "samples")):
        for sub in ("solve", "check-barrier"):
            assert run([sub, "--config", cfg_path("torus_sine.json"),
                        "--override", override]) == 2, (sub, override)
            assert f"solver: {key} must" in capsys.readouterr().err


def test_version_must_be_the_integer_one(capsys):
    for value in ("NaN", '{"a": [1]}', "2", "true", "1.0", '"1"', "null"):
        assert run(["check-barrier", "--config", cfg_path("cap.json"),
                    "--override", f"version={value}"]) == 2, value
        assert "version: must be the integer 1" in capsys.readouterr().err
    assert validate_config({"grid": {"dimension": 1, "shape": [9], "lengths": [1.0],
                                     "topology": ["periodic"]},
                            "pmc": {"expr": "0"}})["version"] == 1


def test_grid_whose_nodes_round_together_exits_2(capsys):
    # a 1/64 spacing is below the ulp at 1e17, so the nodes of axis 0 share
    # one coordinate: every subcommand refuses the grid, none reads it
    for sub in ("solve", "check-barrier", "check-monotone"):
        assert run([sub, "--config", cfg_path("torus_sine.json"),
                    "--override", "grid.origin=[1e17, 0]"]) == 2, sub
        assert "config error: grid: node coordinates must increase" in capsys.readouterr().err


def test_integer_past_the_conversion_limit_exits_2(tmp_path, capsys):
    # json raises a plain ValueError, not a JSONDecodeError, for these
    huge = "1" * 5000
    raw = json.loads(Path(cfg_path("torus_sine.json")).read_text())
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(raw).replace('"version": 1', f'"version": {huge}'))
    assert run(["check-barrier", "--config", str(doc)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err
    for override in (f"version={huge}", f"grid.shape=[{huge}, 64]"):
        assert run(["check-barrier", "--config", cfg_path("torus_sine.json"),
                    "--override", override]) == 2
        assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_small_torus_report_and_field(tmp_path):
    report = tmp_path / "r.json"
    field = tmp_path / "v.csv"
    code = run(["solve", *small_torus(), "--out-report", str(report),
                "--out-field", str(field)])
    assert code == 0
    doc = read_json(report)
    assert doc["converged"] is True
    assert doc["mode"] == "penalized"
    assert doc["final_residual"] <= 1e-6
    assert doc["subcommand"] == "solve"
    assert doc["config"]["grid"]["shape"] == [16, 16]
    assert doc["solution_path"] == str(field)
    assert field.exists()
    assert doc["config_sha256"] == config_hash(doc["config"])


def test_solve_split_prescription_reports_tilt(tmp_path):
    report = tmp_path / "r.json"
    code = run(["solve", "--config", cfg_path("quasi_decreasing.json"),
                "--override", "grid.shape=[16, 16]",
                "--out-report", str(report)])
    assert code == 0
    doc = read_json(report)
    assert doc["graphical"] is True
    assert doc["min_theta"] == 1.0
    assert "refinement" in doc and doc["refinement"]["stable"] is True


def test_split_cap_refines_between_rebuilt_barriers(tmp_path):
    # the cap's curved barriers, built anew on the refined grid, pass their
    # check there; interpolated from the coarse grid they failed it
    report = tmp_path / "r.json"
    code = run(["solve", "--config", cfg_path("cap.json"),
                "--override", 'pmc={"h1": "2", "h2": "0"}',
                "--out-report", str(report)])
    assert code == 0
    refinement = read_json(report)["refinement"]
    assert "error" not in refinement and refinement["stable"] is True


def test_solve_conformal_reports_conformal_residual(tmp_path):
    report = tmp_path / "r.json"
    code = run(["solve", "--config", cfg_path("horosphere.json"),
                "--override", "grid.shape=[12, 12]",
                "--out-report", str(report)])
    assert code == 0
    doc = read_json(report)
    assert doc["converged"] is True
    assert doc["conformal"]["mode"] == "conformal"
    # the level set of the transformed problem: -1 - z = -2 at z = 1
    assert abs(doc["sup_abs_u"] - 1.0) < 1e-4
    gamma = doc["gamma"]
    bound = math.e ** math.log(2.0) * (1e-10 + gamma * 1e-8)
    assert doc["conformal_residual_sup"] <= bound


@pytest.mark.parametrize("samples", [2, 4])
def test_even_sample_count_is_a_config_error(samples, capsys):
    # an even count misses the normal poles; at 2 the 2-D half-ball is empty
    code = run(["solve", "--config", cfg_path("cap.json"),
                "--override", f"solver.samples={samples}"])
    assert code == 2
    assert "samples" in capsys.readouterr().err


def test_odd_sample_count_solves(tmp_path):
    report = tmp_path / "r.json"
    code = run(["solve", "--config", cfg_path("cap.json"),
                "--override", "solver.samples=5", "--out-report", str(report)])
    assert code == 0
    assert read_json(report)["converged"] is True


def test_horosphere_certificates_sample_only_the_read_variables(tmp_path, monkeypatch):
    # the penalty certificate of the transformed prescription reads z and t
    # alone: 9 x 9 of the 9^3 x 281 lattice points
    sizes = []
    sample_lattice = WorkingBox.sample_lattice

    def counted(self, *args, **kwargs):
        env = sample_lattice(self, *args, **kwargs)
        sizes.append(env["z"].size)
        return env

    monkeypatch.setattr(WorkingBox, "sample_lattice", counted)
    code = run(["solve", "--config", cfg_path("horosphere.json"),
                "--out-report", str(tmp_path / "r.json")])
    assert code == 0
    assert sizes == [81]


def test_solve_split_with_conformal_metric_exits_2():
    code = run(["solve", "--config", cfg_path("quasi_decreasing.json"),
                "--override", 'conformal={"f": "-ln(r)"}'])
    assert code == 2


def test_split_with_conformal_metric_is_refused_alike_everywhere(capsys):
    errors = []
    for sub in ("solve", "check-barrier", "check-monotone", "transform", "diagnose"):
        code = run([sub, "--config", cfg_path("quasi_decreasing.json"),
                    "--override", 'conformal={"f": "-ln(r)"}'])
        assert code == 2, sub
        errors.append(capsys.readouterr().err)
    assert "product-metric only" in errors[0]
    assert errors == [errors[0]] * 5


def test_failed_solve_exits_3_with_partial_report(tmp_path):
    # the small torus takes three sweeps, the last one the direct solve
    report = tmp_path / "r.json"
    code = run(["solve", *small_torus(["--override", "solver.max_outer=2"]),
                "--out-report", str(report)])
    assert code == 3
    doc = read_json(report)
    assert doc["converged"] is False
    assert len(doc["residual_history"]) == 2
    assert doc["best_iterate_path"] == str(tmp_path / "r.best.csv")
    assert os.path.exists(doc["best_iterate_path"])
    assert doc["partial"]["outer_count"] == 2
    assert doc["partial"]["gamma_history"] == [doc["partial"]["gamma"]] * 2


def test_stagnating_line_search_exits_3_with_partial_report(
        tmp_path, monkeypatch, capsys):
    import pmcgraph.solver as solver

    # a tolerance below the residual's rounding floor, with the floor taken
    # away: the last sweep's line search stagnates at the rounding noise
    monkeypatch.setattr(solver, "FLOOR_ULPS", 0.0)
    report = tmp_path / "r.json"
    code = run(["solve", "--config", cfg_path("torus_sine.json"),
                "--override", "solver.tol_inner=1e-300", "--out-report", str(report)])
    assert code == 3
    doc = read_json(report)
    assert doc["error"].startswith("inner solve: line search stagnated")
    assert doc["partial"]["linear_solves"] > 0
    assert doc["best_iterate_path"] == str(tmp_path / "r.best.csv")
    assert os.path.exists(doc["best_iterate_path"])
    capsys.readouterr()
    # the line search's constants are not config keys
    assert run(["solve", "--config", cfg_path("torus_sine.json"),
                "--override", "solver.min_step=0.5"]) == 2
    assert "solver: unknown key 'min_step'" in capsys.readouterr().err


def test_several_solutions_config_returns_the_minimal_solution(tmp_path, monkeypatch):
    # the several-solutions config of tools/run_list.py: H = 0.02*sin(pi*z)
    # vanishes at every integer height, so u = 1 is the least of the
    # constant solutions between the barriers u1 = 0.05 and u0 = 3.5
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    from run_list import SEVERAL_SOLUTIONS

    config = tmp_path / "several_solutions.json"
    config.write_text(json.dumps(SEVERAL_SOLUTIONS))
    report, field = tmp_path / "r.json", tmp_path / "u.csv"
    code = run(["solve", "--config", str(config), "--out-report", str(report),
                "--out-field", str(field)])
    assert code == 0 and read_json(report)["consistency_ok"]
    assert np.max(np.abs(read_field_csv(str(field)).values - 1.0)) <= 1e-6


def test_run_list_describes_each_changed_leaf_of_a_report(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    from run_list import describe

    old = {"rows": [{"a": 1, "b": [1, 2]}, {"a": 2, "final_residual": 1e-11}],
           "k": 3, "gone": 1, "long": list(range(6))}
    new = {"rows": [{"a": 1, "b": [1, 2]}, {"a": 2, "final_residual": 2e-11}],
           "k": 3, "added": True, "long": list(range(7))}
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, doc in zip(paths, (old, new)):
        path.write_text(json.dumps(doc))
    # lists of one length are compared entry by entry, others whole
    assert describe(*paths) == [
        "  added: (absent) -> true",
        "  gone: 1 -> (absent)",
        "  long: [6 entries, last 5] -> [7 entries, last 6]",
        "  rows[1].final_residual: 1e-11 -> 2e-11"]


def test_explicit_gamma_holds_for_a_height_monotone_prescription(tmp_path):
    # cap's H = 2 does not rise in height, so its "auto" penalty is 0 and
    # its one sweep is the direct solve; an explicit gamma penalizes every
    # sweep and climbs to the same field
    fields = {}
    for name, extra in (("direct", ()), ("penalized", ("--override", "solver.gamma=0.1"))):
        report, fields[name] = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        assert run(["solve", "--config", cfg_path("cap.json"), *extra,
                    "--out-report", str(report), "--out-field", str(fields[name])]) == 0
        doc = read_json(report)
        assert doc["mode"] == name and doc["consistency_ok"] is True
    assert doc["gamma"] == 0.1 and doc["gamma_history"] == [0.1] * doc["outer_count"]
    assert doc["outer_count"] == 4 and doc["linear_solves"] == 7
    direct, penalized = (read_field_csv(str(fields[k])).values for k in ("direct", "penalized"))
    assert np.max(np.abs(penalized - direct)) <= 1e-9


def test_monotonicity_abort_exits_3_with_partial_report(tmp_path):
    # a penalty far below the certified one: the first sweep moves down
    report = tmp_path / "r.json"
    code = run(["solve", "--config", cfg_path("torus_sine.json"),
                "--override", "solver.gamma=0.001", "--out-report", str(report)])
    assert code == 3
    doc = read_json(report)
    assert doc["error"].startswith("outer sweep 1 moved down by 2.531e-01")
    assert doc["partial"]["outer_count"] == 1
    assert doc["partial"]["residual_history"] == doc["residual_history"]


@pytest.mark.parametrize("override", ["solver.max_newton=1", "solver.theta_threshold=0.5",
                                      "solver.cutoff=[0.2, 3.5]",
                                      "solver.refine_check=false"])
def test_solver_constants_are_no_config_keys(override, tmp_path, capsys):
    # the step budget, the graphical threshold, the plateau and the
    # refinement check are the solver's own, whatever the config says
    key = override.split("=")[0].split(".")[1]
    for sub in ("solve", "check-barrier"):
        assert run([sub, "--config", cfg_path("torus_sine.json"),
                    "--override", override,
                    "--out-report", str(tmp_path / "r.json")]) == 2, sub
        assert f"solver: unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("box, plateau", [([0.79, 1.26], (0.795, 1.255)),
                                          ([0.76, 1.3], (0.78, 1.275))],
                         ids=["tight", "wider"])
def test_default_cutoff_plateau_fits_an_explicit_box(box, plateau, tmp_path):
    # horosphere's barriers span [0.8, 1.25]; padding them by 10% of that
    # span would reach past a box this tight, so each end takes half its gap
    report = tmp_path / "r.json"
    code = run(["solve", "--config", cfg_path("horosphere.json"),
                "--override", f"box={json.dumps(box)}",
                "--out-report", str(report)])
    assert code == 0
    doc = read_json(report)
    assert doc["converged"] is True and doc["consistency_ok"] is True
    assert (doc["cutoff"]["c1"], doc["cutoff"]["c2"]) == pytest.approx(plateau, abs=1e-12)


def test_bad_boundary_trace_of_from_phi_barriers_exits_2(tmp_path, capsys):
    # psi is checked on the config's grid before any barrier is built, as
    # for explicit barriers, so its errors are config errors
    doc = tmp_path / "phi.json"
    doc.write_text(json.dumps({
        "version": 1,
        "grid": {"dimension": 2, "shape": [17, 17], "lengths": [1.0, 1.0],
                 "topology": ["dirichlet", "dirichlet"]},
        "pmc": {"expr": "0.1*cos(z)"},
        "conformal": "product",
        "barriers": {"from_phi": {"base": "0", "phi": "0.1*cos(z)"}, "psi": "0"}}))
    for psi, needle in (("x1 +", "parse error at position 5"),
                        ("z", "unknown identifier 'z'")):
        for sub in ("solve", "check-barrier"):
            assert run([sub, "--config", str(doc), "--override", f"barriers.psi={psi}",
                        "--out-report", str(tmp_path / "r.json")]) == 2, (sub, psi)
            err = capsys.readouterr().err
            assert "config error: barriers: " in err and needle in err
    assert not (tmp_path / "r.json").exists()


def test_solve_with_bad_barriers_exits_1(tmp_path):
    report = tmp_path / "r.json"
    code = run(["solve", *small_torus(["--override", "barriers.u0=0.26"]),
                "--out-report", str(report)])
    assert code == 1
    assert "barrier check failed" in read_json(report)["message"]


# ---------------------------------------------------------------------------
# checks


def test_check_barrier_passes_on_shipped_configs(tmp_path):
    for name in ("torus_sine.json", "cap.json", "catenoid.json",
                 "quasi_decreasing.json", "horosphere.json"):
        report = tmp_path / "r.json"
        code = run(["check-barrier", "--config", cfg_path(name),
                    "--out-report", str(report)])
        doc = read_json(report)
        assert code == 0, name
        assert doc["passed"] is True
        assert doc["worst_sub"] <= doc["tol"]
        assert doc["worst_super"] >= -doc["tol"]


def test_check_barrier_matches_the_solve_barrier_check(tmp_path):
    # a conformal metric's barriers are checked against the pulled-back
    # prescription the solver runs, not against the conformal curvature
    args = ["--config", cfg_path("horosphere.json"),
            "--override", "grid.shape=[12, 12]"]
    checked, solved = tmp_path / "check.json", tmp_path / "solve.json"
    assert run(["check-barrier", *args, "--out-report", str(checked)]) == 0
    assert run(["solve", *args, "--out-report", str(solved)]) == 0
    chk, solve_chk = read_json(checked), read_json(solved)["barrier_check"]
    for key in ("passed", "worst_sub", "worst_super", "tol", "allowance_constant"):
        assert chk[key] == solve_chk[key], key
    # on the shipped 32 x 32 grid the conformal residual 0.00985 of this u1
    # exceeds the tolerance and its pullback does not; solve takes the
    # barriers (exit 1 would be its failed barrier check) and fails later
    bumped = ["--config", cfg_path("horosphere.json"),
              "--override", "barriers.u1=1.00985"]
    assert run(["check-barrier", *bumped, "--out-report", str(checked)]) == 0
    assert run(["solve", *bumped, "--out-report", str(solved)]) == 3
    assert "barrier check failed" not in read_json(solved)["error"]


def test_check_barrier_unordered_exits_1_naming_node(tmp_path):
    report = tmp_path / "r.json"
    code = run(["check-barrier", "--config", cfg_path("torus_sine.json"),
                "--override", "barriers.u1=1.0",
                "--override", "barriers.u0=0.5",
                "--out-report", str(report)])
    assert code == 1
    doc = read_json(report)
    assert doc["passed"] is False
    assert "node 0" in doc["message"]


def test_check_monotone_exit_codes(tmp_path):
    # 0.5 sin(z) increases somewhere in the slab: not monotone
    assert run(["check-monotone", "--config", cfg_path("torus_sine.json")]) == 1
    # the split decomposition -z / 0.3 is quasi-decreasing
    report = tmp_path / "r.json"
    code = run(["check-monotone", "--config", cfg_path("quasi_decreasing.json"),
                "--out-report", str(report)])
    assert code == 0
    assert read_json(report)["h2_height_free"] is True
    # a genuinely decreasing plain prescription
    assert run(["check-monotone", "--config", cfg_path("torus_sine.json"),
                "--override", "pmc.expr=-z"]) == 0


# ---------------------------------------------------------------------------
# transform and reparam tables


def test_transform_tabulates_both_prescriptions(tmp_path):
    report = tmp_path / "r.json"
    table = tmp_path / "t.csv"
    code = run(["transform", "--config", cfg_path("horosphere.json"),
                "--override", "solver.samples=5",
                "--out-report", str(report), "--out-field", str(table)])
    assert code == 0
    doc = read_json(report)
    with open(table) as fh:
        header = fh.readline().strip()
        rows = fh.readlines()
    assert header == "x1,x2,z,y1,y2,t,original,transformed"
    assert len(rows) == doc["rows"]
    # spot-check the identity H' = e^f H - n (Y . f_x + t f_r) at a row
    x1, x2, z, y1, y2, t, orig, trans = map(float, rows[-1].split(","))
    expected = (1.0 / z) * orig + 2.0 * t / z
    assert abs(trans - expected) < 1e-12


def test_one_dimensional_transform_table_has_the_base_columns(tmp_path):
    table = tmp_path / "t.csv"
    code = run(["transform", "--config", cfg_path("warped_radial.json"),
                "--override", 'pmc.expr="1 + x1 + 3*y1"',
                "--out-report", str(tmp_path / "r.json"), "--out-field", str(table)])
    assert code == 0
    with open(table) as fh:
        assert fh.readline().strip() == "x1,z,y1,t,original,transformed"
    data = np.loadtxt(table, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 4], 1.0 + data[:, 0] + 3.0 * data[:, 2])


@pytest.mark.parametrize("command, override, name", [
    *((command, 'pmc.expr="1 + 3*y2"', "y2")
      for command in ("solve", "check-monotone", "transform")),
    *((command, 'conformal={"f": "-ln(r) + 0.1*x2"}', "x2")
      for command in ("solve", "check-monotone", "transform")),
    ("solve", 'barriers={"from_phi": {"phi": "0.1*y2"}, "psi": "0.5"}', "y2"),
])
def test_one_dimensional_config_reading_a_second_axis_exits_2(command, override, name,
                                                              capsys):
    # prescriptions and factors read only their grid's variables, as fields do
    code = run([command, "--config", cfg_path("warped_radial.json"), "--override", override])
    assert code == 2
    assert f"variable '{name}' not defined on a 1D base grid" in capsys.readouterr().err


def test_transform_on_product_metric_exits_2():
    assert run(["transform", "--config", cfg_path("cap.json")]) == 2


def test_reparam_identity_profile(tmp_path):
    report = tmp_path / "r.json"
    table = tmp_path / "t.csv"
    code = run(["reparam", "--config", cfg_path("warped_radial.json"),
                "--out-report", str(report), "--out-field", str(table)])
    assert code == 0
    doc = read_json(report)
    assert doc["rows"] == 1001
    assert doc["s_strictly_increasing"] is True
    data = np.loadtxt(table, delimiter=",", skiprows=1)
    r, s, f = data[:, 0], data[:, 1], data[:, 2]
    # h(r) = r integrates to s = ln r, and then f(s) = ln h(r(s)) = s
    assert np.max(np.abs(f - s)) <= 1e-8
    assert np.max(np.abs(s - np.log(r))) <= 1e-8
    assert np.all(np.diff(s) > 0)


def test_reparam_needs_a_warped_profile():
    assert run(["reparam", "--config", cfg_path("cap.json")]) == 2


def test_reparam_unresolvable_profile_is_a_config_error(tmp_path, capsys):
    # 1/h peaks at 1e12 at the left end; the table is either right or
    # refused (exit 2), never silently wrong
    report = tmp_path / "r.json"
    code = run(["reparam", "--config", cfg_path("warped_radial.json"),
                "--override", "conformal.warped.h=\"r - 0.5 + 1e-12\"",
                "--override", "conformal.warped.interval=[0.5, 1.0]",
                "--out-report", str(report)])
    if code == 2:
        assert "cannot tabulate" in capsys.readouterr().err
    else:
        assert code == 0
        s_hi = read_json(report)["s_range"][1]
        assert abs(s_hi - math.log(5e11)) < 1e-6


def test_warped_solve_of_polar_lines_is_second_order(tmp_path):
    # h = r on [1, e] is the flat plane in polar coordinates (s = ln r), so
    # the H = 0 graphs are straight lines r cos(x1 - 0.5) = const, i.e.
    # s = c - ln cos(x1 - 0.5); c = 0.3 is the solution between c = 0.25
    # and c = 0.35
    line = "{c} - ln(cos(x1 - 0.5))"
    barriers = {"u1": line.format(c=0.25), "u0": line.format(c=0.35),
                "psi": line.format(c=0.3)}
    errors = []
    for nodes in (17, 33):
        report, field = tmp_path / f"r{nodes}.json", tmp_path / f"u{nodes}.csv"
        code = run(["solve", "--config", cfg_path("warped_radial.json"),
                    "--override", f"grid.shape=[{nodes}]",
                    "--override", f"barriers={json.dumps(barriers)}",
                    "--out-report", str(report), "--out-field", str(field)])
        assert code == 0
        doc = read_json(report)
        assert doc["converged"] and doc["consistency_ok"]
        u = read_field_csv(field)
        x1 = u.grid.node_positions()[0]
        errors.append(float(np.max(np.abs(u.values - (0.3 - np.log(np.cos(x1 - 0.5)))))))
    assert errors[0] < 1e-4
    assert 3.5 < errors[0] / errors[1] < 4.5


def test_cli_import_leaves_scipy_integrate_unloaded():
    # a fresh interpreter, since this one may have imported it elsewhere
    src = os.path.dirname(os.path.dirname(pmcgraph.__file__))
    probe = "import sys, pmcgraph.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_scipy_sparse_unloaded():
    src = os.path.dirname(os.path.dirname(pmcgraph.__file__))
    probe = "import sys, pmcgraph.cli; print('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _modules_past_the_cli_import(tmp_path, *argvs):
    """Run each argv through ``cli.main`` in turn in one fresh interpreter
    (this one has imported more); return the exit codes and the modules
    loaded after ``import pmcgraph.cli``."""
    outputs = ["--out-report", str(tmp_path / "r.json"), "--out-field", str(tmp_path / "f.csv")]
    src = os.path.dirname(os.path.dirname(pmcgraph.__file__))
    probe = ("import json, sys, pmcgraph.cli as cli; before = set(sys.modules); "
             "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
             "print(json.dumps([codes, sorted(set(sys.modules) - before)]))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe,
                          json.dumps([list(argv) + outputs for argv in argvs])],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _only_numpy_fft(modules):
    return all(m == "numpy.fft" or m.startswith("numpy.fft.") for m in modules)


# each subcommand at test size: its config, then its overrides
_SUBCOMMANDS = {
    "solve-torus": ["torus_sine.json", "grid.shape=[16,16]"],
    "check-barrier-torus": ["torus_sine.json", "grid.shape=[16,16]"],
    "check-monotone-quasi": ["quasi_decreasing.json", "grid.shape=[16,16]"],
    "transform-horosphere": ["horosphere.json", "grid.shape=[16,16]", "solver.samples=3"],
    "reparam-warped": ["warped_radial.json"],
    "diagnose-torus": ["torus_sine.json", "grid.shape=[16,16]"],
    "eval-residual-torus": ["torus_sine.json", "grid.shape=[16,16]"],
}


@pytest.mark.parametrize("case", list(_SUBCOMMANDS))
def test_subcommands_load_no_scipy(tmp_path, case):
    # a first use of numpy.random costs about 9-12 ms and numpy.ma, which a
    # plain np.unique loads, about 12 ms, against 35-48 ms for a whole 64x64
    # solve; the preconditioner's FFT is the one module a subcommand may add,
    # so none loads scipy either
    subcommand = case.rsplit("-", 1)[0]
    config, *overrides = _SUBCOMMANDS[case]
    if subcommand == "eval-residual":
        field = str(tmp_path / "u.csv")
        write_field_csv(constant_field(build_grid(2, (16, 16), (1.0, 1.0), "periodic"), 1.0),
                        field)
        overrides.append(f"field={json.dumps(field)}")
    argv = [subcommand, "--config", cfg_path(config),
            *(arg for spec in overrides for arg in ("--override", spec))]
    codes, loaded = _modules_past_the_cli_import(tmp_path, argv)
    assert codes == [0]
    assert _only_numpy_fft(loaded), loaded


def test_a_solve_loads_no_module_past_the_cli_import_but_numpy_fft(tmp_path):
    # the solve on every other shipped config, one after another in one
    # interpreter: dirichlet grids, a conformal metric and a quasi prescription
    argvs = [["solve", "--config", cfg_path(config), "--override", f"grid.shape={shape}"]
             for config, shape in [("cap.json", "[17,17]"), ("catenoid.json", "[17,17]"),
                                   ("horosphere.json", "[16,16]"),
                                   ("quasi_decreasing.json", "[16,16]")]]
    codes, loaded = _modules_past_the_cli_import(tmp_path, *argvs)
    assert codes == [0, 0, 0, 0]
    assert _only_numpy_fft(loaded), loaded


def test_third_party_imports_are_declared_dependencies():
    import ast
    import re

    tomllib = pytest.importorskip("tomllib")
    package = os.path.dirname(pmcgraph.__file__)
    root = os.path.dirname(os.path.dirname(package))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower()
                    for d in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"pmcgraph"}
    assert third_party, "the walk found no third-party import at all"
    assert third_party <= declared, sorted(third_party - declared)


# ---------------------------------------------------------------------------
# diagnose and eval-residual


def test_diagnose_catenoid_levels(tmp_path):
    report = tmp_path / "r.json"
    code = run(["diagnose", "--config", cfg_path("catenoid.json"),
                "--levels", "2", "--out-report", str(report)])
    assert code == 0
    doc = read_json(report)
    assert [row["level"] for row in doc["rows"]] == [0, 1]
    assert all(row["converged"] for row in doc["rows"])
    assert doc["errors"] == []
    assert doc["suspected_nongraphical"] is False
    assert doc["rows"][0]["spacing"] == 2 * doc["rows"][1]["spacing"]


def test_diagnose_needs_two_levels(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = run(["diagnose", "--config", cfg_path("catenoid.json"),
                "--levels", "1", "--out-report", str(report)])
    assert code == 2
    assert "--levels must be at least 2" in capsys.readouterr().err
    assert not report.exists()


def test_diagnose_reports_barriers_that_do_not_build(tmp_path):
    # as solve and check-barrier do: a failed report, not a traceback
    report = tmp_path / "r.json"
    code = run(["diagnose", "--config", cfg_path("catenoid.json"),
                "--override", "barriers.u1=5", "--out-report", str(report)])
    assert code == 1
    doc = read_json(report)
    assert doc["passed"] is False
    assert "lower barrier exceeds the upper one" in doc["message"]


def test_eval_residual_matches_solve_report(tmp_path):
    field = tmp_path / "v.csv"
    solve_report = tmp_path / "s.json"
    run(["solve", "--config", cfg_path("cap.json"),
         "--override", "grid.shape=[17, 17]",
         "--out-report", str(solve_report), "--out-field", str(field)])
    report = tmp_path / "r.json"
    res_field = tmp_path / "res.csv"
    code = run(["eval-residual", "--config", cfg_path("cap.json"),
                "--override", "grid.shape=[17, 17]",
                "--override", f"field={field}",
                "--out-report", str(report), "--out-field", str(res_field)])
    assert code == 0
    doc = read_json(report)
    solved = read_json(solve_report)
    assert doc["residual_sup"] == pytest.approx(solved["final_residual"], abs=1e-14)
    assert res_field.exists()


def test_eval_residual_grid_mismatch_exits_2(tmp_path):
    field = tmp_path / "v.csv"
    run(["solve", "--config", cfg_path("cap.json"),
         "--override", "grid.shape=[17, 17]", "--out-field", str(field)])
    # config says 65x65, stored field is 17x17
    code = run(["eval-residual", "--config", cfg_path("cap.json"),
                "--override", f"field={field}"])
    assert code == 2


# ---------------------------------------------------------------------------
# determinism and output plumbing


def test_repeated_runs_are_byte_identical(tmp_path):
    blobs = []
    for i in (0, 1):
        report = tmp_path / f"r{i}.json"
        field = tmp_path / f"v{i}.csv"
        code = run(["solve", *small_torus(), "--out-report", str(report),
                    "--out-field", str(field)])
        assert code == 0
        blobs.append((report.read_bytes(), field.read_bytes()))
    # byte-identical up to the self-referencing output path
    r0 = blobs[0][0].replace(b"r0.json", b"rX.json").replace(b"v0.csv", b"vX.csv")
    r1 = blobs[1][0].replace(b"r1.json", b"rX.json").replace(b"v1.csv", b"vX.csv")
    assert r0 == r1
    assert blobs[0][1] == blobs[1][1]


def test_report_goes_to_stdout_without_out_report(capsys):
    code = run(["check-barrier", "--config", cfg_path("cap.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    code = run(["check-barrier", "--config", cfg_path("cap.json"),
                "--out-report", str(tmp_path / "no-such-dir" / "r.json")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err
