import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reachbot as rb
from reachbot.cli import main
from reachbot.config import load_config
from reachbot.robot import fibonacci_sphere
from conftest import default_config_dict, random_stance


@pytest.fixture
def config_path(tmp_path):
    cfg = default_config_dict(seed=42)
    cfg["study"]["trials"] = 3
    cfg["study"]["n_range"] = [6, 8]
    cfg["study"]["surface_samples"] = 2000
    cfg["constraints"]["tau_drill_nm"] = 0.0
    cfg["constraints"]["one_boom_out"] = False
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    return path


class TestValidate:
    def test_ok(self, config_path, capsys):
        assert main(["validate", str(config_path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_truncated_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"terrain": {"kind": "corridor"')
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "malformed JSON at line" in err and "column" in err

    @pytest.mark.parametrize("key", ["study.aggregate", "study.coverage_layout", "robot.layout",
                                     "constraints.one_boom_out", "terrain", "robot", "study",
                                     "constraints", "calibration"])
    def test_null_means_default(self, tmp_path, capsys, key):
        cfg = default_config_dict()
        block, _, field = key.partition(".")
        if field:
            cfg[block][field] = None
        else:
            cfg[block] = None
        path = tmp_path / "null.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 0
        sc, _ = load_config(path)
        defaults = (sc.aggregate_mode, sc.coverage_layout, sc.layout,
                    sc.constraints.one_boom_out)
        assert defaults == ("median", "nested", "uniform", True)

    def test_unknown_field(self, tmp_path, capsys):
        cfg = default_config_dict()
        cfg["robot"]["wheels"] = 4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 1
        assert "wheels" in capsys.readouterr().err


class TestStudy:
    def test_runs_and_writes_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["study", str(config_path), "--out-dir", str(out)]) == 0
        assert "selected N = " in capsys.readouterr().out
        for name in ("report.json", "stability.csv", "summary.csv",
                      "coverage.csv", "pareto.csv"):
            assert (out / name).exists()

    def test_outputs_stay_in_out_dir(self, config_path, tmp_path):
        out = tmp_path / "only_here"
        main(["study", str(config_path), "--out-dir", str(out)])
        stray = [p for p in tmp_path.iterdir() if p.is_file() and p != config_path]
        assert stray == []

    def test_json_flag_restricts(self, config_path, tmp_path):
        out = tmp_path / "jsononly"
        main(["study", str(config_path), "--out-dir", str(out), "--json"])
        assert (out / "report.json").exists()
        assert not (out / "summary.csv").exists()

    def test_report_round_trips(self, config_path, tmp_path):
        out = tmp_path / "rt"
        main(["study", str(config_path), "--out-dir", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["selected_n"] in report["feasible_n"]
        assert report["config"]["study"]["trials"] == 3

    def test_seed_override_recorded(self, config_path, tmp_path):
        out = tmp_path / "seeded"
        main(["study", str(config_path), "--out-dir", str(out), "--seed", "77", "--json"])
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 77

    def test_low_boom_counts_exit_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "low"
        code = main(["study", str(config_path), "--out-dir", str(out),
                     "--n-range", "1", "5"])
        assert code == 2
        o = capsys.readouterr().out
        assert "no feasible design" in o
        assert "stability" in o  # binding constraint named per N

    def test_deterministic_across_runs(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["study", str(config_path), "--out-dir", str(a), "--json"])
        main(["study", str(config_path), "--out-dir", str(b), "--json"])
        assert (a / "report.json").read_text() == (b / "report.json").read_text()

    def test_info_log_lists_stages_and_leaves_report(self, config_path, tmp_path):
        quiet, logged = tmp_path / "quiet", tmp_path / "logged"
        main(["study", str(config_path), "--out-dir", str(quiet), "--json"])
        src = str(Path(rb.__file__).resolve().parents[1])
        env = dict(os.environ, REACHBOT_LOG="info",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "reachbot.cli", "study", str(config_path),
                               "--out-dir", str(logged), "--json"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = [ln for ln in done.stderr.splitlines() if ln.startswith("INFO reachbot.study: ")]
        assert [ln.split()[2] for ln in lines] == [
            "trials:", "aggregate:", "coverage:", "selection:"]
        assert all(" s" in ln for ln in lines)
        assert "9 cells" in lines[0] and "resamples" in lines[0] and "infeasible" in lines[0]
        assert (logged / "report.json").read_bytes() == (quiet / "report.json").read_bytes()

    def test_n_range_override_rejects_explicit_mounts(self, tmp_path, capsys):
        cfg = default_config_dict(seed=1)
        cfg["study"]["n_range"] = [6, 6]
        cfg["robot"]["mounts"] = [{"position": m.position.tolist(), "axis": m.axis.tolist()}
                                  for m in rb.build_mounts(6)]
        path = tmp_path / "mounts.json"
        path.write_text(json.dumps(cfg))
        assert main(["study", str(path), "--n-range", "5", "7",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "robot.mounts" in capsys.readouterr().err


class TestStance:
    def test_writes_stance_files(self, config_path, tmp_path, capsys):
        out = tmp_path / "stance"
        assert main(["stance", str(config_path), "--out-dir", str(out),
                     "--n", "8", "--trial", "3"]) == 0
        assert (out / "anchors.csv").exists()
        assert (out / "stance.json").exists()
        assert (out / "assignment.csv").exists()
        st = rb.Stance.from_dict(json.loads((out / "stance.json").read_text()))
        assert st.boom_count == 8
        trials = np.loadtxt(out / "anchors.csv", delimiter=",", skiprows=1)[:, 0]
        assert len(trials) == 3 * 8 and np.all(trials == 3)

    def test_reproduces_resampled_study_cell(self, config_path, tmp_path):
        main(["study", str(config_path), "--out-dir", str(tmp_path / "study"), "--json"])
        report = json.loads((tmp_path / "study" / "report.json").read_text())
        cell = next(c for c in report["trials"] if c["n"] == 8 and c["resamples"] > 0)
        out = tmp_path / "stance"
        assert main(["stance", str(config_path), "--out-dir", str(out),
                     "--n", "8", "--trial", str(cell["trial"])]) == 0
        assert main(["eval", str(out / "stance.json"), "--config", str(config_path),
                     "--out-dir", str(out)]) == 0
        result = json.loads((out / "eval.json").read_text())
        assert result["stability"] == cell["lambda_min"]
        for name in ("wrench_full", "wrench_torque", "manipulability"):
            assert result[name] == cell[name]
        # assignment.csv indexes anchors.csv, the pool the stance was built on
        anchors = np.loadtxt(out / "anchors.csv", delimiter=",", skiprows=1)[:, 2:]
        used = np.loadtxt(out / "assignment.csv", delimiter=",", skiprows=1)[:, 1].astype(int)
        st = rb.Stance.from_dict(json.loads((out / "stance.json").read_text()))
        assert np.allclose(anchors[used], st.anchors, rtol=1e-8)

    def test_infeasible_draw_exits_2(self, config_path, tmp_path, capsys):
        # Booms shorter than the corridor radius reach no anchor in any resample.
        cfg = json.loads(config_path.read_text())
        cfg["robot"]["L_max"] = 5.0
        short = tmp_path / "short.json"
        short.write_text(json.dumps(cfg))
        code = main(["stance", str(short), "--out-dir", str(tmp_path / "stance0"),
                     "--n", "8", "--trial", "0"])
        assert code == 2
        assert "infeasible" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["study", "--trials", "0"],
    ["study", "--seed", "-1"],
    ["study", "--n-range", "5", "3"],
    ["stance", "--n", "-3"],
    ["stance", "--n", "0"],
    ["stance", "--n", "9"],
    ["stance", "--trial", "-1"],
    ["coverage", "--samples", "0"],
    ["coverage", "--samples", "-5"],
    # A dict after the command sets the config's "block.field" entries.
    ["study", {"study.coverage_layout": "ring"}],
    ["study", {"study.surface_samples": 0}],
    ["study", {"study.surface_samples": -5}],
    ["study", {"study.trials": 2.5}],
    ["study", {"study.pool_multiplier": "3"}],
    ["study", {"study.surface_samples": 2.5}],
    ["study", {"calibration.delta_ref_m": "0.14"}],
    ["study", {"constraints.tau_drill_nm": "4"}],
    ["study", {"study.n_range": [True, 3]}],
    # A key without a dot replaces a whole block.
    ["study", {"terrain": 5}],
    ["study", {"robot": "x"}],
    ["study", {"study": "x"}],
    ["study", {"constraints": [1]}],
    ["study", {"calibration": 5}],
    ["study", {"terrain.frame": 5}],
    ["study", {"terrain.radius": True}],
    ["study", {"terrain.length": "100"}],
    ["study", {"robot.layout": 5}],
    ["study", {"study.aggregate": 3}],
    ["study", {"study.coverage_layout": 7}],
    ["study", {"constraints.one_boom_out": "yes"}],
])
def test_bad_arguments_exit_1(config_path, tmp_path, capsys, argv):
    command, *flags = argv
    if flags and isinstance(flags[0], dict):
        cfg = json.loads(config_path.read_text())
        for key, value in flags.pop(0).items():
            if "." in key:
                block, field = key.split(".")
                cfg[block][field] = value
            else:
                cfg[key] = value
        config_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, str(config_path), *flags, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


class TestCoverage:
    def test_identical_runs(self, config_path, tmp_path):
        a, b = tmp_path / "c1", tmp_path / "c2"
        main(["coverage", str(config_path), "--out-dir", str(a), "--samples", "2000"])
        main(["coverage", str(config_path), "--out-dir", str(b), "--samples", "2000"])
        assert (a / "coverage.csv").read_text() == (b / "coverage.csv").read_text()
        lines = (a / "coverage.csv").read_text().splitlines()
        assert lines[0] == "N,unique_pct,overlap_pct,marginal_pct"
        assert len(lines) == 4  # header + N = 6..8

    @staticmethod
    def six_boom_coverage(tmp_path, command, axes=None):
        """coverage.csv of a six-boom config; ``axes`` lists explicit radial mounts."""
        cfg = default_config_dict(seed=5)
        cfg["study"].update(n_range=[6, 6], trials=2, surface_samples=2000)
        if axes is not None:
            cfg["robot"]["mounts"] = [{"position": (0.5 * a).tolist(), "axis": a.tolist()}
                                      for a in axes]
        run = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        run.mkdir()
        (run / "config.json").write_text(json.dumps(cfg))
        assert main([command, str(run / "config.json"), "--out-dir", str(run)]) in (0, 2)
        return (run / "coverage.csv").read_text()

    @pytest.mark.parametrize("command", ["coverage", "study"])
    def test_explicit_mounts_change_coverage(self, tmp_path, command):
        tilt, az = np.radians(25.0), np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
        clustered = np.column_stack([np.sin(tilt) * np.cos(az), np.sin(tilt) * np.sin(az),
                                     np.full(6, np.cos(tilt))])  # all near +z
        generated = self.six_boom_coverage(tmp_path, command)
        assert self.six_boom_coverage(tmp_path, command, clustered) != generated
        # build_mounts places mount i at body_radius * d_i with axis d_i.
        assert self.six_boom_coverage(tmp_path, command, fibonacci_sphere(6)) == generated


class TestPareto:
    def test_filters_dominated_rows(self, tmp_path, capsys):
        pts = tmp_path / "points.csv"
        pts.write_text("name,mass,torque\na,1,5\nb,2,4\nc,3,6\n")
        out = tmp_path / "pf"
        code = main(["pareto", str(pts), "--minimize", "mass",
                     "--maximize", "torque", "--out-dir", str(out)])
        assert code == 0
        lines = (out / "nondominated.csv").read_text().splitlines()
        assert lines == ["name,mass,torque", "a,1,5", "c,3,6"]
        assert "2 of 3 points nondominated" in capsys.readouterr().out

    def test_missing_column(self, tmp_path, capsys):
        pts = tmp_path / "points.csv"
        pts.write_text("a,b\n1,2\n")
        assert main(["pareto", str(pts), "--minimize", "zzz"]) == 1
        assert "zzz" in capsys.readouterr().err

    def test_no_objectives(self, tmp_path, capsys):
        pts = tmp_path / "points.csv"
        pts.write_text("a,b\n1,2\n")
        assert main(["pareto", str(pts)]) == 1

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3\n", "points CSV data row 2 does not have one value per column"),
        ("a,b\n1,2\n3,4,5\n", "points CSV data row 2 does not have one value per column"),
        ("a,b\n1,2\nnan,1\n", "NaN objective value in data row 2"),
    ], ids=["short_row", "long_row", "nan"])
    def test_bad_rows(self, tmp_path, capsys, text, message):
        pts = tmp_path / "points.csv"
        pts.write_text(text)
        out = tmp_path / "pf"
        assert main(["pareto", str(pts), "--minimize", "b", "--maximize", "a",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestEval:
    def test_five_boom_stance_reports_zero_stability(self, tmp_path, rng, capsys):
        st = random_stance(rng, 5)
        path = tmp_path / "stance.json"
        path.write_text(json.dumps(st.to_dict()))
        out = tmp_path / "eval"
        assert main(["eval", str(path), "--out-dir", str(out)]) == 0
        result = json.loads((out / "eval.json").read_text())
        assert result["n_booms"] == 5
        assert result["stability"] == 0.0
        first_field = (out / "eval.csv").read_text().splitlines()[1].split(",")[1]
        assert float(first_field) == 0.0

    def test_full_rank_stance(self, tmp_path, rng):
        st = random_stance(rng, 8)
        path = tmp_path / "stance.json"
        path.write_text(json.dumps(st.to_dict()))
        out = tmp_path / "eval8"
        main(["eval", str(path), "--out-dir", str(out)])
        result = json.loads((out / "eval.json").read_text())
        res = rb.stiffness(rb.grasp_map(st), 100.0)
        assert result["stability"] == pytest.approx(res.stability, rel=1e-12)
        assert np.allclose(np.array(result["K"]), res.K)

    def test_bad_stance_file(self, tmp_path, capsys):
        path = tmp_path / "stance.json"
        path.write_text('{"shoulders": []')
        assert main(["eval", str(path)]) == 1
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("root", ["[1, 2]", "5", '"stance"', "null"])
    def test_stance_root_not_object(self, tmp_path, capsys, root):
        path = tmp_path / "stance.json"
        path.write_text(root)
        out = tmp_path / "eval"
        assert main(["eval", str(path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: invalid stance file: root must be a JSON object\n"
        assert not out.exists()
