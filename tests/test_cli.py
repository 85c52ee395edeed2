import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reachbot as rb
from reachbot.cli import _write_json, _write_lines, main
from reachbot.config import load_config, parse_config
from reachbot.robot import fibonacci_sphere
from reachbot.study import MetricsTable, draw_pools, run_study, stability_csv_rows
from reachbot.terrain import anchors_to_csv_rows
from conftest import default_config_dict, random_stance
from test_study import match_rounds_reference


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


def set_key(cfg: dict, key: str, value):
    """Set the config entry at dotted ``key``, adding absent blocks (terrain.frame)."""
    *blocks, field = key.split(".")
    for block in blocks:
        cfg = cfg.setdefault(block, {})
    cfg[field] = value


# set_key edits that make a config's robot one explicit mount (null: no layout).
ONE_MOUNT = {"study.n_range": [1, 1], "robot.layout": None}


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
                                     "constraints", "calibration", "terrain.frame.rotation",
                                     "terrain.frame.origin", "terrain.radius", "study.n_range"])
    def test_null_means_default(self, tmp_path, capsys, key):
        cfg = default_config_dict()
        set_key(cfg, key, None)
        path = tmp_path / "null.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 0
        sc, _ = load_config(path)
        defaults = (sc.aggregate_mode, sc.coverage_layout, sc.robot_template.layout,
                    sc.constraints.one_boom_out, sc.n_range, sc.terrain.dims)
        assert defaults == ("median", "nested", "uniform", True, (1, 10), (15.0, 100.0))
        assert np.array_equal(sc.terrain.frame.rotation, np.eye(3))
        assert np.array_equal(sc.terrain.frame.origin, np.zeros(3))

    def test_defaults_come_from_the_classes(self):
        """A bare config and one with every default spelled out build the same study."""
        bare, full = parse_config({"schema_version": 1}), parse_config(default_config_dict())
        for f in dataclasses.fields(rb.StudyConfig):
            if f.name not in ("terrain", "robot_template"):
                assert getattr(bare, f.name) == getattr(full, f.name), f.name
        assert (bare.terrain.kind, bare.terrain.dims) == (full.terrain.kind, full.terrain.dims)
        for f in dataclasses.fields(rb.RobotConfig):
            a, b = getattr(bare.robot_template, f.name), getattr(full.robot_template, f.name)
            if f.name in ("shoulders", "axes"):  # the mounts, as arrays
                assert np.array_equal(a, b)
            elif f.name != "mounts":
                assert a == b, f.name

    @pytest.mark.parametrize("command,key,value", [
        ("study", "robot.body_mass", "NaN"),
        ("validate", "robot.L_max", "Infinity"),
        ("validate", "robot.g", "Infinity"),
        ("validate", "constraints.tau_drill_nm", "NaN"),
        ("validate", "constraints.M_CR_nm", "NaN"),
        ("validate", "constraints.M_CR_nm", "-Infinity"),
        ("validate", "terrain.frame.origin", "NaN"),
        ("validate", "robot.L_max", "1e999"),  # a literal past the float range reads as inf
    ])
    def test_nan_and_infinity_rejected(self, tmp_path, capsys, command, key, value):
        cfg = default_config_dict()
        set_key(cfg, key, [0.0, 12345.5, 0.0] if key.endswith("origin") else 12345.5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace("12345.5", value))
        out = tmp_path / "out"
        flags = ["--out-dir", str(out)] if command == "study" else []
        assert main([command, str(path), *flags]) == 1
        assert capsys.readouterr().err == f"error: config file holds {value}, not a finite number\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "study"])
    def test_repeated_key_rejected(self, tmp_path, capsys, command):
        # json alone would read the last value: this config would run 3 trials.
        shipped = Path(__file__).resolve().parents[1] / "configs" / "mars_lava_tube.json"
        text = shipped.read_text().replace('"trials": 100', '"trials": 100, "trials": 3')
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        flags = ["--out-dir", str(out)] if command == "study" else []
        assert main([command, str(path), *flags]) == 1
        assert capsys.readouterr().err == "error: config file repeats key 'trials'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "eval"])
    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_file(self, tmp_path, capsys, command, kind):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'\xff\xfe{"schema_version": 1}')
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        what = "config" if command == "validate" else "stance"
        assert err == (f"error: cannot read {what} file {path}: Is a directory\n"
                       if kind == "directory" else
                       f"error: {what} file is not UTF-8 text: {path}\n")

    @pytest.mark.parametrize("key,message", [
        ("robot.body_mass", "robot.body_mass is past the float range"),
        ("terrain.frame.origin", "terrain: int too large to convert to float"),
    ], ids=["body_mass", "frame_origin"])
    def test_integer_past_float_range(self, tmp_path, capsys, key, message):
        cfg = default_config_dict()
        set_key(cfg, key, [10 ** 400, 0, 0] if key.endswith("origin") else 10 ** 400)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edits,message", [
        ({"robot.cone_half_angle_rad": math.pi / 2}, "cone_half_angle must be in (0, pi/2)"),
        ({"robot.m_gripper": -0.5}, "m_gripper must be non-negative"),
        ({"robot.g": -3.721}, "gravity must be non-negative"),
        ({"robot.k": 0.0}, "boom_stiffness must be positive"),
        ({"robot.body_radius": 0.0}, "body_radius must be positive"),
        ({**ONE_MOUNT, "robot.mounts": [{"position": [0, 0, 0.5], "axis": [0, 0, 2]}]},
         "robot.mounts[0]: mount axis must be a unit vector"),
        ({**ONE_MOUNT, "robot.mounts": [{"position": [0, 0, 0.5], "axis": [0, 1]}]},
         "robot.mounts[0]: mount position and axis must be 3-vectors"),
        ({"constraints.tau_drill_nm": -1.0}, "tau_drill must be non-negative"),
        ({"calibration.delta_ref_m": 0.0}, "delta_ref must be positive"),
        ({"study.pool_multiplier": 0}, "pool_multiplier must be >= 1"),
        ({"terrain.frame.rotation": [[1, 0, 0], [0, 1, 0], [0, 1, 1]]},
         "terrain: frame rotation must be a 3x3 orthonormal matrix"),
        ({"terrain.frame.origin": [0, 0]}, "terrain: frame origin must be a 3-vector"),
    ], ids=["cone_half_angle", "negative_mass", "negative_gravity", "k", "body_radius",
            "mount_axis_not_unit", "mount_axis_length", "tau_drill", "delta_ref",
            "pool_multiplier", "rotation_not_orthonormal", "origin_length"])
    def test_value_out_of_range(self, tmp_path, capsys, edits, message):
        cfg = default_config_dict()
        for key, value in edits.items():
            set_key(cfg, key, value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["validate", "eval"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_the_digit_limit(self, tmp_path, capsys, command, sign):
        # Python reads at most 4,300 digits of an integer string by default.
        digits = "1" + "0" * 5000
        path = tmp_path / "input.json"
        if command == "validate":
            cfg = default_config_dict()
            cfg["robot"]["body_mass"] = 12345.5
            path.write_text(json.dumps(cfg).replace("12345.5", sign + digits))
        else:
            path.write_text(f'{{"n_booms": {sign}{digits}}}')
        assert main([command, str(path)]) == 1
        what = "config" if command == "validate" else "stance"
        assert capsys.readouterr().err == (
            f"error: {what} file holds an integer of 5001 digits, too long to read\n")

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
    def test_schema_version_must_be_int_1(self, tmp_path, capsys, version):
        cfg = default_config_dict()
        cfg["schema_version"] = version
        path = tmp_path / "version.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_unknown_field(self, tmp_path, capsys):
        cfg = default_config_dict()
        cfg["robot"]["wheels"] = 4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 1
        assert "wheels" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,field", [
        (lambda cfg: cfg["terrain"].update(frame={"orgin": [0, 9, -4]}), "orgin"),
        (lambda cfg: cfg["robot"]["mounts"][1].update(boresight=[0, 0, 1]), "boresight"),
        (lambda cfg: cfg["robot"]["mounts"].__setitem__(2, "up"), "robot.mounts[2]"),
        (lambda cfg: cfg["robot"].update(mounts={"position": [0, 0, 0.5]}), "robot.mounts"),
        (lambda cfg: cfg["robot"].update(mounts=[]), "robot.mounts must list at least one"),
    ], ids=["frame_key", "mount_key", "mount_not_object", "mounts_not_list", "mounts_empty"])
    def test_unknown_nested_field(self, tmp_path, capsys, edit, field):
        cfg = default_config_dict()
        cfg["study"]["n_range"] = [4, 4]
        del cfg["robot"]["layout"]  # explicit mounts have no layout
        cfg["robot"]["mounts"] = [{"position": m.position.tolist(), "axis": m.axis.tolist()}
                                  for m in rb.build_mounts(4)]
        edit(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "study", "stance", "coverage"])
    def test_layout_beside_mounts_rejected(self, tmp_path, capsys, command):
        # Explicit mounts are placed as listed: a layout beside them would be
        # echoed in report.json for a robot it does not describe.
        cfg = default_config_dict()
        cfg["study"]["n_range"] = [6, 6]
        cfg["robot"]["layout"] = "mission"
        cfg["robot"]["mounts"] = [{"position": m.position.tolist(), "axis": m.axis.tolist()}
                                  for m in rb.build_mounts(6)]
        path = tmp_path / "both.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        flags = [] if command == "validate" else ["--out-dir", str(out)]
        assert main([command, str(path), *flags]) == 1
        assert capsys.readouterr().err == (
            "error: robot.layout and robot.mounts are both given; explicit mounts are "
            "placed as listed, so give one or the other\n")
        assert not out.exists()


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

    def test_config_echo_applies_overrides(self, config_path, tmp_path):
        over, again = tmp_path / "over", tmp_path / "again"
        code = main(["study", str(config_path), "--out-dir", str(over), "--json",
                     "--seed", "7", "--trials", "2", "--n-range", "6", "7"])
        report = json.loads((over / "report.json").read_text())
        assert (report["config"]["seed"], report["config"]["study"]["trials"],
                report["config"]["study"]["n_range"]) == (7, 2, [6, 7])
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(report["config"]))
        assert main(["study", str(echo), "--out-dir", str(again), "--json"]) == code
        assert (again / "report.json").read_bytes() == (over / "report.json").read_bytes()

    def test_overrides_fill_an_absent_study_block(self, tmp_path):
        cfg = default_config_dict(seed=3)
        del cfg["study"]
        path = tmp_path / "nostudy.json"
        path.write_text(json.dumps(cfg))
        main(["study", str(path), "--out-dir", str(tmp_path / "out"), "--json",
              "--trials", "1", "--n-range", "6", "6"])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["study"] == {"trials": 1, "n_range": [6, 6]}
        assert [c["n"] for c in report["trials"]] == [6]

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
            "coverage:", "trials:", "aggregate:", "selection:"]
        assert all(" s" in ln for ln in lines)
        assert "9 cells" in lines[1] and "resamples" in lines[1] and "infeasible" in lines[1]
        assert (logged / "report.json").read_bytes() == (quiet / "report.json").read_bytes()

    def test_study_never_imports_scipy(self, config_path, tmp_path):
        # Boom matching needs only numpy; scipy is a test-only dependency.
        src = str(Path(rb.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; from reachbot.cli import main; status = main(sys.argv[1:]); "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')); "
                "sys.exit(status)")
        done = subprocess.run([sys.executable, "-c", code, "study", str(config_path),
                               "--out-dir", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "report.json").is_file()
        assert done.stdout.splitlines()[-1] == "[]"

    def test_n_range_override_rejects_explicit_mounts(self, tmp_path, capsys):
        cfg = default_config_dict(seed=1)
        cfg["study"]["n_range"] = [6, 6]
        del cfg["robot"]["layout"]  # explicit mounts have no layout
        cfg["robot"]["mounts"] = [{"position": m.position.tolist(), "axis": m.axis.tolist()}
                                  for m in rb.build_mounts(6)]
        path = tmp_path / "mounts.json"
        path.write_text(json.dumps(cfg))
        assert main(["study", str(path), "--n-range", "5", "7",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: explicit mounts are given for 6 booms, "
                                           "so n_range must be [6, 6], not [5, 7]\n")


class TestJsonWriter:
    """The file the report writer writes against json.dumps(indent=2, sort_keys=True)
    and a newline, byte for byte."""

    SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "mars_lava_tube.json"

    @staticmethod
    @functools.cache
    def shipped_report(trials):
        raw = json.loads(TestJsonWriter.SHIPPED.read_text())
        raw["study"]["trials"] = trials
        return run_study(parse_config(raw), raw).to_dict()

    @staticmethod
    def same_text(obj, path):
        _write_json(path, obj)
        return path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("trials", [100, 1000])
    def test_shipped_report(self, trials, tmp_path):
        report = self.shipped_report(trials)
        assert len(report["trials"]) == 10 * trials
        assert self.same_text(report, tmp_path / "report.json")

    def test_streamed_peak_memory(self, tmp_path):
        # The 1,000-trial report's text is 4.29 MB; written piece by piece,
        # no copy of it is held, so the peak stays below a quarter of it.
        report = self.shipped_report(1000)
        size = len(json.dumps(report, indent=2, sort_keys=True)) + 1
        tracemalloc.start()
        try:
            _write_json(tmp_path / "report.json", report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "report.json").stat().st_size == size > 4_000_000
        assert peak < size / 4

    def test_nan_aggregates(self, tmp_path):
        cfg = default_config_dict(seed=3)
        cfg["study"].update(n_range=[5, 7], trials=3, surface_samples=500)
        report = run_study(parse_config(cfg), cfg).to_dict()
        report["summary"][0]["agg_stability"] = float("nan")
        report["summary"][1]["mass"] = float("inf")
        report["trials"][0].update(lambda_min=float("nan"), lambda_max=-float("inf"))
        assert "NaN" in json.dumps(report["trials"][0])
        assert self.same_text(report, tmp_path / "report.json")

    @pytest.mark.parametrize("obj", [
        {}, [], 1.5, {"a": []}, {"a": [{}]}, {"a": [{"x": 1}, {}]},
        {"t": [{"x": [1, 2]}], "u": [{"y": {"z": 1}}]},  # records that are not flat
        {"t": [{"b": "},\n    {", "a": "\u00e9", "c": None, "d": True, "e": 2 ** 70}]},
        {"b": {"c": [1, {"d": "x"}]}, "a": [{"y": 1.0, "x": -0.0}, {"x": 1e300}]},
        {"k": [{10: "int keys", 2: 0}]}, {3: [{"x": 1}], 1: {"y": 2}},
    ])
    def test_edge_shapes(self, obj, tmp_path):
        assert self.same_text(obj, tmp_path / "out.json")


def test_stability_csv_streams(tmp_path, rng):
    # stability.csv of 1,000 trials at ten boom counts (33 bytes a cell),
    # written a line at a time: the tracemalloc peak stays under 100 bytes
    # a trial. Its lines built first and joined peaked at 1.2 kB a trial.
    lmin = rng.normal(size=(10, 1000)) * 10.0 ** rng.integers(-15, 4, size=(10, 1000))
    table = MetricsTable(boom_counts=tuple(range(1, 11)),
                         columns={"feasible": np.ones(lmin.shape, dtype=bool), "lambda_min": lmin})
    path = tmp_path / "stability.csv"
    tracemalloc.start()
    try:
        _write_lines(path, stability_csv_rows(table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == "".join(["N,trial,lambda_min\n"] + [
        f"{n},{t},{lmin[n - 1, t]:.12g}\n" for t in range(1000) for n in range(1, 11)])
    assert peak < 1000 * 100


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

    @pytest.mark.parametrize("n, trial, code", [(10, 66, 2), (10, 0, 0), (9, 10, 2)])
    def test_sparse_pool_cell_matches_one_round_per_pass(self, tmp_path, capsys, n, trial, code):
        # The sparse_pool benchmark workload: cells (10, 66) and (9, 10) are
        # infeasible at seed 42 and report the shared pool.
        cfg = default_config_dict(seed=42)
        cfg["study"]["pool_multiplier"], cfg["robot"]["L_max"] = 2, 19.0
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "stance"
        assert main(["stance", str(path), "--out-dir", str(out), "--n", str(n),
                     "--trial", str(trial)]) == code
        assert ("infeasible" in capsys.readouterr().out) == (code == 2)
        sc, _ = load_config(path)
        trials = np.array([trial])
        _, _, (pool,), _ = match_rounds_reference(sc, sc.robot_template.with_boom_count(n),
                                                  trials, draw_pools(sc, trials, "anchors"))
        assert (out / "anchors.csv").read_text().splitlines() == anchors_to_csv_rows(pool, trial)

    @pytest.mark.parametrize("n", range(6, 11))
    def test_shoulders_hold_no_negative_zero(self, tmp_path, n):
        # The golden-angle lattice has -0.0 coordinates; stance.json writes them as 0.0.
        shipped = Path(__file__).resolve().parents[1] / "configs" / "mars_lava_tube.json"
        out = tmp_path / "stance"
        assert main(["stance", str(shipped), "--out-dir", str(out), "--n", str(n)]) == 0
        zeros = [v for row in json.loads((out / "stance.json").read_text())["s"]
                 for v in row if v == 0]
        assert zeros and all(str(v) == "0.0" for v in zeros)

    @pytest.mark.parametrize("trial", [2 ** 63, 2 ** 64])
    def test_trial_past_int64_is_a_config_error(self, config_path, tmp_path, capsys, trial):
        out = tmp_path / "stance"
        assert main(["stance", str(config_path), "--out-dir", str(out),
                     "--trial", str(trial)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --trial must be below 2**63\n"
        assert not out.exists()

    def test_two_word_trial_writes_a_stance(self, config_path, tmp_path):
        out = tmp_path / "stance"
        assert main(["stance", str(config_path), "--out-dir", str(out),
                     "--trial", "4294967296"]) == 0
        assert rb.Stance.from_dict(json.loads((out / "stance.json").read_text())).boom_count == 8

    def test_mission_layout_end_to_end(self, tmp_path):
        """A robot.layout "mission" config: every boom count's stance has the
        mission mounts, and eval of a stance reproduces the study's cell."""
        cfg = default_config_dict(seed=5)
        cfg["robot"]["layout"] = "mission"
        cfg["study"].update(n_range=[4, 8], trials=6, surface_samples=2000)
        path = tmp_path / "mission.json"
        path.write_text(json.dumps(cfg))
        assert main(["study", str(path), "--out-dir", str(tmp_path / "study"), "--json"]) in (0, 2)
        report = json.loads((tmp_path / "study" / "report.json").read_text())
        for n in (6, 8):
            cell = next(c for c in report["trials"] if c["n"] == n and c["feasible"])
            out = tmp_path / f"stance{n}"
            assert main(["stance", str(path), "--out-dir", str(out), "--n", str(n),
                         "--trial", str(cell["trial"])]) == 0
            st = json.loads((out / "stance.json").read_text())
            unit = rb.build_mounts(n, body_radius=1.0, layout="mission")
            assert np.array_equal(st["s"], 0.5 * np.array([m.position for m in unit]))
            assert not np.array_equal(st["s"], rb.make_robot(n).shoulders)
            assert main(["eval", str(out / "stance.json"), "--config", str(path),
                         "--out-dir", str(out)]) == 0
            result = json.loads((out / "eval.json").read_text())
            assert result["stability"] == cell["lambda_min"]
            for name in ("wrench_full", "wrench_torque", "manipulability"):
                assert result[name] == cell[name]

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
    ["validate", {"constraints.M_CR_nm": -1}],
    ["study", {"constraints.M_CR_nm": -1}],
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
    if command != "validate":  # validate writes nothing and takes no --out-dir
        flags += ["--out-dir", str(out)]
    assert main([command, str(config_path), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["study", "eval"])
def test_out_dir_naming_a_file_exits_1(config_path, tmp_path, rng, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    path = config_path
    if command == "eval":
        path = tmp_path / "stance.json"
        path.write_text(json.dumps(random_stance(rng, 6).to_dict()))
    assert main([command, str(path), "--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot create output directory {taken}: File exists\n"
    assert taken.read_text() == ""


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
            del cfg["robot"]["layout"]  # explicit mounts have no layout
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
        ("a,b\n1,x\n", "non-numeric objective value: could not convert string to float: 'x'"),
        ("a,b\n", "points CSV has no data rows"),
        ("", "points CSV has no header"),
        (None, "points file not found: {path}"),
        # a row keyed by column name would keep the last "a" and write 0,5,0
        ("a,b,a\n1,2,3\n4,5,0\n", "points CSV header repeats column 'a'"),
    ], ids=["short_row", "long_row", "nan", "non_numeric", "header_only", "empty", "missing",
            "repeated_column"])
    def test_bad_rows(self, tmp_path, capsys, text, message):
        pts = tmp_path / "points.csv"
        if text is not None:
            pts.write_text(text)
        out = tmp_path / "pf"
        assert main(["pareto", str(pts), "--minimize", "b", "--maximize", "a",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=pts)}\n"
        assert not out.exists()


SHAPE = "stance shoulders and anchors must be (N, 3) arrays of one shape\n"


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

    def test_nan_anchor_rejected(self, tmp_path, rng, capsys):
        raw = random_stance(rng, 7).to_dict()
        raw["a"][3][1] = float("nan")
        path = tmp_path / "stance.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "eval"
        assert main(["eval", str(path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: stance file holds NaN, not a finite number\n"
        assert not out.exists()

    # Each array is read with its shape: reshaping would read the first four
    # of these files as the six-boom stance they were made from.
    @pytest.mark.parametrize("edit,reason", [
        (lambda raw: raw.update(s=np.reshape(raw["s"], (9, 2)).tolist(),
                                a=np.reshape(raw["a"], (9, 2)).tolist()), SHAPE),
        (lambda raw: raw.update(s=np.ravel(raw["s"]).tolist(), a=np.ravel(raw["a"]).tolist()),
         SHAPE),
        (lambda raw: raw.update(a=[raw["a"]]), SHAPE),
        (lambda raw: raw.update(body_center=[[0], [0], [0]]),
         "stance body_center must be a 3-vector\n"),
        (lambda raw: raw.update(a=raw["a"][:5]), SHAPE),
        (lambda raw: raw.update(s=[], a=[]), "stance needs at least one boom\n"),
        (lambda raw: raw["a"].__setitem__(2, raw["s"][2]), "anchor coincides with shoulder\n"),
        (lambda raw: raw.update(s={"0": [0.5, 0.0, 0.0]}), "float() argument"),
    ], ids=["xy_rows", "flat", "anchors_3d", "body_center_column", "rows_mismatch", "no_booms",
            "anchor_on_shoulder", "rows_not_a_list"])
    def test_invalid_stance_rejected(self, tmp_path, rng, capsys, edit, reason):
        raw = random_stance(rng, 6).to_dict()
        edit(raw)
        path = tmp_path / "stance.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "eval"
        assert main(["eval", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid stance file: ") and reason in err
        assert not out.exists()

    def test_body_rotation_key_is_ignored(self, config_path, tmp_path):
        # stance.json used to hold a constant identity "body_rotation" too; eval
        # of such a file gives the same results.
        out = tmp_path / "stance"
        assert main(["stance", str(config_path), "--out-dir", str(out), "--trial", "1"]) == 0
        raw = json.loads((out / "stance.json").read_text())
        assert sorted(raw) == ["a", "body_center", "s"]
        older = tmp_path / "older.json"
        _write_json(older, {**raw, "body_rotation": np.eye(3).tolist()})
        for name, path in (("new", out / "stance.json"), ("old", older)):
            assert main(["eval", str(path), "--config", str(config_path),
                         "--out-dir", str(tmp_path / name)]) == 0
        for name in ("eval.json", "eval.csv"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()

    def test_repeated_key_rejected(self, tmp_path, rng, capsys):
        path = tmp_path / "stance.json"
        path.write_text(json.dumps(random_stance(rng, 6).to_dict())[:-1] + ', "a": []}')
        out = tmp_path / "eval"
        assert main(["eval", str(path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: stance file repeats key 'a'\n"
        assert not out.exists()

    @pytest.mark.parametrize("root", ["[1, 2]", "5", '"stance"', "null"])
    def test_stance_root_not_object(self, tmp_path, capsys, root):
        path = tmp_path / "stance.json"
        path.write_text(root)
        out = tmp_path / "eval"
        assert main(["eval", str(path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: invalid stance file: root must be a JSON object\n"
        assert not out.exists()
