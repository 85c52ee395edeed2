import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# stdout of scripts/calibrate_delta_ref.py on configs/mars_lava_tube.json,
# after its first line (the config path).
CALIBRATION = """\
aggregate: median over 100 trials, seed 42
  N= 1  rotational eigenvalue aggregate = 4.24912
  N= 2  rotational eigenvalue aggregate = 8.70059
  N= 3  rotational eigenvalue aggregate = 12.6967
  N= 4  rotational eigenvalue aggregate = 15.2355
  N= 5  rotational eigenvalue aggregate = 18.8492
  N= 6  rotational eigenvalue aggregate = 21.3972
  N= 7  rotational eigenvalue aggregate = 27.8544
  N= 8  rotational eigenvalue aggregate = 28.9287
  N= 9  rotational eigenvalue aggregate = 28.863
  N=10  rotational eigenvalue aggregate = 32.336
valid delta_ref interval for N*=8: [0.138271, 0.143604)
recommended delta_ref_m: 0.141
"""


def load_script(name: str):
    """scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(monkeypatch, module, *args) -> int:
    """Exit code of a script module's main() run with command-line ``args``."""
    monkeypatch.setattr(sys, "argv", [module.__file__, *map(str, args)])
    return module.main()


def calibrate(monkeypatch, *args) -> int:
    """Exit code of the calibration script run with command-line ``args``."""
    return run_script(monkeypatch, load_script("calibrate_delta_ref"), *args)


def test_calibrate_delta_ref_shipped_config(monkeypatch, capsys):
    assert calibrate(monkeypatch) == 0  # no argument: the shipped config
    first, rest = capsys.readouterr().out.split("\n", 1)
    assert first == f"config: {ROOT / 'configs' / 'mars_lava_tube.json'}"
    assert rest == CALIBRATION


@pytest.mark.parametrize("text,message", [
    (None, "config file not found"),
    ('{"schema_version": 2}', "unknown schema_version 2"),
    ('{"schema_version": 1, "study": {"n_range": [1, 7], "trials": 2}}',
     "study.n_range must include N=7 and N=8"),
    ('{"schema_version": 1, "study": {"n_range": [8, 10], "trials": 2}}',
     "study.n_range must include N=7 and N=8"),
], ids=["missing", "invalid", "below_target", "above_target"])
def test_calibrate_delta_ref_bad_config(monkeypatch, capsys, tmp_path, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert calibrate(monkeypatch, path) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_byte_sweep(monkeypatch, capsys, tmp_path):
    sweep = load_script("byte_sweep")
    monkeypatch.setattr(sweep, "CONFIGS", {"small": {
        "study.n_range": [6, 8], "study.trials": 3, "study.surface_samples": 2000}})
    runs = len(sweep.COMMANDS) + 1  # and the one pareto run
    assert run_script(monkeypatch, sweep, ROOT, ROOT) == 0
    assert capsys.readouterr().out == f"0 of {runs} runs differ\n"

    copy = tmp_path / "copy"
    for part in ("src", "configs"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    init = copy / "src" / "reachbot" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "9'))
    assert run_script(monkeypatch, sweep, ROOT, copy) == 1
    # The version is written only to report.json.
    assert capsys.readouterr().out == ("small/study_seed42: out/report.json\n"
                                       "small/study_seed7: out/report.json\n"
                                       f"2 of {runs} runs differ\n")


def test_byte_sweep_compares_stderr_line_by_line():
    sweep = load_script("byte_sweep")
    same = {"exit code": "0", "stdout": "ab12"}
    base = {"c/order": {**same, "stderr": ["DEBUG x", "INFO y", "INFO z"]},
            "c/lines": {**same, "stderr": ["INFO y", "DEBUG old", "DEBUG old", "INFO z"]},
            "c/same": {**same, "stderr": ["INFO y"]},
            "c/exit": {**same, "stderr": ["INFO y"]}}
    head = {"c/order": {**same, "stderr": ["INFO y", "INFO z", "DEBUG x"]},
            "c/lines": {**same, "stdout": "cd34", "stderr": ["DEBUG new", "INFO y", "DEBUG old",
                                                             "INFO z"]},
            "c/same": {**same, "stderr": ["INFO y"]},
            "c/exit": {**same, "exit code": "1", "stderr": ["INFO y"]}}
    assert sweep.differences(base, head) == [
        "c/exit: exit code",
        "c/lines: stderr, stdout\n  - DEBUG old\n  + DEBUG new",
        "c/order: stderr (line order only)"]


def sweep_configs():
    """The StudyConfig of every byte-sweep config."""
    from reachbot.config import parse_config
    sweep = load_script("byte_sweep")
    shipped = json.loads((ROOT / "configs" / "mars_lava_tube.json").read_text())
    return [parse_config(sweep.make_config(shipped, edits)) for edits in sweep.CONFIGS.values()]


def test_byte_sweep_crosses_chunk_boundaries():
    # Some config's study holds more trials than one chunk of the pass
    # budget, in the shared draw and the round-0 pass.
    from reachbot.study import pool_chunk
    assert any(sc.trials >= 1000 > 5 * pool_chunk(sc) for sc in sweep_configs())


def test_byte_sweep_matches_in_several_slices():
    # Some config's matching passes at n_max take feasibility in several
    # slices (stance.match_slice) while most cells need resamples.
    from reachbot.stance import match_slice
    from reachbot.study import pool_chunk
    assert any(sc.robot_template.L_max <= 16 and pool_chunk(sc) > 2 * match_slice(
        sc.n_range[1], sc.pool_multiplier * sc.n_range[1]) for sc in sweep_configs())


def test_byte_sweep_pareto_run_spans_several_chunks():
    # The pareto run's points file holds more rows than one chunk of the
    # filter (stance.per_pass at 3 bytes a row and point) and gives a front.
    from reachbot.stance import per_pass
    from reachbot.study import pareto_front
    sweep = load_script("byte_sweep")
    header, *rows = sweep.points_csv(sweep.POINTS_ROWS).splitlines()
    assert len(rows) == sweep.POINTS_ROWS > 5 * per_pass(3 * sweep.POINTS_ROWS)
    values = [[float(x) for x in row.split(",")[1:]] for row in rows]
    assert 10 < len(pareto_front(values, ["min", "max", "min"])) < len(rows)
    assert header.split(",")[1:] == sweep.PARETO[3::2]


def test_byte_sweep_reaches_sixteen_booms_at_100_trials():
    # Some config's study runs 100 trials up to 16 booms, so the sweep
    # compares one-boom-out drops taken in several groups
    # (``mechanics._one_out_stack``) at boom counts the shipped study does not reach.
    assert any(sc.n_range[1] >= 16 and sc.trials >= 100 for sc in sweep_configs())


def test_ab_study_verdict():
    # Base runs 1.00..1.09 s: quartiles 1.0175 and 1.0725, so an IQR of 0.055 s.
    ab = load_script("ab_study")
    base = [1.00 + 0.01 * i for i in range(10)]
    faster = [b - 0.1 for b in base]
    v = ab.verdict(base, faster)
    assert (v["head_wins"], v["base_wins"], v["gain"]) == (10, 0, True)
    assert v["gap"] == pytest.approx(0.1) and v["base_iqr"] == pytest.approx(0.055)
    # 9 of 10 pairs won is enough; a tie counts for neither side.
    assert ab.verdict(base, faster[:9] + [base[9] + 0.5])["gain"]
    tied = ab.verdict(base, faster[:8] + base[8:])
    assert (tied["head_wins"], tied["base_wins"], tied["gain"]) == (8, 0, False)
    # Every pair won, but by less than the base's own spread.
    close = ab.verdict(base, [b - 0.01 for b in base])
    assert close["head_wins"] == 10 and not close["gain"]
    assert not ab.verdict(base, base)["gain"]


def test_ab_study_usage(monkeypatch, capsys, tmp_path):
    ab = load_script("ab_study")
    assert run_script(monkeypatch, ab, ROOT, ROOT) == 1
    assert "usage: ab_study.py BASE HEAD CONFIG" in capsys.readouterr().err
    assert run_script(monkeypatch, ab, ROOT, tmp_path, ROOT / "configs" / "mars_lava_tube.json") == 1
    assert "is not a checkout of reachbot" in capsys.readouterr().err
    assert run_script(monkeypatch, ab, ROOT, ROOT, tmp_path / "none.json") == 1
    assert "config file not found" in capsys.readouterr().err


def test_ab_rss_verdict():
    # Base runs 32.70..32.79 MiB: quartiles 32.7175 and 32.7725, an IQR of 0.055.
    ab = load_script("ab_rss")
    base = [32.70 + 0.01 * i for i in range(10)]
    v = ab.verdict(base, [b + 0.03 for b in base], 0.06)
    assert v["excess"] == pytest.approx(0.03) and v["base_iqr"] == pytest.approx(0.055)
    assert v["result"] == "not worse"
    assert ab.verdict(base, [b + 0.07 for b in base], 0.06)["result"] == "worse"
    # The base spreads wider than the bound: unresolved either way...
    assert ab.verdict(base, [b + 0.07 for b in base], 0.05)["result"] == "unresolved"
    assert ab.verdict(base, [b - 0.01 for b in base], 0.05)["result"] == "unresolved"
    # ...unless every head run reads lower than every base run.
    assert ab.verdict(base, [32.60] * 10, 0.05)["result"] == "not worse"


def test_ab_rss_usage(monkeypatch, capsys, tmp_path):
    ab = load_script("ab_rss")
    assert run_script(monkeypatch, ab, ROOT, ROOT) == 1
    assert "usage: ab_rss.py BASE HEAD CONFIG" in capsys.readouterr().err
    assert run_script(monkeypatch, ab, ROOT, tmp_path, ROOT / "configs" / "mars_lava_tube.json") == 1
    assert "is not a checkout of reachbot" in capsys.readouterr().err
    assert run_script(monkeypatch, ab, ROOT, ROOT, tmp_path / "none.json") == 1
    assert "config file not found" in capsys.readouterr().err
