"""Tests of the benchmark's own checks.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the program's default test run.
Each check must accept a real report and reject a deliberately corrupted
one; the independent matcher must agree with brute force.
"""
from __future__ import annotations

import copy
import io
import itertools
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from run import pool_drawer  # noqa: E402
from workloads import BASE_CONFIG, WORKLOADS, make_config  # noqa: E402


def brute_force(ok: np.ndarray, cost: np.ndarray) -> float | None:
    n, m = ok.shape
    best = None
    for cols in itertools.permutations(range(m), n):
        if all(ok[i, j] for i, j in enumerate(cols)):
            total = sum(cost[i, j] for i, j in enumerate(cols))
            best = total if best is None else min(best, total)
    return best


@pytest.mark.parametrize("seed", range(40))
def test_matcher_agrees_with_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(n, 8))
    ok = rng.random((n, m)) < 0.6
    cost = rng.random((n, m))
    anchors = checks.exact_matching(ok, cost)
    best = brute_force(ok, cost)
    if best is None:
        assert anchors is None
    else:
        assert anchors is not None and len(set(anchors)) == n
        assert all(ok[i, j] for i, j in enumerate(anchors))
        assert sum(cost[i, j] for i, j in enumerate(anchors)) == pytest.approx(best, rel=1e-12)


def test_lava_tube_at_default_seed_is_the_shipped_file():
    _, text = make_config(ROOT, "lava_tube", 42)
    assert text == (ROOT / BASE_CONFIG).read_text()
    assert set(WORKLOADS) == {w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A small real study through the CLI: (config, report, exit code, stdout, out dir, pools)."""
    from reachbot import cli
    from reachbot.config import load_config
    cfg, _ = make_config(ROOT, "sparse_pool", 3)
    cfg["study"].update(trials=8, surface_samples=4000)
    tmp = tmp_path_factory.mktemp("study")
    (tmp / "config.json").write_text(json.dumps(cfg))
    out = tmp / "out"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli.main(["study", str(tmp / "config.json"), "--out-dir", str(out)])
    sc, _ = load_config(tmp / "config.json")
    report = json.loads((out / "report.json").read_text())
    return cfg, report, code, stdout.getvalue(), out, pool_drawer(sc)


def test_real_report_passes_every_check(study):
    cfg, report, code, stdout, out, draw_pool = study
    assert any(c["resamples"] for c in report["trials"])  # the rebuild covers a resample
    assert checks.check_report(report, cfg, draw_pool) == []
    assert checks.check_cli(report, code, stdout, out) == []


def _cell(report, n):
    return next(c for c in report["trials"] if c["n"] == n and c["feasible"])


def _scale(key, factor):
    def corrupt(report, cfg):
        cell = _cell(report, 8)
        cell[key] *= factor
    return corrupt


def _set_rank(report, cfg):
    _cell(report, 3)["manipulability"] = 1.0


def _raise_one_out(report, cfg):
    cell = _cell(report, 8)
    cell["one_out_lambda_min"] = 2 * cell["lambda_min"] + 1.0


def _torque_over_full(report, cfg):
    cell = _cell(report, 8)
    cell["wrench_torque"] = 1.01 * cell["wrench_full"]


def _over_trace(report, cfg):
    cell = _cell(report, 8)
    cell["lambda_max"] = 1.01 * cfg["robot"]["k"] * 8 * (1 + cfg["robot"]["body_radius"] ** 2)


def _summary_mean(report, cfg):
    report["summary"][6]["mean_stability"] *= 1.001


def _flip_selection(report, cfg):
    report["selected_n"] = report["selected_n"] + 1 if report["selected_n"] else 10


def _flip_verdict(report, cfg):
    v = report["verdicts"][-1]
    v["binding"] = [] if v["binding"] else ["torque"]
    v["feasible"] = not v["feasible"]


def _histogram(report, cfg):
    report["coverage"][2]["count_histogram"][0] += 1


def _nesting(report, cfg):
    cov = report["coverage"]
    cov[3]["unique_pct"], cov[4]["unique_pct"] = cov[4]["unique_pct"], cov[3]["unique_pct"]


def _coverage_level(report, cfg):
    c = report["coverage"][-1]
    c["unique_pct"] += 0.05  # about ten standard errors at 4,000 samples
    c["per_boom_marginal"][-1] += 0.05


def _rebuilt_value(report, cfg):
    cell = checks.pick_cells(report)[-1]
    cell["lambda_max"] *= 1 + 1e-6


def _rebuilt_one_out(report, cfg):
    cell = checks.pick_cells(report)[-1]
    cell["one_out_lambda_min"] += 1e-6 * cell["lambda_max"]


def _pool_hash(report, cfg):
    checks.pick_cells(report)[0]["pool_hash"] = "0" * 16


@pytest.mark.parametrize("check, corrupt", [
    (checks.check_rank, _set_rank),
    (checks.check_weyl, _raise_one_out),
    (checks.check_interlacing, _torque_over_full),
    (checks.check_trace_bound, _over_trace),
    (checks.check_wrench_full, _scale("wrench_full", 1.001)),
    (checks.check_summary, _summary_mean),
    (checks.check_summary, _scale("lambda_min", 1.5)),
    (checks.check_selection, _flip_selection),
    (checks.check_selection, _flip_verdict),
    (checks.check_coverage, _histogram),
    (checks.check_coverage, _nesting),
    (checks.check_coverage, _coverage_level),
    ("rebuild", _rebuilt_value),
    ("rebuild", _rebuilt_one_out),
    ("rebuild", _pool_hash),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_check_rejects_corruption(study, check, corrupt):
    cfg, report, _, _, _, draw_pool = study
    report = copy.deepcopy(report)
    corrupt(report, cfg)
    if check == "rebuild":
        assert checks.check_rebuilt_cells(report, cfg, draw_pool)
    else:
        assert check(report, cfg)


def test_cli_check_rejects_disagreement(study, tmp_path):
    cfg, report, code, stdout, out, _ = study
    assert checks.check_cli(report, 1 - code if code in (0, 1) else 0, stdout, out)
    assert checks.check_cli(report, code, "selected N = 99\n", out)
    for name in ("stability.csv", "summary.csv", "pareto.csv"):
        bad = tmp_path / name.replace(".csv", "")
        bad.mkdir()
        for f in out.iterdir():
            (bad / f.name).write_bytes(f.read_bytes())
        lines = (bad / name).read_text().splitlines()
        row = lines[-1].split(",")
        row[2] = str(float(row[2]) * 1.01 + 1.0)
        lines[-1] = ",".join(row)
        (bad / name).write_text("\n".join(lines) + "\n")
        assert checks.check_cli(report, code, stdout, bad), name
