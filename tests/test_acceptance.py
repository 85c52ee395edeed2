"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with -s to see them live). The
checks pin the headline behaviors: the six-boom rank threshold, stability
monotonicity, superlinear manipulability, coverage saturation, the buckling
limit, constraint-driven design selection, oracle agreement, byte-level
determinism and the legacy stiffness-model signatures.
"""
import json
import time

import numpy as np
import pytest

import reachbot as rb
from reachbot.cli import main
from reachbot.config import load_config
from reachbot.mechanics import legacy_stiffness_cable, legacy_stiffness_pointmass
from reachbot.rng import substream
from reachbot.study import REL_EPS

from conftest import random_stance, surface_shift
from test_interference import corridor_grid_coverage
from test_mechanics import charpoly_coeffs
from test_stance import subset_dp_assign
from test_study import pareto_oracle

SEED = 42
TRIALS = 100


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def corridor():
    return rb.corridor(15.0, 100.0)


@pytest.fixture(scope="module")
def table(corridor):
    sc = rb.StudyConfig(terrain=corridor, robot_template=rb.make_robot(1),
                        n_range=(1, 10), trials=TRIALS, seed=SEED)
    return rb.run_trials(sc)


def test_1_rank_threshold(table):
    start = time.time()
    low_ok = True
    for n in range(1, 6):
        lmin = table.column(n, "lambda_min")
        lmax = table.column(n, "lambda_max")
        low_ok &= bool(np.all(lmin <= 1e-9 * np.maximum(lmax, 1e-300)))
    lmin6 = table.column(6, "lambda_min")
    lmax6 = table.column(6, "lambda_max")
    positive6 = int(np.sum(lmin6 > 1e-9 * lmax6))
    elapsed = time.time() - start
    report(1, "rank threshold", low_ok and positive6 >= 95 and elapsed < 10,
           f"N=6 positive in {positive6}/100 trials")


def test_2_stability_monotonicity(table):
    means = np.array([table.column(n, "lambda_min").mean() for n in range(5, 11)])
    increasing = bool(np.all(np.diff(means[1:]) > 0))  # N = 6..10
    gains = np.diff(means)  # gains[k] = delta(6+k)
    diminishing = bool(gains[4] < gains[1])  # delta(10) < delta(7)
    report(2, "stability monotone with diminishing returns",
           increasing and diminishing,
           f"delta(7)={gains[1]:.3g} delta(10)={gains[4]:.3g}")


def test_3_manipulability_superlinear(table):
    below = all(np.all(table.column(n, "manipulability") == 0.0) for n in range(1, 6))
    ns = np.arange(6, 11)
    means = np.array([table.column(n, "manipulability").mean() for n in ns])
    slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
    report(3, "manipulability superlinear", below and slope > 1.0,
           f"log-log slope {slope:.2f}")


def test_4_coverage_saturation(corridor):
    start = time.time()
    template = rb.make_robot(1)
    reps = rb.coverage_curve(template, corridor, (1, 12), 20000,
                             surface_shift(SEED))
    unique = reps["unique_pct"]
    overlap = reps["overlap_pct"]
    increasing = bool(np.all(np.diff(unique) > 0) and np.all(np.diff(overlap) > 0))
    marg = np.array([m[-1] for m in reps["per_boom_marginal"]])
    saturating = marg[9:12].mean() < marg[5:8].mean()
    from reachbot.robot import fibonacci_sphere
    d = fibonacci_sphere(12)[0]
    mount = rb.MountSpec(position=0.5 * d, axis=d)
    oracle = corridor_grid_coverage(rb.make_robot(1, mounts=[mount]), 15.0, 100.0, 1000, 1000)
    grid_ok = abs(reps["unique_pct"][0] - oracle["unique_pct"]) < 0.005
    elapsed = time.time() - start
    report(4, "coverage growth and saturation",
           increasing and saturating and grid_ok and elapsed < 60,
           f"single-boom MC {reps['unique_pct'][0]:.4f} vs grid {oracle['unique_pct']:.4f}")


def test_5_buckling():
    value = rb.buckling_moment(0.5, 1.0, 3.721, 20.0)
    exact = abs(value - 74.42) <= 1e-9
    cfg = rb.make_robot(8)
    strict = (not rb.check_buckling(74.42, cfg).satisfied
              and rb.check_buckling(74.42 + 1e-6, cfg).satisfied)
    report(5, "buckling limit", exact and strict, f"M_shoulder = {value} N*m")


def test_6_constraint_selection(corridor, table):
    start = time.time()
    template = rb.make_robot(1)
    summary = rb.aggregate(table, template)
    cov = rb.coverage_curve(template, corridor, (1, 10), 20000,
                            surface_shift(SEED))
    obo_only = rb.select_design(summary, cov,
                                rb.Constraints(tau_drill=0.0, one_boom_out=True),
                                template)
    min_obo = min(obo_only.feasible_n) if obo_only.feasible_n else None
    sc, _ = load_config("configs/mars_lava_tube.json")
    shipped = rb.run_study(sc)
    elapsed = time.time() - start
    report(6, "constraint-driven selection",
           min_obo == 7 and shipped.selected_n == 8 and elapsed < 60,
           f"one-boom-out minimum N = {min_obo}, shipped config N* = {shipped.selected_n}")


def test_7_oracle_suites(corridor):
    start = time.time()
    rng = substream(SEED, 0, "oracles")
    eig_ok = True
    for _ in range(1000):
        A = rng.normal(size=(6, 6))
        K = 0.5 * (A + A.T)
        vals = rb.sym_eig(K)
        roots = np.sort(np.roots(charpoly_coeffs(K)).real)
        eig_ok &= bool(np.max(np.abs(vals - roots)) <= 1e-8 * max(np.abs(vals).max(), 1e-12))

    assign_ok = True
    for k in range(200):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(n, 11))
        cfg = rb.make_robot(n)
        pool = rb.sample_anchors(corridor, m, 40.0, substream(SEED, k, "assign"))
        res = rb.assign(cfg, pool)
        oracle = subset_dp_assign(cfg, pool.points)
        if oracle is None:
            assign_ok &= res is None
        else:
            assign_ok &= res is not None and abs(res.total_length - oracle) < 1e-9

    pareto_ok = True
    for _ in range(100):
        pts = rng.uniform(size=(int(rng.integers(2, 40)), int(rng.integers(2, 4))))
        senses = ["min" if rng.uniform() < 0.5 else "max" for _ in range(pts.shape[1])]
        pareto_ok &= rb.pareto_front(pts, senses) == pareto_oracle(pts, senses)

    manip_ok = True
    trng = substream(SEED, 0, "manip")
    for _ in range(100):
        G = rb.grasp_map(random_stance(trng, int(trng.integers(6, 11))))
        w = rb.manipulability(G)
        sv = float(np.prod(np.linalg.svd(G, compute_uv=False)))
        if w > 0:
            manip_ok &= abs(w - sv) <= 1e-8 * sv
    elapsed = time.time() - start
    report(7, "oracle suites",
           eig_ok and assign_ok and pareto_ok and manip_ok and elapsed < 60,
           f"eig {eig_ok}, assign {assign_ok}, pareto {pareto_ok}, manip {manip_ok}")


def test_8_byte_determinism(tmp_path):
    names = ("report.json", "stability.csv", "summary.csv", "coverage.csv", "pareto.csv")
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        code = main(["study", "configs/mars_lava_tube.json", "--out-dir", str(d)])
        assert code == 0
    same = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    report(8, "byte-identical reruns", same)


def test_9_legacy_model_signatures():
    rng = substream(SEED, 0, "legacy")
    point_ok = True
    cable_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 11))
        st = random_stance(rng, n)
        pm = legacy_stiffness_pointmass(st)
        point_ok &= bool(np.array_equal(pm.K[3:, 3:], n * np.eye(3)))
        point_ok &= bool(np.allclose(np.linalg.eigvalsh(pm.K[3:, 3:]), n, rtol=0, atol=0))
        cable = legacy_stiffness_cable(st, 1.0)
        default = rb.stiffness(rb.grasp_map(st), 1.0)
        cable_ok &= bool(np.max(np.abs(cable.K - default.K)) <= 1e-12)
    report(9, "legacy model signatures", point_ok and cable_ok)
