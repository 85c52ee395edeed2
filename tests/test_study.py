import dataclasses
import hashlib
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reachbot as rb
from reachbot import stance, study
from reachbot.config import parse_config
from reachbot.mechanics import METRICS
from reachbot.rng import substream
from reachbot.robot import fibonacci_sphere
from reachbot.study import MAX_RESAMPLES, REL_EPS, MetricsTable, anchor_window
from conftest import build_stance, default_config_dict, drop_boom, one_boom_out, random_stance
from test_mechanics import wrench_capability


def make_table(boom_counts, lambda_min, **columns):
    """A table whose lambda_min rows are given, one per boom count.

    Other columns are constant unless given as rows.
    """
    lmin = np.array(lambda_min, dtype=float)
    base = dict(feasible=True, resamples=0, pool_hash="abc", lambda_max=10.0,
                manipulability=1.0, wrench_full=1.0, wrench_torque=1.0,
                one_out_lambda_min=0.1, one_out_lambda_max=1.0)
    base.update(columns)
    cols = {name: np.broadcast_to(np.array(v), lmin.shape).copy() for name, v in base.items()}
    return MetricsTable(boom_counts=tuple(boom_counts), columns={**cols, "lambda_min": lmin})


def assert_tables_equal(a, b):
    assert a.boom_counts == b.boom_counts
    assert a.columns.keys() == b.columns.keys()
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name]), name


def make_summary(n, mass, **columns):
    """Summary columns for boom counts ``n``; other columns are constant unless given."""
    base = dict(worst_stability=1.0, mean_stability=1.0, mean_marginal_gain=0.0,
                mean_manipulability=1.0, agg_stability=1.0, agg_lambda_max=10.0,
                agg_wrench_full=5.0, agg_wrench_torque=5.0, one_out_worst=0.5,
                one_out_agg=0.5, one_out_agg_lambda_max=5.0, infeasible_trials=0)
    base.update(columns)
    return {"n": np.array(n), "mass": np.array(mass, dtype=float),
            **{name: np.broadcast_to(np.array(v), (len(n),)).copy() for name, v in base.items()}}


def aggregate_reference(table, robot_template, mode):
    """The summary computed one boom count at a time, as Python scalars."""
    fn = {"median": np.median, "mean": np.mean, "min": np.min, "max": np.max}[mode]
    rows, prev = [], None
    for n in table.boom_counts:
        col = {name: table.column(n, name) for name in table.columns}
        lmin = col["lambda_min"]
        rows.append(dict(
            n=n, mass=rb.total_mass(robot_template.with_boom_count(n)),
            worst_stability=float(lmin.min()), mean_stability=float(lmin.mean()),
            mean_marginal_gain=float(np.mean(lmin - prev)) if prev is not None else 0.0,
            mean_manipulability=float(col["manipulability"].mean()),
            agg_stability=float(fn(lmin)), agg_lambda_max=float(fn(col["lambda_max"])),
            agg_wrench_full=float(fn(col["wrench_full"])),
            agg_wrench_torque=float(fn(col["wrench_torque"])),
            one_out_worst=float(col["one_out_lambda_min"].min()),
            one_out_agg=float(fn(col["one_out_lambda_min"])),
            one_out_agg_lambda_max=float(fn(col["one_out_lambda_max"])),
            infeasible_trials=int((~col["feasible"]).sum())))
        prev = lmin
    return rows


def make_cov(n, unique=0.5, overlap=0.2):
    """Coverage columns for boom counts ``n``; fractions are constant unless given per N."""
    unique, overlap = (np.broadcast_to(np.array(v, dtype=float), (len(n),)).copy()
                       for v in (unique, overlap))
    return {"boom_count": np.array(n), "sample_count": np.full(len(n), 100),
            "unique_pct": unique, "overlap_pct": overlap,
            "per_boom_marginal": [[u] for u in unique.tolist()],
            "count_histogram": [[50, 50]] * len(n)}


def small_config(corridor, **kw):
    base = dict(terrain=corridor, robot_template=rb.make_robot(1),
                n_range=(1, 5), trials=4, seed=11, surface_samples=500)
    base.update(kw)
    return rb.StudyConfig(**base)


def pareto_oracle(values, senses):
    """All-pairs domination matrix, vectorized independently of the engine."""
    v = np.asarray(values, float) * np.array([1 if s == "min" else -1 for s in senses])
    le = np.all(v[:, None, :] <= v[None, :, :], axis=2)
    lt = np.any(v[:, None, :] < v[None, :, :], axis=2)
    dominated = np.any(le & lt, axis=0)
    return [i for i in range(len(v)) if not dominated[i]]


class TestAnchorWindow:
    def test_reach_limited(self, corridor):
        assert anchor_window(corridor, rb.make_robot(8)) == pytest.approx(40.0)

    def test_terrain_limited(self):
        short = rb.corridor(15, 30)
        assert anchor_window(short, rb.make_robot(8)) == pytest.approx(30.0)


class TestRunTrials:
    def test_low_boom_counts_never_stable(self, corridor):
        table = rb.run_trials(small_config(corridor))
        for n in range(1, 6):
            lmin = table.column(n, "lambda_min")
            lmax = table.column(n, "lambda_max")
            assert np.all(lmin <= REL_EPS * np.maximum(lmax, 1.0))

    def test_deterministic(self, corridor):
        sc = small_config(corridor, n_range=(6, 7), trials=1, seed=3)
        assert_tables_equal(rb.run_trials(sc), rb.run_trials(sc))

    def test_shared_pool_across_boom_counts(self, corridor):
        sc = small_config(corridor, n_range=(6, 9), trials=3, seed=42)
        table = rb.run_trials(sc)
        window = anchor_window(corridor, sc.robot_template)
        for t in range(3):
            shared = rb.sample_anchors(corridor, 3 * 9, window,
                                       substream(42, t, "anchors"), seed=42)
            expected = hashlib.sha256(shared.points.tobytes()).hexdigest()[:16]
            for c in table.records():
                if c["trial"] != t:
                    continue
                if c["resamples"] == 0:
                    assert c["pool_hash"] == expected  # common random numbers
                elif c["feasible"]:
                    assert c["pool_hash"] != expected  # fresh pool after resampling

    @staticmethod
    def mounts_table(axes=None):
        """Trials of a 6-boom study; ``axes`` lists explicit radial mounts."""
        cfg = default_config_dict(seed=5)
        cfg["study"].update(n_range=[6, 6], trials=5)
        if axes is not None:
            cfg["robot"]["mounts"] = [{"position": (0.5 * a).tolist(), "axis": a.tolist()}
                                      for a in axes]
        return rb.run_trials(parse_config(cfg))

    def test_explicit_mounts_change_trials(self):
        tilt, az = np.radians(25.0), np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
        clustered = np.column_stack([np.sin(tilt) * np.cos(az), np.sin(tilt) * np.sin(az),
                                     np.full(6, np.cos(tilt))])  # all near +z
        custom, generated = self.mounts_table(clustered), self.mounts_table()
        assert np.all(custom.columns["lambda_min"] != generated.columns["lambda_min"])

    def test_explicit_generated_mounts_match_layout(self):
        # build_mounts places mount i at body_radius * d_i with axis d_i.
        assert_tables_equal(self.mounts_table(fibonacci_sphere(6)), self.mounts_table())

    def test_cell_grid_complete(self, corridor):
        sc = small_config(corridor, n_range=(2, 4), trials=3)
        table = rb.run_trials(sc)
        assert all(col.shape == (3, 3) for col in table.columns.values())
        assert [(c["n"], c["trial"]) for c in table.records()] == [
            (n, t) for t in range(3) for n in (2, 3, 4)]

    def test_debug_log_counts_rounds(self, corridor, caplog):
        sc = small_config(corridor, robot_template=rb.make_robot(1, L_max=18.0),
                          n_range=(6, 8), trials=4, seed=1, pool_multiplier=2)
        with caplog.at_level(logging.DEBUG, logger="reachbot"):
            table = rb.run_study(sc).table
        messages = [r.getMessage() for r in caplog.records]
        (trials_s,) = [float(m.split()[1]) for m in messages if m.startswith("trials: ")]
        lines = [m for m in messages if "rounds" in m]
        assert len(lines) == 3
        stage_s = 0.0
        for n, line in zip((6, 7, 8), lines):
            *counts, draw_s, match_s = re.fullmatch(
                rf"N = {n}: (\d+) rounds, (\d+) pools rejected by the screen, (\d+) pools "
                r"solved: (\d+) by the row-minimum shortcut, (\d+) by augmenting paths; "
                r"(\d+) pools drawn in (\d+) passes; "
                r"(\d+\.\d{4}) s drawing pools, (\d+\.\d{4}) s matching", line).groups()
            rounds, rejected, solved, shortcut, augmented, drawn, passes = map(int, counts)
            resamples = table.column(n, "resamples")
            assert rounds == resamples.max() + 1
            # every pool up to each trial's first complete round
            assert rejected + solved == sc.trials + resamples.sum()
            assert drawn >= resamples.sum()  # a pass may draw rounds past a trial's hit
            assert 1 <= passes <= rounds
            assert solved >= table.column(n, "feasible").sum()
            assert shortcut + augmented == solved
            stage_s += float(draw_s) + float(match_s)
        assert stage_s <= trials_s + 1e-3  # the logged figures are rounded

    def test_cells_match_scalar_path(self, corridor):
        # Reference: each cell rebuilt on its own with the scalar functions.
        sc = small_config(corridor, robot_template=rb.make_robot(1, L_max=18.0),
                          n_range=(1, 8), trials=4, seed=1, pool_multiplier=2)
        cells = rb.run_trials(sc).records()
        assert any(c["resamples"] and c["feasible"] for c in cells)
        assert any(not c["feasible"] for c in cells)
        window = anchor_window(corridor, sc.robot_template)

        def digest(pool):
            return hashlib.sha256(pool.points.tobytes()).hexdigest()[:16]

        for c in cells:
            n = c["n"]

            def draw(tag):
                return rb.sample_anchors(corridor, sc.pool_multiplier * 8, window,
                                         substream(sc.seed, c["trial"], tag), seed=sc.seed)

            cfg = sc.robot_template.with_boom_count(n)
            shared = pool = draw("anchors")
            st = build_stance(cfg, pool)
            resamples = 0
            while st is None and resamples < MAX_RESAMPLES:
                resamples += 1
                pool = draw(f"resample:{n}:{resamples}")
                st = build_stance(cfg, pool)
            expect = dict(n=n, trial=c["trial"], feasible=st is not None, resamples=resamples)
            if st is None:
                assert c == dict(expect, pool_hash=digest(shared), **dict.fromkeys(METRICS, 0.0))
                continue
            G = rb.grasp_map(st)
            res = rb.stiffness(G, cfg.boom_stiffness)
            wc = wrench_capability(res, sc.calibration.delta_ref)
            worst = (0.0, 0.0)
            if n >= 2:
                worst = (np.inf, 0.0)
                for i in range(n):
                    drop = rb.stiffness(rb.grasp_map(drop_boom(st, i)), cfg.boom_stiffness)
                    if drop.stability < worst[0]:
                        worst = (drop.stability, drop.wrench_capability)
            assert c == dict(
                expect, lambda_min=res.stability, lambda_max=res.wrench_capability,
                manipulability=rb.manipulability(G), wrench_full=wc.full,
                wrench_torque=wc.torque, one_out_lambda_min=worst[0],
                one_out_lambda_max=worst[1], pool_hash=digest(pool))


def test_mission_template_places_every_count(corridor, monkeypatch):
    """An in-process mission template gets mission mounts at every boom count."""
    sc = small_config(corridor, robot_template=rb.make_robot(10, layout="mission"),
                      n_range=(1, 10), trials=3)
    seen = {}

    def recording(sc, cfg, *args):
        seen[cfg.boom_count] = cfg
        return match_rounds(sc, cfg, *args)

    match_rounds = study.match_rounds
    monkeypatch.setattr(study, "match_rounds", recording)
    study.run_trials(sc)
    assert sorted(seen) == list(range(1, 11))
    for n, cfg in seen.items():
        assert cfg.layout == "mission"
        assert np.array_equal(cfg.shoulders, rb.make_robot(n, layout="mission").shoulders)


def test_explicit_template_serves_its_own_count(corridor):
    # The config is refused as built, before any pool is drawn.
    given = rb.make_robot(4, mounts=rb.build_mounts(4, layout="mission"))
    for lo, hi in ((3, 4), (4, 5), (3, 3)):
        with pytest.raises(ValueError, match=r"explicit mounts are given for 4 booms, so "
                           rf"n_range must be \[4, 4\], not \[{lo}, {hi}\]"):
            small_config(corridor, robot_template=given, n_range=(lo, hi), trials=2)
    assert small_config(corridor, robot_template=given, n_range=(4, 4)).boom_counts == [4]


def match_rounds_reference(sc, cfg, trials, shared):
    """``study.match_rounds`` with one resample round per pass: the multi-round passes' oracle."""
    n = cfg.boom_count
    feasible, resamples = np.zeros(len(trials), dtype=bool), np.full(len(trials), MAX_RESAMPLES)
    pools, rows = shared.copy(), np.zeros((len(trials), n), dtype=int)
    pending, points, rounds = np.arange(len(trials)), shared, 0
    while pending.size and rounds <= MAX_RESAMPLES:
        if rounds:
            points = study.draw_pools(sc, trials[pending], f"resample:{n}:{rounds}")
        matched, total, _, _ = study.match_pools(cfg, points)
        hit = total < np.inf
        done = pending[hit]
        feasible[done], resamples[done] = True, rounds
        pools[done], rows[done] = points[hit], matched[hit]
        pending, rounds = pending[~hit], rounds + 1
    return feasible, resamples, pools, rows


class TestMatchRounds:
    @staticmethod
    def solver_inputs(monkeypatch, fn, *args):
        """fn's result and the sorted cost matrices it passes to the augmenting-path solver."""
        seen, solve = [], stance._augmenting_paths

        def recording(cost, first):
            seen.append(cost.tobytes())
            return solve(cost, first)

        monkeypatch.setattr(stance, "_augmenting_paths", recording)
        result = fn(*args)
        monkeypatch.setattr(stance, "_augmenting_paths", solve)
        return result, sorted(seen)

    @pytest.mark.parametrize("trials", [[17], range(4), range(40)])
    def test_equals_one_round_per_pass(self, corridor, monkeypatch, trials):
        sc = small_config(corridor, robot_template=rb.make_robot(1, L_max=18.0),
                          n_range=(5, 8), trials=max(trials) + 1, seed=1, pool_multiplier=2)
        trials = np.array(trials)
        shared = study.draw_pools(sc, trials, "anchors")
        resampled = infeasible = 0
        for n in sc.boom_counts:
            cfg = sc.robot_template.with_boom_count(n)
            got, got_costs = self.solver_inputs(monkeypatch, study.match_rounds,
                                                sc, cfg, trials, shared)
            want, want_costs = self.solver_inputs(monkeypatch, match_rounds_reference,
                                                  sc, cfg, trials, shared)
            for a, b in zip(got, want):  # feasible, resamples, pools, anchor rows
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert got_costs == want_costs  # the solver sees the same pools
            resampled += (want[0] & (want[1] > 0)).sum()
            infeasible += (~want[0]).sum()
        if len(trials) > 1:
            assert resampled and infeasible

    def test_one_trial_keeps_one_round_per_pass(self, corridor, caplog):
        sc = small_config(corridor, robot_template=rb.make_robot(1, L_max=18.0),
                          n_range=(8, 8), trials=1, seed=1, pool_multiplier=2)
        trials = np.array([0])
        with caplog.at_level(logging.DEBUG, logger="reachbot"):
            study.match_rounds(sc, sc.robot_template.with_boom_count(8), trials,
                               study.draw_pools(sc, trials, "anchors"))
        (line,) = [r.getMessage() for r in caplog.records if "passes" in r.getMessage()]
        rounds, drawn, passes = map(int, re.search(
            r"(\d+) rounds.*; (\d+) pools drawn in (\d+) passes", line).groups())
        assert passes == rounds and drawn == rounds - 1


class TestAggregate:
    def test_marginal_gain(self):
        table = make_table((1, 2), [[1.0, 2.0], [1.5, 2.5]])
        summary = rb.aggregate(table, rb.make_robot(1))
        assert summary["mean_marginal_gain"].tolist() == [0.0, pytest.approx(0.5)]
        assert summary["mean_stability"][1] == pytest.approx(2.0)
        assert summary["worst_stability"][1] == pytest.approx(1.5)

    def test_median_vs_mean(self):
        table = make_table((3,), [[0.0, 0.0, 9.0]])
        med = rb.aggregate(table, rb.make_robot(1), "median")
        mean = rb.aggregate(table, rb.make_robot(1), "mean")
        assert med["agg_stability"].tolist() == [0.0]
        assert mean["agg_stability"].tolist() == [pytest.approx(3.0)]

    def test_mass_from_template(self):
        table = make_table((7, 8), [[1.0], [1.0]])
        summary = rb.aggregate(table, rb.make_robot(1))
        assert summary["mass"].tolist() == [pytest.approx(24.0), pytest.approx(26.0)]

    def test_counts_infeasible(self):
        table = make_table((2, 3), [[0.0, 0.0], [0.0, 0.0]],
                           feasible=[[False, True], [False, False]])
        assert rb.aggregate(table, rb.make_robot(1))["infeasible_trials"].tolist() == [1, 2]

    @pytest.mark.parametrize("mode", ["median", "mean", "min", "max"])
    def test_columns_equal_per_n_reference(self, corridor, mode):
        # A real table with resampled and infeasible cells.
        sc = small_config(corridor, robot_template=rb.make_robot(1, L_max=18.0),
                          n_range=(1, 8), trials=5, seed=1, pool_multiplier=2)
        table = rb.run_trials(sc)
        assert not table.columns["feasible"].all()
        summary = rb.aggregate(table, sc.robot_template, mode)
        rows = aggregate_reference(table, sc.robot_template, mode)
        assert list(summary) == list(rows[0])
        for name, column in summary.items():
            assert column.shape == (8,)
            assert np.array_equal(column, [r[name] for r in rows]), name


class TestOneBoomOut:
    def test_seven_booms_can_survive(self, rng):
        hits = 0
        for _ in range(10):
            st = random_stance(rng, 7)
            oo_min, oo_max = one_boom_out(st, 100.0)
            full = rb.stiffness(rb.grasp_map(st), 100.0)
            assert oo_min <= full.stability + 1e-9 * full.wrench_capability
            if oo_min > REL_EPS * oo_max:
                hits += 1
        assert hits > 0

    def test_six_booms_always_fail(self, rng):
        for _ in range(10):
            st = random_stance(rng, 6)
            oo_min, oo_max = one_boom_out(st, 100.0)
            assert oo_min <= REL_EPS * max(oo_max, 1.0)

    def test_matches_direct_minimum(self, rng):
        st = random_stance(rng, 8)
        oo_min, _ = one_boom_out(st, 100.0)
        direct = min(rb.stiffness(rb.grasp_map(drop_boom(st, i)), 100.0).stability
                     for i in range(8))
        assert oo_min == pytest.approx(direct, rel=1e-12)

    def test_rejects_single_boom_and_bad_weight(self, rng):
        single = rb.Stance([[0.5, 0, 0]], [[10.0, 0, 0]], np.zeros(3))
        with pytest.raises(ValueError, match="only boom"):
            one_boom_out(single, 100.0)
        with pytest.raises(ValueError, match="positive"):
            one_boom_out(random_stance(rng, 7), 0.0)


class TestParetoFront:
    def test_single_point(self):
        assert rb.pareto_front(np.array([[1.0, 2.0]]), ["min", "max"]) == [0]

    def test_dominated_point_removed(self):
        pts = np.array([[1.0, 5.0], [2.0, 4.0], [3.0, 6.0]])
        assert rb.pareto_front(pts, ["min", "max"]) == [0, 2]

    def test_duplicate_points_both_kept(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert rb.pareto_front(pts, ["min", "min"]) == [0, 1]

    def test_sense_mismatch(self):
        with pytest.raises(ValueError, match="sense"):
            rb.pareto_front(np.zeros((2, 2)), ["min"])

    def test_against_matrix_oracle(self, rng):
        for k in (2, 3):
            for _ in range(20):
                pts = rng.uniform(size=(30, k))
                senses = ["min" if rng.uniform() < 0.5 else "max" for _ in range(k)]
                assert rb.pareto_front(pts, senses) == pareto_oracle(pts, senses)

    def test_chunked_against_matrix_oracle(self, rng, monkeypatch):
        monkeypatch.setattr(study, "PARETO_CHUNK", 7)  # divides none of the point counts
        for n, k in ((1, 2), (30, 2), (50, 3), (64, 2)):
            # few distinct values: ties in every objective and duplicate points
            pts = rng.integers(0, 4, size=(n, k)).astype(float)
            pts[n // 2:] = pts[:n - n // 2]
            senses = ["min" if rng.uniform() < 0.5 else "max" for _ in range(k)]
            assert rb.pareto_front(pts, senses) == pareto_oracle(pts, senses)

    def test_memory_bounded_by_chunk(self, rng):
        pts = rng.uniform(size=(10_000, 2))
        tracemalloc.start()
        try:
            rb.pareto_front(pts, ["min", "max"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 34 * 2**20

    def test_permutation_invariant_as_set(self, rng):
        pts = rng.uniform(size=(25, 2))
        front = {tuple(pts[i]) for i in rb.pareto_front(pts, ["min", "max"])}
        perm = rng.permutation(25)
        front2 = {tuple(pts[perm][i]) for i in rb.pareto_front(pts[perm], ["min", "max"])}
        assert front == front2


class TestSelectDesign:
    def test_min_mass_feasible_wins(self):
        summary = make_summary([6, 7, 8], [22.0, 24.0, 26.0])
        # overlap falls with N, so only mass can pick N = 6
        cov = make_cov([6, 7, 8], overlap=[0.4, 0.3, 0.1])
        res = rb.select_design(summary, cov,
                               rb.Constraints(tau_drill=0.0, one_boom_out=False),
                               rb.make_robot(1))
        assert res.selected_n == 6
        assert res.feasible_n == (6, 7, 8)

    def test_torque_constraint_binds(self):
        summary = make_summary([6, 7], [22.0, 24.0], agg_wrench_torque=[3.0, 5.0])
        cov = make_cov([6, 7])
        res = rb.select_design(summary, cov,
                               rb.Constraints(tau_drill=4.0, one_boom_out=False),
                               rb.make_robot(1))
        assert res.selected_n == 7
        assert res.verdicts["binding"] == [("torque",), ()]
        assert res.verdicts["torque_ok"].tolist() == [False, True]

    def test_one_boom_out_binds(self):
        summary = make_summary([6, 7], [22.0, 24.0], one_out_agg=[0.0, 0.3])
        cov = make_cov([6, 7])
        res = rb.select_design(summary, cov,
                               rb.Constraints(tau_drill=0.0, one_boom_out=True),
                               rb.make_robot(1))
        assert res.selected_n == 7
        assert res.verdicts["binding"][0] == ("one_boom_out",)

    def test_stability_always_enforced(self):
        summary = make_summary([1, 6], [12.0, 22.0], agg_stability=[0.0, 1.0])
        cov = make_cov([1, 6])
        res = rb.select_design(summary, cov,
                               rb.Constraints(tau_drill=0.0, one_boom_out=False),
                               rb.make_robot(1))
        assert res.selected_n == 6
        assert res.verdicts["binding"][0] == ("stability",)

    def test_mass_tie_breaks_on_overlap(self):
        summary = make_summary([6, 7], [22.0, 22.0])
        cov = make_cov([6, 7], overlap=[0.4, 0.1])
        res = rb.select_design(summary, cov,
                               rb.Constraints(tau_drill=0.0, one_boom_out=False),
                               rb.make_robot(1))
        assert res.selected_n == 7

    @pytest.mark.parametrize("boom_counts", [[6, 7], [6, 8, 7], [6, 7, 8, 9], [5, 6, 7]])
    def test_coverage_must_have_the_summary_boom_counts(self, boom_counts):
        summary = make_summary([6, 7, 8], [22.0, 24.0, 26.0])
        with pytest.raises(ValueError, match="coverage boom counts"):
            rb.select_design(summary, make_cov(boom_counts),
                             rb.Constraints(tau_drill=0.0, one_boom_out=False),
                             rb.make_robot(1))

    def test_no_feasible_design(self):
        summary = make_summary([6], [22.0], agg_wrench_torque=1.0)
        res = rb.select_design(summary, make_cov([6]),
                               rb.Constraints(tau_drill=4.0, one_boom_out=False),
                               rb.make_robot(1))
        assert res.selected_n is None
        assert res.feasible_n == ()

    def test_buckling_constraint(self):
        summary = make_summary([8], [26.0])
        res = rb.select_design(summary, make_cov([8]),
                               rb.Constraints(tau_drill=0.0, one_boom_out=False,
                                              m_critical=50.0),
                               rb.make_robot(8))
        assert res.selected_n is None
        assert res.buckling is not None and not res.buckling.satisfied
        ok = rb.select_design(summary, make_cov([8]),
                              rb.Constraints(tau_drill=0.0, one_boom_out=False,
                                             m_critical=100.0),
                              rb.make_robot(8))
        assert ok.selected_n == 8

    def test_monotone_in_tau_drill(self):
        ns = list(range(5, 10))
        summary = make_summary(ns, [20.0 + n for n in ns], agg_wrench_torque=[float(n) for n in ns])
        cov = make_cov(ns)
        prev = None
        for tau in (0.0, 5.5, 7.5, 9.5, 20.0):
            res = rb.select_design(summary, cov,
                                   rb.Constraints(tau_drill=tau, one_boom_out=False),
                                   rb.make_robot(1))
            feas = set(res.feasible_n)
            if prev is not None:
                assert feas <= prev
            prev = feas


class TestMedian:
    """study._median against np.median, byte for byte."""

    @pytest.mark.parametrize("trials", [1, 2, 3, 4, 7, 100, 101])
    def test_equals_np_median(self, trials):
        rng = np.random.default_rng(trials)
        rows = [rng.normal(size=trials),
                rng.integers(-2, 3, size=trials).astype(float),  # ties
                np.full(trials, 0.3), np.where(rng.random(trials) < 0.3, -np.inf, 1.0),
                np.where(np.arange(trials) == trials // 2, np.nan, rng.normal(size=trials)),
                np.full(trials, np.nan)]
        a = np.array(rows)
        with np.errstate(invalid="ignore"):
            got, want = study._median(a, axis=1), np.median(a, axis=1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[-2:]).all()

    def test_study_never_imports_numpy_ma(self, tmp_path):
        # np.median's NaN check imports numpy.ma, about 15 ms a process.
        src = str(Path(rb.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; import reachbot as rb; "
                "rb.run_study(rb.StudyConfig(terrain=rb.corridor(), robot_template=rb.make_robot(1), "
                "n_range=(6, 8), trials=5, seed=42, surface_samples=2000)); "
                "print('numpy.ma' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestSurfaceShift:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 32, 2 ** 64 + 1])
    def test_shift_is_the_surface_streams_first_two_doubles(self, corridor, seed, monkeypatch):
        seen = []

        def recording(robot, terrain, n_range, sample_count, shift, *args):
            seen.append(shift)
            return {}

        monkeypatch.setattr(study, "coverage_curve", recording)
        study.study_coverage(small_config(corridor, n_range=(2, 3), seed=seed), 100)
        (shift,) = seen
        assert shift.tobytes() == substream(seed, 0, "surface").random(2).tobytes()

    @pytest.mark.parametrize("command", ["study", "coverage"])
    def test_cli_never_imports_numpy_random(self, tmp_path, command):
        # Every draw of a study comes from substream_uniforms; importing
        # numpy.random would cost about 8 ms and 2 MiB a launch.
        root = Path(rb.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        code = ("import sys; from reachbot.cli import main; "
                f"code = main([{command!r}, {str(root / 'configs' / 'mars_lava_tube.json')!r}, "
                f"'--out-dir', {str(tmp_path)!r}]); "
                "print(code, 'numpy.random' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"


class TestRunStudy:
    def test_end_to_end_small(self, corridor):
        sc = rb.StudyConfig(terrain=corridor, robot_template=rb.make_robot(1),
                            n_range=(6, 8), trials=5, seed=42, surface_samples=2000,
                            constraints=rb.Constraints(tau_drill=0.0, one_boom_out=False))
        rep = rb.run_study(sc)
        assert rep.selected_n in (6, 7, 8)
        d = rep.to_dict()
        assert d["schema_version"] == 1
        assert d["selected_n"] == rep.selected_n
        assert len(d["trials"]) == 15
        assert len(d["summary"]) == 3

    def test_trial_records_are_trial_major(self, corridor):
        sc = small_config(corridor, n_range=(5, 7), trials=3, seed=42)
        trials = rb.run_study(sc).to_dict()["trials"]
        assert [(c["n"], c["trial"]) for c in trials] == [
            (n, t) for t in range(3) for n in (5, 6, 7)]
        types = dict(n=int, trial=int, feasible=bool, resamples=int, pool_hash=str,
                     **dict.fromkeys(METRICS, float))
        for c in trials:
            assert {key: type(value) for key, value in c.items()} == types

    def test_summary_candidates_verdicts_records(self, corridor):
        sc = small_config(corridor, n_range=(5, 7), trials=3, seed=42,
                          constraints=rb.Constraints(m_critical=50.0))
        d = rb.run_study(sc).to_dict()
        types = {
            "summary": dict(n=int, mass=float, worst_stability=float, mean_stability=float,
                            mean_marginal_gain=float, mean_manipulability=float,
                            agg_stability=float, agg_lambda_max=float,
                            agg_wrench_full=float, agg_wrench_torque=float,
                            one_out_worst=float, one_out_agg=float,
                            one_out_agg_lambda_max=float, infeasible_trials=int),
            "candidates": dict(n=int, mass=float, torque_capability=float,
                               worst_stability=float, unique_pct=float, overlap_pct=float),
            "verdicts": dict(n=int, stability_ok=bool, torque_ok=bool, one_boom_out_ok=bool,
                             buckling_ok=bool, feasible=bool, binding=tuple),
        }
        for key, expected in types.items():
            assert [r["n"] for r in d[key]] == [5, 6, 7], key
            for r in d[key]:
                assert {k: type(v) for k, v in r.items()} == expected, key
        for v in d["verdicts"]:
            assert all(type(name) is str for name in v["binding"])
            assert v["binding"] == tuple(name for name in (
                "stability", "torque", "one_boom_out", "buckling") if not v[f"{name}_ok"])
            assert v["feasible"] == (not v["binding"])
        assert "buckling" in d["verdicts"][0]["binding"]

    def test_readme_documents_every_report_key(self, corridor):
        sc = small_config(corridor, n_range=(5, 6), trials=2, seed=42,
                          constraints=rb.Constraints(m_critical=50.0))
        d = rb.run_study(sc, {"seed": 42}).to_dict()
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## report.json\n", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"`([^`]+)`", section))
        keys = set(d) | set(d["buckling"])
        for block in ("summary", "candidates", "verdicts", "coverage", "trials"):
            keys |= set(d[block][0])
        assert sorted(keys - documented) == []

    def test_config_is_null_without_echo(self, corridor):
        sc = small_config(corridor, n_range=(5, 5), trials=1)
        assert rb.run_study(sc).to_dict()["config"] is None
        assert rb.run_study(sc, {"seed": 0}).to_dict()["config"] == {"seed": 0}

    def test_candidates_project_summary_and_coverage(self, corridor):
        rep = rb.run_study(small_config(corridor, n_range=(5, 7), trials=2))
        candidates = rep.to_dict()["candidates"]
        for key, column in (("mass", rep.summary["mass"]),
                            ("torque_capability", rep.summary["agg_wrench_torque"]),
                            ("unique_pct", rep.coverage["unique_pct"]),
                            ("overlap_pct", rep.coverage["overlap_pct"])):
            assert [c[key] for c in candidates] == column.tolist(), key

    def test_report_deterministic(self, corridor):
        sc = rb.StudyConfig(terrain=corridor, robot_template=rb.make_robot(1),
                            n_range=(6, 7), trials=3, seed=9, surface_samples=1000)
        a = rb.run_study(sc).to_dict()
        b = rb.run_study(sc).to_dict()
        assert a == b

    def test_config_validation(self, corridor):
        with pytest.raises(ValueError, match="trials"):
            rb.StudyConfig(terrain=corridor, robot_template=rb.make_robot(1), trials=0)
        with pytest.raises(ValueError, match="seed"):
            rb.StudyConfig(terrain=corridor, robot_template=rb.make_robot(1), seed=-1)
        with pytest.raises(ValueError, match="aggregate_mode"):
            rb.StudyConfig(terrain=corridor, robot_template=rb.make_robot(1),
                           aggregate_mode="mode")
        with pytest.raises(ValueError, match="coverage_layout"):
            rb.StudyConfig(terrain=corridor, robot_template=rb.make_robot(1),
                           coverage_layout="ring")
        for samples in (0, -5):
            with pytest.raises(ValueError, match="surface_samples"):
                rb.StudyConfig(terrain=corridor, robot_template=rb.make_robot(1),
                               surface_samples=samples)
        for field in ("trials", "pool_multiplier", "surface_samples"):
            for value in (2.5, "3", True):
                cfg = default_config_dict()
                cfg["study"][field] = value
                with pytest.raises(ValueError, match=f"study.{field} has invalid type"):
                    parse_config(cfg)
