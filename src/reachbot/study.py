"""Monte Carlo trade study over boom counts.

For each trial one shared anchor pool is drawn (common random numbers), so
every boom count is evaluated against identical terrain draws and per-N
comparisons are low-variance. Metrics are aggregated per boom count, mission
constraints applied, the Pareto front extracted and a design selected. Boom
count N's robot is ``robot_template.with_boom_count(N)``, so the template's
layout places every N's mounts.
"""
from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import asdict, dataclass, field
from itertools import compress

import numpy as np

from .interference import Coverage, coverage_curve
from .mechanics import METRICS, grasp_map_stack, stance_metrics
from .rng import substream_uniforms
from .robot import BucklingReport, RobotConfig, check_buckling, total_mass
from .stance import match_pools
from .terrain import Terrain, sample_pools

log = logging.getLogger(__name__)

# Relative eigenvalue threshold separating rank-deficient zeros from small
# positive stabilities.
REL_EPS = 1e-9

MAX_RESAMPLES = 100

# Rows of pareto_front's domination matrix taken at once. Its working memory
# is about 3 bytes per chunk row and point, whatever the objective count:
# 7.5 MiB at 10,000 points (tracemalloc peak).
PARETO_CHUNK = 256


def _median(a: np.ndarray, axis: int) -> np.ndarray:
    """np.median byte for byte, without its NaN check's numpy.ma import (about 15 ms a process)."""
    n = a.shape[axis]
    part = np.partition(a, [(n - 1) // 2, n // 2, -1], axis=axis)
    mid = np.take(part, range((n - 1) // 2, n // 2 + 1), axis=axis).mean(axis=axis)
    last = np.take(part, -1, axis=axis)  # the largest value, or a NaN
    return np.where(np.isnan(last), last, mid)  # as np.median: NaN where a row holds one


# study.aggregate mode -> the reduction that aggregates a metric over trials
AGGREGATES = {"median": _median, "mean": np.mean, "min": np.min, "max": np.max}


@dataclass(frozen=True)
class Constraints:
    tau_drill: float = 4.0  # N*m, required applicable drilling torque
    m_critical: float | None = None  # N*m boom critical buckling moment; None = not evaluated
    one_boom_out: bool = True

    def __post_init__(self):
        if self.tau_drill < 0:
            raise ValueError("tau_drill must be non-negative")
        if self.m_critical is not None and self.m_critical < 0:
            raise ValueError("m_critical must be non-negative")


@dataclass(frozen=True)
class Calibration:
    delta_ref: float = 0.1  # meters-equivalent displacement budget

    def __post_init__(self):
        if not self.delta_ref > 0:
            raise ValueError("delta_ref must be positive")


@dataclass(frozen=True)
class StudyConfig:
    terrain: Terrain
    robot_template: RobotConfig
    n_range: tuple[int, int] = (1, 10)
    trials: int = 100
    seed: int = 0
    pool_multiplier: int = 3
    surface_samples: int = 20000
    coverage_layout: str = "nested"
    aggregate_mode: str = "median"
    constraints: Constraints = field(default_factory=Constraints)
    calibration: Calibration = field(default_factory=Calibration)

    def __post_init__(self):
        lo, hi = self.n_range
        if not 1 <= lo <= hi:
            raise ValueError("n_range must satisfy 1 <= lo <= hi")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.pool_multiplier < 1:
            raise ValueError("pool_multiplier must be >= 1")
        if self.aggregate_mode not in AGGREGATES:
            raise ValueError("aggregate_mode must be median, mean, min or max")
        if self.surface_samples < 1:
            raise ValueError("surface_samples must be >= 1")
        if self.coverage_layout not in ("nested", "uniform", "mission"):
            raise ValueError("coverage_layout must be nested, uniform or mission")
        k = self.robot_template.boom_count
        if self.robot_template.layout == "explicit" and (lo, hi) != (k, k):
            raise ValueError(f"explicit mounts are given for {k} booms, so n_range must be "
                             f"[{k}, {k}], not [{lo}, {hi}]")

    @property
    def boom_counts(self) -> list[int]:
        return list(range(self.n_range[0], self.n_range[1] + 1))


@dataclass(frozen=True, eq=False)
class MetricsTable:
    """Per-cell study results as columns, one row per boom count.

    ``columns`` maps "feasible", "resamples", "pool_hash" and every METRICS
    name to a (len(boom_counts), trials) array; an infeasible cell's
    metrics read 0.
    """

    boom_counts: tuple[int, ...]
    columns: dict[str, np.ndarray]

    @property
    def trials(self) -> int:
        return self.columns["feasible"].shape[1]

    def column(self, n: int, name: str) -> np.ndarray:
        """Boom count n's row of one column, a view of it."""
        return self.columns[name][self.boom_counts.index(n)]

    def records(self) -> list[dict]:
        """One dict of Python scalars per cell, trial-major."""
        n, trial = np.meshgrid(self.boom_counts, range(self.trials))
        return column_records({"n": n.ravel(), "trial": trial.ravel(),
                               **{name: col.T.ravel() for name, col in self.columns.items()}})


def column_records(columns: dict) -> list[dict]:
    """One dict of Python scalars per row of equal-length columns (arrays or lists)."""
    values = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


def anchor_window(terrain: Terrain, cfg: RobotConfig) -> float:
    """Longitudinal anchor window: twice the boom reach, capped by the terrain."""
    return min(2.0 * cfg.L_max, terrain.longitudinal_extent)


def draw_pools(sc: StudyConfig, trials: np.ndarray, tags) -> np.ndarray:
    """The trials' anchor pools, stacked as (len(trials), M, 3).

    ``tags`` is one stream tag for every trial or one per trial. Every pool
    holds M = pool_multiplier * n_max anchors within the anchor window,
    whatever the boom count it serves.
    """
    count = sc.pool_multiplier * sc.n_range[1]
    return sample_pools(sc.terrain, count, anchor_window(sc.terrain, sc.robot_template),
                        substream_uniforms(sc.seed, trials, tags, 2 * count))


def match_rounds(sc: StudyConfig, cfg: RobotConfig, trials: np.ndarray,
                 shared: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The boom-to-anchor assignments of cells (cfg.boom_count, trials), round by round.

    ``shared`` holds the trials' ``draw_pools(sc, trials, "anchors")``.
    Round 0 matches every shared pool; round k = 1..MAX_RESAMPLES draws
    ``resample:{N}:{k}`` for the trials still unmatched. Returns (feasible
    (T,), resamples (T,), pools (T, M, 3), anchor rows (T, N)); an
    infeasible cell reports the shared pool, and its anchor rows read 0.

    One pass draws, screens and matches b consecutive rounds of every
    pending trial at once, and each trial keeps its first complete round,
    so the results are those of one round at a time. b starts at 1 and
    doubles from pass to pass, but no pass holds more pools than round 0.
    """
    n, feasible = cfg.boom_count, np.zeros(len(trials), dtype=bool)
    resamples = np.full(len(trials), MAX_RESAMPLES)
    pools, rows = shared.copy(), np.zeros((len(trials), n), dtype=int)
    pending, points, first_round, width = np.arange(len(trials)), shared, 0, 1
    rounds = rejected = solved = shortcuts = drawn = passes = 0
    draw_s = match_s = 0.0
    while pending.size and first_round <= MAX_RESAMPLES:
        start = time.perf_counter()
        if first_round:
            width = min(2 * width, len(trials) // len(pending), MAX_RESAMPLES + 1 - first_round)
            tags = [f"resample:{n}:{k}" for k in range(first_round, first_round + width)]
            points = draw_pools(sc, np.repeat(trials[pending], width), tags * len(pending))
            drawn += len(points)
        mid = time.perf_counter()
        matched, total, screen, shortcut = match_pools(cfg, points, width)
        draw_s, match_s = draw_s + mid - start, match_s + time.perf_counter() - mid
        # Row (trial i, slot j) is round first_round + j of pending trial i.
        hit = (total < np.inf).reshape(-1, width)
        found = hit.any(axis=1)
        # Each trial's last slot that one round at a time would have tried.
        last = np.where(found, hit.argmax(axis=1), width - 1)
        tried = (np.arange(width) <= last[:, None]).ravel()
        rejected, solved = rejected + (tried & ~screen).sum(), solved + (tried & screen).sum()
        shortcuts += (tried & shortcut).sum()
        rounds, passes = first_round + last.max() + 1, passes + 1
        pick = np.flatnonzero(found) * width + last[found]
        done = pending[found]
        feasible[done], resamples[done] = True, first_round + last[found]
        pools[done], rows[done] = points[pick], matched[pick]
        pending, first_round = pending[~found], first_round + width
    log.debug("N = %d: %d rounds, %d pools rejected by the screen, %d pools solved: "
              "%d by the row-minimum shortcut, %d by augmenting paths; "
              "%d pools drawn in %d passes; %.4f s drawing pools, %.4f s matching",
              n, rounds, rejected, solved, shortcuts, solved - shortcuts, drawn, passes,
              draw_s, match_s)
    return feasible, resamples, pools, rows


def run_trials(sc: StudyConfig) -> MetricsTable:
    """Evaluate every (boom count, trial) cell under common random numbers.

    Each boom count's booms are matched in resample rounds over all trials;
    its grasp maps and metrics are then taken in one stacked call over its
    feasible cells.
    """
    trials = np.arange(sc.trials)
    shared = draw_pools(sc, trials, "anchors")
    shape = (len(sc.boom_counts), sc.trials)
    columns = {"feasible": np.zeros(shape, dtype=bool), "resamples": np.zeros(shape, dtype=int),
               "pool_hash": np.empty(shape, dtype="U16"),
               **{name: np.zeros(shape) for name in METRICS}}
    for i, n in enumerate(sc.boom_counts):
        cfg = sc.robot_template.with_boom_count(n)
        feasible, resamples, pools, rows = match_rounds(sc, cfg, trials, shared)
        columns["feasible"][i], columns["resamples"][i] = feasible, resamples
        columns["pool_hash"][i] = [hashlib.sha256(p.tobytes()).hexdigest()[:16] for p in pools]
        if feasible.any():
            anchors = np.take_along_axis(pools[feasible], rows[feasible][..., None], axis=1)
            G = grasp_map_stack(cfg.shoulders, anchors, np.zeros(3))
            values = stance_metrics(G, cfg.boom_stiffness, sc.calibration.delta_ref)
            for name, value in values.items():
                columns[name][i, feasible] = value
    return MetricsTable(boom_counts=tuple(sc.boom_counts), columns=columns)


def aggregate(table: MetricsTable, robot_template: RobotConfig,
              mode: str = "median") -> dict[str, np.ndarray]:
    """Per-boom-count summary columns, each one reduction along the trial axis.

    ``mean_marginal_gain`` is the mean paired lambda_min gain over the
    previous boom count (0 at the first).
    """
    col, agg = table.columns, AGGREGATES[mode]
    lmin, n = col["lambda_min"], np.array(table.boom_counts)
    return {
        "n": n,
        "mass": total_mass(robot_template, n),
        "worst_stability": lmin.min(axis=1),
        "mean_stability": lmin.mean(axis=1),
        "mean_marginal_gain": np.concatenate([[0.0], np.diff(lmin, axis=0).mean(axis=1)]),
        "mean_manipulability": col["manipulability"].mean(axis=1),
        "agg_stability": agg(lmin, axis=1),
        "agg_lambda_max": agg(col["lambda_max"], axis=1),
        "agg_wrench_full": agg(col["wrench_full"], axis=1),
        "agg_wrench_torque": agg(col["wrench_torque"], axis=1),
        "one_out_worst": col["one_out_lambda_min"].min(axis=1),
        "one_out_agg": agg(col["one_out_lambda_min"], axis=1),
        "one_out_agg_lambda_max": agg(col["one_out_lambda_max"], axis=1),
        "infeasible_trials": (~col["feasible"]).sum(axis=1),
    }


def pareto_front(values: np.ndarray, senses: list[str]) -> list[int]:
    """Indices of nondominated points, in input order.

    ``senses`` gives "min" or "max" per objective column.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ValueError("pareto_front requires at least one point")
    if values.shape[1] != len(senses):
        raise ValueError("one sense per objective column required")
    signs = np.array([1.0 if s == "min" else -1.0 for s in senses])
    v = values * signs  # now all-minimize
    dominated = np.zeros(len(v), dtype=bool)
    for start in range(0, len(v), PARETO_CHUNK):
        w = v[start:start + PARETO_CHUNK]
        # [j, i]: chunk point j is no worse than point i everywhere (le), better somewhere (lt)
        le, lt = np.ones((len(w), len(v)), dtype=bool), np.zeros((len(w), len(v)), dtype=bool)
        for a, b in zip(w.T, v.T):
            le &= a[:, None] <= b
            lt |= a[:, None] < b
        dominated |= (le & lt).any(axis=0)
    return np.flatnonzero(~dominated).tolist()


@dataclass(frozen=True, eq=False)
class ParetoResult:
    """Selection result; ``verdicts`` are per-N columns."""

    verdicts: dict[str, np.ndarray | list[tuple[str, ...]]]
    nondominated_n: tuple[int, ...]
    feasible_n: tuple[int, ...]
    selected_n: int | None
    buckling: BucklingReport | None


def select_design(
    summary: dict[str, np.ndarray],
    coverage: Coverage,
    constraints: Constraints,
    robot_template: RobotConfig,
) -> ParetoResult:
    """Apply mission constraints, then pick the minimum-mass feasible design.

    Ties in mass are broken toward lower overlapping coverage (less
    mechanical interference). ``coverage`` must have the summary's boom
    counts, in the same order.
    """
    n = summary["n"]
    if not np.array_equal(coverage["boom_count"], n):
        raise ValueError("coverage boom counts must equal the summary's")
    buck = None
    if constraints.m_critical is not None:
        buck = check_buckling(constraints.m_critical, robot_template)
    ok = {  # constraint name -> passes, per N; binding lists failures in this order
        "stability": summary["agg_stability"] > REL_EPS * np.abs(summary["agg_lambda_max"]),
        "torque": summary["agg_wrench_torque"] >= constraints.tau_drill,
        "one_boom_out": np.logical_or(not constraints.one_boom_out, summary["one_out_agg"]
                                      > REL_EPS * np.abs(summary["one_out_agg_lambda_max"])),
        "buckling": np.full(n.shape, buck is None or buck.satisfied),
    }
    failed = ~np.column_stack(list(ok.values()))
    feasible = ~failed.any(axis=1)
    front = pareto_front(np.column_stack([summary["mass"], summary["agg_wrench_torque"]]),
                         ["min", "max"])
    selected = None
    if feasible.any():
        order = np.lexsort((n[feasible], coverage["overlap_pct"][feasible],
                            summary["mass"][feasible]))
        selected = n[feasible][order[0]].item()
    return ParetoResult(
        verdicts={"n": n, **{f"{name}_ok": v for name, v in ok.items()}, "feasible": feasible,
                  "binding": [tuple(compress(ok, row)) for row in failed.tolist()]},
        nondominated_n=tuple(n[front].tolist()), feasible_n=tuple(n[feasible].tolist()),
        selected_n=selected, buckling=buck)


@dataclass(frozen=True, eq=False)
class StudyReport:
    seed: int
    config_echo: dict | None  # None: run in-process without a config to echo
    table: MetricsTable
    summary: dict[str, np.ndarray]
    coverage: Coverage
    pareto: ParetoResult

    @property
    def selected_n(self) -> int | None:
        return self.pareto.selected_n

    def to_dict(self) -> dict:
        from . import __version__
        per_n = {**self.summary, **self.coverage}
        return {
            "schema_version": 1,
            "tool_version": __version__,
            "seed": self.seed,
            "config": self.config_echo,
            "selected_n": self.pareto.selected_n,
            "feasible_n": list(self.pareto.feasible_n),
            "nondominated_n": list(self.pareto.nondominated_n),
            "buckling": asdict(self.pareto.buckling) if self.pareto.buckling else None,
            "verdicts": column_records(self.pareto.verdicts),
            "candidates": column_records({k: per_n[name] for k, name in CANDIDATES.items()}),
            "summary": column_records(self.summary),
            "coverage": column_records(self.coverage),
            "trials": self.table.records(),
        }


def study_coverage(sc: StudyConfig, sample_count: int) -> Coverage:
    """The study's coverage curve over ``sample_count`` surface samples.

    The lattice shift is the first two doubles of stream ``surface`` of
    trial 0. An explicit template's mounts are covered as given; any
    other's are placed by ``coverage_layout``.
    """
    shift = substream_uniforms(sc.seed, [0], "surface", 2)[0]
    return coverage_curve(sc.robot_template, sc.terrain, sc.n_range, sample_count, shift,
                          sc.coverage_layout)


def _stage_done(stage: str, start: float, detail: str = "") -> float:
    """Log a finished stage's wall time; returns the next stage's start."""
    now = time.perf_counter()
    log.info("%s: %.3f s%s", stage, now - start, detail)
    return now


def run_study(sc: StudyConfig, config_echo: dict | None = None) -> StudyReport:
    """End-to-end study: trials, aggregation, coverage, constraints, selection.

    Logs one line per stage with its wall time at INFO; timings never enter
    the report.
    """
    start = time.perf_counter()
    table = run_trials(sc)
    feasible = table.columns["feasible"]
    start = _stage_done("trials", start, (
        f", {feasible.size} cells, {table.columns['resamples'].sum()} resamples, "
        f"{(~feasible).sum()} infeasible"))
    summary = aggregate(table, sc.robot_template, sc.aggregate_mode)
    start = _stage_done("aggregate", start)
    cov = study_coverage(sc, sc.surface_samples)
    start = _stage_done("coverage", start)
    pareto = select_design(summary, cov, sc.constraints, sc.robot_template)
    _stage_done("selection", start)
    return StudyReport(seed=sc.seed, config_echo=config_echo, table=table,
                       summary=summary, coverage=cov, pareto=pareto)


# summary.csv header -> summary column
SUMMARY_CSV = {"N": "n", "mass_kg": "mass", "worst_stability": "worst_stability",
               "mean_stability": "mean_stability", "mean_marginal_gain": "mean_marginal_gain",
               "mean_manipulability": "mean_manipulability", "wrench_full": "agg_wrench_full",
               "wrench_torque_nm": "agg_wrench_torque", "one_out_worst": "one_out_worst",
               "one_out_agg": "one_out_agg", "infeasible_trials": "infeasible_trials"}

# report.json candidates key -> summary or coverage column
CANDIDATES = {"n": "n", "mass": "mass", "torque_capability": "agg_wrench_torque",
              "worst_stability": "worst_stability", "unique_pct": "unique_pct",
              "overlap_pct": "overlap_pct"}

# pareto.csv header -> summary column, before the selection flags
PARETO_CSV = {"N": "n", "mass_kg": "mass", "torque_capability_nm": "agg_wrench_torque"}


def _csv_lines(columns: dict) -> list[str]:
    """A header of column names, then one line per row with values in .12g."""
    return [",".join(columns)] + [",".join(map("{:.12g}".format, row.values()))
                                  for row in column_records(columns)]


def stability_csv_rows(table: MetricsTable) -> list[str]:
    lmin = table.columns["lambda_min"].T.tolist()
    return ["N,trial,lambda_min"] + [f"{n},{t},{lmin[t][i]:.12g}" for t in range(table.trials)
                                     for i, n in enumerate(table.boom_counts)]


def summary_csv_rows(summary: dict[str, np.ndarray]) -> list[str]:
    return _csv_lines({head: summary[name] for head, name in SUMMARY_CSV.items()})


def coverage_csv_rows(coverage: Coverage) -> list[str]:
    """Plot-ready CSV lines: N, unique, overlap and the last boom's marginal percentages."""
    return ["N,unique_pct,overlap_pct,marginal_pct"] + [
        f"{r['boom_count']},{r['unique_pct']:.6f},{r['overlap_pct']:.6f},"
        f"{r['per_boom_marginal'][-1]:.6f}" for r in column_records(coverage)]


def pareto_csv_rows(summary: dict[str, np.ndarray], pr: ParetoResult) -> list[str]:
    n = summary["n"]
    return _csv_lines({**{head: summary[name] for head, name in PARETO_CSV.items()},
                       "feasible": pr.verdicts["feasible"],
                       "nondominated": np.isin(n, pr.nondominated_n),
                       "selected": n == pr.selected_n})
