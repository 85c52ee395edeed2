"""Monte Carlo trade study over boom counts.

For each trial one shared anchor pool is drawn (common random numbers), so
every boom count is evaluated against identical terrain draws and per-N
comparisons are low-variance. Metrics are aggregated per boom count, mission
constraints applied, the Pareto front extracted and a design selected.
"""
from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import asdict, dataclass, field
from itertools import compress

import numpy as np

from .interference import CoverageReport, coverage_curve
from .mechanics import METRICS, grasp_map_stack, stance_metrics
from .rng import substream
from .robot import BucklingReport, RobotConfig, check_buckling, total_mass
from .stance import BodyPose, FeasibilityPredicate, assign, world_mounts
from .terrain import AnchorSet, Terrain, sample_anchors

log = logging.getLogger(__name__)

# Relative eigenvalue threshold separating rank-deficient zeros from small
# positive stabilities.
REL_EPS = 1e-9

MAX_RESAMPLES = 100

# StudyConfig.layout of a study whose config lists robot.mounts.
EXPLICIT_LAYOUT = "explicit"

# study.aggregate mode -> the reduction that aggregates a metric over trials
AGGREGATES = {"median": np.median, "mean": np.mean, "min": np.min, "max": np.max}


@dataclass(frozen=True)
class Constraints:
    tau_drill: float = 4.0  # N*m, required applicable drilling torque
    m_critical: float | None = None  # N*m boom critical buckling moment; None = not evaluated
    one_boom_out: bool = True

    def __post_init__(self):
        if self.tau_drill < 0:
            raise ValueError("tau_drill must be non-negative")


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
    layout: str = "uniform"  # generated mount layout, or EXPLICIT_LAYOUT
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

    @property
    def boom_counts(self) -> list[int]:
        return list(range(self.n_range[0], self.n_range[1] + 1))

    def robot(self, n: int) -> RobotConfig:
        """The n-boom robot of this study.

        At the template's own boom count this is the template, explicit
        mounts included; any other count gets a generated ``layout`` (an
        explicit study has no other count).
        """
        if n == self.robot_template.boom_count:
            return self.robot_template
        return self.robot_template.with_boom_count(n, self.layout)


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


def draw_pool(sc: StudyConfig, trial: int, tag: str) -> tuple[AnchorSet, str]:
    """A trial's anchor pool for one stream tag, and the pool's hash.

    Every pool holds pool_multiplier * n_max anchors within the anchor
    window, whatever the boom count it serves.
    """
    pool = sample_anchors(sc.terrain, sc.pool_multiplier * sc.n_range[1],
                          anchor_window(sc.terrain, sc.robot_template),
                          substream(sc.seed, trial, tag), seed=sc.seed)
    return pool, hashlib.sha256(pool.points.tobytes()).hexdigest()[:16]


def trial_stance(sc: StudyConfig, cfg: RobotConfig, trial: int,
                 shared: tuple[AnchorSet, str], pose: BodyPose
                 ) -> tuple[np.ndarray | None, int, AnchorSet, str]:
    """The boom-to-anchor assignment of cell (cfg.boom_count, trial).

    ``shared`` is the trial's ``draw_pool(sc, trial, "anchors")``. While no
    complete assignment exists, a fresh pool is drawn, up to MAX_RESAMPLES
    times. Returns (each boom's anchor row or None, resamples, pool, pool
    hash); an infeasible cell reports the shared pool.
    """
    mounts, pred = list(cfg.mounts), FeasibilityPredicate.from_robot(cfg)
    pool, pool_hash = shared
    match = assign(mounts, pose, pool, pred)
    resamples = 0
    while match is None and resamples < MAX_RESAMPLES:
        resamples += 1
        pool, pool_hash = draw_pool(sc, trial, f"resample:{cfg.boom_count}:{resamples}")
        match = assign(mounts, pose, pool, pred)
    if match is None:
        return None, resamples, *shared
    return match.anchor_index, resamples, pool, pool_hash


def run_trials(sc: StudyConfig, pose: BodyPose | None = None) -> MetricsTable:
    """Evaluate every (boom count, trial) cell under common random numbers.

    Booms are matched to anchors cell by cell; each boom count's grasp maps
    and metrics are then taken in one stacked call over its feasible cells.
    """
    pose = pose or BodyPose()
    robots = [sc.robot(n) for n in sc.boom_counts]
    shape = (len(robots), sc.trials)
    feasible = np.zeros(shape, dtype=bool)
    resamples = np.zeros(shape, dtype=int)
    pool_hash = np.empty(shape, dtype="U16")
    anchors = [[] for _ in robots]  # per boom count, feasible trials' assigned anchors
    for t in range(sc.trials):
        shared = draw_pool(sc, t, "anchors")
        for i, cfg in enumerate(robots):
            idx, resamples[i, t], pool, pool_hash[i, t] = trial_stance(sc, cfg, t, shared, pose)
            if idx is not None:
                feasible[i, t] = True
                anchors[i].append(pool.points[idx])
    columns = {"feasible": feasible, "resamples": resamples, "pool_hash": pool_hash,
               **{name: np.zeros(shape) for name in METRICS}}
    for i, cfg in enumerate(robots):
        if anchors[i]:
            shoulders, _ = world_mounts(list(cfg.mounts), pose)
            G = grasp_map_stack(shoulders, np.stack(anchors[i]), pose.position)
            values = stance_metrics(G, cfg.boom_stiffness, sc.calibration.delta_ref)
            for name, value in values.items():
                columns[name][i, feasible[i]] = value
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
    keep = []
    for i in range(len(v)):
        dominated = False
        for j in range(len(v)):
            if j == i:
                continue
            if np.all(v[j] <= v[i]) and np.any(v[j] < v[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


@dataclass(frozen=True, eq=False)
class ParetoResult:
    """Selection result; ``candidates`` and ``verdicts`` are per-N columns."""

    candidates: dict[str, np.ndarray]
    verdicts: dict[str, np.ndarray | list[tuple[str, ...]]]
    nondominated_n: tuple[int, ...]
    feasible_n: tuple[int, ...]
    selected_n: int | None
    buckling: BucklingReport | None


def select_design(
    summary: dict[str, np.ndarray],
    coverage: list[CoverageReport],
    constraints: Constraints,
    robot_template: RobotConfig,
) -> ParetoResult:
    """Apply mission constraints, then pick the minimum-mass feasible design.

    Ties in mass are broken toward lower overlapping coverage (less
    mechanical interference). A boom count without a coverage report
    reads 0 coverage.
    """
    n = summary["n"]
    buck = None
    if constraints.m_critical is not None:
        buck = check_buckling(constraints.m_critical, robot_template)
    pct = {c.boom_count: (c.unique_pct, c.overlap_pct) for c in coverage}
    unique, overlap = np.array([pct.get(k, (0.0, 0.0)) for k in n.tolist()]).T
    ok = {  # constraint name -> passes, per N; binding lists failures in this order
        "stability": summary["agg_stability"] > REL_EPS * np.abs(summary["agg_lambda_max"]),
        "torque": summary["agg_wrench_torque"] >= constraints.tau_drill,
        "one_boom_out": np.logical_or(not constraints.one_boom_out, summary["one_out_agg"]
                                      > REL_EPS * np.abs(summary["one_out_agg_lambda_max"])),
        "buckling": np.full(n.shape, buck is None or buck.satisfied),
    }
    failed = ~np.column_stack(list(ok.values()))
    feasible = ~failed.any(axis=1)
    candidates = {"n": n, "mass": summary["mass"],
                  "torque_capability": summary["agg_wrench_torque"],
                  "worst_stability": summary["worst_stability"],
                  "unique_pct": unique, "overlap_pct": overlap}
    front = pareto_front(np.column_stack([summary["mass"], summary["agg_wrench_torque"]]),
                         ["min", "max"])
    selected = None
    if feasible.any():
        order = np.lexsort((n[feasible], overlap[feasible], summary["mass"][feasible]))
        selected = n[feasible][order[0]].item()
    return ParetoResult(
        candidates=candidates,
        verdicts={"n": n, **{f"{name}_ok": v for name, v in ok.items()}, "feasible": feasible,
                  "binding": [tuple(compress(ok, row)) for row in failed.tolist()]},
        nondominated_n=tuple(n[front].tolist()), feasible_n=tuple(n[feasible].tolist()),
        selected_n=selected, buckling=buck)


@dataclass(frozen=True, eq=False)
class StudyReport:
    seed: int
    config_echo: dict
    table: MetricsTable
    summary: dict[str, np.ndarray]
    coverage: list[CoverageReport]
    pareto: ParetoResult

    @property
    def selected_n(self) -> int | None:
        return self.pareto.selected_n

    def to_dict(self) -> dict:
        from . import __version__
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
            "candidates": column_records(self.pareto.candidates),
            "summary": column_records(self.summary),
            "coverage": [asdict(c) for c in self.coverage],
            "trials": self.table.records(),
        }


def study_coverage(sc: StudyConfig, sample_count: int,
                   pose: BodyPose | None = None) -> list[CoverageReport]:
    """The study's coverage curve over ``sample_count`` surface samples.

    Explicit robot.mounts are covered as given, on each ``sc.robot(n)``;
    generated robots' mounts are placed by ``coverage_layout``.
    """
    explicit = sc.layout == EXPLICIT_LAYOUT
    return coverage_curve(sc.robot_template, sc.terrain, sc.n_range, sample_count,
                          substream(sc.seed, 0, "surface"), pose, sc.coverage_layout,
                          [sc.robot(n).mounts for n in sc.boom_counts] if explicit else None)


def _stage_done(stage: str, start: float, detail: str = "") -> float:
    """Log a finished stage's wall time; returns the next stage's start."""
    now = time.perf_counter()
    log.info("%s: %.3f s%s", stage, now - start, detail)
    return now


def run_study(sc: StudyConfig, config_echo: dict | None = None,
              pose: BodyPose | None = None) -> StudyReport:
    """End-to-end study: trials, aggregation, coverage, constraints, selection.

    Logs one line per stage with its wall time at INFO; timings never enter
    the report.
    """
    start = time.perf_counter()
    table = run_trials(sc, pose=pose)
    feasible = table.columns["feasible"]
    start = _stage_done("trials", start, (
        f", {feasible.size} cells, {table.columns['resamples'].sum()} resamples, "
        f"{(~feasible).sum()} infeasible"))
    summary = aggregate(table, sc.robot_template, sc.aggregate_mode)
    start = _stage_done("aggregate", start)
    cov = study_coverage(sc, sc.surface_samples, pose)
    start = _stage_done("coverage", start)
    pareto = select_design(summary, cov, sc.constraints, sc.robot_template)
    _stage_done("selection", start)
    return StudyReport(seed=sc.seed, config_echo=config_echo or {}, table=table,
                       summary=summary, coverage=cov, pareto=pareto)


# summary.csv header -> summary column
SUMMARY_CSV = {"N": "n", "mass_kg": "mass", "worst_stability": "worst_stability",
               "mean_stability": "mean_stability", "mean_marginal_gain": "mean_marginal_gain",
               "mean_manipulability": "mean_manipulability", "wrench_full": "agg_wrench_full",
               "wrench_torque_nm": "agg_wrench_torque", "one_out_worst": "one_out_worst",
               "one_out_agg": "one_out_agg", "infeasible_trials": "infeasible_trials"}


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


def pareto_csv_rows(pr: ParetoResult) -> list[str]:
    n = pr.candidates["n"]
    return _csv_lines({"N": n, "mass_kg": pr.candidates["mass"],
                       "torque_capability_nm": pr.candidates["torque_capability"],
                       "feasible": pr.verdicts["feasible"],
                       "nondominated": np.isin(n, pr.nondominated_n),
                       "selected": n == pr.selected_n})
