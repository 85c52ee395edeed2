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
        if self.aggregate_mode not in ("median", "mean", "min", "max"):
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
        cols = {name: col.T.tolist() for name, col in self.columns.items()}
        return [{"n": n, "trial": t, **{name: col[t][i] for name, col in cols.items()}}
                for t in range(self.trials) for i, n in enumerate(self.boom_counts)]


def _aggregate(values: np.ndarray, mode: str) -> float:
    fn = {"median": np.median, "mean": np.mean, "min": np.min, "max": np.max}[mode]
    return float(fn(values))


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


@dataclass(frozen=True)
class SummaryRow:
    n: int
    mass: float
    worst_stability: float
    mean_stability: float
    mean_marginal_gain: float
    mean_manipulability: float
    agg_stability: float
    agg_lambda_max: float
    agg_wrench_full: float
    agg_wrench_torque: float
    one_out_worst: float
    one_out_agg: float
    one_out_agg_lambda_max: float
    infeasible_trials: int


def aggregate(table: MetricsTable, robot_template: RobotConfig,
              mode: str = "median") -> list[SummaryRow]:
    """Per-boom-count summary, including marginal stability gain vs N-1."""
    rows = []
    prev_lmin = None
    for n in table.boom_counts:
        lmin = table.column(n, "lambda_min")
        gain = float(np.mean(lmin - prev_lmin)) if prev_lmin is not None else 0.0
        rows.append(SummaryRow(
            n=n,
            mass=total_mass(robot_template.with_boom_count(n)),
            worst_stability=float(lmin.min()),
            mean_stability=float(lmin.mean()),
            mean_marginal_gain=gain,
            mean_manipulability=float(table.column(n, "manipulability").mean()),
            agg_stability=_aggregate(lmin, mode),
            agg_lambda_max=_aggregate(table.column(n, "lambda_max"), mode),
            agg_wrench_full=_aggregate(table.column(n, "wrench_full"), mode),
            agg_wrench_torque=_aggregate(table.column(n, "wrench_torque"), mode),
            one_out_worst=float(table.column(n, "one_out_lambda_min").min()),
            one_out_agg=_aggregate(table.column(n, "one_out_lambda_min"), mode),
            one_out_agg_lambda_max=_aggregate(table.column(n, "one_out_lambda_max"), mode),
            infeasible_trials=int((~table.column(n, "feasible")).sum()),
        ))
        prev_lmin = lmin
    return rows


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


@dataclass(frozen=True)
class ConstraintVerdict:
    n: int
    stability_ok: bool
    torque_ok: bool
    one_boom_out_ok: bool
    buckling_ok: bool
    feasible: bool
    binding: tuple[str, ...]  # names of failed constraints


@dataclass(frozen=True)
class CandidatePoint:
    n: int
    mass: float
    torque_capability: float
    worst_stability: float
    unique_pct: float
    overlap_pct: float


@dataclass(frozen=True)
class ParetoResult:
    candidates: tuple[CandidatePoint, ...]
    verdicts: tuple[ConstraintVerdict, ...]
    nondominated_n: tuple[int, ...]
    feasible_n: tuple[int, ...]
    selected_n: int | None
    buckling: BucklingReport | None


def select_design(
    summary: list[SummaryRow],
    coverage: list[CoverageReport],
    constraints: Constraints,
    robot_template: RobotConfig,
) -> ParetoResult:
    """Apply mission constraints, then pick the minimum-mass feasible design.

    Ties in mass are broken toward lower overlapping coverage (less
    mechanical interference).
    """
    cov_by_n = {c.boom_count: c for c in coverage}
    buck = None
    buckling_ok = True
    if constraints.m_critical is not None:
        buck = check_buckling(constraints.m_critical, robot_template)
        buckling_ok = buck.satisfied

    candidates, verdicts = [], []
    for row in summary:
        cov = cov_by_n.get(row.n)
        candidates.append(CandidatePoint(
            n=row.n, mass=row.mass, torque_capability=row.agg_wrench_torque,
            worst_stability=row.worst_stability,
            unique_pct=cov.unique_pct if cov else 0.0,
            overlap_pct=cov.overlap_pct if cov else 0.0))
        stability_ok = row.agg_stability > REL_EPS * abs(row.agg_lambda_max)
        torque_ok = row.agg_wrench_torque >= constraints.tau_drill
        obo_ok = (not constraints.one_boom_out
                  or row.one_out_agg > REL_EPS * abs(row.one_out_agg_lambda_max))
        binding = tuple(name for name, ok in (
            ("stability", stability_ok), ("torque", torque_ok),
            ("one_boom_out", obo_ok), ("buckling", buckling_ok)) if not ok)
        verdicts.append(ConstraintVerdict(
            n=row.n, stability_ok=stability_ok, torque_ok=torque_ok,
            one_boom_out_ok=obo_ok, buckling_ok=buckling_ok,
            feasible=not binding, binding=binding))

    front = pareto_front(
        np.array([[c.mass, c.torque_capability] for c in candidates]), ["min", "max"])
    feasible = [v.n for v in verdicts if v.feasible]
    selected = None
    if feasible:
        by_n = {c.n: c for c in candidates}
        selected = min(feasible, key=lambda n: (by_n[n].mass, by_n[n].overlap_pct, n))
    return ParetoResult(
        candidates=tuple(candidates), verdicts=tuple(verdicts),
        nondominated_n=tuple(candidates[i].n for i in front),
        feasible_n=tuple(feasible), selected_n=selected, buckling=buck)


@dataclass(frozen=True)
class StudyReport:
    seed: int
    config_echo: dict
    table: MetricsTable
    summary: list[SummaryRow]
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
            "verdicts": [asdict(v) for v in self.pareto.verdicts],
            "candidates": [asdict(c) for c in self.pareto.candidates],
            "summary": [asdict(r) for r in self.summary],
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


def stability_csv_rows(table: MetricsTable) -> list[str]:
    lmin = table.columns["lambda_min"].T.tolist()
    return ["N,trial,lambda_min"] + [f"{n},{t},{lmin[t][i]:.12g}" for t in range(table.trials)
                                     for i, n in enumerate(table.boom_counts)]


def summary_csv_rows(summary: list[SummaryRow]) -> list[str]:
    header = ("N,mass_kg,worst_stability,mean_stability,mean_marginal_gain,"
              "mean_manipulability,wrench_full,wrench_torque_nm,one_out_worst,"
              "one_out_agg,infeasible_trials")
    rows = [header]
    for r in summary:
        rows.append(
            f"{r.n},{r.mass:.12g},{r.worst_stability:.12g},{r.mean_stability:.12g},"
            f"{r.mean_marginal_gain:.12g},{r.mean_manipulability:.12g},"
            f"{r.agg_wrench_full:.12g},{r.agg_wrench_torque:.12g},"
            f"{r.one_out_worst:.12g},{r.one_out_agg:.12g},{r.infeasible_trials}")
    return rows


def pareto_csv_rows(pr: ParetoResult) -> list[str]:
    rows = ["N,mass_kg,torque_capability_nm,feasible,nondominated,selected"]
    feas = set(pr.feasible_n)
    front = set(pr.nondominated_n)
    for c in pr.candidates:
        rows.append(
            f"{c.n},{c.mass:.12g},{c.torque_capability:.12g},"
            f"{int(c.n in feas)},{int(c.n in front)},{int(c.n == pr.selected_n)}")
    return rows
