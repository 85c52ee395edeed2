"""Mechanical interference as terrain surface coverage.

A surface point is accessible to a boom iff it satisfies the same
feasibility predicate used for anchor grasping, so "can cover" and "can
grasp" never disagree. Coverage is estimated by Monte Carlo over
area-uniform surface samples. Overlap (area reachable by two or more booms)
quantifies redundancy without new reachable terrain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .robot import MountSpec, RobotConfig, build_mounts
from .stance import BodyPose, FeasibilityPredicate, feasibility_matrix
from .terrain import Terrain, sample_surface_points


@dataclass(frozen=True)
class CoverageReport:
    boom_count: int
    sample_count: int
    unique_pct: float  # fraction reachable by >= 1 boom
    overlap_pct: float  # fraction reachable by >= 2 booms
    per_boom_marginal: tuple[float, ...]  # new area added by boom i given 0..i-1
    count_histogram: tuple[int, ...]  # index k = #points covered by exactly k booms

    def __post_init__(self):
        if not 0.0 <= self.overlap_pct <= self.unique_pct <= 1.0:
            raise ValueError("coverage fractions must satisfy 0 <= overlap <= unique <= 1")


def coverage_from_mounts(
    mounts: list[MountSpec],
    pose: BodyPose,
    pred: FeasibilityPredicate,
    points: np.ndarray,
) -> CoverageReport:
    """Coverage statistics of fixed mounts over given surface sample points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, s = len(mounts), len(points)
    if s < 1:
        raise ValueError("need at least one surface sample")
    if n == 0:
        return CoverageReport(0, s, 0.0, 0.0, (), (s,))
    ok, _ = feasibility_matrix(mounts, pose, points, pred)
    counts = ok.sum(axis=0)
    prefix = np.logical_or.accumulate(ok, axis=0).mean(axis=1)
    marginal = np.diff(prefix, prepend=0.0)
    hist = np.bincount(counts, minlength=n + 1)
    return CoverageReport(
        boom_count=n,
        sample_count=s,
        unique_pct=float(np.mean(counts >= 1)),
        overlap_pct=float(np.mean(counts >= 2)),
        per_boom_marginal=tuple(float(x) for x in marginal),
        count_histogram=tuple(int(x) for x in hist),
    )


def coverage(
    cfg: RobotConfig,
    terrain: Terrain,
    pose: BodyPose,
    sample_count: int,
    rng: np.random.Generator,
) -> CoverageReport:
    """Monte Carlo coverage of one robot configuration at a home pose."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    points = sample_surface_points(terrain, sample_count, rng)
    return coverage_from_mounts(list(cfg.mounts), pose, FeasibilityPredicate.from_robot(cfg), points)


def coverage_curve(
    cfg_template: RobotConfig,
    terrain: Terrain,
    n_range: tuple[int, int],
    sample_count: int,
    rng: np.random.Generator,
    pose: BodyPose | None = None,
    layout_policy: str = "nested",
) -> list[CoverageReport]:
    """Coverage for each boom count, sharing one surface sample set.

    ``nested`` takes the first N points of one golden-angle lattice of size
    n_max, so the mount set for N is a superset of the set for N-1 and the
    covered area grows by construction. ``uniform``/``mission`` rebuild the
    per-N layout independently, in which case monotonicity is only
    statistical.
    """
    lo, hi = n_range
    if not 1 <= lo <= hi:
        raise ValueError("n_range must satisfy 1 <= lo <= hi")
    pose = pose or BodyPose()
    pred = FeasibilityPredicate.from_robot(cfg_template)
    points = sample_surface_points(terrain, sample_count, rng)
    if layout_policy == "nested":
        all_mounts = build_mounts(hi, cfg_template.body_radius)
        mounts_for = lambda n: all_mounts[:n]
    elif layout_policy in ("uniform", "mission"):
        mounts_for = lambda n: build_mounts(n, cfg_template.body_radius, layout_policy)
    else:
        raise ValueError(f"unknown layout policy {layout_policy!r}")
    return [coverage_from_mounts(mounts_for(n), pose, pred, points) for n in range(lo, hi + 1)]


def coverage_csv_rows(reports: list[CoverageReport]) -> list[str]:
    """Plot-ready CSV lines: N, unique, overlap and marginal percentages."""
    rows = ["N,unique_pct,overlap_pct,marginal_pct"]
    for rep in reports:
        marginal = rep.per_boom_marginal[-1] if rep.per_boom_marginal else 0.0
        rows.append(f"{rep.boom_count},{rep.unique_pct:.6f},{rep.overlap_pct:.6f},{marginal:.6f}")
    return rows
