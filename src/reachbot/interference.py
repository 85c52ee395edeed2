"""Mechanical interference as terrain surface coverage.

A surface point is accessible to a boom iff it satisfies the same
feasibility predicate used for anchor grasping, so "can cover" and "can
grasp" never disagree. Coverage is estimated by Monte Carlo over
area-uniform surface samples. Overlap (area reachable by two or more booms)
quantifies redundancy without new reachable terrain.

Only the samples within reach of a mount block enter its feasibility pass.
A boom reaches at most L_max from its shoulder, so by the triangle
inequality no boom of the block reaches a sample farther than
R = L_max + max |shoulder - body centre| from the body centre; such a sample
is covered by no boom, and is counted as such without a feasibility matrix.
The screen is exact: every count equals the unscreened pass's.
"""
from __future__ import annotations

import logging
from collections.abc import Sequence

import numpy as np

from .robot import MountSpec, RobotConfig, build_mounts
from .stance import BodyPose, FeasibilityPredicate, feasibility_matrix, world_mounts
from .terrain import Terrain, sample_surface_points

log = logging.getLogger(__name__)

# Surface samples per feasibility pass. The pass's working memory is about
# 45 bytes per mount-point pair of the largest mount block and of the
# chunk's samples within that block's reach (11 MiB for 16 mounts and a
# whole chunk in reach), whatever the sample count.
COVERAGE_CHUNK = 16384

# Coverage columns, one entry per boom count: boom_count, sample_count,
# unique_pct and overlap_pct (fractions covered by >= 1 and >= 2 booms),
# per_boom_marginal (lists: the area boom i adds to booms 0..i-1) and
# count_histogram (lists: entry k counts points covered by exactly k booms).
Coverage = dict[str, np.ndarray | list[list]]


def _block_coverage(
    blocks: list[tuple[Sequence[MountSpec], Sequence[int]]],
    pose: BodyPose,
    pred: FeasibilityPredicate,
    points: np.ndarray,
) -> Coverage:
    """Coverage columns of every boom count that a list of mount blocks serves.

    A block is (mounts, boom counts): boom count N is covered by the block's
    first N mounts. Per COVERAGE_CHUNK slice of the points and per block,
    one feasibility matrix over the samples within the block's reach and its
    running count of covering mounts give every prefix's union count and
    each served N's histogram, as integers; the samples out of reach are
    covered by no mount and go to bin 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s = len(points)
    if s < 1:
        raise ValueError("need at least one surface sample")
    unions = [np.zeros(len(mounts), dtype=np.int64) for mounts, _ in blocks]
    hists = [{n: np.zeros(n + 1, dtype=np.int64) for n in ns} for _, ns in blocks]
    # Reach of each block from the body centre; a block without mounts
    # reaches nothing. The relative margin, far above the few ulps by which
    # the computed norms can differ from the true ones, keeps rounding from
    # dropping a sample that the predicate accepts.
    reach = [(pred.L_max + np.linalg.norm(world_mounts(mounts, pose)[0] - pose.position,
                                          axis=1).max(initial=-np.inf)) * (1 + 1e-9)
             for mounts, _ in blocks]
    within = [0] * len(blocks)
    for start in range(0, s, COVERAGE_CHUNK):
        chunk = points[start:start + COVERAGE_CHUNK]
        # |p - body centre| coordinate by coordinate, in np.linalg.norm's sum order
        dist = np.sqrt(sum((chunk[:, k] - pose.position[k]) ** 2 for k in range(3)))
        for b, ((mounts, _), union, hist, r) in enumerate(zip(blocks, unions, hists, reach)):
            near = chunk[dist <= r]
            within[b] += len(near)
            ok, _ = feasibility_matrix(mounts, pose, near, pred)
            counts = np.zeros((len(mounts) + 1, len(near)), dtype=np.int32)
            np.cumsum(ok, axis=0, out=counts[1:])  # row n: how many of mounts 0..n-1 reach
            union += (counts[1:] >= 1).sum(axis=1)
            for n, h in hist.items():
                h += np.bincount(counts[n], minlength=n + 1)
                h[0] += len(chunk) - len(near)  # out of reach: covered by no mount
    for (mounts, _), r, w in zip(blocks, reach, within):
        log.debug("coverage pass over %d mounts: %d of %d samples within reach "
                  "R = %.3f m", len(mounts), w, s, r)
    served = [(n, union[:n], h) for union, hist in zip(unions, hists) for n, h in hist.items()]
    unique = np.array([s - h[0] for _, _, h in served]) / s
    overlap = np.array([s - h[:2].sum() for _, _, h in served]) / s
    if not np.all((0.0 <= overlap) & (overlap <= unique) & (unique <= 1.0)):
        raise ValueError("coverage fractions must satisfy 0 <= overlap <= unique <= 1")
    return {"boom_count": np.array([n for n, _, _ in served]),
            "sample_count": np.full(len(served), s),
            "unique_pct": unique, "overlap_pct": overlap,
            "per_boom_marginal": [np.diff(u / s, prepend=0.0).tolist() for _, u, _ in served],
            "count_histogram": [h.tolist() for _, _, h in served]}


def coverage_from_mounts(
    mounts: list[MountSpec],
    pose: BodyPose,
    pred: FeasibilityPredicate,
    points: np.ndarray,
) -> Coverage:
    """Coverage of fixed mounts over given surface sample points, as one row."""
    return _block_coverage([(mounts, (len(mounts),))], pose, pred, points)


def coverage_curve(
    robot: RobotConfig,
    terrain: Terrain,
    n_range: tuple[int, int],
    sample_count: int,
    rng: np.random.Generator,
    layout_policy: str = "nested",
    mounts: Sequence[Sequence[MountSpec]] | None = None,
) -> Coverage:
    """Coverage columns, one row per boom count, sharing one surface sample set.

    ``mounts``, when given, lists each boom count's own mounts, lo first.
    Otherwise ``layout_policy`` places them on ``robot``'s body: ``nested``
    takes the first N of one golden-angle lattice of size n_max, so the
    covered area grows with N by construction; ``uniform``/``mission`` build
    each N's layout on its own, so monotonicity is only statistical.

    The whole ``nested`` lattice is one mount block, served by one
    feasibility pass per chunk of COVERAGE_CHUNK samples; any other mount
    set is a block of its own. Only a chunk's samples within a block's reach
    (see the module docstring) enter its pass, so besides the samples
    themselves (24 bytes each), working memory is about 45 bytes per mount
    of the largest block and in-reach sample of one chunk: at most 11 MiB
    for 16 mounts, whatever ``sample_count``.
    """
    lo, hi = n_range
    if not 1 <= lo <= hi:
        raise ValueError("n_range must satisfy 1 <= lo <= hi")
    ns = range(lo, hi + 1)
    if mounts is not None:
        if [len(m) for m in mounts] != list(ns):
            raise ValueError("mounts must list N mounts for each boom count N in n_range")
        blocks = [(m, (n,)) for n, m in zip(ns, mounts)]
    elif layout_policy == "nested":
        blocks = [(build_mounts(hi, robot.body_radius), ns)]
    elif layout_policy in ("uniform", "mission"):
        blocks = [(build_mounts(n, robot.body_radius, layout_policy), (n,)) for n in ns]
    else:
        raise ValueError(f"unknown layout policy {layout_policy!r}")
    return _block_coverage(blocks, BodyPose(), FeasibilityPredicate.from_robot(robot),
                           sample_surface_points(terrain, sample_count, rng))

