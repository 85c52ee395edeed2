"""Boom-to-anchor matching: anchor feasibility and optimal assignment.

A boom can reach an anchor iff the anchor sits inside the shoulder's cone of
motion and within the deployable length band. Booms are matched to anchors
by an exact minimum-total-length rectangular assignment, returned as each
boom's row index into the anchor pool.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .robot import MountSpec, RobotConfig
from .terrain import AnchorSet

# Penalty cost for infeasible pairs; any assignment using one is strictly
# worse than any fully feasible assignment (real costs are boom lengths).
_BIG = 1e9


@dataclass(frozen=True)
class BodyPose:
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).reshape(3)
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-9):
            raise ValueError("body rotation must be orthonormal")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "rotation", R)


@dataclass(frozen=True)
class FeasibilityPredicate:
    cone_half_angle: float
    L_min: float
    L_max: float

    def __post_init__(self):
        if not 0 < self.cone_half_angle < math.pi / 2:
            raise ValueError("cone_half_angle must be in (0, pi/2)")
        if not 0 < self.L_min < self.L_max:
            raise ValueError("requires 0 < L_min < L_max")

    @classmethod
    def from_robot(cls, cfg: RobotConfig) -> "FeasibilityPredicate":
        return cls(cfg.cone_half_angle, cfg.L_min, cfg.L_max)


def world_mounts(mounts: list[MountSpec], pose: BodyPose) -> tuple[np.ndarray, np.ndarray]:
    """Shoulder positions and cone axes in the world frame."""
    pos = np.array([m.position for m in mounts], dtype=float).reshape(-1, 3)
    ax = np.array([m.axis for m in mounts], dtype=float).reshape(-1, 3)
    return pos @ pose.rotation.T + pose.position, ax @ pose.rotation.T


def feasibility_matrix(
    mounts: list[MountSpec],
    pose: BodyPose,
    points: np.ndarray,
    pred: FeasibilityPredicate,
) -> tuple[np.ndarray, np.ndarray]:
    """(ok, lengths) arrays of shape (..., n_mounts, n_points) for points (..., n_points, 3)."""
    shoulders, axes = world_mounts(mounts, pose)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts[..., None, :, :] - shoulders[:, None, :]  # (..., N, M, 3)
    L = np.linalg.norm(d, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_ang = np.einsum("...nmk,nk->...nm", d, axes) / np.where(L > 0, L, np.inf)
    ok = (L >= pred.L_min) & (L <= pred.L_max) & (cos_ang >= math.cos(pred.cone_half_angle))
    return ok, L


@dataclass(frozen=True, eq=False)
class Assignment:
    """Boom-to-anchor pairing minimizing total deployed length."""

    anchor_index: np.ndarray  # (N,) pool row of each boom's anchor, in boom order
    total_length: float


def match_pools(
    mounts: list[MountSpec],
    pose: BodyPose,
    points: np.ndarray,
    pred: FeasibilityPredicate,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimum-total-length matching of booms to distinct anchors, per pool.

    ``points`` stacks C pools as (C, M, 3). Returns the (C, N) anchor rows
    of each pool's booms, the (C,) total lengths and the (C,) screen; a pool
    that holds no complete feasible assignment has total length inf and
    anchor rows 0. A pool where some boom reaches no anchor cannot hold one,
    so only pools that pass the screen reach the solver.
    """
    # Imported here: scipy.optimize dominates the package's import time, and
    # commands that never match booms (validate, pareto, eval) skip it.
    from scipy.optimize import linear_sum_assignment

    n, m = len(mounts), points.shape[-2]
    if m < n:
        raise ValueError(f"anchor pool ({m}) smaller than boom count ({n})")
    ok, L = feasibility_matrix(mounts, pose, points, pred)
    screen = ok.any(axis=2).all(axis=1)
    rows, total = np.zeros((len(points), n), dtype=int), np.full(len(points), np.inf)
    for c in np.flatnonzero(screen).tolist():
        # With N <= M booms every row is matched, so booms is arange(N).
        booms, cols = linear_sum_assignment(np.where(ok[c], L[c], _BIG))
        if ok[c][booms, cols].all():
            rows[c], total[c] = cols, L[c][booms, cols].sum()
    return rows, total, screen


def assign(
    mounts: list[MountSpec],
    pose: BodyPose,
    anchors: AnchorSet | np.ndarray,
    pred: FeasibilityPredicate,
) -> Assignment | None:
    """Exact minimum-total-length matching of booms to distinct anchors in one pool.

    Returns None when no complete feasible assignment exists.
    """
    points = anchors.points if isinstance(anchors, AnchorSet) else np.atleast_2d(anchors)
    (rows,), (total,), _ = match_pools(mounts, pose, np.asarray(points, dtype=float)[None], pred)
    return Assignment(anchor_index=rows, total_length=float(total)) if total < np.inf else None
