"""Grasp mechanics: grasp map, stiffness matrices, eigen-metrics.

The body held by its booms is treated like an object held by manipulator
fingers. Each boom contributes a wrench column [u; (s - c) x u] (unit force
along the boom, torque about the body center from the shoulder lever arm).
Stiffness K = G W G^T is symmetric positive semidefinite; its minimum
eigenvalue is the stability measure (resistance in the weakest wrench
direction) and its maximum eigenvalue the wrench-capability proxy.
``grasp_map_stack`` builds a stack of grasp maps from shoulder and anchor
stacks, and ``stance_metrics``, the one kernel behind the metrics the study
and ``reachbot eval`` report, evaluates such a stack.

Two earlier draft stiffness formulations are kept as ``legacy_*`` functions
for comparison; see their docstrings for the signatures that make them
distinguishable from the default model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import stance


def _boom_axes(shoulders: np.ndarray, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., N, 3) unit directions shoulder -> anchor and (..., N) lengths of boom stacks;
    a boom is a prismatic joint along its direction, its grasp-map force column."""
    d = anchors - shoulders
    L = np.linalg.norm(d, axis=-1)
    if np.any(L <= 0):
        raise ValueError("anchor coincides with shoulder")
    return d / L[..., None], L


@dataclass(frozen=True, eq=False)
class Stance:
    """A matched set of booms: shoulder and anchor pairs and the body center, read-only.
    ``directions`` (N, 3) and ``lengths`` (N,) come from the pairs by ``_boom_axes``,
    as ``grasp_map_stack``'s directions do, so a stance and its grasp map agree."""

    shoulders: np.ndarray  # (N, 3) world
    anchors: np.ndarray  # (N, 3) world
    body_center: np.ndarray  # (3,)
    directions: np.ndarray = field(init=False, repr=False)
    lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s = np.array(self.shoulders, dtype=float)
        a = np.array(self.anchors, dtype=float)
        c = np.array(self.body_center, dtype=float)
        if s.size == 0:
            raise ValueError("stance needs at least one boom")
        if s.shape != a.shape or s.shape[1:] != (3,):
            raise ValueError("stance shoulders and anchors must be (N, 3) arrays of one shape")
        if c.shape != (3,):
            raise ValueError("stance body_center must be a 3-vector")
        u, L = _boom_axes(s, a)
        for name, arr in (("shoulders", s), ("anchors", a), ("body_center", c),
                          ("directions", u), ("lengths", L)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def boom_count(self) -> int:
        return len(self.lengths)

    def to_dict(self) -> dict:
        return {"s": self.shoulders.tolist(), "a": self.anchors.tolist(),
                "body_center": self.body_center.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Stance":
        return cls(d["s"], d["a"], d["body_center"])


def grasp_map_stack(shoulders: np.ndarray, anchors: np.ndarray, center: np.ndarray) -> np.ndarray:
    """(..., 6, N) grasp maps of (..., N, 3) shoulder and anchor stacks.

    Column i is [u_i; (s_i - c) x u_i], with u_i the unit boom direction of
    ``_boom_axes``, so each slice's map is its stance's grasp map.
    """
    u, _ = _boom_axes(shoulders, anchors)
    torque = np.cross(shoulders - center, u)
    return np.ascontiguousarray(np.swapaxes(np.concatenate([u, torque], axis=-1), -1, -2))


def grasp_map(st: Stance) -> np.ndarray:
    """6xN grasp map of one stance; column i = [u_i; (s_i - c) x u_i]."""
    return grasp_map_stack(st.shoulders, st.anchors, st.body_center)


def sym_eig(K: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix; rejects asymmetric input."""
    K = np.asarray(K, dtype=float)
    scale = np.linalg.norm(K)
    if np.linalg.norm(K - K.T) > 1e-8 * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(0.5 * (K + K.T))


@dataclass(frozen=True, eq=False)
class StiffnessResult:
    """6x6 stiffness matrix with its ascending eigenvalue spectrum."""

    K: np.ndarray
    eigenvalues: np.ndarray

    @property
    def stability(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def wrench_capability(self) -> float:
        return float(self.eigenvalues[-1])


def _result(K: np.ndarray) -> StiffnessResult:
    K = 0.5 * (K + K.T)
    return StiffnessResult(K=K, eigenvalues=sym_eig(K))


def stiffness(G: np.ndarray, weights: np.ndarray | float) -> StiffnessResult:
    """K = G diag(w) G^T for per-boom axial stiffness weights w > 0."""
    G = np.asarray(G, dtype=float)
    w = np.broadcast_to(np.asarray(weights, dtype=float), (G.shape[1],))
    if np.any(w <= 0):
        raise ValueError("stiffness weights must be positive")
    return _result(stiffness_stack(G, w))


def manipulability(G: np.ndarray) -> float:
    """w = sqrt(det(G G^T)), zero at rank deficiency."""
    G = np.asarray(G, dtype=float)
    det = np.linalg.det(G @ G.T)
    if det < 1e-12:
        return 0.0
    return float(np.sqrt(det))


# The per-stance metrics, in report order; stance_metrics returns one array
# per name.
METRICS = ("lambda_min", "lambda_max", "manipulability", "wrench_full", "wrench_torque",
           "one_out_lambda_min", "one_out_lambda_max")


def stiffness_stack(G: np.ndarray, weight: np.ndarray | float) -> np.ndarray:
    """Symmetrised K = G diag(w) G^T of every (..., 6, N) grasp map; w: one weight or N."""
    K = (G * weight) @ np.swapaxes(G, -1, -2)
    return 0.5 * (K + np.swapaxes(K, -1, -2))


def _one_out_stack(G: np.ndarray, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Worst single-boom drop of each map in a (T, 6, N) stack, N >= 2.

    Returns (lambda_min, lambda_max of that same drop) per map. Row i of
    ``keep`` lists the columns left after dropping boom i, in boom order.
    The drops are solved in groups of consecutive booms, each group's stacks
    within an eighth of the pass budget (``stance.per_pass``). A group's
    worst drop replaces the running one only at a strictly smaller
    lambda_min, so the first of equal minima wins, as in one scan over all
    drops.
    """
    t, _, n = G.shape
    keep = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    # A drop's stacks take at most 96 N + 768 bytes a map: its 6 x (N - 1)
    # submap and its weighted copy, and three 6 x 6 stacks (K and its
    # symmetrisation). An eighth of the budget is one drop a group on the
    # shipped study's chunks, whose stacks fit in memory that matching has
    # already taken from the allocator, so they do not raise the peak. Half
    # and a quarter (two to four drops a group) measured 0.1-0.25 MiB more
    # peak RSS; the extra eigen-solve calls of an eighth cost about 1 ms a study.
    size, worst = stance.per_pass(8 * t * (96 * n + 768)), np.full((t, 6), np.inf)
    for first in range(0, n, size):
        drops = np.moveaxis(G[:, :, keep[first:first + size]], 2, 1)
        lam = np.linalg.eigvalsh(stiffness_stack(drops, weight))
        # argmin takes the first of equal minima within the group.
        group = lam[np.arange(t), np.argmin(lam[:, :, 0], axis=1)]
        np.copyto(worst, group, where=group[:, :1] < worst[:, :1])
    return worst[:, 0], worst[:, -1]


def stance_metrics(G: np.ndarray, weight: float, delta_ref: float) -> dict[str, np.ndarray]:
    """Every METRICS value of each map in a (T, 6, N) grasp-map stack.

    lambda_min and lambda_max are the extreme eigenvalues of K = w G G^T;
    manipulability is sqrt(det(G G^T)), 0 below 1e-12; wrench_full and
    wrench_torque are the largest eigenvalue of K and of its rotational 3x3
    block, times the displacement budget delta_ref; one_out_lambda_min/max
    are the extreme eigenvalues of the single-boom drop with the smallest
    lambda_min (the first such boom), 0 for one boom.
    """
    K = stiffness_stack(G, weight)
    lam = np.linalg.eigvalsh(K)
    torque = np.linalg.eigvalsh(K[:, 3:, 3:])[:, -1]
    det = np.linalg.det(G @ np.swapaxes(G, -1, -2))
    one_out = _one_out_stack(G, weight) if G.shape[2] >= 2 else (np.zeros(len(G)),) * 2
    return dict(zip(METRICS, (lam[:, 0], lam[:, -1], np.sqrt(np.where(det < 1e-12, 0.0, det)),
                              lam[:, -1] * delta_ref, torque * delta_ref, *one_out)))


def legacy_stiffness_pointmass(st: Stance) -> StiffnessResult:
    """First draft model: per-boom joint Jacobians with unit joint stiffness.

    Each boom contributes columns [u; 0] (extension) plus three pure-moment
    columns, so K = [sum u u^T, 0; 0, N I]. The rotational block is N*I for
    every geometry, which is the signature that made this model a dead end.
    """
    u = st.directions
    K = np.zeros((6, 6))
    K[:3, :3] = u.T @ u
    K[3:, 3:] = st.boom_count * np.eye(3)
    return _result(K)


def legacy_stiffness_cable(st: Stance, omega: np.ndarray | float = 1.0) -> StiffnessResult:
    """Second draft model: cable-robot form K = J^T Omega J.

    With row i of J taken as [u_i^T, ((s_i - c) x u_i)^T] and the geometric
    term dropped (fixed attachment), this coincides exactly with the default
    grasp-map model K = G Omega G^T.
    """
    G = grasp_map(st)
    J = G.T
    w = np.broadcast_to(np.asarray(omega, dtype=float), (st.boom_count,))
    if np.any(w <= 0):
        raise ValueError("omega weights must be positive")
    return _result(J.T @ (w[:, None] * J))
