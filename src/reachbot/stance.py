"""Boom-to-anchor matching: anchor feasibility and optimal assignment.

A robot's boom can reach an anchor iff the anchor sits inside the
shoulder's cone of motion and within the deployable length band. Reach is a
property of the robot's design alone: a ``RobotConfig`` gives the mounts,
the cone half-angle and the length band, in the body frame, whose origin is
the body centre. Booms are matched to anchors by an exact
minimum-total-length rectangular assignment, returned as each boom's row
index into the anchor pool. A pool in which some boom reaches no anchor
holds no complete assignment; the matcher screens such pools out first, on
an optional lead boom alone before the full feasibility matrix (the
fail-first order; Haralick and Elliott, Artif. Intell. 1980). The matcher
needs only numpy: a pool whose booms' nearest reachable anchors are all
distinct is settled by those row minima (their sum bounds every assignment
from below); any other pool is solved by shortest augmenting paths (Crouse,
IEEE TAES 2016; Jonker and Volgenant, Computing 1987), started from the
row-reduction partial matching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .robot import RobotConfig
from .terrain import AnchorSet

# Mount-point pairs in one feasibility pass, the memory budget of every
# stage of a study. A coverage pass holds PAIR_BYTES a pair (1.6 MiB, see
# ``interference``); the trial stage draws, matches and evaluates its pools
# and stances in chunks of at most the same bytes (see ``per_pass``). A
# matching pass holds 8 bytes a pair of costs and a feasibility workspace
# (42 bytes a pair) for a quarter of the budget (``match_pools``), in
# which a lead boom's row is taken too.
# Larger passes would raise a study's peak memory, smaller ones the
# per-pass overhead.
PASS_PAIRS = 2 ** 15
PAIR_BYTES = 50


def per_pass(item_bytes: int) -> int:
    """How many items of ``item_bytes`` bytes each fit one pass's
    PASS_PAIRS * PAIR_BYTES bytes; at least one."""
    return max(1, PASS_PAIRS * PAIR_BYTES // item_bytes)


def feasibility_workspace(pairs: int) -> list[np.ndarray]:
    """Buffers for ``feasibility_matrix`` calls of up to ``pairs`` mount-point
    pairs: five float64 and two bool arrays, 42 bytes a pair."""
    return [np.empty(pairs) for _ in range(5)] + [np.empty(pairs, dtype=bool) for _ in range(2)]


def feasibility_matrix(robot: RobotConfig, points: np.ndarray,
                       out: list[np.ndarray] | None = None,
                       booms: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(ok, lengths) arrays of shape (..., n_mounts, n_points) for points (..., n_points, 3).

    The mounts are the robot's ``booms``, all of them by default.

    The offsets are one (..., N, M) array per coordinate, and every step
    after them reuses their buffers. The length sums the squares in
    coordinate order, as ``np.linalg.norm`` does, and the cone's dot product
    is (x a0 + z a2) + y a1. A point at a shoulder (L = 0) has no cone
    angle, and ``L_min > 0`` rejects it anyway. Each broadcast operand (a
    points row, a mount column) is copied out to a whole buffer first, so
    that no ufunc call broadcasts: numpy would give such a call an iteration
    buffer of 64 KiB per broadcast operand.

    Every (..., N, M) array is a view of one of ``out``'s buffers, a
    ``feasibility_workspace`` of at least N·M pairs for the call to reuse;
    the results are then valid until its next use. Without it the call
    allocates its own.
    """
    shoulders, axes = robot.shoulders[booms], robot.axes[booms]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    shape = (*pts.shape[:-2], len(shoulders), pts.shape[-2])
    size = math.prod(shape)
    d0, d1, d2, dot, term, ok, flag = (a[:size].reshape(shape)
                                       for a in out or feasibility_workspace(size))
    for k, d in enumerate((d0, d1, d2)):
        np.copyto(d, pts[..., None, :, k])
        np.copyto(term, shoulders[:, k, None])
        d -= term
    np.copyto(dot, axes[:, 0, None])
    dot *= d0
    for k, d in ((2, d2), (1, d1)):
        np.copyto(term, axes[:, k, None])
        dot += np.multiply(term, d, out=term)
    d0 *= d0
    d1 *= d1
    d2 *= d2
    d0 += d1
    d0 += d2
    L = np.sqrt(d0, out=d0)
    with np.errstate(invalid="ignore", divide="ignore"):
        dot /= L  # the cone angle's cosine; nan at L = 0
    np.greater_equal(L, robot.L_min, out=ok)
    ok &= np.less_equal(L, robot.L_max, out=flag)
    ok &= np.greater_equal(dot, math.cos(robot.cone_half_angle), out=flag)
    return ok, L


@dataclass(frozen=True, eq=False)
class Assignment:
    """Boom-to-anchor pairing minimizing total deployed length."""

    anchor_index: np.ndarray  # (N,) pool row of each boom's anchor, in boom order
    total_length: float


def _augmenting_paths(cost: np.ndarray, first: list[int]) -> list[int] | None:
    """Each row's column in a minimum-cost assignment of rows to distinct columns.

    ``cost`` is (N, M) with N <= M, inf marking a forbidden pair, and
    ``first`` each row's argmin. The search starts from the row-reduction
    partial matching: u = row minima, v = 0, and every row holds its argmin
    unless an earlier row took it. That start is dual feasible and
    complementary slack, so the shortest augmenting paths (Dijkstra's over
    reduced costs) that match the remaining rows keep the result exact. Ties
    go to an unassigned column, then the lowest index. Returns None when a
    search reaches no further column at finite cost: the rows hold no
    complete matching. Rows are read into lists only when a search reaches
    them, and u and v are stored only for rows and columns it has reached.
    """
    rows, u, v, col4row, row4col = {}, {}, {}, [], {}
    for i, j in enumerate(first):
        col4row.append(-1 if j in row4col else j)
        row4col.setdefault(j, i)
    for free in [i for i, j in enumerate(col4row) if j < 0]:
        frontier, scanned, path, i, low = {}, {}, {}, free, 0.0
        while True:
            if i not in rows:
                rows[i] = cost[i].tolist()
                u[i] = rows[i][first[i]]
            h = low - u[i]
            for j, c in enumerate(rows[i]):
                if c < math.inf and j not in scanned:
                    r = h + c - v.get(j, 0.0)
                    if r < frontier.get(j, math.inf):
                        frontier[j], path[j] = r, i
            if not frontier:
                return None
            _, taken, j = min((d, j in row4col, j) for j, d in frontier.items())
            low = scanned[j] = frontier.pop(j)
            if not taken:
                break
            i = row4col[j]
        # Dual update over the reached rows and columns, then augment.
        u[free] += low
        for k, d in scanned.items():
            v[k] = v.get(k, 0.0) - (low - d)
            if k != j:
                u[row4col[k]] += low - d
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == free:
                break
    return col4row


def match_slice(n: int, m: int) -> int:
    """Pools in one feasibility slice of ``match_pools`` at n booms and m
    anchors a pool: a quarter of the pass budget (``per_pass``)."""
    return per_pass(4 * PAIR_BYTES * n * m)


def match_pools(robot: RobotConfig, points: np.ndarray, group: int = 1,
                lead: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimum-total-length matching of booms to distinct anchors, per pool.

    ``points`` stacks C pools as (C, M, 3). Returns the (C, N) anchor rows
    of each pool's booms, the (C,) total lengths, the (C, N) reach (which
    booms reach some anchor of each pool) and the (C,) pools the row-minimum
    shortcut settled; a pool that holds no complete feasible assignment has
    total length inf and anchor rows 0. A pool where some boom reaches no
    anchor cannot hold one, so only pools that pass that screen,
    ``reach.all(axis=1)``, reach the solver.

    Each run of ``group`` consecutive pools holds alternatives in order of
    preference: a group keeps only its first complete pool, the solver takes
    none of the group's later pools, and those report inf.

    Feasibility is taken in slices of ``match_slice`` pools that reuse one
    workspace (42 bytes a pair), and each slice writes only its screened
    pools' lengths, inf where a boom cannot reach, into one (C, N, M) cost
    array that the solver reads. A pass of 109 pools of 30 anchors at N =
    10 so peaks at 0.64 MB (tracemalloc).

    With a ``lead`` boom, the pass first takes that boom's feasibility row
    of every pool, in the same workspace (one call whenever C <= N times
    the slice size), and only the pools where it reaches some anchor go on
    to the full slices. A pool the lead rejects reads False throughout
    ``reach``; it fails the screen, so the other outputs are the same as
    without a lead.
    """
    n, m = robot.boom_count, points.shape[-2]
    if m < n:
        raise ValueError(f"anchor pool ({m}) smaller than boom count ({n})")
    size = match_slice(n, m)
    work = feasibility_workspace(min(len(points), size) * n * m)
    reach, cost, count = np.zeros((len(points), n), dtype=bool), np.empty((len(points), n, m)), 0
    pools = np.arange(len(points))
    if lead is not None:
        hit = np.empty(len(points), dtype=bool)
        for first in range(0, len(points), size * n):
            part = slice(first, first + size * n)
            hit[part] = feasibility_matrix(robot, points[part], work,
                                           slice(lead, lead + 1))[0].any(axis=(1, 2))
        pools = pools[hit]
    for first in range(0, len(pools), size):
        # A view of the pools, but a copy of the lead's survivors.
        part = slice(first, first + size) if lead is None else pools[first:first + size]
        ok, L = feasibility_matrix(robot, points[part], work)
        reach[part] = hits = ok.any(axis=2)
        keep = np.flatnonzero(hits.all(axis=1))
        out = cost[count:count + keep.size]
        np.take(L, keep, axis=0, out=out, mode="clip")  # "clip": out is not buffered
        np.copyto(out, np.inf, where=~ok[keep])
        count += keep.size
    return _match_costs(cost[:count], reach, group)


def _match_costs(cost: np.ndarray, reach: np.ndarray,
                 group: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``match_pools`` on the (C, N) ``reach`` and the (S, N, M) costs of the
    S pools where every boom reaches, in pool order, inf where a boom cannot
    reach; N <= M."""
    n = cost.shape[1]
    rows, total = np.zeros((len(reach), n), dtype=int), np.full(len(reach), np.inf)
    shortcut, pools = np.zeros(len(reach), dtype=bool), np.flatnonzero(reach.all(axis=1))
    if not pools.size:
        return rows, total, reach, shortcut
    # Each boom's nearest reachable anchor. Where these are distinct they are
    # the optimum: their total is a lower bound on every assignment.
    cols = cost.argmin(axis=2)
    ranked = np.sort(cols, axis=1)
    found = (ranked[:, 1:] != ranked[:, :-1]).all(axis=1)
    shortcut[pools] = found
    # Each group's first complete slot so far; the solver skips later slots.
    group_of, slot = np.divmod(pools, group)
    first = np.full(len(reach) // group, group)
    np.minimum.at(first, group_of[found], slot[found])
    for c in np.flatnonzero(~found).tolist():
        if slot[c] < first[group_of[c]]:
            best = _augmenting_paths(cost[c], cols[c].tolist())
            if best is not None:
                cols[c], found[c], first[group_of[c]] = best, True, slot[c]
    hit = np.flatnonzero(found & (slot == first[group_of]))
    rows[pools[hit]] = cols[hit]
    total[pools[hit]] = cost[hit[:, None], np.arange(n), cols[hit]].sum(axis=1)
    return rows, total, reach, shortcut


def assign(robot: RobotConfig, anchors: AnchorSet | np.ndarray) -> Assignment | None:
    """Exact minimum-total-length matching of booms to distinct anchors in one pool.

    Returns None when no complete feasible assignment exists.
    """
    points = anchors.points if isinstance(anchors, AnchorSet) else np.atleast_2d(anchors)
    (rows,), (total,), _, _ = match_pools(robot, np.asarray(points, dtype=float)[None])
    return Assignment(anchor_index=rows, total_length=float(total)) if total < np.inf else None
