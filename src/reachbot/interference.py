"""Mechanical interference as terrain surface coverage.

A surface point is accessible to a robot's boom iff ``feasibility_matrix``
accepts it, the same test that anchor grasping uses, so "can cover" and
"can grasp" never disagree. Coverage is the fraction of the points of a
randomly shifted golden lattice on the surface (``surface_point_chunks``)
that the booms reach. The lattice's shift is two unit doubles the caller
gives: the study's are the first two of stream ``surface``, computed by
``rng.substream_uniforms`` (``rng.substream(seed, 0, "surface").random(2)``
gives the same doubles, but imports ``numpy.random``). The estimate is
unbiased over a uniform shift, and its error is far below that of as many
independent draws. Overlap (area reachable by two or more booms)
quantifies redundancy without new reachable terrain.

An explicit robot (``layout`` ``explicit``) is covered as given, at its own
boom count; any other robot's mounts come from ``with_boom_count``.

Only the samples within reach enter the feasibility passes. A boom
reaches at most L_max from its shoulder, so by the triangle inequality no
boom of the robot reaches a sample farther than R = L_max + max |shoulder|
from the body centre (the origin of the robot's frame). Every mount block
of ``coverage_curve`` is its robot at some boom count, with the robot's
L_max and body radius, so the blocks' R agree up to rounding, and it takes
the largest. The surface stream (``surface_point_chunks`` with ``reach``)
yields only the samples within R, and every other lattice point, generated
or not, is counted as covered by no boom. The screen is exact: every count
equals the unscreened pass's.

Each chunk of the stream, at most COVERAGE_CHUNK samples, is one
feasibility pass. No array is sized by the sample count.
"""
from __future__ import annotations

import logging
from collections.abc import Iterable, Sequence

import numpy as np

from .robot import RobotConfig
from .stance import feasibility_matrix
from .terrain import COVERAGE_CHUNK, Terrain, surface_point_chunks

log = logging.getLogger(__name__)

# Coverage columns, one entry per boom count: boom_count, sample_count,
# unique_pct and overlap_pct (fractions covered by >= 1 and >= 2 booms),
# per_boom_marginal (lists: the area boom i adds to booms 0..i-1) and
# count_histogram (lists: entry k counts points covered by exactly k booms).
Coverage = dict[str, np.ndarray | list[list]]


def _reach(robot: RobotConfig) -> float:
    # No boom reaches farther than R from the body centre. The relative
    # margin, far above the few ulps by which the computed norms can differ
    # from the true ones, keeps rounding from dropping a sample that
    # feasibility_matrix accepts.
    return (robot.L_max + np.linalg.norm(robot.shoulders, axis=1).max()) * (1 + 1e-9)


def _block_coverage(blocks: list[tuple[RobotConfig, Sequence[int]]],
                    passes: Iterable[np.ndarray], s: int) -> Coverage:
    """Coverage columns of every boom count that a list of mount blocks serves.

    A block is (robot, boom counts): boom count N is covered by the robot's
    first N mounts. ``passes`` are (k, 3) arrays of the samples, among
    ``s``, that may be covered; the others lie beyond every block's reach,
    are covered by no mount and go to bin 0. Per pass and per block, one
    feasibility matrix and its running count of covering mounts give every
    prefix's union count and each served N's histogram, as integers.
    """
    if s < 1:
        raise ValueError("need at least one surface sample")
    unions = [np.zeros(robot.boom_count, dtype=np.int64) for robot, _ in blocks]
    hists = [{n: np.zeros(n + 1, dtype=np.int64) for n in ns} for _, ns in blocks]

    given = largest = 0
    for batch in passes:
        given += len(batch)
        largest = max(largest, len(batch))
        for (robot, _), union, hist in zip(blocks, unions, hists):
            ok, _ = feasibility_matrix(robot, batch)
            counts = np.zeros((robot.boom_count + 1, len(batch)), dtype=np.int32)
            # Row n: how many of mounts 0..n-1 reach. Adding row by row is
            # several times faster than np.cumsum along axis 0.
            for i, row in enumerate(ok):
                np.add(counts[i], row, out=counts[i + 1])
            union += (counts[1:] >= 1).sum(axis=1)
            for n, h in hist.items():
                h += np.bincount(counts[n], minlength=n + 1)
        del batch  # freed before the next pass is generated
    for hist in hists:
        for h in hist.values():
            h[0] += s - given  # not given: beyond every block's reach
    log.debug("coverage over %d mount block(s): %d of %d samples given, feasibility passes "
              "of up to %d samples, largest %d mount-sample pairs", len(blocks), given, s,
              largest, largest * max(robot.boom_count for robot, _ in blocks))
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


def coverage_from_mounts(robot: RobotConfig, points: np.ndarray) -> Coverage:
    """Coverage of a robot's mounts over given surface sample points, as one row."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    passes = (points[i:i + COVERAGE_CHUNK] for i in range(0, len(points), COVERAGE_CHUNK))
    return _block_coverage([(robot, (robot.boom_count,))], passes, len(points))


def coverage_curve(
    robot: RobotConfig,
    terrain: Terrain,
    n_range: tuple[int, int],
    sample_count: int,
    shift,
    layout_policy: str = "nested",
) -> Coverage:
    """Coverage columns, one row per boom count, sharing one surface sample set.

    The samples are the ``sample_count`` points of the golden lattice shifted
    by ``shift``, two unit doubles (see ``surface_point_chunks``). An
    explicit robot is covered as given, so ``n_range`` must be its own boom
    count alone. Otherwise ``layout_policy`` places the mounts on ``robot``'s body:
    ``nested`` takes the first N of one golden-angle lattice of size n_max,
    so the covered area grows with N by construction; ``uniform``/``mission``
    build each N's layout on its own, so monotonicity is only statistical.

    The whole ``nested`` lattice is one mount block, served by one
    feasibility pass per chunk of the surface stream; any other robot is a
    block of its own. Only the lattice points within the blocks' reach R
    come out of the stream (see the module docstring), so working
    memory is one pass (about 45 bytes per mount of the largest block and
    sample: 2.8 MiB for 16 mounts), whatever ``sample_count``.
    """
    lo, hi = n_range
    if not 1 <= lo <= hi:
        raise ValueError("n_range must satisfy 1 <= lo <= hi")
    ns = range(lo, hi + 1)
    if robot.layout == "explicit":  # with_boom_count raises at any other count
        blocks = [(robot.with_boom_count(n), (n,)) for n in ns]
    elif layout_policy == "nested":
        blocks = [(robot.with_boom_count(hi, "uniform"), ns)]
    elif layout_policy in ("uniform", "mission"):
        blocks = [(robot.with_boom_count(n, layout_policy), (n,)) for n in ns]
    else:
        raise ValueError(f"unknown layout policy {layout_policy!r}")
    reach = max(_reach(r) for r, _ in blocks)
    return _block_coverage(blocks, surface_point_chunks(terrain, sample_count, shift, reach),
                           sample_count)

