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
the largest. The surface stream (``surface_point_chunks`` at reach R) yields
only the samples within R, and every other lattice point, generated or
not, is counted as covered by no boom. The screen is exact: every count
equals the unscreened pass's.

Each chunk of the stream is one feasibility pass of at most
``stance.PASS_PAIRS`` mount-sample pairs, the study's one pass budget: the
stream is asked for PASS_PAIRS // M lattice indices a chunk, M being the
largest block's mount count (2,048 at 16 mounts). Each pass adds to one
integer prefix histogram per mount block (see ``_block_coverage``), and
every coverage column is read from those. One workspace of
``stance.PAIR_BYTES`` a pair (1.6 MiB), allocated per call for the largest
block, serves every pass, and no array is sized by the sample count.
"""
from __future__ import annotations

import logging
from collections.abc import Callable, Iterable, Sequence
from functools import partial

import numpy as np

from . import stance
from .robot import RobotConfig
from .stance import PAIR_BYTES, feasibility_matrix, feasibility_workspace, per_pass
from .terrain import Terrain, surface_point_chunks

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
                    chunks: Callable[[int], Iterable[np.ndarray]], s: int) -> Coverage:
    """Coverage columns of every boom count that a list of mount blocks serves.

    A block is (robot, boom counts): boom count N is covered by the robot's
    first N mounts. ``chunks(size)`` yields (k, 3) arrays of at most
    ``size`` of the samples, among ``s``, that may be covered; the others
    lie beyond every block's reach, are covered by no mount and go to bin 0.
    ``size`` is PASS_PAIRS // M, M being the largest block's mount count, so
    each chunk is one pass. An N-mount block keeps one (N+1) x (N+1) integer
    prefix histogram, whose entry [i, k] counts the samples that exactly k
    of mounts 0..i-1 reach; each pass fills it from one feasibility matrix
    and its running sums over the mounts, both held in the one workspace of
    PAIR_BYTES a pair allocated here.
    """
    if s < 1:
        raise ValueError("need at least one surface sample")
    mounts = max(robot.boom_count for robot, _ in blocks)
    size = per_pass(PAIR_BYTES * mounts)
    work = feasibility_workspace(mounts * size)
    sums = np.empty(mounts * size, dtype=np.intp)
    hists = [np.zeros((robot.boom_count + 1,) * 2, dtype=np.int64) for robot, _ in blocks]
    given = passes = largest = 0
    for batch in chunks(size):
        given, passes, largest = given + len(batch), passes + 1, max(largest, len(batch))
        for (robot, _), hist in zip(blocks, hists):
            ok, _ = feasibility_matrix(robot, batch, work)
            # Row i - 1 of count ends as i (N + 1) plus how many of mounts
            # 0..i-1 reach the sample: its flat index into hist, row i.
            n = robot.boom_count
            count = sums[:ok.size].reshape(ok.shape)
            np.copyto(count, ok)
            count += n + 1
            for i in range(1, n):
                count[i] += count[i - 1]
            hist += np.bincount(count.ravel(), minlength=hist.size).reshape(hist.shape)
        batch = None  # freed before the next chunk is generated
    for hist in hists:
        hist[:, 0] += s - given  # not given: beyond every block's reach
        hist[0, 0] += given  # no mount: every given sample is uncovered
    log.debug("coverage over %d mount block(s): %d of %d samples given in %d feasibility "
              "passes, the largest %d samples; pass budget %d mount-sample pairs (%d samples "
              "at %d mounts), workspace %d bytes", len(blocks), given, s, passes, largest,
              stance.PASS_PAIRS, size, mounts, sum(a.nbytes for a in work) + sums.nbytes)
    rows = [(n, hist) for (_, ns), hist in zip(blocks, hists) for n in ns]
    unique = np.array([s - h[n, 0] for n, h in rows]) / s
    overlap = np.array([s - h[n, :2].sum() for n, h in rows]) / s
    if not np.all((0.0 <= overlap) & (overlap <= unique) & (unique <= 1.0)):
        raise ValueError("coverage fractions must satisfy 0 <= overlap <= unique <= 1")
    return {"boom_count": np.array([n for n, _ in rows]),
            "sample_count": np.full(len(rows), s),
            "unique_pct": unique, "overlap_pct": overlap,
            "per_boom_marginal": [np.diff((s - h[:n + 1, 0]) / s).tolist() for n, h in rows],
            "count_histogram": [h[n, :n + 1].tolist() for n, h in rows]}


def coverage_from_mounts(robot: RobotConfig, points: np.ndarray) -> Coverage:
    """Coverage of a robot's mounts over given surface sample points, as one row."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _block_coverage([(robot, (robot.boom_count,))], lambda size: (
        points[first:first + size] for first in range(0, len(points), size)), len(points))


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
    so the covered area grows with N by construction; any other policy
    builds each N's layout on its own (``build_mounts`` rejects an unknown
    one), so monotonicity is only statistical.

    The whole ``nested`` lattice is one mount block, served by one
    feasibility matrix a pass; any other robot is a block of its own. Only
    the lattice points within the blocks' reach R come out of the stream
    (see the module docstring), in chunks of PASS_PAIRS // (the largest
    block's mounts) lattice indices, one pass each. Working memory is one
    workspace of PAIR_BYTES a pair (1.6 MiB), reused by every pass, and one
    chunk of the stream, whatever ``sample_count``.
    """
    lo, hi = n_range
    if not 1 <= lo <= hi:
        raise ValueError("n_range must satisfy 1 <= lo <= hi")
    ns = range(lo, hi + 1)
    explicit = robot.layout == "explicit"  # with_boom_count raises at any other count
    if layout_policy == "nested" and not explicit:
        blocks = [(robot.with_boom_count(hi, "uniform"), ns)]
    else:
        blocks = [(robot.with_boom_count(n, None if explicit else layout_policy), (n,))
                  for n in ns]
    reach = max(_reach(r) for r, _ in blocks)
    return _block_coverage(blocks, partial(surface_point_chunks, terrain, sample_count, shift,
                                           reach), sample_count)

