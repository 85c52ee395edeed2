"""Parametric terrain surfaces and uniform random sampling on them.

Three topologies are supported:

* corridor -- the lateral surface of a finite cylinder (an enclosing cavity,
  e.g. a lava tube), local axis along +x, robot nominally at the center;
* wall -- a vertical rectangle in the local y-z plane, normal +x;
* floor -- a horizontal rectangle in the local x-y plane, normal +z.

Anchor pools are i.i.d. area-uniform draws: ``sample_pools`` scales the
caller's unit doubles (the study's come from ``rng.substream_uniforms``),
and ``sample_anchors`` draws one pool from a numpy generator such as
``rng.substream``, the reference that the tests and the benchmark check the
study's pools against. Coverage test points are a lattice shifted by two
unit doubles the caller gives; every point is area-uniform over the shift.
Terrain values are immutable and safe to share across threads.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

CORRIDOR = "corridor"
WALL = "wall"
FLOOR = "floor"

_KINDS = (CORRIDOR, WALL, FLOOR)


@dataclass(frozen=True)
class Frame:
    """Rigid pose of a terrain surface in world coordinates."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.origin, dtype=float)
        if R.shape != (3, 3) or not np.allclose(R @ R.T, np.eye(3), atol=1e-9):
            raise ValueError("frame rotation must be a 3x3 orthonormal matrix")
        if t.shape != (3,):
            raise ValueError("frame origin must be a 3-vector")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "origin", t)

    def to_world(self, pts: np.ndarray) -> np.ndarray:
        """World coordinates of local points (..., k, 3), each row rounded alike at any k.

        numpy multiplies a lone row by the rotation as a vector, which can
        round differently, so a lone row goes with a copy of itself."""
        pts = np.asarray(pts, dtype=float)
        lone = pts.shape[-2:-1] == (1,)
        world = (np.concatenate([pts, pts], axis=-2) if lone else pts) @ self.rotation.T
        if lone:
            world = world[..., :1, :]
        world += self.origin  # in place: no second full-size temporary
        return world


@dataclass(frozen=True)
class Terrain:
    """A parametric graspable surface.

    ``dims`` is (radius, length) for a corridor, (width, height) for a wall
    and (width, length) for a floor; dims[1] is always the longitudinal
    extent along which anchor windows apply.
    """

    kind: str
    dims: tuple[float, float]
    frame: Frame = field(default_factory=Frame)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown terrain kind {self.kind!r}")
        names = _DIM_NAMES[self.kind]
        dims = tuple(float(d) for d in self.dims)
        for name, value in zip(names, dims):
            if not value > 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "dims", dims)

    @property
    def longitudinal_extent(self) -> float:
        return self.dims[1]


_DIM_NAMES = {
    CORRIDOR: ("radius", "length"),
    WALL: ("width", "height"),
    FLOOR: ("width", "length"),
}


def corridor(radius: float = 15.0, length: float = 100.0, frame: Frame | None = None) -> Terrain:
    return Terrain(CORRIDOR, (radius, length), frame or Frame())


def wall(width: float, height: float, frame: Frame | None = None) -> Terrain:
    return Terrain(WALL, (width, height), frame or Frame())


def floor(width: float, length: float, frame: Frame | None = None) -> Terrain:
    return Terrain(FLOOR, (width, length), frame or Frame())


@dataclass(frozen=True)
class AnchorSet:
    """A batch of candidate anchor points on one terrain."""

    points: np.ndarray  # (M, 3) world frame
    terrain: Terrain
    seed: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return len(self.points)


def _scale_draws(t: Terrain, count: int, u: np.ndarray, window: float | None):
    """(along, across) views of unit draws ``u`` (C, 2 * count), scaled in place."""
    if u.shape != (len(u), 2 * count):
        raise ValueError("u must hold 2 * count draws per pool")
    span = t.longitudinal_extent if window is None else float(window)
    if span > t.longitudinal_extent + 1e-12:
        raise ValueError("window exceeds terrain longitudinal extent")
    lo, hi = (0.0, 2.0 * np.pi) if t.kind == CORRIDOR else (-t.dims[0] / 2.0, t.dims[0] / 2.0)
    along, across = u[:, :count], u[:, count:]
    # In place, as Generator.uniform computes low + (high - low) * u.
    for part, low, high in ((along, -span / 2.0, span / 2.0), (across, lo, hi)):
        part *= high - low
        part += low
    return along, across


def _local_points(t: Terrain, along: np.ndarray, across: np.ndarray) -> np.ndarray:
    """Local-frame points from scaled draws, row by row (so a subset of draws gives those rows)."""
    if t.kind == CORRIDOR:
        return np.stack([along, t.dims[0] * np.cos(across), t.dims[0] * np.sin(across)], axis=-1)
    if t.kind == WALL:
        return np.stack([np.zeros_like(along), across, along], axis=-1)
    return np.stack([across, along, np.zeros_like(along)], axis=-1)


def _along_window(t: Terrain, reach: float) -> tuple[float, float]:
    """Bounds (lo > hi: none) on the along coordinate of surface points within ``reach`` of c = 0.

    Along is a frame axis, so |p - c|^2 >= (along - c_along)^2 + h^2, h being c's distance to
    the cross-section: |radius - |c_yz|| (corridor) or |c_normal|. The slack, far above
    rounding, keeps every sample whose computed |p| is within ``reach``."""
    c = -(t.frame.origin @ t.frame.rotation)  # the origin in local coordinates
    along, h = {CORRIDOR: (c[0], abs(t.dims[0] - np.hypot(c[1], c[2]))),
                WALL: (c[2], abs(c[0])), FLOOR: (c[1], abs(c[2]))}[t.kind]
    slack = 1e-9 * (reach + np.linalg.norm(t.frame.origin) + t.dims[0])
    r, h = reach + slack, max(h - slack, 0.0)
    half = np.sqrt((r - h) * (r + h)) + slack if r > h else -1.0
    return along - half, along + half


def sample_pools(t: Terrain, count: int, window: float | None, u: np.ndarray) -> np.ndarray:
    """Area-uniform pools of ``count`` points from unit draws, as (C, count, 3).

    ``u`` is (C, 2 * count) doubles in [0, 1), such as
    ``rng.substream_uniforms(seed, trials, tag, 2 * count)``; row c's first
    ``count`` draws place pool c's points along the longitudinal window,
    the rest across it. Pool c holds, byte for byte, the points
    ``sample_anchors`` gives a generator whose ``random(2 * count)`` is
    ``u[c]``. ``u`` is consumed: it is scaled in place. ``window`` None
    spans the full longitudinal extent.
    """
    return t.frame.to_world(_local_points(t, *_scale_draws(t, count, u, window)))


def _unit_draws(count: int, rng: np.random.Generator) -> np.ndarray:
    if count < 0:
        raise ValueError("count must be non-negative")
    return rng.random((1, 2 * count))


def sample_anchors(
    t: Terrain,
    count: int,
    window: float | None,
    rng: np.random.Generator,
    seed: int | None = None,
) -> AnchorSet:
    """Draw ``count`` i.i.d. area-uniform anchor points within the window."""
    return AnchorSet(points=sample_pools(t, count, window, _unit_draws(count, rng))[0],
                     terrain=t, seed=seed)


# Lattice points per chunk of surface_point_chunks, and so the most samples one
# coverage feasibility pass takes: about 45 bytes per mount and sample, 2.8 MiB
# for 16 mounts.
COVERAGE_CHUNK = 4096

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # the golden lattice's across step, 1/phi


def _window_ranges(count: int, s0: float, a: float, b: float) -> list[tuple[int, int]]:
    """Ascending index ranges [start, stop) that hold every lattice index i
    with u_i = frac((i + 1/2) / count + s0) in [a, b] (a > b: none).

    u_i rises with i up to one wrap, so these are at most two ranges; a
    margin of two indices on each side covers rounding."""
    if a > b:
        return []
    first = math.floor(count * (a - s0) - 0.5) - 2
    size = math.ceil(count * (b - s0) - 0.5) + 3 - first
    if size >= count:
        return [(0, count)]
    start = first % count
    stop = start + size
    return [(start, stop)] if stop <= count else [(0, stop - count), (start, count)]


def surface_point_chunks(t: Terrain, count: int, shift, reach: float | None = None):
    """Area-uniform test points over the full surface, as (k, 3) arrays of at
    most COVERAGE_CHUNK rows.

    The points are a randomly shifted golden lattice: point i of ``count``
    has unit coordinates u_i = frac((i + 1/2) / count + s0) along and
    v_i = frac(i / phi + s1) across, scaled as ``sample_pools`` scales unit
    draws over the full longitudinal extent. ``shift`` is (s0, s1); the
    study's is the first two doubles of stream ``surface``, in [0, 1). Over
    a uniform shift every point is uniform on the surface, so any area
    fraction estimated from them is unbiased. Concatenated, the chunks are
    the lattice's rows in index order.
    With ``reach``, only the indices whose u_i can fall in ``_along_window``
    are generated (one or two index ranges: no point outside them can lie
    within ``reach``), and of those only the points whose |p| (in
    ``np.linalg.norm``'s sum order) is at most ``reach`` are yielded: in
    order, the rows of the full lattice within ``reach`` of the world
    origin. No array is sized by ``count``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (2,) or not np.isfinite(shift).all():
        raise ValueError("shift must be two finite doubles")
    s0, s1 = shift
    ranges = [(0, count)]
    if reach is not None:
        lo, hi = _along_window(t, reach)
        span = t.longitudinal_extent
        ranges = _window_ranges(count, s0, max(lo / span + 0.5, 0.0), min(hi / span + 0.5, 1.0))
    within = 0
    for start, stop in ranges:
        for first in range(start, stop, COVERAGE_CHUNK):
            i = np.arange(first, min(first + COVERAGE_CHUNK, stop), dtype=float)
            u = np.concatenate([(i + 0.5) / count + s0, i * _INV_PHI + s1])[None]
            u -= np.floor(u)
            points = t.frame.to_world(_local_points(t, *_scale_draws(t, len(i), u, None)))[0]
            if reach is not None:
                points = points[np.sqrt(sum(points[:, k] ** 2 for k in range(3))) <= reach]
            within += len(points)
            yield points
    if reach is not None:
        log.debug("surface stream: shifted lattice of %d points, %d generated in %d index "
                  "range(s) of the along-axis window, %d within R = %.3f m", count,
                  sum(stop - start for start, stop in ranges), len(ranges), within, reach)


def sample_surface_points(t: Terrain, count: int, shift,
                          reach: float | None = None) -> np.ndarray:
    """The ``count`` points of a shifted lattice over the full surface, as (k, 3).

    The concatenation of ``surface_point_chunks``: all ``count`` points, or
    with ``reach`` the rows within ``reach`` of the world origin.
    """
    return np.concatenate([*surface_point_chunks(t, count, shift, reach), np.empty((0, 3))])


def anchors_to_csv_rows(pool: AnchorSet, trial: int) -> list[str]:
    """CSV lines (with header) for one trial's anchor pool."""
    return ["trial,index,x,y,z"] + [f"{trial},{idx},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g}"
                                    for idx, p in enumerate(pool.points)]
