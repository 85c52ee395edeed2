"""Parametric terrain surfaces and uniform random sampling on them.

Three topologies are supported:

* corridor -- the lateral surface of a finite cylinder (an enclosing cavity,
  e.g. a lava tube), local axis along +x, robot nominally at the center;
* wall -- a vertical rectangle in the local y-z plane, normal +x;
* floor -- a horizontal rectangle in the local x-y plane, normal +z.

All sampling is uniform by surface area and deterministic given the caller's
generator. Terrain values are immutable and safe to share across threads.
"""
from __future__ import annotations

import copy
import logging
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


# Surface draws per chunk of surface_point_chunks. Its unit draws (2 MiB) are
# the largest block the coverage stage frees, and glibc then keeps up to twice
# that of free heap untrimmed, enough for a 16-mount feasibility pass. With
# 65,536 draws, each pass faulted its pages in anew: 11,520 minor faults a
# coverage pass on coverage_sweep, against none.
SURFACE_CHUNK = 131072


def _skip_draws(rng: np.random.Generator, n: int) -> None:
    """Move ``rng`` past ``n`` doubles, where ``rng.random(n)`` leaves it.

    ``advance`` also empties the bit generator's 32-bit buffer, which
    ``random`` leaves alone; the buffer is put back."""
    state = rng.bit_generator.state
    rng.bit_generator.advance(n)
    moved = rng.bit_generator.state
    moved.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
    rng.bit_generator.state = moved


def _chunk_local(t: Terrain, n: int, rng: np.random.Generator,
                 across_rng: np.random.Generator, window: tuple[float, float] | None):
    """(1, k, 3) local points of the next ``n`` along and across draws; with
    ``window``, of its rows only."""
    u = np.empty((1, 2 * n))
    rng.random(out=u[0, :n])
    across_rng.random(out=u[0, n:])
    along, across = _scale_draws(t, n, u, None)
    if window is not None:
        keep = (along >= window[0]) & (along <= window[1])
        along, across = along[keep][None], across[keep][None]
    del u  # with a window, the draws are freed before the points are built
    return _local_points(t, along, across)


def surface_point_chunks(t: Terrain, count: int, rng: np.random.Generator,
                         reach: float | None = None):
    """Area-uniform test points over the full surface, SURFACE_CHUNK draws at a time.

    Concatenated, the yielded (k, 3) arrays, one per chunk, are row for row
    and byte for byte the points of one ``rng.random((1, 2 * count))`` draw:
    ``count`` along, then ``count`` across. The along draws come from
    ``rng``, the across draws from a copy of it advanced by ``count``
    (``bit_generator.advance``: PCG64, which ``rng.substream`` gives, jumps
    ``count`` doubles ahead in O(log count) steps); once every chunk is
    drawn, ``rng`` sits where that one call leaves it. With ``reach``, only
    the points in ``_along_window`` are built, and of those only the points
    whose |p| (in ``np.linalg.norm``'s sum order) is at most ``reach`` are
    yielded: in order, the rows of the full set within ``reach`` of the
    world origin. No array is sized by ``count``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    window = None if reach is None else _along_window(t, reach)
    across_rng = copy.deepcopy(rng)
    across_rng.bit_generator.advance(count)
    built = within = 0
    for start in range(0, count, SURFACE_CHUNK):
        n = min(SURFACE_CHUNK, count - start)
        points = t.frame.to_world(_chunk_local(t, n, rng, across_rng, window))[0]
        built += len(points)
        if reach is not None:
            points = points[np.sqrt(sum(points[:, k] ** 2 for k in range(3))) <= reach]
        within += len(points)
        yield points
        del points  # no array of this chunk is alive while the next is drawn
    _skip_draws(rng, count)
    if reach is not None:
        log.debug("surface stream: %d samples drawn in %d chunk(s), %d built (along-axis "
                  "window), %d within R = %.3f m", count, -(-count // SURFACE_CHUNK), built,
                  within, reach)


def sample_surface_points(t: Terrain, count: int, rng: np.random.Generator,
                          reach: float | None = None) -> np.ndarray:
    """Draw ``count`` area-uniform test points over the full surface, as (k, 3).

    The concatenation of ``surface_point_chunks``: all ``count`` points, or
    with ``reach`` the rows within ``reach`` of the world origin.
    """
    return np.concatenate([*surface_point_chunks(t, count, rng, reach), np.empty((0, 3))])


def anchors_to_csv_rows(pool: AnchorSet, trial: int) -> list[str]:
    """CSV lines (with header) for one trial's anchor pool."""
    return ["trial,index,x,y,z"] + [f"{trial},{idx},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g}"
                                    for idx, p in enumerate(pool.points)]
