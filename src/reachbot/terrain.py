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

import numbers
from dataclasses import dataclass, field

import numpy as np

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
        return np.asarray(pts, dtype=float) @ self.rotation.T + self.origin

    def to_local(self, pts: np.ndarray) -> np.ndarray:
        return (np.asarray(pts, dtype=float) - self.origin) @ self.rotation


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


def make_terrain(spec: dict) -> Terrain:
    """Build a Terrain from a config-file block like {"kind": "corridor", ...}."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(f"terrain kind must be one of {_KINDS}, got {kind!r}")
    names = _DIM_NAMES[kind]
    defaults = {CORRIDOR: (15.0, 100.0)}.get(kind, (None, None))
    dims = []
    for name, default in zip(names, defaults):
        value = spec.pop(name, default)
        if value is None:
            raise ValueError(f"terrain.{name} is required for kind {kind!r}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"terrain.{name} must be a number")
        dims.append(float(value))
    frame = Frame()
    fr = spec.pop("frame", None)  # null: the identity frame
    if fr is not None:
        if not isinstance(fr, dict):
            raise ValueError("terrain.frame must be a JSON object")
        frame = Frame(np.asarray(fr.get("rotation", np.eye(3))), np.asarray(fr.get("origin", np.zeros(3))))
    if spec:
        raise ValueError(f"unknown terrain fields: {sorted(spec)}")
    return Terrain(kind, tuple(dims), frame)


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


def _sample_local(t: Terrain, count: int, rng: np.random.Generator, window: float | None) -> np.ndarray:
    span = t.longitudinal_extent if window is None else float(window)
    if span > t.longitudinal_extent + 1e-12:
        raise ValueError("window exceeds terrain longitudinal extent")
    u = rng.uniform(-span / 2.0, span / 2.0, count)
    if t.kind == CORRIDOR:
        radius = t.dims[0]
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        return np.column_stack([u, radius * np.cos(theta), radius * np.sin(theta)])
    half_w = t.dims[0] / 2.0
    v = rng.uniform(-half_w, half_w, count)
    if t.kind == WALL:
        return np.column_stack([np.zeros(count), v, u])
    return np.column_stack([v, u, np.zeros(count)])


def sample_anchors(
    t: Terrain,
    count: int,
    window: float | None,
    rng: np.random.Generator,
    seed: int | None = None,
) -> AnchorSet:
    """Draw ``count`` i.i.d. area-uniform anchor points within the window."""
    if count < 0:
        raise ValueError("count must be non-negative")
    pts = t.frame.to_world(_sample_local(t, count, rng, window))
    return AnchorSet(points=pts, terrain=t, seed=seed)


def sample_surface_points(t: Terrain, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` area-uniform test points over the full surface."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return t.frame.to_world(_sample_local(t, count, rng, None))


def anchors_to_csv_rows(pool: AnchorSet, trial: int) -> list[str]:
    """CSV lines (with header) for one trial's anchor pool."""
    return ["trial,index,x,y,z"] + [f"{trial},{idx},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g}"
                                    for idx, p in enumerate(pool.points)]
