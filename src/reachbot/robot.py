"""Robot configuration: body, boom mounts, mass accounting and buckling.

Booms are deployable members loaded in tension; the limiting structural case
is the bending moment at the shoulder with a boom fully outstretched under
gravity, which must stay below the boom's critical buckling moment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# Body-frame axes that mission hardware reserves: +x sensor boresight,
# -x tether exit, -z instrument suite.
MISSION_KEEPOUT_AXES = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
DEFAULT_KEEPOUT_HALF_ANGLE = math.radians(30.0)


@dataclass(frozen=True)
class MountSpec:
    """One shoulder mount on the body sphere: position and cone boresight."""

    position: np.ndarray
    axis: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        ax = np.asarray(self.axis, dtype=float)
        if pos.shape != (3,) or ax.shape != (3,):
            raise ValueError("mount position and axis must be 3-vectors")
        n = np.linalg.norm(ax)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("mount axis must be a unit vector")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "axis", ax / n)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-evenly spaced unit vectors (golden-angle lattice, poles included)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return np.array([[0.0, 0.0, 1.0]])
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * i / (n - 1)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def build_mounts(
    n: int,
    body_radius: float = 0.5,
    layout: str = "uniform",
    keepout_half_angle: float = DEFAULT_KEEPOUT_HALF_ANGLE,
) -> list[MountSpec]:
    """Place n shoulder mounts on the body sphere, axes radial.

    ``uniform`` spreads the mounts with a golden-angle lattice. ``mission``
    grows the lattice and rejects points inside the keep-out cones around
    the sensor, tether and instrument axes until n survivors remain.
    """
    if n < 1:
        raise ValueError("boom count must be >= 1")
    if layout == "uniform":
        dirs = fibonacci_sphere(n)
    elif layout == "mission":
        cos_lim = math.cos(keepout_half_angle)
        dirs = None
        best = 0
        for m in range(n, 64 * n + 16):
            cand = fibonacci_sphere(m)
            ok = np.all(cand @ MISSION_KEEPOUT_AXES.T < cos_lim, axis=1)
            best = max(best, int(ok.sum()))
            if ok.sum() >= n:
                dirs = cand[ok][:n]
                break
        if dirs is None:
            raise ValueError(
                f"mission layout infeasible for {n} mounts; at most {best} fit outside keep-out zones"
            )
    else:
        raise ValueError(f"unknown mount layout {layout!r}")
    return [MountSpec(position=body_radius * d, axis=d) for d in dirs]


@dataclass(frozen=True)
class RobotConfig:
    """Configurable robot parameters. Immutable after validation."""

    boom_count: int
    mounts: tuple[MountSpec, ...]
    body_mass: float = 10.0
    body_radius: float = 0.5
    L_max: float = 20.0
    L_min: float = 0.5
    cone_half_angle: float = math.pi / 4.0
    m_boom: float = 1.0
    m_gripper: float = 0.5
    m_shoulder: float = 0.5
    boom_stiffness: float = 100.0
    gravity: float = 3.721

    def __post_init__(self):
        if self.boom_count < 1:
            raise ValueError("boom_count must be >= 1")
        mounts = tuple(self.mounts)
        if len(mounts) != self.boom_count:
            raise ValueError("mounts must have exactly boom_count entries")
        if not 0 < self.L_min < self.L_max:
            raise ValueError("boom length limits require 0 < L_min < L_max")
        if not 0 < self.cone_half_angle < math.pi / 2:
            raise ValueError("cone_half_angle must be in (0, pi/2)")
        for name in ("body_mass", "m_boom", "m_gripper", "m_shoulder"):
            if vars(self)[name] < 0:
                raise ValueError(f"{name} must be non-negative")
        if not self.boom_stiffness > 0:
            raise ValueError("boom_stiffness must be positive")
        if not self.body_radius > 0:
            raise ValueError("body_radius must be positive")
        for m in mounts:
            if abs(np.linalg.norm(m.position) - self.body_radius) > 1e-9:
                raise ValueError("mount positions must lie on the body sphere")
        object.__setattr__(self, "mounts", mounts)

    def with_boom_count(self, n: int, layout: str = "uniform") -> "RobotConfig":
        return replace(self, boom_count=n, mounts=tuple(build_mounts(n, self.body_radius, layout)))


def make_robot(boom_count: int, layout: str = "uniform", mounts: list[MountSpec] | None = None, **overrides) -> RobotConfig:
    """Convenience factory: place mounts (unless given) and validate."""
    body_radius = overrides.get("body_radius", 0.5)
    if mounts is None:
        mounts = build_mounts(boom_count, body_radius=body_radius, layout=layout)
    return RobotConfig(boom_count=boom_count, mounts=tuple(mounts), **overrides)


def total_mass(cfg: RobotConfig, boom_count: int | np.ndarray | None = None):
    """Body plus per-boom assemblies, affine in boom count (an array of counts, or cfg's)."""
    n = cfg.boom_count if boom_count is None else boom_count
    return cfg.body_mass + n * (cfg.m_boom + cfg.m_gripper + cfg.m_shoulder)


def buckling_moment(m_gripper: float, m_boom: float, g: float, L: float) -> float:
    """Shoulder bending moment of a horizontal fully deployed boom.

    The gripper mass acts at the tip and the boom's own mass at mid-span:
    M = m_gripper*g*L + (1/2)*m_boom*g*L.
    """
    if min(m_gripper, m_boom, g, L) < 0:
        raise ValueError("buckling inputs must be non-negative")
    return m_gripper * g * L + 0.5 * m_boom * g * L


@dataclass(frozen=True)
class BucklingReport:
    m_shoulder: float
    m_critical: float
    satisfied: bool


def check_buckling(m_critical: float, cfg: RobotConfig) -> BucklingReport:
    """Worst-case check at full extension: requires M_CR strictly above M_shoulder."""
    if m_critical < 0:
        raise ValueError("m_critical must be non-negative")
    m_sh = buckling_moment(cfg.m_gripper, cfg.m_boom, cfg.gravity, cfg.L_max)
    return BucklingReport(m_shoulder=m_sh, m_critical=float(m_critical), satisfied=m_critical > m_sh)
