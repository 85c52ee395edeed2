"""Study config files: versioned JSON schema, validation, defaults.

Top-level blocks: terrain, robot, study, constraints, calibration. All unit
fields carry a unit suffix in the file (e.g. tau_drill_nm, delta_ref_m).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .robot import MountSpec, make_robot
from .study import EXPLICIT_LAYOUT, Calibration, Constraints, StudyConfig
from .terrain import make_terrain

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A config file failed validation; message names the offending field."""


def _require_type(block: dict, field: str, types, default=None, context=""):
    value = block.get(field)
    if value is None:  # absent or null: the default
        return default
    if not isinstance(value, types) or isinstance(value, bool) and types != bool:
        raise ConfigError(f"{context}{field} has invalid type {type(value).__name__}")
    return value


def _check_keys(block: dict, allowed: set[str], context: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")


def parse_config(raw: dict) -> StudyConfig:
    """Validate a parsed JSON study config and build a StudyConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, {"schema_version", "seed", "terrain", "robot", "study",
                      "constraints", "calibration"}, "config")
    version = raw.get("schema_version")
    # type() not ==: true and 1.0 both equal 1
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"unknown schema_version {version!r}; expected {SCHEMA_VERSION}")
    seed = _require_type(raw, "seed", int, 0)
    if seed < 0:
        raise ConfigError("seed must be non-negative")

    terrain_raw = _require_type(raw, "terrain", dict, {"kind": "corridor"})
    try:
        terrain = make_terrain(terrain_raw)
    except ValueError as exc:
        raise ConfigError(f"terrain: {exc}") from exc

    rb = _require_type(raw, "robot", dict, {})
    _check_keys(rb, {"body_mass", "body_radius", "L_max", "L_min", "cone_half_angle_rad",
                     "m_boom", "m_gripper", "m_shoulder", "k", "g", "layout", "mounts"},
                "robot")
    layout = _require_type(rb, "layout", str, "uniform", "robot.")
    mounts_raw = _require_type(rb, "mounts", list, context="robot.")
    kwargs = {}
    for src, dst in (("body_mass", "body_mass"), ("body_radius", "body_radius"),
                     ("L_max", "L_max"), ("L_min", "L_min"),
                     ("cone_half_angle_rad", "cone_half_angle"),
                     ("m_boom", "m_boom"), ("m_gripper", "m_gripper"),
                     ("m_shoulder", "m_shoulder"), ("k", "boom_stiffness"),
                     ("g", "gravity")):
        value = _require_type(rb, src, (int, float), context="robot.")
        if value is not None:
            kwargs[dst] = float(value)

    st = _require_type(raw, "study", dict, {})
    _check_keys(st, {"n_range", "trials", "pool_multiplier", "surface_samples",
                     "aggregate", "coverage_layout"}, "study")
    n_range = st.get("n_range", [1, 10])
    if (not isinstance(n_range, list) or len(n_range) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in n_range)):
        raise ConfigError("study.n_range must be [lo, hi] integers")
    n_range = (n_range[0], n_range[1])

    mounts = None
    if mounts_raw is not None:
        if n_range[0] != n_range[1]:
            raise ConfigError("robot.mounts requires a single-N study.n_range")
        mounts = []
        for i, m in enumerate(mounts_raw):
            if not isinstance(m, dict):
                raise ConfigError(f"robot.mounts[{i}] must be a JSON object")
            _check_keys(m, {"position", "axis"}, f"robot.mounts[{i}]")
            try:
                mounts.append(MountSpec(position=np.asarray(m["position"], dtype=float),
                                        axis=np.asarray(m["axis"], dtype=float)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"robot.mounts[{i}]: {exc}") from exc
        if len(mounts) != n_range[0]:
            raise ConfigError("robot.mounts length must equal the study boom count")

    cs = _require_type(raw, "constraints", dict, {})
    _check_keys(cs, {"tau_drill_nm", "M_CR_nm", "one_boom_out"}, "constraints")
    tau_drill = _require_type(cs, "tau_drill_nm", (int, float), 4.0, "constraints.")
    m_cr = _require_type(cs, "M_CR_nm", (int, float), context="constraints.")
    one_out = _require_type(cs, "one_boom_out", bool, True, "constraints.")

    cal = _require_type(raw, "calibration", dict, {})
    _check_keys(cal, {"delta_ref_m"}, "calibration")
    delta_ref = _require_type(cal, "delta_ref_m", (int, float), 0.1, "calibration.")

    try:
        template = make_robot(boom_count=max(n_range), layout=layout, mounts=mounts, **kwargs)
        constraints = Constraints(
            tau_drill=float(tau_drill),
            m_critical=float(m_cr) if m_cr is not None else None,
            one_boom_out=one_out)
        calibration = Calibration(delta_ref=float(delta_ref))
        return StudyConfig(
            terrain=terrain,
            robot_template=template,
            n_range=n_range,
            trials=_require_type(st, "trials", int, 100, "study."),
            seed=int(seed),
            layout=layout if mounts is None else EXPLICIT_LAYOUT,
            pool_multiplier=_require_type(st, "pool_multiplier", int, 3, "study."),
            surface_samples=_require_type(st, "surface_samples", int, 20000, "study."),
            coverage_layout=_require_type(st, "coverage_layout", str, "nested", "study."),
            aggregate_mode=_require_type(st, "aggregate", str, "median", "study."),
            constraints=constraints,
            calibration=calibration)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> tuple[StudyConfig, dict]:
    """Read and validate a config file; returns (config, raw JSON echo)."""
    text = Path(path).read_text()
    raw = json.loads(text)  # JSONDecodeError carries line/column
    return parse_config(raw), raw
