"""Study config files: the versioned JSON schema, read and checked in one place.

Top-level blocks: terrain, robot, study, constraints, calibration. All unit
fields carry a unit suffix in the file (e.g. tau_drill_nm, delta_ref_m). One
table per block maps each file field to its JSON type and to the constructor
argument it sets. A field that is absent or null is not passed, so the
default is the one of the class or function it sets. JSON has no NaN or
Infinity, and ``read_json`` refuses them.
"""
from __future__ import annotations

import json
from pathlib import Path

from .robot import MountSpec, make_robot
from .study import Calibration, Constraints, StudyConfig
from .terrain import CORRIDOR, FLOOR, WALL, Frame, Terrain, corridor, floor, wall

SCHEMA_VERSION = 1
NUMBER = (int, float)

# file field -> (JSON type, constructor argument)
CONFIG = {"schema_version": (int, "schema_version"), "seed": (int, "seed"),
          "terrain": (dict, "terrain"), "robot": (dict, "robot_template"),
          "study": (dict, "study"), "constraints": (dict, "constraints"),
          "calibration": (dict, "calibration")}
TERRAIN = {"kind": (str, "kind"), "frame": (dict, "frame"),
           "radius": (NUMBER, "radius"), "length": (NUMBER, "length"),
           "width": (NUMBER, "width"), "height": (NUMBER, "height")}
FRAME = {"rotation": (list, "rotation"), "origin": (list, "origin")}
ROBOT = {"body_mass": (NUMBER, "body_mass"), "body_radius": (NUMBER, "body_radius"),
         "L_max": (NUMBER, "L_max"), "L_min": (NUMBER, "L_min"),
         "cone_half_angle_rad": (NUMBER, "cone_half_angle"), "m_boom": (NUMBER, "m_boom"),
         "m_gripper": (NUMBER, "m_gripper"), "m_shoulder": (NUMBER, "m_shoulder"),
         "k": (NUMBER, "boom_stiffness"), "g": (NUMBER, "gravity"),
         "layout": (str, "layout"), "mounts": (list, "mounts")}
MOUNT = {"position": (list, "position"), "axis": (list, "axis")}
STUDY = {"n_range": (list, "n_range"), "trials": (int, "trials"),
         "pool_multiplier": (int, "pool_multiplier"), "surface_samples": (int, "surface_samples"),
         "aggregate": (str, "aggregate_mode"), "coverage_layout": (str, "coverage_layout")}
CONSTRAINTS = {"tau_drill_nm": (NUMBER, "tau_drill"), "M_CR_nm": (NUMBER, "m_critical"),
               "one_boom_out": (bool, "one_boom_out")}
CALIBRATION = {"delta_ref_m": (NUMBER, "delta_ref")}

_TERRAINS = {CORRIDOR: corridor, WALL: wall, FLOOR: floor}


class ConfigError(ValueError):
    """A config file failed validation; message names the offending field."""


def read_text(path: str | Path, what: str) -> str:
    """A UTF-8 file's text, its line ends as written; a missing, unreadable (a
    directory, no permission) or non-UTF-8 file is a ConfigError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{what} file is not UTF-8 text: {path}") from None


def read_json(path: str | Path, what: str):
    """Parsed JSON of a file (``read_text``); malformed JSON, NaN, Infinity, an
    integer past Python's digit limit or an object that repeats a key (json
    would keep its last value) is a ConfigError."""
    def finite(text: str) -> float:
        value = float(text)
        if value - value != 0:  # NaN or ±Infinity, also from a literal past the float range
            raise ConfigError(f"{what} file holds {text}, not a finite number")
        return value

    def integer(text: str) -> int:
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise ConfigError(f"{what} file holds an integer of {len(text.lstrip('-'))} "
                              "digits, too long to read") from None

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{what} file repeats key {key!r}")
            obj[key] = value
        return obj

    text = read_text(path, what)
    try:
        return json.loads(text, parse_constant=finite, parse_float=finite, parse_int=integer,
                          object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _fields(block, table: dict, path: str) -> dict:
    """Constructor arguments of one config block, absent and null fields left out."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path or 'config root'} must be a JSON object")
    unknown = set(block) - set(table)
    if unknown:
        raise ConfigError(f"unknown {path or 'config'} fields: {sorted(unknown)}")
    args = {}
    for name, (types, arg) in table.items():
        value = block.get(name)
        if value is None:
            continue
        where = f"{path}.{name}" if path else name
        if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
            raise ConfigError(f"{where} has invalid type {type(value).__name__}")
        if types is NUMBER:
            try:
                value = float(value)  # 10 and 10.0 report alike
            except OverflowError:  # an integer past the float range
                raise ConfigError(f"{where} is past the float range") from None
        args[arg] = value
    return args


def make_terrain(spec: dict) -> Terrain:
    """Build a Terrain from a config-file block like {"kind": "corridor", ...}."""
    args = _fields(spec, TERRAIN, "terrain")
    kind = args.pop("kind", None)
    if kind not in _TERRAINS:
        raise ConfigError(f"terrain.kind must be one of {tuple(_TERRAINS)}, got {kind!r}")
    frame = _fields(args.pop("frame", {}), FRAME, "terrain.frame")
    try:  # a TypeError names a dimension the kind lacks or requires
        return _TERRAINS[kind](frame=Frame(**frame), **args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"terrain: {exc}") from exc


def _mounts(entries: list) -> list[MountSpec]:
    if not entries:
        raise ConfigError("robot.mounts must list at least one mount")
    mounts = []
    for i, entry in enumerate(entries):
        path = f"robot.mounts[{i}]"
        args = _fields(entry, MOUNT, path)
        try:
            mounts.append(MountSpec(**args))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return mounts


def parse_config(raw: dict) -> StudyConfig:
    """Validate a parsed JSON study config and build a StudyConfig."""
    args = _fields(raw, CONFIG, "")
    version = args.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unknown schema_version {version!r}; expected {SCHEMA_VERSION}")
    args["terrain"] = make_terrain(args["terrain"]) if "terrain" in args else corridor()
    robot = _fields(args.pop("robot_template", {}), ROBOT, "robot")
    study = _fields(args.pop("study", {}), STUDY, "study")
    n_range = study["n_range"] = tuple(study.get("n_range", StudyConfig.n_range))
    if len(n_range) != 2 or not all(type(n) is int for n in n_range):
        raise ConfigError("study.n_range must be [lo, hi] integers")
    boom_count = max(n_range)
    if "mounts" in robot:  # an explicit robot's own count, which StudyConfig holds n_range to
        if "layout" in robot:
            raise ConfigError("robot.layout and robot.mounts are both given; explicit mounts "
                              "are placed as listed, so give one or the other")
        robot["mounts"] = _mounts(robot["mounts"])
        boom_count = len(robot["mounts"])
    constraints = _fields(args.pop("constraints", {}), CONSTRAINTS, "constraints")
    calibration = _fields(args.pop("calibration", {}), CALIBRATION, "calibration")
    try:
        return StudyConfig(
            robot_template=make_robot(boom_count, **robot),
            constraints=Constraints(**constraints), calibration=Calibration(**calibration),
            **study, **args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, seed: int | None = None, trials: int | None = None,
                n_range: list[int] | None = None) -> tuple[StudyConfig, dict]:
    """Read and validate a config file; returns (config, JSON echo).

    Overrides that are not None are written into the echo before it is
    checked, so the report records the study that ran."""
    raw = read_json(path, "config")
    study = {key: value for key, value in (("trials", trials), ("n_range", n_range))
             if value is not None}
    if isinstance(raw, dict):
        if seed is not None:
            raw["seed"] = seed
        if study and raw.get("study") is None:
            raw["study"] = {}
        if isinstance(raw.get("study"), dict):
            raw["study"].update(study)
    return parse_config(raw), raw
