#!/usr/bin/env python3
"""Byte-identity sweep: run the same CLI commands on two checkouts and compare every output.

BASE and HEAD are two checkouts of this repository, such as a parent commit
and a change on top of it. Each side builds the sweep's configs (CONFIGS) from
its own configs/mars_lava_tube.json and runs every command (COMMANDS) on each
config, and `reachbot pareto` once (PARETO) on a 3,000-row points file, each
run in a temporary directory of its own, with PYTHONPATH=<side>/src,
REACHBOT_LOG=debug and OPENBLAS_NUM_THREADS=1. A run's digest is the SHA-256
of every file its directory ends with (the inputs, and the outputs under
out/) and of stdout, its exit code, and its stderr lines,
in which wall times ("0.104 s") and the checkout's path are masked. Each run
that differs between the sides is printed, with what differs. Stderr is
compared line by line: the lines that only one side has follow the run,
BASE's marked "-" and HEAD's "+", and a stderr whose lines differ in order
only is reported as "stderr (line order only)".

Usage: python3 scripts/byte_sweep.py BASE HEAD
Exit code 0 when every run is identical, 1 when any differs or on bad usage.
"""
import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path


def _rotation(axis: int, angle: float) -> list[list[float]]:
    """The rotation by ``angle`` about coordinate axis ``axis`` (0: x, 2: z)."""
    c, s = math.cos(angle), math.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    R = [[float(r == k) for k in range(3)] for r in range(3)]
    R[i][i], R[i][j], R[j][i], R[j][j] = c, -s, s, c
    return R


# Six explicit mount axes, 60 degrees apart about the corridor axis and tilted
# 30 degrees off its normal plane, alternately forward and back.
_AXES = [[0.5 * (-1) ** k, math.sqrt(0.75) * math.cos(k * math.pi / 3),
          math.sqrt(0.75) * math.sin(k * math.pi / 3)] for k in range(6)]

# config name -> edits of the shipped config, dotted key -> value (null: absent)
CONFIGS = {
    "lava_tube": {},
    "sparse_pool": {"study.pool_multiplier": 2, "robot.L_max": 19.0},
    "coverage_sweep": {"study.n_range": [1, 16], "study.trials": 4,
                       "study.surface_samples": 400_000},
    "tilted_corridor": {"terrain.frame": {"rotation": _rotation(2, 0.7), "origin": [1, 2, 3]}},
    "wall": {"terrain": {"kind": "wall", "width": 30.0, "height": 60.0,
                         "frame": {"origin": [-5.0, 0, 0]}}},
    "tilted_floor": {"terrain": {"kind": "floor", "width": 30.0, "length": 80.0,
                                 "frame": {"rotation": _rotation(0, 0.3), "origin": [0, 0, -4.0]}}},
    "coverage_uniform": {"study.coverage_layout": "uniform"},
    "coverage_mission": {"study.coverage_layout": "mission"},
    "robot_mission": {"robot.layout": "mission"},
    "explicit_mounts": {"robot.layout": None, "study.n_range": [6, 6], "robot.mounts": [
        {"position": [0.5 * x for x in axis], "axis": axis} for axis in _AXES]},
    # More trials than one chunk of the study's pass budget holds.
    "trials_1000": {"study.trials": 1000},
    # 100 trials up to 16 booms: one-boom-out drops in several groups at N = 11..16.
    "booms_16": {"study.n_range": [1, 16]},
    # The high-resample regime: about 40,000 resamples and 400 infeasible
    # cells, in matching passes of several feasibility slices whose pools
    # the screen mostly rejects.
    "high_resample": {"robot.L_max": 16.0},
}

# command name -> CLI arguments, run with --out-dir out in a directory holding
# config.json; eval's stance.json is the side's stance_trial3 output.
COMMANDS = {
    "study_seed42": ["study", "config.json", "--seed", "42"],
    "study_seed7": ["study", "config.json", "--seed", "7"],
    "coverage": ["coverage", "config.json", "--samples", "50000"],
    "stance_trial3": ["stance", "config.json", "--trial", "3"],
    "stance_n6_trial3": ["stance", "config.json", "--n", "6", "--trial", "3"],
    "eval": ["eval", "stance.json", "--config", "config.json"],
}

# The one run of `reachbot pareto` a side makes, on POINTS_ROWS rows of
# points_csv: enough rows that the filter takes them in several chunks.
PARETO = ["pareto", "points.csv", "--minimize", "mass", "--maximize", "torque",
          "--minimize", "reach"]
POINTS_ROWS = 3000

_WALL_TIME = re.compile(r"\d+\.\d+ s\b")


def points_csv(rows: int) -> str:
    """A deterministic points file: a name and three integer objectives a row."""
    lines = ["name,mass,torque,reach"] + [
        f"p{i},{i * 7919 % 1009},{i * 104729 % 997},{i * 1299709 % 983}" for i in range(rows)]
    return "\n".join(lines) + "\n"


def make_config(shipped: dict, edits: dict) -> dict:
    cfg = copy.deepcopy(shipped)
    for key, value in edits.items():
        *blocks, field = key.split(".")
        block = cfg
        for name in blocks:
            block = block.setdefault(name, {})
        block[field] = value
    return cfg


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(root: Path, env: dict, args: list[str],
                files: dict[str, bytes]) -> tuple[dict, bytes | None]:
    """One CLI run, with ``--out-dir out``, in a temporary directory that holds
    ``files`` (name -> bytes): its digests (item -> SHA-256 or exit code, and
    "stderr": its masked lines) and the bytes of its out/stance.json, if any."""
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        for name, data in files.items():
            (run / name).write_bytes(data)
        done = subprocess.run([sys.executable, "-m", "reachbot.cli", *args, "--out-dir", "out"],
                              cwd=run, env=env, capture_output=True)
        err = _WALL_TIME.sub("<t> s", done.stderr.decode().replace(str(root), "<checkout>"))
        items = {"exit code": str(done.returncode), "stdout": _sha(done.stdout),
                 "stderr": err.splitlines()}
        for path in sorted(p for p in run.rglob("*") if p.is_file()):
            items[path.relative_to(run).as_posix()] = _sha(path.read_bytes())
        stance = run / "out" / "stance.json"
        return items, (stance.read_bytes() if stance.exists() else None)


def side_digests(root: Path) -> dict[str, dict]:
    """Every run's digests on one checkout: run name -> {item: SHA-256 or exit code,
    and "stderr": its masked lines}."""
    root = root.resolve()
    shipped = json.loads((root / "configs" / "mars_lava_tube.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(root / "src"), REACHBOT_LOG="debug",
               OPENBLAS_NUM_THREADS="1")
    digests = {}
    for config, edits in CONFIGS.items():
        files = {"config.json": json.dumps(make_config(shipped, edits), indent=2).encode()}
        stance = None
        for command, args in COMMANDS.items():
            given = {**files, "stance.json": stance} if command == "eval" and stance else files
            digests[f"{config}/{command}"], made = run_digests(root, env, args, given)
            if command == "stance_trial3":
                stance = made
    digests["pareto"] = run_digests(root, env, PARETO,
                                    {"points.csv": points_csv(POINTS_ROWS).encode()})[0]
    return digests


def differences(base: dict, head: dict) -> list[str]:
    """One entry per run that differs, in run order: a line naming what differs,
    then the stderr lines that only one side has ("-" BASE, "+" HEAD)."""
    entries = []
    for run in sorted(base.keys() | head.keys()):
        a, b = base.get(run, {}), head.get(run, {})
        items, detail = [], []
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) == b.get(key):
                continue
            if key == "stderr" and key in a and key in b:
                gone, new = Counter(a[key]) - Counter(b[key]), Counter(b[key]) - Counter(a[key])
                if not gone and not new:
                    key = "stderr (line order only)"
                detail += [f"  - {line}" for line in gone.elements()]
                detail += [f"  + {line}" for line in new.elements()]
            items.append(key)
        if items:
            entries.append("\n".join([f"{run}: {', '.join(items)}", *detail]))
    return entries


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: byte_sweep.py BASE HEAD", file=sys.stderr)
        return 1
    base, head = (Path(arg) for arg in sys.argv[1:])
    for side in (base, head):
        if not (side / "src" / "reachbot").is_dir():
            print(f"error: {side} is not a checkout of reachbot", file=sys.stderr)
            return 1
    base_digests = side_digests(base)
    lines = differences(base_digests, side_digests(head))
    print("\n".join(lines + [f"{len(lines)} of {len(base_digests)} runs differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
