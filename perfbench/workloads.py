"""Benchmark workloads: study configs derived from the shipped lava-tube config.

Each workload is the shipped ``configs/mars_lava_tube.json`` with a few
fields replaced and its ``seed`` set from the benchmark's ``--seed``. At the
default seed 42 the ``lava_tube`` config is byte-identical to the shipped
file. See README.md for why each workload was chosen.
"""
from __future__ import annotations

import copy
import json
from pathlib import Path

BASE_CONFIG = Path("configs") / "mars_lava_tube.json"

# name -> {"block.field": value} replacements applied to the shipped config.
WORKLOADS: dict[str, dict[str, object]] = {
    # The shipped study itself: N = 1..10, 100 trials, 20,000 surface samples.
    # Most of its time is the one-boom-out eigen-solves.
    "lava_tube": {},
    # A smaller anchor pool and shorter booms: about ten times as many
    # rejected draws (resamples), so the stance/assignment path dominates.
    "sparse_pool": {"study.pool_multiplier": 2, "robot.L_max": 19.0},
    # Few trials but many boom counts and surface samples: nearly all of the
    # time and memory goes to the coverage feasibility matrices.
    "coverage_sweep": {"study.n_range": [1, 16], "study.trials": 4,
                       "study.surface_samples": 400_000},
}


def make_config(root: Path, workload: str, seed: int) -> tuple[dict, str]:
    """The workload's config as (parsed dict, file text)."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    text = (root / BASE_CONFIG).read_text()
    base = json.loads(text)
    cfg = copy.deepcopy(base)
    cfg["seed"] = seed
    for key, value in WORKLOADS[workload].items():
        block, field = key.split(".")
        cfg[block][field] = value
    if cfg != base:
        text = json.dumps(cfg, indent=2) + "\n"
    return cfg, text
