#!/usr/bin/env python3
"""Re-derive the delta_ref calibration shipped in configs/mars_lava_tube.json.

The wrench-capability proxy is (stiffness eigenvalue) * delta_ref, so the
drilling-torque constraint tau_drill first becomes satisfiable at boom count
N* when delta_ref lies in [tau_drill / m(N*), tau_drill / m(N*-1)), where
m(N) is the per-N aggregate of the rotational-block stiffness eigenvalue.
This script runs the study trials of the shipped config, prints m(N), the
valid delta_ref interval for the 8-boom target, and the recommended value
(interval midpoint rounded to 3 decimals).

Usage: python3 scripts/calibrate_delta_ref.py [config.json]
"""
import sys
from pathlib import Path

from reachbot.config import ConfigError, load_config
from reachbot.study import aggregate, run_trials

TARGET_N = 8


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "configs" / "mars_lava_tube.json"
    try:
        sc, _ = load_config(path)
        if not sc.n_range[0] < TARGET_N <= sc.n_range[1]:
            raise ConfigError(f"study.n_range must include N={TARGET_N - 1} and N={TARGET_N}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table = run_trials(sc)
    summary = aggregate(table, sc.robot_template, sc.aggregate_mode)
    # raw rotational eigenvalue aggregate, independent of the configured delta_ref
    raw = dict(zip(summary["n"].tolist(),
                   (summary["agg_wrench_torque"] / sc.calibration.delta_ref).tolist()))
    print(f"config: {path}")
    print(f"aggregate: {sc.aggregate_mode} over {sc.trials} trials, seed {sc.seed}")
    for n, m in raw.items():
        print(f"  N={n:2d}  rotational eigenvalue aggregate = {m:.6g}")
    tau = sc.constraints.tau_drill
    lo = tau / raw[TARGET_N]
    hi = tau / raw[TARGET_N - 1]
    if lo >= hi:
        print(f"no delta_ref makes the torque constraint first pass at N={TARGET_N}")
        return 1
    mid = round((lo + hi) / 2, 3)
    print(f"valid delta_ref interval for N*={TARGET_N}: [{lo:.6g}, {hi:.6g})")
    print(f"recommended delta_ref_m: {mid}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
