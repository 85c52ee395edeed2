#!/usr/bin/env python3
"""A/B timing of `run_study` on two checkouts, judged by the paired-runs rule.

BASE and HEAD are two checkouts of this repository, such as a parent commit
and a change on top of it; CONFIG is a study config file. The script runs
PAIRS pairs of fresh processes, one a side, alternating which side runs
first. Each process imports its side's `src/` tree, loads CONFIG, runs
`run_study` once to warm up and then REPEATS times, and reports the median
of those timed runs. Every process runs with OPENBLAS_NUM_THREADS=1.

It prints each side's median and quartiles over its PAIRS process medians,
the pairs each side won (ties count for neither), and whether HEAD shows a
gain: it must win at least nine tenths of the pairs, and the medians must
differ by more than BASE's interquartile range.

Usage: python3 scripts/ab_study.py BASE HEAD CONFIG
Exit code 0 when HEAD shows a gain, 1 when it does not or on bad usage.
"""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
REPEATS = 7
WIN_SHARE = 0.9

CHILD = """
import json, statistics, sys, time
from reachbot.config import load_config
from reachbot.study import run_study
sc, echo = load_config(sys.argv[1])
run_study(sc, echo)
times = []
for _ in range(int(sys.argv[2])):
    start = time.perf_counter()
    run_study(sc, echo)
    times.append(time.perf_counter() - start)
print(json.dumps(statistics.median(times)))
"""


def study_median(side: Path, config: Path) -> float:
    """Median seconds of REPEATS warm `run_study` calls in a fresh process on ``side``."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("REACHBOT_LOG", None)
    done = subprocess.run([sys.executable, "-c", CHILD, str(config), str(REPEATS)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summary(samples: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) of ``samples``."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, q1, q3


def verdict(base: list[float], head: list[float]) -> dict:
    """The paired-runs rule on times (lower is better): pair i is ``base[i]``
    against ``head[i]``. HEAD shows a gain when it wins at least WIN_SHARE of
    the pairs, ties counting for neither, and its median is lower than BASE's
    by more than BASE's interquartile range."""
    head_wins = sum(h < b for b, h in zip(base, head))
    base_wins = sum(b < h for b, h in zip(base, head))
    (base_median, q1, q3), (head_median, _, _) = summary(base), summary(head)
    gap, spread = base_median - head_median, q3 - q1
    return {"head_wins": head_wins, "base_wins": base_wins, "gap": gap, "base_iqr": spread,
            "gain": head_wins >= WIN_SHARE * len(base) and gap > spread}


def main() -> int:
    if len(sys.argv) != 4:
        print("usage: ab_study.py BASE HEAD CONFIG", file=sys.stderr)
        return 1
    base, head, config = (Path(arg).resolve() for arg in sys.argv[1:])
    for side in (base, head):
        if not (side / "src" / "reachbot").is_dir():
            print(f"error: {side} is not a checkout of reachbot", file=sys.stderr)
            return 1
    if not config.is_file():
        print(f"error: config file not found: {config}", file=sys.stderr)
        return 1
    times = {base: [], head: []}
    for i in range(PAIRS):
        for side in (base, head) if i % 2 == 0 else (head, base):
            times[side].append(study_median(side, config))
    for name, side in (("base", base), ("head", head)):
        median, q1, q3 = summary(times[side])
        runs = " ".join(f"{t:.4f}" for t in times[side])
        print(f"{name} {side}: median {median:.4f} s [{q1:.4f}, {q3:.4f}]; runs {runs}")
    v = verdict(times[base], times[head])
    print(f"head faster in {v['head_wins']} of {PAIRS} pairs, base in {v['base_wins']}; "
          f"median gap {v['gap']:.4f} s, base IQR {v['base_iqr']:.4f} s")
    print(f"gain: {'shown' if v['gain'] else 'not shown'} (needs at least "
          f"{WIN_SHARE:.0%} of pairs won and a median gap above the base IQR)")
    return 0 if v["gain"] else 1


if __name__ == "__main__":
    sys.exit(main())
