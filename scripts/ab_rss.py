#!/usr/bin/env python3
"""A/B peak RSS of fresh `reachbot study` launches on two checkouts.

BASE and HEAD are two checkouts of this repository, such as a parent commit
and a change on top of it; CONFIG is a study config file. Every launch is
made as the benchmark makes it (perfbench/run.py): through this checkout's
`perfbench/launch.py`, which reports the child's peak RSS (`ru_maxrss`), run
from the side's root with PYTHONPATH=<side>/src, one BLAS thread and
otherwise this environment (so where PYTHONDONTWRITEBYTECODE is set, every
launch compiles the side from source). Each side first gets one untimed
`validate` launch, as the benchmark's warm-up; then the script runs PAIRS
pairs of `study` launches, one a side, alternating which side goes first,
each into a fresh output directory.

It prints each side's median, quartiles and runs in MiB, and the verdict of
the no-regression rule with BENCHMARK.json's `peak_rss_mb` bound: HEAD is
worse when its median exceeds BASE's by more than the bound, and the result
is unresolved when BASE's interquartile range is wider than the bound,
unless every HEAD run reads lower than every BASE run.

Usage: python3 scripts/ab_rss.py BASE HEAD CONFIG
Exit code 0 when HEAD is not worse, 1 when it is worse or unresolved, or on
bad usage.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_study import summary  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = ROOT / "perfbench" / "launch.py"
PAIRS = 10
TIMEOUT_S = 120
# perfbench/run.py's command line and thread settings for every launch.
CLI = [sys.executable, "-c", "import sys; from reachbot.cli import main; sys.exit(main())"]
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mb(side: Path, args: list[str], scratch: Path) -> float:
    """Peak RSS in MiB of one fresh `reachbot` launch on ``side``; exit 0 or 2 expected."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"), **dict.fromkeys(BLAS, "1"))
    env.pop("REACHBOT_LOG", None)
    out, err = scratch / "stdout.txt", scratch / "stderr.txt"
    done = subprocess.run([sys.executable, str(LAUNCH), str(out), str(err), str(TIMEOUT_S),
                           "--", *CLI, *args], env=env, cwd=side, capture_output=True,
                          text=True, check=True)
    stats = json.loads(done.stdout)
    if stats["code"] not in (0, 2):
        raise RuntimeError(f"reachbot {args[0]} on {side} exited {stats['code']}:\n"
                           f"{err.read_text()}")
    return stats["maxrss_kib"] / 1024


def verdict(base: list[float], head: list[float], bound: float) -> dict:
    """The no-regression rule on peak RSS (lower is better): HEAD's median
    excess over BASE's, BASE's interquartile range, and the result: "worse",
    "not worse" or "unresolved"."""
    (base_median, q1, q3), (head_median, _, _) = summary(base), summary(head)
    excess, spread = head_median - base_median, q3 - q1
    if max(head) < min(base):
        result = "not worse"
    elif spread > bound:
        result = "unresolved"
    else:
        result = "worse" if excess > bound else "not worse"
    return {"excess": excess, "base_iqr": spread, "result": result}


def main() -> int:
    if len(sys.argv) != 4:
        print("usage: ab_rss.py BASE HEAD CONFIG", file=sys.stderr)
        return 1
    base, head, config = (Path(arg).resolve() for arg in sys.argv[1:])
    for side in (base, head):
        if not (side / "src" / "reachbot").is_dir():
            print(f"error: {side} is not a checkout of reachbot", file=sys.stderr)
            return 1
    if not config.is_file():
        print(f"error: config file not found: {config}", file=sys.stderr)
        return 1
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bound = next(m["bound"] for m in metrics if m["name"] == "peak_rss_mb")
    rss = {base: [], head: []}
    with tempfile.TemporaryDirectory() as scratch:
        scratch, out_dir = Path(scratch), Path(scratch) / "out"
        for side in (base, head):
            peak_rss_mb(side, ["validate", str(config)], scratch)
        for i in range(PAIRS):
            for side in (base, head) if i % 2 == 0 else (head, base):
                rss[side].append(peak_rss_mb(side, ["study", str(config), "--out-dir",
                                                    str(out_dir)], scratch))
                shutil.rmtree(out_dir)
    for name, side in (("base", base), ("head", head)):
        median, q1, q3 = summary(rss[side])
        runs = " ".join(f"{r:.3f}" for r in rss[side])
        print(f"{name} {side}: median {median:.3f} MiB [{q1:.3f}, {q3:.3f}]; runs {runs}")
    v = verdict(rss[base], rss[head], bound)
    print(f"head minus base at the median {v['excess']:+.3f} MiB; base IQR "
          f"{v['base_iqr']:.3f} MiB; bound {bound} MiB")
    print(f"peak_rss_mb: {v['result']}")
    return 0 if v["result"] == "not worse" else 1


if __name__ == "__main__":
    sys.exit(main())
