#!/usr/bin/env python3
"""A/B run of BENCHMARK.json's end-to-end metrics on two checkouts, judged pair by pair.

Usage: python3 scripts/ab.py BASE HEAD CONFIG    (two checkouts, one study config)

After one untimed `validate` launch a side, PAIRS pairs run, alternating which
side goes first. A side's turn measures as perfbench/run.py does: a `validate`
launch (setup_s) and a `study` launch (cli_wall_s, peak_rss_mb) through
perfbench/launch.py, and a fresh process timing REPEATS warm `run_study` calls
(study_s, their median), each from the side's root with PYTHONPATH=<side>/src
and one BLAS thread. It prints each metric's runs and `verdict`; exit code 0
when every metric reads "not worse", 1 otherwise or on bad usage.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
LAUNCH = ROOT / "perfbench" / "launch.py"
PAIRS = 10
REPEATS = 7
WIN_SHARE = 0.9
MEASURED = ("setup_s", "cli_wall_s", "study_s", "peak_rss_mb")
# perfbench/run.py's command line, thread settings and child timeout (120 s).
CLI = [sys.executable, "-c", "import sys; from reachbot.cli import main; sys.exit(main())"]
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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


def run(side: Path, args: list[str]) -> str:
    """Stdout of ``args`` run on ``side``; a non-zero exit raises."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"), **dict.fromkeys(BLAS, "1"))
    env.pop("REACHBOT_LOG", None)
    return subprocess.run(args, env=env, cwd=side, capture_output=True, text=True,
                          check=True).stdout


def launch(side: Path, args: list[str], scratch: Path) -> tuple[float, float]:
    """(wall s, peak RSS MiB) of one fresh `reachbot` launch; exit 0 or 2 expected."""
    err = scratch / "stderr.txt"
    stats = json.loads(run(side, [sys.executable, str(LAUNCH), str(scratch / "stdout.txt"),
                                  str(err), "120", "--", *CLI, *args]))
    if stats["code"] not in (0, 2):
        raise RuntimeError(f"{args[0]} on {side} exited {stats['code']}: {err.read_text()}")
    return stats["wall_s"], stats["maxrss_kib"] / 1024


def measure(side: Path, config: Path, scratch: Path) -> dict[str, float]:
    """One side's turn in a pair: each metric of MEASURED once."""
    setup_s, _ = launch(side, ["validate", str(config)], scratch)
    out = str(scratch / "out")
    cli_wall_s, peak_rss_mb = launch(side, ["study", str(config), "--out-dir", out], scratch)
    shutil.rmtree(out)
    study_s = json.loads(run(side, [sys.executable, "-c", CHILD, str(config), str(REPEATS)]))
    return dict(zip(MEASURED, (setup_s, cli_wall_s, study_s, peak_rss_mb)))


def summary(samples: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) of ``samples``."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, q1, q3


def verdict(base: list[float], head: list[float], bound: float) -> dict:
    """The paired-runs rules on a lower-is-better metric, pair i being ``base[i]``
    against ``head[i]``; ties count for neither side. Gain: HEAD won WIN_SHARE of
    the pairs and its median is lower than BASE's by more than BASE's IQR.
    Regression, ``bound`` a share of BASE's median: "worse" when HEAD's median
    exceeds BASE's by over bound x BASE's median, "unresolved" when BASE's IQR
    is wider than that; "not worse" otherwise, or when every HEAD run is lower."""
    head_wins = sum(h < b for b, h in zip(base, head))
    base_wins = sum(b < h for b, h in zip(base, head))
    (base_median, q1, q3), (head_median, _, _) = summary(base), summary(head)
    excess, spread, allowed = head_median - base_median, q3 - q1, bound * base_median
    result = ("not worse" if max(head) < min(base) or max(excess, spread) <= allowed
              else "unresolved" if spread > allowed else "worse")
    return {"head_wins": head_wins, "base_wins": base_wins, "excess": excess / base_median,
            "base_iqr": spread / base_median, "result": result,
            "gain": head_wins >= WIN_SHARE * len(base) and -excess > spread}


def main() -> int:
    if len(sys.argv) != 4:
        print("usage: ab.py BASE HEAD CONFIG", file=sys.stderr)
        return 1
    base, head, config = (Path(arg).resolve() for arg in sys.argv[1:])
    for side in (base, head):
        if not (side / "src" / "reachbot").is_dir():
            print(f"error: {side} is not a checkout of reachbot", file=sys.stderr)
            return 1
    if not config.is_file():
        print(f"error: config file not found: {config}", file=sys.stderr)
        return 1
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    unknown = [m["name"] for m in metrics if m["name"] not in MEASURED or m["better"] != "lower"]
    if unknown:
        print(f"error: metrics not measured here: {', '.join(unknown)}", file=sys.stderr)
        return 1
    sides, runs = {"base": base, "head": head}, {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as scratch:
        for side in (base, head):
            launch(side, ["validate", str(config)], Path(scratch))
        for i in range(PAIRS):
            for label in ("base", "head") if i % 2 == 0 else ("head", "base"):
                runs[label].append(measure(sides[label], config, Path(scratch)))
    not_worse = True
    for m in metrics:
        name, unit = m["name"], m["unit"]
        values = {label: [r[name] for r in runs[label]] for label in sides}
        for label, side in sides.items():
            median, q1, q3 = summary(values[label])
            print(f"{name} {label} {side}: median {median:.4f} {unit} [{q1:.4f}, {q3:.4f}]; "
                  f"runs {' '.join(f'{v:.4f}' for v in values[label])}")
        v = verdict(values["base"], values["head"], m["bound"])
        print(f"{name}: head lower in {v['head_wins']} of {PAIRS} pairs, base in "
              f"{v['base_wins']}; as shares of the base median: head minus base "
              f"{v['excess']:+.1%}, base IQR {v['base_iqr']:.1%}, bound {m['bound']:.0%}")
        print(f"{name}: {v['result']}; gain {'shown' if v['gain'] else 'not shown'}")
        not_worse &= v["result"] == "not worse"
    return 0 if not_worse else 1


if __name__ == "__main__":
    sys.exit(main())
