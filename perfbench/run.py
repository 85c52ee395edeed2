"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload lava_tube --seed 42 --seconds 30 --trace 0

Run from anywhere; the program is the ``src/`` tree next to this directory.
``--trace 0`` measures the end-to-end metrics in BENCHMARK.json, ``--trace 1``
the per-layer ones. Both check every output (see checks.py) and print, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import os

# One BLAS thread in this process and in every program it launches; must be
# set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CLI = [sys.executable, "-c", "import sys; from reachbot.cli import main; sys.exit(main())"]
IMPORT_PROBE = [sys.executable, "-c", "import time; t = time.perf_counter(); "
                "import reachbot.cli; print(time.perf_counter() - t)"]
CHILD_TIMEOUT_S = 120.0
# Bytes of the (N, M) intermediates feasibility_matrix allocates per
# mount-point pair: offsets (3 float64), lengths, cosines (float64), mask (bool).
FEASIBILITY_BYTES_PER_PAIR = 3 * 8 + 8 + 8 + 1

from checks import check_cli, check_report  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


class Launch:
    """One finished child process: wall time, peak RSS, exit code, output."""

    def __init__(self, args: list[str], env: dict, cwd: Path, log: Path):
        err = log.with_suffix(".err")
        done = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), str(log), str(err),
             str(CHILD_TIMEOUT_S), "--"] + args,
            env=env, cwd=cwd, capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S + 30)
        stats = json.loads(done.stdout)
        self.wall_s = stats["wall_s"]
        self.peak_rss_mb = stats["maxrss_kib"] / 1024.0
        self.code = stats["code"]
        self.stdout = log.read_text()
        self.stderr = err.read_text(errors="replace")


class Run:
    """Counts operations and collects problems found by the checks."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.dir = OUT / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg, text = make_config(ROOT, workload, seed)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(text)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launches = 0

    def launch(self, argv: list[str], ok_codes=(0,)) -> Launch | None:
        """Launch the CLI (or an import probe); None if it failed."""
        self.attempted += 1
        self.launches += 1
        result = Launch(argv, self.env, ROOT, self.dir / f"stdout-{self.launches}.txt")
        if result.code not in ok_codes:
            self.failed += 1
            print(f"operation failed: exit {result.code}: {' '.join(argv[3:])}\n{result.stderr}",
                  file=sys.stderr)
            return None
        return result

    def check(self, problems: list[str]):
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        self.problems += problems


def pool_drawer(sc):
    """draw(trial, tag): the anchor pool the program's sampler gives a stream tag."""
    from reachbot.rng import substream
    from reachbot.terrain import sample_anchors
    window = min(2.0 * sc.robot_template.L_max, sc.terrain.longitudinal_extent)

    def draw(trial: int, tag: str):
        return sample_anchors(sc.terrain, sc.pool_multiplier * sc.n_range[1], window,
                              substream(sc.seed, trial, tag), seed=sc.seed).points
    return draw


def outputs_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Outputs:
    """Checks one study's outputs fully, then each repeat against them."""

    def __init__(self, run: Run, sc):
        self.run = run
        self.draw_pool = pool_drawer(sc)
        self.first: tuple | None = None  # (digest, exit code, stdout, parsed report)

    def add(self, out_dir: Path, code: int, stdout: str):
        digest = outputs_digest(out_dir)
        if self.first is None:
            report = json.loads((out_dir / "report.json").read_text())
            self.run.check(check_cli(report, code, stdout, out_dir))
            self.run.check(check_report(report, self.run.cfg, self.draw_pool))
            self.first = (digest, code, stdout, report)
        elif (digest, code, stdout) != self.first[:3]:
            self.run.check([f"outputs in {out_dir.name} differ from the first launch's"])
        shutil.rmtree(out_dir)

    def add_in_process(self, report):
        if json.loads(json.dumps(report.to_dict())) != self.first[3]:
            self.run.check(["in-process run_study report differs from the CLI's report.json"])


def load_program():
    """Import the checkout's program (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    import reachbot
    if Path(reachbot.__file__).resolve().parent != (SRC / "reachbot").resolve():
        raise SystemExit(f"reachbot imported from {reachbot.__file__}, not {SRC}")
    from reachbot.config import load_config
    from reachbot.study import run_study
    return load_config, run_study


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def warm_up(run: Run, sc, echo, run_study):
    """Untimed: page cache and bytecode for the launches, heap and lazy
    imports for the in-process study (a one-trial, small-sample copy)."""
    run.launch(CLI + ["validate", str(run.cfg_path)])
    run.attempted += 1
    run_study(dataclasses.replace(sc, trials=1, surface_samples=1000), echo)


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Rounds of validate launch, study launch and in-process run_study."""
    load_config, run_study = load_program()
    sc, echo = load_config(run.cfg_path)
    outputs = Outputs(run, sc)
    cfg = str(run.cfg_path)
    warm_up(run, sc, echo, run_study)
    samples: dict[str, list[float]] = {"setup_s": [], "cli_wall_s": [], "study_s": [],
                                       "peak_rss_mb": []}
    start = time.perf_counter()
    while not samples["study_s"] or time.perf_counter() - start < seconds:
        v = run.launch(CLI + ["validate", cfg])
        if v is not None:
            if v.stdout.strip() != "config ok":
                run.check([f"validate printed {v.stdout!r}"])
            samples["setup_s"].append(v.wall_s)
        out_dir = run.dir / f"out-{run.launches + 1}"
        s = run.launch(CLI + ["study", cfg, "--out-dir", str(out_dir)], ok_codes=(0, 2))
        if s is not None:
            samples["cli_wall_s"].append(s.wall_s)
            samples["peak_rss_mb"].append(s.peak_rss_mb)
            outputs.add(out_dir, s.code, s.stdout)
        run.attempted += 1
        wall, report = timed(run_study, sc, echo)
        samples["study_s"].append(wall)
        if outputs.first is not None:
            outputs.add_in_process(report)
    print("samples " + json.dumps(samples))
    return {k: statistics.median(v) for k, v in samples.items() if v}


def layer_metrics(names: list[str], rounds: list[dict], report: dict, imports: list[float],
                  untraced: list[float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics by BENCHMARK.json name; absent ones read 0 and are listed."""
    first = rounds[0]
    profile, tally = first["profile"], first["tally"]

    def self_median(span_names) -> float:
        return statistics.median(sum(r["profile"][s]["self_s"] for s in span_names
                                     if s in r["profile"]) for r in rounds)

    def total_median(span_names) -> float:
        return statistics.median(sum(r["profile"][s]["total_s"] for s in span_names
                                     if s in r["profile"]) for r in rounds)

    csv_spans = [s for s in profile if s.endswith("_csv_rows")]
    writers = [s for s in ("cli._write_json", "cli._write_lines") if s in profile]
    assign_calls = profile.get("stance.assign", {}).get("calls", 0)
    special = {
        "import.reachbot_cli_s": statistics.median(imports) if imports else None,
        "stance.assign.complete_ratio": (tally.get("stance.assign", 0.0) / assign_calls
                                         if assign_calls else None),
        "interference.feasibility_matrix.bytes_computed": (
            tally["interference.feasibility_matrix"] * FEASIBILITY_BYTES_PER_PAIR
            if "interference.feasibility_matrix" in tally else None),
        "cli.csv_rows.self_s": self_median(csv_spans) if csv_spans else None,
        "cli.write_outputs_s": total_median(writers) if writers else None,
        "study.cells": len(report["trials"]),
        "study.resamples": sum(c["resamples"] for c in report["trials"]),
        "study.infeasible_cells": sum(not c["feasible"] for c in report["trials"]),
        "trace.overhead_s": (total_median(["study.run_study"]) - statistics.median(untraced)
                             if "study.run_study" in profile else None),
    }
    values, absent = {}, []
    for name in names:
        span, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif field == "calls":
            value = profile[span]["calls"] if span in profile else None
        elif field == "self_s":
            value = self_median([span]) if span in profile else None
        else:
            raise SystemExit(f"per-layer metric {name!r} has no definition in run.py")
        if value is None:
            absent.append(name)
            value = 0
        values[name] = value
    return values, absent


def traced(run: Run, seconds: float, names: list[str]) -> dict[str, float]:
    """Rounds of import probe, untraced run_study and traced in-process CLI study."""
    load_config, run_study = load_program()
    from reachbot import cli
    sc, echo = load_config(run.cfg_path)
    outputs = Outputs(run, sc)
    tallies = {"stance.assign": lambda result: result is not None,
               "interference.feasibility_matrix": lambda result: result[0].size}
    warm_up(run, sc, echo, run_study)
    imports, untraced, rounds = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not (rounds or run.failed):
        probe = run.launch(IMPORT_PROBE)
        if probe is not None:
            imports.append(float(probe.stdout.split()[-1]))
        run.attempted += 1
        untraced.append(timed(run_study, sc, echo)[0])
        out_dir = run.dir / f"traced-{len(rounds)}"
        stdout = io.StringIO()
        run.attempted += 1
        with Tracer(tallies) as tracer, contextlib.redirect_stdout(stdout):
            code = cli.main(["study", str(run.cfg_path), "--out-dir", str(out_dir)])
        if code not in (0, 2):
            run.failed += 1
            continue
        outputs.add(out_dir, code, stdout.getvalue())
        rounds.append({"profile": tracer.profile(), "tally": dict(tracer.tally)})
        if len(rounds) == 1:
            write_spans(run, tracer)
    if not rounds:
        raise SystemExit("error: no traced study succeeded")
    for r in rounds[1:]:
        if {k: v["calls"] for k, v in r["profile"].items()} != \
                {k: v["calls"] for k, v in rounds[0]["profile"].items()}:
            run.check(["call counts differ between traced rounds of the same seed"])
            break
    values, absent = layer_metrics(names, rounds, outputs.first[3], imports, untraced)
    if absent:
        print("absent " + json.dumps(absent))
    return values


def write_spans(run: Run, tracer: Tracer):
    """Spans of the first traced round, one JSON array per line; each traced
    run of a workload replaces the previous run's file."""
    path = OUT / f"spans-{run.workload}.jsonl"
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "reachbot" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'reachbot'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            values = traced(run, args.seconds, [m["name"] for m in wanted])
        else:
            values = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no successful sample for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
