"""Command-line front end.

Subcommands: validate, study, stance, coverage, pareto, eval. Exit codes:
0 success, 1 config/usage error, 2 ran correctly but no feasible design.
All outputs are JSON or CSV files written under --out-dir.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config, read_json
from .mechanics import Stance, grasp_map, stance_metrics, stiffness
from .robot import RobotConfig
from .study import (REL_EPS, Calibration, coverage_csv_rows, draw_pools, match_rounds,
                    pareto_csv_rows, pareto_front, run_study, stability_csv_rows,
                    study_coverage, summary_csv_rows)
from .terrain import anchors_to_csv_rows

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_DESIGN = 2


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("REACHBOT_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write_lines(path: Path, lines: Iterable[str]):
    """Write each line and a newline, one line at a time: an iterator's
    lines (such as ``stability_csv_rows``') are never held together."""
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)


# The C encoder, separating a flat record's items as at depth 2 of an indent=2 document.
_RECORD = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _indented(value, indent: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` as nested behind ``indent``
    (a newline and spaces): encoded strings hold no raw newline, so this only indents."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def _item(value) -> str:
    """A list item's text at depth 2: a flat record (a dict of scalars) by the C encoder."""
    if type(value) is dict and value and _SCALARS.issuperset(map(type, value.values())):
        return f"{{\n      {_RECORD.encode(value)[1:-1]}\n    }}"
    return _indented(value, "\n    ")


def _json_pieces(obj):
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, piece by piece.

    ``indent`` makes json use its pure-Python encoder. So a top-level list is
    encoded item by item, and a flat record in it (such as one of a report's
    ``trials``) with the C encoder, which puts a record's items on their own
    indented lines; this adds the braces and the list around them. A
    top-level iterator, such as ``StudyReport.to_dict(stream=True)``'s
    ``trials``, is read once and written as the list of its items, so they
    need never be held together. Each top-level key, item and other value is
    one piece.
    """
    if not (isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj)):
        yield json.dumps(obj, indent=2, sort_keys=True)
        return
    for i, key in enumerate(sorted(obj)):
        yield f"{',' if i else '{'}\n  {json.dumps(key)}: "
        value = obj[key]
        if isinstance(value, (list, Iterator)):
            empty = True
            for item in value:
                yield f"{'[' if empty else ','}\n    {_item(item)}"
                empty = False
            yield "[]" if empty else "\n  ]"
        else:
            yield _indented(value, "\n  ")
    yield "\n}"


def _write_json(path: Path, obj):
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte for
    byte, one ``_json_pieces`` piece at a time: the whole text is never held."""
    with open(path, "w") as fh:
        fh.writelines(_json_pieces(obj))
        fh.write("\n")


def _load(args) -> tuple:
    """(StudyConfig, JSON echo) of the config file with any overrides written in."""
    given = vars(args)  # validate and eval take no overrides
    return load_config(args.config, given.get("seed"), given.get("trials"), given.get("n_range"))


def _out_dir(args) -> Path:
    """``--out-dir``, created with its parents if missing."""
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, or no permission
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def cmd_validate(args) -> int:
    _load(args)
    print("config ok")
    return EXIT_OK


def cmd_study(args) -> int:
    sc, echo = _load(args)
    out = _out_dir(args)
    report = run_study(sc, config_echo=echo)
    write_json = args.json or not args.csv
    write_csv = args.csv or not args.json
    if write_json:
        _write_json(out / "report.json", report.to_dict(stream=True))
    if write_csv:
        _write_lines(out / "stability.csv", stability_csv_rows(report.table))
        _write_lines(out / "summary.csv", summary_csv_rows(report.summary))
        _write_lines(out / "coverage.csv", coverage_csv_rows(report.coverage))
        _write_lines(out / "pareto.csv", pareto_csv_rows(report.summary, report.pareto))
    verdicts = report.pareto.verdicts
    failed = [(n, ", ".join(binding))
              for n, binding in zip(verdicts["n"].tolist(), verdicts["binding"]) if binding]
    if report.selected_n is None:
        print("no feasible design")
        for n, names in failed:
            print(f"  N = {n}: fails {names}")
        return EXIT_NO_DESIGN
    print(f"selected N = {report.selected_n}")
    if failed:
        print("rejected: " + "; ".join(f"N = {n} fails {names}" for n, names in failed))
    return EXIT_OK


def cmd_stance(args) -> int:
    sc, _ = _load(args)
    lo, hi = sc.n_range
    n = hi if args.n is None else args.n
    if not lo <= n <= hi:
        raise ConfigError(f"--n {n} is outside n_range [{lo}, {hi}]")
    if args.trial < 0:
        raise ConfigError("--trial must be non-negative")
    if args.trial >= 2**63:  # trials are int64 in the pool streams
        raise ConfigError("--trial must be below 2**63")
    out = _out_dir(args)
    cfg, trial = sc.robot_template.with_boom_count(n), np.array([args.trial])
    shared = draw_pools(sc, trial, "anchors")
    (feasible,), _, (pool,), (idx,) = match_rounds(sc, cfg, trial, shared)
    _write_lines(out / "anchors.csv", anchors_to_csv_rows(pool, args.trial))
    if not feasible:
        print("infeasible: no complete boom-to-anchor assignment")
        return EXIT_NO_DESIGN
    st = Stance(cfg.shoulders, pool[idx], np.zeros(3))
    _write_json(out / "stance.json", st.to_dict())
    _write_lines(out / "assignment.csv", ["boom_index,anchor_index,length_m"] + [
        f"{b},{a},{st.lengths[b]:.9g}" for b, a in enumerate(idx)])
    print(f"stance with {n} booms, total length {st.lengths.sum():.6g} m")
    return EXIT_OK


def cmd_coverage(args) -> int:
    sc, _ = _load(args)
    if args.samples is not None and args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    out = _out_dir(args)
    coverage = study_coverage(sc, sc.surface_samples if args.samples is None else args.samples)
    _write_lines(out / "coverage.csv", coverage_csv_rows(coverage))
    print(f"coverage curve for N = {sc.n_range[0]}..{sc.n_range[1]} written")
    return EXIT_OK


def cmd_pareto(args) -> int:
    import csv  # only pareto reads CSV: 68 KiB a launch that every other command saves
    path = Path(args.points)
    if not path.exists():
        raise ConfigError(f"points file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        names = reader.fieldnames
        if names is None:
            raise ConfigError("points CSV has no header")
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:  # a row's dict would keep only the last column of that name
            raise ConfigError(f"points CSV header repeats column {repeated[0]!r}")
        rows = list(reader)
    if not rows:
        raise ConfigError("points CSV has no data rows")
    objectives = [(c, "min") for c in args.minimize] + [(c, "max") for c in args.maximize]
    if not objectives:
        raise ConfigError("at least one --minimize or --maximize column required")
    for col, _ in objectives:
        if col not in names:
            raise ConfigError(f"column {col!r} not in points CSV")
    for i, r in enumerate(rows, start=1):
        if None in r or None in r.values():
            raise ConfigError(f"points CSV data row {i} does not have one value per column")
    try:
        values = np.array([[float(r[c]) for c, _ in objectives] for r in rows])
    except ValueError as exc:
        raise ConfigError(f"non-numeric objective value: {exc}")
    nan_rows = np.isnan(values).any(axis=1)
    if nan_rows.any():
        raise ConfigError(f"NaN objective value in data row {nan_rows.argmax() + 1}")
    keep = pareto_front(values, [s for _, s in objectives])
    out = _out_dir(args)
    lines = [",".join(names)]
    for i in keep:
        lines.append(",".join(rows[i][c] for c in names))
    _write_lines(out / "nondominated.csv", lines)
    print(f"{len(keep)} of {len(rows)} points nondominated")
    return EXIT_OK


def cmd_eval(args) -> int:
    raw = read_json(Path(args.stance), "stance")
    try:
        if not isinstance(raw, dict):
            raise ValueError("root must be a JSON object")
        st = Stance.from_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid stance file: {exc}")
    k, delta_ref = RobotConfig.boom_stiffness, Calibration.delta_ref
    if args.config:
        sc, _ = _load(args)
        k = sc.robot_template.boom_stiffness
        delta_ref = sc.calibration.delta_ref
    # The study's kernel on a batch of one stance.
    G = grasp_map(st)
    m = {name: value.item() for name, value in stance_metrics(G[None], k, delta_ref).items()}
    res = stiffness(G, k)
    # Rank-deficient near-zero stabilities read exactly 0.
    stability = 0.0 if m["lambda_min"] <= REL_EPS * abs(m["lambda_max"]) else m["lambda_min"]
    out = _out_dir(args)
    rows = ["n_booms,stability,wrench_full,wrench_torque,manipulability",
            f"{st.boom_count},{stability:.12g},{m['wrench_full']:.12g},"
            f"{m['wrench_torque']:.12g},{m['manipulability']:.12g}"]
    _write_lines(out / "eval.csv", rows)
    _write_json(out / "eval.json", {
        "n_booms": st.boom_count,
        "K": res.K.tolist(),
        "eigenvalues": res.eigenvalues.tolist(),
        "stability": stability,
        "wrench_full": m["wrench_full"],
        "wrench_torque": m["wrench_torque"],
        "manipulability": m["manipulability"],
    })
    print("\n".join(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="reachbot",
                                description="Boom-limbed climbing robot design trade studies")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("config", help="study config JSON file")
        sp.add_argument("--seed", type=int, help="override config seed")
        sp.add_argument("--trials", type=int, help="override trial count")
        sp.add_argument("--n-range", type=int, nargs=2, metavar=("LO", "HI"),
                        help="override boom count range")
        sp.add_argument("--out-dir", default=".", help="output directory")

    sp = sub.add_parser("validate", help="check a config file")
    sp.add_argument("config")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("study", help="run the full trade study")
    add_common(sp)
    sp.add_argument("--json", action="store_true", help="write only report.json")
    sp.add_argument("--csv", action="store_true", help="write only CSV tables")
    sp.set_defaults(fn=cmd_study)

    sp = sub.add_parser("stance", help="build one stance and export it")
    add_common(sp)
    sp.add_argument("--n", type=int, help="boom count (default: top of n_range)")
    sp.add_argument("--trial", type=int, default=0, help="trial index of the study cell")
    sp.set_defaults(fn=cmd_stance)

    sp = sub.add_parser("coverage", help="coverage curve over boom counts")
    add_common(sp)
    sp.add_argument("--samples", type=int, help="surface sample count override")
    sp.set_defaults(fn=cmd_coverage)

    sp = sub.add_parser("pareto", help="nondominated filter over a CSV of points")
    sp.add_argument("points", help="CSV file with a header row")
    sp.add_argument("--minimize", action="append", default=[], metavar="COL")
    sp.add_argument("--maximize", action="append", default=[], metavar="COL")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(fn=cmd_pareto)

    sp = sub.add_parser("eval", help="evaluate all metrics for one stance file")
    sp.add_argument("stance", help="stance JSON file")
    sp.add_argument("--config", help="study config for stiffness calibration")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(fn=cmd_eval)
    return p


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
