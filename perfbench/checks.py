"""Output checks that do not trust the program.

Every check reads only the report fields it needs, so fields added to the
report later are ignored. None of them pins a particular N* or copies a
number from a past run: each one recomputes a value from the workload's
config with plain numpy, or tests a property that holds by the mathematics
of the stiffness model:

* rank: with N <= 5 booms the 6xN grasp map has rank < 6;
* Weyl: K_i = K - k g_i g_i^T, so dropping a boom cannot raise lambda_min;
* Cauchy interlacing: the rotational 3x3 block's largest eigenvalue is at
  most the full matrix's;
* trace bound: lambda_max <= trace K <= k N (1 + r_body^2).

Each ``check_*`` function returns a list of problems; an empty list passes.
"""
from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np

# The program's documented rank threshold: an eigenvalue at or below
# REL_EPS * lambda_max counts as zero.
REL_EPS = 1e-9
# Slack for identities that hold exactly in real arithmetic and differ only by
# float64 rounding in a 6x6 eigen-solve.
ROUND = 1e-12
# Rebuilt cells must match the report to this relative tolerance.
REBUILD_TOL = 1e-9
# The program's determinant threshold below which manipulability is 0.
DET_EPS = 1e-12
# Coverage quadrature must agree with the Monte Carlo estimate within this
# many standard errors.
COVERAGE_SIGMAS = 5.0
# Midpoint-grid spacing (m) of the coverage quadrature over the corridor.
QUAD_STEP = 0.1
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
AGG = {"median": np.median, "mean": np.mean, "min": np.min, "max": np.max}


def _close(a: float, b: float, scale: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(scale), 1e-300)


def _buckling_moment(rb: dict) -> float:
    """Shoulder moment of a horizontal boom at full extension."""
    return (rb["m_gripper"] + 0.5 * rb["m_boom"]) * rb["g"] * rb["L_max"]


def _by_n(report: dict) -> dict[int, list[dict]]:
    rows: dict[int, list[dict]] = {}
    for c in report["trials"]:
        rows.setdefault(c["n"], []).append(c)
    for n in rows:
        rows[n].sort(key=lambda c: c["trial"])
    return rows


# --- per-cell properties -------------------------------------------------

def check_rank(report: dict, cfg: dict) -> list[str]:
    """N <= 5: lambda_min is a numerical zero and manipulability is 0."""
    bad = []
    for c in report["trials"]:
        if c["n"] <= 5 and c["feasible"]:
            if c["lambda_min"] > REL_EPS * c["lambda_max"] or c["manipulability"] != 0.0:
                bad.append(f"rank: cell (N={c['n']}, trial={c['trial']}) is not rank-deficient")
    return bad


def check_weyl(report: dict, cfg: dict) -> list[str]:
    """Dropping a boom cannot raise the smallest eigenvalue."""
    return [f"weyl: cell (N={c['n']}, trial={c['trial']}) one_out_lambda_min > lambda_min"
            for c in report["trials"]
            if c["feasible"] and c["n"] >= 2
            and c["one_out_lambda_min"] > c["lambda_min"] + ROUND * c["lambda_max"]]


def check_interlacing(report: dict, cfg: dict) -> list[str]:
    """The rotational block's top eigenvalue is at most the full one."""
    return [f"interlacing: cell (N={c['n']}, trial={c['trial']}) wrench_torque > wrench_full"
            for c in report["trials"]
            if c["wrench_torque"] > c["wrench_full"] * (1.0 + ROUND)]


def check_trace_bound(report: dict, cfg: dict) -> list[str]:
    """lambda_max <= trace K <= k N (1 + r_body^2)."""
    rb = cfg["robot"]
    return [f"trace bound: cell (N={c['n']}, trial={c['trial']}) lambda_max too large"
            for c in report["trials"]
            if c["lambda_max"] > rb["k"] * c["n"] * (1.0 + rb["body_radius"] ** 2) * (1.0 + ROUND)]


def check_wrench_full(report: dict, cfg: dict) -> list[str]:
    """wrench_full is lambda_max scaled by the calibration displacement."""
    delta = cfg["calibration"]["delta_ref_m"]
    return [f"wrench_full: cell (N={c['n']}, trial={c['trial']}) != delta_ref * lambda_max"
            for c in report["trials"]
            if not _close(c["wrench_full"], delta * c["lambda_max"], delta * c["lambda_max"], ROUND)]


# --- summary, verdicts, selection ----------------------------------------

SUMMARY_FIELDS = ("mass", "worst_stability", "mean_stability", "mean_marginal_gain",
                  "mean_manipulability", "agg_stability", "agg_lambda_max", "agg_wrench_full",
                  "agg_wrench_torque", "one_out_worst", "one_out_agg",
                  "one_out_agg_lambda_max", "infeasible_trials")


def expected_summary(report: dict, cfg: dict) -> dict[int, dict[str, float]]:
    """Summary rows recomputed from the report's trial rows and the config."""
    rb = cfg["robot"]
    agg = AGG[cfg["study"]["aggregate"]]
    per_boom = rb["m_boom"] + rb["m_gripper"] + rb["m_shoulder"]
    out, prev = {}, None
    for n, cells in sorted(_by_n(report).items()):
        col = {k: np.array([c[k] for c in cells], dtype=float)
               for k in ("lambda_min", "lambda_max", "manipulability", "wrench_full",
                         "wrench_torque", "one_out_lambda_min", "one_out_lambda_max")}
        lmin = col["lambda_min"]
        out[n] = {
            "mass": rb["body_mass"] + n * per_boom,
            "worst_stability": lmin.min(),
            "mean_stability": lmin.mean(),
            "mean_marginal_gain": 0.0 if prev is None else (lmin - prev).mean(),
            "mean_manipulability": col["manipulability"].mean(),
            "agg_stability": agg(lmin),
            "agg_lambda_max": agg(col["lambda_max"]),
            "agg_wrench_full": agg(col["wrench_full"]),
            "agg_wrench_torque": agg(col["wrench_torque"]),
            "one_out_worst": col["one_out_lambda_min"].min(),
            "one_out_agg": agg(col["one_out_lambda_min"]),
            "one_out_agg_lambda_max": agg(col["one_out_lambda_max"]),
            "infeasible_trials": sum(not c["feasible"] for c in cells),
        }
        prev = lmin
    return out


def check_summary(report: dict, cfg: dict) -> list[str]:
    """Summary rows agree with plain-numpy reductions of the trial rows."""
    expected = expected_summary(report, cfg)
    rows = {r["n"]: r for r in report["summary"]}
    if sorted(rows) != sorted(expected):
        return [f"summary: boom counts {sorted(rows)} != trial boom counts {sorted(expected)}"]
    lam_scale = max(abs(c["lambda_max"]) for c in report["trials"]) or 1.0
    bad = []
    for n, exp in expected.items():
        for k in SUMMARY_FIELDS:
            scale = max(abs(exp[k]), lam_scale if k != "mass" else 0.0)
            if not _close(rows[n][k], exp[k], scale, REBUILD_TOL):
                bad.append(f"summary: N={n} {k} = {rows[n][k]!r}, recomputed {exp[k]!r}")
    return bad


def expected_verdicts(report: dict, cfg: dict) -> dict[int, tuple[str, ...]]:
    """Binding constraints per N, recomputed from the constraints block."""
    cs, rb = cfg["constraints"], cfg["robot"]
    buckling_ok = cs.get("M_CR_nm") is None or cs["M_CR_nm"] > _buckling_moment(rb)
    out = {}
    for r in report["summary"]:
        ok = {
            "stability": r["agg_stability"] > REL_EPS * abs(r["agg_lambda_max"]),
            "torque": r["agg_wrench_torque"] >= cs["tau_drill_nm"],
            "one_boom_out": (not cs["one_boom_out"]
                             or r["one_out_agg"] > REL_EPS * abs(r["one_out_agg_lambda_max"])),
            "buckling": buckling_ok,
        }
        out[r["n"]] = tuple(name for name, passed in ok.items() if not passed)
    return out


def check_selection(report: dict, cfg: dict) -> list[str]:
    """Verdicts, buckling, Pareto front and N* follow from the constraints."""
    bad = []
    cs, rb = cfg["constraints"], cfg["robot"]
    if cs.get("M_CR_nm") is not None:
        m_shoulder = _buckling_moment(rb)
        b = report["buckling"]
        if (b is None or not _close(b["m_shoulder"], m_shoulder, m_shoulder, ROUND)
                or b["satisfied"] != (cs["M_CR_nm"] > m_shoulder)):
            bad.append("buckling: report disagrees with M = (m_gripper + m_boom/2) g L_max")
    binding = expected_verdicts(report, cfg)
    for v in report["verdicts"]:
        if tuple(v["binding"]) != binding.get(v["n"]) or v["feasible"] != (not binding.get(v["n"])):
            bad.append(f"verdict: N={v['n']} binding {v['binding']} != recomputed {binding.get(v['n'])}")
    feasible = sorted(n for n, b in binding.items() if not b)
    if list(report["feasible_n"]) != feasible:
        bad.append(f"feasible_n {report['feasible_n']} != recomputed {feasible}")
    rows = {r["n"]: r for r in report["summary"]}
    lightest = min(feasible, key=lambda n: (rows[n]["mass"], n), default=None)
    if report["selected_n"] != lightest:
        bad.append(f"selected_n {report['selected_n']} is not the lightest feasible N ({lightest})")
    points = np.array([[rows[n]["mass"], -rows[n]["agg_wrench_torque"]] for n in sorted(rows)])
    le = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    lt = np.any(points[:, None, :] < points[None, :, :], axis=2)
    dominated = (le & lt).any(axis=0)
    front = [n for n, d in zip(sorted(rows), dominated) if not d]
    if list(report["nondominated_n"]) != front:
        bad.append(f"nondominated_n {report['nondominated_n']} != recomputed {front}")
    return bad


# --- coverage -------------------------------------------------------------

def lattice(n: int) -> np.ndarray:
    """n golden-angle unit vectors from pole +z to pole -z (README's layout)."""
    if n == 1:
        return np.array([[0.0, 0.0, 1.0]])
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * i / (n - 1)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([r * np.cos(i * GOLDEN_ANGLE), r * np.sin(i * GOLDEN_ANGLE), z])


def reach(shoulder: np.ndarray, axis: np.ndarray, pts: np.ndarray, rb: dict) -> np.ndarray:
    """Whether each point lies in the boom's length band and cone."""
    d = pts - shoulder
    length = np.sqrt((d * d).sum(axis=1))
    return ((length >= rb["L_min"]) & (length <= rb["L_max"])
            & (d @ axis >= math.cos(rb["cone_half_angle_rad"]) * length))


def corridor_coverage(cfg: dict, ns: list[int]) -> dict[int, float]:
    """Covered fraction of the corridor wall by midpoint quadrature.

    Mounts sit on the body sphere with radial axes, taken as the first N of
    one lattice of size n_max ("nested") or a fresh lattice of size N.
    Only the band |x| <= L_max + r_body can be reached, so the grid covers
    that band and the rest of the wall counts as uncovered.
    """
    rb, tr = cfg["robot"], cfg["terrain"]
    radius, length = tr["radius"], tr["length"]
    half = min(rb["L_max"] + rb["body_radius"], length / 2.0)
    nx = max(1, math.ceil(2 * half / QUAD_STEP))
    nt = max(1, math.ceil(2 * math.pi * radius / QUAD_STEP))
    x = (np.arange(nx) + 0.5) * (2 * half / nx) - half
    theta = (np.arange(nt) + 0.5) * (2 * math.pi / nt)
    X, T = np.meshgrid(x, theta, indexing="ij")
    pts = np.column_stack([X.ravel(), radius * np.cos(T.ravel()), radius * np.sin(T.ravel())])
    band_share = (2 * half) / length
    nested = cfg["study"]["coverage_layout"] == "nested"
    n_max = cfg["study"]["n_range"][1]
    out = {}
    for n in ns:
        axes = lattice(n_max)[:n] if nested else lattice(n)
        covered = np.zeros(len(pts), dtype=bool)
        for a in axes:
            covered |= reach(rb["body_radius"] * a, a, pts, rb)
        out[n] = covered.mean() * band_share
    return out


def check_coverage(report: dict, cfg: dict) -> list[str]:
    """Histograms, marginals, nesting, and agreement with quadrature."""
    bad = []
    st = cfg["study"]
    tr = cfg["terrain"]
    if st["coverage_layout"] not in ("nested", "uniform") or tr["kind"] != "corridor" or "frame" in tr:
        return ["coverage: only corridor terrain with nested or uniform layout is checked"]
    if cfg["robot"]["layout"] != "uniform":
        return ["coverage: only the uniform robot layout is checked"]
    cov = {c["boom_count"]: c for c in report["coverage"]}
    lo, hi = st["n_range"]
    if sorted(cov) != list(range(lo, hi + 1)):
        return [f"coverage: boom counts {sorted(cov)} != n_range {lo}..{hi}"]
    prev = -1.0
    for n in range(lo, hi + 1):
        c = cov[n]
        if sum(c["count_histogram"]) != c["sample_count"] or c["sample_count"] != st["surface_samples"]:
            bad.append(f"coverage: N={n} histogram does not sum to the sample count")
        if abs(sum(c["per_boom_marginal"]) - c["unique_pct"]) > ROUND:
            bad.append(f"coverage: N={n} marginals do not sum to unique_pct")
        if st["coverage_layout"] == "nested" and c["unique_pct"] < prev:
            bad.append(f"coverage: nested unique_pct decreases at N={n}")
        prev = c["unique_pct"]
    probe = sorted({lo, (lo + hi) // 2, hi})
    for n, p in corridor_coverage(cfg, probe).items():
        s = cov[n]["sample_count"]
        sigma = math.sqrt(max(p * (1.0 - p), 1.0 / s) / s)
        if abs(cov[n]["unique_pct"] - p) > COVERAGE_SIGMAS * sigma:
            bad.append(f"coverage: N={n} unique_pct {cov[n]['unique_pct']:.6f} vs quadrature "
                       f"{p:.6f} (sigma {sigma:.2e})")
    return bad


# --- rebuilt cells ----------------------------------------------------------

def exact_matching(ok: np.ndarray, cost: np.ndarray) -> list[int] | None:
    """Minimum-cost matching of every row (boom) to a distinct column (anchor).

    Dynamic programme over anchors with the set of matched booms as a
    bitmask: exact, and independent of any assignment solver. Returns the
    anchor of each boom, or None when no complete matching exists.
    """
    n, m = ok.shape
    full = (1 << n) - 1
    masks = np.arange(1 << n)
    free = [masks[(masks >> i) & 1 == 0] for i in range(n)]  # masks without boom i
    layers = [np.full(1 << n, np.inf)]
    layers[0][0] = 0.0
    for j in range(m):
        prev = layers[-1]
        cur = prev.copy()
        for i in np.flatnonzero(ok[:, j]):
            dst = free[i] | (1 << i)
            cur[dst] = np.minimum(cur[dst], prev[free[i]] + cost[i, j])
        layers.append(cur)
    if not np.isfinite(layers[-1][full]):
        return None
    anchor_of = [-1] * n
    mask = full
    for j in range(m - 1, -1, -1):
        here = layers[j + 1][mask]
        if here == layers[j][mask]:
            continue
        for i in range(n):
            if mask >> i & 1 and ok[i, j] and layers[j][mask ^ (1 << i)] + cost[i, j] == here:
                anchor_of[i] = j
                mask ^= 1 << i
                break
    return anchor_of


def cell_metrics(shoulders: np.ndarray, anchors: np.ndarray, k: float) -> dict[str, float]:
    """Eigen-metrics of one stance from its grasp map, with plain numpy."""
    d = anchors - shoulders
    u = d / np.linalg.norm(d, axis=1)[:, None]
    G = np.vstack([u.T, np.cross(shoulders, u).T])  # body centre at the origin
    K = k * G @ G.T
    lam = np.linalg.eigvalsh(K)
    det = np.linalg.det(G @ G.T)
    drops = []
    for i in range(len(u)):
        Ki = K - k * np.outer(G[:, i], G[:, i])
        li = np.linalg.eigvalsh(Ki)
        drops.append((li[0], li[-1]))
    drops.sort()
    return {"lambda_min": lam[0], "lambda_max": lam[-1],
            "torque_max": np.linalg.eigvalsh(K[3:, 3:])[-1],
            "manipulability": 0.0 if det < DET_EPS else math.sqrt(det),
            "drops": drops}


def pool_hash(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points, dtype=float).tobytes()).hexdigest()[:16]


def pick_cells(report: dict) -> list[dict]:
    """A few cells to rebuild: the most-resampled, the largest N, a middle one."""
    cells = report["trials"]
    ns = sorted({c["n"] for c in cells})
    top = [c for c in cells if c["n"] == ns[-1]]
    mid = [c for c in cells if c["n"] == ns[len(ns) // 2]]
    chosen = [max(cells, key=lambda c: (c["resamples"], -c["n"], -c["trial"])), top[0], mid[-1]]
    return list({(c["n"], c["trial"]): c for c in chosen}.values())


def check_rebuilt_cells(report: dict, cfg: dict, draw_pool) -> list[str]:
    """Rebuild a few cells from their anchor pools and compare every metric.

    ``draw_pool(trial, tag)`` returns the pool the program's sampler gives
    for a stream tag; the report's pool_hash confirms it is the pool used.
    """
    rb = cfg["robot"]
    if rb["layout"] != "uniform":
        return ["rebuild: only the uniform robot layout is checked"]
    k, delta = rb["k"], cfg["calibration"]["delta_ref_m"]
    bad = []
    for c in pick_cells(report):
        n, t, r = c["n"], c["trial"], c["resamples"]
        axes = lattice(n)
        shoulders = rb["body_radius"] * axes
        tags = ["anchors"] + [f"resample:{n}:{i}" for i in range(1, r + 1)]
        pools = [draw_pool(t, tag) for tag in tags]
        matches = []
        for pool in pools:
            d = pool[None, :, :] - shoulders[:, None, :]
            L = np.sqrt((d * d).sum(axis=2))
            ok = ((L >= rb["L_min"]) & (L <= rb["L_max"])
                  & (np.einsum("nmk,nk->nm", d, axes)
                     >= math.cos(rb["cone_half_angle_rad"]) * L))
            matches.append(exact_matching(ok, L))
        where = f"rebuild: cell (N={n}, trial={t})"
        if any(m is not None for m in matches[:-1]):
            bad.append(f"{where} resampled although an earlier pool had a complete matching")
        if not c["feasible"]:
            if matches[-1] is not None or pool_hash(pools[0]) != c["pool_hash"]:
                bad.append(f"{where} reported infeasible but its pools disagree")
            continue
        if pool_hash(pools[-1]) != c["pool_hash"]:
            bad.append(f"{where} pool_hash does not match the program's sampler")
            continue
        if matches[-1] is None:
            bad.append(f"{where} has no complete matching in its pool")
            continue
        got = cell_metrics(shoulders, pools[-1][matches[-1]], k)
        lam_max = got["lambda_max"]
        want = {"lambda_min": (got["lambda_min"], lam_max),
                "lambda_max": (lam_max, lam_max),
                "wrench_full": (delta * lam_max, delta * lam_max),
                "wrench_torque": (delta * got["torque_max"], delta * got["torque_max"]),
                # A determinant's rounding error grows with the condition number.
                "manipulability": (got["manipulability"], got["manipulability"]
                                   * max(1.0, lam_max / max(got["lambda_min"], 1e-300)))}
        if n >= 2:
            drops = got["drops"]
            want["one_out_lambda_min"] = (drops[0][0], lam_max)
            # The worst drop is only well defined when it is separated from
            # the next one and is not a numerical zero.
            if drops[0][0] > REL_EPS * lam_max and (
                    len(drops) == 1 or drops[1][0] - drops[0][0] > REBUILD_TOL * lam_max):
                want["one_out_lambda_max"] = (drops[0][1], drops[0][1])
        for key, (value, scale) in want.items():
            if not _close(c[key], value, scale, REBUILD_TOL):
                bad.append(f"{where} {key} = {c[key]!r}, rebuilt {value!r}")
    return bad


# --- CLI outputs --------------------------------------------------------------

def _csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_cli(report: dict, exit_code: int, stdout: str, out_dir: Path) -> list[str]:
    """Exit code, stdout and the CSV files agree with report.json."""
    bad = []
    sel = report["selected_n"]
    if exit_code != (0 if sel is not None else 2):
        bad.append(f"cli: exit code {exit_code} with selected_n {sel}")
    first = stdout.splitlines()[0] if stdout.strip() else ""
    if first != (f"selected N = {sel}" if sel is not None else "no feasible design"):
        bad.append(f"cli: first stdout line {first!r} disagrees with selected_n {sel}")
    printed = {int(n): tuple(b.split(", ")) for n, b in
               re.findall(r"N = (\d+):? fails ([a-z_]+(?:, [a-z_]+)*)", stdout)}
    failing = {v["n"]: tuple(v["binding"]) for v in report["verdicts"] if not v["feasible"]}
    if printed != failing:
        bad.append(f"cli: printed failures {printed} != report verdicts {failing}")

    def compare(name, rows, key, fields, tol):
        if len(rows) != len(key):
            bad.append(f"{name}: {len(rows)} rows, report has {len(key)}")
            return
        for row, want in zip(rows, key):
            for col, value in fields(want).items():
                if not _close(float(row[col]), float(value), float(value), tol):
                    bad.append(f"{name}: column {col} = {row[col]} disagrees with report {value!r}")
                    return

    cells = report["trials"]
    compare("stability.csv", _csv(out_dir / "stability.csv"), cells,
            lambda c: {"N": c["n"], "trial": c["trial"], "lambda_min": c["lambda_min"]}, 1e-11)
    compare("summary.csv", _csv(out_dir / "summary.csv"), report["summary"],
            lambda r: {"N": r["n"], "mass_kg": r["mass"], "worst_stability": r["worst_stability"],
                       "mean_stability": r["mean_stability"],
                       "mean_marginal_gain": r["mean_marginal_gain"],
                       "mean_manipulability": r["mean_manipulability"],
                       "wrench_full": r["agg_wrench_full"],
                       "wrench_torque_nm": r["agg_wrench_torque"],
                       "one_out_worst": r["one_out_worst"], "one_out_agg": r["one_out_agg"],
                       "infeasible_trials": r["infeasible_trials"]}, 1e-11)
    cov_rows = _csv(out_dir / "coverage.csv")
    if len(cov_rows) != len(report["coverage"]):
        bad.append("coverage.csv: row count disagrees with report")
    for row, c in zip(cov_rows, report["coverage"]):
        want = {"N": c["boom_count"], "unique_pct": c["unique_pct"],
                "overlap_pct": c["overlap_pct"],
                "marginal_pct": c["per_boom_marginal"][-1] if c["per_boom_marginal"] else 0.0}
        if any(abs(float(row[k]) - v) > 6e-7 for k, v in want.items()):
            bad.append(f"coverage.csv: row N={row['N']} disagrees with report")
    feas, front = set(report["feasible_n"]), set(report["nondominated_n"])
    compare("pareto.csv", _csv(out_dir / "pareto.csv"), report["candidates"],
            lambda p: {"N": p["n"], "mass_kg": p["mass"],
                       "torque_capability_nm": p["torque_capability"],
                       "feasible": int(p["n"] in feas), "nondominated": int(p["n"] in front),
                       "selected": int(p["n"] == sel)}, 1e-11)
    return bad


REPORT_CHECKS = (check_rank, check_weyl, check_interlacing, check_trace_bound,
                 check_wrench_full, check_summary, check_selection, check_coverage)


def check_report(report: dict, cfg: dict, draw_pool) -> list[str]:
    """Every report-level check, including the rebuilt cells."""
    bad = []
    for check in REPORT_CHECKS:
        bad += check(report, cfg)
    return bad + check_rebuilt_cells(report, cfg, draw_pool)
