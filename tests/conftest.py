import math

import numpy as np
import pytest

import reachbot as rb
from reachbot.mechanics import stance_metrics
from reachbot.rng import substream
from reachbot.stance import feasibility_matrix
from reachbot import terrain
from reachbot.terrain import CORRIDOR


@pytest.fixture
def corridor():
    return rb.corridor(radius=15.0, length=100.0)


@pytest.fixture
def robot8():
    return rb.make_robot(8)


@pytest.fixture
def rng():
    return substream(1234, 0, "tests")


def random_stance(rng, n, radius=15.0, body_radius=0.5):
    """A generic stance: random mounts on the body sphere, anchors in a shell."""
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    shoulders = body_radius * dirs
    # anchors roughly along each mount axis, jittered within the cone
    jitter = rng.normal(scale=0.3, size=(n, 3))
    aims = dirs + jitter
    aims /= np.linalg.norm(aims, axis=1, keepdims=True)
    dist = rng.uniform(5.0, radius, size=n)
    anchors = shoulders + dist[:, None] * aims
    return rb.Stance(shoulders, anchors, np.zeros(3))


def default_config_dict(seed=0):
    """A complete config with every default spelled out."""
    return {
        "schema_version": 1,
        "seed": seed,
        "terrain": {"kind": "corridor", "radius": 15.0, "length": 100.0},
        "robot": {
            "body_mass": 10.0, "body_radius": 0.5, "L_max": 20.0, "L_min": 0.5,
            "cone_half_angle_rad": math.pi / 4, "m_boom": 1.0, "m_gripper": 0.5,
            "m_shoulder": 0.5, "k": 100.0, "g": 3.721, "layout": "uniform",
        },
        "study": {"n_range": [1, 10], "trials": 100, "pool_multiplier": 3,
                  "surface_samples": 20000, "aggregate": "median",
                  "coverage_layout": "nested"},
        "constraints": {"tau_drill_nm": 4.0, "one_boom_out": True},
        "calibration": {"delta_ref_m": 0.1},
    }


def feasible(robot, anchor):
    """Whether a one-boom robot can reach one anchor."""
    ok, _ = feasibility_matrix(robot, np.asarray(anchor, dtype=float).reshape(1, 3))
    return bool(ok[0, 0])


def drop_boom(st, i):
    """Stance with boom i detached (one-boom-out footstep state)."""
    n = st.boom_count
    if n < 2:
        raise ValueError("cannot drop the only boom")
    if not 0 <= i < n:
        raise IndexError(f"boom index {i} out of range for {n} booms")
    keep = [j for j in range(n) if j != i]
    return rb.Stance(st.shoulders[keep], st.anchors[keep], st.body_center)


def build_stance(cfg, anchors):
    """Assign booms to anchors and materialise the stance; None if infeasible.

    The per-cell reference for the study, which keeps only anchor indices
    and builds each boom count's grasp maps in one stacked call.
    """
    match = rb.assign(cfg, anchors)
    if match is None:
        return None
    points = anchors.points if isinstance(anchors, rb.AnchorSet) else np.atleast_2d(anchors)
    return rb.Stance(cfg.shoulders, points[match.anchor_index], np.zeros(3))


def one_boom_out(st, weight):
    """Worst-drop (lambda_min, lambda_max of that same drop), by the study's kernel."""
    if st.boom_count < 2:
        raise ValueError("cannot drop the only boom")
    if not weight > 0:
        raise ValueError("stiffness weights must be positive")
    m = stance_metrics(rb.grasp_map(st)[None], weight, 1.0)
    return float(m["one_out_lambda_min"][0]), float(m["one_out_lambda_max"][0])


def surface_area(t):
    """Analytic area of the graspable surface (cylinder lateral surface only)."""
    a, b = t.dims
    if t.kind == CORRIDOR:
        return 2.0 * np.pi * a * b
    return a * b


def surface_shift(seed, trial=0):
    """The coverage lattice's shift of a seed: the first two doubles of its
    stream ``surface``, by numpy's own generator."""
    return substream(seed, trial, "surface").random(2)


def lattice_local(t, count, shift):
    """Reference: the local points, (1, count, 3), of the shifted golden
    lattice u_i = frac((i + 1/2) / count + s0) along, v_i = frac(i / phi + s1)
    across, each coordinate computed over the whole lattice at once."""
    i = np.arange(count, dtype=float)
    u = np.concatenate([(i + 0.5) / count + shift[0],
                        i * ((np.sqrt(5.0) - 1.0) / 2.0) + shift[1]])[None]
    u -= np.floor(u)
    return terrain._local_points(t, *terrain._scale_draws(t, count, u, None))


def lattice_points(t, count, shift, reach=None):
    """Reference: the whole lattice's world points as one product; with
    ``reach``, then screened to |p| <= ``reach``."""
    points = t.frame.to_world(lattice_local(t, count, shift))[0]
    return points if reach is None else points[np.linalg.norm(points, axis=1) <= reach]
