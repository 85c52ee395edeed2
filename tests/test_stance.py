import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachbot as rb
from reachbot import stance
from reachbot.rng import substream, substream_uniforms
from reachbot.stance import _match_costs, feasibility_matrix, match_pools
from reachbot.terrain import sample_pools
from conftest import build_stance, drop_boom, feasible


def min_cost_matching(ok, L):
    """Minimum total cost of giving every row a distinct feasible column.

    Exhaustive bitmask dynamic programme over column subsets (Held-Karp
    style): rows are matched in order, and best[mask] is the cheapest way
    to match the first popcount(mask) rows to exactly the columns in mask.
    Independent of the matcher in ``stance``; None when no complete matching
    exists.
    """
    n, m = ok.shape
    best = {0: 0.0}
    for i in range(n):
        step = {}
        for mask, cost in best.items():
            for j in range(m):
                if ok[i, j] and not mask >> j & 1:
                    total = cost + L[i, j]
                    if total < step.get(mask | 1 << j, np.inf):
                        step[mask | 1 << j] = total
        best = step
    return min(best.values()) if best else None


def subset_dp_assign(robot, points):
    """Exact minimum-total-length boom matching (oracle; small M only)."""
    return min_cost_matching(*feasibility_matrix(robot, points))


def permutation_matching(ok, L):
    """Reference for min_cost_matching: every injective row-to-column map."""
    ranked = ranked_permutations(ok, L)
    return ranked[0][0] if ranked else None


def ranked_permutations(ok, L):
    """Every feasible injective row-to-column map as (cost, columns), cheapest first."""
    n, m = ok.shape
    return sorted((sum(L[i, j] for i, j in enumerate(perm)), perm)
                  for perm in itertools.permutations(range(m), n)
                  if all(ok[i, j] for i, j in enumerate(perm)))


def x_mount(body_radius=0.5):
    return rb.MountSpec(position=np.array([body_radius, 0, 0]),
                        axis=np.array([1.0, 0, 0]))


def x_robot():
    """A one-boom robot whose boom points along +x."""
    return rb.make_robot(1, mounts=[x_mount()])


class TestFeasible:
    def test_on_axis_within_reach(self):
        assert feasible(x_robot(), np.array([10.5, 0, 0]))

    def test_beyond_max_length(self):
        assert not feasible(x_robot(), np.array([25.5, 0, 0]))

    def test_inside_min_length(self):
        assert not feasible(x_robot(), np.array([0.6, 0, 0]))

    def test_outside_cone(self):
        # 60 degrees off axis with a 45 degree cone
        a = np.array([0.5, 0, 0]) + 10.0 * np.array([math.cos(math.radians(60)),
                                                     math.sin(math.radians(60)), 0])
        assert not feasible(x_robot(), a)

    def test_just_inside_cone(self):
        a = np.array([0.5, 0, 0]) + 10.0 * np.array([math.cos(math.radians(40)),
                                                     math.sin(math.radians(40)), 0])
        assert feasible(x_robot(), a)

    def test_matrix_shape(self, robot8):
        pts = np.tile([10.0, 0, 0], (5, 1))
        ok, L = feasibility_matrix(robot8, pts)
        assert ok.shape == (8, 5) and L.shape == (8, 5)


def coordinate_feasibility(robot, points):
    """The feasibility kernel's reference, written out one coordinate at a time.

    The cone's dot product is (x a0 + z a2) + y a1, and the squared length
    sums the squares in coordinate order. Every step is one elementwise
    IEEE operation, so the result does not depend on the numpy build.
    """
    shoulders, axes = robot.shoulders, robot.axes
    pts = np.atleast_2d(np.asarray(points, dtype=float))[..., None, :, :]
    x, y, z = (pts[..., k] - shoulders[:, k, None] for k in range(3))
    a0, a1, a2 = (axes[:, k, None] for k in range(3))
    dot = (x * a0 + z * a2) + y * a1
    L = np.sqrt((x * x + y * y) + z * z)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_ang = dot / L
    ok = (L >= robot.L_min) & (L <= robot.L_max) & (cos_ang >= math.cos(robot.cone_half_angle))
    return ok, L


def stacked_feasibility(robot, points):
    """The feasibility test as a stacked (..., N, M, 3) norm/einsum formula: (ok, L, cos)."""
    shoulders, axes = robot.shoulders, robot.axes
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts[..., None, :, :] - shoulders[:, None, :]
    L = np.linalg.norm(d, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_ang = np.einsum("...nmk,nk->...nm", d, axes) / np.where(L > 0, L, np.inf)
    ok = (L >= robot.L_min) & (L <= robot.L_max) & (cos_ang >= math.cos(robot.cone_half_angle))
    return ok, L, cos_ang


def random_case(seed, n, layout, shape):
    """A random robot and points of ``shape`` (3 appended), with edge cases planted.

    A point at a shoulder (L = 0), points on the L_min and L_max boundaries
    along a cone axis, and a point on a cone's rim.
    """
    rng = np.random.default_rng(seed)
    robot = rb.make_robot(n, layout, body_radius=rng.uniform(0.3, 1.0),
                          cone_half_angle=rng.uniform(0.2, 1.4), L_max=rng.uniform(5.0, 25.0))
    shoulders, axes = robot.shoulders, robot.axes
    points = rng.uniform(-30, 30, (*shape, 3))
    flat = points.reshape(-1, 3)
    i = rng.integers(n, size=4)
    rim = np.cross(axes[i[3]], rng.normal(size=3))
    rim /= np.linalg.norm(rim)
    h = robot.cone_half_angle
    flat[rng.choice(len(flat), 4, replace=False)] = [
        shoulders[i[0]], shoulders[i[1]] + robot.L_min * axes[i[1]],
        shoulders[i[2]] + robot.L_max * axes[i[2]],
        shoulders[i[3]] + robot.L_max / 2 * (math.cos(h) * axes[i[3]] + math.sin(h) * rim)]
    return robot, points


CASES = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
             layout=st.sampled_from(["uniform", "mission"]),
             shape=st.sampled_from([(40,), (3, 20), (2, 3, 10)]))


class TestKernelBitEquality:
    """``feasibility_matrix`` against a coordinate reference byte for byte.

    The stacked norm/einsum formula pairs the dot product's and the squared
    length's terms as the numpy build chooses, so it is compared only to a
    tolerance, and its ``ok`` only away from the length and cone boundaries.
    """

    @settings(max_examples=120, deadline=None)
    @given(**CASES)
    def test_matches_coordinate_reference(self, seed, n, layout, shape):
        robot, points = random_case(seed, n, layout, shape)
        ok, L = feasibility_matrix(robot, points)
        ref_ok, ref_L = coordinate_feasibility(robot, points)
        assert ok.shape == ref_ok.shape == (*shape[:-1], n, shape[-1])
        assert ok.dtype == ref_ok.dtype and L.dtype == ref_L.dtype
        assert ok.tobytes() == ref_ok.tobytes()
        assert L.tobytes() == ref_L.tobytes()
        assert (L == 0).any()

    @settings(max_examples=120, deadline=None)
    @given(**CASES)
    def test_matches_stacked_formula(self, seed, n, layout, shape):
        robot, points = random_case(seed, n, layout, shape)
        ok, L = feasibility_matrix(robot, points)
        ref_ok, ref_L, cos_ang = stacked_feasibility(robot, points)
        assert ok.shape == ref_ok.shape == (*shape[:-1], n, shape[-1])
        np.testing.assert_allclose(L, ref_L, rtol=1e-14, atol=0)
        edge = (np.isclose(ref_L, robot.L_min, rtol=1e-12, atol=0)
                | np.isclose(ref_L, robot.L_max, rtol=1e-12, atol=0)
                | np.isclose(cos_ang, math.cos(robot.cone_half_angle), rtol=1e-12, atol=0))
        assert edge.sum() >= 3 and np.array_equal(ok[~edge], ref_ok[~edge])

    def test_point_at_a_shoulder_is_rejected(self, robot8):
        ok, L = feasibility_matrix(robot8, robot8.shoulders)
        assert np.all(np.diag(L) == 0) and not np.diag(ok).any()


class TestAssign:
    def test_single_boom(self):
        points = np.array([[10.0, 0, 0], [12.0, 0, 0]])
        res = rb.assign(x_robot(), points)
        assert res.anchor_index.tolist() == [0]
        assert res.total_length == pytest.approx(9.5)

    def test_identity_pairing(self):
        # two opposed mounts, each with exactly one anchor in its own cone
        mounts = [x_mount(),
                  rb.MountSpec(position=np.array([-0.5, 0, 0]), axis=np.array([-1.0, 0, 0]))]
        points = np.array([[10.0, 0, 0], [-10.0, 0, 0]])
        res = rb.assign(rb.make_robot(2, mounts=mounts), points)
        assert res.anchor_index.tolist() == [0, 1]
        assert res.total_length == pytest.approx(19.0)

    def test_prefers_shorter_total(self):
        points = np.array([[14.0, 0, 0], [6.0, 0, 0]])
        res = rb.assign(x_robot(), points)
        assert res.anchor_index.tolist() == [1]

    def test_none_when_no_feasible_anchor(self):
        points = np.array([[30.0, 0, 0], [-10.0, 0, 0]])
        assert rb.assign(x_robot(), points) is None

    def test_pool_smaller_than_booms(self, robot8):
        with pytest.raises(ValueError, match="anchor pool"):
            rb.assign(robot8, np.array([[10.0, 0, 0]]))

    def test_distinct_anchors(self, corridor, robot8):
        aset = rb.sample_anchors(corridor, 24, 40.0, substream(42, 0, "anchors"))
        res = rb.assign(robot8, aset)
        if res is not None:
            assert len(set(res.anchor_index.tolist())) == 8

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_brute_force(self, corridor, trial):
        cfg = rb.make_robot(5)
        aset = rb.sample_anchors(corridor, 9, 40.0, substream(7, trial, "anchors"))
        res = rb.assign(cfg, aset)
        oracle = subset_dp_assign(cfg, aset.points)
        if oracle is None:
            assert res is None
        else:
            assert res is not None
            assert res.total_length == pytest.approx(oracle, rel=1e-12)

    def test_subset_dp_matches_permutations(self):
        rng = substream(5, 0, "matching")
        for _ in range(300):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 7))
            ok = rng.uniform(size=(n, m)) < rng.uniform(0.2, 1.0)
            L = rng.uniform(0.5, 20.0, size=(n, m))
            assert min_cost_matching(ok, L) == permutation_matching(ok, L)

    def test_never_beats_by_greedy(self, corridor, robot8):
        # exact matching total never exceeds the greedy nearest-anchor total
        for trial in range(8):
            aset = rb.sample_anchors(corridor, 24, 40.0, substream(3, trial, "anchors"))
            res = rb.assign(robot8, aset)
            if res is None:
                continue
            ok, L = feasibility_matrix(robot8, aset.points)
            taken = set()
            greedy = 0.0
            complete = True
            for i in range(8):
                cand = [(L[i, j], j) for j in range(24) if ok[i, j] and j not in taken]
                if not cand:
                    complete = False
                    break
                d, j = min(cand)
                taken.add(j)
                greedy += d
            if complete:
                assert res.total_length <= greedy + 1e-9

    def test_anchor_permutation_invariant_total(self, corridor, robot8):
        aset = rb.sample_anchors(corridor, 24, 40.0, substream(8, 1, "anchors"))
        res = rb.assign(robot8, aset)
        perm = substream(8, 1, "perm").permutation(24)
        res2 = rb.assign(robot8, aset.points[perm])
        assert (res is None) == (res2 is None)
        if res is not None:
            assert res.total_length == pytest.approx(res2.total_length, rel=1e-12)

    def test_deterministic(self, corridor, robot8):
        # Trials 0-4 of this stream have no complete assignment; trial 5 has one.
        for trial in range(6):
            aset = rb.sample_anchors(corridor, 24, 40.0, substream(9, trial, "anchors"))
            a = rb.assign(robot8, aset)
            b = rb.assign(robot8, aset)
            assert (a is None) == (b is None) == (trial < 5)
            if a is not None:
                assert np.array_equal(a.anchor_index, b.anchor_index)
                assert a.total_length == b.total_length


class TestMatchPools:
    def test_matches_subset_dp(self, corridor):
        # Random pools for N = 1..8 in a narrow window, plus a pool where two
        # booms reach only the same anchor: it passes the screen, yet holds
        # no complete matching.
        twin = [x_mount(), rb.MountSpec(position=0.5 * np.array([math.cos(0.2), math.sin(0.2), 0]),
                                        axis=np.array([1.0, 0, 0]))]
        cases = [(rb.make_robot(2, mounts=twin),
                  np.array([[[10.0, 0, 0], [-30.0, 0, 0], [0, 40.0, 0]]]))]
        for n in range(1, 9):
            u = substream_uniforms(11, range(24), f"match:{n}", 2 * (n + 3))
            cases.append((rb.make_robot(n), sample_pools(corridor, n + 3, 12.0, u)))
        kinds = {"rejected": 0, "screened_unmatched": 0, "matched": 0}
        for robot, pools in cases:
            n = robot.boom_count
            rows, total, reach, shortcut = match_pools(robot, pools)
            assert rows.shape == reach.shape == (len(pools), n)
            assert len(total) == len(shortcut) == len(pools)
            assert np.array_equal(reach, feasibility_matrix(robot, pools)[0].any(axis=2))
            screen = reach.all(axis=1)
            assert not (shortcut & ~screen).any()
            for idx, length, passed, points in zip(rows, total, screen, pools):
                oracle = subset_dp_assign(robot, points)
                if not passed:
                    assert oracle is None  # the screen drops only unmatchable pools
                    assert length == np.inf and not idx.any()
                    kinds["rejected"] += 1
                elif oracle is None:
                    assert length == np.inf and not idx.any()
                    kinds["screened_unmatched"] += 1
                else:
                    ok, L = feasibility_matrix(robot, points)
                    booms = np.arange(n)
                    assert len(set(idx.tolist())) == n
                    assert ok[booms, idx].all()
                    assert length == pytest.approx(oracle, rel=1e-12)
                    kinds["matched"] += 1
        assert min(kinds.values()) > 0, kinds

    @pytest.mark.parametrize("group", [2, 3, 8])
    def test_group_keeps_its_first_complete_pool(self, corridor, group):
        # 48 pools of 6 booms: each group reports only its first complete
        # pool, exactly as matched alone, and inf with rows 0 elsewhere.
        robot = rb.make_robot(6)
        pools = sample_pools(corridor, 18, 40.0, substream_uniforms(3, range(48), "group", 36))
        alone = match_pools(robot, pools)
        rows, total, reach, shortcut = match_pools(robot, pools, group)
        assert np.array_equal(reach, alone[2]) and np.array_equal(shortcut, alone[3])
        complete = (alone[1] < np.inf).reshape(-1, group)
        kept = np.zeros_like(complete)
        kept[complete.any(axis=1), complete.argmax(axis=1)[complete.any(axis=1)]] = True
        assert 0 < kept.sum() < complete.sum()  # some groups hold two complete pools
        kept = kept.ravel()
        assert total[kept].tobytes() == alone[1][kept].tobytes()
        assert rows[kept].tobytes() == alone[0][kept].tobytes()
        assert np.all(total[~kept] == np.inf) and not rows[~kept].any()

    @pytest.mark.parametrize("group", [1, 3])
    def test_slices_equal_one_slice(self, corridor, monkeypatch, group):
        # 48 pools of 6 booms, reordered so that with 4 pools a slice, slice
        # 0 holds no screened pool and slice 1 only screened ones; groups of
        # 3 then cross slice edges. Every output equals the one-slice call's.
        robot = rb.make_robot(6)
        drawn = sample_pools(corridor, 18, 40.0, substream_uniforms(3, range(48), "group", 36))
        passed = match_pools(robot, drawn)[2].all(axis=1)
        order = np.concatenate([np.flatnonzero(~passed)[:4], np.flatnonzero(passed)[:4]])
        pools = drawn[np.concatenate([order, np.setdiff1d(np.arange(48), order)])]
        assert stance.match_slice(6, 18) >= len(pools)
        whole = match_pools(robot, pools, group)
        monkeypatch.setattr(stance, "PASS_PAIRS", 4 * 4 * 6 * 18)
        assert stance.match_slice(6, 18) == 4
        screen = whole[2].all(axis=1).reshape(-1, 4)
        assert not screen[0].any() and screen[1].all() and screen[2:].any()
        if group > 1:
            complete = (match_pools(robot, pools)[1] < np.inf).reshape(-1, group)
            assert (complete.sum(axis=1) > 1).any()  # some group holds two complete pools
        for got, want in zip(match_pools(robot, pools, group), whole):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sliced", [False, True])
    @pytest.mark.parametrize("group", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 10])
    def test_lead_boom_changes_no_output(self, corridor, monkeypatch, n, group, sliced):
        # Each boom k as the lead, on passes where it rejects some, none or
        # all of the pools: every output equals the call without a lead,
        # except that ``reach``, which reads which booms reach an anchor,
        # reads False throughout a pool the lead rejects. Sliced, a slice
        # holds 4 pools and a lead call 4 n, so the lead's row and the full
        # matrices span several.
        robot, m = rb.make_robot(n), 2 * n + 2
        drawn = sample_pools(corridor, m, 40.0, substream_uniforms(5, range(120), "lead", 2 * m))
        reaches = feasibility_matrix(robot, drawn)[0].any(axis=2)
        if sliced:
            monkeypatch.setattr(stance, "PASS_PAIRS", 4 * 4 * n * m)
            assert stance.match_slice(n, m) == 4
        matched = 0
        for k in range(n):
            hit = reaches[:, k]
            for pools, want_reach in ((drawn, reaches), (drawn[hit], reaches[hit]),
                                      (drawn[~hit], reaches[~hit])):
                count = len(pools) - len(pools) % group
                pools, want_reach = pools[:count], want_reach[:count].copy()
                assert count
                want = match_pools(robot, pools, group)
                assert np.array_equal(want[2], want_reach)
                want_reach[~want_reach[:, k]] = False
                got = match_pools(robot, pools, group, k)
                for a, b in zip(got, (*want[:2], want_reach, want[3])):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                matched += (want[1] < np.inf).sum()
        assert matched

    def test_full_pass_memory(self):
        # One matching pass of the shipped study at N = 10 (pool_chunk pools
        # of 30 anchors): a quarter-budget feasibility workspace and the
        # screened pools' costs, 8 bytes a pair. A workspace for the whole
        # pass plus copies of the screened lengths would take 1.375 MB.
        from reachbot.config import load_config
        from reachbot.study import draw_pools, pool_chunk
        sc, _ = load_config(Path(__file__).resolve().parents[1] / "configs" / "mars_lava_tube.json")
        robot, size = sc.robot_template.with_boom_count(10), pool_chunk(sc)
        pools = draw_pools(sc, np.arange(size), "anchors")
        want = match_pools(robot, pools)  # warm-up, and the reference
        assert size == 109 and 0 < want[2].all(axis=1).sum() < size
        tracemalloc.start()
        try:
            got = match_pools(robot, pools)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        pairs = pools.shape[0] * 10 * pools.shape[1]
        assert peak <= stance.PASS_PAIRS * stance.PAIR_BYTES // 4 + 8 * pairs + 64 * 1024
        assert peak < 0.6 * 1_375_000, peak


def random_stack(rng, n, m, kind, count=6):
    """``count`` random (ok, L) pools of n booms and m anchors, stacked.

    ``kind`` "random" draws each pair's feasibility and length; "collide"
    gives every boom the same nearest anchor; "unmatchable" leaves booms 0
    and 1 one shared anchor, so the pool passes the screen yet holds no
    complete matching.
    """
    ok = rng.uniform(size=(count, n, m)) < rng.uniform(0.3, 1.0, size=(count, 1, 1))
    L = rng.uniform(0.5, 20.0, size=(count, n, m))
    ok[:, np.arange(n), rng.integers(0, m, size=n)] = True  # every boom reaches one
    if kind == "collide":
        j = int(rng.integers(m))
        ok[:, :, j], L[:, :, j] = True, rng.uniform(0.1, 0.4, size=(count, n))
    elif kind == "unmatchable":
        ok[:, :2] = False
        ok[:, :2, 0] = True
    return ok, L


def match_lengths(ok, L, group=1):
    """``_match_costs`` on (C, N, M) feasibility and length arrays: the
    screened pools' costs, inf where infeasible, as ``match_pools`` writes
    them. Returns the (C,) screen in place of the (C, N) reach."""
    reach = ok.any(axis=2)
    screen = reach.all(axis=1)
    rows, total, _, shortcut = _match_costs(np.where(ok, L, np.inf)[screen], reach, group)
    return rows, total, screen, shortcut


def start_holders(ok, L):
    """Rows holding their argmin in the row-reduction start: no earlier row took it."""
    first = np.where(ok, L, np.inf).argmin(axis=1).tolist()
    return [i for i, j in enumerate(first) if j not in first[:i]], first


class TestMatchLengths:
    KINDS = ("random", "collide", "unmatchable")

    def stacks(self, seed):
        rng = substream(seed, 0, "match_lengths")
        for n in range(1, 9):
            for m in (n, n + 1, n + 3):
                for kind in self.KINDS[:3 if n > 1 else 2]:
                    yield kind, random_stack(rng, n, m, kind)

    def test_matches_exhaustive_oracles(self):
        outcomes = {"shortcut": 0, "augmented": 0, "screened_unmatched": 0}
        for _, (ok, L) in self.stacks(13):
            n = ok.shape[1]
            rows, total, screen, shortcut = match_lengths(ok, L)
            for k in range(len(ok)):
                oracle = min_cost_matching(ok[k], L[k])
                if ok.shape[2] <= 6:
                    assert oracle == permutation_matching(ok[k], L[k])
                if oracle is None:
                    assert total[k] == np.inf and not rows[k].any() and not shortcut[k]
                    outcomes["screened_unmatched"] += bool(screen[k])
                else:
                    assert len(set(rows[k].tolist())) == n
                    assert ok[k][np.arange(n), rows[k]].all()
                    assert total[k] == pytest.approx(oracle, rel=1e-12)
                    assert total[k] == L[k][np.arange(n), rows[k]].sum()
                    outcomes["shortcut" if shortcut[k] else "augmented"] += 1
        assert min(outcomes.values()) > 0, outcomes

    def test_columns_are_the_unique_optimum(self):
        checked = 0
        for _, (ok, L) in self.stacks(17):
            if ok.shape[2] > 6:
                continue
            rows, *_ = match_lengths(ok, L)
            for k in range(len(ok)):
                ranked = ranked_permutations(ok[k], L[k])
                if not ranked:
                    continue
                if len(ranked) > 1:
                    assert ranked[1][0] - ranked[0][0] > 1e-9  # the optimum is unique
                assert tuple(rows[k].tolist()) == ranked[0][1]
                checked += 1
        assert checked > 100

    def test_both_branches_run(self):
        # The shortcut settles pools whose argmins are distinct; an augmenting
        # path of length >= 2 moves a row that held its argmin in the start.
        shortcuts = long_paths = 0
        for _, (ok, L) in self.stacks(19):
            rows, total, _, shortcut = match_lengths(ok, L)
            for k in range(len(ok)):
                holders, first = start_holders(ok[k], L[k])
                if shortcut[k]:
                    assert rows[k].tolist() == first
                    shortcuts += 1
                elif total[k] < np.inf and any(rows[k][i] != first[i] for i in holders):
                    long_paths += 1
        assert shortcuts > 0 and long_paths > 0, (shortcuts, long_paths)

    def test_path_through_a_matched_row(self):
        # Both rows' cheapest column is 0; row 0 holds it from the start, and
        # the optimum moves row 0 to column 1 so that row 1 can take column 0.
        ok = np.ones((1, 2, 2), dtype=bool)
        L = np.array([[[1.0, 2.0], [1.0, 10.0]]])
        rows, total, screen, shortcut = match_lengths(ok, L)
        assert rows.tolist() == [[1, 0]] and total.tolist() == [3.0]
        assert screen.tolist() == [True] and shortcut.tolist() == [False]

    def test_no_screened_pool(self):
        ok = np.zeros((3, 2, 4), dtype=bool)
        ok[:, 0] = True  # boom 1 reaches nothing
        rows, total, screen, shortcut = match_lengths(ok, np.ones((3, 2, 4)))
        assert not screen.any() and not shortcut.any() and not rows.any()
        assert (total == np.inf).all()


class TestBuildStance:
    def hexagon_robot(self):
        phis = np.arange(6) * np.pi / 3
        mounts = tuple(
            rb.MountSpec(position=0.5 * np.array([0.0, np.cos(p), np.sin(p)]),
                         axis=np.array([0.0, np.cos(p), np.sin(p)]))
            for p in phis
        )
        return rb.RobotConfig(boom_count=6, mounts=mounts)

    def test_hexagon_ring_lengths(self):
        cfg = self.hexagon_robot()
        phis = np.arange(6) * np.pi / 3
        anchors = np.column_stack([np.zeros(6), 15 * np.cos(phis), 15 * np.sin(phis)])
        st = build_stance(cfg, anchors)
        assert st is not None
        assert np.allclose(st.lengths, 14.5, atol=1e-9)
        res = rb.stiffness(rb.grasp_map(st), cfg.boom_stiffness)
        assert res.stability <= 1e-9 * res.wrench_capability  # radial stance

    def test_none_when_infeasible(self, robot8):
        anchors = np.tile([50.0, 0, 0], (10, 1))
        assert build_stance(robot8, anchors) is None

    def test_postcondition_every_pair_feasible(self, corridor, robot8):
        aset = rb.sample_anchors(corridor, 24, 40.0, substream(21, 4, "anchors"))
        st = build_stance(robot8, aset)
        if st is not None:
            d = st.anchors - st.shoulders
            L = np.linalg.norm(d, axis=1)
            assert np.all((L >= robot8.L_min) & (L <= robot8.L_max))
            cos = np.einsum("ij,ij->i", d / L[:, None], robot8.axes)
            assert np.all(cos >= math.cos(robot8.cone_half_angle) - 1e-12)


class TestDropBoom:
    def test_shrinks_by_one(self, rng):
        from conftest import random_stance
        st = random_stance(rng, 8)
        sub = drop_boom(st, 3)
        assert sub.boom_count == 7
        assert np.allclose(sub.anchors, np.delete(st.anchors, 3, axis=0))

    def test_six_minus_one_loses_stability(self, rng):
        from conftest import random_stance
        for _ in range(10):
            st = random_stance(rng, 6)
            sub = drop_boom(st, 0)
            res = rb.stiffness(rb.grasp_map(sub), 100.0)
            assert res.stability <= 1e-9 * res.wrench_capability

    def test_out_of_range(self, rng):
        from conftest import random_stance
        st = random_stance(rng, 4)
        with pytest.raises(IndexError):
            drop_boom(st, 4)

    def test_cannot_drop_last(self):
        st = rb.Stance([[0.5, 0, 0]], [[10.0, 0, 0]], np.zeros(3))
        with pytest.raises(ValueError, match="only boom"):
            drop_boom(st, 0)
