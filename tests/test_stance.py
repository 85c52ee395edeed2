import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachbot as rb
from reachbot.rng import substream, substream_uniforms
from reachbot.stance import _match_lengths, feasibility_matrix, match_pools, world_mounts
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


def subset_dp_assign(mounts, pose, points, pred):
    """Exact minimum-total-length boom matching (oracle; small M only)."""
    return min_cost_matching(*feasibility_matrix(mounts, pose, points, pred))


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


@pytest.fixture
def pred(robot8):
    return rb.FeasibilityPredicate.from_robot(robot8)


class TestFeasible:
    def test_on_axis_within_reach(self, pred):
        assert feasible(x_mount(), rb.BodyPose(), np.array([10.5, 0, 0]), pred)

    def test_beyond_max_length(self, pred):
        assert not feasible(x_mount(), rb.BodyPose(), np.array([25.5, 0, 0]), pred)

    def test_inside_min_length(self, pred):
        assert not feasible(x_mount(), rb.BodyPose(), np.array([0.6, 0, 0]), pred)

    def test_outside_cone(self, pred):
        # 60 degrees off axis with a 45 degree cone
        a = np.array([0.5, 0, 0]) + 10.0 * np.array([math.cos(math.radians(60)),
                                                     math.sin(math.radians(60)), 0])
        assert not feasible(x_mount(), rb.BodyPose(), a, pred)

    def test_just_inside_cone(self, pred):
        a = np.array([0.5, 0, 0]) + 10.0 * np.array([math.cos(math.radians(40)),
                                                     math.sin(math.radians(40)), 0])
        assert feasible(x_mount(), rb.BodyPose(), a, pred)

    def test_pose_translation_moves_reach(self, pred):
        pose = rb.BodyPose(position=np.array([30.0, 0, 0]))
        assert feasible(x_mount(), pose, np.array([40.5, 0, 0]), pred)
        assert not feasible(x_mount(), rb.BodyPose(), np.array([40.5, 0, 0]), pred)

    def test_matrix_shape(self, robot8, pred):
        pts = np.tile([10.0, 0, 0], (5, 1))
        ok, L = feasibility_matrix(list(robot8.mounts), rb.BodyPose(), pts, pred)
        assert ok.shape == (8, 5) and L.shape == (8, 5)


def stacked_feasibility(mounts, pose, points, pred):
    """The feasibility kernel's reference: offsets stacked as (..., N, M, 3)."""
    shoulders, axes = world_mounts(mounts, pose)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts[..., None, :, :] - shoulders[:, None, :]
    L = np.linalg.norm(d, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_ang = np.einsum("...nmk,nk->...nm", d, axes) / np.where(L > 0, L, np.inf)
    ok = (L >= pred.L_min) & (L <= pred.L_max) & (cos_ang >= math.cos(pred.cone_half_angle))
    return ok, L


def random_pose(rng):
    """A rotated and translated body pose."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    R = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                  [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                  [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    return rb.BodyPose(position=rng.uniform(-30, 30, 3), rotation=R)


class TestKernelBitEquality:
    """``feasibility_matrix`` against the stacked norm/einsum formula, byte for byte.

    The coordinate-array kernel sums the squares in coordinate order and
    pairs the cone's dot product as (x + z) + y, following numpy 2.4's
    ``einsum`` pairing for a length-3 contraction on an AVX-512 build. A
    numpy build that pairs the terms differently fails this test.
    """

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
           layout=st.sampled_from(["uniform", "mission"]),
           shape=st.sampled_from([(40,), (3, 20), (2, 3, 10)]))
    def test_matches_stacked_formula(self, seed, n, layout, shape):
        rng = np.random.default_rng(seed)
        pred = rb.FeasibilityPredicate(rng.uniform(0.2, 1.4), 0.5, rng.uniform(5.0, 25.0))
        mounts = rb.build_mounts(n, rng.uniform(0.3, 1.0), layout)
        pose = random_pose(rng)
        shoulders, axes = world_mounts(mounts, pose)
        points = pose.position + rng.uniform(-30, 30, (*shape, 3))
        flat = points.reshape(-1, 3)
        # A point at a shoulder (L = 0), points on the L_min and L_max
        # boundaries along the cone axis, and on the cone's rim.
        i = rng.integers(n, size=4)
        rim = np.cross(axes[i[3]], rng.normal(size=3))
        rim /= np.linalg.norm(rim)
        h = pred.cone_half_angle
        flat[rng.choice(len(flat), 4, replace=False)] = [
            shoulders[i[0]], shoulders[i[1]] + pred.L_min * axes[i[1]],
            shoulders[i[2]] + pred.L_max * axes[i[2]],
            shoulders[i[3]] + pred.L_max / 2 * (math.cos(h) * axes[i[3]] + math.sin(h) * rim)]
        ok, L = feasibility_matrix(mounts, pose, points, pred)
        ref_ok, ref_L = stacked_feasibility(mounts, pose, points, pred)
        assert ok.shape == ref_ok.shape == (*shape[:-1], n, shape[-1])
        assert ok.dtype == ref_ok.dtype and L.dtype == ref_L.dtype
        assert ok.tobytes() == ref_ok.tobytes()
        assert L.tobytes() == ref_L.tobytes()
        assert (L == 0).any()

    def test_point_at_a_shoulder_is_rejected(self, robot8, pred):
        shoulders, _ = world_mounts(list(robot8.mounts), rb.BodyPose())
        ok, L = feasibility_matrix(list(robot8.mounts), rb.BodyPose(), shoulders, pred)
        assert np.all(np.diag(L) == 0) and not np.diag(ok).any()


class TestAssign:
    def test_single_boom(self, pred):
        points = np.array([[10.0, 0, 0], [12.0, 0, 0]])
        res = rb.assign([x_mount()], rb.BodyPose(), points, pred)
        assert res.anchor_index.tolist() == [0]
        assert res.total_length == pytest.approx(9.5)

    def test_identity_pairing(self, pred):
        # two opposed mounts, each with exactly one anchor in its own cone
        mounts = [x_mount(),
                  rb.MountSpec(position=np.array([-0.5, 0, 0]), axis=np.array([-1.0, 0, 0]))]
        points = np.array([[10.0, 0, 0], [-10.0, 0, 0]])
        res = rb.assign(mounts, rb.BodyPose(), points, pred)
        assert res.anchor_index.tolist() == [0, 1]
        assert res.total_length == pytest.approx(19.0)

    def test_prefers_shorter_total(self, pred):
        points = np.array([[14.0, 0, 0], [6.0, 0, 0]])
        res = rb.assign([x_mount()], rb.BodyPose(), points, pred)
        assert res.anchor_index.tolist() == [1]

    def test_none_when_no_feasible_anchor(self, pred):
        points = np.array([[30.0, 0, 0], [-10.0, 0, 0]])
        assert rb.assign([x_mount()], rb.BodyPose(), points, pred) is None

    def test_pool_smaller_than_booms(self, robot8, pred):
        with pytest.raises(ValueError, match="anchor pool"):
            rb.assign(list(robot8.mounts), rb.BodyPose(), np.array([[10.0, 0, 0]]), pred)

    def test_distinct_anchors(self, corridor, robot8, pred):
        aset = rb.sample_anchors(corridor, 24, 40.0, substream(42, 0, "anchors"))
        res = rb.assign(list(robot8.mounts), rb.BodyPose(), aset, pred)
        if res is not None:
            assert len(set(res.anchor_index.tolist())) == 8

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_brute_force(self, corridor, trial):
        cfg = rb.make_robot(5)
        pred = rb.FeasibilityPredicate.from_robot(cfg)
        aset = rb.sample_anchors(corridor, 9, 40.0, substream(7, trial, "anchors"))
        res = rb.assign(list(cfg.mounts), rb.BodyPose(), aset, pred)
        oracle = subset_dp_assign(list(cfg.mounts), rb.BodyPose(), aset.points, pred)
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

    def test_never_beats_by_greedy(self, corridor, robot8, pred):
        # exact matching total never exceeds the greedy nearest-anchor total
        for trial in range(8):
            aset = rb.sample_anchors(corridor, 24, 40.0, substream(3, trial, "anchors"))
            res = rb.assign(list(robot8.mounts), rb.BodyPose(), aset, pred)
            if res is None:
                continue
            ok, L = feasibility_matrix(list(robot8.mounts), rb.BodyPose(), aset.points, pred)
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

    def test_anchor_permutation_invariant_total(self, corridor, robot8, pred):
        aset = rb.sample_anchors(corridor, 24, 40.0, substream(8, 1, "anchors"))
        res = rb.assign(list(robot8.mounts), rb.BodyPose(), aset, pred)
        perm = substream(8, 1, "perm").permutation(24)
        res2 = rb.assign(list(robot8.mounts), rb.BodyPose(), aset.points[perm], pred)
        assert (res is None) == (res2 is None)
        if res is not None:
            assert res.total_length == pytest.approx(res2.total_length, rel=1e-12)

    def test_deterministic(self, corridor, robot8, pred):
        # Trials 0-4 of this stream have no complete assignment; trial 5 has one.
        for trial in range(6):
            aset = rb.sample_anchors(corridor, 24, 40.0, substream(9, trial, "anchors"))
            a = rb.assign(list(robot8.mounts), rb.BodyPose(), aset, pred)
            b = rb.assign(list(robot8.mounts), rb.BodyPose(), aset, pred)
            assert (a is None) == (b is None) == (trial < 5)
            if a is not None:
                assert np.array_equal(a.anchor_index, b.anchor_index)
                assert a.total_length == b.total_length


class TestMatchPools:
    def test_matches_subset_dp(self, corridor):
        # Random pools for N = 1..8 in a narrow window, plus a pool where two
        # booms reach only the same anchor: it passes the screen, yet holds
        # no complete matching.
        twin = [x_mount(), rb.MountSpec(position=np.array([0.5, 0.1, 0]),
                                        axis=np.array([1.0, 0, 0]))]
        cases = [(twin, np.array([[[10.0, 0, 0], [-30.0, 0, 0], [0, 40.0, 0]]]))]
        for n in range(1, 9):
            u = substream_uniforms(11, range(24), f"match:{n}", 2 * (n + 3))
            cases.append((list(rb.make_robot(n).mounts), sample_pools(corridor, n + 3, 12.0, u)))
        kinds = {"rejected": 0, "screened_unmatched": 0, "matched": 0}
        pred = rb.FeasibilityPredicate(math.pi / 4, 0.5, 20.0)
        for mounts, pools in cases:
            rows, total, screen, shortcut = match_pools(mounts, rb.BodyPose(), pools, pred)
            assert rows.shape == (len(pools), len(mounts))
            assert len(total) == len(screen) == len(shortcut) == len(pools)
            assert not (shortcut & ~screen).any()
            for idx, length, passed, points in zip(rows, total, screen, pools):
                oracle = subset_dp_assign(mounts, rb.BodyPose(), points, pred)
                if not passed:
                    assert oracle is None  # the screen drops only unmatchable pools
                    assert length == np.inf and not idx.any()
                    kinds["rejected"] += 1
                elif oracle is None:
                    assert length == np.inf and not idx.any()
                    kinds["screened_unmatched"] += 1
                else:
                    ok, L = feasibility_matrix(mounts, rb.BodyPose(), points, pred)
                    booms = np.arange(len(mounts))
                    assert len(set(idx.tolist())) == len(mounts)
                    assert ok[booms, idx].all()
                    assert length == pytest.approx(oracle, rel=1e-12)
                    kinds["matched"] += 1
        assert min(kinds.values()) > 0, kinds

    @pytest.mark.parametrize("group", [2, 3, 8])
    def test_group_keeps_its_first_complete_pool(self, corridor, group):
        # 48 pools of 6 booms: each group reports only its first complete
        # pool, exactly as matched alone, and inf with rows 0 elsewhere.
        mounts, pred = list(rb.make_robot(6).mounts), rb.FeasibilityPredicate(math.pi / 4, 0.5, 20.0)
        pools = sample_pools(corridor, 18, 40.0, substream_uniforms(3, range(48), "group", 36))
        alone = match_pools(mounts, rb.BodyPose(), pools, pred)
        rows, total, screen, shortcut = match_pools(mounts, rb.BodyPose(), pools, pred, group)
        assert np.array_equal(screen, alone[2]) and np.array_equal(shortcut, alone[3])
        complete = (alone[1] < np.inf).reshape(-1, group)
        kept = np.zeros_like(complete)
        kept[complete.any(axis=1), complete.argmax(axis=1)[complete.any(axis=1)]] = True
        assert 0 < kept.sum() < complete.sum()  # some groups hold two complete pools
        kept = kept.ravel()
        assert total[kept].tobytes() == alone[1][kept].tobytes()
        assert rows[kept].tobytes() == alone[0][kept].tobytes()
        assert np.all(total[~kept] == np.inf) and not rows[~kept].any()


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
            rows, total, screen, shortcut = _match_lengths(ok, L)
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
            rows, *_ = _match_lengths(ok, L)
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
            rows, total, _, shortcut = _match_lengths(ok, L)
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
        rows, total, screen, shortcut = _match_lengths(ok, L)
        assert rows.tolist() == [[1, 0]] and total.tolist() == [3.0]
        assert screen.tolist() == [True] and shortcut.tolist() == [False]

    def test_no_screened_pool(self):
        ok = np.zeros((3, 2, 4), dtype=bool)
        ok[:, 0] = True  # boom 1 reaches nothing
        rows, total, screen, shortcut = _match_lengths(ok, np.ones((3, 2, 4)))
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

    def test_postcondition_every_pair_feasible(self, corridor, robot8, pred):
        aset = rb.sample_anchors(corridor, 24, 40.0, substream(21, 4, "anchors"))
        st = build_stance(robot8, aset)
        if st is not None:
            d = st.anchors - st.shoulders
            L = np.linalg.norm(d, axis=1)
            assert np.all((L >= robot8.L_min) & (L <= robot8.L_max))
            axes = np.array([m.axis for m in robot8.mounts])
            cos = np.einsum("ij,ij->i", d / L[:, None], axes)
            assert np.all(cos >= math.cos(robot8.cone_half_angle) - 1e-12)

    def test_body_center_follows_pose(self, corridor, robot8):
        pose = rb.BodyPose(position=np.array([5.0, 0, 0]))
        aset = rb.sample_anchors(corridor, 40, 40.0, substream(33, 0, "anchors"))
        st = build_stance(robot8, aset, pose)
        if st is not None:
            assert np.allclose(st.body_center, [5.0, 0, 0])


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
        st = rb.Stance.from_pairs([[0.5, 0, 0]], [[10.0, 0, 0]], np.zeros(3))
        with pytest.raises(ValueError, match="only boom"):
            drop_boom(st, 0)
