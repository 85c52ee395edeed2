import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import reachbot as rb
from reachbot import stance
from reachbot.mechanics import (grasp_map_stack, legacy_stiffness_cable,
                                legacy_stiffness_pointmass, stance_metrics, stiffness_stack)
from reachbot.rng import substream
from reachbot.study import REL_EPS
from conftest import drop_boom, random_stance


# The scalar metric chain, one stance at a time: the reference that the
# stacked mechanics.stance_metrics kernel is checked against.
def effective_stability(r, rel_eps=REL_EPS):
    """Stability with rank-deficient near-zeros clamped to exactly 0."""
    lam_min, lam_max = r.stability, r.wrench_capability
    return 0.0 if lam_min <= rel_eps * abs(lam_max) else lam_min


@dataclass(frozen=True)
class WrenchCapability:
    full: float
    torque: float


def wrench_capability(r, delta_ref):
    """Stiffness-eigenvalue wrench proxy scaled by a displacement budget."""
    if not delta_ref > 0:
        raise ValueError("delta_ref must be positive")
    torque = float(np.linalg.eigvalsh(r.K[3:, 3:])[-1])  # rotational 3x3 block
    return WrenchCapability(full=r.wrench_capability * delta_ref, torque=torque * delta_ref)


def charpoly_coeffs(A):
    """Characteristic polynomial by the Faddeev-LeVerrier trace recursion."""
    n = A.shape[0]
    M = np.zeros_like(A)
    c = np.zeros(n + 1)
    c[0] = 1.0
    for k in range(1, n + 1):
        M = A @ M + c[k - 1] * np.eye(n)
        c[k] = -np.trace(A @ M) / k
    return c


def one_boom_stance(u, shoulder=None):
    shoulder = np.zeros(3) if shoulder is None else np.asarray(shoulder, float)
    u = np.asarray(u, float)
    return rb.Stance([shoulder], [shoulder + 10.0 * u], np.zeros(3))


def octant_twisted_stance(twist=0.35, axial=7.0, radius=15.0):
    """8 booms with octant symmetry, anchors twisted off-radial on the cylinder."""
    dirs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                    dtype=float) / np.sqrt(3)
    shoulders = 0.5 * dirs
    phi = np.arctan2(dirs[:, 2], dirs[:, 1]) + twist
    x = axial * np.sign(dirs[:, 0])
    anchors = np.column_stack([x, radius * np.cos(phi), radius * np.sin(phi)])
    return rb.Stance(shoulders, anchors, np.zeros(3))


class TestGraspMap:
    def test_zero_lever_arm(self):
        st = one_boom_stance([1.0, 0, 0])
        G = rb.grasp_map(st)
        assert np.allclose(G[:, 0], [1, 0, 0, 0, 0, 0])

    def test_radial_stance_kills_torque_rows(self, rng):
        dirs = rng.normal(size=(6, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        st = rb.Stance(0.5 * dirs, 12.0 * dirs, np.zeros(3))
        G = rb.grasp_map(st)
        assert np.allclose(G[3:, :], 0.0, atol=1e-12)

    def test_columns_match_duplicate_formula(self, rng):
        st = random_stance(rng, 8)
        G = rb.grasp_map(st)
        for i in range(8):
            u = st.directions[i]
            lever = st.shoulders[i] - st.body_center
            expect = np.concatenate([u, np.cross(lever, u)])
            assert np.allclose(G[:, i], expect, atol=1e-12)

    def test_torque_column_orthogonality(self, rng):
        st = random_stance(rng, 5)
        G = rb.grasp_map(st)
        for i in range(5):
            tau = G[3:, i]
            assert abs(tau @ st.directions[i]) < 1e-12
            assert abs(tau @ (st.shoulders[i] - st.body_center)) < 1e-12


    @pytest.mark.parametrize("n", [1, 6, 10])
    def test_stack_equals_per_stance_maps(self, rng, n):
        # A posed body: rotated and off the origin, so the lever arms use c.
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        center = np.array([3.0, -1.5, 2.0])
        shoulders = np.array([m.position for m in rb.build_mounts(n)]) @ R.T + center
        anchors = center + rng.uniform(-15.0, 15.0, size=(4, n, 3))
        G = grasp_map_stack(shoulders, anchors, center)
        assert G.shape == (4, 6, n) and G.flags.c_contiguous
        for t in range(4):
            st = rb.Stance(shoulders, anchors[t], center)
            assert np.array_equal(G[t], rb.grasp_map(st))
            # The column formula on d / |d|, computed here, bit for bit.
            d = anchors[t] - shoulders
            u = d / np.linalg.norm(d, axis=1)[:, None]
            assert np.array_equal(G[t], np.vstack([u.T, np.cross(shoulders - center, u).T]))
            assert np.array_equal(st.directions, u)


class TestSymEig:
    def test_identity(self):
        assert np.allclose(rb.sym_eig(np.eye(6)), np.ones(6))

    def test_diagonal_sorted_ascending(self):
        vals = rb.sym_eig(np.diag([9.0, 4.0, 1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(vals, [0, 0, 0, 1, 4, 9])

    def test_asymmetric_rejected(self):
        K = np.eye(6)
        K[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            rb.sym_eig(K)

    def test_against_charpoly_oracle(self):
        rng = substream(2024, 0, "sym_eig_oracle")
        for _ in range(1000):
            A = rng.normal(size=(6, 6))
            K = 0.5 * (A + A.T)
            vals = rb.sym_eig(K)
            roots = np.sort(np.roots(charpoly_coeffs(K)).real)
            scale = max(np.abs(vals).max(), 1e-12)
            assert np.max(np.abs(vals - roots)) < 1e-8 * scale

    def test_eigenpair_residual(self, rng):
        A = rng.normal(size=(6, 6))
        K = 0.5 * (A + A.T)
        vals, vecs = np.linalg.eigh(K)
        assert np.allclose(rb.sym_eig(K), vals)
        for lam, v in zip(vals, vecs.T):
            assert np.linalg.norm(K @ v - lam * v) <= 1e-9 * np.linalg.norm(K)


class TestStiffness:
    def test_identity_grasp_map(self):
        res = rb.stiffness(np.eye(6), 1.0)
        assert np.allclose(res.K, np.eye(6))
        assert res.stability == pytest.approx(1.0)

    def test_two_opposed_booms(self):
        st = rb.Stance([[0, 0, 0], [0, 0, 0]], [[10, 0, 0], [-10, 0, 0]], np.zeros(3))
        res = rb.stiffness(rb.grasp_map(st), 1.0)
        assert np.allclose(res.K, np.diag([2, 0, 0, 0, 0, 0]), atol=1e-12)
        assert res.stability == pytest.approx(0.0, abs=1e-12)
        assert res.wrench_capability == pytest.approx(2.0)

    def test_outer_product_sum_oracle(self, rng):
        st = random_stance(rng, 8)
        w = rng.uniform(10.0, 200.0, size=8)
        res = rb.stiffness(rb.grasp_map(st), w)
        G = rb.grasp_map(st)
        K = np.zeros((6, 6))
        for i in range(8):
            for r in range(6):
                for c in range(6):
                    K[r, c] += w[i] * G[r, i] * G[c, i]
        assert np.max(np.abs(res.K - K)) < 1e-10

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            rb.stiffness(np.eye(6), 0.0)

    def test_psd_over_random_stances(self, rng):
        for n in (2, 4, 6, 9):
            res = rb.stiffness(rb.grasp_map(random_stance(rng, n)), 100.0)
            assert res.eigenvalues[0] >= -1e-9 * abs(res.eigenvalues[-1])


class TestStability:
    def test_five_booms_always_zero(self, rng):
        for _ in range(20):
            res = rb.stiffness(rb.grasp_map(random_stance(rng, 5)), 100.0)
            assert res.stability <= 1e-9 * res.wrench_capability
            assert effective_stability(res) == 0.0

    def test_radial_stance_zero(self, rng):
        dirs = rng.normal(size=(8, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        st = rb.Stance(0.5 * dirs, 10.0 * dirs, np.zeros(3))
        res = rb.stiffness(rb.grasp_map(st), 1.0)
        assert res.stability <= 1e-9 * res.wrench_capability

    def test_octant_stance_rayleigh_oracle(self):
        st = octant_twisted_stance()
        res = rb.stiffness(rb.grasp_map(st), 1.0)
        assert res.stability > 0
        rng = substream(99, 0, "rayleigh")
        W = rng.normal(size=(10000, 6))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        sampled_min = np.einsum("ij,jk,ik->i", W, res.K, W).min()
        # sampled minimum approaches lambda_min from above; 2% of the
        # spectrum scale
        assert sampled_min >= res.stability
        assert sampled_min - res.stability < 0.02 * res.wrench_capability


class TestWrenchCapability:
    def test_rank_one(self):
        G = np.sqrt(2.0) * np.array([[1.0, 0, 0, 0, 0, 0]]).T
        res = rb.stiffness(G, 1.0)
        wc = wrench_capability(res, 1.0)
        assert wc.full == pytest.approx(2.0)
        assert wc.torque == pytest.approx(0.0, abs=1e-12)

    def test_identity_scaled(self):
        res = rb.stiffness(np.eye(6), 1.0)
        wc = wrench_capability(res, 0.5)
        assert wc.full == pytest.approx(0.5)
        assert wc.torque == pytest.approx(0.5)

    def test_delta_ref_positive(self):
        with pytest.raises(ValueError, match="delta_ref"):
            wrench_capability(rb.stiffness(np.eye(6), 1.0), 0.0)


class TestManipulability:
    def test_rank_deficient_zero(self, rng):
        for n in (1, 3, 5):
            assert rb.manipulability(rb.grasp_map(random_stance(rng, n))) == 0.0

    def test_identity(self):
        assert rb.manipulability(np.eye(6)) == pytest.approx(1.0)

    def test_singular_value_product_oracle(self, rng):
        for n in (6, 8, 10):
            G = rb.grasp_map(random_stance(rng, n))
            w = rb.manipulability(G)
            sv = np.linalg.svd(G, compute_uv=False)
            expect = float(np.prod(sv))
            if w > 0:
                assert w == pytest.approx(expect, rel=1e-8)


class TestLegacyModels:
    def test_pointmass_one_boom(self):
        res = legacy_stiffness_pointmass(one_boom_stance([1.0, 0, 0]))
        assert np.allclose(res.K, np.diag([1, 0, 0, 1, 1, 1]))
        assert res.stability == pytest.approx(0.0, abs=1e-12)

    def test_pointmass_three_orthogonal(self):
        st = rb.Stance(np.zeros((3, 3)), 10 * np.eye(3), np.zeros(3))
        res = legacy_stiffness_pointmass(st)
        assert np.allclose(res.K, np.diag([1, 1, 1, 3, 3, 3]))
        assert res.stability == pytest.approx(1.0)

    def test_pointmass_rotational_block_geometry_free(self, rng):
        for n in (2, 5, 9):
            st = random_stance(rng, n)
            res = legacy_stiffness_pointmass(st)
            assert np.allclose(res.K[3:, 3:], n * np.eye(3))
            assert np.allclose(res.K[:3, 3:], 0.0)

    def test_cable_matches_default_model(self, rng):
        st = random_stance(rng, 7)
        default = rb.stiffness(rb.grasp_map(st), 1.0)
        cable = legacy_stiffness_cable(st, 1.0)
        assert np.max(np.abs(default.K - cable.K)) < 1e-12

    def test_cable_linear_in_weights(self, rng):
        st = random_stance(rng, 6)
        one = legacy_stiffness_cable(st, 1.0)
        two = legacy_stiffness_cable(st, 2.0)
        assert np.allclose(two.K, 2.0 * one.K, atol=1e-12)

    def test_cable_weights_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="omega weights must be positive"):
            legacy_stiffness_cable(random_stance(rng, 3), 0.0)

    def test_cable_two_opposed(self):
        st = rb.Stance([[0, 0, 0], [0, 0, 0]], [[10, 0, 0], [-10, 0, 0]], np.zeros(3))
        res = legacy_stiffness_cable(st, 1.0)
        assert np.allclose(res.K, np.diag([2, 0, 0, 0, 0, 0]), atol=1e-12)


class TestInvariances:
    def test_rigid_translation(self, rng):
        st = random_stance(rng, 8)
        shift = np.array([3.0, -2.0, 5.0])
        moved = rb.Stance(st.shoulders + shift, st.anchors + shift, st.body_center + shift)
        assert np.max(np.abs(rb.grasp_map(st) - rb.grasp_map(moved))) < 1e-12
        k0 = rb.stiffness(rb.grasp_map(st), 100.0)
        k1 = rb.stiffness(rb.grasp_map(moved), 100.0)
        assert np.max(np.abs(k0.K - k1.K)) < 1e-12

    def test_rigid_rotation_conjugates(self, rng):
        st = random_stance(rng, 8)
        theta = 0.8
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        rotated = rb.Stance(st.shoulders @ R.T, st.anchors @ R.T, R @ st.body_center)
        B = np.zeros((6, 6))
        B[:3, :3] = R
        B[3:, 3:] = R
        k0 = rb.stiffness(rb.grasp_map(st), 100.0)
        k1 = rb.stiffness(rb.grasp_map(rotated), 100.0)
        assert np.allclose(k1.K, B @ k0.K @ B.T, atol=1e-9 * k0.wrench_capability)
        assert np.allclose(k0.eigenvalues, k1.eigenvalues,
                           rtol=1e-9, atol=1e-9 * k0.wrench_capability)

    def test_weight_scaling(self, rng):
        st = random_stance(rng, 7)
        G = rb.grasp_map(st)
        base = rb.stiffness(G, 1.0)
        scaled = rb.stiffness(G, 3.5)
        assert np.allclose(scaled.eigenvalues, 3.5 * base.eigenvalues,
                           rtol=1e-12, atol=1e-12 * base.wrench_capability)

    def test_adding_boom_never_decreases_eigen_extremes(self, rng):
        for _ in range(20):
            st = random_stance(rng, 8)
            sub = drop_boom(st, 0)
            full = rb.stiffness(rb.grasp_map(st), 100.0)
            part = rb.stiffness(rb.grasp_map(sub), 100.0)
            tol = 1e-9 * full.wrench_capability
            assert full.stability >= part.stability - tol
            assert full.wrench_capability >= part.wrench_capability - tol


def one_out_reference(G, weight):
    """Worst single-boom drop of each map by one stack of all N drops, the
    first of equal lambda_min minima: (lambda_min, lambda_max) of that drop."""
    n = G.shape[2]
    keep = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    lam = np.linalg.eigvalsh(stiffness_stack(np.moveaxis(G[:, :, keep], 2, 1), weight))
    worst = lam[np.arange(len(G)), np.argmin(lam[:, :, 0], axis=1)]
    return worst[:, 0], worst[:, -1]


def random_grasp_maps(rng, t, n):
    """(t, 6, n) grasp maps: n mounts on the body sphere, anchors 5-15 m out."""
    shoulders = np.array([m.position for m in rb.build_mounts(n)])
    aims = rng.normal(size=(t, n, 3))
    aims /= np.linalg.norm(aims, axis=-1, keepdims=True)
    return grasp_map_stack(shoulders, shoulders + rng.uniform(5.0, 15.0, (t, n, 1)) * aims,
                           np.zeros(3))


class TestOneOutGroups:
    """stance_metrics solves the single-boom drops in groups of consecutive
    booms that fit a share of the pass budget; the worst drop, and every
    output byte, is that of one stack of all drops."""

    @staticmethod
    def one_out(monkeypatch, G, budget):
        """stance_metrics' one-out columns at a pass budget, and the drop
        counts of its one-out eigen-solve calls (the (T, g, 6, 6) stacks)."""
        eigvalsh, groups = np.linalg.eigvalsh, []
        with monkeypatch.context() as patch:
            patch.setattr(stance, "PASS_PAIRS", budget)
            patch.setattr(np.linalg, "eigvalsh", lambda K: (
                K.ndim == 4 and groups.append(K.shape[1])) or eigvalsh(K))
            m = stance_metrics(G, 100.0, 0.1)
        return m["one_out_lambda_min"], m["one_out_lambda_max"], groups

    @pytest.mark.parametrize("t", [1, 4, 123, 300])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_groups_equal_one_stack(self, rng, monkeypatch, n, t):
        G = random_grasp_maps(rng, t, n)
        want = one_out_reference(G, 100.0) if n >= 2 else (np.zeros(t),) * 2
        if 2 <= n <= 6:  # every drop leaves at most five columns: rank-deficient
            assert np.all(want[0] <= 1e-9 * want[1])
        sizes, budget = set(), 1
        while True:  # budgets from one drop a group up to one group of all N drops
            lmin, lmax, groups = self.one_out(monkeypatch, G, budget)
            assert lmin.tobytes() == want[0].tobytes() and lmax.tobytes() == want[1].tobytes()
            if n == 1:
                assert groups == []
                break
            # Consecutive groups of one size, the last one the remainder.
            g = groups[0]
            assert groups == [g] * (n // g) + [n % g] * (n % g > 0)
            sizes.add(g)
            if g == n and budget >= stance.PASS_PAIRS:
                break
            budget = budget * 3 // 2 + 1
        assert n == 1 or {1, n} <= sizes and len(sizes) >= min(n, 3)

    def test_equal_minima_first_drop_wins(self, rng, monkeypatch):
        # Columns along the axes with integer lengths, so every K is exact.
        # Boom 6 duplicates boom 2, so their drops tie (lambda_min 100). Each
        # drop of booms 0, 1, 3, 4 and 5 leaves an axis bare (lambda_min 0),
        # and only boom 0's (the first) leaves lambda_max 200, not 900.
        exact = np.zeros((1, 6, 7))
        exact[0, [0, 1, 2, 3, 4, 5, 2], range(7)] = [3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        # Random maps whose boom 5 duplicates boom 2: those two drops differ
        # only in column order, so rounding decides between them.
        G = random_grasp_maps(rng, 50, 8)
        G[:, :, 5] = G[:, :, 2]
        assert [a.tolist() for a in one_out_reference(exact, 100.0)] == [[0.0], [200.0]]
        for maps in (exact, G):
            want = one_out_reference(maps, 100.0)
            for budget in (1, stance.PASS_PAIRS):  # a drop a group; one group
                lmin, lmax, groups = self.one_out(monkeypatch, maps, budget)
                assert groups == [1] * maps.shape[2] if budget == 1 else groups[0] > 1
                assert lmin.tobytes() + lmax.tobytes() == want[0].tobytes() + want[1].tobytes()

    def test_metric_stack_memory(self, rng):
        # One stance_metrics chunk at N = 10 (123 stances, as run_trials
        # takes it): the drop groups fit an eighth of the pass budget, and
        # every other stack (K, its eigenvalues, the torque block and the
        # determinant's G G^T) takes under 1 kB a stance. One stack of all
        # ten drops peaked at about 1.4 MB.
        G = random_grasp_maps(rng, 123, 10)
        tracemalloc.start()
        try:
            stance_metrics(G, 100.0, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stance.PASS_PAIRS * stance.PAIR_BYTES // 8 + 123 * 1024


class TestStanceSerialization:
    def test_round_trip(self, rng):
        st = random_stance(rng, 6)
        again = rb.Stance.from_dict(st.to_dict())
        assert np.allclose(st.shoulders, again.shoulders)
        assert np.allclose(st.anchors, again.anchors)
        assert np.allclose(st.lengths, again.lengths)

    def test_zero_length_boom_rejected(self):
        # A boom whose anchor is its shoulder has no direction, so no grasp-map column.
        with pytest.raises(ValueError, match="anchor coincides with shoulder"):
            rb.Stance(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="anchor coincides with shoulder"):
            rb.Stance.from_dict({"s": [[0.5, 0, 0], [0, 0.5, 0]],
                                 "a": [[9.0, 0, 0], [0, 0.5, 0]], "body_center": [0, 0, 0]})
        with pytest.raises(ValueError, match="anchor coincides with shoulder"):
            grasp_map_stack(np.zeros((1, 3)), np.zeros((2, 1, 3)), np.zeros(3))

    def test_derived_arrays_read_only(self, rng):
        st = random_stance(rng, 4)
        assert np.array_equal(st.lengths, np.linalg.norm(st.anchors - st.shoulders, axis=1))
        for arr in (st.shoulders, st.anchors, st.body_center, st.directions, st.lengths):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
