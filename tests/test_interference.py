import logging
import re
import tracemalloc

import numpy as np
import pytest

import reachbot as rb
from reachbot import interference, stance
from reachbot.interference import coverage_from_mounts
from reachbot.stance import feasibility_matrix, feasibility_workspace
from reachbot.study import column_records, coverage_csv_rows
from reachbot.terrain import Frame, surface_point_chunks
from conftest import lattice_points, stream_points, surface_shift


def whole_array_coverage(robot, points):
    """Oracle: the coverage record of one robot from one unchunked feasibility matrix."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, s = robot.boom_count, len(points)
    ok, _ = feasibility_matrix(robot, points)
    counts = ok.sum(axis=0)
    prefix = np.logical_or.accumulate(ok, axis=0).mean(axis=1)
    marginal = np.diff(prefix, prepend=0.0)
    hist = np.bincount(counts, minlength=n + 1)
    return dict(
        boom_count=n,
        sample_count=s,
        unique_pct=float(np.mean(counts >= 1)),
        overlap_pct=float(np.mean(counts >= 2)),
        per_boom_marginal=[float(x) for x in marginal],
        count_histogram=[int(x) for x in hist],
    )


def row(coverage):
    """The only record of one-row coverage columns."""
    (record,) = column_records(coverage)
    return record


def coverage(cfg, terrain, sample_count, shift):
    """Coverage record of one robot configuration over shifted-lattice surface samples."""
    points = lattice_points(terrain, sample_count, shift)
    return row(coverage_from_mounts(cfg, points))


def corridor_grid_coverage(robot, radius, length, n_theta, n_x):
    """Deterministic quadrature oracle over an (angle, axial) grid."""
    theta = (np.arange(n_theta) + 0.5) * 2 * np.pi / n_theta
    x = -length / 2 + (np.arange(n_x) + 0.5) * length / n_x
    T, X = np.meshgrid(theta, x, indexing="ij")
    pts = np.column_stack([X.ravel(), radius * np.cos(T).ravel(),
                           radius * np.sin(T).ravel()])
    return row(coverage_from_mounts(robot, pts))


class TestCoverageFromMounts:
    def test_no_points_rejected(self, robot8):
        with pytest.raises(ValueError, match="surface sample"):
            coverage_from_mounts(robot8, np.zeros((0, 3)))

    def test_identical_mounts_overlap_equals_unique(self, corridor, rng):
        m = rb.MountSpec(position=np.array([0.5, 0, 0]), axis=np.array([1.0, 0, 0]))
        pts = lattice_points(corridor, 4000, rng.random(2))
        rep = row(coverage_from_mounts(rb.make_robot(2, mounts=[m, m]), pts))
        assert rep["overlap_pct"] == pytest.approx(rep["unique_pct"])
        assert rep["per_boom_marginal"][1] == pytest.approx(0.0)

    def test_histogram_consistent(self, robot8, corridor, rng):
        pts = lattice_points(corridor, 5000, rng.random(2))
        rep = row(coverage_from_mounts(robot8, pts))
        hist = np.array(rep["count_histogram"])
        assert hist.sum() == 5000
        assert rep["unique_pct"] == pytest.approx(hist[1:].sum() / 5000)
        assert rep["overlap_pct"] == pytest.approx(hist[2:].sum() / 5000)

    def test_marginals_sum_to_unique(self, robot8, corridor, rng):
        pts = lattice_points(corridor, 5000, rng.random(2))
        rep = row(coverage_from_mounts(robot8, pts))
        assert sum(rep["per_boom_marginal"]) == pytest.approx(rep["unique_pct"], abs=1e-12)
        assert all(m >= 0 for m in rep["per_boom_marginal"])


class TestCoverage:
    def test_matches_grid_oracle(self, robot8, corridor):
        mc = coverage(robot8, corridor, 20000, surface_shift(42))
        oracle = corridor_grid_coverage(robot8, 15.0, 100.0, 400, 400)
        assert abs(mc["unique_pct"] - oracle["unique_pct"]) < 0.01
        assert abs(mc["overlap_pct"] - oracle["overlap_pct"]) < 0.01

    def test_reproducible(self, robot8, corridor):
        a = coverage(robot8, corridor, 2000, surface_shift(5))
        b = coverage(robot8, corridor, 2000, surface_shift(5))
        assert a == b

    def test_doubling_samples_converges(self, robot8, corridor):
        # error vs a fine-grid reference within independent draws' 2-sigma band for most seeds
        ref = corridor_grid_coverage(robot8, 15.0, 100.0, 600, 600)["unique_pct"]
        hits = 0
        seeds = range(20)
        for s in seeds:
            small = coverage(robot8, corridor, 1000, surface_shift(s))["unique_pct"]
            big = coverage(robot8, corridor, 4000, surface_shift(s, 1))["unique_pct"]
            if abs(big - ref) <= 2.0 / np.sqrt(4000) and abs(small - ref) <= 2.0 / np.sqrt(1000):
                hits += 1
        assert hits >= 17  # 2-sigma band holds for nearly all seeds

    def test_lattice_error_far_below_independent_draws(self, robot8, corridor):
        # At 20,000 samples, seeds 0-9: independent area-uniform draws missed
        # this oracle by up to 4.8e-3 (unique) and 3.6e-3 (overlap), the
        # shifted lattice by 3.6e-4 and 7.1e-4. The grid's own error is below
        # 1e-4 (a 4000 x 4000 grid moves it by 2.5e-5 and 5.8e-5).
        oracle = corridor_grid_coverage(robot8, 15.0, 100.0, 2000, 2000)
        for seed in range(10):
            got = coverage(robot8, corridor, 20000, surface_shift(seed))
            assert abs(got["unique_pct"] - oracle["unique_pct"]) < 1.5e-3
            assert abs(got["overlap_pct"] - oracle["overlap_pct"]) < 1.5e-3


class TestCoverageCurve:
    def test_nested_unique_monotone(self, robot8, corridor):
        reps = rb.coverage_curve(robot8, corridor, (1, 12), 20000,
                                 surface_shift(42))
        unique = reps["unique_pct"]
        assert all(b > a for a, b in zip(unique, unique[1:]))

    def test_nested_overlap_monotone_past_two(self, robot8, corridor):
        reps = rb.coverage_curve(robot8, corridor, (2, 12), 20000,
                                 surface_shift(42))
        overlap = reps["overlap_pct"]
        assert all(b >= a for a, b in zip(overlap, overlap[1:]))

    def test_single_n(self, robot8, corridor, rng):
        reps = rb.coverage_curve(robot8, corridor, (3, 3), 1000, rng.random(2))
        assert reps["boom_count"].tolist() == [3]

    def test_bad_range(self, robot8, corridor, rng):
        with pytest.raises(ValueError, match="n_range"):
            rb.coverage_curve(robot8, corridor, (4, 2), 1000, rng.random(2))

    def test_unknown_policy(self, robot8, corridor, rng):
        with pytest.raises(ValueError, match="unknown mount layout 'ring'"):
            rb.coverage_curve(robot8, corridor, (1, 3), 1000, rng.random(2),
                              layout_policy="ring")

    def test_late_marginal_below_mid(self, robot8, corridor):
        reps = rb.coverage_curve(robot8, corridor, (1, 12), 20000,
                                 surface_shift(42))
        last = reps["per_boom_marginal"][-1][-1]
        mid = reps["per_boom_marginal"][5][-1]
        assert last < mid


class TestChunkedCurve:
    """The chunked coverage pass against whole-array coverage of each N's mounts."""

    SAMPLES = 1000

    @pytest.fixture(autouse=True)
    def small_chunk(self, monkeypatch):
        # Passes of 7 samples at 12 mounts, 10 at 8 or 28 at 3, each one
        # chunk of as many lattice points.
        monkeypatch.setattr(stance, "PASS_PAIRS", 84)

    @pytest.mark.parametrize("policy,n_range", [
        ("nested", (1, 12)), ("nested", (4, 9)), ("uniform", (1, 8)),
        ("uniform", (3, 6)), ("mission", (2, 7))])
    def test_equals_whole_array_oracle(self, robot8, corridor, policy, n_range):
        reps = rb.coverage_curve(robot8, corridor, n_range, self.SAMPLES,
                                 surface_shift(3), layout_policy=policy)
        points = lattice_points(corridor, self.SAMPLES, surface_shift(3))
        lo, hi = n_range
        robots = [rb.make_robot(n, mounts=rb.build_mounts(hi)[:n]) if policy == "nested"
                  else robot8.with_boom_count(n, policy) for n in range(lo, hi + 1)]
        oracle = [whole_array_coverage(robot, points) for robot in robots]
        assert column_records(reps) == oracle

    def test_given_mounts_equal_oracle(self, corridor):
        # An explicit robot is covered as given, whatever the layout policy.
        points = lattice_points(corridor, self.SAMPLES, surface_shift(3))
        for n in (2, 3):
            given = rb.make_robot(n, mounts=rb.build_mounts(n, layout="mission")[::-1])
            oracle = whole_array_coverage(given, points)
            for policy in ("nested", "uniform", "mission"):
                reps = rb.coverage_curve(given, corridor, (n, n), self.SAMPLES,
                                         surface_shift(3), layout_policy=policy)
                assert column_records(reps) == [oracle]
            assert row(coverage_from_mounts(given, points)) == oracle

    def test_feasibility_calls_stay_within_chunk(self, robot8, corridor, monkeypatch):
        sizes = []

        def recording(robot, points, out):
            sizes.append(len(points))
            return feasibility_matrix(robot, points, out)

        monkeypatch.setattr(interference, "feasibility_matrix", recording)
        rb.coverage_curve(robot8, corridor, (1, 10), self.SAMPLES, surface_shift(3))
        points = lattice_points(corridor, self.SAMPLES, surface_shift(3))
        in_reach = np.linalg.norm(points, axis=1) <= robot8.L_max + robot8.body_radius
        assert sizes and 10 * max(sizes) <= stance.PASS_PAIRS
        # one pass over the samples within reach: the nested lattice is one block
        assert 0 < sum(sizes) == in_reach.sum() < self.SAMPLES

    @pytest.mark.parametrize("policy,n_range", [("nested", (1, 12)), ("uniform", (3, 6))])
    def test_draw_chunks_of_seven(self, robot8, corridor, policy, n_range, monkeypatch):
        # Seven lattice points per chunk, a pass at n_max mounts: the whole
        # lattice, built at once, is the oracle.
        monkeypatch.setattr(stance, "PASS_PAIRS", 7 * n_range[1])
        reps = rb.coverage_curve(robot8, corridor, n_range, self.SAMPLES,
                                 surface_shift(3), layout_policy=policy)
        points = lattice_points(corridor, self.SAMPLES, surface_shift(3))
        lo, hi = n_range
        robots = [rb.make_robot(n, mounts=rb.build_mounts(hi)[:n]) if policy == "nested"
                  else robot8.with_boom_count(n, policy) for n in range(lo, hi + 1)]
        assert column_records(reps) == [whole_array_coverage(r, points) for r in robots]

    def test_given_mounts_need_one_set_per_count(self, corridor, rng):
        # Explicit mounts serve their own boom count alone.
        given = rb.make_robot(3, mounts=rb.build_mounts(3))
        for n_range in [(2, 3), (3, 4), (2, 2), (4, 4), (1, 10)]:
            with pytest.raises(ValueError, match="explicit mounts are given for 3 booms"):
                rb.coverage_curve(given, corridor, n_range, 100, rng.random(2))


def unscreened_coverage(blocks, points):
    """Reference: the coverage records of mount blocks, every sample through feasibility_matrix."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s = len(points)
    records = []
    for robot, ns in blocks:
        ok, _ = feasibility_matrix(robot, points)
        counts = np.zeros((robot.boom_count + 1, s), dtype=np.int32)
        np.cumsum(ok, axis=0, out=counts[1:])
        union = (counts[1:] >= 1).sum(axis=1)
        for n in ns:
            h = np.bincount(counts[n], minlength=n + 1)
            records.append(dict(
                boom_count=n, sample_count=s, unique_pct=float((s - h[0]) / s),
                overlap_pct=float((s - h[:2].sum()) / s),
                per_boom_marginal=np.diff(union[:n] / s, prepend=0.0).tolist(),
                count_histogram=h.tolist()))
    return records


class TestReachScreen:
    """The screened pass against every sample through the feasibility matrix."""

    SAMPLES = 3000

    @pytest.fixture(autouse=True)
    def small_chunk(self, monkeypatch):
        # Passes of 100 samples at 12 mounts or 200 at 6, each one chunk.
        monkeypatch.setattr(stance, "PASS_PAIRS", 1200)

    @pytest.fixture
    def points(self, corridor):
        return lattice_points(corridor, self.SAMPLES, surface_shift(8))

    def screened(self, blocks, points):
        def chunks(size):
            return (points[i:i + size] for i in range(0, len(points), size))
        return column_records(interference._block_coverage(blocks, chunks, len(points)))

    def test_nested_block(self, points):
        blocks = [(rb.make_robot(12), range(1, 13))]
        assert self.screened(blocks, points) == unscreened_coverage(blocks, points)

    def test_uniform_blocks(self, points):
        blocks = [(rb.make_robot(n), (n,)) for n in range(1, 9)]
        assert self.screened(blocks, points) == unscreened_coverage(blocks, points)

    def test_reach_boundary_counts(self, robot8):
        # Samples exactly L_max along each shoulder's axis, each the centre of
        # a small floor: a sample that feasibility_matrix accepts comes out
        # of the surface stream, and is covered, even where rounding puts it
        # past L_max + |shoulder| from the body centre.
        past_bound = 0
        for n in range(1, 41):
            robot = robot8.with_boom_count(n)
            shoulders = robot.shoulders
            points = shoulders + robot.L_max * robot.axes
            ok, _ = feasibility_matrix(robot, points)
            accepted = ok.diagonal()
            past_bound += (accepted & (np.linalg.norm(points, axis=1)
                                       > robot.L_max + np.linalg.norm(shoulders, axis=1))).sum()
            reach = interference._reach(robot)
            for p, covered in zip(points, accepted):
                floor = rb.floor(1.0, 1.0, Frame(origin=p))
                kept = stream_points(floor, 1, (0.0, 0.5), reach)
                assert np.array_equal(kept, [p])  # the same values (0.0 for a -0.0)
                record = row(rb.coverage_curve(robot, floor, (n, n), 1, (0.0, 0.5)))
                assert record["count_histogram"][0] == (0 if covered else 1)
        assert past_bound > 0

    @pytest.mark.parametrize("policy,blocks", [("nested", 1), ("uniform", 3)])
    def test_debug_log_per_pass(self, robot8, corridor, caplog, monkeypatch, policy, blocks):
        made = []  # the pairs of every workspace allocated
        monkeypatch.setattr(interference, "feasibility_workspace",
                            lambda pairs: made.append(pairs) or feasibility_workspace(pairs))
        with caplog.at_level(logging.DEBUG, logger="reachbot"):
            rb.coverage_curve(robot8, corridor, (4, 6), self.SAMPLES,
                              surface_shift(42), layout_policy=policy)
        points = lattice_points(corridor, self.SAMPLES, surface_shift(42))
        reach = robot8.L_max + robot8.body_radius
        in_reach = (np.linalg.norm(points, axis=1) <= reach).sum()
        # On the corridor's axis the along-axis window is |x| <= sqrt(R^2 - radius^2).
        in_window = (np.abs(points[:, 0]) <= np.sqrt(reach ** 2 - 15.0 ** 2) + 1e-6).sum()
        (stream,) = [r.getMessage() for r in caplog.records if r.name == "reachbot.terrain"]
        (passes,) = [r.getMessage() for r in caplog.records if r.name == "reachbot.interference"]
        total, generated, ranges, within, r = re.fullmatch(
            r"surface stream: shifted lattice of (\d+) points, (\d+) generated in (\d+) index "
            r"range\(s\) of the along-axis window, (\d+) within R = ([\d.]+) m", stream).groups()
        assert (int(total), int(within)) == (self.SAMPLES, in_reach)
        # The index ranges hold the window's points and a margin of two or
        # three indices at each end of the window.
        assert in_window + 4 <= int(generated) <= in_window + 6
        assert int(ranges) in (1, 2)
        assert float(r) == pytest.approx(reach, abs=1e-3)
        fields = re.fullmatch(
            r"coverage over (\d+) mount block\(s\): (\d+) of (\d+) samples given in (\d+) "
            r"feasibility passes, the largest (\d+) samples", passes).groups()
        n_blocks, given, total, passes, largest = map(int, fields)
        assert (n_blocks, given, total) == (blocks, in_reach, self.SAMPLES)
        # 200 samples a pass at 6 mounts, each one chunk, in one workspace
        size = stance.per_pass(stance.PAIR_BYTES * 6)
        assert size == 200 and made == [6 * size]
        assert largest == size < in_reach
        # one chunk of 200 lattice indices a pass, in at most two index ranges
        assert -(-in_reach // size) <= passes <= -(-int(generated) // size) + 1

    @pytest.mark.parametrize("policy", ["nested", "uniform"])
    def test_debug_log_counts_chunks_and_passes(self, robot8, corridor, caplog, monkeypatch,
                                                policy):
        # Passes of at most 100 samples (a budget of 600 pairs at 6 mounts),
        # each the points within R of one chunk of 100 lattice indices: each
        # block's robot is given every pass, and the largest pass is the
        # largest feasibility matrix any of them was given.
        monkeypatch.setattr(stance, "PASS_PAIRS", 600)
        sizes = []

        def recording(robot, points, out):
            sizes.append(len(points))
            return feasibility_matrix(robot, points, out)

        monkeypatch.setattr(interference, "feasibility_matrix", recording)
        with caplog.at_level(logging.DEBUG, logger="reachbot"):
            rb.coverage_curve(robot8, corridor, (4, 6), self.SAMPLES,
                              surface_shift(42), layout_policy=policy)
        ((generated, within),) = re.findall(r"(\d+) generated in .* (\d+) within R", caplog.text)
        ((passes, largest),) = re.findall(
            r"in (\d+) feasibility passes, the largest (\d+) samples$", caplog.text, re.M)
        blocks = 1 if policy == "nested" else 3
        assert stance.per_pass(stance.PAIR_BYTES * 6) == 100
        assert len(sizes) == blocks * int(passes)
        assert -(-int(within) // 100) <= int(passes) <= -(-int(generated) // 100) + 1
        assert sum(sizes) == blocks * int(within)
        assert int(largest) == max(sizes) <= 100


def tilt(a, b):
    """A rotation about z by a, then about x by b."""
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    return (np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1.0]])
            @ np.array([[1, 0, 0], [0, cb, -sb], [0, sb, cb]]))


WINDOW_TERRAINS = {
    "corridor": rb.corridor(15, 100),
    "corridor_tilted": rb.corridor(15, 100, Frame(tilt(0.7, 0.3), np.array([3.0, -2.0, 1.5]))),
    "corridor_3m": rb.corridor(3, 100),
    "robot_off_axis": rb.corridor(15, 100, Frame(origin=np.array([0.0, 9.0, -4.0]))),
    "wall_tilted": rb.wall(30, 60, Frame(tilt(1.1, -0.4), np.array([-5.0, 2.0, 3.0]))),
    "floor_tilted": rb.floor(30, 80, Frame(tilt(-0.5, 0.9), np.array([1.0, 2.0, -4.0]))),
}


class TestAlongWindow:
    """Coverage that builds only the samples in the along-axis window, against
    every point of the whole lattice (``lattice_points``) through the oracles."""

    SAMPLES = 3000

    @pytest.fixture(autouse=True)
    def small_chunk(self, monkeypatch):
        # Passes of 100 samples at 12 mounts, each one chunk of 100 lattice points.
        monkeypatch.setattr(stance, "PASS_PAIRS", 1200)

    @staticmethod
    def curve_and_oracle(terrain, policy, n_range, shift, samples):
        lo, hi = n_range
        robot = rb.make_robot(8)
        reps = rb.coverage_curve(robot, terrain, n_range, samples, shift,
                                 layout_policy=policy)
        points = lattice_points(terrain, samples, shift)
        robots = [rb.make_robot(n, mounts=rb.build_mounts(hi)[:n]) if policy == "nested"
                  else robot.with_boom_count(n, policy) for n in range(lo, hi + 1)]
        return column_records(reps), [whole_array_coverage(r, points) for r in robots]

    @pytest.mark.parametrize("policy,n_range", [("nested", (1, 12)), ("uniform", (1, 6))])
    @pytest.mark.parametrize("name", WINDOW_TERRAINS)
    def test_curve_equals_oracles(self, name, policy, n_range):
        terrain = WINDOW_TERRAINS[name]
        got, want = self.curve_and_oracle(terrain, policy, n_range,
                                          surface_shift(11), self.SAMPLES)
        assert got == want
        assert got[-1]["unique_pct"] > 0
        lo, hi = n_range
        blocks = ([(rb.make_robot(hi), range(lo, hi + 1))] if policy == "nested"
                  else [(rb.make_robot(n), (n,)) for n in range(lo, hi + 1)])
        points = lattice_points(terrain, self.SAMPLES, surface_shift(11))
        assert got == unscreened_coverage(blocks, points)

    @pytest.mark.parametrize("name", WINDOW_TERRAINS)
    def test_built_rows_are_full_rows(self, name):
        terrain, reach = WINDOW_TERRAINS[name], interference._reach(rb.make_robot(12))
        full = lattice_points(terrain, self.SAMPLES, surface_shift(11))
        built = stream_points(terrain, self.SAMPLES, surface_shift(11), reach)
        row_of = {p.tobytes(): i for i, p in enumerate(full)}
        assert len(row_of) == self.SAMPLES
        rows = np.array([row_of.get(p.tobytes(), -1) for p in built])
        # bit-identical rows, in draw order, and every full row within reach among them
        assert (rows >= 0).all() and (np.diff(rows) > 0).all()
        in_reach = np.flatnonzero(np.linalg.norm(full, axis=1) <= reach)
        assert len(in_reach) > 0 and np.isin(in_reach, rows).all()
        assert len(built) < self.SAMPLES

    @pytest.mark.parametrize("name", ["corridor", "corridor_tilted", "robot_off_axis"])
    def test_samples_on_the_window_bound(self, name):
        # One-point lattices at c_along +- sqrt(R^2 - h^2), walked +-40 ulps,
        # at the angle of the circle point nearest the body centre: distances
        # straddle R, and every point whose computed distance is within R
        # must come out of the stream and be covered as the oracle says.
        terrain = WINDOW_TERRAINS[name]
        (radius, length), frame = terrain.dims, terrain.frame
        robot = rb.make_robot(12)
        reach = interference._reach(robot)
        c = -(frame.origin @ frame.rotation)
        h = radius - np.hypot(c[1], c[2])
        half = np.sqrt(reach ** 2 - h ** 2)
        angle = np.mod(np.arctan2(c[2], c[1]), 2 * np.pi) if np.hypot(c[1], c[2]) else 0.0
        inside = 0
        for u0 in ((c[0] - half) / length + 0.5, (c[0] + half) / length + 0.5):
            for s0 in u0 - 0.5 + np.arange(-40, 41) * np.spacing(u0):
                full = lattice_points(terrain, 1, (s0, angle / (2 * np.pi)))
                within = np.linalg.norm(full, axis=1)[0] <= reach
                inside += within
                built = stream_points(terrain, 1, (s0, angle / (2 * np.pi)), reach)
                assert built.tobytes() == (full.tobytes() if within else b"")
                record = row(rb.coverage_curve(robot, terrain, (12, 12), 1,
                                               (s0, angle / (2 * np.pi))))
                assert record == whole_array_coverage(robot, full)
        assert 0 < inside < 162

    @pytest.mark.parametrize("terrain", [
        rb.corridor(15, 100, Frame(origin=np.array([500.0, 0, 0]))),
        rb.floor(30, 80, Frame(tilt(0.2, 0.1), np.array([0, 0, -40.0])))],
        ids=["corridor", "floor"])
    def test_nothing_in_reach(self, terrain, caplog):
        assert list(surface_point_chunks(terrain, 500, surface_shift(11), 20.5, 100)) == []
        with caplog.at_level(logging.DEBUG, logger="reachbot"):
            records, oracle = self.curve_and_oracle(terrain, "nested", (1, 4),
                                                    surface_shift(11), 500)
        assert ("shifted lattice of 500 points, 0 generated in 0 index range(s) of the "
                "along-axis window, 0 within R" in caplog.text)
        assert "0 of 500 samples given" in caplog.text
        assert records == oracle
        for n, record in enumerate(records, 1):
            assert record["unique_pct"] == record["overlap_pct"] == 0.0
            assert record["count_histogram"] == [500] + [0] * n


def test_coverage_peak_memory_flat_in_samples(corridor):
    # Live at the peak: the pass workspace (50 bytes a pair of PASS_PAIRS,
    # 1.6 MiB) and one chunk of the surface stream, 2,048 lattice indices
    # (about 0.25 MiB); no array grows with the sample count.
    peaks = {}
    for count in (200_000, 2_000_000):
        shift = surface_shift(42)
        tracemalloc.start()
        try:
            rb.coverage_curve(rb.make_robot(16), corridor, (1, 16), count, shift)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2_000_000] <= peaks[200_000] + 64 * 1024
    assert peaks[2_000_000] < 50 * stance.PASS_PAIRS + 2 ** 20


@pytest.mark.parametrize("policy", ["nested", "uniform"])
def test_each_stream_chunk_is_one_pass(robot8, corridor, monkeypatch, policy):
    # The shipped coverage (N = 1..10, 20,000 samples): every chunk the
    # surface stream yields holds at most one pass's samples at 10 mounts,
    # and each block's feasibility matrix is given that chunk itself, once.
    chunks, given = [], []

    def streaming(*args):
        for chunk in surface_point_chunks(*args):
            chunks.append(chunk)
            yield chunk

    def recording(robot, points, out):
        given.append(points)
        return feasibility_matrix(robot, points, out)

    monkeypatch.setattr(interference, "surface_point_chunks", streaming)
    monkeypatch.setattr(interference, "feasibility_matrix", recording)
    rb.coverage_curve(robot8, corridor, (1, 10), 20_000, surface_shift(42), policy)
    blocks = 1 if policy == "nested" else 10
    assert len(chunks) >= 2 and sum(map(len, chunks)) > stance.PASS_PAIRS // 10
    assert all(0 < len(c) <= stance.PASS_PAIRS // 10 for c in chunks)
    assert len(given) == blocks * len(chunks)
    assert all(p is c for p, c in zip(given, (c for c in chunks for _ in range(blocks))))


def test_coverage_passes_reuse_one_workspace(monkeypatch):
    # tracemalloc's peak, reset where each pass begins (a one-block coverage
    # makes one feasibility call a pass), rises by under 64 KiB in every pass
    # after the first: the pass arrays live in one workspace, allocated once.
    robot = rb.make_robot(16)
    points = np.random.default_rng(5).uniform(-25.0, 25.0, (30_000, 3))
    marks = []

    def marking(*args):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return feasibility_matrix(*args)

    monkeypatch.setattr(interference, "feasibility_matrix", marking)
    tracemalloc.start()
    try:
        coverage_from_mounts(robot, points)
        marks.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    rises = [peak - current for (current, _), (_, peak) in zip(marks, marks[1:])]
    assert len(rises) >= 5 and max(rises[1:]) < 64 * 1024


def test_coverage_csv(robot8, corridor):
    reps = rb.coverage_curve(robot8, corridor, (1, 3), 1000, surface_shift(1))
    rows = coverage_csv_rows(reps)
    assert rows[0] == "N,unique_pct,overlap_pct,marginal_pct"
    assert len(rows) == 4
    assert rows[1].startswith("1,")
