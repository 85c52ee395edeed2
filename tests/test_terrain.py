import logging
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import reachbot as rb
from reachbot import terrain
from reachbot.rng import substream, substream_uniforms
from reachbot.terrain import (CORRIDOR, COVERAGE_CHUNK, WALL, Frame, Terrain,
                              anchors_to_csv_rows, sample_pools, surface_point_chunks)
from conftest import lattice_local, lattice_points, surface_area, surface_shift


def to_local(frame: Frame, pts: np.ndarray) -> np.ndarray:
    """World points in the frame's local coordinates (inverse of Frame.to_world)."""
    return (np.asarray(pts, dtype=float) - frame.origin) @ frame.rotation


def surface_distance(t: Terrain, pts: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the finite graspable surface."""
    local = to_local(t.frame, np.atleast_2d(pts))
    half_len = t.longitudinal_extent / 2.0
    if t.kind == CORRIDOR:
        radial = np.abs(np.hypot(local[:, 1], local[:, 2]) - t.dims[0])
        axial = np.maximum(np.abs(local[:, 0]) - half_len, 0.0)
        return np.hypot(radial, axial)
    half_w = t.dims[0] / 2.0
    if t.kind == WALL:
        off = np.abs(local[:, 0])
        ex_v = np.maximum(np.abs(local[:, 1]) - half_w, 0.0)
        ex_u = np.maximum(np.abs(local[:, 2]) - half_len, 0.0)
    else:
        off = np.abs(local[:, 2])
        ex_v = np.maximum(np.abs(local[:, 0]) - half_w, 0.0)
        ex_u = np.maximum(np.abs(local[:, 1]) - half_len, 0.0)
    return np.sqrt(off**2 + ex_v**2 + ex_u**2)


def unit_square_coords(t: Terrain, pts: np.ndarray) -> np.ndarray:
    """Area-preserving (a, b) in [0,1]^2 for points on the surface.

    Useful for binned uniformity checks: area-uniform points map to
    uniform points on the unit square.
    """
    local = to_local(t.frame, np.atleast_2d(pts))
    half_len = t.longitudinal_extent / 2.0
    if t.kind == CORRIDOR:
        theta = np.mod(np.arctan2(local[:, 2], local[:, 1]), 2.0 * np.pi)
        a = theta / (2.0 * np.pi)
        b = (local[:, 0] + half_len) / t.longitudinal_extent
    else:
        half_w = t.dims[0] / 2.0
        if t.kind == WALL:
            a = (local[:, 1] + half_w) / t.dims[0]
            b = (local[:, 2] + half_len) / t.longitudinal_extent
        else:
            a = (local[:, 0] + half_w) / t.dims[0]
            b = (local[:, 1] + half_len) / t.longitudinal_extent
    return np.column_stack([a, b])


class TestConstruction:
    def test_corridor_area(self):
        t = rb.corridor(radius=15, length=100)
        assert surface_area(t) == pytest.approx(2 * np.pi * 15 * 100, abs=1e-6)

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            rb.corridor(radius=0, length=100)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="length must be positive"):
            rb.corridor(radius=1, length=-5)

    def test_wall_area(self):
        assert surface_area(rb.wall(10, 30)) == pytest.approx(300)

    def test_floor_area(self):
        assert surface_area(rb.floor(2, 3)) == pytest.approx(6)

    def test_unit_corridor_area(self):
        assert surface_area(rb.corridor(1, 1)) == pytest.approx(2 * np.pi)

    def test_make_terrain_defaults(self):
        t = rb.make_terrain({"kind": "corridor"})
        assert t.dims == (15.0, 100.0)

    def test_make_terrain_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            rb.make_terrain({"kind": "funnel"})

    def test_make_terrain_unknown_field(self):
        with pytest.raises(ValueError, match="unknown terrain fields"):
            rb.make_terrain({"kind": "corridor", "radius": 1, "bogus": 2})


class TestSampling:
    def test_zero_anchors(self, corridor, rng):
        aset = rb.sample_anchors(corridor, 0, 40, rng)
        assert aset.count == 0

    def test_on_surface(self, corridor):
        aset = rb.sample_anchors(corridor, 10000, 40, substream(7, 0, "anchors"))
        radial = np.hypot(aset.points[:, 1], aset.points[:, 2])
        assert np.max(np.abs(radial - 15.0)) < 1e-9
        assert surface_distance(corridor, aset.points).max() < 1e-9

    def test_axial_uniformity_ks(self, corridor):
        aset = rb.sample_anchors(corridor, 10000, 40, substream(7, 0, "anchors"))
        x = (aset.points[:, 0] + 20.0) / 40.0
        stat = stats.kstest(x, "uniform").statistic
        assert stat < 0.02

    def test_window_validation(self, corridor, rng):
        with pytest.raises(ValueError, match="window"):
            rb.sample_anchors(corridor, 5, 200, rng)

    def test_single_surface_point(self, corridor, rng):
        pts = rb.sample_surface_points(corridor, 1, rng.random(2))
        assert pts.shape == (1, 3)
        assert surface_distance(corridor, pts).max() < 1e-9

    def test_angle_half_fraction(self, corridor):
        pts = rb.sample_surface_points(corridor, 20000, surface_shift(3))
        angle = np.mod(np.arctan2(pts[:, 2], pts[:, 1]), 2 * np.pi)
        frac = np.mean(angle < np.pi)
        assert abs(frac - 0.5) < 0.02

    def test_empty_surface_points(self, corridor, rng):
        assert rb.sample_surface_points(corridor, 0, rng.random(2)).shape == (0, 3)

    def test_reproducible(self, corridor):
        a = rb.sample_anchors(corridor, 500, 40, substream(11, 2, "anchors"))
        b = rb.sample_anchors(corridor, 500, 40, substream(11, 2, "anchors"))
        assert a.points.tobytes() == b.points.tobytes()

    @pytest.mark.parametrize("terrain", [rb.corridor(15, 100), rb.wall(10, 30), rb.floor(8, 12)])
    def test_on_surface_all_kinds(self, terrain):
        pts = rb.sample_surface_points(terrain, 2000, surface_shift(5))
        assert surface_distance(terrain, pts).max() < 1e-9

    def test_chi_square_area_density(self, corridor):
        # 8x8 grid over area-preserving parameters, significance 0.001
        pts = rb.sample_surface_points(corridor, 20000, surface_shift(13))
        ab = unit_square_coords(corridor, pts)
        counts, _, _ = np.histogram2d(ab[:, 0], ab[:, 1], bins=8, range=[[0, 1], [0, 1]])
        expected = 20000 / 64.0
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(1 - 0.001, 63)

    @pytest.mark.parametrize("terrain", [rb.corridor(15, 100), rb.wall(10, 30), rb.floor(8, 12)],
                             ids=["corridor", "wall", "floor"])
    def test_surface_draw_peak_memory(self, terrain):
        # Live at the peak: the yielded chunks and their concatenation (48
        # bytes a point), or one chunk's temporaries.
        count, shift = 100_000, surface_shift(42)
        tracemalloc.start()
        try:
            rb.sample_surface_points(terrain, count, shift)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * count + 128 * COVERAGE_CHUNK

    @pytest.mark.parametrize("terrain", [
        rb.corridor(15, 100), rb.wall(30, 60, frame=Frame(origin=np.array([-5.0, 0, 0]))),
        rb.floor(30, 80, frame=Frame(origin=np.array([0, 0, -4.0])))],
        ids=["corridor", "wall", "floor"])
    def test_windowed_draw_peak_memory(self, terrain):
        # As above, for the points within reach only: no array spans the
        # lattice points outside the along-axis window.
        count = 100_000
        shift = surface_shift(42)
        built = len(rb.sample_surface_points(terrain, count, shift, 20.5))
        tracemalloc.start()
        try:
            rb.sample_surface_points(terrain, count, shift, 20.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < built < count
        assert peak <= 48 * built + 128 * COVERAGE_CHUNK

    def test_rotated_frame_points_on_surface(self):
        c, s = np.cos(0.7), np.sin(0.7)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        t = rb.corridor(5, 20, frame=Frame(rotation=rot, origin=np.array([1.0, 2.0, 3.0])))
        pts = rb.sample_surface_points(t, 500, surface_shift(1))
        assert surface_distance(t, pts).max() < 1e-9


def sample_reference(t: Terrain, count: int, window: float, rng) -> np.ndarray:
    """One pool drawn on its own: the per-generator draw, trig and frame transform."""
    u = rng.uniform(-window / 2.0, window / 2.0, count)
    if t.kind == CORRIDOR:
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        local = np.column_stack([u, t.dims[0] * np.cos(theta), t.dims[0] * np.sin(theta)])
    else:
        v = rng.uniform(-t.dims[0] / 2.0, t.dims[0] / 2.0, count)
        zeros = np.zeros(count)
        local = np.column_stack([zeros, v, u] if t.kind == WALL else [v, u, zeros])
    return local @ t.frame.rotation.T + t.frame.origin


def tilted_frame() -> Frame:
    """A rotation by 0.9 rad about (1, 2, 3) and an off-origin translation."""
    k = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    rot = np.eye(3) + np.sin(0.9) * K + (1 - np.cos(0.9)) * K @ K
    return Frame(rotation=rot, origin=np.array([3.5, -2.0, 7.25]))


def test_to_world_rounds_rows_alike_at_any_count():
    # On a tilted frame a lone row, each row of a (C, 1, 3) pool stack and
    # the same rows inside products of 2, 7 and 4,096 rows have the same bytes.
    frame = tilted_frame()
    local = np.random.default_rng(4).uniform(-20.0, 20.0, (4096, 3))
    many = frame.to_world(local)
    vector = np.array([row @ frame.rotation.T + frame.origin for row in local])
    assert (vector != many).any(axis=1).sum() > 100  # numpy's lone-row path rounds apart
    assert np.concatenate([frame.to_world(row[None]) for row in local]).tobytes() == many.tobytes()
    assert frame.to_world(local[:, None]).tobytes() == many.tobytes()
    for k in (2, 7):
        m = len(local) // k * k
        pieces = [frame.to_world(local[i:i + k]) for i in range(0, m, k)]
        assert np.concatenate(pieces).tobytes() == many[:m].tobytes()
        assert frame.to_world(local[:m].reshape(-1, k, 3)).tobytes() == many[:m].tobytes()


class TestSamplePools:
    @pytest.mark.parametrize("frame", [Frame(), tilted_frame()], ids=["identity", "tilted"])
    @pytest.mark.parametrize("make", [lambda f: rb.corridor(15, 100, frame=f),
                                      lambda f: rb.wall(10, 30, frame=f),
                                      lambda f: rb.floor(8, 12, frame=f)],
                             ids=["corridor", "wall", "floor"])
    def test_stacked_draw_is_per_generator_draw(self, make, frame):
        t = make(frame)
        window = min(10.0, t.longitudinal_extent)
        trials = (0, 5, 17, 99, 3)
        pools = sample_pools(t, 27, window, substream_uniforms(42, trials, "resample:8:3", 54))
        assert pools.shape == (5, 27, 3)
        for pool, trial in zip(pools, trials):
            rng_a, rng_b = substream(42, trial, "resample:8:3"), substream(42, trial, "resample:8:3")
            assert pool.tobytes() == sample_reference(t, 27, window, rng_a).tobytes()
            assert pool.tobytes() == rb.sample_anchors(t, 27, window, rng_b).points.tobytes()

    def test_draws_are_consumed_in_place(self, corridor):
        u = substream_uniforms(3, (0, 1), "anchors", 8)
        pools = sample_pools(corridor, 4, 40.0, u)
        assert np.array_equal(u[:, :4], pools[..., 0])  # scaled to the window, not copied


STREAM_TERRAINS = {
    "corridor": rb.corridor(15, 100),
    "corridor_tilted": rb.corridor(15, 100, tilted_frame()),
    "robot_off_axis": rb.corridor(15, 100, Frame(origin=np.array([0.0, 9.0, -4.0]))),
    "wall": rb.wall(30, 60, Frame(origin=np.array([-5.0, 0, 0]))),
    "floor": rb.floor(30, 80, tilted_frame()),
}


class TestSurfaceChunks:
    """The chunked, windowed surface stream against the whole shifted lattice."""

    @staticmethod
    def stream(t, count, shift, reach):
        chunks = list(surface_point_chunks(t, count, shift, reach))
        assert all(len(c) <= terrain.COVERAGE_CHUNK for c in chunks)
        return chunks, np.concatenate([np.empty((0, 3)), *chunks])

    @pytest.mark.parametrize("count", [0, 1, 1000])
    @pytest.mark.parametrize("reach", [None, 20.5], ids=["full", "reach"])
    @pytest.mark.parametrize("name", STREAM_TERRAINS)
    def test_chunks_of_seven_are_the_one_shot_rows(self, name, reach, count, monkeypatch):
        monkeypatch.setattr(terrain, "COVERAGE_CHUNK", 7)  # divides no count but 0
        t, shift = STREAM_TERRAINS[name], surface_shift(11)
        chunks, got = self.stream(t, count, shift, reach)
        want = lattice_points(t, count, shift, reach)
        if reach is None:
            assert [len(c) for c in chunks] == [min(7, count - i) for i in range(0, count, 7)]
        elif count == 1000:
            assert 0 < len(want) < count
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rb.sample_surface_points(t, count, shift, reach).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["corridor", "wall"])
    def test_default_chunks(self, name):
        t, count, shift = STREAM_TERRAINS[name], 2 * terrain.COVERAGE_CHUNK + 3, surface_shift(5)
        for reach in (None, 20.5):
            want = lattice_points(t, count, shift, reach)
            assert self.stream(t, count, shift, reach)[1].tobytes() == want.tobytes()

    def test_caller_buffer_kept(self, corridor):
        # The stream scales its unit coordinates in place, but never the
        # caller's shift: the same array serves a second stream unchanged.
        shift = surface_shift(9)
        kept = shift.copy()
        first = rb.sample_surface_points(corridor, 50, shift, 20.5)
        assert shift.tobytes() == kept.tobytes()
        assert first.tobytes() == rb.sample_surface_points(corridor, 50, shift, 20.5).tobytes()
        assert first.tobytes() == lattice_points(corridor, 50, kept, 20.5).tobytes()

    @pytest.mark.parametrize("shift", [(0.5,), (0.1, 0.2, 0.3), (float("nan"), 0.2),
                                       (0.2, float("inf"))])
    def test_shift_must_be_two_finite_doubles(self, corridor, shift):
        with pytest.raises(ValueError, match="shift must be two finite doubles"):
            rb.sample_surface_points(corridor, 10, shift)

    @pytest.mark.parametrize("where", ["window_centre", "window_start", "near_one"])
    @pytest.mark.parametrize("name", STREAM_TERRAINS)
    def test_window_across_the_wrap(self, name, where, caplog):
        # Lattice index 0 at the window's centre or on its start puts the
        # window's indices in two ranges, at the start and at the end; s0
        # just below 1 puts index 0 at the far end of the terrain.
        t, count, reach = STREAM_TERRAINS[name], 1000, 20.5
        lo, hi = terrain._along_window(t, reach)
        a, b = max(lo / t.longitudinal_extent + 0.5, 0.0), hi / t.longitudinal_extent + 0.5
        s0 = {"window_centre": np.mod((a + b) / 2 - 0.5 / count, 1.0),
              "window_start": np.mod(a - 0.5 / count, 1.0),
              "near_one": np.nextafter(1.0, 0.0)}[where]
        with caplog.at_level(logging.DEBUG, logger="reachbot.terrain"):
            got = self.stream(t, count, (s0, 0.3), reach)[1]
        want = lattice_points(t, count, (s0, 0.3), reach)
        assert 0 < len(want) < count
        assert got.tobytes() == want.tobytes()
        ranges = int(re.search(r"in (\d) index range", caplog.text).group(1))
        assert ranges == (1 if where == "near_one" else 2)

    @pytest.mark.parametrize("pattern", [
        (1, 0.0), (1, 0.61), (2, 0.5), (3, 0.13), (5, 0.9), (7, 0.37), (8, 0.75),
        (1, np.nextafter(1.0, 0.0))])
    def test_lone_rows(self, pattern, monkeypatch):
        # Chunks of `chunk` lattice points (1: every row is built alone) on a
        # tilted corridor, where numpy's vector path for a lone row rounds
        # differently from a matrix row: every chunking gives the bytes of
        # the one-shot lattice.
        chunk, s0 = pattern
        monkeypatch.setattr(terrain, "COVERAGE_CHUNK", chunk)
        t, count, reach = STREAM_TERRAINS["corridor_tilted"], 400, 40.0
        full = lattice_points(t, count, (s0, 0.2))
        vector = np.array([row @ t.frame.rotation.T + t.frame.origin
                           for row in lattice_local(t, count, (s0, 0.2))[0]])
        assert (vector != full).any()
        for r, want in ((None, full), (reach, lattice_points(t, count, (s0, 0.2), reach))):
            assert 20 < len(want) and (r is None or len(want) < count)
            assert self.stream(t, count, (s0, 0.2), r)[1].tobytes() == want.tobytes()

    def test_negative_count(self, corridor, rng):
        with pytest.raises(ValueError, match="non-negative"):
            rb.sample_surface_points(corridor, -1, rng.random(2))


def test_anchor_csv_format(corridor):
    aset = rb.sample_anchors(corridor, 2, 40, substream(0, 0, "anchors"))
    rows = anchors_to_csv_rows(aset, 5)
    assert rows[0] == "trial,index,x,y,z"
    assert len(rows) == 3
    assert rows[1].startswith("5,0,") and rows[2].startswith("5,1,")
