import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reachbot as rb
from reachbot.robot import MISSION_KEEPOUT_AXES, fibonacci_sphere


class TestMounts:
    def test_single_mount(self):
        mounts = rb.build_mounts(1, body_radius=0.5)
        assert len(mounts) == 1
        assert np.linalg.norm(mounts[0].position) == pytest.approx(0.5)

    def test_two_mounts_nearly_antipodal(self):
        mounts = rb.build_mounts(2)
        cos = float(mounts[0].axis @ mounts[1].axis)
        assert math.degrees(math.acos(np.clip(cos, -1, 1))) >= 170.0

    def test_mission_respects_keepouts(self):
        mounts = rb.build_mounts(8, layout="mission")
        cos_lim = math.cos(math.radians(30.0))
        for m in mounts:
            assert np.all(m.axis @ MISSION_KEEPOUT_AXES.T < cos_lim)

    def test_mission_is_the_smallest_lattice_with_room(self):
        # Oracle: the first n points outside the cones of each lattice size
        # m = n, n + 1, ... in turn; the first size with n of them is taken,
        # and it never needs more than 1.5 n points.
        cos_lim = math.cos(math.radians(30.0))
        for n in range(1, 65):
            for m in range(n, 2 * n + 1):
                lattice = fibonacci_sphere(m)
                free = lattice[np.all(lattice @ MISSION_KEEPOUT_AXES.T < cos_lim, axis=1)]
                if len(free) >= n:
                    break
            assert m <= 1.5 * n
            mounts = rb.build_mounts(n, body_radius=0.5, layout="mission")
            assert np.array([mt.position for mt in mounts]).tobytes() == (0.5 * free[:n]).tobytes()

    @pytest.mark.parametrize("layout", ["uniform", "mission"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 16, 32])
    def test_mounts_on_sphere_unit_axes(self, n, layout):
        mounts = rb.build_mounts(n, body_radius=0.5, layout=layout)
        assert len(mounts) == n
        for m in mounts:
            assert abs(np.linalg.norm(m.position) - 0.5) < 1e-9
            assert abs(np.linalg.norm(m.axis) - 1.0) < 1e-12

    def test_unknown_layout(self):
        with pytest.raises(ValueError, match="layout"):
            rb.build_mounts(4, layout="spiral")

    def test_lattice_deterministic(self):
        assert np.array_equal(fibonacci_sphere(9), fibonacci_sphere(9))

    def test_empty_lattice_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            fibonacci_sphere(0)


class TestRobotConfig:
    def test_total_mass_default_8(self):
        assert rb.total_mass(rb.make_robot(8)) == pytest.approx(26.0)

    def test_zero_booms_rejected(self):
        with pytest.raises(ValueError, match="boom count"):
            rb.make_robot(0)
        with pytest.raises(ValueError, match="boom_count must be >= 1"):
            rb.RobotConfig(boom_count=0, mounts=())

    def test_massless_booms(self):
        cfg = rb.make_robot(5, m_boom=0.0, m_gripper=0.0, m_shoulder=0.0)
        assert rb.total_mass(cfg) == pytest.approx(10.0)

    def test_mass_affine_in_boom_count(self):
        per_boom = 1.0 + 0.5 + 0.5
        masses = [rb.total_mass(rb.make_robot(n)) for n in range(1, 12)]
        diffs = np.diff(masses)
        assert np.allclose(diffs, per_boom)

    def test_length_limits_validated(self):
        with pytest.raises(ValueError, match="L_min < L_max"):
            rb.make_robot(2, L_min=5.0, L_max=2.0)

    def test_mount_count_mismatch(self):
        mounts = rb.build_mounts(3)
        with pytest.raises(ValueError, match="boom_count"):
            rb.RobotConfig(boom_count=4, mounts=tuple(mounts))

    def test_explicit_mounts_must_sit_on_body(self):
        bad = rb.MountSpec(position=np.array([1.0, 0, 0]), axis=np.array([1.0, 0, 0]))
        with pytest.raises(ValueError, match="body sphere"):
            rb.RobotConfig(boom_count=1, mounts=(bad,), body_radius=0.5)


class TestLayout:
    """The robot owns its mounts: it records their layout and holds their arrays."""

    def test_make_robot_records_the_layout(self):
        assert rb.make_robot(4).layout == "uniform"
        assert rb.make_robot(4, "mission").layout == "mission"
        given = rb.build_mounts(3, layout="mission")
        assert rb.make_robot(3, "mission", mounts=given).layout == "explicit"
        assert rb.RobotConfig(boom_count=3, mounts=tuple(given)).layout == "uniform"

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="unknown mount layout 'spiral'"):
            rb.RobotConfig(boom_count=1, mounts=tuple(rb.build_mounts(1)), layout="spiral")

    @pytest.mark.parametrize("layout", ["uniform", "mission"])
    def test_mount_arrays(self, layout):
        robot = rb.make_robot(9, layout, body_radius=0.7)
        positions = np.array([m.position for m in robot.mounts])
        assert np.array_equal(robot.shoulders, positions)
        assert np.array_equal(robot.axes, [m.axis for m in robot.mounts])
        # -0.0 lattice coordinates are +0.0 in the shoulder array
        assert (positions == 0).any() and not np.signbit(robot.shoulders[positions == 0]).any()
        with pytest.raises(ValueError, match="read-only"):
            robot.shoulders[0, 0] = 1.0

    @pytest.mark.parametrize("layout", ["uniform", "mission"])
    def test_with_boom_count_keeps_the_layout(self, layout):
        robot = rb.make_robot(10, layout, L_max=17.0)
        assert robot.with_boom_count(10) is robot
        for n in range(1, 10):
            other = robot.with_boom_count(n)
            assert (other.layout, other.boom_count, other.L_max) == (layout, n, 17.0)
            assert np.array_equal(other.shoulders, rb.make_robot(n, layout).shoulders)
            assert np.array_equal(other.axes, rb.make_robot(n, layout).axes)
        flip = {"uniform": "mission", "mission": "uniform"}[layout]
        other = robot.with_boom_count(10, flip)
        assert other.layout == flip
        assert np.array_equal(other.shoulders, rb.make_robot(10, flip).shoulders)

    def test_explicit_robot_has_only_its_own_count(self):
        given = rb.make_robot(3, mounts=rb.build_mounts(3, layout="mission")[::-1])
        assert given.with_boom_count(3) is given
        for n in (1, 2, 4, 10):
            with pytest.raises(ValueError, match="explicit mounts are given for 3 booms"):
                given.with_boom_count(n)
        # a generated layout may still be asked for by name
        assert given.with_boom_count(4, "uniform").layout == "uniform"


class TestBuckling:
    def test_boom_only(self):
        assert rb.buckling_moment(0.0, 1.0, 3.721, 20.0) == pytest.approx(37.21)

    def test_gripper_and_boom(self):
        assert rb.buckling_moment(0.5, 1.0, 3.721, 20.0) == pytest.approx(74.42, abs=1e-9)

    def test_zero_length(self):
        assert rb.buckling_moment(3.0, 7.0, 9.81, 0.0) == 0.0

    def test_check_satisfied(self):
        rep = rb.check_buckling(100.0, rb.make_robot(8))
        assert rep.satisfied and rep.m_shoulder == pytest.approx(74.42)

    def test_check_strict_at_boundary(self):
        rep = rb.check_buckling(74.42, rb.make_robot(8))
        assert not rep.satisfied

    def test_zero_everything_not_satisfied(self):
        cfg = rb.make_robot(1, m_boom=0.0, m_gripper=0.0)
        assert not rb.check_buckling(0.0, cfg).satisfied

    @pytest.mark.parametrize("args", [(-0.5, 1.0, 3.721, 20.0), (0.5, -1.0, 3.721, 20.0),
                                      (0.5, 1.0, -3.721, 20.0), (0.5, 1.0, 3.721, -20.0)])
    def test_negative_moment_inputs_rejected(self, args):
        with pytest.raises(ValueError, match="buckling inputs must be non-negative"):
            rb.buckling_moment(*args)

    def test_negative_critical_moment_rejected(self):
        with pytest.raises(ValueError, match="m_critical must be non-negative"):
            rb.check_buckling(-1.0, rb.make_robot(8))

    @given(m_g=st.floats(0, 10), m_b=st.floats(0, 10),
           g=st.floats(0.1, 25), length=st.floats(0, 50))
    def test_linear_in_length(self, m_g, m_b, g, length):
        one = rb.buckling_moment(m_g, m_b, g, length)
        two = rb.buckling_moment(m_g, m_b, g, 2 * length)
        assert two == pytest.approx(2 * one, rel=1e-12, abs=1e-12)

    @given(m_g=st.floats(0, 10), m_b=st.floats(0, 10), g=st.floats(0.1, 25))
    def test_linear_in_gravity(self, m_g, m_b, g):
        base = rb.buckling_moment(m_g, m_b, 1.0, 20.0)
        assert rb.buckling_moment(m_g, m_b, g, 20.0) == pytest.approx(g * base, rel=1e-12, abs=1e-12)
