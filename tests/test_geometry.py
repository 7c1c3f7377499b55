import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercut.errors import NumericRangeError
from hypercut.geometry import (PointH, ball_volume, distance,
                               inverse_ball_radius, log_sphere_step_arrays,
                               sphere_step_arrays)
from oracles import MobiusReal, mobius_apply, sphere_point

ORIGIN = PointH(0.0, 1.0)

finite_x = st.floats(-20.0, 20.0)
finite_y = st.floats(0.05, 50.0)


def rand_points(rng, n):
    return [PointH(x, y) for x, y in
            zip(rng.uniform(-5, 5, n), rng.uniform(0.1, 10, n))]


def rand_mobius(rng):
    g = MobiusReal.translation(rng.uniform(-3, 3))
    g = g.compose(MobiusReal.rotation(rng.uniform(0, math.pi)))
    return g.compose(MobiusReal.dilation(rng.uniform(-2, 2)))


class TestPointH:
    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValueError):
            PointH(0.0, 0.0)
        with pytest.raises(ValueError):
            PointH(0.0, -1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericRangeError):
            PointH(math.nan, 1.0)
        with pytest.raises(NumericRangeError):
            PointH(0.0, math.inf)


class TestDistance:
    def test_identical_points(self):
        assert distance(ORIGIN, ORIGIN) == 0.0

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5, 7.0])
    def test_vertical_segment(self, r):
        # 1 + (e^r - 1)^2 / (2 e^r) = cosh r makes the value exactly r
        assert distance(ORIGIN, PointH(0.0, math.exp(r))) == pytest.approx(
            r, abs=1e-12)

    def test_unit_horizontal_offset(self):
        # independent high-precision evaluation of acosh(3/2)
        expected = float(mpmath.acosh(mpmath.mpf(3) / 2))
        assert distance(ORIGIN, PointH(1.0, 1.0)) == pytest.approx(
            expected, abs=1e-15)
        assert expected == pytest.approx(0.9624236501, abs=1e-10)

    def test_triangle_inequality_bulk(self):
        rng = np.random.default_rng(101)
        pts = rand_points(rng, 3 * 10_000)
        for a, b, c in zip(pts[0::3], pts[1::3], pts[2::3]):
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for a, b in zip(rand_points(rng, 50), rand_points(rng, 50)):
            assert distance(a, b) == pytest.approx(distance(b, a), abs=1e-13)


class TestMobius:
    def test_identity(self):
        z = PointH(0.3, 2.0)
        assert mobius_apply(MobiusReal.identity(), z) == z

    def test_translation(self):
        w = mobius_apply(MobiusReal(1, 1, 0, 1), ORIGIN)
        assert (w.x, w.y) == (1.0, 1.0)

    def test_inversion(self):
        w = mobius_apply(MobiusReal(0, -1, 1, 0), PointH(0.0, 2.0))
        assert (w.x, w.y) == pytest.approx((0.0, 0.5), abs=1e-15)

    def test_normalization_and_projective_sign(self):
        g = MobiusReal(-2.0, 0.0, 0.0, -0.5)
        assert g.a * g.d - g.b * g.c == pytest.approx(1.0, abs=1e-12)
        assert g.almost_equal(MobiusReal(2.0, 0.0, 0.0, 0.5))

    def test_rejects_degenerate(self):
        with pytest.raises(NumericRangeError):
            MobiusReal(1.0, 2.0, 2.0, 4.0)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = rand_mobius(rng)
            z, w = rand_points(rng, 2)
            assert distance(mobius_apply(g, z), mobius_apply(g, w)) == \
                pytest.approx(distance(z, w), abs=1e-9)

    @given(finite_x, st.floats(-5, 5), finite_y)
    @settings(max_examples=80, deadline=None)
    def test_image_stays_in_half_plane(self, s, t, y):
        g = MobiusReal.translation(s).compose(MobiusReal.rotation(abs(t)))
        w = mobius_apply(g, PointH(0.0, y))
        assert w.y > 0.0


class TestSpherePoint:
    def test_vertical_direction(self):
        # theta = pi/2 sends i straight up to e^r i
        w = sphere_point(ORIGIN, 1.3, math.pi / 2)
        assert (w.x, w.y) == pytest.approx((0.0, math.exp(1.3)), abs=1e-12)

    def test_zero_radius(self):
        z = PointH(0.4, 0.7)
        w = sphere_point(z, 0.0, 1.0)
        assert (w.x, w.y) == pytest.approx((z.x, z.y), abs=0)

    def test_height_at_diagonal_angle(self):
        w = sphere_point(ORIGIN, 1.0, math.pi / 4)
        assert w.y == pytest.approx(1.0 / math.cosh(1.0), abs=1e-13)
        assert distance(ORIGIN, w) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("r", [0.1, 1.0, 4.0, 12.0])
    def test_closed_curve_at_constant_distance(self, r):
        thetas = np.linspace(0.0, math.pi, 400, endpoint=False)
        worst = max(abs(distance(ORIGIN, sphere_point(ORIGIN, r, t)) - r)
                    for t in thetas)
        assert worst <= 1e-9

    def test_conjugated_base_point(self):
        z = PointH(-1.7, 0.4)
        for t in np.linspace(0, math.pi, 17, endpoint=False):
            assert distance(z, sphere_point(z, 2.0, t)) == pytest.approx(
                2.0, abs=1e-10)

    def test_array_steps_match_scalar_step(self):
        # y' is a product, so it agrees relatively; x' = x + y re can
        # cancel, so it agrees relative to the sizes of x and of the
        # sphere's Euclidean radius y sinh r
        rng = np.random.default_rng(1606)
        for r in rng.uniform(0.0, 10.0, 25):
            x = rng.uniform(-5.0, 5.0, 200)
            y = 10.0 ** rng.uniform(-3.0, 3.0, 200)
            theta = rng.uniform(0.0, math.pi, 200)
            want = [sphere_point(PointH(a, b), r, t)
                    for a, b, t in zip(x, y, theta)]
            wx = np.array([w.x for w in want])
            wy = np.array([w.y for w in want])
            x_tol = 1e-12 * (np.abs(x) + y * math.sinh(r))
            sx, sy = sphere_step_arrays(x, y, r, theta)
            assert np.all(np.abs(sx - wx) <= x_tol)
            assert np.allclose(sy, wy, rtol=1e-12, atol=0.0)
            lx, lny = log_sphere_step_arrays(x, np.log(y), r, theta)
            assert np.all(np.abs(lx - wx) <= x_tol)
            assert np.allclose(lny, np.log(wy), rtol=0.0, atol=1e-12)
            for a, b, c, d in zip(x, y, sx, sy):
                assert distance(PointH(a, b), PointH(c, d)) == \
                    pytest.approx(r, abs=1e-9)


class TestBallVolume:
    def test_zero(self):
        assert ball_volume(0.0) == 0.0

    def test_round_trip(self):
        assert inverse_ball_radius(ball_volume(1.0)) == pytest.approx(
            1.0, abs=1e-12)

    def test_level_five_radius(self):
        # area of the level-5 quotient is 60 * pi/3, giving acosh(11)
        expected = float(mpmath.acosh(11))
        assert inverse_ball_radius(60 * math.pi / 3) == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(3.0889, abs=1e-4)

    def test_increasing_and_convex(self):
        r = np.linspace(0.01, 10, 300)
        v = np.array([ball_volume(x) for x in r])
        assert np.all(np.diff(v) > 0)
        assert np.all(np.diff(v, 2) > 0)
