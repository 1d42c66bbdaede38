import math
import random

import pytest
from scipy.integrate import quad

from uwoan.geometry import (
    Bearing,
    DepthModel,
    GeometryError,
    Position,
    bearing_from_to,
    distance,
    unit_vector,
)


def rand_position(rng, span=1000.0):
    return Position(rng.uniform(-span, span), rng.uniform(-span, span),
                    rng.uniform(0.0, span))


class TestPosition:
    def test_rejects_nan(self):
        with pytest.raises(GeometryError):
            Position(float("nan"), 0.0, 0.0)
        with pytest.raises(GeometryError):
            Position(0.0, float("inf"), 0.0)

    def test_rejects_negative_depth(self):
        with pytest.raises(GeometryError):
            Position(0.0, 0.0, -1.0)


class TestDistance:
    def test_identity(self):
        p = Position(0, 0, 0)
        assert distance(p, p) == 0.0

    def test_single_axis(self):
        assert distance(Position(0, 0, 0), Position(0, 0, 200)) == 200.0

    def test_345_triangle(self):
        # oracle: sqrt(dx^2 + dy^2 + dz^2) computed independently
        a, b = Position(0, 0, 50), Position(30, 40, 50)
        expected = math.sqrt(30**2 + 40**2 + 0**2)
        assert distance(a, b) == pytest.approx(expected, abs=1e-12)
        assert expected == 50.0

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(71)
        for _ in range(500):
            a, b, c = (rand_position(rng) for _ in range(3))
            assert distance(a, b) == distance(b, a)
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


class TestBearing:
    def test_due_north_level(self):
        b = bearing_from_to(Position(0, 0, 100), Position(0, 100, 100))
        assert b.azimuth == pytest.approx(0.0, abs=1e-12)
        assert b.elevation == pytest.approx(0.0, abs=1e-12)

    def test_straight_up_canonical_azimuth(self):
        b = bearing_from_to(Position(0, 0, 100), Position(0, 0, 0))
        assert b == Bearing(0.0, 90.0)

    def test_straight_down(self):
        b = bearing_from_to(Position(0, 0, 0), Position(0, 0, 100))
        assert b == Bearing(0.0, -90.0)

    def test_345_bearing(self):
        # oracle: atan2 on the 3-4-5 triangle
        b = bearing_from_to(Position(0, 0, 50), Position(30, 40, 50))
        assert b.azimuth == pytest.approx(math.degrees(math.atan2(30, 40)), abs=1e-9)
        assert b.azimuth == pytest.approx(36.8699, abs=1e-4)
        assert b.elevation == pytest.approx(0.0, abs=1e-12)

    def test_coincident_points_error(self):
        p = Position(1, 2, 3)
        with pytest.raises(GeometryError, match="degenerate"):
            bearing_from_to(p, p)

    def test_pole_forces_zero_azimuth(self):
        assert Bearing(123.0, 90.0).azimuth == 0.0
        assert Bearing(45.0, -90.0).azimuth == 0.0

    def test_range_validation(self):
        with pytest.raises(GeometryError):
            Bearing(360.0, 0.0)
        with pytest.raises(GeometryError):
            Bearing(0.0, 91.0)

    def test_unit_vector_matches_displacement(self):
        # round-trip property: a + unit(bearing)*|b-a| == b
        rng = random.Random(1234)
        for _ in range(1000):
            a = rand_position(rng, 500.0)
            b = rand_position(rng, 500.0)
            if a == b:
                continue
            brg = bearing_from_to(a, b)
            d = distance(a, b)
            ue, un, ud = unit_vector(brg)
            assert a.east + ue * d == pytest.approx(b.east, abs=1e-6)
            assert a.north + un * d == pytest.approx(b.north, abs=1e-6)
            assert a.depth + ud * d == pytest.approx(b.depth, abs=1e-6)

    def test_unit_vector_componentwise_accuracy(self):
        rng = random.Random(99)
        for _ in range(300):
            a = rand_position(rng, 100.0)
            b = rand_position(rng, 100.0)
            d = distance(a, b)
            if d < 1e-6:
                continue
            ue, un, ud = unit_vector(bearing_from_to(a, b))
            assert ue == pytest.approx((b.east - a.east) / d, abs=1e-9)
            assert un == pytest.approx((b.north - a.north) / d, abs=1e-9)
            assert ud == pytest.approx((b.depth - a.depth) / d, abs=1e-9)


class TestDepthQuantization:
    def test_surface_bucket_zero(self):
        assert DepthModel(0.5, 0.005).bucket(0.0) == 0

    def test_collision_within_resolution(self):
        # at 100 m the resolution is 1.0 m, so 100.0 and 100.3 collide
        model = DepthModel(0.5, 0.005)
        assert model.resolution(100.0) == pytest.approx(1.0)
        assert model.bucket(100.0) == model.bucket(100.3)

    def test_separation_beyond_resolution(self):
        model = DepthModel(0.5, 0.005)
        assert model.bucket(100.0) != model.bucket(101.2)

    def test_buckets_match_quadrature_oracle(self):
        # oracle: numeric quadrature of 1/delta(z) from the surface down
        model = DepthModel(0.5, 0.005)
        for depth in (0.0, 1.0, 10.0, 100.0, 100.3, 101.2, 173.4, 200.0):
            val, _ = quad(lambda z: 1.0 / (0.5 + 0.005 * z), 0.0, depth)
            assert model.bucket(depth) == math.floor(val)

    def test_frozen_oracle_values(self):
        # frozen from the quadrature oracle above
        model = DepthModel(0.5, 0.005)
        assert model.bucket(100.0) == 138
        assert model.bucket(100.3) == 138
        assert model.bucket(101.2) == 139

    def test_monotone(self):
        rng = random.Random(7)
        model = DepthModel(0.5, 0.005)
        for _ in range(2000):
            d1 = rng.uniform(0, 500)
            d2 = rng.uniform(0, 500)
            if d1 > d2:
                d1, d2 = d2, d1
            assert model.bucket(d1) <= model.bucket(d2)

    def test_zero_kappa_uniform_buckets(self):
        model = DepthModel(2.0, 0.0)
        assert model.bucket(0.0) == 0
        assert model.bucket(1.9) == 0
        assert model.bucket(2.1) == 1

    def test_negative_depth_rejected(self):
        with pytest.raises(GeometryError):
            DepthModel().bucket(-0.1)

    def test_model_validation(self):
        with pytest.raises(GeometryError):
            DepthModel(0.0, 0.005)
        with pytest.raises(GeometryError):
            DepthModel(0.5, -0.001)
