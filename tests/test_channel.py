import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from uwoan.channel import (
    ChannelError,
    OpticalLinkBudget,
    WaterProfile,
    acoustic_delay,
    max_optical_range,
    optical_reach_bound,
    optical_received_power,
    path_transmittance,
)
from uwoan.geometry import Position


def transmittance_oracle(a, b, profile):
    """Numeric quadrature of c(z) along the straight segment."""
    L = math.dist((a.east, a.north, a.depth), (b.east, b.north, b.depth))
    if L == 0.0:
        return 1.0
    val, _ = quad(lambda s: profile.c0 + profile.gamma * (a.depth + (b.depth - a.depth) * s / L),
                  0.0, L, epsabs=1e-13, epsrel=1e-13)
    return math.exp(-val)


def scan_oracle(budget, profile, depth=0.0, step=0.1, upper=3000.0):
    """Largest feasible horizontal length found by a plain linear scan."""
    c = profile.c0 + profile.gamma * depth
    L = np.arange(step, upper, step)
    spot = np.pi * (L * np.tan(budget.divergence_half_angle)) ** 2
    P = budget.tx_power * np.exp(-c * L) * np.minimum(1.0, budget.rx_aperture_area / spot)
    feasible = np.nonzero(P >= budget.rx_sensitivity)[0]
    return 0.0 if len(feasible) == 0 else float(L[feasible[-1]])


class TestAcousticDelay:
    def test_zero(self):
        assert acoustic_delay(0.0, WaterProfile()) == 0.0

    def test_unit_speed_distance(self):
        assert acoustic_delay(1500.0, WaterProfile()) == 1.0

    def test_hand_division(self):
        assert acoustic_delay(200.0, WaterProfile()) == pytest.approx(200.0 / 1500.0)
        assert acoustic_delay(200.0, WaterProfile()) == pytest.approx(0.13333, abs=1e-5)

    def test_linear_in_distance(self):
        p = WaterProfile()
        rng = random.Random(3)
        for _ in range(100):
            d = rng.uniform(0, 2000)
            k = rng.uniform(0, 5)
            assert acoustic_delay(k * d, p) == pytest.approx(k * acoustic_delay(d, p))


class TestPathTransmittance:
    def test_zero_length(self):
        p = Position(5, 5, 50)
        assert path_transmittance(p, p, WaterProfile(c0=0.056)) == 1.0

    def test_uniform_water(self):
        # oracle: quadrature along the segment
        prof = WaterProfile(c0=0.056, gamma=0.0)
        a, b = Position(0, 0, 10), Position(0, 50, 10)
        expected = transmittance_oracle(a, b, prof)
        assert path_transmittance(a, b, prof) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(math.exp(-2.8), rel=1e-12)

    def test_graded_water(self):
        prof = WaterProfile(c0=0.056, gamma=0.0005)
        a, b = Position(0, 0, 100), Position(50, 0, 100)
        expected = transmittance_oracle(a, b, prof)
        assert path_transmittance(a, b, prof) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(math.exp(-50 * 0.106), rel=1e-12)

    def test_against_quadrature_random_segments(self):
        rng = random.Random(42)
        for _ in range(1000):
            prof = WaterProfile(c0=rng.uniform(0.01, 0.3),
                                gamma=rng.uniform(0.0, 0.001))
            a = Position(rng.uniform(0, 200), rng.uniform(0, 200), rng.uniform(0, 200))
            b = Position(rng.uniform(0, 200), rng.uniform(0, 200), rng.uniform(0, 200))
            got = path_transmittance(a, b, prof)
            assert got == pytest.approx(transmittance_oracle(a, b, prof), rel=1e-9)

    def test_in_unit_interval_and_decreasing(self):
        prof = WaterProfile(c0=0.1)
        prev = 1.0
        for L in (1, 5, 20, 100, 400):
            t = path_transmittance(Position(0, 0, 0), Position(L, 0, 0), prof)
            assert 0.0 < t <= 1.0
            assert t < prev
            prev = t

    def test_multiplicative_over_collinear_segments(self):
        rng = random.Random(11)
        for _ in range(200):
            prof = WaterProfile(c0=rng.uniform(0.02, 0.2), gamma=rng.uniform(0, 0.0008))
            a = Position(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100))
            b = Position(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100))
            if a == b:
                continue
            f = rng.uniform(0.1, 0.9)
            mid = Position(a.east + f * (b.east - a.east),
                           a.north + f * (b.north - a.north),
                           a.depth + f * (b.depth - a.depth))
            whole = path_transmittance(a, b, prof)
            split = path_transmittance(a, mid, prof) * path_transmittance(mid, b, prof)
            assert whole == pytest.approx(split, rel=1e-12)


class TestReceivedPower:
    def test_short_link_capped_at_tx_power(self):
        budget = OpticalLinkBudget()
        prof = WaterProfile(c0=0.056)
        p = optical_received_power(Position(0, 0, 0), Position(0.001, 0, 0), budget, prof)
        assert p == pytest.approx(budget.tx_power, rel=1e-4)

    def test_reference_value_at_200m(self):
        # oracle: independent composition exp(-cL) * A/(pi (L tan(theta))^2) * P
        budget = OpticalLinkBudget()
        prof = WaterProfile(c0=0.056, gamma=0.0)
        got = optical_received_power(Position(0, 0, 0), Position(200, 0, 0), budget, prof)
        oracle = 0.1 * math.exp(-0.056 * 200) * (
            7.854e-3 / (math.pi * (200 * math.tan(math.radians(1.0))) ** 2))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(2.805e-10, rel=1e-3)

    def test_monotone_in_attenuation(self):
        budget = OpticalLinkBudget()
        a, b = Position(0, 0, 0), Position(200, 0, 0)
        clear = optical_received_power(a, b, budget, WaterProfile(c0=0.056))
        turbid = optical_received_power(a, b, budget, WaterProfile(c0=0.151))
        assert turbid < clear

    def test_monotone_in_length(self):
        budget = OpticalLinkBudget()
        prof = WaterProfile(c0=0.08)
        prev = math.inf
        for L in (0.5, 1, 3, 10, 50, 150, 300):
            p = optical_received_power(Position(0, 0, 0), Position(L, 0, 0), budget, prof)
            assert p <= prev
            prev = p

    def test_coincident_points_error(self):
        p = Position(1, 1, 1)
        with pytest.raises(ChannelError):
            optical_received_power(p, p, OpticalLinkBudget(), WaterProfile())


class TestMaxOpticalRange:
    def test_infeasible_when_sensitivity_above_tx(self):
        budget = OpticalLinkBudget(tx_power=0.1, rx_sensitivity=0.2)
        assert max_optical_range(budget, WaterProfile(c0=0.056)) == 0.0

    def test_default_calibration_ranges(self):
        # frozen from the 0.1 m linear-scan oracle at the default budget
        budget = OpticalLinkBudget()
        for c0, expected in ((0.056, 273.1), (0.120, 138.7), (0.151, 112.9)):
            got = max_optical_range(budget, WaterProfile(c0=c0))
            assert got == pytest.approx(expected, abs=0.2)
            assert got == pytest.approx(scan_oracle(budget, WaterProfile(c0=c0)), abs=0.2)

    def test_monotone_in_c0(self):
        budget = OpticalLinkBudget()
        ranges = [max_optical_range(budget, WaterProfile(c0=c)) for c in
                  (0.04, 0.056, 0.08, 0.12, 0.151, 0.3)]
        assert ranges == sorted(ranges, reverse=True)

    def test_against_scan_oracle_random_budgets(self):
        rng = random.Random(2024)
        for _ in range(300):
            budget = OpticalLinkBudget(
                tx_power=rng.uniform(0.01, 1.0),
                divergence_half_angle=math.radians(rng.uniform(0.2, 3.0)),
                rx_aperture_area=rng.uniform(1e-3, 2e-2),
                rx_sensitivity=10 ** rng.uniform(-12, -9),
            )
            prof = WaterProfile(c0=rng.uniform(0.03, 0.3))
            got = max_optical_range(budget, prof)
            assert got == pytest.approx(scan_oracle(budget, prof), abs=0.2)

    def test_depth_dependent_attenuation(self):
        budget = OpticalLinkBudget()
        prof = WaterProfile(c0=0.056, gamma=0.0005)
        shallow = max_optical_range(budget, prof, depth=0.0)
        deep = max_optical_range(budget, prof, depth=150.0)
        assert deep < shallow


class TestOpticalReachBound:
    """No link inside the water column closes beyond the bound."""

    # a long, shallow box: every pair drawn lies inside it
    BOX = (1000.0, 1000.0, 200.0)

    @staticmethod
    def pairs_beyond(bound, rng, count):
        """Seeded endpoint pairs in BOX, up to 10% farther apart than `bound`.

        The excess is log-uniform down to one part in 1e12 of the bound, so
        many pairs sit at the edge where rounding could matter.
        """
        pairs = []
        while len(pairs) < count:
            a = Position(*(rng.uniform(0.0, side)
                           for side in TestOpticalReachBound.BOX))
            direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in direction))
            length = bound * (1.0 + 10.0 ** rng.uniform(-12.0, -1.0))
            b = [x + length * u / norm for x, u in zip(a, direction)]
            if all(0.0 <= x <= side
                   for x, side in zip(b, TestOpticalReachBound.BOX)):
                pairs.append((a, Position(*b)))
        return pairs

    @pytest.mark.parametrize("gamma", [-0.0002, 0.0, 0.0005])
    @pytest.mark.parametrize("c0", [0.056, 0.12, 0.151, 0.3])
    def test_no_link_beyond_the_bound_closes(self, c0, gamma):
        budget, profile = OpticalLinkBudget(), WaterProfile(c0=c0, gamma=gamma)
        bound = optical_reach_bound(budget, profile, self.BOX[2])
        rng = random.Random(f"{c0}:{gamma}")
        for a, b in self.pairs_beyond(bound, rng, 300):
            assert optical_received_power(a, b, budget, profile) \
                < budget.rx_sensitivity, (a, b)

    @pytest.mark.parametrize("gamma", [-0.0002, 0.0, 0.0005])
    @pytest.mark.parametrize("c0", [0.056, 0.12, 0.151, 0.3])
    def test_horizontal_link_at_max_range_closes(self, c0, gamma):
        # at the depth of least attenuation the bound is no shorter than
        # the range, which closes
        budget, profile = OpticalLinkBudget(), WaterProfile(c0=c0, gamma=gamma)
        floor = self.BOX[2]
        depth = 0.0 if gamma >= 0.0 else floor
        reach = max_optical_range(budget, profile, depth)
        a = Position(100.0, 100.0, depth)
        b = Position(100.0 + reach, 100.0, depth)
        assert optical_received_power(a, b, budget, profile) \
            >= budget.rx_sensitivity
        assert reach < optical_reach_bound(budget, profile, floor)
        # elsewhere in the column the range is shorter still
        assert max_optical_range(budget, profile, floor - depth) <= reach

    def test_unbounded_where_attenuation_is_not_positive(self):
        # a column deeper than its profile is valid for
        profile = WaterProfile(c0=0.056, gamma=-0.0002)
        assert optical_reach_bound(OpticalLinkBudget(), profile, 280.0) \
            == math.inf
        assert optical_reach_bound(OpticalLinkBudget(), profile, 270.0) \
            < math.inf

    def test_unbounded_past_the_range_search(self):
        # near-clear water and a tiny sensitivity put the range beyond the
        # search's bracket
        budget = OpticalLinkBudget(rx_sensitivity=1e-30)
        profile = WaterProfile(c0=1e-9)
        with pytest.raises(ChannelError):
            max_optical_range(budget, profile)
        assert optical_reach_bound(budget, profile, self.BOX[2]) == math.inf

    def test_sensitivity_above_tx_power(self):
        budget = OpticalLinkBudget(tx_power=0.1, rx_sensitivity=0.2)
        profile = WaterProfile(c0=0.056)
        bound = optical_reach_bound(budget, profile, self.BOX[2])
        assert bound == 0.02  # the range is 0.0; twice the default tol
        for a, b in self.pairs_beyond(bound, random.Random(7), 50):
            assert optical_received_power(a, b, budget, profile) \
                < budget.rx_sensitivity


class TestValidation:
    def test_water_profile(self):
        with pytest.raises(ChannelError):
            WaterProfile(c0=0.0)
        with pytest.raises(ChannelError):
            WaterProfile(sound_speed=0.0)
        with pytest.raises(ChannelError):
            WaterProfile(c0=0.01, gamma=-0.001).attenuation_at(20.0)

    def test_budget(self):
        with pytest.raises(ChannelError):
            OpticalLinkBudget(tx_power=0.0)
        with pytest.raises(ChannelError):
            OpticalLinkBudget(divergence_half_angle=math.pi / 2)
        with pytest.raises(ChannelError):
            OpticalLinkBudget(rx_fov_half_angle=math.pi)
        with pytest.raises(ChannelError):
            OpticalLinkBudget(rx_sensitivity=-1.0)
