import dataclasses
import itertools
import math
import operator
import random
from heapq import heappop

import pytest

from uwoan import engine
from uwoan import node as uwn
from uwoan.base_station import BsState, HandshakeStage
from uwoan.config import SimConfig
from uwoan.engine import Simulation, run, simulate, trace
from uwoan.frame import (FrameIndex, SlotPayload, SlotStage, SuperFrame,
                         decode)
from uwoan.geometry import Bearing, Position, bearing_from_to, distance
from uwoan.node import Lifecycle, RelayDuty
from uwoan.world import World, generate


def single_node_world(cfg, depth=50.0):
    return World(cfg.bs_position(), [Position(100.0, 100.0, depth)],
                 (cfg.region_east_m, cfg.region_north_m, cfg.region_depth_m))


def parse(line):
    t, kind, subject, *rest = line.split(" ", 3)
    return float(t), kind, subject, rest[0] if rest else ""


class TestHandComputedTrace:
    """Oracle: the full event timeline of one node 50 m below the BS."""

    def test_single_node_event_times(self):
        cfg = SimConfig(n_uwn=1)
        sim = Simulation(cfg, seed=0, world=single_node_world(cfg),
                         collect_trace=True)
        report = sim.run()
        lines = [parse(l) for l in sim.trace_lines]
        delay = 50.0 / 1500.0

        triggers = [l for l in lines if l[1] == "ACOUSTIC_ARRIVAL"
                    and "what=trigger" in l[3]]
        assert triggers[0][0] == pytest.approx(delay, abs=1e-12)

        frames = [l for l in lines if l[1] == "ACOUSTIC_ARRIVAL"
                  and "what=frame" in l[3]]
        assert frames[0][0] == pytest.approx(0.1 + delay, abs=1e-12)

        beams = [l for l in lines if l[1] == "OPTICAL_ARRIVAL"]
        assert beams[0][2] == "bs"
        assert beams[0][0] == pytest.approx(0.1 + delay, abs=1e-12)

        # third handshake rides the next superframe, one period later
        assert report.nodes[0].outcome == "accessed"
        assert report.nodes[0].access_time == pytest.approx(1.1 + delay,
                                                            abs=1e-12)
        assert report.access_rate == 1.0
        assert report.dual_hop_rate == 0.0
        assert report.edges[0].src == "u0" and report.edges[0].dst == "bs"

    def test_vertical_emission_geometry(self):
        cfg = SimConfig(n_uwn=1)
        lines = Simulation(cfg, seed=0, world=single_node_world(cfg),
                           collect_trace=True)
        lines.run()
        tx = [l for l in lines.trace_lines if "SUPERFRAME_TX" in l][0]
        assert "1:ASSIGN:" in tx


class TestVacuousRun:
    def test_zero_nodes(self):
        report = run(SimConfig(n_uwn=0), seed=3)
        assert report.access_rate == 1.0
        assert report.dual_hop_rate == 0.0
        assert report.edges == ()
        assert report.nodes == ()
        assert report.avg_sound_delay_s == 0.0


class TestDeterminism:
    def test_identical_reports(self):
        cfg = SimConfig(n_uwn=20, c0=0.12, t_max_s=20.0)
        assert run(cfg, seed=7) == run(cfg, seed=7)

    def test_identical_traces(self):
        cfg = SimConfig(n_uwn=15, c0=0.151, t_max_s=15.0)
        assert trace(cfg, seed=9) == trace(cfg, seed=9)

    def test_different_seeds_differ(self):
        cfg = SimConfig(n_uwn=20, t_max_s=10.0)
        assert run(cfg, seed=1) != run(cfg, seed=2)

    def test_traced_and_untraced_reports_agree(self):
        # the quiescence fast-forward must be observationally exact
        for seed in range(6):
            cfg = SimConfig(n_uwn=25, c0=0.12, seed=seed)
            assert run(cfg) == simulate(cfg, collect_trace=True).report


# the paper's three water types (clear, coastal, turbid)
WATER_TYPES = (0.056, 0.120, 0.151)

# (east, north) current in m/s and superframe period in s: along east,
# along a diagonal, and strong enough that nodes reach the walls and stay
# clamped there.  Repeated additions of a 0.9 s period round differently
# from offset + k * period, which moves a fast-drifting node's bits
DRIFTS = [((0.02, 0.0), 1.0), ((0.03, -0.02), 1.0), ((5.0, 0.0), 1.0),
          ((-3.0, 4.0), 1.0), ((-3.0, 4.0), 0.9)]


class TestFastForward:
    """The settled-tail replay gives exactly the report of the full loop."""

    @pytest.mark.parametrize("c0", WATER_TYPES)
    def test_matches_plain_event_loop(self, c0, plain_loop):
        # float summation order included; the caches, which static worlds
        # hit most, are checked one by one in TestShortcuts
        cfg = SimConfig(c0=c0)
        sims = [Simulation(cfg, seed) for seed in range(100)]
        fast = [sim.run() for sim in sims]
        # the shortcut is the common case
        assert sum(sim.settled_at is not None for sim in sims) > 50
        with plain_loop("fast_forward"):
            plain = [run(cfg, seed) for seed in range(100)]
        assert fast == plain

    @pytest.mark.parametrize("current, period", DRIFTS, ids=str)
    def test_drifting_worlds_match_plain_event_loop(self, current, period,
                                                    plain_loop):
        east, north = current
        runs = [(SimConfig(c0=c0, current_east_mps=east,
                           current_north_mps=north,
                           superframe_period_s=period), seed)
                for c0 in WATER_TYPES for seed in range(4)]
        sims = [Simulation(cfg, seed) for cfg, seed in runs]
        fast = [sim.run() for sim in sims]
        # a 200 m box lies within the 1000 m reach, so every run settles
        assert all(sim.settled_at is not None for sim in sims)
        with plain_loop():
            plain = [run(cfg, seed) for cfg, seed in runs]
        assert fast == plain

    def test_arrivals_tied_out_of_index_order(self, plain_loop):
        # the two delays differ, but at each frame time they round to one
        # arrival time; the heap pops node 0 first, sorting by delay
        # alone would sum node 1's delay first
        cfg = SimConfig(n_uwn=2)

        def world():
            return World(cfg.bs_position(),
                         [Position(100.0, 100.0, 50.0 + 7.105427357601002e-14),
                          Position(130.0, 100.0, 40.0)],
                         (cfg.region_east_m, cfg.region_north_m,
                          cfg.region_depth_m))

        sim = Simulation(cfg, seed=1, world=world())
        fast = sim.run()
        assert sim.settled_at is not None
        with plain_loop():
            plain = simulate(cfg, 1, world()).report
        assert fast.avg_sound_delay_s == 0.03333333333333332
        assert fast == plain

    def test_node_drifting_into_reach_refuses_the_shortcut(self, plain_loop):
        # node 0 settles early; node 1 starts 141 m out and drifts under
        # the base station, in reach of 120 m from about t = 17 s on
        cfg = SimConfig(n_uwn=2, acoustic_range_m=120.0,
                        current_east_mps=2.0)

        def world():
            return World(cfg.bs_position(),
                         [Position(190.0, 100.0, 50.0),
                          Position(0.0, 100.0, 100.0)],
                         (cfg.region_east_m, cfg.region_north_m,
                          cfg.region_depth_m),
                         (cfg.current_east_mps, cfg.current_north_mps))

        sim = Simulation(cfg, seed=0, world=world())
        fast = sim.run()
        assert not sim._may_fast_forward and sim.settled_at is None
        with plain_loop():
            plain = simulate(cfg, 0, world()).report
        assert fast == plain
        assert [n.outcome for n in plain.nodes] == ["accessed", "accessed"]

    def test_node_whose_id_was_taken_does_not_block_the_shortcut(
            self, plain_loop):
        # with 3 m of sonar depth noise, seed 18 records node 30 at node
        # 13's depth bucket: node 13 binds and confirms node 30's ID, so
        # that record is accessed while node 30 itself is still matching
        cfg = SimConfig(c0=0.056, sonar_depth_noise_std_m=3.0)
        sim = Simulation(cfg, seed=18)
        fast = sim.run()
        rec = sim.bs.record_for_track(30)
        assert rec.stage is HandshakeStage.ACCESSED
        assert sim.nodes[30].lifecycle is Lifecycle.MATCHING
        assert sim.nodes[13].matched_id == rec.network_id
        assert sim.settled_at is not None
        with plain_loop():
            assert run(cfg, 18) == fast


class TestCausality:
    def test_acoustic_delays_exact(self):
        cfg = SimConfig(n_uwn=10, t_max_s=6.0)
        lines = trace(cfg, seed=4)
        tx_times = {}
        for line in lines:
            t, kind, subject, detail = parse(line)
            if kind == "SUPERFRAME_TX":
                seq = int(detail.split()[0].split("=")[1])
                tx_times[seq] = t
            elif kind == "ACOUSTIC_ARRIVAL" and "what=frame" in detail:
                fields = dict(kv.split("=") for kv in detail.split())
                dist, delay = float(fields["dist"]), float(fields["delay"])
                assert delay == dist / 1500.0  # exact, not approximate
                assert t == tx_times[int(fields["frame"])] + delay

    def test_no_node_originates_acoustic_events(self):
        cfg = SimConfig(n_uwn=10, t_max_s=6.0)
        for line in trace(cfg, seed=4):
            t, kind, subject, detail = parse(line)
            if kind == "ACOUSTIC_ARRIVAL":
                assert "src=bs" in detail
            if kind in ("SONAR_PING", "SUPERFRAME_TX", "TIMEOUT_CHECK"):
                assert subject == "bs"

    def test_handshake_order_per_accessed_node(self):
        cfg = SimConfig(n_uwn=12, c0=0.12, t_max_s=25.0)
        sim = Simulation(cfg, seed=11, collect_trace=True)
        report = sim.run()
        frames = {}   # seq -> (time, {id: stage})
        hs2 = {}      # claimed id -> first beam arrival at the bs
        for line in sim.trace_lines:
            t, kind, subject, detail = parse(line)
            if kind == "SUPERFRAME_TX":
                fields = detail.split()
                seq = int(fields[0].split("=")[1])
                slots = {}
                for part in fields[2].split("=")[1].split(","):
                    bits = part.split(":")
                    slots[int(bits[0])] = bits[1]
                frames[seq] = (t, slots)
            elif kind == "OPTICAL_ARRIVAL" and subject == "bs":
                fields = dict(kv.split("=") for kv in detail.split())
                claim = int(fields["claim"])
                hs2.setdefault(claim, t)
        accessed = [n for n in report.nodes if n.outcome == "accessed"]
        assert accessed
        for node in accessed:
            nid = node.network_id
            hs1 = min(t for t, slots in frames.values()
                      if slots.get(nid) == "ASSIGN")
            hs3 = min(t for t, slots in frames.values()
                      if slots.get(nid) == "CONFIRM")
            assert hs1 < hs2[nid] < hs3 < node.access_time


class TestConservation:
    def test_outcomes_partition_population(self):
        for seed in range(10):
            cfg = SimConfig(n_uwn=30, c0=0.151, seed=seed)
            report = run(cfg)
            assert (report.n_accessed + report.n_failed + report.n_dormant
                    + report.n_unresolved) == report.n_uwn
            assert report.n_accessed == sum(
                1 for n in report.nodes if n.outcome == "accessed")

    def test_out_of_range_node_stays_dormant(self):
        cfg = SimConfig(n_uwn=2, acoustic_range_m=60.0)
        world = World(cfg.bs_position(),
                      [Position(100, 100, 50), Position(100, 100, 190)],
                      (200.0, 200.0, 200.0))
        report = Simulation(cfg, seed=0, world=world).run()
        outcomes = {n.node: n.outcome for n in report.nodes}
        assert outcomes["u0"] == "accessed"
        assert outcomes["u1"] == "dormant"


class TestRelayPath:
    def relay_scenario(self):
        # target too deep for a direct link at c0=0.151 (range ~113 m),
        # helper halfway: both legs feasible
        cfg = SimConfig(n_uwn=2, c0=0.151)
        world = World(cfg.bs_position(),
                      [Position(100, 100, 180), Position(100, 100, 90)],
                      (200.0, 200.0, 200.0))
        return cfg, world

    def test_dual_hop_access(self):
        cfg, world = self.relay_scenario()
        report = Simulation(cfg, seed=1, world=world).run()
        by_node = {n.node: n for n in report.nodes}
        assert by_node["u1"].outcome == "accessed"
        assert by_node["u1"].via_relay is False
        assert by_node["u0"].outcome == "accessed"
        assert by_node["u0"].via_relay is True
        assert by_node["u0"].relay == "u1"
        assert report.dual_hop_rate == 0.5
        edges = {(e.src, e.dst, e.hop) for e in report.edges}
        assert ("u1", "bs", 1) in edges
        assert ("u0", "u1", 2) in edges

    def test_relay_timing(self):
        # 5 direct retries burn before the relay slot goes out
        cfg, world = self.relay_scenario()
        report = Simulation(cfg, seed=1, world=world).run()
        u0 = [n for n in report.nodes if n.node == "u0"][0]
        assert u0.access_time > 5.0

    def test_no_relay_means_failure(self):
        cfg = SimConfig(n_uwn=1, c0=0.151, t_max_s=30.0)
        world = World(cfg.bs_position(), [Position(100, 100, 180)],
                      (200.0, 200.0, 200.0))
        report = Simulation(cfg, seed=0, world=world).run()
        assert report.nodes[0].outcome == "failed"
        assert report.n_failed == 1


class TestMovementIntegration:
    def test_conflicted_nodes_return_to_depth(self):
        cfg = SimConfig(n_uwn=2)
        world = World(cfg.bs_position(),
                      [Position(90, 100, 100.0), Position(110, 100, 100.2)],
                      (200.0, 200.0, 200.0))
        sim = Simulation(cfg, seed=5, world=world)
        report = sim.run()
        assert report.n_accessed == 2
        assert report.max_decomp_delay_s > 0.0
        for i in range(2):
            final = sim.world.depth_of(i, cfg.t_max_s)
            assert abs(final - sim.nodes[i].original_depth) \
                <= cfg.return_tolerance_m + 1e-9

    def test_positions_stay_in_region(self):
        cfg = SimConfig(n_uwn=8, region_depth_m=6.0, t_max_s=20.0)
        rng = random.Random(3)
        world = World(cfg.bs_position(),
                      [Position(rng.uniform(0, 200), rng.uniform(0, 200),
                                rng.uniform(0, 6.0)) for _ in range(8)],
                      (200.0, 200.0, 6.0))
        sim = Simulation(cfg, seed=3, world=world)
        sim.run()
        for i in range(8):
            for t in (5.0, 10.0, 15.0, 20.0):
                assert 0.0 <= sim.world.depth_of(i, t) <= 6.0


class TestWorldGeneration:
    def test_deterministic_per_seed(self):
        cfg = SimConfig(n_uwn=50)
        w1, w2 = generate(cfg, 42), generate(cfg, 42)
        for b1, b2 in zip(w1.bodies, w2.bodies):
            assert (b1.east0, b1.north0, b1.depth_ref) \
                == (b2.east0, b2.north0, b2.depth_ref)

    def test_matches_run_deployment(self):
        cfg = SimConfig(n_uwn=10)
        world = generate(cfg, 8)
        sim = Simulation(cfg, seed=8)
        for b1, b2 in zip(world.bodies, sim.world.bodies):
            assert (b1.east0, b1.north0, b1.depth_ref) \
                == (b2.east0, b2.north0, b2.depth_ref)

    def test_empty_world(self):
        assert generate(SimConfig(n_uwn=0), 1).n == 0

    def test_marginals_uniform_chi_square(self):
        from scipy.stats import chisquare
        cfg = SimConfig(n_uwn=100_000)
        world = generate(cfg, 123)
        bins = 20
        for axis, extent in (("east0", 200.0), ("north0", 200.0),
                             ("depth_ref", 200.0)):
            counts = [0] * bins
            for body in world.bodies:
                k = min(bins - 1, int(getattr(body, axis) / extent * bins))
                counts[k] += 1
            _, p = chisquare(counts)
            assert p > 1e-3, f"{axis} marginal failed uniformity: p={p}"


class TestWorldKinematics:
    REGION = (200.0, 150.0, 100.0)

    @staticmethod
    def reference_position(world, i, t):
        """The position as min/max clamps and depth_of give it."""
        body = world.bodies[i]
        east = min(max(body.east0 + world.current[0] * t, 0.0),
                   world.region[0])
        north = min(max(body.north0 + world.current[1] * t, 0.0),
                    world.region[1])
        return Position(east, north, world.depth_of(i, t))

    def test_float_paths_match_positions(self):
        rng = random.Random(11)
        walls = set()
        for current in ((0.0, 0.0), (1.5, 0.8), (-1.5, -0.8)):
            world = World(Position(100.0, 75.0, 0.0),
                          [Position(rng.uniform(0.0, 200.0),
                                    rng.uniform(0.0, 150.0),
                                    rng.uniform(0.0, 100.0))
                           for _ in range(40)],
                          self.REGION, current)
            for step in range(60):
                t = step * 2.5 + rng.random()
                for i in range(world.n):
                    if rng.random() < 0.2:
                        v = rng.choice((0.0, -3.0, 3.0, rng.uniform(-1, 1)))
                        world.set_vertical_velocity(i, v, t)
                    pos = world.position_of(i, t)
                    assert pos == self.reference_position(world, i, t)
                    assert world.bs_distance_of(i, t) \
                        == distance(world.bs_position, pos)
                    walls.update(
                        wall for wall, hit in (
                            ("west", pos.east == 0.0),
                            ("east", pos.east == 200.0),
                            ("south", pos.north == 0.0),
                            ("north", pos.north == 150.0),
                            ("surface", pos.depth == 0.0),
                            ("floor", pos.depth == 100.0)) if hit)
        assert walls == {"west", "east", "south", "north", "surface",
                         "floor"}


class TestReceiverFieldOfView:
    def test_misaligned_relay_receiver_drops_beam(self):
        # oracle: angle between boresight and the incoming ray; the default
        # receiver cone is 30 degrees, so a 40-degree incidence must drop
        from uwoan.geometry import Bearing, angle_between, bearing_from_to, unit_vector
        from uwoan.node import Lifecycle, RelayDuty

        cfg = SimConfig(n_uwn=2, c0=0.056)
        src = Position(100.0, 60.0, 120.0)
        relay = Position(100.0, 100.0, 80.0)
        world = World(cfg.bs_position(), [src, relay], (200.0, 200.0, 200.0))
        sim = Simulation(cfg, seed=0, world=world)

        state = sim.nodes[1]
        state.lifecycle = Lifecycle.ACCESSED
        state.matched_id = 2
        state.emission_bearing = bearing_from_to(relay, world.bs_position)
        toward_src = bearing_from_to(relay, src)

        import uwoan.node as uwn

        def incidence(boresight_bearing):
            ray = unit_vector(bearing_from_to(src, relay))
            toward_source = (-ray[0], -ray[1], -ray[2])
            return math.degrees(angle_between(
                unit_vector(boresight_bearing), toward_source))

        aligned = toward_src
        # rotate the boresight in azimuth until the incidence is ~40 degrees
        lo, hi = 0.0, 180.0
        for _ in range(60):
            mid = (lo + hi) / 2
            cand = Bearing((toward_src.azimuth + mid) % 360.0,
                           toward_src.elevation)
            if incidence(cand) < 40.0:
                lo = mid
            else:
                hi = mid
        misaligned = Bearing((toward_src.azimuth + hi) % 360.0,
                             toward_src.elevation)
        assert incidence(misaligned) == pytest.approx(40.0, abs=0.5)

        emission = uwn.Emission(bearing_from_to(src, relay), claimed_id=1)

        state.relay_duty = RelayDuty(1, aligned)
        sim._duty_nodes = [1]
        sim._emit(0, emission, 1.0)
        delivered_aligned = [e for e in sim._heap if e[2] == "OPTICAL_ARRIVAL"
                             and e[3] == 1]

        sim2 = Simulation(cfg, seed=0,
                          world=World(cfg.bs_position(), [src, relay],
                                      (200.0, 200.0, 200.0)))
        st2 = sim2.nodes[1]
        st2.lifecycle = Lifecycle.ACCESSED
        st2.matched_id = 2
        st2.emission_bearing = bearing_from_to(relay, world.bs_position)
        st2.relay_duty = RelayDuty(1, misaligned)
        sim2._duty_nodes = [1]
        sim2._emit(0, emission, 1.0)
        delivered_misaligned = [e for e in sim2._heap
                                if e[2] == "OPTICAL_ARRIVAL" and e[3] == 1]

        assert len(delivered_aligned) == 1
        assert len(delivered_misaligned) == 0


class TestBeamVector:
    def test_one_beam_unit_vector_per_emission(self, monkeypatch,
                                               plain_loop):
        # the beam direction is the same for every receiver of an emission,
        # so _emit computes it once; receiver boresights are separate calls
        import uwoan.engine as engine_module

        real_unit_vector = engine_module.unit_vector
        calls = []

        def counting_unit_vector(bearing):
            calls.append(bearing)
            return real_unit_vector(bearing)

        per_emission = []  # (beam vector calls, receivers offered)
        real_emit = Simulation._emit

        def counting_emit(self, src, emission, t):
            before = len(calls)
            receivers = 1 + sum(j != src for j in self._duty_nodes)
            real_emit(self, src, emission, t)
            beam_calls = sum(b is emission.bearing for b in calls[before:])
            per_emission.append((beam_calls, receivers))

        monkeypatch.setattr(engine_module, "unit_vector", counting_unit_vector)
        monkeypatch.setattr(Simulation, "_emit", counting_emit)
        # drifting nodes move every period, so every delivery check misses
        # the cache and reaches the beam-cone test; with idle relays offered
        # too, as in a traced run, each beam has every relay as a receiver
        cfg = SimConfig(c0=0.151, current_east_mps=0.02)
        with plain_loop("idle_relays"):
            for seed in range(3):
                run(cfg, seed=seed)
        assert {beam_calls for beam_calls, _ in per_emission} == {1}
        assert any(receivers > 1 for _, receivers in per_emission)


class TestConflictExcursionBound:
    def test_excursion_bounded_by_vmax_times_conflict_time(self):
        from uwoan.node import Lifecycle

        cfg = SimConfig(n_uwn=5)
        v_max = cfg.v_max_mps
        violations = []

        class ProbedSim(Simulation):
            def _on_acoustic_arrival(self, t, i, payload):
                state = self.nodes[i]
                if state.lifecycle is Lifecycle.CONFLICT_MOVING \
                        and state.conflict_entered_at is not None:
                    depth = self.world.depth_of(i, t)
                    in_conflict = (state.total_conflict_time
                                   + (t - state.conflict_entered_at))
                    excursion = abs(depth - state.original_depth)
                    if excursion > v_max * in_conflict + 1e-9:
                        violations.append((i, t, excursion, in_conflict))
                super()._on_acoustic_arrival(t, i, payload)

        for seed in range(25):
            rng = random.Random(seed)
            positions = [Position(rng.uniform(60, 140), rng.uniform(60, 140),
                                  100.0) for _ in range(5)]
            world = World(cfg.bs_position(), positions, (200.0, 200.0, 200.0))
            ProbedSim(cfg, seed=seed, world=world).run()
        assert violations == []


# scenario -> (config overrides, co-depth placement); the placement is the
# criterion-3 geometry scaled up, as in the benchmark's codepth workload
SCENARIOS = {
    "static": ({}, False),
    "drift": ({"current_east_mps": 0.02}, False),
    "codepth": ({"n_uwn": 20}, True),
    "sonar_noise": ({"sonar_depth_noise_std_m": 3.0, "p_frame_loss": 0.1},
                    False),
}


def codepth_world(cfg, seed):
    """20 nodes at 100 m depth over the central 80 m square."""
    rng = random.Random(seed)
    return World(cfg.bs_position(),
                 [Position(rng.uniform(60.0, 140.0), rng.uniform(60.0, 140.0),
                           100.0) for _ in range(20)],
                 (cfg.region_east_m, cfg.region_north_m, cfg.region_depth_m))


def scenario_runs(names=tuple(SCENARIOS), seeds=range(10)):
    """(config, seed, world) over scenarios x water types x seeds.

    A run mutates its world, so each one yielded is fresh.
    """
    for name in names:
        overrides, placed = SCENARIOS[name]
        for c0 in WATER_TYPES:
            cfg = SimConfig(c0=c0, **overrides)
            for seed in seeds:
                yield cfg, seed, codepth_world(cfg, seed) if placed else None


SLOT_FIELDS = operator.attrgetter(
    *(f.name for f in dataclasses.fields(SlotPayload)))


def recorded_runs(monkeypatch, traced):
    """Run every scenario with the engine's frame path recorded.

    Yields (result, sent, seen, computed) per run: its SimResult, the
    (frame, bytes) of every broadcast, every index a receiver matched and
    how many delivery verdicts were computed.  `decode` raises throughout.
    """
    sent, seen, computed = [], {}, []
    real_encode = engine.encode
    real_match = uwn.match_frame_indexed
    real_power = Simulation._delivery_power

    def recording_encode(frame):
        data = real_encode(frame)
        sent.append((frame, data))
        return data

    def recording_match(state, index, *args):
        seen[id(index)] = index
        return real_match(state, index, *args)

    def counted_power(self, *args):
        computed.append(None)
        return real_power(self, *args)

    def no_decode(data):
        raise AssertionError("the run loop decoded a frame")

    monkeypatch.setattr(engine, "encode", recording_encode)
    monkeypatch.setattr(engine, "decode", no_decode)
    monkeypatch.setattr(uwn, "match_frame_indexed", recording_match)
    monkeypatch.setattr(Simulation, "_delivery_power", counted_power)
    for cfg, seed, world in scenario_runs():
        result = simulate(cfg, seed, world, collect_trace=traced)
        yield result, sent[:], list(seen.values()), len(computed)
        sent.clear()
        seen.clear()
        computed.clear()


@pytest.fixture(scope="module")
def traced_runs():
    # shared by the frame and the cache tests: traced runs cost the most
    with pytest.MonkeyPatch.context() as monkeypatch:
        return list(recorded_runs(monkeypatch, traced=True))


@pytest.fixture(scope="module")
def untraced_runs():
    # shared by the frame and the idle-relay tests
    with pytest.MonkeyPatch.context() as monkeypatch:
        return list(recorded_runs(monkeypatch, traced=False))


class TestComposedFrame:
    """Receivers match the frame the base station composed; nothing decodes.

    The engine encodes each frame (validation and the trace byte count) and
    indexes the composed object itself.  For every frame broadcast, the
    bytes must decode back to it field by field with the same types: node
    code compares stages and markers by identity, and an IntEnum slot
    field holding a plain int would still compare equal.  Decoding after
    the run also catches a receiver that wrote to a shared slot.
    """

    @staticmethod
    def check_runs(runs):
        frames = matches = 0
        for _, sent, seen, _ in runs:
            TestComposedFrame.check_broadcasts(sent, seen)
            frames += len(sent)
            matches += len(seen)
        assert frames > 3000 and matches > 3000

    @staticmethod
    def check_broadcasts(sent, seen):
        for frame, data in sent:
            decoded = decode(data)
            assert decoded == frame, frame.frame_seq
            for got, composed in zip(decoded.slots, frame.slots):
                got, composed = SLOT_FIELDS(got), SLOT_FIELDS(composed)
                assert list(map(type, composed)) == list(map(type, got)), \
                    composed
            want, have = FrameIndex(decoded), FrameIndex(frame)
            assert list(have.by_id.items()) == list(want.by_id.items())
            assert list(have.assign_by_code.items()) \
                == list(want.assign_by_code.items())
        # every receiver was handed an index over the very slots encoded
        encoded = {id(frame): frame for frame, _ in sent}
        for index in seen:
            frame = index.frame
            assert encoded.get(id(frame)) is frame, frame.frame_seq
            slot_ids = {id(slot) for slot in frame.slots}
            indexed = list(index.by_id.values())
            for group in index.assign_by_code.values():
                indexed += group
            assert all(id(slot) in slot_ids for slot in indexed)

    def test_traced_runs(self, traced_runs):
        self.check_runs(traced_runs)

    def test_untraced_runs(self, untraced_runs):
        self.check_runs(untraced_runs)


class TestDeliveryCache:
    """`_deliver_cache` must give exactly the verdicts of computing afresh."""

    def test_runs_match_uncached_runs(self, traced_runs, monkeypatch,
                                      plain_loop):
        computed = plain_computed = 0
        with plain_loop("deliver_cache"):
            for (cached, _, _, n), (plain, _, _, n_plain) in zip(
                    traced_runs, recorded_runs(monkeypatch, traced=True)):
                assert cached == plain  # report and trace
                computed += n
                plain_computed += n_plain
        assert computed < 0.9 * plain_computed  # the cache does hit

    @staticmethod
    def relay_scene(traced=False, src=Position(100.0, 60.0, 120.0)):
        """Node 0 beams at node 1, an accessed relay looking back at it."""
        cfg = SimConfig(n_uwn=2, c0=0.056)
        relay = Position(100.0, 100.0, 80.0)
        sim = Simulation(cfg, seed=0, world=World(
            cfg.bs_position(), [src, relay], (200.0, 200.0, 200.0)),
            collect_trace=traced)
        state = sim.nodes[1]
        state.lifecycle = Lifecycle.ACCESSED
        state.matched_id = 2
        state.emission_bearing = bearing_from_to(relay, cfg.bs_position())
        state.relay_duty = RelayDuty(1, bearing_from_to(relay, src))
        sim._duty_nodes = [1]
        return sim, uwn.Emission(bearing_from_to(src, relay), claimed_id=1)

    @staticmethod
    def change_between_beams(change, sim, beam):
        """Make the change one clause of the hit test guards against.

        Returns node 0's next beam; every change alters node 1's verdict.
        """
        if change == "source moves":
            sim.world.set_vertical_velocity(0, 0.5, 1.0)
        elif change == "receiver moves":
            sim.world.set_vertical_velocity(1, 0.5, 1.0)
        elif change == "receiver turns":  # to look along the beam, away
            sim.nodes[1].relay_duty = RelayDuty(1, beam.bearing)
        elif change == "beam turns":  # toward the base station
            return beam._replace(bearing=bearing_from_to(
                sim.world.position_of(0, 2.0), sim.world.bs_position))
        return beam

    @pytest.mark.parametrize("change", ["source moves", "receiver moves",
                                        "beam turns", "receiver turns"])
    def test_each_hit_clause_guards_a_change(self, change, plain_loop):
        def relay_deliveries():
            sim, beam = self.relay_scene()
            sim._emit(0, beam, 1.0)
            sim._emit(0, self.change_between_beams(change, sim, beam), 2.0)
            return [(t, power) for t, _, kind, receiver, (*_, power)
                    in sorted(sim._heap)
                    if kind == "OPTICAL_ARRIVAL" and receiver == 1]

        cached = relay_deliveries()
        with plain_loop("deliver_cache"):
            plain = relay_deliveries()
        # the first beam lands, and the second verdict differs from it
        assert plain[0][0] == 1.0 and plain[1:] != [(2.0, plain[0][1])]
        assert cached == plain


class TestIdleRelays:
    """Untraced runs offer a beam only to the relay that would forward it."""

    @staticmethod
    def offers(sim, receiver=1):
        """(time, claimed ID) of every beam queued for `receiver`."""
        return [(t, beam[1]) for t, _, kind, to, beam in sorted(sim._heap)
                if kind == "OPTICAL_ARRIVAL" and to == receiver]

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("src,reaches_bs", [
        (Position(100.0, 60.0, 120.0), False),
        # right below the relay, the beam reaches the base station too, and
        # its arrival is queued at the same instant before node 1's
        (Position(100.0, 100.0, 120.0), True),
    ], ids=["beside", "below"])
    def test_only_the_partner_beam_is_offered(self, traced, src,
                                              reaches_bs, plain_loop):
        def offered(claimed_id):
            sim, beam = TestDeliveryCache.relay_scene(traced, src)
            sim._emit(0, beam._replace(claimed_id=claimed_id), 1.0)
            assert self.offers(sim, "bs") \
                == ([(1.0, claimed_id)] if reaches_bs else [])
            return self.offers(sim)

        # node 1 relays for ID 1; ID 3 is not its partner
        with plain_loop("idle_relays"):
            assert offered(1) == [(1.0, 1)] and offered(3) == [(1.0, 3)]
        assert offered(1) == [(1.0, 1)]
        # the trace logs every physical arrival
        assert offered(3) == ([(1.0, 3)] if traced else [])

    def test_partner_rebound_at_the_same_instant(self, plain_loop):
        # node 1 relays for ID 7 until a frame arrival already queued at the
        # beam's instant names ID 1, node 0's claim, as its partner
        sim, _ = TestDeliveryCache.relay_scene()
        toward_src = sim.nodes[1].relay_duty.receiver_bearing
        slot = SlotPayload(2, 0, round(toward_src.azimuth * 100) % 36000,
                           round((toward_src.elevation + 90.0) * 100),
                           SlotStage.RELAY_RX, partner_id=1)
        arrival = ("frame", FrameIndex(SuperFrame(0, (slot,))), 80.0, 0.05)

        def emit_after_rebind_queued():
            sim, beam = TestDeliveryCache.relay_scene()
            sim.nodes[1].relay_duty = RelayDuty(7, toward_src)
            sim._push(1.0, engine.ACOUSTIC_ARRIVAL, 1, arrival)
            sim._emit(0, beam, 1.0)
            return sim

        sim = emit_after_rebind_queued()
        with plain_loop("idle_relays"):
            assert sim._heap == emit_after_rebind_queued()._heap
        assert self.offers(sim) == [(1.0, 1)]
        # the offer counts: popped after the rebind, node 1 forwards it
        to_bs = []
        while sim._heap:
            t, _, kind, receiver, payload = heappop(sim._heap)
            if kind == engine.ACOUSTIC_ARRIVAL:
                sim._on_acoustic_arrival(t, receiver, payload)
            elif receiver == 1:
                sim._on_optical_arrival(t, receiver, payload)
            else:
                to_bs.append(payload)
        assert sim.nodes[1].relay_duty.partner_id == 1
        assert [(src, claim, relayed) for src, claim, relayed, _ in to_bs] \
            == [(1, 1, True)]

    def test_runs_match_and_skip_most_checks(self, untraced_runs,
                                            monkeypatch, plain_loop):
        computed = plain_computed = 0
        with plain_loop("idle_relays"):
            for (skipping, _, _, n), (plain, _, _, n_plain) in zip(
                    untraced_runs, recorded_runs(monkeypatch, traced=False)):
                assert skipping == plain
                computed += n
                plain_computed += n_plain
        assert computed < 0.5 * plain_computed


class TestNearCoincidentBeams:
    """A receiver a hair's breadth from the beam's source drops it cleanly.

    At 1e-200 m the squared separation underflows to zero; at 3e-162 m it
    does not, and at 2**-536 m the beam also hits and the spot area
    underflows.  Traced runs offer the beam to the non-partner relay,
    untraced runs skip it; both must go on to the same report.
    """

    @pytest.mark.parametrize("gap", [1e-200, 3e-162, 2.0 ** -536], ids=str)
    def test_traced_and_untraced_runs_agree(self, gap):
        def run_after_beam(traced):
            cfg = SimConfig(n_uwn=2)
            sim = Simulation(cfg, seed=0, collect_trace=traced, world=World(
                cfg.bs_position(),
                [Position(0.0, 0.0, 0.0), Position(0.0, 0.0, gap)],
                (200.0, 200.0, 200.0)))
            # node 1 relays for ID 40 and looks straight up at node 0
            relay = sim.nodes[1]
            relay.lifecycle = Lifecycle.ACCESSED
            relay.matched_id = 2
            relay.emission_bearing = Bearing(0.0, 90.0)
            relay.relay_duty = RelayDuty(40, Bearing(0.0, 90.0))
            sim._duty_nodes = [1]
            # straight down, at node 1, claiming ID 1
            sim._emit(0, uwn.Emission(Bearing(0.0, -90.0), claimed_id=1), 1.0)
            offers = TestIdleRelays.offers(sim)
            return sim.run(), offers

        untraced, skipped = run_after_beam(False)
        traced, offered = run_after_beam(True)
        assert untraced == traced and skipped == []
        assert offered == ([(1.0, 1)] if gap == 2.0 ** -536 else [])


def arrival_tallies(make_sim):
    """Run `make_sim()`; return its report and, on entry to every acoustic
    arrival handler, (time, node, what, delay sum, delay count)."""
    seen = []
    real = Simulation._on_acoustic_arrival

    def recording(self, t, i, payload):
        seen.append((t, i, payload[0], self._delay_sum, self._delay_count))
        real(self, t, i, payload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulation, "_on_acoustic_arrival", recording)
        report = make_sim().run()
    return report, seen


class TestInertArrivals:
    """Untraced frame arrivals that change nothing are tallied off the queue.

    Their delays must join `_delay_sum` exactly where the plain loop adds
    them: the tally on entry to every arrival still handled matches the
    plain loop's, and so does the report.
    """

    @staticmethod
    def check_tallies(fast, plain):
        (fast_report, fast_seen), (plain_report, plain_seen) = fast, plain
        handled = {entry[:3] for entry in fast_seen}
        assert fast_seen == [e for e in plain_seen if e[:3] in handled]
        assert fast_report == plain_report
        return {e[:3] for e in plain_seen} - handled  # the tallied arrivals

    @pytest.mark.parametrize("inert_first", [True, False],
                             ids=["inert-first", "live-first"])
    def test_tied_with_a_live_arrival(self, inert_first, plain_loop):
        # node x, accessed directly, lies 90 m + 2.4e-13 m from the base
        # station; the relay's RELAY_RX slot keeps its arrivals live, 90 m
        # out.  At most frame times both arrivals round to one float time,
        # so they pop by sequence, that is by node index
        cfg = SimConfig(n_uwn=3, c0=0.151)
        x = Position(154.0, 100.0, 72.0 + 3e-13)
        target, relay = Position(100, 100, 180), Position(100, 100, 90)
        placed = [x, target, relay] if inert_first else [target, relay, x]

        def make_sim():
            return Simulation(cfg, seed=1, world=World(
                cfg.bs_position(), placed, (200.0, 200.0, 200.0)))

        # the replay would sum the tail in one go; keep it in the loop
        with plain_loop("fast_forward"):
            fast = arrival_tallies(make_sim)
        with plain_loop("fast_forward", "inert_arrivals"):
            plain = arrival_tallies(make_sim)
        tallied = self.check_tallies(fast, plain)
        ix, ir = placed.index(x), placed.index(relay)
        assert [n.outcome for n in fast[0].nodes] == ["accessed"] * 3
        assert fast[0].nodes[placed.index(target)].relay == f"u{ir}"
        delay_x = distance(cfg.bs_position(), x) / 1500.0
        delay_r = distance(cfg.bs_position(), relay) / 1500.0
        # transmit times as the loop builds them, by repeated addition
        frame_times = list(itertools.accumulate([0.1] + [1.0] * 49))
        ties = [t for t in frame_times
                if t + delay_x == t + delay_r and (t + delay_x, ix, "frame")
                in tallied and (t + delay_r, ir, "frame") not in tallied]
        assert delay_x != delay_r and len(ties) > 30

    def test_trigger_tied_with_a_frame_arrival(self, plain_loop):
        # node 0 drifts into the east wall at t = 5 s and stays there; node
        # 1 drifts into the 120 m reach at t = 17 s.  With no frame offset,
        # its trigger and node 0's frame arrival differ in delay but land
        # at one float time, the trigger first: it was queued at the ping
        cfg = SimConfig(n_uwn=2, acoustic_range_m=120.0,
                        current_east_mps=2.0, first_superframe_offset_s=0.0)

        def make_sim():
            return Simulation(cfg, seed=0, world=World(
                cfg.bs_position(),
                [Position(190.0, 100.0, 66.0 + 1e-12),
                 Position(0.0, 100.0, 100.0)],
                (cfg.region_east_m, cfg.region_north_m, cfg.region_depth_m),
                (cfg.current_east_mps, cfg.current_north_mps)))

        fast = arrival_tallies(make_sim)
        with plain_loop("inert_arrivals"):
            plain = arrival_tallies(make_sim)
        tallied = self.check_tallies(fast, plain)
        world = make_sim().world
        delay_0, delay_1 = (world.bs_distance_of(i, 17.0) / 1500.0
                            for i in range(2))
        t = 17.0 + delay_1
        assert delay_0 != delay_1 and 17.0 + delay_0 == t
        assert (t, 1, "trigger") not in tallied and (t, 0, "frame") in tallied
        assert [n.outcome for n in fast[0].nodes] == ["accessed"] * 2

    def test_pending_at_the_quiescent_ping(self, monkeypatch, plain_loop):
        # the frames before the replay land wholly inert, so only the ping
        # can add their delays; the replay must start from the same tally
        at_replay = []
        real_tally = Simulation._tally_until
        real_replay = Simulation._fast_forward_tail

        def flush(self, t, seq):
            self.pending = len(self._inert)  # before the last flush
            real_tally(self, t, seq)

        def replay(self):
            at_replay.append((getattr(self, "pending", 0), self._delay_sum,
                              self._delay_count))
            real_replay(self)

        monkeypatch.setattr(Simulation, "_tally_until", flush)
        monkeypatch.setattr(Simulation, "_fast_forward_tail", replay)
        cfg = SimConfig()
        fast = [run(cfg, seed) for seed in range(3)]
        fast_at_replay, at_replay[:] = at_replay[:], []
        with plain_loop("inert_arrivals"):
            plain = [run(cfg, seed) for seed in range(3)]
        assert fast == plain and len(at_replay) == 3
        assert [tally for _, *tally in fast_at_replay] \
            == [tally for _, *tally in at_replay]
        assert all(pending == 0 for pending, *_ in at_replay)
        assert all(pending >= cfg.n_uwn for pending, *_ in fast_at_replay)

    def test_emitting_node_may_be_confirmed_before_a_relay_slot(
            self, plain_loop):
        # node 0 is bound to ID 1 and emitting.  A CONFIRM for it is still
        # in flight when the next frame names ID 1 the relay of ID 2: the
        # arrival must stay queued, for the node is accessed when it lands
        def relay_slot_heeded():
            cfg = SimConfig(n_uwn=2)
            sim = Simulation(cfg, seed=0, world=World(
                cfg.bs_position(),
                [Position(100.0, 100.0, 90.0), Position(100.0, 100.0, 180.0)],
                (200.0, 200.0, 200.0)))
            bs = sim.bs
            bs.allocate(bs.sonar_scan(
                [(i, sim.world.position_of(i, 0.0)) for i in range(2)],
                sim.rng), 0.0)
            relay, target = bs.registry[1], bs.registry[2]
            relay.stage, relay.access_time = HandshakeStage.ACCESSED, 0.5
            relay.relay_of = 2
            target.stage = HandshakeStage.RELAY_PENDING
            target.relayed_by = 1
            state = sim.nodes[0]
            state.lifecycle, state.matched_id = Lifecycle.EMITTING, 1
            confirm = SlotPayload(1, relay.depth_code, 0, 18000,
                                  SlotStage.CONFIRM)
            sim._push(1.01, engine.ACOUSTIC_ARRIVAL, 0,
                      ("frame", FrameIndex(SuperFrame(0, (confirm,))),
                       90.0, 0.06))
            sim._on_superframe_tx(1.0)
            while sim._heap[0][2] == engine.ACOUSTIC_ARRIVAL:
                t, _, _, i, payload = heappop(sim._heap)
                sim._on_acoustic_arrival(t, i, payload)
            return state

        with plain_loop("inert_arrivals"):
            plain = relay_slot_heeded()
        state = relay_slot_heeded()
        assert state.lifecycle is Lifecycle.ACCESSED
        assert state.relay_duty is not None \
            and state.relay_duty.partner_id == 2
        assert state == plain


class TestSettledReturns:
    """Sonar returns of settled records are skipped only where that is exact.

    Depth noise and misdetection draw from the random stream for every
    return in reach, so with either one nothing may be skipped.
    """

    @pytest.mark.parametrize("overrides", [
        {}, {"p_misdetect": 0.05}, {"sonar_depth_noise_std_m": 3.0}],
        ids=["plain", "misdetect", "noise"])
    def test_skips_only_without_draws(self, overrides, monkeypatch,
                                      plain_loop):
        skipped = []
        real = BsState.sonar_scan

        def counting(self, snapshot, rng):
            detections = real(self, snapshot, rng)
            skipped.append(self.settled_returns)
            return detections

        monkeypatch.setattr(BsState, "sonar_scan", counting)
        runs = [(SimConfig(c0=c0, **overrides), seed)
                for c0 in WATER_TYPES for seed in range(3)]
        fast = [simulate(cfg, seed, collect_trace=True) for cfg, seed in runs]
        n_skipped = sum(skipped)
        with plain_loop("settled_returns"):
            plain = [simulate(cfg, seed, collect_trace=True)
                     for cfg, seed in runs]
        assert fast == plain
        assert (n_skipped > 0) == (not overrides)


def shortcut_runs():
    """Untraced reports and traced results: static, drift and codepth."""
    def runs():
        return scenario_runs(("static", "drift", "codepth"), seeds=range(2))
    return ([simulate(cfg, seed, world).report for cfg, seed, world in runs()],
            [simulate(cfg, seed, world, collect_trace=True)
             for cfg, seed, world in runs()])


@pytest.fixture(scope="module")
def runs_with_shortcuts():
    return shortcut_runs()


class TestShortcuts:
    """Turning any one shortcut off changes no report and no trace."""

    def test_runs_match_with_shortcut_off(self, shortcut, runs_with_shortcuts,
                                          plain_loop):
        with plain_loop(shortcut):
            assert shortcut_runs() == runs_with_shortcuts
