import ast
import dataclasses
import importlib.util
import itertools
import math
import operator
import random
import sys
from collections import Counter
from contextlib import contextmanager
from functools import reduce
from heapq import heappop
from pathlib import Path

import pytest
from conftest import (CORPUS, PLAIN, SLOT_FIELDS, WATER_TYPES,
                      check_held_ids, check_trace_invariants, record)

from uwoan import engine
from uwoan import node as uwn
from uwoan.base_station import BsState, HandshakeStage
from uwoan.channel import optical_reach_bound
from uwoan.config import ConfigError, SimConfig
from uwoan.engine import Simulation, run, simulate, trace
from uwoan.frame import (FrameError, FrameIndex, MovementMarker, SlotPayload,
                         SlotStage, SuperFrame, decode, encode)
from uwoan.geometry import (Bearing, GeometryError, Position, bearing_from_to,
                            distance)
from uwoan.node import Lifecycle, RelayDuty
from uwoan.world import World, generate


def single_node_world(cfg, depth=50.0):
    return World(cfg.bs_position(), [Position(100.0, 100.0, depth)],
                 (cfg.region_east_m, cfg.region_north_m, cfg.region_depth_m))


class TestHandComputedTrace:
    """Oracle: the full event timeline of one node 50 m below the BS."""

    def test_single_node_event_times(self):
        cfg = SimConfig(n_uwn=1)
        sim = Simulation(cfg, seed=0, world=single_node_world(cfg),
                         collect_trace=True)
        report = sim.run()
        delay = 50.0 / 1500.0

        arrivals = [e for e in sim.events if e[1] == engine.ACOUSTIC_ARRIVAL]
        triggers = [e for e in arrivals if e[3][0] == "trigger"]
        assert triggers[0][0] == pytest.approx(delay, abs=1e-12)

        frames = [e for e in arrivals if e[3][0] == "frame"]
        assert frames[0][0] == pytest.approx(0.1 + delay, abs=1e-12)

        beams = [e for e in sim.events if e[1] == engine.OPTICAL_ARRIVAL]
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
        sim = Simulation(cfg, seed=0, world=single_node_world(cfg),
                         collect_trace=True)
        sim.run()
        frame, = next(e[3] for e in sim.events
                      if e[1] == engine.SUPERFRAME_TX)
        assert [(s.network_id, s.stage) for s in frame.slots] \
            == [(1, SlotStage.ASSIGN)]


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


def reports(recordings):
    return [r.report for r in recordings]


class TestFastForward:
    """The settled-tail replay gives exactly the report of the full loop."""

    @pytest.mark.parametrize("c0", WATER_TYPES)
    def test_matches_plain_event_loop(self, c0, recorder):
        # float summation order included; the caches, which static worlds
        # hit most, are checked one by one in TestShortcuts
        fast = [recorder.run("static", c0, seed) for seed in range(100)]
        # the shortcut is the common case
        assert sum(r.settled_at is not None for r in fast) > 50
        plain = [recorder.run("static", c0, seed, off=["fast_forward"])
                 for seed in range(100)]
        assert reports(fast) == reports(plain)

    @pytest.mark.parametrize("row", [
        "drift", "drift_north", "drift_diagonal", "wall", "wall_south",
        "wall_corner", "wall_corner_0.9"])
    def test_drifting_worlds_match_plain_event_loop(self, row, recorder):
        fast = recorder.runs([row], range(4))
        # a 200 m box lies within the 1000 m reach, so every run settles
        assert all(r.settled_at is not None for r in fast)
        plain = recorder.runs([row], range(4), off=PLAIN)
        assert reports(fast) == reports(plain)

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

    def test_drifting_arrivals_tied_out_of_index_order(self, plain_loop):
        # both nodes drift east alike under the base station.  Node 0's
        # delay stays a hair longer than node 1's, yet at most replayed
        # frames the two round to one arrival time: the heap pops node 0
        # first there, and sorting a frame by delay alone would sum node
        # 1's delay first, which moves the last bit of the mean
        cfg = SimConfig(n_uwn=2, current_east_mps=0.02)

        def world():
            return World(cfg.bs_position(),
                         [Position(100.0, 100.0, 50.0 + 7.105427357601002e-14),
                          Position(100.0, 130.0, 40.0)],
                         (cfg.region_east_m, cfg.region_north_m,
                          cfg.region_depth_m),
                         (cfg.current_east_mps, cfg.current_north_mps))

        sim = Simulation(cfg, seed=1, world=world())
        fast = sim.run()
        assert sim.settled_at is not None
        at_rest = world().bs_distances_at_rest()
        speed = sim.profile.sound_speed
        tied, t = 0, cfg.first_superframe_offset_s
        while t < cfg.t_max_s:  # the frame times, as the loop builds them
            if t > sim.settled_at:
                delay0, delay1 = (d / speed for d in at_rest(t))
                tied += delay1 < delay0 and t + delay1 == t + delay0
            t += cfg.superframe_period_s
        assert tied > 40
        with plain_loop():
            plain = simulate(cfg, 1, world()).report
        assert fast.avg_sound_delay_s == 0.03333545976991186
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
    @pytest.mark.parametrize("cfg,seed", [
        (SimConfig(n_uwn=10, t_max_s=6.0), 4),
        (SimConfig(n_uwn=12, c0=0.12, t_max_s=25.0), 11)],
        ids=["seed4", "seed11"])
    def test_trace_invariants(self, cfg, seed):
        sim = Simulation(cfg, seed=seed, collect_trace=True)
        report = sim.run()
        assert report.n_accessed
        check_trace_invariants(sim, report)
        check_held_ids(sim)

    def test_handshakes_follow_the_held_id_under_depth_noise(self):
        # the report prints each node's track record's ID; under depth
        # noise an accessed node may hold another, and its handshakes are
        # those of the ID it holds.  The held IDs themselves still break
        # (ROADMAP item 2): a shared ID or another record's ID
        cfg = SimConfig(c0=0.056, sonar_depth_noise_std_m=0.3)
        elsewhere = 0
        for seed in range(3):
            sim = Simulation(cfg, seed=seed, collect_trace=True)
            report = sim.run()
            check_trace_invariants(sim, report)
            with pytest.raises(AssertionError, match="network id"):
                check_held_ids(sim)
            elsewhere += sum(
                node.network_id != state.matched_id
                for node, state in zip(report.nodes, sim.nodes)
                if node.outcome == "accessed")
        assert elsewhere == 2


class TestBoxInReach:
    """The sonar makes no range test when the whole box is in reach."""

    @staticmethod
    def world(cfg, positions, bs=None):
        return World(bs or cfg.bs_position(), positions,
                     (cfg.region_east_m, cfg.region_north_m,
                      cfg.region_depth_m),
                     (cfg.current_east_mps, cfg.current_north_mps))

    @pytest.mark.parametrize("current", [0.0, 0.02])
    def test_default_box_skips_the_test(self, current):
        # the far corners of the 200 m box lie 245 m from the base station
        cfg = SimConfig(current_east_mps=current)
        sim = Simulation(cfg, seed=0)
        assert sim.bs._skip_range_test
        assert sim._may_fast_forward

    def test_box_partly_out_of_reach_keeps_the_test(self, plain_loop):
        # node 1 lies 236.8 m from the base station, beyond a 150 m range
        cfg = SimConfig(n_uwn=2, acoustic_range_m=150.0)
        nodes = [Position(100.0, 100.0, 50.0), Position(0.0, 0.0, 190.0)]
        sim = Simulation(cfg, seed=0, world=self.world(cfg, nodes))
        report = sim.run()
        assert not sim.bs._skip_range_test
        assert sim.bs.record_for_track(1) is None
        assert [n.outcome for n in report.nodes] == ["accessed", "dormant"]
        with plain_loop():
            assert simulate(cfg, 0, self.world(cfg, nodes)).report == report

    def test_sonar_elsewhere_than_the_world_keeps_the_test(self):
        # the sonar sounds from the config's position; a world built around
        # another one says nothing of the sonar's reach
        cfg = SimConfig(n_uwn=1)
        world = self.world(cfg, [Position(100.0, 100.0, 50.0)],
                           bs=Position(100.0, 100.0, 10.0))
        assert not Simulation(cfg, seed=0, world=world).bs._skip_range_test


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

    @pytest.mark.parametrize("outside, axis", [
        (Position(50.0, 50.0, 250.0), "depth"),
        (Position(-1.0, 50.0, 50.0), "east"),
        (Position(50.0, 200.5, 50.0), "north"),
    ])
    def test_node_outside_the_region_is_rejected(self, outside, axis):
        # clipped readers and the static caches would disagree on it
        bs = SimConfig().bs_position()
        inside = [Position(0.0, 200.0, 200.0), Position(50.0, 50.0, 0.0)]
        assert World(bs, inside, (200.0, 200.0, 200.0)).n == 2
        with pytest.raises(GeometryError, match=f"node 2 {axis}"):
            World(bs, inside + [outside], (200.0, 200.0, 200.0))

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
    def clamped(world, i, t):
        """(east, north, depth) by the clamped formula, with min/max clamps.

        Every term is computed, a resting one as `x + 0 * dt` too."""
        body = world.bodies[i]
        east_max, north_max, depth_max = world.region
        return (min(max(body.east0 + world.current[0] * t, 0.0), east_max),
                min(max(body.north0 + world.current[1] * t, 0.0), north_max),
                min(max(body.depth_ref + body.v_down * (t - body.ref_time),
                        0.0), depth_max))

    @staticmethod
    def bits(values):
        """Each value with its sign, so that 0.0 and -0.0 differ."""
        return [(v, math.copysign(1.0, v)) for v in values]

    def world(self, rng, current, n):
        """`n` random bodies, after bodies on the box's corners and a
        `-0.0` start on every axis."""
        return World(Position(100.0, 75.0, 0.0),
                     [Position(-0.0, -0.0, -0.0), Position(*self.REGION),
                      Position(-0.0, 150.0, 0.0), Position(200.0, -0.0, 50.0)]
                     + [Position(rng.uniform(0.0, 200.0),
                                 rng.uniform(0.0, 150.0),
                                 rng.uniform(0.0, 100.0)) for _ in range(n)],
                     self.REGION, current)

    def test_float_paths_match_positions(self):
        # resting and moving bodies, axes with and without a current (a
        # -0.0 current is none), all six walls and -0.0 starts: the
        # resting terms read as stored keep the formula's bits
        rng = random.Random(11)
        walls, signs = set(), set()
        for current in ((0.0, 0.0), (1.5, 0.8), (-1.5, -0.8), (1.5, 0.0),
                        (0.0, -0.8), (-0.0, 0.8)):
            world = self.world(rng, current, 40)
            for step in range(60):
                t = step * 2.5 + rng.random()
                for i in range(world.n):
                    if rng.random() < 0.2:
                        v = rng.choice((0.0, -0.0, -3.0, 3.0,
                                        rng.uniform(-1, 1)))
                        world.set_vertical_velocity(i, v, t)
                    body = world.bodies[i]
                    ref = self.clamped(world, i, t)
                    assert self.bits(world._coords(body, t)) \
                        == self.bits(ref)
                    assert self.bits([world.depth_of(i, t)]) \
                        == self.bits(ref[2:])
                    pos = world.position_of(i, t)
                    if world.drifting or body.v_down != 0.0:
                        assert self.bits(pos) == self.bits(ref)
                    else:  # a static body's cache keeps its stored start
                        assert pos == ref
                    assert world.bs_distance_of(i, t) \
                        == distance(world.bs_position, pos)
                    signs.update(math.copysign(1.0, v)
                                 for v in ref if v == 0.0)
                    walls.update(
                        wall for wall, hit in (
                            ("west", pos.east == 0.0),
                            ("east", pos.east == 200.0),
                            ("south", pos.north == 0.0),
                            ("north", pos.north == 150.0),
                            ("surface", pos.depth == 0.0),
                            ("floor", pos.depth == 100.0)) if hit)
                assert [self.bits(row) for row in world._rows(t)] \
                    == [self.bits(self.clamped(world, i, t))
                        for i in range(world.n)]
                # the batches, which plain_loop cannot turn off
                assert world.positions(t) == [world.position_of(i, t)
                                              for i in range(world.n)]
                assert world.bs_distances(t) == [world.bs_distance_of(i, t)
                                                 for i in range(world.n)]
        assert walls == {"west", "east", "south", "north", "surface",
                         "floor"}
        assert signs == {1.0, -1.0}  # zeros of both signs were compared

    @pytest.mark.parametrize("current", [(1.5, 0.0), (0.0, 0.8), (-1.5, -0.8),
                                         (-0.0, -0.8)], ids=str)
    def test_distances_at_rest_match_batch(self, current):
        rng = random.Random(12)
        world = self.world(rng, current, 40)
        # move some bodies to the surface, the floor and in between first
        for i in range(world.n):
            world.set_vertical_velocity(i, rng.choice((0.0, -3.0, 3.0)), 0.0)
        for i in range(world.n):
            world.set_vertical_velocity(i, rng.choice((0.0, -0.0)),
                                        rng.uniform(0.0, 50.0))
        at_rest = world.bs_distances_at_rest()
        bs = world.bs_position
        t = 50.0
        for _ in range(120):  # long enough for drifters to reach the walls
            batch = world.bs_distances(t)
            assert at_rest(t) == batch
            # the clamped formula, in `distance`'s operand order
            assert self.bits(batch) == self.bits(
                math.sqrt((east - bs.east) ** 2 + (north - bs.north) ** 2
                          + (depth - bs.depth) ** 2)
                for east, north, depth in (self.clamped(world, i, t)
                                           for i in range(world.n)))
            t += 0.9
        world.set_vertical_velocity(3, 1.0, t)
        with pytest.raises(ValueError):
            world.bs_distances_at_rest()

    @staticmethod
    def assert_valid(pos):
        # built without Position's checks, so the checks must accept it
        assert type(pos) is Position
        assert pos == Position(*pos)

    @pytest.mark.parametrize("current", [(5.0, 5.0), (-5.0, 5.0),
                                         (5.0, -5.0), (-5.0, -5.0),
                                         (5.0, 0.0), (0.0, -5.0)], ids=str)
    def test_positions_are_valid_by_construction(self, current):
        rng = random.Random(13)
        world = World(Position(100.0, 75.0, 0.0),
                      [Position(rng.uniform(0.0, 200.0),
                                rng.uniform(0.0, 150.0),
                                rng.uniform(0.0, 100.0))
                       for _ in range(30)],
                      self.REGION, current)
        depths = set()
        t = 0.0
        for t_next in (0.5, 7.0, 40.0, 300.0, 1e4, 1e6):
            # vertical speeds that take bodies to the surface and the floor
            for i in range(world.n):
                world.set_vertical_velocity(
                    i, rng.choice((0.0, -5.0, 5.0, rng.uniform(-1, 1))), t)
            for t in (t_next * 0.5, t_next):
                for pos in world.positions(t):
                    self.assert_valid(pos)
                for i in range(world.n):
                    pos = world.position_of(i, t)
                    self.assert_valid(pos)
                    depths.add(pos.depth)
        assert {0.0, 100.0} <= depths

    def test_valid_at_the_time_limit(self):
        # two accepted times differ by a finite amount, so a body at rest
        # since the earliest accepted time is still at its depth
        limit = sys.float_info.max / 2
        world = World(Position(100.0, 75.0, 0.0),
                      [Position(10.0, 20.0, 30.0)], self.REGION, (5.0, -5.0))
        world.set_vertical_velocity(0, 0.0, -limit)
        for t in (-limit, 0.0, limit):
            self.assert_valid(world.position_of(0, t))
            self.assert_valid(world.positions(t)[0])
        assert world.position_of(0, limit) == (200.0, 0.0, 30.0)
        with pytest.raises(GeometryError, match="time"):
            world.position_of(0, math.nextafter(limit, math.inf))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_world_inputs_rejected(self, bad):
        bs = Position(100.0, 75.0, 0.0)
        nodes = [Position(10.0, 20.0, 30.0)]
        for region in ((bad, 150.0, 100.0), (200.0, bad, 100.0),
                       (200.0, 150.0, bad)):
            with pytest.raises(GeometryError, match="region limit"):
                World(bs, nodes, region)
            with pytest.raises(GeometryError, match="region limit"):
                World(bs, [], region)
        for current in ((bad, 0.0), (0.0, bad), (bad, bad)):
            with pytest.raises(GeometryError, match="current"):
                World(bs, nodes, self.REGION, current)
        world = World(bs, nodes, self.REGION)
        with pytest.raises(GeometryError, match="velocity"):
            world.set_vertical_velocity(0, bad, 1.0)
        with pytest.raises(GeometryError, match="time"):
            world.set_vertical_velocity(0, 1.0, bad)
        # the rejected calls changed nothing
        assert world.bodies[0].v_down == 0.0
        assert world.position_of(0, 2.0) == (10.0, 20.0, 30.0)
        # a time on the computed paths: a moving body, a drifting world
        world.set_vertical_velocity(0, 1.0, 1.0)
        drifting = World(bs, nodes, self.REGION, (0.5, 0.0))
        for w in (world, drifting):
            with pytest.raises(GeometryError, match="time"):
                w.position_of(0, bad)
            with pytest.raises(GeometryError, match="time"):
                w.positions(bad)


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
        # with idle relays offered too, as in a traced run, each beam has
        # every relay as a receiver
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


@pytest.mark.parametrize("t_max", [0.05, 0.5, 1.5])
def test_event_estimate_bounds_the_queued_events(t_max, recorder):
    # validation caps `event_estimate`; a traced run takes no shortcut, so
    # its sequence counter is every event the plain loop queued.  Under two
    # periods, the ping at t = 0 and the first frame are most of a run
    for cfg, seed, world in recorder.scenes(CORPUS, range(3)):
        cfg = dataclasses.replace(cfg, t_max_s=t_max)
        sim = Simulation(cfg, seed, world, collect_trace=True)
        sim.run()
        assert sim._seq <= cfg.event_estimate(), (cfg, seed)


def test_event_estimate_bounds_the_traced_corpus(recorder):
    # at full length, where the estimate's relay landings and movement
    # intervals, taken at their mean, are typical rather than worst cases
    for r in recorder.corpus(traced=True):
        assert r.seq <= r.cfg.event_estimate(), (r.cfg, r.seed)


def test_node_count_checked_before_deploy(monkeypatch):
    def no_deploy(*args):
        raise AssertionError("deploy drew the nodes of a run it rejects")

    monkeypatch.setattr(engine, "deploy", no_deploy)
    with pytest.raises(ConfigError, match="exceeds the 1023 network IDs"):
        Simulation(SimConfig(n_uwn=1024))


class TestComposedFrame:
    """Receivers match the frame the base station composed; nothing decodes.

    The engine checks each frame against the wire rules and indexes the
    composed object itself; it never encodes it.  Every frame broadcast
    must survive a round trip through the codec field by field, with the
    same types: node code compares stages and markers by identity, and an
    IntEnum slot field holding a plain int would still compare equal.  Its
    wire length must be the `nbytes` it reports, which the trace writes
    from the frames of its SUPERFRAME_TX records: those must be the frames
    broadcast.  Round-tripping after the run also catches a receiver that
    wrote to a shared slot.
    """

    @staticmethod
    def check_runs(runs):
        frames = matches = 0
        for r in runs:
            TestComposedFrame.check_broadcasts(r.frames, r.matched)
            if r.tx_frames is not None:
                assert list(map(id, r.tx_frames)) \
                    == [id(index.frame) for index in r.frames]
            frames += len(r.frames)
            matches += len(r.matched)
        assert frames > 3000 and matches > 3000

    @staticmethod
    def check_broadcasts(sent, seen):
        for index in sent:
            frame = index.frame
            data = encode(frame)
            assert len(data) == frame.nbytes, frame.frame_seq
            decoded = decode(data)
            assert decoded == frame, frame.frame_seq
            for got, composed in zip(decoded.slots, frame.slots):
                got, composed = SLOT_FIELDS(got), SLOT_FIELDS(composed)
                assert list(map(type, composed)) == list(map(type, got)), \
                    composed
            want = FrameIndex(decoded)
            assert list(index.by_id.items()) == list(want.by_id.items())
            assert list(index.assign_by_code.items()) \
                == list(want.assign_by_code.items())
        # every receiver was handed the index of a frame broadcast
        broadcast = {id(index) for index in sent}
        for index in seen:
            assert id(index) in broadcast, index.frame.frame_seq

    def test_traced_runs(self, recorder):
        self.check_runs(recorder.corpus(traced=True))

    def test_untraced_runs(self, recorder):
        self.check_runs(recorder.corpus())


class TestKeptSlots:
    """A record's kept slot is sent only while it is current.

    Composing every slot afresh must broadcast the same bytes in every
    frame.  A slot with angles is dropped whenever its record, or the
    partner its RELAY_RX or RELAY_TX slot points at, moves; a CONFIRM slot
    carries no angles, so it is kept while its record or its relay drifts.
    """

    def test_frames_match_freshly_composed(self, recorder):
        # the plain loop composes every slot afresh.  A traced run keeps
        # slots and sends every frame of the run; an untraced run sends
        # them up to its settled-tail replay
        fresh = [r.frame_bytes for r in recorder.corpus(off=PLAIN)]

        def payloads(runs):
            return [[encode(index.frame) for index in r.frames] for r in runs]
        assert payloads(recorder.corpus(traced=True)) == fresh
        kept = payloads(recorder.corpus())
        assert [sent[:len(k)] for sent, k in zip(fresh, kept)] == kept
        assert sum(map(len, kept)) > 3000

    def test_confirm_slots_carry_no_angles(self, recorder):
        confirms = [slot for r in recorder.corpus() for index in r.frames
                    for slot in index.frame.slots
                    if slot.stage is SlotStage.CONFIRM]
        assert len(confirms) > 10000
        assert {(s.azimuth_centideg, s.elevation_centideg)
                for s in confirms} == {(0, 0)}

    def test_confirm_slot_outlasts_drift(self, recorder):
        # from its access on, a drifting record that never relays is sent
        # one CONFIRM slot object in every frame, however it and its own
        # relay move
        repeats = 0
        for r in recorder.corpus():
            if r.cfg.current_east_mps == 0.0:
                continue
            accessed: dict[int, list[SlotPayload]] = {}
            relays = set()
            for index in r.frames:
                for slot in index.frame.slots:
                    nid = slot.network_id
                    if nid in accessed or slot.stage is SlotStage.CONFIRM:
                        accessed.setdefault(nid, []).append(slot)
                    if slot.stage is SlotStage.RELAY_RX:
                        relays.add(nid)
            for nid, slots in accessed.items():
                if nid not in relays:
                    assert all(s is slots[0] for s in slots), nid
                    repeats += len(slots) - 1
        assert repeats > 8000


def random_angled_confirms(rng):
    """A `compose_superframe` whose CONFIRM slots get random valid angles."""
    real_compose = BsState.compose_superframe

    def compose(self, now):
        frame = real_compose(self, now)
        return SuperFrame(frame.frame_seq, tuple(
            dataclasses.replace(slot, azimuth_centideg=rng.randrange(36000),
                                elevation_centideg=rng.randrange(18001))
            if slot.stage is SlotStage.CONFIRM else slot
            for slot in frame.slots))
    return compose


def test_no_code_reads_confirm_angles(recorder, monkeypatch):
    # traced runs take no shortcut, so every arrival of every CONFIRM slot
    # reaches a node; angles that no code reads change no report or trace
    rows = ("static", "drift")
    traced = recorder.runs(rows, range(3), traced=True)
    want = [r.result for r in traced]
    monkeypatch.setattr(BsState, "compose_superframe",
                        random_angled_confirms(random.Random(0)))
    got = [simulate(cfg, seed, world, collect_trace=True)
           for cfg, seed, world in recorder.scenes(rows, range(3))]
    assert [(r.report, r.trace_lines) for r in got] \
        == [(r.report, r.trace_lines) for r in want]
    assert sum(slot.stage is SlotStage.CONFIRM for r in traced
               for index in r.frames for slot in index.frame.slots) > 1000


def out_of_range(slots):
    if slots:
        last = dataclasses.replace(slots[-1], azimuth_centideg=36000)
        return (*slots[:-1], last)


def partner_dropped(slots):
    partners = [s.partner_id for s in slots if s.stage >= SlotStage.RELAY_RX]
    if partners:
        return tuple(s for s in slots if s.network_id != partners[0])


def repeated_id(slots):
    if slots:
        return (*slots, slots[0])


class TestCorruptFrame:
    """A frame that breaks a wire rule stops the run when it is sent.

    The run loop checks every frame it broadcasts, so a frame corrupted
    after it is composed raises FrameError from the transmit handler, at
    that frame's own time.  Each mutant corrupts the first frame, from the
    fifth on, that it can.
    """

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("corrupt,match", [
        (out_of_range, "azimuth_centideg 36000 outside"),
        (partner_dropped, "names absent partner"),
        (repeated_id, "duplicate network_id"),
    ], ids=["out_of_range", "partner_dropped", "repeated_id"])
    def test_raises_when_sent(self, corrupt, match, traced, recorder,
                              monkeypatch):
        real_compose = BsState.compose_superframe
        real_transmit = Simulation._on_superframe_tx
        corrupted, failed = [], []

        def compose(self, now):
            frame = real_compose(self, now)
            if not corrupted and frame.frame_seq >= 4:
                slots = corrupt(frame.slots)
                if slots is not None:
                    corrupted.append(now)
                    return SuperFrame(frame.frame_seq, slots)
            return frame

        def transmit(self, t):
            try:
                real_transmit(self, t)
            except FrameError:
                failed.append(t)
                raise

        monkeypatch.setattr(BsState, "compose_superframe", compose)
        monkeypatch.setattr(Simulation, "_on_superframe_tx", transmit)
        for cfg, seed, world in recorder.scenes(CORPUS, range(3)):
            try:
                simulate(cfg, seed, world, collect_trace=traced)
            except FrameError as error:
                assert match in str(error)
                break
            assert corrupted == []
        assert len(corrupted) == 1 and failed == corrupted


class TestSlotsStayUnchanged:
    """No composed slot is ever written to.

    Kept slots and the RELAY_RX repeat test both rely on it: each slot
    object must hold the values it was composed with for the rest of the
    run.  Its values are recorded when it is first composed and compared
    when the run ends (`Recording.rewritten`).
    """

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_composed_slots_keep_their_values(self, traced, recorder):
        runs = recorder.corpus(traced=traced)
        assert [r.rewritten for r in runs if r.rewritten] == []
        assert sum(r.slot_objects for r in runs) > 10_000


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
            sim, beam = relay_scene(traced, src)
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
        sim, _ = relay_scene()
        toward_src = sim.nodes[1].relay_duty.receiver_bearing
        slot = SlotPayload(2, 0, round(toward_src.azimuth * 100) % 36000,
                           round((toward_src.elevation + 90.0) * 100),
                           SlotStage.RELAY_RX, partner_id=1)
        arrival = ("frame", FrameIndex(SuperFrame(0, (slot,))), 80.0, 0.05)

        def emit_after_rebind_queued():
            sim, beam = relay_scene()
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

    def test_runs_match_and_skip_most_checks(self, recorder):
        skipping = recorder.corpus()
        plain = recorder.corpus(off=["idle_relays"])
        assert [r.result for r in skipping] == [r.result for r in plain]
        assert sum(r.verdicts for r in skipping) \
            < 0.5 * sum(r.verdicts for r in plain)


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


@contextmanager
def popped_arrivals():
    """Record every handled acoustic arrival as (time, node, what, delay).

    With every shortcut off, each arrival is handled as the loop pops it,
    so the recorded delays are in the order the tally must add them.
    """
    seen = []
    real = Simulation._on_acoustic_arrival

    def recording(self, t, i, payload):
        seen.append((t, i, payload[0], payload[3]))
        real(self, t, i, payload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulation, "_on_acoustic_arrival", recording)
        yield seen


def pop_order_tally(delays):
    """The sum and count of delays, added in the order given."""
    return reduce(operator.add, delays, 0.0), len(delays)


def pop_order_mean(delays):
    total, count = pop_order_tally(delays)
    return total / count if count else 0.0


def delays(seen):
    return [delay for *_, delay in seen]


def arrival_tallies(make_sim):
    """Run `make_sim()`; return its report and its handled arrivals."""
    with popped_arrivals() as seen:
        report = make_sim().run()
    return report, seen


class TestInertArrivals:
    """Untraced frame arrivals that change nothing are only logged.

    Every delivery's delay joins the tally from the arrival log.  The
    oracle is the plain loop with every shortcut off: its delays, added in
    the order the loop pops them, must give `avg_sound_delay_s` bit for
    bit, and the run with its shortcuts on must give the same report.
    """

    @staticmethod
    def check_tallies(fast, plain):
        (fast_report, fast_seen), (plain_report, plain_seen) = fast, plain
        handled = {entry[:3] for entry in fast_seen}
        assert fast_seen == [e for e in plain_seen if e[:3] in handled]
        assert plain_report.avg_sound_delay_s \
            == pop_order_mean(delays(plain_seen))
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

        # the replay would sum the tail in one go; keep it in the loop, and
        # keep the relay's repeated RELAY_RX arrivals live
        with plain_loop("fast_forward", "relay_rx_repeats"):
            fast = arrival_tallies(make_sim)
        with plain_loop():
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
        with plain_loop():
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
        # the frames before the replay land wholly inert, so only the ping's
        # fold adds their delays; the replay must start from the tally the
        # plain loop holds when it pops that ping
        at_replay = []
        real_fold = Simulation._fold
        real_replay = Simulation._fast_forward_tail

        def fold(self, t):
            self.pending = len(self._arrivals)  # before the last fold
            real_fold(self, t)

        def replay(self):
            at_replay.append((self.settled_at, self.pending,
                              len(self._arrivals), self._delay_sum,
                              self._delay_count))
            real_replay(self)

        monkeypatch.setattr(Simulation, "_fold", fold)
        monkeypatch.setattr(Simulation, "_fast_forward_tail", replay)
        cfg = SimConfig()
        fast = [run(cfg, seed) for seed in range(3)]
        assert len(at_replay) == 3
        monkeypatch.undo()
        pings = []
        real_ping = Simulation._on_ping

        def ping(self, t):
            pings.append((t, len(seen)))  # the arrivals popped before it
            real_ping(self, t)

        monkeypatch.setattr(Simulation, "_on_ping", ping)
        for seed, (settled_at, pending, left, *tally) in enumerate(
                at_replay):
            pings.clear()
            with plain_loop(), popped_arrivals() as seen:
                assert run(cfg, seed) == fast[seed]
            popped = dict(pings)[settled_at]
            assert tally == list(pop_order_tally(delays(seen[:popped])))
            assert pending >= cfg.n_uwn and left == 0

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

    @staticmethod
    def drain(sim):
        """Handle every queued acoustic arrival in loop order, folding the
        logged delays that land before each one first."""
        while sim._heap:
            t, _, kind, i, payload = heappop(sim._heap)
            sim._fold(t)
            if kind == engine.ACOUSTIC_ARRIVAL:
                sim._on_acoustic_arrival(t, i, payload)

    @staticmethod
    def queue_confirm(sim, t, confirm):
        """Queue and log a CONFIRM arrival at node 0, as a frame would."""
        sim._arrivals.append((t, 0.06))
        sim._push(t, engine.ACOUSTIC_ARRIVAL, 0,
                  ("frame", FrameIndex(SuperFrame(0, (confirm,))), 90.0, 0.06))

    @staticmethod
    def check_drained(fast, plain):
        """Same nodes, and the tally in the order the plain loop pops."""
        (sim, sent), ((plain_sim, _), plain_seen) = fast, plain
        assert sim.nodes == plain_sim.nodes
        assert (sim._delay_sum, sim._delay_count) \
            == (plain_sim._delay_sum, plain_sim._delay_count) \
            == pop_order_tally(delays(plain_seen))
        return sim.nodes[0], sent

    @staticmethod
    def relay_world(cfg, positions):
        return Simulation(cfg, seed=0, world=World(
            cfg.bs_position(), positions, (200.0, 200.0, 200.0)))

    @pytest.mark.parametrize("confirm_at", [1.01, 1.5])
    def test_relay_slot_reaching_an_emitting_node(self, confirm_at,
                                                  plain_loop):
        # record 1 is accessed and relays for record 2, but node 0 is still
        # emitting when the first RELAY_RX reaches it at 1.06: it heeds the
        # slot if its CONFIRM lands at 1.01, and ignores it if that lands
        # at 1.5.  The same slot object comes again at 2.0 and 3.0; the
        # node must hold the duty either way
        def run_frames():
            cfg = SimConfig(n_uwn=2, direct_retries=1)
            sim = self.relay_world(cfg, [Position(100.0, 100.0, 90.0),
                                         Position(100.0, 100.0, 180.0)])
            bs = sim.bs
            bs.allocate(bs.sonar_scan(
                [(i, sim.world.position_of(i, 0.0)) for i in range(2)],
                sim.rng), 0.0)
            bs.compose_superframe(0.1)
            bs.on_optical_arrival(1, via_relay=False, now=0.3)
            confirm = bs.compose_superframe(0.4).slots[0]
            bs.handle_timeouts(0.5)
            assert bs.registry[1].relay_of == 2
            state = sim.nodes[0]
            state.lifecycle, state.matched_id = Lifecycle.EMITTING, 1
            self.queue_confirm(sim, confirm_at, confirm)
            sent = []
            for t in (1.0, 2.0, 3.0):
                sim._on_superframe_tx(t)
                sent.append(bs.registry[1].slot)
                self.drain(sim)
            sim._fold(math.inf)
            return sim, sent

        with plain_loop(), popped_arrivals() as seen:
            plain = run_frames(), seen
        state, sent = self.check_drained(run_frames(), plain)
        assert sent[0] is sent[1] is sent[2]
        assert state.lifecycle is Lifecycle.ACCESSED
        assert state.relay_duty == RelayDuty(2, uwn.slot_bearing(sent[0]))

    def test_relay_released_and_rebound_in_flight(self, plain_loop):
        # record 1 relays for record 2.  The frame at 2.0 repeats its
        # RELAY_RX slot; while that arrival is in flight, record 2's direct
        # beam releases the relay and record 3 binds it.  The frame at 3.0
        # must carry a fresh slot naming record 3, and node 0 must heed it
        def run_frames():
            cfg = SimConfig(n_uwn=3, direct_retries=1)
            sim = self.relay_world(cfg, [Position(100.0, 100.0, 90.0),
                                         Position(100.0, 100.0, 180.0),
                                         Position(150.0, 100.0, 150.0)])
            bs = sim.bs
            snapshot = [(i, sim.world.position_of(i, 0.0)) for i in range(3)]
            bs.allocate(bs.sonar_scan(snapshot[:2], sim.rng), 0.0)
            bs.compose_superframe(0.1)
            bs.on_optical_arrival(1, via_relay=False, now=0.3)
            bs.compose_superframe(0.4)
            bs.handle_timeouts(0.5)
            bs.allocate(bs.sonar_scan(snapshot, sim.rng), 0.6)
            state = sim.nodes[0]
            state.lifecycle, state.matched_id = Lifecycle.ACCESSED, 1
            state.access_time = 0.45
            sent = []
            for t in (1.0, 2.0, 3.0, 4.0):
                sim._on_superframe_tx(t)
                sent.append(bs.registry[1].slot)
                if t == 2.0:
                    bs.on_optical_arrival(2, via_relay=False, now=2.01)
                    assert bs.registry[1].slot is None
                    bs.handle_timeouts(2.02)
                    assert bs.registry[1].relay_of == 3
                    assert bs.registry[1].slot is None
                self.drain(sim)
            sim._fold(math.inf)
            return sim, sent

        with plain_loop(), popped_arrivals() as seen:
            plain = run_frames(), seen
        state, sent = self.check_drained(run_frames(), plain)
        assert sent[0] is sent[1] and sent[2] is sent[3]
        assert (sent[1].partner_id, sent[2].partner_id) == (2, 3)
        assert state.relay_duty == RelayDuty(3, uwn.slot_bearing(sent[2]))

    def test_relay_rx_repeats_are_tallied(self, recorder):
        fast = recorder.corpus()
        plain = recorder.corpus(off=["relay_rx_repeats"])
        assert reports(fast) == reports(plain)
        assert sum(len(r.delays) for r in plain) \
            > sum(len(r.delays) for r in fast)

    @pytest.mark.parametrize("partner_dives", [False, True],
                             ids=["drifting", "partner_dives"])
    def test_equal_relay_rx_slots_are_tallied(self, partner_dives,
                                              monkeypatch, plain_loop):
        # node 1 relays for node 0, which lies 10 m east of the point below
        # it.  Both drift east together, so each ping recomposes the
        # RELAY_RX slot as a fresh object with the same angles.  A partner
        # that dives from 20 s to 24 s changes the angles at those pings.
        # The relay must handle exactly the arrivals whose slot differs
        # from the one before, and end as in the plain loop
        cfg = SimConfig(n_uwn=2, c0=0.151, current_east_mps=0.02)
        handled = []
        real_arrival = Simulation._on_acoustic_arrival
        real_ping = Simulation._on_ping

        def arrival(self, t, i, payload):
            state = self.nodes[i]
            if i == 1 and payload[0] == "frame" \
                    and state.lifecycle is Lifecycle.ACCESSED:
                slot = payload[1].by_id.get(state.matched_id)
                if slot is not None and slot.stage is SlotStage.RELAY_RX:
                    handled.append((t, slot))
            real_arrival(self, t, i, payload)

        def ping(self, t):
            if partner_dives and t in (20.0, 24.0):
                self.world.set_vertical_velocity(0, 0.5 * (t == 20.0), t)
            real_ping(self, t)

        monkeypatch.setattr(Simulation, "_on_acoustic_arrival", arrival)
        monkeypatch.setattr(Simulation, "_on_ping", ping)

        def run():
            handled.clear()
            world = World(cfg.bs_position(), [Position(110.0, 100.0, 180.0),
                                              Position(100.0, 100.0, 90.0)],
                          (200.0, 200.0, 200.0), current=(0.02, 0.0))
            sim = Simulation(cfg, seed=1, world=world)
            return sim.run(), sim.nodes, handled[:]

        # no settled-tail replay, so every frame goes through the loop
        with plain_loop("fast_forward"):
            report, nodes, fast = run()
        with plain_loop("fast_forward", "relay_rx_repeats"):
            plain_report, plain_nodes, plain = run()
        assert (report, nodes) == (plain_report, plain_nodes)
        assert report.nodes[0].relay == "u1"
        assert len(plain) > 40
        changed = [t for k, (t, slot) in enumerate(plain) if k == 0
                   or SLOT_FIELDS(slot) != SLOT_FIELDS(plain[k - 1][1])]
        assert [t for t, _ in fast] == changed
        assert len(changed) == (5 if partner_dives else 1)
        # the slots the relay was spared were fresh objects, not repeats
        # of one object
        assert len({id(slot) for _, slot in plain}) > 2 * len(changed)

    def test_log_stays_bounded(self, monkeypatch):
        # a lossy run never replays, so it folds at every one of its 400
        # pings; the log must hold only what is still in flight, at most a
        # trigger and a frame arrival per node, however long the run
        cfg = SimConfig(p_frame_loss=0.1, t_max_s=400.0)
        logged = []
        real_fold = Simulation._fold

        def fold(self, t):
            logged.append(len(self._arrivals))
            real_fold(self, t)

        monkeypatch.setattr(Simulation, "_fold", fold)
        for seed in range(3):
            logged.clear()
            sim = Simulation(cfg, seed)
            sim.run()
            assert sim.settled_at is None and len(logged) == 401
            assert cfg.n_uwn < max(logged) <= 2 * cfg.n_uwn

    def test_tally_is_summed_in_pop_order(self, recorder):
        fast = recorder.corpus()
        plain = recorder.corpus(off=PLAIN)
        assert reports(fast) == reports(plain)
        for r in plain:
            assert r.report.avg_sound_delay_s == pop_order_mean(r.delays)


class TestSettledReturns:
    """Unchanged sonar returns are skipped only where that is exact.

    Depth noise and misdetection draw from the random stream for every
    return in reach, so with either one nothing may be skipped.
    """

    @pytest.mark.parametrize("row", ["static", "misdetect", "sonar_noise"])
    def test_skips_only_without_draws(self, row, recorder):
        runs = recorder.runs([row], range(3), traced=True)
        skipped = sum(r.skipped for r in runs)
        assert (skipped > 0) == (row == "static")
        if skipped:  # with none skipped, turning the skip off changes nothing
            plain = recorder.runs([row], range(3), traced=True,
                                  off=["unchanged_returns"])
            assert [r.result for r in plain] == [r.result for r in runs]


def bench_spec(workload, k, seed=3):
    """(config, seed, world) of the benchmark workload's spec `k`."""
    path = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", path / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        run = module.WORKLOADS[workload].specs(seed)[k]
    return run.config, run.seed, run.world()


class TestBeyondReach:
    """An answer that can reach no receiver stays off the queue.

    When every frame lands before the next one is sent, an untraced run
    only logs a bound, unaccessed node's frame arrival if the beam it
    answers with is beyond optical reach of the base station and, for a
    RELAY_TX slot, of every node bound to the relay's ID.  The oracle is the
    plain loop with every shortcut off.
    """

    @staticmethod
    def relay_run():
        """Node 0 lies too deep for a direct link in turbid water; node 1,
        above it, relays.  Returns the report, the ASSIGN slots sent to
        record 1 and handled at node 0, and record 1's stage and retries
        after each timeout check."""
        cfg = SimConfig(n_uwn=2, c0=0.151)
        world = World(cfg.bs_position(), [Position(100.0, 100.0, 180.0),
                                          Position(100.0, 100.0, 90.0)],
                      (200.0, 200.0, 200.0))
        sent, handled, timeline = [], [], []
        real_compose = BsState.compose_superframe
        real_arrival = Simulation._on_acoustic_arrival
        real_timeouts = BsState.handle_timeouts

        def assign_slot(frame):
            """Record 1's slot in `frame` if it is ASSIGN, else None."""
            slot = FrameIndex(frame).by_id.get(1)
            return slot if slot and slot.stage is SlotStage.ASSIGN else None

        def compose(self, now):
            frame = real_compose(self, now)
            slot = assign_slot(frame)
            if slot is not None:
                sent.append(slot)
            return frame

        def arrival(self, t, i, payload):
            slot = assign_slot(payload[1].frame) \
                if i == 0 and payload[0] == "frame" else None
            if slot is not None:
                handled.append(slot)
            real_arrival(self, t, i, payload)

        def timeouts(self, now):
            real_timeouts(self, now)
            rec = self.registry.get(1)
            if rec is not None:
                timeline.append((now, rec.stage, rec.retries_remaining))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BsState, "compose_superframe", compose)
            patch.setattr(Simulation, "_on_acoustic_arrival", arrival)
            patch.setattr(BsState, "handle_timeouts", timeouts)
            sim = Simulation(cfg, seed=1, world=world)
            report = sim.run()
        assert report.nodes[0].relay == "u1"
        return report, sim.nodes, sent, handled, timeline

    def test_only_the_binding_assign_arrival_is_queued(self, plain_loop):
        # no settled-tail replay, so both runs check timeouts to the end
        with plain_loop("fast_forward"):
            report, nodes, sent, handled, timeline = self.relay_run()
        with plain_loop():
            plain_report, plain_nodes, plain_sent, plain_handled, \
                plain_timeline = self.relay_run()
        assert (report, nodes, timeline) \
            == (plain_report, plain_nodes, plain_timeline)
        assert [SLOT_FIELDS(s) for s in sent] \
            == [SLOT_FIELDS(s) for s in plain_sent]
        # every direct retry burns before the relay takes over
        assert len(sent) == SimConfig().direct_retries
        assert plain_handled == plain_sent
        # the first arrival binds the node; the rest answer from 180 m
        assert handled == sent[:1]

    @pytest.mark.parametrize("change", [
        None,
        lambda rec: setattr(rec, "reset_bit", 1),
        lambda rec: setattr(rec, "observed_motion", MovementMarker.DIVING),
        lambda rec: setattr(rec, "depth_code", rec.depth_code + 1),
    ], ids=["unchanged", "reset_bit", "marker", "depth_code"])
    def test_changed_slot_is_only_logged_too(self, change, plain_loop):
        # node 0 binds to the slot of the frame at 1.0 and answers it with
        # a beam that misses.  A change to its record before the frame at
        # 3.0 makes a fresh slot; the rule keeps no memory of slots, so
        # that arrival is only logged like the repeats at 2.0 and 4.0
        def run_frames():
            cfg = SimConfig(n_uwn=1, c0=0.151)
            sim = TestInertArrivals.relay_world(
                cfg, [Position(100.0, 100.0, 180.0)])
            bs = sim.bs
            bs.allocate(bs.sonar_scan(
                [(0, sim.world.position_of(0, 0.0))], sim.rng), 0.0)
            sim.nodes[0].lifecycle = Lifecycle.ACTIVATED  # as a ping would
            sent = []
            for t in (1.0, 2.0, 3.0, 4.0):
                if t == 3.0 and change is not None:
                    change(bs.registry[1])
                sim._on_superframe_tx(t)
                sent.append(bs.registry[1].slot)
                TestInertArrivals.drain(sim)
            sim._fold(math.inf)
            return sim, sent

        with plain_loop(), popped_arrivals() as seen:
            plain = run_frames(), seen
        with popped_arrivals() as seen:
            fast = run_frames()
        state, sent = TestInertArrivals.check_drained(fast, plain)
        assert state.lifecycle is Lifecycle.EMITTING
        assert sent[0] is sent[1] and sent[2] is sent[3]
        assert (sent[1] is sent[2]) == (change is None)
        assert [math.floor(t) for t, *_ in plain[1]] == [1, 2, 3, 4]
        assert [math.floor(t) for t, *_ in seen] == [1]

    @pytest.mark.parametrize("relay_depth, queued", [(90.0, True),
                                                     (20.0, False)])
    def test_relay_tx_answer_beyond_the_relay(self, relay_depth, queued,
                                              plain_loop):
        # node 0, 180 m below the base station in turbid water, falls back
        # to node 1, which relays from 90 m (in reach) or 20 m (160 m off)
        def run():
            cfg = SimConfig(n_uwn=2, c0=0.151)
            sim = TestInertArrivals.relay_world(
                cfg, [Position(100.0, 100.0, 180.0),
                      Position(100.0, 100.0, relay_depth)])
            relay_tx = []
            real = Simulation._on_acoustic_arrival

            def arrival(self, t, i, payload):
                slot = payload[1] and payload[1].by_id.get(1)
                if i == 0 and slot and slot.stage is SlotStage.RELAY_TX:
                    relay_tx.append(t)
                real(self, t, i, payload)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Simulation, "_on_acoustic_arrival", arrival)
                report = sim.run()
            return report, sim.nodes, relay_tx

        with plain_loop("fast_forward"):
            fast = run()
        with plain_loop():
            plain = run()
        assert fast[:2] == plain[:2]
        assert plain[2] and (fast[2] == plain[2]) == queued
        if not queued:
            assert fast[2] == [] and fast[0].n_failed == 1

    def test_forwarder_is_the_node_bound_to_the_relay_id(self, plain_loop):
        # node 2 took record 2's ID from node 1, its sonar track, and
        # relays for record 1, node 0's.  All three lie straight below the
        # base station in turbid water: node 0, at 190 m, is beyond reach of
        # the base station and of node 1, at 10 m, but node 2, at 100 m,
        # forwards its RELAY_TX answer to the base station
        def run_frames():
            cfg = SimConfig(n_uwn=3, c0=0.151)
            sim = TestInertArrivals.relay_world(
                cfg, [Position(100.0, 100.0, depth)
                      for depth in (190.0, 10.0, 100.0)])
            bs, nodes = sim.bs, sim.nodes
            bs.allocate(bs.sonar_scan(
                [(i, sim.world.position_of(i, 0.0)) for i in (0, 1)],
                sim.rng), 0.0)
            pending, relay = bs.registry[1], bs.registry[2]
            relay.stage, relay.access_time = HandshakeStage.ACCESSED, 0.5
            del bs._live[2]
            relay.relay_of, pending.relayed_by = 1, 2
            pending.stage = HandshakeStage.RELAY_PENDING
            nodes[0].matched_id, nodes[0].lifecycle = 1, Lifecycle.EMITTING
            nodes[2].matched_id, nodes[2].lifecycle = 2, Lifecycle.ACCESSED
            nodes[2].emission_bearing = bearing_from_to(
                sim.world.position_of(2, 0.0), sim.world.bs_position)
            sim._on_superframe_tx(1.0)
            while sim._heap:
                t, _, kind, i, payload = heappop(sim._heap)
                if kind == engine.ACOUSTIC_ARRIVAL:
                    sim._on_acoustic_arrival(t, i, payload)
                elif kind == engine.OPTICAL_ARRIVAL:
                    sim._on_optical_arrival(t, i, payload)
            return sim

        with plain_loop():
            plain = run_frames()
        fast = run_frames()
        assert fast.nodes == plain.nodes
        assert fast.bs.registry[1].stage is plain.bs.registry[1].stage \
            is HandshakeStage.CONFIRMING

    def test_no_duty_names_a_record_sent_an_assign_slot(self, recorder):
        # the premise that keeps a missed direct beam from every relay: at
        # each frame, no node's duty names an ID whose slot is ASSIGN
        duties = sum((r.partner_stages
                      for r in recorder.corpus(off=PLAIN)),
                     Counter())
        assert duties and SlotStage.ASSIGN not in duties
        assert SlotStage.RELAY_TX in duties

    def test_duties_name_only_the_relays_partner(self, recorder):
        # the premise that gives a RELAY_TX answer no forwarder but the
        # nodes bound to its relay's ID: at each frame, a node whose duty
        # names record c is bound to the record relaying c.  The same runs
        # show where the rule fires: beyond the reach of turbid and coastal
        # water, never in clear water
        runs = recorder.corpus()
        checked = sum((r.duties_bound for r in runs), Counter())
        assert checked[True] and not checked[False]
        # codepth's nodes stay near the BS
        assert all(r.missed for r in runs
                   if r.row != "codepth" and r.cfg.c0 > 0.1)
        assert not any(r.missed for r in runs if r.cfg.c0 < 0.1)

    @staticmethod
    def queued_fewer(runs):
        """Reports and end states equal the plain loop's; returns how many
        runs queued fewer events with the rule on.  `runs(*off)` records
        the runs with the named shortcuts off."""
        fast = runs("fast_forward")
        queued = runs("fast_forward", "beyond_reach")
        plain = runs(*PLAIN)
        assert [(r.report, r.nodes) for r in fast] \
            == [(r.report, r.nodes) for r in plain]
        assert [r.report.avg_sound_delay_s for r in fast] \
            == [r.report.avg_sound_delay_s for r in plain]
        return sum(f.seq < q.seq for f, q in zip(fast, queued))

    # row -> seeds: currents along each axis and one that clamps every node
    # at a wall, attenuation gradients, imperfect channels, and periods at
    # the gate and just below it
    ROWS = {"static": 3, "codepth": 3, "drift": 2, "north": 2, "both": 2,
            "wall": 2, "gamma+": 2, "gamma-": 2, "loss": 3, "misdetect": 3,
            "depth_noise": 3, "at_gate": 2, "below_gate": 2}

    @pytest.mark.parametrize("row", list(ROWS))
    def test_runs_match_the_plain_loop(self, row, recorder):
        fired = self.queued_fewer(
            lambda *off: recorder.runs([row], range(self.ROWS[row]), off=off))
        assert (fired > 0) == (row != "below_gate")

    @pytest.mark.parametrize("workload, k", [("drift", 24), ("codepth", 62)])
    def test_stolen_id_runs_match_the_plain_loop(self, workload, k):
        # two nodes end bound to one ID in each of these benchmark runs
        cfg, seed, world = bench_spec(workload, k)
        sim = Simulation(cfg, seed, world)
        sim.run()
        ids = [s.matched_id for s in sim.nodes if s.matched_id is not None]
        assert len(ids) > len(set(ids))
        turbid = dataclasses.replace(cfg, c0=0.151)
        assert self.queued_fewer(lambda *off: [
            record(c, seed, world and bench_spec(workload, k)[2], off=off)
            for c in (cfg, turbid)]) >= 1

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("offset, fires", [(-0.001, False),
                                               (0.001, True)])
    def test_node_at_the_bound(self, offset, fires, traced):
        # one static node straight below the base station in turbid water,
        # just inside or just beyond the reach bound
        cfg = SimConfig(n_uwn=1, c0=0.151)
        bound = optical_reach_bound(cfg.link_budget(), cfg.water_profile(),
                                    cfg.region_depth_m)

        def runs(*off):
            return [record(cfg, 0, World(
                cfg.bs_position(), [Position(100.0, 100.0, bound + offset)],
                (200.0, 200.0, 200.0)), traced, off)]

        if not traced:
            assert self.queued_fewer(runs) == int(fires)
            return
        # a traced run queues every answer; the bound drops its beams
        # before the power formula
        (on,), (plain,) = runs(), runs("beyond_reach")
        assert on.result == plain.result and plain.powers > 0
        assert on.powers == (0 if fires else plain.powers)

    def test_range_past_the_search_runs(self):
        # an infinite bound drops no beam and skips no answer
        cfg = SimConfig(n_uwn=3, c0=1e-9, rx_sensitivity_w=1e-30)
        assert simulate(cfg, 1).report \
            == simulate(cfg, 1, collect_trace=True).report

    def test_traced_beams_beyond_reach_skip_the_power_formula(
            self, recorder):
        # traced runs queue every answer, so the bound acts on beams alone:
        # the traces stay the same and the test is not vacuous
        bounded = recorder.corpus(traced=True)
        plain = recorder.corpus(traced=True, off=["beyond_reach"])
        assert [r.result for r in bounded] == [r.result for r in plain]
        powers = [(r.powers, p.powers) for r, p in zip(bounded, plain)]
        assert all(on <= off for on, off in powers)
        assert sum(on for on, _ in powers) < sum(off for _, off in powers)


def kept_events_off_the_queue(on, off):
    return any(o.seq > n.seq for n, o in zip(on, off))


class TestShortcuts:
    """Turning any one shortcut off changes no report and no trace."""

    # how each shortcut shows that it fired: on and off are its runs with
    # it on and off.  The position caches leave no mark a run records
    FIRED = {
        "fast_forward": kept_events_off_the_queue,
        "inert_arrivals": kept_events_off_the_queue,
        "relay_rx_repeats": kept_events_off_the_queue,
        "beyond_reach": kept_events_off_the_queue,
        "kept_slots": lambda on, off: sum(r.slot_objects for r in on)
        < sum(r.slot_objects for r in off),
        "idle_relays": lambda on, off: sum(r.verdicts for r in on)
        < sum(r.verdicts for r in off),
        "unchanged_returns": lambda on, off: any(
            r.unchanged_returns for r in on),
        # every run's first ping has returns, untested when the flag is on
        "range_test": lambda on, off: all(r.range_untested for r in on)
        and not any(r.range_untested for r in off),
    }
    UNSEEN = ("cached_pos", "cached_bs_dist")

    def test_runs_match_with_shortcut_off(self, shortcut, recorder):
        def runs(traced=False, off=()):
            return recorder.runs(("static", "drift", "codepth"), range(2),
                                 traced, off)

        on, off = runs(), runs(off=[shortcut])
        assert reports(off) == reports(on)
        assert [r.result for r in runs(True, [shortcut])] \
            == [r.result for r in runs(True)]
        # the comparisons above are not vacuous: the shortcut fired
        if shortcut not in self.UNSEEN:
            assert self.FIRED[shortcut](on, off)

    def test_entry_names_an_attribute_of_its_owner(self, shortcut_entry):
        # `plain_loop` patches with raising=False: a misspelt name would add
        # an unused property, leave the shortcut on and pass the test above
        owner, attribute, _ = shortcut_entry
        slots = getattr(owner, "__slots__", None)
        if slots is None:  # set on a fresh instance by the constructor
            assert attribute in vars(owner(SimConfig()))
        else:
            assert attribute in slots


def slot_stage_names(source):
    """Every slot-stage name a source file imports or reads off a module."""
    found = []
    for stmt in ast.walk(ast.parse(source)):
        if isinstance(stmt, ast.ImportFrom):
            names = [alias.name for alias in stmt.names]
        elif isinstance(stmt, ast.Attribute):
            names = [stmt.attr]
        else:
            continue
        found += [name for name in names
                  if name.startswith("SLOT_") or name == "SlotStage"]
    return sorted(found)


def test_engine_leaves_the_bound_slot_rule_to_node():
    # `node.heeds` is the one statement of which slots a bound node heeds
    source = Path(engine.__file__).read_text()
    assert slot_stage_names(source) == []


def test_slot_stage_guard_sees_each_form():
    source = ("from .frame import SLOT_RELAY_RX, FrameIndex\n"
              "from .base_station import SLOT_CONFIRM as confirm\n"
              "from .frame import SlotStage\n"
              "stage = frame.SLOT_ASSIGN\n")
    assert slot_stage_names(source) \
        == ["SLOT_ASSIGN", "SLOT_CONFIRM", "SLOT_RELAY_RX", "SlotStage"]


def names_read(source):
    """Every name a source file imports, reads or reads off an object."""
    found = set()
    for stmt in ast.walk(ast.parse(source)):
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in stmt.names)
        elif isinstance(stmt, ast.Name):
            found.add(stmt.id)
        elif isinstance(stmt, ast.Attribute):
            found.add(stmt.attr)
    return found


def test_only_conftest_names_the_scenario_table():
    # a differential test reads the recorder, which simulates each run of
    # the table once per mode, rather than simulating the table itself
    tests = Path(__file__).resolve().parent
    table = "SCENARIOS"
    assert table in names_read((tests / "conftest.py").read_text())
    naming = [path.name for path in sorted(tests.glob("test_*.py"))
              if table in names_read(path.read_text())]
    assert naming == []


def test_scenario_table_guard_sees_each_form():
    for source in ("from conftest import SCENARIOS as rows\n",
                   "import conftest.SCENARIOS\n",
                   "rows = conftest.SCENARIOS\n",
                   "rows = list(SCENARIOS)\n"):
        assert "SCENARIOS" in names_read(source), source


def test_recordings_come_only_from_unpatched_code(recorder, monkeypatch,
                                                  plain_loop):
    # a run already recorded is refused too, so the order tests run in
    # cannot hide a patch
    recorder.run("static", WATER_TYPES[0], 0)
    real = BsState.compose_superframe
    monkeypatch.setattr(BsState, "compose_superframe",
                        lambda self, now: real(self, now))
    with pytest.raises(RuntimeError, match="compose_superframe is patched"):
        recorder.run("static", WATER_TYPES[0], 0)
    monkeypatch.undo()
    with plain_loop("kept_slots"):
        with pytest.raises(RuntimeError, match="slot is patched"):
            recorder.run("static", WATER_TYPES[0], 0)
    assert recorder.run("static", WATER_TYPES[0], 0).report


# the keys of the trace's text, which only `engine.format_event` writes
TRACE_KEYS = [f"{key}=" for key in (
    "what", "src", "dist", "delay", "claim", "power", "nbytes", "slots",
    "detected")] + [f"relayed={bit}" for bit in (0, 1)]


def trace_keys_in(source):
    """Every trace key that a string constant of a source file holds."""
    return [key for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for key in TRACE_KEYS if key in node.value]


def test_tests_and_demos_read_records_not_trace_text():
    # the trace's text has one writer; a reader takes a run's event records
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "tests").glob("*.py")) \
        + sorted((root / "demos").glob("*.py"))
    assert len(paths) > 20
    holding = {path.name: keys for path in paths
               if (keys := trace_keys_in(path.read_text()))}
    assert holding == {}


def test_trace_key_guard_sees_each_form():
    for key in TRACE_KEYS:
        for source in (f"x = {key!r}\n",
                       f"x = f'{{t}} {key}{{v}}'\n",
                       f"def f():\n    '''{key} in a docstring'''\n",
                       f"x = ('a' {key!r})\n"):
            assert trace_keys_in(source) == [key], source


def test_untraced_run_records_nothing():
    sim = Simulation(SimConfig(n_uwn=5, t_max_s=5.0), seed=1)
    sim.run()
    assert sim.events is None and sim.trace_lines is None
