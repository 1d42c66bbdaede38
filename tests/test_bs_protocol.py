import ast
import collections
import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import uwoan
from uwoan import base_station
from uwoan.base_station import (
    BsState,
    Detection,
    HandshakeStage,
    ProtocolError,
    _slot_angles,
    nearest_eligible_relay,
)
from uwoan.frame import MovementMarker, SlotPayload, SlotStage
from uwoan.config import SimConfig
from uwoan.geometry import (Bearing, GeometryError, Position,
                            bearing_from_to, distance)

def make_bs(**kw):
    return BsState(SimConfig(**kw))


def scan(bs, positions, rng=None):
    snapshot = list(enumerate(positions))
    return bs.sonar_scan(snapshot, rng or random.Random(0))


def walk_to_accessed(bs, nid, now):
    """Drive one record through beam arrival and confirmation broadcast."""
    bs.on_optical_arrival(nid, via_relay=False, now=now)
    bs.compose_superframe(now + 0.1)
    assert bs.registry[nid].stage is HandshakeStage.ACCESSED


class TestSonarScan:
    def test_empty_world(self):
        assert scan(make_bs(), []) == []

    def test_fifty_nodes_in_cube_all_detected(self):
        rng = random.Random(1)
        positions = [Position(rng.uniform(0, 200), rng.uniform(0, 200),
                              rng.uniform(0, 200)) for _ in range(50)]
        assert len(scan(make_bs(), positions)) == 50

    def test_nearby_depths_share_code(self):
        dets = scan(make_bs(), [Position(0, 0, 100.0), Position(5, 5, 100.3)])
        assert dets[0].depth_code == dets[1].depth_code

    def test_out_of_radius_skipped(self):
        bs = make_bs(acoustic_range_m=50.0)
        dets = scan(bs, [Position(100, 100, 10), Position(100, 100, 199)])
        assert [d.track_key for d in dets] == [0]

    @pytest.mark.parametrize("final", ["accessed", "failed"])
    def test_unchanged_returns_fold_to_nothing(self, final):
        # record 1 ends final, then its node dives 1 m and stops; record 2
        # still awaits its beam, and records 3 and 4 share a depth code.
        # A second state folds every return
        still, dived = Position(30, 40, 120), Position(30, 40, 121)
        static = [Position(90, 90, 60), Position(150, 150, 100.0),
                  Position(160, 160, 100.3)]
        skipping, folding = make_bs(), make_bs()
        folding._skip_unchanged = False
        for bs in (skipping, folding):
            bs.allocate(scan(bs, [still, *static]), 0.0)
            bs.compose_superframe(0.1)
            if final == "accessed":
                walk_to_accessed(bs, 1, 0.5)
            else:
                bs._fail(bs.registry[1])
        assert [rec.stage for rec in skipping.registry.values()][1:] == [
            HandshakeStage.AWAITING_BEAM, HandshakeStage.CONFLICTED,
            HandshakeStage.CONFLICTED]
        seen = []
        for k, pos in enumerate([still, still, dived, dived, dived]):
            for bs in (skipping, folding):
                dets = scan(bs, [pos, *static])
                bs.update_decomposition(dets, 1.0 + k)
                if bs is skipping:
                    seen.append(([d.track_key for d in dets],
                                 bs.unchanged_returns,
                                 bs.registry[1].observed_motion.name))
            assert skipping.registry == folding.registry
        # the records that did not move are never folded again; the dive is
        # folded as DIVING, and the same position once more to read NONE
        assert seen == [([], 4, "NONE"), ([], 4, "NONE"),
                        ([0], 3, "DIVING"), ([0], 3, "NONE"),
                        ([], 4, "NONE")]
        assert folding.unchanged_returns == 0

    def test_misdetection_drops_probabilistically(self):
        bs = make_bs(p_misdetect=0.5)
        rng = random.Random(33)
        got = sum(len(scan(bs, [Position(100, 100, 50)], rng)) for _ in range(400))
        assert 150 < got < 250


def reference_sonar_scan(bs, snapshot, rng):
    """`BsState.sonar_scan` as it read with `distance`, `Position` and
    `Detection` called per return: the reference for the inline loop."""
    c = bs.cfg
    bs_pos, bucket = bs.bs_position, bs.depth_model.bucket
    reach, p_miss = c.acoustic_range_m, c.p_misdetect
    noise, floor = c.sonar_depth_noise_std_m, c.region_depth_m
    skipped = 0
    out = []
    for track_key, pos in snapshot:
        if bs._skip_unchanged:
            rec = bs.record_for_track(track_key)
            if rec is not None and rec.sonar_position is pos \
                    and rec.observed_motion is MovementMarker.NONE:
                skipped += 1
                continue
        if distance(bs_pos, pos) > reach:
            continue
        if p_miss > 0.0 and rng.random() < p_miss:
            continue
        if noise > 0.0:
            depth = min(floor, max(0.0, pos.depth + rng.gauss(0.0, noise)))
            measured = Position(pos.east, pos.north, depth)
        else:
            depth, measured = pos.depth, pos
        out.append(Detection(track_key, measured, bucket(depth)))
    bs.unchanged_returns = skipped
    return out


class TestScanDifferential:
    RANGES = (50.0, 137.5, 1000.0)

    @staticmethod
    def returns(rng, reach):
        """A return of each kind, as (kind, position)."""
        # a 3-4-5 triangle, exact in floats for each of RANGES
        east, north = 100.0 + 0.6 * reach, 100.0 + 0.8 * reach
        kind = rng.choice(("at", "at_level", "inside", "past", "bs",
                           "cube", "far"))
        pos = {
            "at": (100.0, 100.0, reach),
            "at_level": (east, north, 0.0),
            "inside": (100.0, 100.0, math.nextafter(reach, 0.0)),
            "past": (100.0, 100.0, math.nextafter(reach, math.inf)),
            "bs": (100.0, 100.0, 0.0),
            "cube": (rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0),
                     rng.uniform(0.0, 200.0)),
            "far": (rng.uniform(-2000.0, 2000.0),
                    rng.uniform(-2000.0, 2000.0), rng.uniform(0.0, 200.0)),
        }[kind]
        return kind, Position(*pos)

    @pytest.mark.parametrize("reach", RANGES)
    def test_returns_at_the_range_are_exact(self, reach):
        bs = make_bs().bs_position
        at = {kind: pos for kind, pos in (self.returns(random.Random(k), reach)
                                          for k in range(200))}
        assert distance(bs, at["at"]) == distance(bs, at["at_level"]) == reach
        assert distance(bs, at["inside"]) < reach < distance(bs, at["past"])
        assert distance(bs, at["bs"]) == 0.0

    def test_matches_reference(self):
        # the scan reads only its config and the registry, so one state
        # serves both; each side draws from its own copy of one generator
        rng = random.Random(2209)
        seen = collections.Counter()
        for _ in range(6000):
            noise = rng.choice((0.0, 0.4))
            p_miss = rng.choice((0.0, 0.3))
            reach = rng.choice(self.RANGES)
            bs = make_bs(acoustic_range_m=reach, p_misdetect=p_miss,
                         sonar_depth_noise_std_m=noise)
            snapshot, kinds = [], {}
            for key in rng.sample(range(40), rng.randint(0, 8)):
                kinds[key], pos = self.returns(rng, reach)
                snapshot.append((key, pos))
            # register some tracks, holding the very return object, an
            # equal copy or another position, with or without motion
            registered = [(key, pos) for key, pos in snapshot
                          if rng.random() < 0.6]
            held = {key: rng.choice((pos, Position(*pos),
                                     Position(10.0, 10.0, 10.0)))
                    for key, pos in registered}
            bs.allocate([Detection(key, held[key], 0)
                         for key, _ in registered], 0.0)
            for key, pos in registered:
                rec = bs.record_for_track(key)
                rec.observed_motion = rng.choice(
                    (MovementMarker.NONE, MovementMarker.NONE,
                     MovementMarker.DIVING, MovementMarker.RISING))
                seen["same object"] += held[key] is pos
                seen["still"] += held[key] is pos and \
                    rec.observed_motion is MovementMarker.NONE
            seed = rng.random()
            mine, theirs = random.Random(seed), random.Random(seed)
            got = bs.sonar_scan(snapshot, mine)
            got_skipped = bs.unchanged_returns
            want = reference_sonar_scan(bs, snapshot, theirs)
            assert got == want, (snapshot, reach, noise, p_miss)
            assert got_skipped == bs.unchanged_returns
            assert mine.getstate() == theirs.getstate()
            for det in got:
                assert type(det) is Detection
                assert type(det.position) is Position
                assert det.position == Position(*det.position)
                seen[f"{kinds[det.track_key]} detected"] += 1
            seen["skipped"] += got_skipped
            seen[f"noise={noise > 0} miss={p_miss > 0}"] += 1
        # a return exactly at the range is in reach, one just past it never
        assert seen["past detected"] == 0
        # no side of the draw is vacuous
        for kind in ("at", "at_level", "inside", "bs", "cube", "far"):
            assert seen[f"{kind} detected"] >= 100, (kind, seen)
        for kind in ("same object", "still", "skipped"):
            assert seen[kind] >= 300, (kind, seen)
        for combo in ("noise=False miss=False", "noise=True miss=False",
                      "noise=False miss=True", "noise=True miss=True"):
            assert seen[combo] >= 1000, (combo, seen)


class TestAllocate:
    def test_sequential_ids_no_conflicts(self):
        bs = make_bs()
        dets = scan(bs, [Position(0, 0, 10), Position(0, 0, 50), Position(0, 0, 90)])
        assert bs.allocate(dets, now=0.0) == [1, 2, 3]
        assert all(r.stage is HandshakeStage.ASSIGNED
                   for r in bs.registry.values())

    def test_shared_depth_code_marks_conflict(self):
        bs = make_bs()
        dets = scan(bs, [Position(0, 0, 100.0), Position(9, 9, 100.3),
                         Position(0, 0, 10.0)])
        bs.allocate(dets, now=0.0)
        stages = [bs.registry[i].stage for i in (1, 2, 3)]
        assert stages == [HandshakeStage.CONFLICTED, HandshakeStage.CONFLICTED,
                          HandshakeStage.ASSIGNED]
        # the broadcast conflict flag is the record's stage
        flags = [s.conflict_flag for s in bs.compose_superframe(0.1).slots]
        assert flags == [True, True, False]

    def test_id_space_exhaustion(self):
        bs = make_bs()
        dets = [Detection(i, Position(0, 0, float(i) / 10.0),
                          bs.depth_model.bucket(float(i) / 10.0))
                for i in range(1025)]
        with pytest.raises(ProtocolError, match="exhausted"):
            bs.allocate(dets, now=0.0)

    def test_record_for_track(self):
        bs = make_bs()
        dets = scan(bs, [Position(0, 0, 10), Position(0, 0, 50)])
        bs.allocate(dets, 0.0)
        assert bs.record_for_track(1) is bs.registry[2]
        assert bs.record_for_track(1).track_key == 1
        assert bs.record_for_track(7) is None

    def test_rescan_does_not_reallocate(self):
        bs = make_bs()
        dets = scan(bs, [Position(0, 0, 10)])
        assert bs.allocate(dets, 0.0) == [1]
        assert bs.allocate(dets, 1.0) == []
        assert len(bs.registry) == 1


def moved_to(position):
    def move(rec):
        # as `update_decomposition` does when the position changes value
        rec.sonar_position, rec.slot = position, None
    return move


# ASSIGN slot field -> a change to the record, at (30, 40, 120), that
# changes that field alone
ASSIGN_FIELD_CHANGES = {
    "depth_code": lambda rec: setattr(rec, "depth_code", rec.depth_code + 1),
    # mirrored through the point below the base station
    "azimuth_centideg": moved_to(Position(170, 160, 120)),
    # nearer the base station along the same azimuth
    "elevation_centideg": moved_to(Position(65, 70, 120)),
    "conflict_flag": lambda rec: setattr(rec, "stage",
                                         HandshakeStage.CONFLICTED),
    "movement_marker": lambda rec: setattr(rec, "observed_motion",
                                           MovementMarker.DIVING),
    "reset_bit": lambda rec: setattr(rec, "reset_bit", 1),
}


class TestComposeSuperframe:
    def test_node_below_bs_gets_vertical_emission(self):
        bs = make_bs()
        dets = scan(bs, [Position(100, 100, 50)])
        bs.allocate(dets, 0.0)
        frame = bs.compose_superframe(0.1)
        slot = frame.slots[0]
        assert slot.stage is SlotStage.ASSIGN
        assert slot.elevation_centideg == 18000  # +90 deg, straight up
        assert slot.azimuth_centideg == 0
        assert bs.registry[1].stage is HandshakeStage.AWAITING_BEAM

    def test_confirming_record_emits_confirm_slot(self):
        bs = make_bs()
        bs.allocate(scan(bs, [Position(50, 50, 80)]), 0.0)
        bs.compose_superframe(0.1)
        bs.on_optical_arrival(1, via_relay=False, now=0.3)
        assert bs.registry[1].stage is HandshakeStage.CONFIRMING
        frame = bs.compose_superframe(1.1)
        assert frame.slots[0].stage is SlotStage.CONFIRM
        assert frame.slots[0].network_id == 1
        assert bs.registry[1].stage is HandshakeStage.ACCESSED
        assert bs.registry[1].access_time == 1.1

    def test_relay_pair_bearings_reciprocal(self):
        bs = make_bs(direct_retries=1)
        pos_a = Position(30, 40, 120)
        pos_r = Position(90, 90, 60)
        bs.allocate(scan(bs, [pos_a, pos_r]), 0.0)
        bs.compose_superframe(0.1)
        walk_to_accessed(bs, 2, 0.3)      # R accessed, A still waiting
        bs.handle_timeouts(2.0)           # A exhausts its single retry
        assert bs.registry[1].stage is HandshakeStage.RELAY_PENDING
        assert bs.registry[1].relayed_by == 2
        assert bs.registry[2].relay_of == 1
        frame = bs.compose_superframe(2.1)
        by_id = {s.network_id: s for s in frame.slots}
        tx, rx = by_id[1], by_id[2]
        assert tx.stage is SlotStage.RELAY_TX and tx.partner_id == 2
        assert rx.stage is SlotStage.RELAY_RX and rx.partner_id == 1
        # geometry oracle: the two bearings are mutually reciprocal
        fwd = bearing_from_to(pos_a, pos_r)
        back = bearing_from_to(pos_r, pos_a)
        assert tx.azimuth_centideg == round(fwd.azimuth * 100) % 36000
        assert rx.azimuth_centideg == round(back.azimuth * 100) % 36000
        assert abs(fwd.azimuth - back.azimuth) == pytest.approx(180.0)
        assert fwd.elevation == pytest.approx(-back.elevation)
        assert tx.elevation_centideg == round((fwd.elevation + 90) * 100)
        assert rx.elevation_centideg == round((back.elevation + 90) * 100)

    def test_unchanged_assign_slot_is_sent_again(self):
        bs = make_bs()
        bs.allocate(scan(bs, [Position(30, 40, 120)]), 0.0)
        first = bs.compose_superframe(0.1).slots[0]
        assert bs.registry[1].stage is HandshakeStage.AWAITING_BEAM
        assert bs.compose_superframe(1.1).slots[0] is first
        # an equal position in a new object: only a change of value drops
        # the slot
        rec = bs.registry[1]
        bs.update_decomposition(
            [Detection(rec.track_key, Position(30, 40, 120), rec.depth_code)],
            2.0)
        assert rec.slot is first
        assert bs.compose_superframe(2.1).slots[0] is first

    @pytest.mark.parametrize("field", list(ASSIGN_FIELD_CHANGES))
    def test_changed_field_gives_a_fresh_assign_slot(self, field):
        bs = make_bs()
        bs.allocate(scan(bs, [Position(30, 40, 120)]), 0.0)
        first = bs.compose_superframe(0.1).slots[0]
        ASSIGN_FIELD_CHANGES[field](bs.registry[1])
        second = bs.compose_superframe(1.1).slots[0]
        assert second.stage is SlotStage.ASSIGN
        assert [f.name for f in dataclasses.fields(SlotPayload)
                if getattr(first, f.name) != getattr(second, f.name)] \
            == [field]
        assert bs.compose_superframe(2.1).slots[0] is second

    def test_relay_tx_slot_is_kept_until_the_relay_moves(self):
        bs = make_bs(direct_retries=1)
        pos_a, pos_r = Position(30, 40, 120), Position(90, 90, 60)
        bs.allocate(scan(bs, [pos_a, pos_r]), 0.0)
        bs.compose_superframe(0.1)
        walk_to_accessed(bs, 2, 0.3)
        bs.handle_timeouts(2.0)
        assert bs.registry[1].stage is HandshakeStage.RELAY_PENDING
        first = bs.compose_superframe(2.1).slots[0]
        assert (first.stage, first.partner_id) == (SlotStage.RELAY_TX, 2)
        assert bs.compose_superframe(3.1).slots[0] is first
        # the relay rises 10 m: record 1's slot must point at it afresh
        relay, risen = bs.registry[2], Position(90, 90, 50)
        bs.update_decomposition(
            [Detection(relay.track_key, risen, relay.depth_code)], 3.5)
        second = bs.compose_superframe(4.1).slots[0]
        assert second is not first
        assert (first.azimuth_centideg, first.elevation_centideg) \
            == _slot_angles(pos_a, pos_r)
        assert (second.azimuth_centideg, second.elevation_centideg) \
            == _slot_angles(pos_a, risen) != _slot_angles(pos_a, pos_r)
        assert (second.stage, second.partner_id) == (SlotStage.RELAY_TX, 2)
        assert bs.compose_superframe(5.1).slots[0] is second

    def test_frame_seq_strictly_increasing(self):
        bs = make_bs()
        bs.allocate(scan(bs, [Position(0, 0, 10)]), 0.0)
        seqs = [bs.compose_superframe(t).frame_seq for t in (0.1, 1.1, 2.1)]
        assert seqs == [0, 1, 2]


class TestOpticalArrival:
    def test_awaiting_beam_confirms(self):
        bs = make_bs()
        bs.allocate(scan(bs, [Position(10, 10, 30)]), 0.0)
        bs.compose_superframe(0.1)
        bs.on_optical_arrival(1, via_relay=False, now=0.2)
        assert bs.registry[1].stage is HandshakeStage.CONFIRMING
        assert bs.registry[1].via_relay is False

    def test_duplicate_beam_is_noop(self):
        bs = make_bs()
        bs.allocate(scan(bs, [Position(10, 10, 30)]), 0.0)
        bs.compose_superframe(0.1)
        walk_to_accessed(bs, 1, 0.2)
        bs.on_optical_arrival(1, via_relay=False, now=1.5)
        assert bs.registry[1].stage is HandshakeStage.ACCESSED
        assert bs.duplicate_beams == 1

    def test_unknown_id_counted_not_fatal(self):
        bs = make_bs()
        bs.on_optical_arrival(99, via_relay=False, now=0.5)
        assert bs.unknown_beams == 1

    def test_relayed_beam_confirms_with_flag(self):
        bs = make_bs(direct_retries=1)
        bs.allocate(scan(bs, [Position(0, 0, 150), Position(90, 90, 40)]), 0.0)
        bs.compose_superframe(0.1)
        walk_to_accessed(bs, 2, 0.3)
        bs.handle_timeouts(2.0)
        assert bs.registry[1].stage is HandshakeStage.RELAY_PENDING
        bs.on_optical_arrival(1, via_relay=True, now=2.4)
        assert bs.registry[1].stage is HandshakeStage.CONFIRMING
        assert bs.registry[1].via_relay is True
        assert bs.registry[2].relay_of == 1  # binding kept for the data phase


class TestTimeouts:
    def test_retry_decrements_per_superframe(self):
        bs = make_bs()
        bs.allocate(scan(bs, [Position(0, 0, 10)]), 0.0)
        bs.compose_superframe(0.1)
        assert bs.registry[1].retries_remaining == 5
        bs.handle_timeouts(1.0)
        assert bs.registry[1].retries_remaining == 4

    def test_unbroadcast_record_not_decremented(self):
        bs = make_bs()
        bs.allocate(scan(bs, [Position(0, 0, 10)]), 0.0)
        bs.handle_timeouts(0.0)
        assert bs.registry[1].retries_remaining == 5

    def test_nearest_accessed_candidate_wins(self):
        bs = make_bs(direct_retries=1)
        target = Position(100, 100, 150)
        near = Position(100, 100, 100)   # 50 m from target
        far = Position(100, 100, 70)     # 80 m from target
        bs.allocate(scan(bs, [target, far, near]), 0.0)
        bs.compose_superframe(0.1)
        walk_to_accessed(bs, 2, 0.3)
        walk_to_accessed(bs, 3, 0.4)
        bs.handle_timeouts(2.0)
        rec = bs.registry[1]
        assert rec.stage is HandshakeStage.RELAY_PENDING
        assert rec.relayed_by == 3  # the 50 m candidate
        assert rec.retries_remaining == bs.cfg.relay_retries

    def test_no_candidates_fails_node(self):
        bs = make_bs(direct_retries=1)
        bs.allocate(scan(bs, [Position(0, 0, 10)]), 0.0)
        bs.compose_superframe(0.1)
        bs.handle_timeouts(1.0)
        assert bs.registry[1].stage is HandshakeStage.FAILED

    def test_relay_retries_exhaust_to_failed(self):
        bs = make_bs(direct_retries=1, relay_retries=2)
        bs.allocate(scan(bs, [Position(0, 0, 150), Position(90, 90, 40)]), 0.0)
        bs.compose_superframe(0.1)
        walk_to_accessed(bs, 2, 0.3)
        bs.handle_timeouts(2.0)
        assert bs.registry[1].stage is HandshakeStage.RELAY_PENDING
        bs.handle_timeouts(3.0)
        bs.handle_timeouts(4.0)
        assert bs.registry[1].stage is HandshakeStage.FAILED
        assert bs.registry[2].relay_of is None  # relay released

    def test_failed_id_never_reused(self):
        bs = make_bs(direct_retries=1)
        bs.allocate(scan(bs, [Position(0, 0, 10)]), 0.0)
        bs.compose_superframe(0.1)
        bs.handle_timeouts(1.0)
        assert bs.registry[1].stage is HandshakeStage.FAILED
        new = bs.allocate([Detection(42, Position(1, 1, 20),
                                     bs.depth_model.bucket(20))],
                          2.0)
        assert new == [2]

    def test_relay_fan_in_capped_at_one(self):
        bs = make_bs(direct_retries=1)
        # two unreachable targets, one accessed candidate
        bs.allocate(scan(bs, [Position(0, 0, 150), Position(10, 0, 151),
                              Position(90, 90, 40)]), 0.0)
        bs.compose_superframe(0.1)
        walk_to_accessed(bs, 3, 0.3)
        bs.handle_timeouts(2.0)
        pending = [r for r in bs.registry.values()
                   if r.stage is HandshakeStage.RELAY_PENDING]
        failed = [r for r in bs.registry.values()
                  if r.stage is HandshakeStage.FAILED]
        assert len(pending) == 1 and len(failed) == 1
        assert bs.registry[3].relay_of == pending[0].network_id


class TestDecomposition:
    def depth_pair(self, bs, d1, d2):
        return scan(bs, [Position(0, 0, d1), Position(9, 9, d2)])

    def test_separation_resolves_both(self):
        bs = make_bs()
        bs.allocate(self.depth_pair(bs, 100.0, 100.0), 0.0)
        assert all(r.stage is HandshakeStage.CONFLICTED
                   for r in bs.registry.values())
        # one node moved 1.2 m deeper, past a bucket edge
        bs.update_decomposition(self.depth_pair(bs, 100.0, 101.2), 1.0)
        assert all(r.stage is HandshakeStage.ASSIGNED
                   for r in bs.registry.values())
        assert not any(s.conflict_flag
                       for s in bs.compose_superframe(1.1).slots)

    def test_persistent_conflict_flips_reset_bit(self):
        bs = make_bs(conflict_reset_after_s=5.0)
        bs.allocate(self.depth_pair(bs, 100.0, 100.0), 0.0)
        bs.update_decomposition(self.depth_pair(bs, 100.0, 100.1), 4.0)
        assert all(r.reset_bit == 0 for r in bs.registry.values())
        bs.update_decomposition(self.depth_pair(bs, 100.0, 100.2), 5.0)
        assert all(r.reset_bit == 1 for r in bs.registry.values())
        # the next period flips it back
        bs.update_decomposition(self.depth_pair(bs, 100.0, 100.1), 10.0)
        assert all(r.reset_bit == 0 for r in bs.registry.values())

    def test_observed_motion_tracks_scan_deltas(self):
        bs = make_bs()
        bs.allocate(self.depth_pair(bs, 100.0, 100.0), 0.0)
        bs.update_decomposition(self.depth_pair(bs, 100.5, 99.6), 1.0)
        assert bs.registry[1].observed_motion is MovementMarker.DIVING
        assert bs.registry[2].observed_motion is MovementMarker.RISING
        bs.update_decomposition(self.depth_pair(bs, 100.5, 99.6), 2.0)
        assert bs.registry[1].observed_motion is MovementMarker.NONE

    def test_accessed_node_leaves_conflict_pool(self):
        bs = make_bs()
        trio = lambda d1, d2, d3: scan(bs, [Position(0, 0, d1),
                                            Position(9, 9, d2),
                                            Position(20, 20, d3)])
        bs.allocate(trio(100.0, 100.05, 100.1), 0.0)
        assert all(r.stage is HandshakeStage.CONFLICTED
                   for r in bs.registry.values())
        # node 3 separates and completes its handshake
        bs.update_decomposition(trio(100.0, 100.05, 103.0), 1.0)
        assert bs.registry[3].stage is HandshakeStage.ASSIGNED
        bs.compose_superframe(1.1)
        walk_to_accessed(bs, 3, 1.3)
        # node 3 drifts back into the shared bucket, node 2 finally separates:
        # node 1 is auto-unique because accessed codes are out of the pool
        bs.update_decomposition(trio(100.0, 105.0, 100.1), 3.0)
        assert bs.registry[1].stage is HandshakeStage.ASSIGNED
        assert bs.registry[3].stage is HandshakeStage.ACCESSED
        slot = bs.compose_superframe(3.1).slots[0]
        assert (slot.network_id, slot.conflict_flag) == (1, False)


class TestRelaySelectionOracle:
    def test_matches_bruteforce_on_small_instances(self):
        rng = random.Random(99)
        for _ in range(500):
            bs = make_bs()
            n = rng.randint(1, 10)
            positions = [Position(rng.uniform(0, 200), rng.uniform(0, 200),
                                  rng.uniform(0, 200)) for _ in range(n)]
            bs.allocate(scan(bs, positions), 0.0)
            bs.compose_superframe(0.1)
            records = list(bs.registry.values())
            target = records[0]
            for rec in records[1:]:
                roll = rng.random()
                if roll < 0.5:
                    rec.stage = HandshakeStage.ACCESSED
                    rec.access_time = 0.5
                    if rng.random() < 0.3:
                        rec.via_relay = True
                    elif rng.random() < 0.3 and rec.network_id != target.network_id:
                        rec.relay_of = 999  # pretend it already serves someone
                elif roll < 0.7:
                    rec.stage = HandshakeStage.FAILED
            got = nearest_eligible_relay(bs.registry.values(), target)
            # independent exhaustive search
            best = None
            for rec in records:
                if rec.network_id == target.network_id:
                    continue
                if rec.stage is not HandshakeStage.ACCESSED:
                    continue
                if rec.via_relay or rec.relay_of is not None:
                    continue
                d = math.dist(
                    (rec.sonar_position.east, rec.sonar_position.north,
                     rec.sonar_position.depth),
                    (target.sonar_position.east, target.sonar_position.north,
                     target.sonar_position.depth))
                if best is None or (d, rec.network_id) < best[:2]:
                    best = (d, rec.network_id, rec)
            if best is None:
                assert got is None
            else:
                assert got is best[2]


def relay_pair():
    """Record 1 relay-pending through record 2; record 3 accessed and free."""
    bs = make_bs(direct_retries=1)
    bs.allocate(scan(bs, [Position(30, 40, 120), Position(90, 90, 60),
                          Position(150, 150, 20)]), 0.0)
    bs.compose_superframe(0.1)
    walk_to_accessed(bs, 2, 0.3)
    walk_to_accessed(bs, 3, 0.3)
    bs.handle_timeouts(2.0)
    assert (bs.registry[1].relayed_by, bs.registry[2].relay_of) == (2, 1)
    return bs


class TestInvariants:
    @pytest.mark.parametrize("corrupt,needle", [
        (lambda bs: setattr(bs.registry[1], "network_id", 7),
         "record 1 holds network ID 7"),
        (lambda bs: bs._by_track.__setitem__(0, 2),
         "record 1 track 0 maps elsewhere"),
        (lambda bs: setattr(bs.registry[3], "access_time", None),
         "record 3 accessed without"),
        (lambda bs: setattr(bs.registry[3], "relay_of", 1),
         "record 3 second relay for 1"),
        (lambda bs: setattr(bs.registry[1], "relay_of", 3),
         "record 1 relays in stage RELAY_PENDING"),
        (lambda bs: setattr(bs.registry[2], "via_relay", True),
         "record 2 relays while itself relayed"),
        (lambda bs: setattr(bs.registry[1], "relayed_by", None),
         "record 2 relays for 1, which does not name it"),
        (lambda bs: setattr(bs.registry[2], "stage",
                            HandshakeStage.CONFIRMING),
         "record 1 relayed by 2, which is not accessed"),
        (lambda bs: setattr(bs.registry[2], "relay_of", None),
         "record 1 relayed by 2, which does not name it"),
        (lambda bs: bs._live.pop(1),
         "record 1 is not live in stage RELAY_PENDING"),
        (lambda bs: setattr(bs.registry[3], "slot", dataclasses.replace(
            bs.registry[3].slot, network_id=2)),
         "record 3 keeps the slot of record 2"),
        (lambda bs: setattr(bs.registry[3], "slot", dataclasses.replace(
            bs.registry[3].slot, stage=SlotStage.RELAY_RX, partner_id=1)),
         "record 3 keeps a RELAY_RX slot but relays for no record"),
        (lambda bs: setattr(bs.registry[2], "slot", dataclasses.replace(
            bs.registry[3].slot, network_id=2)),
         "record 2 relays for 1 but keeps a CONFIRM slot for 0"),
        (lambda bs: setattr(bs.registry[1], "slot", dataclasses.replace(
            bs.registry[1].slot, network_id=3)),
         "record 1 keeps the slot of record 3"),
    ])
    def test_corrupt_registry_raises_naming_the_record(self, corrupt, needle):
        bs = relay_pair()
        corrupt(bs)
        with pytest.raises(ProtocolError, match=needle):
            bs.handle_timeouts(3.0)

    def test_beam_through_a_released_relay_raises(self):
        bs = relay_pair()
        bs.registry[2].relay_of = None
        with pytest.raises(ProtocolError, match="record 1 relayed by 2"):
            bs.on_optical_arrival(1, via_relay=True, now=2.4)

    def test_checks_survive_dash_o(self):
        script = """
import random
import sys
from uwoan.base_station import BsState, ProtocolError
from uwoan.config import SimConfig
from uwoan.frame import SlotPayload
from uwoan.geometry import Position
if __debug__:
    sys.exit("asserts are on")
bs = BsState(SimConfig())
dets = bs.sonar_scan([(0, Position(30, 40, 120)), (1, Position(90, 90, 60))],
                     random.Random(0))
bs.allocate(dets, 0.0)
bs.compose_superframe(0.1)
bs.on_optical_arrival(2, via_relay=False, now=0.3)
bs.compose_superframe(1.1)
bs.registry[2].relay_of = 1  # record 1 does not name 2 as its relay
try:
    bs.handle_timeouts(2.0)
except ProtocolError as exc:
    print(exc)
bs.registry[2].relay_of = None
bs.registry[2].slot = SlotPayload(1, 0, 0, 0)  # record 1's slot
try:
    bs.handle_timeouts(2.0)
except ProtocolError as exc:
    print(exc)
"""
        src = Path(uwoan.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "record 2 relays for 1" in done.stdout
        assert "record 2 keeps the slot of record 1" in done.stdout


def call_sites(source, name):
    """The function around each call of `name`, bare or dotted, in order."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name \
                        or getattr(func, "attr", None) == name:
                    sites.append(where)
            visit(child, where)
    visit(ast.parse(source), None)
    return sites


@pytest.mark.parametrize("name", ["SlotPayload", "_slot_angles"])
def test_one_site_composes_slots(name):
    # one reuse rule decides when a slot is made afresh; a second site that
    # builds slots or their angles would be a second rule
    source = Path(base_station.__file__).read_text()
    assert call_sites(source, name) == ["compose_superframe"]


def test_call_site_guard_sees_each_form():
    source = ("slot = SlotPayload(1, 0, 0, 0)\n"
              "def build(frame):\n"
              "    return frame.SlotPayload(*_slot_angles(a, b))\n"
              "class Holder:\n"
              "    def method(self):\n"
              "        kind = SlotPayload\n"
              "        return lambda: SlotPayload(kind)\n")
    assert call_sites(source, "SlotPayload") == [None, "build", "method"]
    assert call_sites(source, "_slot_angles") == ["build"]


def reference_slot_angles(origin, target):
    """Slot angles as Bearing objects and the original quantization give."""
    try:
        bearing = bearing_from_to(origin, target)
    except GeometryError:
        bearing = Bearing(0.0, 90.0)
    az = round(bearing.azimuth * 100.0) % 36000
    el = min(18000, max(0, round((bearing.elevation + 90.0) * 100.0)))
    return az, el


class TestSlotAngles:
    EDGE_CASES = [
        ((10, 20, 30), (10, 20, 30)),           # coincident: straight up
        ((10, 20, 30), (10, 20, 5)),            # directly above
        ((10, 20, 30), (10, 20, 55)),           # directly below
        ((0, 0, 10), (0, 50, 10)),              # due north
        ((0, 0, 10), (50, 0, 10)),              # due east
        ((0, 50, 10), (0, 0, 10)),              # due south
        ((50, 0, 10), (0, 0, 10)),              # due west
        ((0, 0, 10), (1e-300, 0, 5)),           # elevation exactly +90
        ((0, 0, 10), (0, -1e-300, 15)),         # elevation exactly -90
        ((0, 0, 10), (-1e-5, 100, 10)),         # azimuth rounds to 36000
        ((0, 0, 10), (-1e-300, 1, 10)),         # azimuth wraps to 360.0
        ((100, 100, 0), (100, 100, 0)),         # a node at the BS itself
    ]

    @pytest.mark.parametrize("origin,target", EDGE_CASES)
    def test_edge_cases(self, origin, target):
        a, b = Position(*origin), Position(*target)
        assert _slot_angles(a, b) == reference_slot_angles(a, b)

    def test_edge_case_values(self):
        pos = [(Position(*o), Position(*t)) for o, t in self.EDGE_CASES]
        got = [_slot_angles(a, b) for a, b in pos]
        assert got[:9] == [(0, 18000), (0, 18000), (0, 0), (0, 9000),
                           (9000, 9000), (18000, 9000), (27000, 9000),
                           (0, 18000), (0, 0)]
        assert got[9][0] == 0 and got[10] == (0, 9000)

    def test_matches_reference_on_random_pairs(self):
        rng = random.Random(7)
        for k in range(20_000):
            if k % 2:
                # a small grid makes shared axes and coincident points common
                coords = [float(rng.randint(0, 2)) for _ in range(6)]
            else:
                coords = [rng.uniform(0.0, 200.0) for _ in range(6)]
            a, b = Position(*coords[:3]), Position(*coords[3:])
            assert _slot_angles(a, b) == reference_slot_angles(a, b), (a, b)
