import dataclasses
import random

import pytest

from uwoan.frame import (
    MovementMarker,
    SlotPayload,
    SlotStage,
    SuperFrame,
    decode,
    encode,
)
from uwoan.config import SimConfig
from uwoan.geometry import Bearing, DepthModel
from uwoan.node import (
    Emission,
    Lifecycle,
    RelayDuty,
    UwnState,
    aim,
    answers,
    answers_directly,
    draw_movement,
    forward_beam,
    heeds,
    match_frame,
    on_access,
    on_movement_expiry,
    on_trigger,
    slot_bearing,
)

MODEL = DepthModel(0.5, 0.005)
PARAMS = SimConfig()


def el_cd(elevation_deg):
    return round((elevation_deg + 90.0) * 100)


def az_cd(azimuth_deg):
    return round(azimuth_deg * 100) % 36000


def mkslot(nid, bucket, stage=SlotStage.ASSIGN, conflict=False,
           marker=MovementMarker.NONE, reset=0, partner=0,
           azimuth=0.0, elevation=45.0):
    return SlotPayload(
        network_id=nid, depth_code=bucket,
        azimuth_centideg=az_cd(azimuth), elevation_centideg=el_cd(elevation),
        stage=stage, conflict_flag=conflict, movement_marker=marker,
        reset_bit=reset, partner_id=partner)


def mkframe(*slots, seq=1):
    return SuperFrame(seq, tuple(slots))


def fresh_node(depth=100.0, lifecycle=Lifecycle.MATCHING):
    state = UwnState(original_depth=depth)
    state.lifecycle = lifecycle
    return state


class TestTrigger:
    def test_dormant_activates(self):
        state = UwnState(original_depth=50.0)
        on_trigger(state)
        assert state.lifecycle is Lifecycle.ACTIVATED

    def test_idempotent_when_accessed(self):
        state = fresh_node(lifecycle=Lifecycle.ACCESSED)
        on_trigger(state)
        assert state.lifecycle is Lifecycle.ACCESSED

    def test_out_of_range_node_stays_dormant(self):
        # the engine never delivers to out-of-range nodes; no trigger, no change
        state = UwnState(original_depth=50.0)
        assert state.lifecycle is Lifecycle.DORMANT


class TestMatching:
    def test_unique_match_binds_and_emits(self):
        state = fresh_node(100.0)
        rng = random.Random(1)
        slot = mkslot(7, MODEL.bucket(100.0), azimuth=10.0, elevation=60.0)
        actions = match_frame(state, mkframe(slot),
                              MODEL, PARAMS, rng, 1.0, 100.0)
        assert state.lifecycle is Lifecycle.EMITTING
        assert state.matched_id == 7
        assert state.emission_bearing == slot_bearing(slot)
        assert actions == [Emission(slot_bearing(slot), 7)]

    def test_two_matching_slots_start_conflict(self):
        state = fresh_node(100.0)
        rng = random.Random(2)
        bucket = MODEL.bucket(100.0)
        frame = mkframe(mkslot(1, bucket), mkslot(2, bucket))
        actions = match_frame(state, frame, MODEL, PARAMS, rng, 1.0, 100.0)
        assert actions == []
        assert state.lifecycle is Lifecycle.CONFLICT_MOVING
        assert state.vertical_velocity != 0.0
        assert state.movement_deadline is not None

    def test_conflict_flag_on_single_match_starts_conflict(self):
        state = fresh_node(100.0)
        frame = mkframe(mkslot(3, MODEL.bucket(100.0), conflict=True))
        match_frame(state, frame, MODEL, PARAMS, random.Random(3), 1.0, 100.0)
        assert state.lifecycle is Lifecycle.CONFLICT_MOVING

    def test_no_match_keeps_listening(self):
        state = fresh_node(100.0)
        frame = mkframe(mkslot(3, MODEL.bucket(100.0) + 5))
        assert match_frame(state, frame,
                           MODEL, PARAMS, random.Random(4), 1.0, 100.0) == []
        assert state.lifecycle is Lifecycle.MATCHING

    def test_activated_becomes_matching_on_first_frame(self):
        state = fresh_node(100.0, lifecycle=Lifecycle.ACTIVATED)
        frame = mkframe()
        match_frame(state, frame, MODEL, PARAMS, random.Random(5), 0.5, 100.0)
        assert state.lifecycle is Lifecycle.MATCHING

    def test_confirm_for_matched_id_accesses(self):
        state = fresh_node(100.0)
        rng = random.Random(6)
        bucket = MODEL.bucket(100.0)
        match_frame(state, mkframe(mkslot(7, bucket)),
                    MODEL, PARAMS, rng, 1.0, 100.0)
        match_frame(state, mkframe(mkslot(7, bucket, stage=SlotStage.CONFIRM)),
                    MODEL, PARAMS, rng, 2.0, 100.0)
        assert state.lifecycle is Lifecycle.ACCESSED
        assert state.access_time == 2.0

    def test_confirm_needs_a_stage_member(self):
        # an int equal to CONFIRM fails the identity test; encode rejects it
        state = fresh_node(100.0, lifecycle=Lifecycle.EMITTING)
        state.matched_id = 3
        plain = SlotPayload(3, 10, 0, 9000, 1)
        match_frame(state, mkframe(plain), MODEL, PARAMS, random.Random(8),
                    1.0, 100.0)
        assert state.lifecycle is Lifecycle.EMITTING
        member = decode(encode(mkframe(
            SlotPayload(3, 10, 0, 9000, SlotStage.CONFIRM))))
        match_frame(state, member, MODEL, PARAMS, random.Random(8), 2.0, 100.0)
        assert state.lifecycle is Lifecycle.ACCESSED

    def test_matched_id_never_changes_after_confirm(self):
        state = fresh_node(100.0)
        rng = random.Random(7)
        bucket = MODEL.bucket(100.0)
        match_frame(state, mkframe(mkslot(7, bucket)),
                    MODEL, PARAMS, rng, 1.0, 100.0)
        match_frame(state, mkframe(mkslot(7, bucket, stage=SlotStage.CONFIRM)),
                    MODEL, PARAMS, rng, 2.0, 100.0)
        # another assignment for our bucket must not rebind an accessed node
        match_frame(state, mkframe(mkslot(9, bucket)),
                    MODEL, PARAMS, rng, 3.0, 100.0)
        assert state.matched_id == 7
        assert state.lifecycle is Lifecycle.ACCESSED

    def test_relay_tx_retargets_emission(self):
        state = fresh_node(100.0)
        rng = random.Random(8)
        bucket = MODEL.bucket(100.0)
        match_frame(state, mkframe(mkslot(7, bucket, elevation=80.0)),
                    MODEL, PARAMS, rng, 1.0, 100.0)
        relay_slot = mkslot(7, bucket, stage=SlotStage.RELAY_TX, partner=2,
                            azimuth=90.0, elevation=10.0)
        partner_slot = mkslot(2, 50, stage=SlotStage.RELAY_RX, partner=7)
        actions = match_frame(state, mkframe(relay_slot, partner_slot),
                              MODEL, PARAMS, rng, 2.0, 100.0)
        assert state.lifecycle is Lifecycle.EMITTING
        assert state.emission_bearing == Bearing(90.0, 10.0)
        assert actions == [Emission(Bearing(90.0, 10.0), 7)]

    def test_relay_rx_sets_duty_on_accessed_node(self):
        state = fresh_node(100.0)
        rng = random.Random(9)
        bucket = MODEL.bucket(100.0)
        match_frame(state, mkframe(mkslot(7, bucket)),
                    MODEL, PARAMS, rng, 1.0, 100.0)
        match_frame(state, mkframe(mkslot(7, bucket, stage=SlotStage.CONFIRM)),
                    MODEL, PARAMS, rng, 2.0, 100.0)
        duty_slot = mkslot(7, bucket, stage=SlotStage.RELAY_RX, partner=4,
                           azimuth=200.0, elevation=-30.0)
        other = mkslot(4, 80, stage=SlotStage.RELAY_TX, partner=7)
        match_frame(state, mkframe(duty_slot, other),
                    MODEL, PARAMS, rng, 3.0, 100.0)
        assert state.lifecycle is Lifecycle.ACCESSED
        assert state.relay_duty == RelayDuty(4, Bearing(200.0, -30.0))

    def test_marker_mismatch_filters_candidate(self):
        # a stationary node must not adopt a slot tracking a diving node
        state = fresh_node(100.0)
        slot = mkslot(7, MODEL.bucket(100.0), marker=MovementMarker.DIVING)
        match_frame(state, mkframe(slot),
                    MODEL, PARAMS, random.Random(10), 1.0, 100.0)
        assert state.lifecycle is Lifecycle.MATCHING
        assert state.matched_id is None

    def test_marker_gate_can_be_disabled(self):
        state = fresh_node(100.0)
        params = SimConfig(match_on_motion_marker=False)
        slot = mkslot(7, MODEL.bucket(100.0), marker=MovementMarker.DIVING)
        match_frame(state, mkframe(slot),
                    MODEL, params, random.Random(10), 1.0, 100.0)
        assert state.lifecycle is Lifecycle.EMITTING

    def test_reset_bit_toggle_redraws_movement(self):
        state = fresh_node(100.0)
        rng = random.Random(11)
        bucket = MODEL.bucket(100.0)
        conflict = mkframe(mkslot(1, bucket, conflict=True),
                           mkslot(2, bucket, conflict=True))
        match_frame(state, conflict, MODEL, PARAMS, rng, 1.0, 100.0)
        assert state.lifecycle is Lifecycle.CONFLICT_MOVING
        epoch = state.movement_epoch
        # the broadcast marker tracks the node's drawn motion from here on
        marker = (MovementMarker.DIVING if state.vertical_velocity > 0
                  else MovementMarker.RISING)
        tracked = mkframe(mkslot(1, bucket, conflict=True, marker=marker),
                          mkslot(2, bucket, conflict=True, marker=marker))
        match_frame(state, tracked, MODEL, PARAMS, rng, 2.0, 100.0)
        assert state.movement_epoch == epoch  # no toggle: keep the draw
        toggled = mkframe(
            mkslot(1, bucket, conflict=True, marker=marker, reset=1),
            mkslot(2, bucket, conflict=True, marker=marker, reset=1))
        match_frame(state, toggled, MODEL, PARAMS, rng, 3.0, 100.0)
        assert state.movement_epoch == epoch + 1
        assert state.last_reset_bit == 1

    def test_matches_the_depth_it_is_given(self):
        # a node 4 m below its deployment depth matches the code there
        state = fresh_node(100.0)
        slots = mkslot(3, MODEL.bucket(100.0)), mkslot(4, MODEL.bucket(104.0))
        match_frame(state, mkframe(*slots), MODEL, PARAMS, random.Random(0),
                    1.0, 104.0)
        assert state.matched_id == 4

    def test_dormant_ignores_frames(self):
        state = fresh_node(100.0, lifecycle=Lifecycle.DORMANT)
        frame = mkframe(mkslot(7, MODEL.bucket(100.0)))
        assert match_frame(state, frame, MODEL, PARAMS,
                           random.Random(0), 1.0, 100.0) == []
        assert state.lifecycle is Lifecycle.DORMANT


class TestHeeds:
    """A bound node heeds its own slot; once accessed, only a RELAY_RX."""

    def bound(self, lifecycle):
        state = fresh_node(100.0, lifecycle=lifecycle)
        state.matched_id = 7
        return state

    @pytest.mark.parametrize("stage", list(SlotStage))
    def test_emitting_node_heeds_its_slot(self, stage):
        state = self.bound(Lifecycle.EMITTING)
        assert heeds(state, mkslot(7, 10, stage=stage))
        assert not heeds(state, None)

    @pytest.mark.parametrize("stage", list(SlotStage))
    def test_accessed_node_heeds_a_relay_assignment(self, stage):
        state = self.bound(Lifecycle.ACCESSED)
        assert heeds(state, mkslot(7, 10, stage=stage)) \
            == (stage is SlotStage.RELAY_RX)
        assert not heeds(state, None)

    def test_unheeded_slot_changes_nothing(self):
        state = self.bound(Lifecycle.ACCESSED)
        before = dataclasses.replace(state)
        frame = mkframe(mkslot(7, 10, stage=SlotStage.CONFIRM),
                        mkslot(8, MODEL.bucket(100.0)))
        assert match_frame(state, frame, MODEL, PARAMS, random.Random(0),
                           1.0, 100.0) == []
        assert state == before


class TestAnswers:
    """`answers` holds exactly when a bound node's match gives a beam, and
    `aim` makes the match's one write and gives that beam."""

    @pytest.mark.parametrize("lifecycle", [Lifecycle.EMITTING,
                                           Lifecycle.ACCESSED])
    @pytest.mark.parametrize("stage", list(SlotStage))
    def test_answers_when_the_match_beams(self, lifecycle, stage):
        state = TestHeeds().bound(lifecycle)
        slot = mkslot(7, 10, stage=stage, azimuth=30.0,
                      partner=3 if stage >= SlotStage.RELAY_RX else 0)
        aimed = dataclasses.replace(state)
        beams = match_frame(state, mkframe(slot), MODEL, PARAMS,
                            random.Random(0), 1.0, 100.0)
        assert bool(beams) == answers(aimed, slot) \
            == (lifecycle is Lifecycle.EMITTING
                and stage in (SlotStage.ASSIGN, SlotStage.RELAY_TX))
        if beams:
            assert beams == [aim(aimed, slot)]
            assert aimed == state
        assert not answers(state, None)


class TestAnswersDirectly:
    """A bound node beams straight at the base station only for ASSIGN."""

    @pytest.mark.parametrize("stage", list(SlotStage))
    def test_emitting_node_answers_only_an_assign_slot(self, stage):
        state = TestHeeds().bound(Lifecycle.EMITTING)
        slot = mkslot(7, 10, stage=stage)
        assert answers_directly(state, slot) == (stage is SlotStage.ASSIGN)
        assert not answers_directly(state, None)

    @pytest.mark.parametrize("stage", list(SlotStage))
    def test_accessed_node_answers_nothing_directly(self, stage):
        state = TestHeeds().bound(Lifecycle.ACCESSED)
        assert not answers_directly(state, mkslot(7, 10, stage=stage))

    def test_an_assign_answer_is_one_beam_along_the_slot(self):
        state = TestHeeds().bound(Lifecycle.EMITTING)
        slot = mkslot(7, 10, azimuth=30.0, elevation=45.0)
        assert answers_directly(state, slot)
        assert match_frame(state, mkframe(slot), MODEL, PARAMS,
                           random.Random(0), 1.0, 100.0) \
            == [Emission(slot_bearing(slot), 7)]


class TestDrawMovement:
    def test_degenerate_uniform(self):
        params = SimConfig(v_min_mps=0.5, v_max_mps=0.5,
                           move_duration_min_s=2.0, move_duration_max_s=2.0)
        v, dt = draw_movement(random.Random(1), params, depth=100.0)
        assert abs(v) == pytest.approx(0.5)
        assert dt == pytest.approx(2.0)

    def test_surface_clips_rise_to_dive(self):
        params = SimConfig()
        rng = random.Random(0)
        for _ in range(200):
            v, _ = draw_movement(rng, params, depth=0.2)
            assert v > 0.0  # always diving this close to the surface

    def test_floor_clips_dive_to_rise(self):
        params = SimConfig(region_depth_m=200.0)
        rng = random.Random(0)
        for _ in range(200):
            v, _ = draw_movement(rng, params, depth=199.5)
            assert v < 0.0

    def test_mean_speed_matches_uniform_oracle(self):
        # Monte-Carlo oracle: mean of U(v_min, v_max) within 3 sigma
        params = SimConfig(v_min_mps=0.05, v_max_mps=0.5)
        rng = random.Random(42)
        n = 10_000
        speeds = [abs(draw_movement(rng, params, 100.0)[0]) for _ in range(n)]
        mean = sum(speeds) / n
        expected = (0.05 + 0.5) / 2
        sigma = (0.5 - 0.05) / (12 ** 0.5) / (n ** 0.5)
        assert abs(mean - expected) < 3 * sigma

    def test_direction_roughly_balanced_midwater(self):
        rng = random.Random(7)
        votes = sum(1 if draw_movement(rng, SimConfig(), 100.0)[0] > 0 else 0
                    for _ in range(2000))
        assert 850 < votes < 1150


class TestAccess:
    def test_return_to_depth_kinematics(self):
        # oracle: 4 m displacement at 0.5 m/s takes 8 s
        state = fresh_node(100.0, lifecycle=Lifecycle.EMITTING)
        on_access(state, 10.0, PARAMS, 104.0)
        assert state.lifecycle is Lifecycle.ACCESSED
        assert state.vertical_velocity == pytest.approx(-0.5)
        assert state.movement_deadline == pytest.approx(18.0)
        on_movement_expiry(state, PARAMS, random.Random(0), 18.0, 100.0)
        assert state.vertical_velocity == 0.0

    def test_no_movement_when_at_original_depth(self):
        state = fresh_node(100.0, lifecycle=Lifecycle.EMITTING)
        on_access(state, 5.0, PARAMS, 100.0)
        assert state.vertical_velocity == 0.0
        assert state.movement_deadline is None

    def test_conflict_time_accounted_at_bind(self):
        state = fresh_node(100.0)
        rng = random.Random(3)
        bucket = MODEL.bucket(100.0)
        conflict = mkframe(mkslot(1, bucket), mkslot(2, bucket))
        match_frame(state, conflict, MODEL, PARAMS, rng, 2.0, 100.0)
        assert state.lifecycle is Lifecycle.CONFLICT_MOVING
        state.vertical_velocity = 0.0  # pretend motion settled; marker NONE
        unique = mkframe(mkslot(1, bucket))
        match_frame(state, unique, MODEL, PARAMS, rng, 9.5, 100.0)
        assert state.lifecycle is Lifecycle.EMITTING
        assert state.total_conflict_time == pytest.approx(7.5)


class TestMovementExpiry:
    def test_conflicted_node_redraws(self):
        state = fresh_node(100.0)
        rng = random.Random(5)
        bucket = MODEL.bucket(100.0)
        match_frame(state, mkframe(mkslot(1, bucket), mkslot(2, bucket)),
                    MODEL, PARAMS, rng, 1.0, 100.0)
        epoch = state.movement_epoch
        deadline = state.movement_deadline
        on_movement_expiry(state, PARAMS, rng, deadline, 100.0)
        assert state.movement_epoch == epoch + 1
        assert state.movement_deadline > deadline


class TestForwardBeam:
    def accessed_relay(self):
        state = fresh_node(100.0, lifecycle=Lifecycle.ACCESSED)
        state.matched_id = 3
        state.emission_bearing = Bearing(0.0, 75.0)
        state.relay_duty = RelayDuty(9, Bearing(120.0, -10.0))
        return state

    def test_partner_beam_forwarded_toward_bs(self):
        state = self.accessed_relay()
        out = forward_beam(state, 9)
        assert out == Emission(Bearing(0.0, 75.0), 9, relayed=True)

    def test_non_partner_beam_dropped(self):
        assert forward_beam(self.accessed_relay(), 4) is None

    def test_no_duty_drops_everything(self):
        state = self.accessed_relay()
        state.relay_duty = None
        assert forward_beam(state, 9) is None
