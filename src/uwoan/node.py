"""Underwater-node protocol behavior.

A node is acoustically mute: it listens to the downward broadcast,
matches the advertised depth codes against its own depth, and answers
only with narrow-beam optical emissions along the angles it was given.
Depth conflicts are resolved by random vertical movement until the
node's quantized depth is unique; after access the node returns to its
original depth and may serve as an optical relay for one neighbor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import NamedTuple

from .config import SimConfig
from .frame import (
    MARKER_DIVING,
    MARKER_NONE,
    MARKER_RISING,
    SLOT_ASSIGN,
    SLOT_CONFIRM,
    SLOT_RELAY_RX,
    SLOT_RELAY_TX,
    FrameIndex,
    MovementMarker,
    SlotPayload,
    SuperFrame,
)
from .geometry import Bearing, DepthModel

__all__ = [
    "Lifecycle",
    "NODE_DORMANT",
    "NODE_ACTIVATED",
    "NODE_MATCHING",
    "NODE_CONFLICT_MOVING",
    "NODE_EMITTING",
    "NODE_ACCESSED",
    "RelayDuty",
    "Emission",
    "UwnState",
    "slot_bearing",
    "heeds",
    "answers",
    "answers_directly",
    "aim",
    "on_trigger",
    "match_frame",
    "match_frame_indexed",
    "draw_movement",
    "on_access",
    "on_movement_expiry",
    "forward_beam",
]


class Lifecycle(Enum):
    DORMANT = "dormant"
    ACTIVATED = "activated"
    MATCHING = "matching"
    CONFLICT_MOVING = "conflict_moving"
    EMITTING = "emitting"
    ACCESSED = "accessed"


# Lifecycle members bound once: on Python 3.10 and 3.11 every
# `Lifecycle.X` read goes through EnumType.__getattr__, about ten times
# the cost of a global, and the handlers below run per node and per frame
NODE_DORMANT = Lifecycle.DORMANT
NODE_ACTIVATED = Lifecycle.ACTIVATED
NODE_MATCHING = Lifecycle.MATCHING
NODE_CONFLICT_MOVING = Lifecycle.CONFLICT_MOVING
NODE_EMITTING = Lifecycle.EMITTING
NODE_ACCESSED = Lifecycle.ACCESSED


class RelayDuty(NamedTuple):
    partner_id: int
    receiver_bearing: Bearing


class Emission(NamedTuple):
    """An optical beam leaving a node: direction, claimed ID, relay flag."""

    bearing: Bearing
    claimed_id: int
    relayed: bool = False


@dataclass(slots=True)
class UwnState:
    """Mutable per-node protocol state.

    The node's depth is not stored: the handlers that read it take the
    reading as an argument.  `movement_epoch` increments on every velocity
    change so stale movement timers can be discarded.
    """

    original_depth: float
    lifecycle: Lifecycle = Lifecycle.DORMANT
    matched_id: int | None = None
    emission_bearing: Bearing | None = None
    relay_duty: RelayDuty | None = None
    vertical_velocity: float = 0.0
    movement_deadline: float | None = None
    movement_epoch: int = 0
    last_reset_bit: int = 0
    conflict_entered_at: float | None = None
    total_conflict_time: float = 0.0
    access_time: float | None = None


def slot_bearing(slot: SlotPayload) -> Bearing:
    """Decode a slot's centidegree angles into a Bearing."""
    azimuth = (slot.azimuth_centideg / 100.0) % 360.0
    elevation = slot.elevation_centideg / 100.0 - 90.0
    return Bearing(azimuth, elevation)


def heeds(state: UwnState, slot: SlotPayload | None) -> bool:
    """Whether a bound node can be changed by its ID's slot (None: no slot).

    Only its own slot can change it, and once accessed only a RELAY_RX.
    """
    return slot is not None and (state.lifecycle is not NODE_ACCESSED
                                 or slot.stage is SLOT_RELAY_RX)


def answers(state: UwnState, slot: SlotPayload | None) -> bool:
    """Whether a bound node answers its ID's slot with a beam.

    An emitting node answers an ASSIGN or a RELAY_TX slot, along the
    slot's angles (`aim`).
    """
    return (slot is not None and state.lifecycle is not NODE_ACCESSED
            and (slot.stage is SLOT_ASSIGN or slot.stage is SLOT_RELAY_TX))


def answers_directly(state: UwnState, slot: SlotPayload | None) -> bool:
    """Whether a bound node answers its ID's slot with a direct beam.

    An emitting node answers an ASSIGN slot along the slot's angles, at the
    base station; a RELAY_TX slot aims its beam at a relay instead.
    """
    return (slot is not None and slot.stage is SLOT_ASSIGN
            and state.lifecycle is not NODE_ACCESSED)


def aim(state: UwnState, slot: SlotPayload) -> Emission:
    """Point a bound node's beam along its slot's angles: its answer."""
    state.emission_bearing = slot_bearing(slot)
    return Emission(state.emission_bearing, state.matched_id)


def on_trigger(state: UwnState) -> None:
    """Wake a dormant node; idempotent in every other lifecycle."""
    if state.lifecycle is NODE_DORMANT:
        state.lifecycle = NODE_ACTIVATED


def _own_marker(state: UwnState) -> MovementMarker:
    if state.vertical_velocity > 0.0:
        return MARKER_DIVING
    if state.vertical_velocity < 0.0:
        return MARKER_RISING
    return MARKER_NONE


def draw_movement(rng: Random, cfg: SimConfig, depth: float,
                  keep_direction: float = 0.0) -> tuple[float, float]:
    """Draw a random vertical movement: (signed velocity, duration).

    Positive velocity dives.  Direction is uniform over {dive, rise} but
    clipped to the feasible side near the surface or the region floor,
    judging feasibility by the worst-case excursion v_max*duration_max.
    A nonzero `keep_direction` carries the sign of the current velocity
    forward so the node continues its dive or climb with a fresh speed:
    separation stays ballistic instead of degrading into a random walk,
    and directions reshuffle only on an explicit reset.  Exactly three
    rng draws are consumed regardless of clipping or direction keeping.
    """
    dive = rng.random() < 0.5
    if keep_direction != 0.0:
        dive = keep_direction > 0.0
    speed = rng.uniform(cfg.v_min_mps, cfg.v_max_mps)
    duration = rng.uniform(cfg.move_duration_min_s, cfg.move_duration_max_s)
    bound = cfg.v_max_mps * cfg.move_duration_max_s
    can_dive = depth + bound <= cfg.region_depth_m
    can_rise = depth - bound >= 0.0
    if dive and not can_dive and can_rise:
        dive = False
    elif not dive and not can_rise and can_dive:
        dive = True
    elif not can_dive and not can_rise:
        # degenerate shallow region: move toward the larger headroom, capped
        dive = (cfg.region_depth_m - depth) >= depth
        headroom = (cfg.region_depth_m - depth) if dive else depth
        speed = min(speed, max(headroom, 0.0) / duration)
    return (speed if dive else -speed), duration


def _start_movement(state: UwnState, cfg: SimConfig, rng: Random,
                    now: float, depth: float,
                    keep_direction: float = 0.0) -> None:
    velocity, duration = draw_movement(rng, cfg, depth, keep_direction)
    state.vertical_velocity = velocity
    state.movement_deadline = now + duration
    state.movement_epoch += 1


def _bind(state: UwnState, slot: SlotPayload, now: float) -> Emission:
    state.matched_id = slot.network_id
    state.emission_bearing = slot_bearing(slot)
    if state.lifecycle is NODE_CONFLICT_MOVING:
        state.total_conflict_time += now - state.conflict_entered_at
        state.conflict_entered_at = None
        if state.vertical_velocity != 0.0:
            state.vertical_velocity = 0.0
            state.movement_deadline = None
            state.movement_epoch += 1
    state.lifecycle = NODE_EMITTING
    return Emission(state.emission_bearing, state.matched_id)


def on_access(state: UwnState, now: float, cfg: SimConfig,
              depth: float) -> None:
    """Confirmation received at `depth`: mark accessed, head back home."""
    state.lifecycle = NODE_ACCESSED
    state.access_time = now
    displacement = depth - state.original_depth
    if abs(displacement) > cfg.return_tolerance_m:
        state.vertical_velocity = -math.copysign(cfg.v_return_mps, displacement)
        state.movement_deadline = now + abs(displacement) / cfg.v_return_mps
    else:
        state.vertical_velocity = 0.0
        state.movement_deadline = None
    state.movement_epoch += 1


def on_movement_expiry(state: UwnState, cfg: SimConfig, rng: Random,
                       now: float, depth: float) -> None:
    """A movement interval ended: continue while conflicted, stop otherwise.

    A still-conflicted node draws a fresh speed and interval but keeps its
    heading; only a reset command (or a region boundary) turns it around.
    """
    if state.lifecycle is NODE_CONFLICT_MOVING:
        _start_movement(state, cfg, rng, now, depth,
                        keep_direction=state.vertical_velocity)
    elif state.vertical_velocity != 0.0:
        state.vertical_velocity = 0.0
        state.movement_deadline = None
        state.movement_epoch += 1


def match_frame_indexed(state: UwnState, index: FrameIndex, model: DepthModel,
                        cfg: SimConfig, rng: Random, now: float,
                        depth: float) -> list[Emission]:
    """Match one broadcast frame's shared, read-only slots at `depth`."""
    if state.lifecycle is NODE_DORMANT:
        return []
    if state.lifecycle is NODE_ACTIVATED:
        state.lifecycle = NODE_MATCHING

    if state.matched_id is not None:
        # bound, so emitting or accessed
        slot = index.by_id.get(state.matched_id)
        if not heeds(state, slot):
            return []
        if state.lifecycle is NODE_ACCESSED:
            state.relay_duty = RelayDuty(slot.partner_id, slot_bearing(slot))
        elif slot.stage is SLOT_CONFIRM:
            on_access(state, now, cfg, depth)
        elif answers(state, slot):
            # refreshed angles; RELAY_TX retargets the beam at the relay
            return [aim(state, slot)]
        return []

    # unbound: match the advertised depth codes against our own depth
    bucket = model.bucket(depth)
    candidates = index.assign_by_code.get(bucket)
    if not candidates:
        return []
    if cfg.match_on_motion_marker:
        # only slots tracking our own motion state can be ours; this keeps
        # a drifting conflicted node from stealing a neighbor's assignment
        own = _own_marker(state)
        candidates = [s for s in candidates if s.movement_marker is own]
        if not candidates:
            return []
    if len(candidates) == 1 and not candidates[0].conflict_flag:
        return [_bind(state, candidates[0], now)]
    # ambiguous or explicitly conflicted: keep (or start, or resume) moving
    if state.lifecycle is not NODE_CONFLICT_MOVING:
        state.lifecycle = NODE_CONFLICT_MOVING
        state.conflict_entered_at = now
        _start_movement(state, cfg, rng, now, depth)
    elif state.vertical_velocity == 0.0:
        _start_movement(state, cfg, rng, now, depth)
    else:
        for slot in candidates:
            if slot.reset_bit != state.last_reset_bit:
                state.last_reset_bit = slot.reset_bit
                _start_movement(state, cfg, rng, now, depth)
                break
    return []


def match_frame(state: UwnState, frame: SuperFrame, model: DepthModel,
                cfg: SimConfig, rng: Random, now: float,
                depth: float) -> list[Emission]:
    """Convenience wrapper building the per-frame index on the fly."""
    return match_frame_indexed(state, FrameIndex(frame), model, cfg, rng, now,
                               depth)


def forward_beam(state: UwnState, claimed_id: int) -> Emission | None:
    """Relay a partner's beam toward the base station; drop anything else.

    The caller is responsible for receiver field-of-view and link
    feasibility checks; this only enforces the relay binding.
    """
    if state.lifecycle is not NODE_ACCESSED or state.relay_duty is None:
        return None
    if claimed_id != state.relay_duty.partner_id:
        return None
    if state.emission_bearing is None:
        return None
    return Emission(state.emission_bearing, claimed_id, relayed=True)
