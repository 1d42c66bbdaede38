"""Base-station protocol: detect, allocate, broadcast, confirm, decompose, relay.

The base station drives the whole initialization: it sounds the water
column, assigns network IDs and TDMA slots keyed by quantized depth,
broadcasts emission angles, confirms optical arrivals, commands random
vertical movement for depth-conflicted nodes, and falls back to one
dual-hop relay attempt before declaring a node failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .config import SimConfig
from .frame import (
    MARKER_DIVING,
    MARKER_NONE,
    MARKER_RISING,
    MAX_NETWORK_ID,
    SLOT_ASSIGN,
    SLOT_CONFIRM,
    SLOT_RELAY_RX,
    SLOT_RELAY_TX,
    MovementMarker,
    SlotPayload,
    SuperFrame,
)
from .geometry import GeometryError, Position, bearing_angles, distance

__all__ = [
    "ProtocolError",
    "HandshakeStage",
    "STAGE_ASSIGNED",
    "STAGE_CONFLICTED",
    "STAGE_AWAITING_BEAM",
    "STAGE_CONFIRMING",
    "STAGE_ACCESSED",
    "STAGE_RELAY_PENDING",
    "STAGE_FAILED",
    "Detection",
    "NodeRecord",
    "BsState",
    "nearest_eligible_relay",
    "MAX_NETWORK_ID",
]


class HandshakeStage(Enum):
    ASSIGNED = "assigned"
    CONFLICTED = "conflicted"
    AWAITING_BEAM = "awaiting_beam"
    CONFIRMING = "confirming"
    ACCESSED = "accessed"
    RELAY_PENDING = "relay_pending"
    FAILED = "failed"


# HandshakeStage members bound once: on Python 3.10 and 3.11 every
# `HandshakeStage.X` read goes through EnumType.__getattr__, about ten
# times the cost of a global, and the registry passes below run per record
STAGE_ASSIGNED = HandshakeStage.ASSIGNED
STAGE_CONFLICTED = HandshakeStage.CONFLICTED
STAGE_AWAITING_BEAM = HandshakeStage.AWAITING_BEAM
STAGE_CONFIRMING = HandshakeStage.CONFIRMING
STAGE_ACCESSED = HandshakeStage.ACCESSED
STAGE_RELAY_PENDING = HandshakeStage.RELAY_PENDING
STAGE_FAILED = HandshakeStage.FAILED

# sonar depth deltas smaller than this read as "not moving"
_MOTION_EPS = 0.01

# record stages whose slots are depth-matchable (stage ASSIGN on the wire);
# only these participate in depth-conflict bookkeeping
_DEPTH_MATCHABLE = (STAGE_ASSIGNED, STAGE_CONFLICTED, STAGE_AWAITING_BEAM)


class ProtocolError(RuntimeError):
    """Protocol bookkeeping violation (e.g. ID space exhausted)."""


def _broken(nid: int, what: str) -> ProtocolError:
    return ProtocolError(f"registry invariant broken: record {nid} {what}")


class Detection(NamedTuple):
    """One sonar return: opaque track key, measured position, depth code."""

    track_key: int
    position: Position
    depth_code: int


@dataclass(slots=True)
class NodeRecord:
    network_id: int
    track_key: int
    sonar_position: Position
    depth_code: int
    stage: HandshakeStage
    retries_remaining: int
    reset_bit: int = 0
    observed_motion: MovementMarker = MovementMarker.NONE
    relay_of: int | None = None
    relayed_by: int | None = None
    via_relay: bool = False
    access_time: float | None = None
    conflict_since: float | None = None
    last_reset_at: float | None = None
    # the last slot composed for this record, of whatever kind, sent again
    # while its content stands: dropped when a relay is bound or released,
    # and, if it carries angles (CONFIRM slots carry none), when this
    # record's position or its relay partner's changes value
    slot: SlotPayload | None = None


def _drop_angled_slot(rec: NodeRecord) -> None:
    """Drop `rec`'s kept slot unless it is a CONFIRM slot, which has no
    angles to go stale."""
    slot = rec.slot
    if slot is not None and slot.stage is not SLOT_CONFIRM:
        rec.slot = None


def _slot_angles(origin: Position, target: Position) -> tuple[int, int]:
    """Slot-encoded bearing of `target` from `origin`, in centidegrees.

    Azimuth wraps into 0..35999; elevation is offset by +90 degrees, so
    it lies in 0..18000.  Coincident points read as straight up.
    """
    try:
        azimuth, elevation = bearing_angles(origin, target)
    except GeometryError:
        return 0, 18000
    return round(azimuth * 100.0) % 36000, round((elevation + 90.0) * 100.0)


def nearest_eligible_relay(records: Iterable[NodeRecord],
                           target: NodeRecord) -> NodeRecord | None:
    """Closest directly-accessed record with free relay capacity.

    Eligible means ACCESSED, not itself relayed (keeps chains at two hops),
    and not already relaying someone (fan-in one).  Ties break toward the
    lower network ID.
    """
    best: NodeRecord | None = None
    best_key: tuple[float, int] | None = None
    for rec in records:
        if rec.stage is not STAGE_ACCESSED:
            continue
        if rec.relay_of is not None or rec.via_relay:
            continue
        if rec.network_id == target.network_id:
            continue
        key = (distance(rec.sonar_position, target.sonar_position),
               rec.network_id)
        if best_key is None or key < best_key:
            best, best_key = rec, key
    return best


class BsState:
    """The base-station half of the initialization protocol."""

    def __init__(self, config: SimConfig, box_in_reach: bool = False) -> None:
        self.cfg = config
        # built once: SimConfig makes a new object per call
        self.bs_position = config.bs_position()
        self.depth_model = config.depth_model()
        self.registry: dict[int, NodeRecord] = {}
        self._by_track: dict[int, int] = {}
        # the records neither accessed nor failed, in network-ID order; both
        # of those stages are final, so the per-period passes skip them
        self._live: dict[int, NodeRecord] = {}
        self.next_frame_seq = 0
        self.unknown_beams = 0
        self.duplicate_beams = 0
        # a return that would only move its record is folded in the scan
        # while no draw rides on it; `unchanged_returns` counts the last
        self._skip_unchanged = (config.sonar_depth_noise_std_m == 0.0
                                and config.p_misdetect == 0.0)
        self.unchanged_returns = 0
        # set when no position in the world's region box lies beyond
        # `acoustic_range_m` of `bs_position`: the scan's range test then
        # never fails, so it is not made
        self._skip_range_test = box_in_reach

    @property
    def settled(self) -> bool:
        """True when every record is accessed or failed, both final."""
        return not self._live

    def record_for_track(self, track_key: int) -> NodeRecord | None:
        """The record registered for a sonar track, or None if never seen."""
        nid = self._by_track.get(track_key)
        return None if nid is None else self.registry[nid]

    # -- discovery ---------------------------------------------------------

    def sonar_scan(self, snapshot: Sequence[tuple[int, Position]],
                   rng: Random) -> list[Detection]:
        """Sound the water column: every in-range node becomes a detection.

        Depth is measured (optionally with Gaussian noise, clipped to the
        water column) and quantized with the shared depth model; each
        return is independently dropped with probability p_misdetect.

        With neither noise nor misdetection, the scan folds a return itself
        when folding it in `update_decomposition` would change nothing but
        the record's `sonar_position`.  Its record, whatever its stage,
        observed no motion, and either holds this very `Position` object,
        or holds one at the same depth while it has no relay partner either
        way and keeps no slot with angles (none, or a CONFIRM slot).  The
        marker then stays NONE, no kept slot is dropped, and a
        depth-matchable record's depth code already comes from that depth,
        since no record goes back to such a stage once it has left one; no
        random draw is skipped with it.  A record at this very object was
        detected there before, so it is in reach; a moved return is tested
        first.  `unchanged_returns` counts the returns folded here, which
        are detections all the same.  A relay pair's moved returns still go
        to `update_decomposition`, which drops the partner's slot.

        A return is out of reach when its distance from `bs_position`
        exceeds `acoustic_range_m`.  The scan makes no such test when
        constructed with `box_in_reach`: every position in the world's
        region box is then in reach, so none would fail it.
        """
        c = self.cfg
        bs_east, bs_north, bs_depth = self.bs_position
        bucket, sqrt, new = self.depth_model.bucket, math.sqrt, tuple.__new__
        reach, p_miss = c.acoustic_range_m, c.p_misdetect
        noise, floor = c.sonar_depth_noise_std_m, c.region_depth_m
        skip_unchanged = self._skip_unchanged
        test_range = not self._skip_range_test
        by_track, registry = self._by_track, self.registry
        skipped = 0
        out: list[Detection] = []
        for track_key, pos in snapshot:
            rec = None
            if skip_unchanged:
                nid = by_track.get(track_key)
                if nid is not None:
                    rec = registry[nid]
                    if rec.observed_motion is not MARKER_NONE:
                        rec = None
                    elif rec.sonar_position is pos:
                        skipped += 1
                        continue
            east, north, depth = pos
            # distance(bs_position, pos)'s operand order, so the bits agree
            if test_range and sqrt((east - bs_east) ** 2
                                   + (north - bs_north) ** 2
                                   + (depth - bs_depth) ** 2) > reach:
                continue
            if rec is not None and depth == rec.sonar_position.depth \
                    and rec.relay_of is None and rec.relayed_by is None \
                    and (rec.slot is None or rec.slot.stage is SLOT_CONFIRM):
                rec.sonar_position = pos  # all that folding it would change
                skipped += 1
                continue
            if p_miss > 0.0 and rng.random() < p_miss:
                continue
            if noise > 0.0:
                # clamped to the water column: Position's checks would pass
                depth = min(floor, max(0.0, depth + rng.gauss(0.0, noise)))
                pos = new(Position, (east, north, depth))
            out.append(new(Detection, (track_key, pos, bucket(depth))))
        self.unchanged_returns = skipped
        return out

    # -- allocation and decomposition --------------------------------------

    def allocate(self, detections: Sequence[Detection], now: float) -> list[int]:
        """Register unseen tracks under sequential IDs from 1, never freed."""
        new_ids: list[int] = []
        for det in detections:
            if det.track_key in self._by_track:
                continue
            nid = len(self.registry) + 1
            if nid > MAX_NETWORK_ID:
                raise ProtocolError(
                    f"network ID space exhausted ({MAX_NETWORK_ID} IDs)")
            self.registry[nid] = self._live[nid] = NodeRecord(
                network_id=nid, track_key=det.track_key,
                sonar_position=det.position, depth_code=det.depth_code,
                stage=STAGE_ASSIGNED,
                retries_remaining=self.cfg.direct_retries)
            self._by_track[det.track_key] = nid
            new_ids.append(nid)
        if new_ids:
            self._recompute_conflicts(now)
            self._check_invariants()
        return new_ids

    def update_decomposition(self, detections: Sequence[Detection],
                             now: float) -> None:
        """Fold a fresh scan into the registry and resolve unique conflicts.

        Re-scans refresh every record's position estimate and observed
        motion; depth codes are refreshed only while the record is still
        depth-matchable.  Conflicted records whose code became unique are
        re-assigned; conflicts persisting past the reset period get their
        reset bit toggled so the nodes redraw their velocities.
        """
        for det in detections:
            rec = self.record_for_track(det.track_key)
            if rec is None:
                continue
            old = rec.sonar_position
            new = det.position
            delta = new.depth - old.depth
            if delta > _MOTION_EPS:
                rec.observed_motion = MARKER_DIVING
            elif delta < -_MOTION_EPS:
                rec.observed_motion = MARKER_RISING
            else:
                rec.observed_motion = MARKER_NONE
            # kept even when equal, so a static body's next return is this
            # object and `sonar_scan` can skip it; equal values, equal angles
            rec.sonar_position = new
            if (new.east != old.east or new.north != old.north
                    or new.depth != old.depth):
                # this record's slot points from this position
                _drop_angled_slot(rec)
                if rec.relayed_by is not None:
                    # the relay's RELAY_RX slot points at this position
                    self.registry[rec.relayed_by].slot = None
                if rec.relay_of is not None:
                    # the partner's RELAY_TX slot points at this position
                    _drop_angled_slot(self.registry[rec.relay_of])
            if rec.stage in _DEPTH_MATCHABLE:
                rec.depth_code = det.depth_code
        self._recompute_conflicts(now)
        for rec in self._live.values():
            if rec.stage is not STAGE_CONFLICTED:
                continue
            anchor = rec.conflict_since if rec.last_reset_at is None \
                else rec.last_reset_at
            if now - anchor >= self.cfg.conflict_reset_after_s:
                rec.reset_bit ^= 1
                rec.last_reset_at = now
        self._check_invariants()

    def _recompute_conflicts(self, now: float) -> None:
        counts: dict[int, int] = {}
        diving: set[int] = set()
        rising: set[int] = set()
        live = self._live.values()
        for rec in live:
            if rec.stage in _DEPTH_MATCHABLE:
                bucket = rec.depth_code
                counts[bucket] = counts.get(bucket, 0) + 1
                if rec.stage is STAGE_CONFLICTED:
                    if rec.observed_motion is MARKER_DIVING:
                        diving.add(bucket)
                    elif rec.observed_motion is MARKER_RISING:
                        rising.add(bucket)
        for rec in live:
            bucket = rec.depth_code
            if rec.stage is STAGE_CONFLICTED:
                # directional guard band: a conflicted neighbor one code
                # away and moving toward this bucket could drift across the
                # boundary before the assignment lands and shadow the slot,
                # so resolution waits until it passes or turns away
                if counts[bucket] == 1 \
                        and bucket - 1 not in diving \
                        and bucket + 1 not in rising:
                    rec.stage = STAGE_ASSIGNED
                    rec.conflict_since = None
                    rec.last_reset_at = None
                    rec.retries_remaining = self.cfg.direct_retries
            elif rec.stage in _DEPTH_MATCHABLE and counts[bucket] > 1:
                # a mover collided into this code: the slot is ambiguous
                # again, even if it was already broadcast conflict-free
                rec.stage = STAGE_CONFLICTED
                rec.conflict_since = now
                rec.last_reset_at = None

    # -- broadcasting -------------------------------------------------------

    def compose_superframe(self, now: float) -> SuperFrame:
        """Build the next TDMA frame: one slot per live record.

        Assignment slots carry the emission angles toward the base station
        and the conflict/movement/reset flags; confirmations complete the
        third handshake; relay pairs get reciprocal receive/transmit slots.
        A confirmation's angle fields are 0: its receiver has already aimed
        and reads only the depth code, so the slot depends only on the
        record's ID and frozen depth code.
        Composing also advances stages: freshly assigned records start
        awaiting their beam, and confirmations mark the record accessed.

        Each record keeps the last slot composed for it and is sent it
        again, the same object, while its content stands.  The stage gives
        the slot's kind; the slot is made afresh when its kind, depth code,
        conflict flag, movement marker or reset bit differs from the one
        the record would send now.  Its angles and partner need no test:
        a change of either position they are taken from, and a relay bound
        or released, drops the slot; a CONFIRM slot, having no angles, is
        kept across a move of its record or of its relay.  An accessed
        record's slot is sent with no test at all, since its depth code is
        frozen and its kind follows `relay_of`.  No slot is written to once
        composed, so a RELAY_RX slot equal to the one a relay already heeded
        re-sets an equal duty, which changes nothing.
        """
        bs_pos = self.bs_position
        registry = self.registry
        slots: list[SlotPayload] = []
        for rec in registry.values():
            slot = rec.slot
            stage = rec.stage
            if stage is STAGE_ACCESSED and slot is not None:
                slots.append(slot)
                continue
            if stage is STAGE_FAILED:
                continue
            conflicted, marker, reset, partner = False, MARKER_NONE, 0, 0
            if stage in _DEPTH_MATCHABLE:
                kind = SLOT_ASSIGN
                conflicted = stage is STAGE_CONFLICTED
                marker, reset = rec.observed_motion, rec.reset_bit
                if stage is STAGE_ASSIGNED:
                    rec.stage = STAGE_AWAITING_BEAM
            elif stage is STAGE_RELAY_PENDING:
                kind, partner = SLOT_RELAY_TX, rec.relayed_by
            elif rec.relay_of is not None:
                kind, partner = SLOT_RELAY_RX, rec.relay_of
            else:
                kind = SLOT_CONFIRM
                if stage is STAGE_CONFIRMING:
                    rec.stage = STAGE_ACCESSED
                    rec.access_time = now
                    del self._live[rec.network_id]
            if slot is None or slot.stage is not kind \
                    or slot.depth_code != rec.depth_code \
                    or slot.conflict_flag != conflicted \
                    or slot.movement_marker is not marker \
                    or slot.reset_bit != reset:
                if kind is SLOT_CONFIRM:
                    az = el = 0
                else:
                    target = registry[partner].sonar_position if partner \
                        else bs_pos
                    az, el = _slot_angles(rec.sonar_position, target)
                slot = rec.slot = SlotPayload(
                    rec.network_id, rec.depth_code, az, el, kind,
                    conflicted, marker, reset, partner)
            slots.append(slot)
        frame = SuperFrame(self.next_frame_seq, tuple(slots))
        self.next_frame_seq += 1
        return frame

    # -- uplink and timeouts -------------------------------------------------

    def on_optical_arrival(self, claimed_id: int, via_relay: bool,
                           now: float) -> None:
        """Second handshake: an optical beam claiming `claimed_id` arrived."""
        rec = self.registry.get(claimed_id)
        if rec is None:
            self.unknown_beams += 1
            return
        stage = rec.stage
        if stage is STAGE_AWAITING_BEAM or stage is STAGE_RELAY_PENDING:
            if stage is STAGE_RELAY_PENDING and not via_relay:
                # direct path recovered after all; release the relay
                self._release_relay(rec)
            rec.stage = STAGE_CONFIRMING
            rec.via_relay = via_relay
            if rec.relayed_by is not None and \
                    self.registry[rec.relayed_by].relay_of != rec.network_id:
                raise _broken(rec.network_id, f"relayed by {rec.relayed_by}, "
                                              "which does not name it")
        elif stage is STAGE_CONFIRMING or stage is STAGE_ACCESSED:
            self.duplicate_beams += 1
        else:
            self.unknown_beams += 1

    def handle_timeouts(self, now: float) -> None:
        """Burn one retry per broadcast-and-unanswered record.

        Exhausted direct attempts fall back to the nearest eligible relay;
        exhausted relay attempts (or no eligible relay at all) fail the
        node and release its slot.
        """
        # a copy: failing a record drains it from the live set
        for rec in list(self._live.values()):
            if rec.stage is STAGE_AWAITING_BEAM:
                rec.retries_remaining -= 1
                if rec.retries_remaining > 0:
                    continue
                relay = nearest_eligible_relay(self.registry.values(), rec)
                if relay is None:
                    self._fail(rec)
                else:
                    rec.stage = STAGE_RELAY_PENDING
                    rec.retries_remaining = self.cfg.relay_retries
                    rec.relayed_by = relay.network_id
                    relay.relay_of = rec.network_id
                    relay.slot = None
            elif rec.stage is STAGE_RELAY_PENDING:
                rec.retries_remaining -= 1
                if rec.retries_remaining <= 0:
                    self._release_relay(rec)
                    self._fail(rec)
        self._check_invariants()

    def _release_relay(self, rec: NodeRecord) -> None:
        if rec.relayed_by is not None:
            relay = self.registry[rec.relayed_by]
            if relay.relay_of == rec.network_id:
                relay.relay_of = None
                relay.slot = None
            rec.relayed_by = None

    def _fail(self, rec: NodeRecord) -> None:
        rec.stage = STAGE_FAILED
        rec.relayed_by = None
        del self._live[rec.network_id]

    # -- invariants -----------------------------------------------------------

    def _check_invariants(self) -> None:
        """Raise ProtocolError naming the first record that breaks a rule.

        Explicit raises, not asserts, so the checks hold under `python -O`.
        """
        seen_relays: set[int] = set()
        registry, live = self.registry, self._live
        for nid, rec in registry.items():
            if rec.network_id != nid:
                raise _broken(nid, f"holds network ID {rec.network_id}")
            if self._by_track.get(rec.track_key) != nid:
                raise _broken(nid, f"track {rec.track_key} maps elsewhere")
            if rec.stage is STAGE_ACCESSED \
                    and rec.access_time is None:
                raise _broken(nid, "accessed without an access time")
            if rec.relay_of is not None:
                if rec.relay_of in seen_relays:
                    raise _broken(nid, f"second relay for {rec.relay_of}")
                seen_relays.add(rec.relay_of)
                if rec.stage is not STAGE_ACCESSED:
                    raise _broken(nid, f"relays in stage {rec.stage.name}")
                if rec.via_relay:
                    raise _broken(nid, "relays while itself relayed")
                partner = registry.get(rec.relay_of)
                if partner is None or partner.relayed_by != nid:
                    raise _broken(nid, f"relays for {rec.relay_of}, "
                                       "which does not name it")
            if rec.relayed_by is not None:
                relay = registry.get(rec.relayed_by)
                if relay is None or relay.stage is not STAGE_ACCESSED:
                    raise _broken(nid, f"relayed by {rec.relayed_by}, "
                                       "which is not accessed")
                if relay.relay_of != nid:
                    raise _broken(nid, f"relayed by {rec.relayed_by}, "
                                       "which does not name it")
            final = rec.stage is STAGE_ACCESSED or rec.stage is STAGE_FAILED
            if (live.get(nid) is rec) == final:
                raise _broken(nid, f"is {'' if final else 'not '}live in "
                                   f"stage {rec.stage.name}")
            slot = rec.slot
            if slot is None:
                continue
            if slot.network_id != nid:
                raise _broken(nid, f"keeps the slot of record "
                                   f"{slot.network_id}")
            # an accessed record's slot is sent with no test of its kind
            if rec.stage is not STAGE_ACCESSED:
                continue
            if rec.relay_of is None:
                if slot.stage is not SLOT_CONFIRM:
                    raise _broken(nid, f"keeps a {slot.stage.name} slot "
                                       "but relays for no record")
            elif slot.stage is not SLOT_RELAY_RX \
                    or slot.partner_id != rec.relay_of:
                raise _broken(nid, f"relays for {rec.relay_of} but keeps "
                                   f"a {slot.stage.name} slot for "
                                   f"{slot.partner_id}")
