"""Base-station protocol: detect, allocate, broadcast, confirm, decompose, relay.

The base station drives the whole initialization: it sounds the water
column, assigns network IDs and TDMA slots keyed by quantized depth,
broadcasts emission angles, confirms optical arrivals, commands random
vertical movement for depth-conflicted nodes, and falls back to one
dual-hop relay attempt before declaring a node failed.
"""

from __future__ import annotations

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


@dataclass
class NodeRecord:
    network_id: int
    track_key: int
    sonar_position: Position
    depth_code: int
    stage: HandshakeStage
    retries_remaining: int
    conflict_flag: bool = False
    reset_bit: int = 0
    observed_motion: MovementMarker = MovementMarker.NONE
    relay_of: int | None = None
    relayed_by: int | None = None
    via_relay: bool = False
    access_time: float | None = None
    conflict_since: float | None = None
    last_reset_at: float | None = None
    # encoded emission angles toward the BS, invalidated on position updates
    bs_angles: tuple[int, int] | None = None


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

    def __init__(self, config: SimConfig) -> None:
        self.cfg = config
        # built once: SimConfig makes a new object per call
        self.bs_position = config.bs_position()
        self.depth_model = config.depth_model()
        self.registry: dict[int, NodeRecord] = {}
        self._by_track: dict[int, int] = {}
        self.next_network_id = 1
        self.next_frame_seq = 0
        self.unknown_beams = 0
        self.duplicate_beams = 0
        # a settled record's return folds to nothing while no draw rides on
        # it, so the scan skips it; `settled_returns` counts the last skips
        self._skip_settled = (config.sonar_depth_noise_std_m == 0.0
                              and config.p_misdetect == 0.0)
        self.settled_returns = 0

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

        With neither noise nor misdetection, a return is skipped when its
        record is accessed or failed (both final), observed no motion and
        holds this very `Position` object: folding it would change nothing,
        since a final stage never refreshes its depth code, and no random
        draw is skipped with it.  Such a record was detected at this
        position before, so it is in reach; `settled_returns` counts the
        skipped returns, which are detections all the same.
        """
        c = self.cfg
        bs_pos, bucket = self.bs_position, self.depth_model.bucket
        reach, p_miss = c.acoustic_range_m, c.p_misdetect
        noise, floor = c.sonar_depth_noise_std_m, c.region_depth_m
        skip_settled = self._skip_settled
        by_track, registry = self._by_track, self.registry
        skipped = 0
        out: list[Detection] = []
        for track_key, pos in snapshot:
            if skip_settled:
                nid = by_track.get(track_key)
                if nid is not None:
                    rec = registry[nid]
                    if rec.sonar_position is pos \
                            and rec.observed_motion is MARKER_NONE \
                            and (rec.stage is STAGE_ACCESSED
                                 or rec.stage is STAGE_FAILED):
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
        self.settled_returns = skipped
        return out

    # -- allocation and decomposition --------------------------------------

    def allocate(self, detections: Sequence[Detection], now: float) -> list[int]:
        """Register unseen tracks under fresh sequential network IDs."""
        new_ids: list[int] = []
        for det in detections:
            if det.track_key in self._by_track:
                continue
            if self.next_network_id > MAX_NETWORK_ID:
                raise ProtocolError(
                    f"network ID space exhausted ({MAX_NETWORK_ID} IDs)")
            nid = self.next_network_id
            self.next_network_id += 1
            self.registry[nid] = NodeRecord(
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
                rec.bs_angles = None
            if rec.stage in _DEPTH_MATCHABLE:
                rec.depth_code = det.depth_code
        self._recompute_conflicts(now)
        for rec in self.registry.values():
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
        for rec in self.registry.values():
            if rec.stage in _DEPTH_MATCHABLE:
                bucket = rec.depth_code
                counts[bucket] = counts.get(bucket, 0) + 1
                if rec.stage is STAGE_CONFLICTED:
                    if rec.observed_motion is MARKER_DIVING:
                        diving.add(bucket)
                    elif rec.observed_motion is MARKER_RISING:
                        rising.add(bucket)
        for rec in self.registry.values():
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
                    rec.conflict_flag = False
                    rec.conflict_since = None
                    rec.last_reset_at = None
                    rec.retries_remaining = self.cfg.direct_retries
            elif rec.stage in _DEPTH_MATCHABLE and counts[bucket] > 1:
                # a mover collided into this code: the slot is ambiguous
                # again, even if it was already broadcast conflict-free
                rec.stage = STAGE_CONFLICTED
                rec.conflict_flag = True
                rec.conflict_since = now
                rec.last_reset_at = None

    # -- broadcasting -------------------------------------------------------

    def compose_superframe(self, now: float) -> SuperFrame:
        """Build the next TDMA frame: one slot per live record.

        Assignment slots carry the emission angles toward the base station
        and the conflict/movement/reset flags; confirmations complete the
        third handshake; relay pairs get reciprocal receive/transmit slots.
        Composing also advances stages: freshly assigned records start
        awaiting their beam, and confirmations mark the record accessed.
        """
        bs_pos = self.bs_position
        slots: list[SlotPayload] = []
        for rec in self.registry.values():
            stage = rec.stage
            if stage is STAGE_FAILED:
                continue
            # read once, so a cache that keeps nothing still gives angles
            bs_angles = rec.bs_angles
            if bs_angles is None:
                bs_angles = rec.bs_angles = _slot_angles(rec.sonar_position,
                                                         bs_pos)
            if stage in _DEPTH_MATCHABLE:
                az, el = bs_angles
                slots.append(SlotPayload(
                    rec.network_id, rec.depth_code, az, el,
                    SLOT_ASSIGN, rec.conflict_flag,
                    rec.observed_motion, rec.reset_bit))
                if stage is STAGE_ASSIGNED:
                    rec.stage = STAGE_AWAITING_BEAM
            elif stage is STAGE_CONFIRMING:
                az, el = bs_angles
                slots.append(SlotPayload(
                    rec.network_id, rec.depth_code, az, el,
                    SLOT_CONFIRM))
                rec.stage = STAGE_ACCESSED
                rec.access_time = now
            elif stage is STAGE_ACCESSED:
                if rec.relay_of is not None:
                    partner = self.registry[rec.relay_of]
                    az, el = _slot_angles(rec.sonar_position,
                                          partner.sonar_position)
                    slots.append(SlotPayload(
                        rec.network_id, rec.depth_code, az, el,
                        SLOT_RELAY_RX, partner_id=partner.network_id))
                else:
                    az, el = bs_angles
                    slots.append(SlotPayload(
                        rec.network_id, rec.depth_code, az, el,
                        SLOT_CONFIRM))
            elif stage is STAGE_RELAY_PENDING:
                relay = self.registry[rec.relayed_by]
                az, el = _slot_angles(rec.sonar_position,
                                      relay.sonar_position)
                slots.append(SlotPayload(
                    rec.network_id, rec.depth_code, az, el,
                    SLOT_RELAY_TX, partner_id=relay.network_id))
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
        for rec in list(self.registry.values()):
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
            rec.relayed_by = None

    def _fail(self, rec: NodeRecord) -> None:
        rec.stage = STAGE_FAILED
        rec.conflict_flag = False
        rec.relayed_by = None

    # -- invariants -----------------------------------------------------------

    def _check_invariants(self) -> None:
        """Raise ProtocolError naming the first record that breaks a rule.

        Explicit raises, not asserts, so the checks hold under `python -O`.
        """
        seen_relays: set[int] = set()
        registry = self.registry
        for nid, rec in registry.items():
            if rec.network_id != nid:
                raise _broken(nid, f"holds network ID {rec.network_id}")
            if self._by_track.get(rec.track_key) != nid:
                raise _broken(nid, f"track {rec.track_key} maps elsewhere")
            if rec.stage is STAGE_ACCESSED \
                    and rec.access_time is None:
                raise _broken(nid, "accessed without an access time")
            if rec.conflict_flag \
                    and rec.stage is not STAGE_CONFLICTED:
                raise _broken(nid, f"flags a conflict in stage "
                                   f"{rec.stage.name}")
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
