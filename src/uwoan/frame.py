"""Bit-exact codec for the downward TDMA acoustic superframe.

Wire layout (all integers big-endian / most-significant-bit first):

    header   frame_seq   32 bits
             slot_count  16 bits
    slot     network_id          10 bits   0..1023
             depth_code          14 bits   0..16383 (depth bucket index)
             azimuth_centideg    16 bits   0..35999 (0.01 deg units)
             elevation_centideg  15 bits   0..18000 (0 encodes -90 deg)
             stage                2 bits   ASSIGN/CONFIRM/RELAY_RX/RELAY_TX
             conflict_flag        1 bit
             movement_marker      2 bits   NONE/DIVING/RISING
             reset_bit            1 bit
             partner_id          10 bits   relay partner, 0 when unused
             padding              1 bit    always 0

Each slot is exactly 9 bytes; a frame is 6 + 9*slot_count bytes.  Slot
network_ids are unique within a frame, and relay slots must name a
partner slot present in the same frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

__all__ = [
    "FrameError",
    "SlotStage",
    "MovementMarker",
    "SLOT_ASSIGN",
    "SLOT_CONFIRM",
    "SLOT_RELAY_RX",
    "SLOT_RELAY_TX",
    "MARKER_NONE",
    "MARKER_DIVING",
    "MARKER_RISING",
    "SlotPayload",
    "SuperFrame",
    "FrameIndex",
    "encode",
    "decode",
    "HEADER_NBYTES",
    "SLOT_NBYTES",
]

HEADER_NBYTES = 6
SLOT_NBYTES = 9

MAX_NETWORK_ID = 1023
MAX_DEPTH_CODE = 16383
MAX_AZIMUTH_CD = 35999
MAX_ELEVATION_CD = 18000  # -90 deg .. +90 deg inclusive, 0.01 deg steps
MAX_FRAME_SEQ = 2**32 - 1


class FrameError(ValueError):
    """Malformed frame content or byte stream."""


class SlotStage(IntEnum):
    ASSIGN = 0
    CONFIRM = 1
    RELAY_RX = 2
    RELAY_TX = 3


class MovementMarker(IntEnum):
    NONE = 0
    DIVING = 1
    RISING = 2


# members bound once: on Python 3.10 and 3.11 every `SlotStage.X` or
# `MovementMarker.X` read goes through EnumType.__getattr__, about ten
# times the cost of a global
SLOT_ASSIGN = SlotStage.ASSIGN
SLOT_CONFIRM = SlotStage.CONFIRM
SLOT_RELAY_RX = SlotStage.RELAY_RX
SLOT_RELAY_TX = SlotStage.RELAY_TX
MARKER_NONE = MovementMarker.NONE
MARKER_DIVING = MovementMarker.DIVING
MARKER_RISING = MovementMarker.RISING


@dataclass(slots=True)
class SlotPayload:
    """One TDMA slot of the downward broadcast."""

    network_id: int
    depth_code: int
    azimuth_centideg: int
    elevation_centideg: int
    stage: SlotStage = SlotStage.ASSIGN
    conflict_flag: bool = False
    movement_marker: MovementMarker = MovementMarker.NONE
    reset_bit: int = 0
    partner_id: int = 0

    def validate(self) -> None:
        if not 0 <= self.network_id <= MAX_NETWORK_ID:
            raise FrameError(
                f"network_id {self.network_id} outside 0..{MAX_NETWORK_ID}")
        if not 0 <= self.depth_code <= MAX_DEPTH_CODE:
            raise FrameError(
                f"depth_code {self.depth_code} outside 0..{MAX_DEPTH_CODE}")
        if not 0 <= self.azimuth_centideg <= MAX_AZIMUTH_CD:
            raise FrameError(
                f"azimuth_centideg {self.azimuth_centideg} outside "
                f"0..{MAX_AZIMUTH_CD}")
        if not 0 <= self.elevation_centideg <= MAX_ELEVATION_CD:
            raise FrameError(
                f"elevation_centideg {self.elevation_centideg} outside "
                f"0..{MAX_ELEVATION_CD}")
        if not 0 <= self.partner_id <= MAX_NETWORK_ID:
            raise FrameError(
                f"partner_id {self.partner_id} outside 0..{MAX_NETWORK_ID}")
        if not 0 <= self.stage <= 3:
            raise FrameError(f"stage {self.stage} outside 0..3")
        if not 0 <= self.movement_marker <= 2:
            raise FrameError(
                f"movement_marker {self.movement_marker} outside 0..2")
        if self.reset_bit != 0 and self.reset_bit != 1:
            raise FrameError(f"reset_bit {self.reset_bit} not a bit")
        # receivers compare these by identity, so an equal int would never
        # match; decode always yields members
        if type(self.stage) is not SlotStage:
            raise FrameError(f"slot {self.network_id} stage {self.stage!r} "
                             f"is not a SlotStage member")
        if type(self.movement_marker) is not MovementMarker:
            raise FrameError(
                f"slot {self.network_id} movement_marker "
                f"{self.movement_marker!r} is not a MovementMarker member")
        if self.stage >= SLOT_RELAY_RX:
            if self.partner_id == 0:
                raise FrameError(
                    f"relay slot {self.network_id} without a partner_id")
            if self.partner_id == self.network_id:
                raise FrameError(
                    f"relay slot {self.network_id} naming itself as partner")
        elif self.partner_id != 0:
            raise FrameError(
                f"slot {self.network_id} stage {SlotStage(self.stage).name} "
                f"carries unused partner_id {self.partner_id}")


@dataclass(frozen=True)
class SuperFrame:
    """One broadcast cycle: a sequence counter plus ordered slots."""

    frame_seq: int
    slots: tuple[SlotPayload, ...] = field(default_factory=tuple)

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    def validate(self) -> None:
        if not 0 <= self.frame_seq <= MAX_FRAME_SEQ:
            raise FrameError(f"frame_seq {self.frame_seq} outside 32-bit range")
        if self.slot_count > 0xFFFF:
            raise FrameError(f"too many slots: {self.slot_count}")
        ids = set()
        for slot in self.slots:
            slot.validate()
            if slot.network_id in ids:
                raise FrameError(f"duplicate network_id {slot.network_id}")
            ids.add(slot.network_id)
        for slot in self.slots:
            if slot.stage in (SLOT_RELAY_RX, SLOT_RELAY_TX) \
                    and slot.partner_id not in ids:
                raise FrameError(
                    f"relay slot {slot.network_id} names absent partner "
                    f"{slot.partner_id}")


# Each 9-byte slot unpacks as four big-endian words: network_id:10 and the
# top 6 depth_code bits | the low 8 depth_code bits | azimuth:16 |
# elevation:15 stage:2 conflict:1 marker:2 reset:1 partner:10 pad:1
_SLOT = struct.Struct(">HBHI")
assert _SLOT.size == SLOT_NBYTES

# shift positions inside the last 32-bit word, counted from its LSB
_SH_ELEVATION = 17
_SH_STAGE = 15
_CONFLICT_BIT = 1 << 14
_SH_MARKER = 12
_SH_RESET = 11
_SH_PARTNER = 1

_STAGES = tuple(SlotStage)
_MARKERS = tuple(MovementMarker)


def _require_partners(relays: list[tuple[int, int]], ids: set[int]) -> None:
    for nid, partner in relays:
        if partner not in ids:
            raise FrameError(
                f"relay slot {nid} names absent partner {partner}")


def encode(frame: SuperFrame,
           packed: dict[int, tuple[SlotPayload, bytes]] | None = None,
           ) -> bytes:
    """Serialize a superframe to its normative byte layout.

    One pass packs every slot behind a single range-and-partner test;
    only a slot that fails it goes through `SlotPayload.validate`, which
    names the offending field.  A stage or marker must be an Enum member,
    as decode yields, not an equal int.

    `packed` maps a network ID to the slot last packed under it and that
    slot's bytes, and is updated as slots are packed.  A slot that is the
    very object stored for its ID reuses the bytes and skips the per-slot
    test, which it passed when it was packed: a caller that keeps the map
    across frames must never mutate a slot once it is encoded.  Every
    slot still goes through the frame-level checks: unique IDs, and a
    present partner for every relay slot.
    """
    frame_seq, slots = frame.frame_seq, frame.slots
    if not 0 <= frame_seq <= MAX_FRAME_SEQ:
        raise FrameError(f"frame_seq {frame_seq} outside 32-bit range")
    if len(slots) > 0xFFFF:
        raise FrameError(f"too many slots: {len(slots)}")
    if packed is None:
        packed = {}
    pack = _SLOT.pack
    parts = [frame_seq.to_bytes(4, "big"), len(slots).to_bytes(2, "big")]
    ids: set[int] = set()
    relays: list[tuple[int, int]] = []
    for slot in slots:
        nid = slot.network_id
        stage = slot.stage
        hit = packed.get(nid)
        if hit is not None and hit[0] is slot:
            parts.append(hit[1])
        else:
            depth = slot.depth_code
            az = slot.azimuth_centideg
            el = slot.elevation_centideg
            marker = slot.movement_marker
            reset = slot.reset_bit
            partner = slot.partner_id
            # a member's value is in range, so only the partner rule reads it
            if not (type(stage) is SlotStage
                    and type(marker) is MovementMarker
                    and 0 <= nid <= MAX_NETWORK_ID
                    and 0 <= depth <= MAX_DEPTH_CODE
                    and 0 <= az <= MAX_AZIMUTH_CD
                    and 0 <= el <= MAX_ELEVATION_CD
                    and (reset == 0 or reset == 1)
                    and (partner == 0 if stage <= 1
                         else 0 < partner <= MAX_NETWORK_ID
                         and partner != nid)):
                slot.validate()
            data = pack(
                (nid << 6) | (depth >> 8), depth & 0xFF, az,
                (el << _SH_ELEVATION) | (stage << _SH_STAGE)
                | (_CONFLICT_BIT if slot.conflict_flag else 0)
                | (marker << _SH_MARKER) | (reset << _SH_RESET)
                | (partner << _SH_PARTNER))
            packed[nid] = slot, data
            parts.append(data)
        if nid in ids:
            raise FrameError(f"duplicate network_id {nid}")
        ids.add(nid)
        if stage >= 2:
            relays.append((nid, slot.partner_id))
    _require_partners(relays, ids)
    return b"".join(parts)


def decode(data: bytes) -> SuperFrame:
    """Parse bytes back into a superframe; exact inverse of encode.

    One pass reads each slot and checks only what the bit widths leave
    open: the azimuth, elevation and marker ranges, the pad bit, the
    relay-partner rules, unique IDs and present partners.
    """
    if len(data) < HEADER_NBYTES:
        raise FrameError(f"truncated frame: {len(data)} bytes, need at least "
                         f"{HEADER_NBYTES}")
    frame_seq = int.from_bytes(data[0:4], "big")
    slot_count = int.from_bytes(data[4:6], "big")
    expected = HEADER_NBYTES + SLOT_NBYTES * slot_count
    if len(data) < expected:
        raise FrameError(f"truncated frame: {len(data)} bytes, "
                         f"{slot_count} slots need {expected}")
    if len(data) > expected:
        raise FrameError(f"trailing bytes: {len(data) - expected} after "
                         f"{slot_count} slots")
    stages, markers = _STAGES, _MARKERS
    slots: list[SlotPayload] = []
    ids: set[int] = set()
    relays: list[tuple[int, int]] = []
    for hi, mid, az, lo in _SLOT.iter_unpack(data[HEADER_NBYTES:]):
        nid = hi >> 6
        el = lo >> _SH_ELEVATION
        stage = (lo >> _SH_STAGE) & 0x3
        marker = (lo >> _SH_MARKER) & 0x3
        partner = (lo >> _SH_PARTNER) & 0x3FF
        if lo & 1:
            raise FrameError("nonzero padding bits in slot")
        if marker == 3:
            raise FrameError("movement_marker 3 has no meaning")
        slot = SlotPayload(
            nid, ((hi & 0x3F) << 8) | mid, az, el, stages[stage],
            lo & _CONFLICT_BIT != 0, markers[marker],
            (lo >> _SH_RESET) & 0x1, partner)
        if not (az <= MAX_AZIMUTH_CD and el <= MAX_ELEVATION_CD
                and (partner == 0 if stage < 2
                     else partner != 0 and partner != nid)):
            slot.validate()  # raises, naming the field at fault
        if nid in ids:
            raise FrameError(f"duplicate network_id {nid}")
        ids.add(nid)
        if stage >= 2:
            relays.append((nid, partner))
        slots.append(slot)
    _require_partners(relays, ids)
    return SuperFrame(frame_seq, tuple(slots))


class FrameIndex:
    """Per-frame lookup tables so receivers match slots in O(1).

    `by_id` maps network_id to its slot; `assign_by_code` groups the
    depth-matchable (ASSIGN stage) slots by depth code.
    """

    __slots__ = ("frame", "by_id", "assign_by_code")

    def __init__(self, frame: SuperFrame) -> None:
        self.frame = frame
        self.by_id: dict[int, SlotPayload] = {}
        self.assign_by_code: dict[int, list[SlotPayload]] = {}
        for slot in frame.slots:
            self.by_id[slot.network_id] = slot
            if slot.stage == SLOT_ASSIGN:
                self.assign_by_code.setdefault(slot.depth_code, []).append(slot)
