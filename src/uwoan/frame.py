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
partner slot present in the same frame.  `SuperFrame.validate` states
these rules once; `encode` and `decode` both go through it.
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

    @property
    def nbytes(self) -> int:
        """Length of the frame on the wire."""
        return HEADER_NBYTES + SLOT_NBYTES * len(self.slots)

    def validate(self) -> None:
        """Raise FrameError unless the frame obeys every wire rule.

        The codec's one statement of its rules: `encode` checks a frame with
        it before packing, and `decode` after parsing.  One pass puts every
        slot through a single range, type and partner test; only a slot
        that fails it goes through `SlotPayload.validate`, which names the
        field at fault.  A stage or marker must be an Enum member, as
        decode yields, not an equal int.  Network IDs are unique, and every
        relay slot names a partner present in the same frame.
        """
        frame_seq, slots = self.frame_seq, self.slots
        if not 0 <= frame_seq <= MAX_FRAME_SEQ:
            raise FrameError(f"frame_seq {frame_seq} outside 32-bit range")
        if len(slots) > 0xFFFF:
            raise FrameError(f"too many slots: {len(slots)}")
        ids: set[int] = set()
        relays: list[SlotPayload] = []
        for slot in slots:
            nid = slot.network_id
            stage = slot.stage
            partner = slot.partner_id
            reset = slot.reset_bit
            # a member's value is in range, so only the partner rule reads it
            if not (type(stage) is SlotStage
                    and type(slot.movement_marker) is MovementMarker
                    and 0 <= nid <= MAX_NETWORK_ID
                    and 0 <= slot.depth_code <= MAX_DEPTH_CODE
                    and 0 <= slot.azimuth_centideg <= MAX_AZIMUTH_CD
                    and 0 <= slot.elevation_centideg <= MAX_ELEVATION_CD
                    and (reset == 0 or reset == 1)
                    and (partner == 0 if stage <= 1
                         else 0 < partner <= MAX_NETWORK_ID
                         and partner != nid)):
                slot.validate()  # raises, naming the field at fault
            if nid in ids:
                raise FrameError(f"duplicate network_id {nid}")
            ids.add(nid)
            if stage >= 2:
                relays.append(slot)
        for slot in relays:
            if slot.partner_id not in ids:
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


def encode(frame: SuperFrame) -> bytes:
    """Serialize a superframe to its normative byte layout.

    `SuperFrame.validate` checks the frame first, so packing trusts every
    field.
    """
    frame.validate()
    pack = _SLOT.pack
    parts = [frame.frame_seq.to_bytes(4, "big"),
             len(frame.slots).to_bytes(2, "big")]
    for slot in frame.slots:
        depth = slot.depth_code
        parts.append(pack(
            (slot.network_id << 6) | (depth >> 8), depth & 0xFF,
            slot.azimuth_centideg,
            (slot.elevation_centideg << _SH_ELEVATION)
            | (slot.stage << _SH_STAGE)
            | (_CONFLICT_BIT if slot.conflict_flag else 0)
            | (slot.movement_marker << _SH_MARKER)
            | (slot.reset_bit << _SH_RESET)
            | (slot.partner_id << _SH_PARTNER)))
    return b"".join(parts)


def decode(data: bytes) -> SuperFrame:
    """Parse bytes back into a superframe; exact inverse of encode.

    Only what the wire alone can break is checked here: the lengths, the
    pad bit and movement marker 3, which names no member.  The frame then
    goes through `SuperFrame.validate`.
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
    for hi, mid, az, lo in _SLOT.iter_unpack(data[HEADER_NBYTES:]):
        marker = (lo >> _SH_MARKER) & 0x3
        if lo & 1:
            raise FrameError("nonzero padding bits in slot")
        if marker == 3:
            raise FrameError("movement_marker 3 has no meaning")
        slots.append(SlotPayload(
            hi >> 6, ((hi & 0x3F) << 8) | mid, az, lo >> _SH_ELEVATION,
            stages[(lo >> _SH_STAGE) & 0x3], lo & _CONFLICT_BIT != 0,
            markers[marker], (lo >> _SH_RESET) & 0x1,
            (lo >> _SH_PARTNER) & 0x3FF))
    frame = SuperFrame(frame_seq, tuple(slots))
    frame.validate()
    return frame


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
