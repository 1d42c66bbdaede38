import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import uwoan
from uwoan.frame import (
    HEADER_NBYTES,
    MAX_NETWORK_ID,
    SLOT_NBYTES,
    FrameError,
    FrameIndex,
    MovementMarker,
    SlotPayload,
    SlotStage,
    SuperFrame,
    decode,
    encode,
)

VECTORS = json.loads((Path(__file__).parent / "data" / "frame_vectors.json").read_text())


def slot_from_vector(d):
    return SlotPayload(
        network_id=d["network_id"], depth_code=d["depth_code"],
        azimuth_centideg=d["az"], elevation_centideg=d["el"],
        stage=SlotStage(d["stage"]), conflict_flag=bool(d["conflict"]),
        movement_marker=MovementMarker(d["marker"]), reset_bit=d["reset"],
        partner_id=d["partner"])


def frame_from_vector(d):
    return SuperFrame(d["frame_seq"], tuple(slot_from_vector(s) for s in d["slots"]))


def random_slot(rng, network_id, partner_ids=()):
    if partner_ids and rng.random() < 0.25:
        stage = rng.choice((SlotStage.RELAY_RX, SlotStage.RELAY_TX))
        partner = rng.choice(partner_ids)
    else:
        stage = rng.choice((SlotStage.ASSIGN, SlotStage.CONFIRM))
        partner = 0
    return SlotPayload(
        network_id=network_id,
        depth_code=rng.randint(0, 16383),
        azimuth_centideg=rng.randint(0, 35999),
        elevation_centideg=rng.randint(0, 18000),
        stage=stage,
        conflict_flag=rng.random() < 0.3,
        movement_marker=MovementMarker(rng.randint(0, 2)),
        reset_bit=rng.randint(0, 1),
        partner_id=partner)


def random_frame(rng, max_slots=8):
    n = rng.randint(0, max_slots)
    ids = rng.sample(range(1, 1024), n)
    slots = tuple(random_slot(rng, nid, [p for p in ids if p != nid])
                  for nid in ids)
    return SuperFrame(rng.randint(0, 2**32 - 1), slots)


def pack_slot(nid, code=0, az=0, el=0, stage=0, conflict=0, marker=0,
              reset=0, partner=0, pad=0):
    """Pack one slot from a bit string, independently of the codec."""
    bits = (f"{nid:010b}{code:014b}{az:016b}{el:015b}{stage:02b}"
            f"{conflict:01b}{marker:02b}{reset:01b}{partner:010b}{pad:01b}")
    assert len(bits) == SLOT_NBYTES * 8
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


def raw_frame(*slots, frame_seq=1):
    return (frame_seq.to_bytes(4, "big") + len(slots).to_bytes(2, "big")
            + b"".join(slots))


def reference_validate(frame):
    """The wire rules checked field by field, independent of the codec."""
    if not 0 <= frame.frame_seq <= 2**32 - 1:
        raise FrameError(f"frame_seq {frame.frame_seq} outside 32-bit range")
    if frame.slot_count > 0xFFFF:
        raise FrameError(f"too many slots: {frame.slot_count}")
    ids = set()
    for slot in frame.slots:
        slot.validate()
        if slot.network_id in ids:
            raise FrameError(f"duplicate network_id {slot.network_id}")
        ids.add(slot.network_id)
    for slot in frame.slots:
        if slot.stage in (SlotStage.RELAY_RX, SlotStage.RELAY_TX) \
                and slot.partner_id not in ids:
            raise FrameError(
                f"relay slot {slot.network_id} names absent partner "
                f"{slot.partner_id}")


def reference_decode(data):
    """Bit-string parse plus `reference_validate`, independent of decode."""
    if len(data) < HEADER_NBYTES or \
            (len(data) - HEADER_NBYTES) % SLOT_NBYTES \
            or int.from_bytes(data[4:6], "big") \
            != (len(data) - HEADER_NBYTES) // SLOT_NBYTES:
        raise FrameError("length")
    bits = "".join(f"{b:08b}" for b in data[HEADER_NBYTES:])
    slots = []
    for i in range(0, len(bits), SLOT_NBYTES * 8):
        f = [int(bits[i + a:i + b], 2) for a, b in (
            (0, 10), (10, 24), (24, 40), (40, 55), (55, 57), (57, 58),
            (58, 60), (60, 61), (61, 71), (71, 72))]
        if f[9] or f[6] == 3:
            raise FrameError("padding or marker")
        slots.append(SlotPayload(f[0], f[1], f[2], f[3], SlotStage(f[4]),
                                 bool(f[5]), MovementMarker(f[6]), f[7], f[8]))
    frame = SuperFrame(int.from_bytes(data[:4], "big"), tuple(slots))
    reference_validate(frame)
    return frame


class TestGoldenVectors:
    @pytest.mark.parametrize("vec", VECTORS, ids=[v["name"] for v in VECTORS])
    def test_encode_matches(self, vec):
        assert encode(frame_from_vector(vec["frame"])).hex() == vec["hex"]

    @pytest.mark.parametrize("vec", VECTORS, ids=[v["name"] for v in VECTORS])
    def test_decode_matches(self, vec):
        assert decode(bytes.fromhex(vec["hex"])) == frame_from_vector(vec["frame"])


class TestRoundTrip:
    def test_golden_round_trips(self):
        for vec in VECTORS:
            f = frame_from_vector(vec["frame"])
            assert decode(encode(f)) == f

    def test_randomized_round_trip_10k(self):
        rng = random.Random(0xF0A)
        for _ in range(10_000):
            f = random_frame(rng)
            data = encode(f)
            assert len(data) == HEADER_NBYTES + SLOT_NBYTES * f.slot_count
            assert decode(data) == f


class TestLengthLaw:
    def test_encoding_length(self):
        rng = random.Random(5)
        for n in (0, 1, 2, 7, 50, 200):
            ids = rng.sample(range(1, 1024), n)
            f = SuperFrame(3, tuple(
                SlotPayload(i, 0, 0, 0) for i in ids))
            assert len(encode(f)) == 6 + 9 * n


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(FrameError, match="truncated"):
            decode(b"\x00\x00\x00\x00\x00")

    def test_truncated_slot(self):
        good = encode(SuperFrame(1, (SlotPayload(1, 0, 0, 0),)))
        with pytest.raises(FrameError, match="truncated"):
            decode(good[:-1])

    def test_trailing_bytes(self):
        good = encode(SuperFrame(1, (SlotPayload(1, 0, 0, 0),)))
        with pytest.raises(FrameError, match="trailing"):
            decode(good + b"\x00")

    def test_duplicate_ids_rejected_on_encode(self):
        f = SuperFrame(1, (SlotPayload(9, 0, 0, 0), SlotPayload(9, 1, 0, 0)))
        with pytest.raises(FrameError, match="duplicate"):
            encode(f)

    def test_duplicate_ids_rejected_on_decode(self):
        # construct the byte stream with an independent packer
        with pytest.raises(FrameError, match="duplicate"):
            decode(raw_frame(pack_slot(9, 0), pack_slot(9, 1)))

    @pytest.mark.parametrize("slots,match", [
        ([pack_slot(1, az=36000)], "azimuth_centideg 36000"),
        ([pack_slot(1, az=65535)], "azimuth_centideg 65535"),
        ([pack_slot(1, el=18001)], "elevation_centideg 18001"),
        ([pack_slot(1, el=32767)], "elevation_centideg 32767"),
        ([pack_slot(1, marker=3)], "movement_marker 3"),
        ([pack_slot(5, stage=2)], "without a partner"),
        ([pack_slot(5, stage=3, partner=5)], "naming itself"),
        ([pack_slot(5, stage=3, partner=9)], "absent partner 9"),
        ([pack_slot(5, stage=2, partner=9), pack_slot(8)], "absent partner 9"),
        ([pack_slot(5, partner=3)], "unused partner_id 3"),
        ([pack_slot(5, stage=1, partner=3)], "unused partner_id 3"),
    ], ids=["az36000", "az65535", "el18001", "el32767", "marker3",
            "relay_partner0", "relay_self", "absent_partner",
            "absent_partner_among_others", "assign_unused_partner",
            "confirm_unused_partner"])
    def test_invalid_slot_rejected_on_decode(self, slots, match):
        with pytest.raises(FrameError, match=match):
            decode(raw_frame(*slots))

    def test_field_out_of_range(self):
        with pytest.raises(FrameError, match="azimuth"):
            encode(SuperFrame(1, (SlotPayload(1, 0, 36000, 0),)))
        with pytest.raises(FrameError, match="elevation"):
            encode(SuperFrame(1, (SlotPayload(1, 0, 0, 18001),)))
        with pytest.raises(FrameError, match="network_id"):
            encode(SuperFrame(1, (SlotPayload(1024, 0, 0, 0),)))
        with pytest.raises(FrameError, match="frame_seq"):
            encode(SuperFrame(2**32, ()))

    def test_relay_slot_needs_existing_partner(self):
        lone = SlotPayload(5, 0, 0, 0, stage=SlotStage.RELAY_TX, partner_id=9)
        with pytest.raises(FrameError, match="absent partner"):
            encode(SuperFrame(1, (lone,)))

    def test_relay_slot_needs_nonzero_partner(self):
        with pytest.raises(FrameError, match="without a partner"):
            SlotPayload(5, 0, 0, 0, stage=SlotStage.RELAY_RX).validate()

    def test_partner_forbidden_when_unused(self):
        with pytest.raises(FrameError, match="unused partner"):
            SlotPayload(5, 0, 0, 0, partner_id=3).validate()

    def test_plain_int_stage_or_marker_rejected(self):
        # equal to a CONFIRM for ID 3, but receivers compare stages and
        # markers by identity, so only members may go on the wire
        plain = SlotPayload(3, 10, 0, 9000, 1)
        assert plain == SlotPayload(3, 10, 0, 9000, SlotStage.CONFIRM)
        with pytest.raises(FrameError,
                           match="slot 3 stage 1 is not a SlotStage member"):
            encode(SuperFrame(1, (plain,)))
        with pytest.raises(FrameError, match="slot 3 movement_marker 2 is "
                                             "not a MovementMarker member"):
            encode(SuperFrame(1, (SlotPayload(3, 10, 0, 9000,
                                              movement_marker=2),)))

    def test_nonzero_padding_rejected(self):
        raw = bytearray(encode(SuperFrame(1, (SlotPayload(1, 0, 0, 0),))))
        raw[-1] |= 0x01  # set the pad bit
        with pytest.raises(FrameError, match="padding"):
            decode(bytes(raw))


class TestDifferential:
    def test_encode_raises_exactly_when_validate_does(self):
        # fields straddle their ranges; ids and partners share a small pool
        # so duplicates, self-partners and absent partners all occur
        rng = random.Random(0xD1FF)
        limits = (MAX_NETWORK_ID, 16383, 35999, 18000)
        raised = 0
        for _ in range(20_000):
            slots = []
            for _ in range(rng.randint(0, 4)):
                nid, code, az, el = (
                    rng.choice((rng.randint(-2, 6), rng.randint(0, hi),
                                rng.randint(hi - 2, hi + 2)))
                    for hi in limits)
                # members, or ints just outside their ranges
                slots.append(SlotPayload(
                    nid, code, az, el, rng.choice((-1, *SlotStage, 4)),
                    rng.random() < 0.5, rng.choice((-1, *MovementMarker, 3)),
                    rng.randint(-1, 2),
                    rng.choice((0, rng.randint(-2, 6),
                                rng.randint(1021, 1025)))))
            frame = SuperFrame(rng.choice((0, 2**32 - 1, 2**32, -1)),
                               tuple(slots))
            try:
                reference_validate(frame)
            except FrameError as expected:
                raised += 1
                # the one-pass check names the same fault as the reference
                for check in (frame.validate, lambda: encode(frame)):
                    with pytest.raises(FrameError) as got:
                        check()
                    assert str(got.value) == str(expected)
            else:
                frame.validate()
                assert decode(encode(frame)) == frame
        assert 0.2 < raised / 20_000 < 0.9  # both outcomes well covered

    def test_bit_flips_decode_or_raise_frame_error(self):
        rng = random.Random(0xB17)
        rejected = 0
        for _ in range(5_000):
            raw = bytearray(encode(random_frame(rng)))
            for _ in range(rng.randint(1, 3)):
                bit = rng.randrange(len(raw) * 8)
                raw[bit // 8] ^= 0x80 >> (bit % 8)
            data = bytes(raw)
            try:
                frame = decode(data)
            except FrameError:
                rejected += 1
                with pytest.raises(FrameError):
                    reference_decode(data)
            else:
                assert encode(frame) == data
                assert reference_decode(data) == frame
        assert 0.1 < rejected / 5_000 < 0.9


class TestValidate:
    """`SuperFrame.validate`, the check the run loop makes on each frame sent.

    The base station reuses slot objects from frame to frame, so the
    frame-level rules must hold for a frame built from slots that passed
    before.  The one-pass range test must accept each field's top value
    and reject one past either end, naming the field.
    """

    @pytest.mark.parametrize("vec", VECTORS, ids=[v["name"] for v in VECTORS])
    def test_nbytes_is_the_wire_length(self, vec):
        frame = frame_from_vector(vec["frame"])
        frame.validate()
        assert frame.nbytes == len(encode(frame)) == len(vec["hex"]) // 2

    @pytest.mark.parametrize("name,top", [
        ("network_id", 1023),
        ("depth_code", 16383),
        ("azimuth_centideg", 35999),
        ("elevation_centideg", 18000),
        ("reset_bit", 1),
    ])
    def test_field_bounds(self, name, top):
        base = SlotPayload(1, 0, 0, 0)
        SuperFrame(1, (dataclasses.replace(base, **{name: top}),)).validate()
        for bad in (top + 1, -1):
            frame = SuperFrame(1, (dataclasses.replace(base, **{name: bad}),))
            with pytest.raises(FrameError, match=f"^{name} {bad} "):
                frame.validate()

    def test_relay_partner_bounds(self):
        top = SlotPayload(1023, 0, 0, 0)
        SuperFrame(1, (SlotPayload(5, 0, 0, 0, SlotStage.RELAY_RX,
                                   partner_id=1023), top)).validate()
        for bad in (1024, -1):
            rx = SlotPayload(5, 0, 0, 0, SlotStage.RELAY_RX, partner_id=bad)
            with pytest.raises(FrameError, match=f"^partner_id {bad} "):
                SuperFrame(1, (rx, top)).validate()

    def test_repeated_slot_object_rejected(self):
        slot = SlotPayload(4, 10, 0, 9000)
        SuperFrame(1, (slot,)).validate()
        with pytest.raises(FrameError, match="duplicate network_id 4"):
            SuperFrame(2, (slot, slot)).validate()
        with pytest.raises(FrameError, match="duplicate network_id 4"):
            SuperFrame(3, (SlotPayload(4, 11, 0, 9000), slot)).validate()

    def test_partner_dropped_from_a_later_frame_rejected(self):
        rx = SlotPayload(5, 0, 0, 0, stage=SlotStage.RELAY_RX, partner_id=9)
        tx = SlotPayload(9, 0, 0, 0, stage=SlotStage.RELAY_TX, partner_id=5)
        SuperFrame(1, (rx, tx)).validate()
        with pytest.raises(FrameError,
                           match="relay slot 5 names absent partner 9"):
            SuperFrame(2, (rx,)).validate()
        with pytest.raises(FrameError,
                           match="relay slot 9 names absent partner 5"):
            SuperFrame(3, (tx, SlotPayload(7, 0, 0, 0))).validate()


class TestOptimizedInterpreter:
    def test_codec_checks_survive_dash_o(self):
        # the codec's checks are explicit raises, not asserts, so they hold
        # under `python -O` too
        script = """
import sys
from uwoan.frame import FrameError, SlotPayload, SuperFrame, decode, encode
from uwoan.frame import SlotStage
if __debug__:
    sys.exit("asserts are on")
cases = [
    lambda: encode(SuperFrame(1, (SlotPayload(1, 0, 36000, 0),))),
    lambda: encode(SuperFrame(1, (SlotPayload(1, 0, 0, 0),
                                  SlotPayload(1, 0, 0, 0)))),
    lambda: encode(SuperFrame(1, (SlotPayload(3, 10, 0, 9000, 1),))),
    lambda: encode(SuperFrame(1, (SlotPayload(3, 10, 0, 9000,
                                              movement_marker=2),))),
    lambda: decode(bytes.fromhex("00000001" "0001" "0000008ca0" "00000000")),
    lambda: decode(bytes.fromhex("00000001" "0001" "0040000000" "00000001")),
    lambda: SuperFrame(1, (SlotPayload(1, 16384, 0, 0),)).validate(),
    lambda: SuperFrame(1, (SlotPayload(1, 0, 0, 0),
                           SlotPayload(1, 0, 0, 0))).validate(),
    lambda: SuperFrame(1, (SlotPayload(3, 10, 0, 9000, 1),)).validate(),
    lambda: SuperFrame(1, (SlotPayload(3, 10, 0, 9000,
                                       reset_bit=2),)).validate(),
    lambda: SuperFrame(1, (SlotPayload(3, 0, 0, 0, SlotStage.RELAY_RX,
                                       partner_id=9),)).validate(),
    lambda: SuperFrame(1, (SlotPayload(3, 0, 0, 0, SlotStage.RELAY_TX),
                           )).validate(),
    lambda: SuperFrame(2**32, ()).validate(),
]
for case in cases:
    try:
        case()
    except FrameError:
        continue
    sys.exit("no FrameError")
print("ok")
"""
        src = Path(uwoan.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


class TestFrameIndex:
    def test_lookup_tables(self):
        slots = (
            SlotPayload(1, 100, 0, 9000),
            SlotPayload(2, 100, 0, 9000, conflict_flag=True),
            SlotPayload(3, 55, 0, 9000, stage=SlotStage.CONFIRM),
        )
        idx = FrameIndex(SuperFrame(1, slots))
        assert idx.by_id[3].stage == SlotStage.CONFIRM
        assert [s.network_id for s in idx.assign_by_code[100]] == [1, 2]
        assert 55 not in idx.assign_by_code  # CONFIRM slots are not depth-matchable
