"""The contract of the five per-event value types.

`Position`, `Bearing`, `Detection`, `Emission` and `RelayDuty` are
immutable tuples with named fields; a depth code is a plain int.  `Position` and
`Bearing` validate on every construction path.  Their reprs are those of
the frozen dataclasses they replaced.
"""

import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from uwoan.base_station import Detection
from uwoan.geometry import Bearing, GeometryError, Position
from uwoan.node import Emission, RelayDuty

SRC = Path(__file__).resolve().parent.parent / "src"

P = Position(1.5, -2.0, 3.25)
B = Bearing(45.0, -10.5)


def make_all():
    """One instance of each type, built from fresh objects every call."""
    p = Position(1.5, -2.0, 3.25)
    b = Bearing(45.0, -10.5)
    return [p, b, Detection(3, p, 7), Emission(b, 4), RelayDuty(2, b)]


class TestValidation:
    @pytest.mark.parametrize("args,message", [
        ((math.nan, 0.0, 0.0), "non-finite position (nan, 0.0, 0.0)"),
        ((0.0, math.inf, 0.0), "non-finite position (0.0, inf, 0.0)"),
        ((0.0, 0.0, -math.inf), "non-finite position (0.0, 0.0, -inf)"),
        ((0.0, 0.0, math.nan), "non-finite position (0.0, 0.0, nan)"),
        ((0.0, 0.0, -1.0), "negative depth -1.0"),
        ((0.0, 0.0, -1e-300), "negative depth -1e-300"),
    ])
    def test_position_rejects(self, args, message):
        with pytest.raises(GeometryError) as info:
            Position(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("args,message", [
        ((math.nan, 0.0), "non-finite bearing"),
        ((0.0, math.inf), "non-finite bearing"),
        ((-0.1, 0.0), "azimuth -0.1 outside [0, 360)"),
        ((360.0, 0.0), "azimuth 360.0 outside [0, 360)"),
        ((10.0, 90.5), "elevation 90.5 outside [-90, 90]"),
        ((10.0, -90.5), "elevation -90.5 outside [-90, 90]"),
        # the azimuth range is checked before the vertical canonicalization
        ((360.0, 90.0), "azimuth 360.0 outside [0, 360)"),
    ])
    def test_bearing_rejects(self, args, message):
        with pytest.raises(GeometryError) as info:
            Bearing(*args)
        assert str(info.value) == message

    def test_boundaries_accepted(self):
        assert Position(0.0, 0.0, 0.0).depth == 0.0
        assert Position(-5.0, -5.0, -0.0).depth == 0.0
        assert Bearing(0.0, -90.0) == (0.0, -90.0)
        assert Bearing(359.999, 0.0).azimuth == 359.999

    @pytest.mark.parametrize("elevation", [90.0, -90.0])
    def test_bearing_canonical_azimuth_when_vertical(self, elevation):
        for azimuth in (0.0, 1e-9, 123.0, 359.99):
            b = Bearing(azimuth, elevation)
            assert b.azimuth == 0.0 and b.elevation == elevation
            assert b == Bearing(0.0, elevation)
            assert hash(b) == hash(Bearing(0.0, elevation))
        assert Bearing(123.0, math.nextafter(elevation, 0.0)).azimuth == 123.0

    def test_keywords(self):
        assert Position(east=1.0, north=2.0, depth=3.0) == Position(1, 2, 3)
        assert Bearing(azimuth=10.0, elevation=90.0).azimuth == 0.0
        with pytest.raises(GeometryError):
            Position(east=0.0, north=0.0, depth=-1.0)

    def test_replace_and_make_validate(self):
        assert P._replace(depth=9.0) == Position(1.5, -2.0, 9.0)
        assert type(P._replace(depth=9.0)) is Position
        with pytest.raises(GeometryError, match="negative depth"):
            P._replace(depth=-1.0)
        with pytest.raises(GeometryError, match="azimuth 400"):
            B._replace(azimuth=400.0)
        assert B._replace(elevation=90.0) == (0.0, 90.0)
        with pytest.raises(GeometryError, match="non-finite position"):
            Position._make([0.0, math.nan, 0.0])

    def test_validation_survives_dash_o(self):
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "assert False, 'asserts are on'\n")
        # the first run proves -O strips asserts, the second that the
        # value types still validate there
        probe = subprocess.run([sys.executable, "-O", "-c", code],
                               capture_output=True, text=True)
        assert probe.returncode == 0, probe.stderr
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from uwoan.geometry import Bearing, GeometryError, Position\n"
            "caught = []\n"
            "for make in (lambda: Position(0.0, 0.0, -1.0),\n"
            "             lambda: Position(float('nan'), 0.0, 0.0),\n"
            "             lambda: Bearing(360.0, 0.0),\n"
            "             lambda: Bearing(0.0, 91.0)):\n"
            "    try:\n"
            "        make()\n"
            "    except GeometryError as exc:\n"
            "        caught.append(str(exc))\n"
            "print('|'.join(caught))\n")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().split("|") == [
            "negative depth -1.0", "non-finite position (nan, 0.0, 0.0)",
            "azimuth 360.0 outside [0, 360)", "elevation 91.0 outside [-90, 90]"]


class TestValueSemantics:
    def test_equal_and_hash_by_value(self):
        for a, b in zip(make_all(), make_all()):
            assert a is not b
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1

    def test_unequal_values_differ(self):
        assert Position(1.5, -2.0, 3.25) != Position(1.5, -2.0, 3.5)
        assert Bearing(45.0, -10.5) != Bearing(45.0, -10.0)
        assert Detection(3, P, 7) != Detection(4, P, 7)
        assert Detection(3, P, 7) != Detection(3, P, 8)
        assert Emission(B, 4) != Emission(B, 4, relayed=True)
        assert RelayDuty(2, B) != RelayDuty(2, Bearing(45.0, 0.0))

    def test_field_names_order_and_defaults(self):
        assert Position._fields == ("east", "north", "depth")
        assert Bearing._fields == ("azimuth", "elevation")
        assert Detection._fields == ("track_key", "position", "depth_code")
        assert Emission._fields == ("bearing", "claimed_id", "relayed")
        assert RelayDuty._fields == ("partner_id", "receiver_bearing")
        assert Emission(B, 4).relayed is False

    @pytest.mark.parametrize("index", range(5))
    def test_immutable(self, index):
        value = make_all()[index]
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")

    def test_reprs_match_the_former_dataclasses(self):
        assert [repr(v) for v in make_all()] == [
            "Position(east=1.5, north=-2.0, depth=3.25)",
            "Bearing(azimuth=45.0, elevation=-10.5)",
            "Detection(track_key=3, position=Position(east=1.5, north=-2.0, "
            "depth=3.25), depth_code=7)",
            "Emission(bearing=Bearing(azimuth=45.0, elevation=-10.5), "
            "claimed_id=4, relayed=False)",
            "RelayDuty(partner_id=2, receiver_bearing=Bearing(azimuth=45.0, "
            "elevation=-10.5))",
        ]
        assert repr(Bearing(123.0, 90.0)) \
            == "Bearing(azimuth=0.0, elevation=90.0)"

    def test_tuple_consequences(self):
        # deliberate: instances are tuples, so they equal plain tuples of
        # the same values and unpack; nothing relies on the opposite
        assert Position(1.0, 2.0, 3.0) == (1.0, 2.0, 3.0)
        assert Emission(B, 4) == (B, 4, False)
        east, north, depth = P
        assert (east, north, depth) == (1.5, -2.0, 3.25)
        assert isinstance(P, tuple) and len(B) == 2


class TestPickle:
    def test_round_trip_keeps_type_and_value(self):
        for value in make_all():
            again = pickle.loads(pickle.dumps(value))
            assert again == value and type(again) is type(value)

    def test_load_revalidates(self):
        # build invalid instances behind the constructor's back: loading
        # them must go through the validating constructor again
        bad_position = tuple.__new__(Position, (0.0, 0.0, -1.0))
        bad_bearing = tuple.__new__(Bearing, (10.0, 95.0))
        with pytest.raises(GeometryError, match="negative depth -1.0"):
            pickle.loads(pickle.dumps(bad_position))
        with pytest.raises(GeometryError, match="elevation 95.0"):
            pickle.loads(pickle.dumps(bad_bearing))

    def test_load_recanonicalizes(self):
        raw = tuple.__new__(Bearing, (77.0, -90.0))
        assert pickle.loads(pickle.dumps(raw)).azimuth == 0.0
