"""Reference frames, bearings, and depth quantization.

The horizontal frame is east/north with north aligned to geomagnetic
north; the vertical axis is depth in meters, increasing downward from
the water surface (depth 0).  A bearing is an (azimuth, elevation) pair
in degrees: azimuth clockwise from north in [0, 360), elevation in
[-90, +90] with positive values pointing toward the surface.  At
elevation +-90 the azimuth is canonically 0.

Depth quantization models a sounder whose resolution degrades linearly
with depth, delta(z) = delta0 + kappa*z.  Bucket boundaries are spaced
one local resolution apart, i.e. bucket(z) = floor(integral_0^z dz'/delta(z')),
so two depths share a bucket exactly when the sounder cannot tell them
apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, NamedTuple

__all__ = [
    "GeometryError",
    "Position",
    "Bearing",
    "DepthModel",
    "distance",
    "bearing_angles",
    "bearing_from_to",
    "unit_vector",
    "angle_between",
]


class GeometryError(ValueError):
    """Degenerate or out-of-domain geometric input."""


# the value types below are tuples: construction and == run in C, and the
# validating subclasses build their instance with one tuple.__new__ call
_tuple_new = tuple.__new__


class _PositionFields(NamedTuple):
    east: float
    north: float
    depth: float


class Position(_PositionFields):
    """A point in the east/north/depth frame, meters. Depth grows downward.

    An immutable tuple of (east, north, depth), validated on construction.
    """

    __slots__ = ()

    def __new__(cls, east: float, north: float, depth: float) -> Position:
        if not (isfinite(east) and isfinite(north) and isfinite(depth)):
            raise GeometryError(
                f"non-finite position ({east}, {north}, {depth})")
        if depth < 0.0:
            raise GeometryError(f"negative depth {depth}")
        return _tuple_new(cls, (east, north, depth))

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> Position:
        return cls(*iterable)  # so _replace validates too


class _BearingFields(NamedTuple):
    azimuth: float
    elevation: float


class Bearing(_BearingFields):
    """An emission/reception direction: azimuth and elevation in degrees.

    Azimuth is measured clockwise from geomagnetic north in [0, 360);
    elevation in [-90, +90], positive toward the surface.  Vertical
    bearings (elevation +-90) carry the canonical azimuth 0.  An
    immutable tuple of (azimuth, elevation), validated on construction.
    """

    __slots__ = ()

    def __new__(cls, azimuth: float, elevation: float) -> Bearing:
        if not (isfinite(azimuth) and isfinite(elevation)):
            raise GeometryError("non-finite bearing")
        if not 0.0 <= azimuth < 360.0:
            raise GeometryError(f"azimuth {azimuth} outside [0, 360)")
        if not -90.0 <= elevation <= 90.0:
            raise GeometryError(f"elevation {elevation} outside [-90, 90]")
        if abs(elevation) == 90.0 and azimuth != 0.0:
            azimuth = 0.0
        return _tuple_new(cls, (azimuth, elevation))

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> Bearing:
        return cls(*iterable)  # so _replace validates too


@dataclass(frozen=True)
class DepthModel:
    """Linear depth-sounding resolution delta(z) = delta0 + kappa*z."""

    delta0: float = 0.5
    kappa: float = 0.005

    def __post_init__(self) -> None:
        if self.delta0 <= 0.0:
            raise GeometryError(f"delta0 must be positive, got {self.delta0}")
        if self.kappa < 0.0:
            raise GeometryError(f"kappa must be non-negative, got {self.kappa}")

    def resolution(self, depth: float) -> float:
        return self.delta0 + self.kappa * depth

    def bucket(self, depth: float) -> int:
        """Depth code of a depth: its bucket index, non-decreasing in depth.

        Two depths share a code exactly when they are closer than the
        local sounding resolution can tell apart.
        """
        if depth < 0.0:
            raise GeometryError(f"negative depth {depth}")
        if self.kappa == 0.0:
            return int(depth / self.delta0)
        # closed form of integral_0^z dz'/(delta0 + kappa z')
        return int(math.log1p(self.kappa * depth / self.delta0) / self.kappa)


def distance(a: Position, b: Position) -> float:
    """Euclidean distance in meters."""
    return math.sqrt((b.east - a.east) ** 2 + (b.north - a.north) ** 2
                     + (b.depth - a.depth) ** 2)


def bearing_angles(origin: Position,
                   target: Position) -> tuple[float, float]:
    """(azimuth, elevation) in degrees of `target` as seen from `origin`.

    The values are canonical, as `Bearing` holds them: azimuth in [0, 360),
    and azimuth 0 at elevation +-90.  Raises GeometryError for coincident
    points (degenerate bearing).
    """
    de = target.east - origin.east
    dn = target.north - origin.north
    rise = origin.depth - target.depth  # positive toward the surface
    run = math.hypot(de, dn)
    if run == 0.0:
        if rise == 0.0:
            raise GeometryError("degenerate bearing between coincident points")
        return 0.0, 90.0 if rise > 0 else -90.0
    elevation = math.degrees(math.atan2(rise, run))
    if elevation == 90.0 or elevation == -90.0:
        return 0.0, elevation  # canonical azimuth, as Bearing sets it
    azimuth = math.degrees(math.atan2(de, dn)) % 360.0
    if azimuth >= 360.0:  # guard the float wrap at exactly 360
        azimuth = 0.0
    return azimuth, elevation


def bearing_from_to(origin: Position, target: Position) -> Bearing:
    """Bearing under which `target` is seen from `origin`.

    Raises GeometryError for coincident points (degenerate bearing).
    """
    return Bearing(*bearing_angles(origin, target))


def unit_vector(bearing: Bearing) -> tuple[float, float, float]:
    """Unit (east, north, depth) vector of a bearing; depth axis points down."""
    az = math.radians(bearing.azimuth)
    el = math.radians(bearing.elevation)
    run = math.cos(el)
    return (run * math.sin(az), run * math.cos(az), -math.sin(el))


def angle_between(u: tuple[float, float, float],
                  v: tuple[float, float, float]) -> float:
    """Angle between two direction vectors, radians in [0, pi]."""
    nu = math.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)
    nv = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    if nu == 0.0 or nv == 0.0:
        raise GeometryError("zero-length direction vector")
    c = (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))
