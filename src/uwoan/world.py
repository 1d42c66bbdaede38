"""World state: node kinematics and random deployment.

Positions integrate piecewise-constant vertical velocity in closed form
(no step-size drift): each node stores a reference depth, the time it
was set, and the current velocity.  Horizontal coordinates are fixed at
deployment apart from an optional constant current.  Nodes start inside
the region box, and all moving coordinates clip at it, through `_clip`
alone.  A coordinate that cannot move, the depth of a body with no
vertical velocity or an axis with no current, is read as its body stores
it: the clamped formula's value at the body's reference time, which it
keeps at every later time, bit for bit (`_Body`).

A position computed from clipped coordinates is valid by construction,
so it is built without `Position`'s checks.  `World` rejects up front a
non-finite current, region limit, velocity or time; each coordinate is
then computed from finite numbers, so it may overflow to an infinity but
is never NaN, and its clip is finite and inside the box.

`positions(t)` and `bs_distances(t)` give every node's `position_of(i, t)`
and `bs_distance_of(i, t)` in one pass over the bodies, bit for bit; a
static world reads the same per-body caches.  `bs_distances_at_rest()`
serves a run of instants while no node moves vertically, as in the
settled-tail replay.
"""

from __future__ import annotations

import math
import sys
from random import Random
from typing import Callable

from .config import SimConfig
from .geometry import GeometryError, Position, distance

__all__ = ["World", "deploy", "generate"]

# `tuple.__new__(Position, coords)`: a Position without the checks, for
# coordinates valid by construction
_tuple_new = tuple.__new__

# the largest time accepted: two such times differ by a finite amount, so
# even a zero velocity times the difference is a number, never NaN
_MAX_TIME = sys.float_info.max / 2


def _bad_time(t: float) -> GeometryError:
    return GeometryError(f"time {t} is not finite or exceeds "
                         f"{_MAX_TIME:.4g} s in magnitude")


def _clip(value: float, limit: float) -> float:
    """`value` clipped to [0, limit]: the region clamp on every axis."""
    return 0.0 if value < 0.0 else limit if value > limit else value


class _Body:
    """One node's kinematics.

    `east`, `north` and `depth` are the clamped formula's coordinates at
    the body's reference time, t = 0 across and `ref_time` down: the start
    plus its rate times zero, which lies in the region box.  On an axis
    whose rate is zero, that is also the formula's value at every later
    time, since the rate times a time difference is then the same signed
    zero: a `-0.0` start under a `0.0` rate reads as `0.0`, as
    `-0.0 + 0.0` is.
    """

    __slots__ = ("east0", "north0", "depth_ref", "ref_time", "v_down",
                 "east", "north", "depth", "cached_pos", "cached_bs_dist")

    def __init__(self, east: float, north: float, depth: float,
                 current: tuple[float, float]) -> None:
        self.east0 = east
        self.north0 = north
        self.east = east + current[0] * 0.0
        self.north = north + current[1] * 0.0
        self.depth_ref = depth
        self.ref_time = 0.0
        self.v_down = 0.0
        self.depth = depth + 0.0
        # valid only while the body is fully static (v == 0, no current)
        self.cached_pos: Position | None = None
        self.cached_bs_dist: float | None = None


class World:
    """Ground-truth positions of the base station and all nodes."""

    def __init__(self, bs_position: Position,
                 node_positions: list[Position],
                 region: tuple[float, float, float],
                 current: tuple[float, float] = (0.0, 0.0)) -> None:
        for what, values in (("region limit", region), ("current", current)):
            if not all(math.isfinite(v) for v in values):
                raise GeometryError(f"non-finite {what} in {values}")
        self.bs_position = bs_position
        self.region = region
        self.current = current
        self.drifting = current != (0.0, 0.0)
        # every reader, clipped or cached, then sees the same position
        for i, p in enumerate(node_positions):
            for axis, value, limit in zip(("east", "north", "depth"), p, region):
                if not 0.0 <= value <= limit:
                    raise GeometryError(f"node {i} {axis} {value} outside "
                                        f"the region's [0, {limit}]")
        self.bodies = [_Body(p.east, p.north, p.depth, current)
                       for p in node_positions]

    @property
    def n(self) -> int:
        return len(self.bodies)

    def depth_of(self, i: int, t: float) -> float:
        body = self.bodies[i]
        if body.v_down == 0.0:
            return body.depth
        return _clip(body.depth_ref + body.v_down * (t - body.ref_time),
                     self.region[2])

    def _coords(self, body: _Body, t: float) -> tuple[float, float, float]:
        """(east, north, depth) of `body` at `t`, clipped to the region."""
        east_rate, north_rate = self.current
        east_max, north_max, depth_max = self.region
        return (_clip(body.east0 + east_rate * t, east_max)
                if east_rate else body.east,
                _clip(body.north0 + north_rate * t, north_max)
                if north_rate else body.north,
                body.depth if body.v_down == 0.0
                else _clip(body.depth_ref + body.v_down * (t - body.ref_time),
                           depth_max))

    def _rows(self, t: float) -> list[tuple[float, float, float]]:
        """`_coords(body, t)` of every body, with no method call per body."""
        east_rate, north_rate = self.current
        east_max, north_max, depth_max = self.region
        return [(_clip(b.east0 + east_rate * t, east_max)
                 if east_rate else b.east,
                 _clip(b.north0 + north_rate * t, north_max)
                 if north_rate else b.north,
                 b.depth if b.v_down == 0.0
                 else _clip(b.depth_ref + b.v_down * (t - b.ref_time),
                            depth_max))
                for b in self.bodies]

    def _bs_distances(
            self, rows: list[tuple[float, float, float]]) -> list[float]:
        bs_east, bs_north, bs_depth = self.bs_position
        sqrt = math.sqrt
        # distance(bs_position, pos)'s operand order, so the bits agree
        return [sqrt((east - bs_east) ** 2 + (north - bs_north) ** 2
                     + (depth - bs_depth) ** 2)
                for east, north, depth in rows]

    def position_of(self, i: int, t: float) -> Position:
        body = self.bodies[i]
        if body.v_down == 0.0 and not self.drifting:
            # read once, so a cache that keeps nothing still returns a value
            pos = body.cached_pos
            if pos is None:
                pos = body.cached_pos = Position(body.east0, body.north0,
                                                 body.depth_ref)
            return pos
        if not -_MAX_TIME <= t <= _MAX_TIME:
            raise _bad_time(t)
        return _tuple_new(Position, self._coords(body, t))

    def bs_distance_of(self, i: int, t: float) -> float:
        body = self.bodies[i]
        if body.v_down == 0.0 and not self.drifting:
            dist = body.cached_bs_dist
            if dist is None:
                dist = body.cached_bs_dist = distance(self.bs_position,
                                                      self.position_of(i, t))
            return dist
        return self._bs_distances([self._coords(body, t)])[0]

    def positions(self, t: float) -> list[Position]:
        """Every node's `position_of(i, t)`, in one pass over the bodies."""
        if not self.drifting:
            # a filled cache belongs to a static body
            return [body.cached_pos or self.position_of(i, t)
                    for i, body in enumerate(self.bodies)]
        if not -_MAX_TIME <= t <= _MAX_TIME:
            raise _bad_time(t)
        return [_tuple_new(Position, row) for row in self._rows(t)]

    def bs_distances(self, t: float) -> list[float]:
        """Every node's `bs_distance_of(i, t)`, in one pass over the bodies."""
        if not self.drifting:
            return [body.cached_bs_dist or self.bs_distance_of(i, t)
                    for i, body in enumerate(self.bodies)]
        return self._bs_distances(self._rows(t))

    def bs_distances_at_rest(self) -> Callable[[float], list[float]]:
        """`bs_distances` for as long as no node moves vertically.

        Then only an axis with a current changes with t.  Each body's
        depth term, and its term on an axis with no current, is squared
        once here from the coordinate the body stores (`_Body`); the
        returned function recomputes the others and keeps
        `bs_distance_of`'s association, `sqrt((east2 + north2) + depth2)`,
        so the bits agree.
        """
        bodies = self.bodies
        if not self.drifting:
            return self.bs_distances
        if any(b.v_down != 0.0 for b in bodies):
            raise ValueError("a node is moving vertically")

        def squares(starts: list[float], still: list[float], rate: float,
                    limit: float,
                    origin: float) -> Callable[[float], list[float]]:
            """Each body's squared term on one axis, as a function of t."""
            if rate == 0.0:
                fixed = [(s - origin) ** 2 for s in still]
                return lambda t: fixed
            return lambda t: [(_clip(s + rate * t, limit) - origin) ** 2
                              for s in starts]

        bs = self.bs_position
        east_max, north_max, _ = self.region
        east2 = squares([b.east0 for b in bodies], [b.east for b in bodies],
                        self.current[0], east_max, bs.east)
        north2 = squares([b.north0 for b in bodies],
                         [b.north for b in bodies], self.current[1],
                         north_max, bs.north)
        depth2 = [(b.depth - bs.depth) ** 2 for b in bodies]
        sqrt = math.sqrt
        return lambda t: [sqrt((e2 + n2) + d2) for e2, n2, d2
                          in zip(east2(t), north2(t), depth2)]

    def set_vertical_velocity(self, i: int, v: float, now: float) -> None:
        if not math.isfinite(v):
            raise GeometryError(f"non-finite vertical velocity {v}")
        if not -_MAX_TIME <= now <= _MAX_TIME:
            raise _bad_time(now)
        body = self.bodies[i]
        body.depth_ref = self.depth_of(i, now)
        body.ref_time = now
        body.v_down = v
        body.depth = body.depth_ref + v * 0.0
        body.cached_pos = None
        body.cached_bs_dist = None


def deploy(config: SimConfig, rng: Random) -> World:
    """Draw the deployment: node positions i.i.d. uniform over the region box."""
    positions = [
        Position(rng.uniform(0.0, config.region_east_m),
                 rng.uniform(0.0, config.region_north_m),
                 rng.uniform(0.0, config.region_depth_m))
        for _ in range(config.n_uwn)
    ]
    return World(config.bs_position(), positions,
                 (config.region_east_m, config.region_north_m,
                  config.region_depth_m),
                 (config.current_east_mps, config.current_north_mps))


def generate(config: SimConfig, seed: int | None = None) -> World:
    """Deterministic deployment for a (config, seed) pair.

    Uses the same draw order as a simulation run, so the world generated
    here matches the one a run with the same seed will simulate.
    """
    return deploy(config, Random(config.seed if seed is None else seed))
