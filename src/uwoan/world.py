"""World state: node kinematics and random deployment.

Positions integrate piecewise-constant vertical velocity in closed form
(no step-size drift): each node stores a reference depth, the time it
was set, and the current velocity.  Horizontal coordinates are fixed at
deployment apart from an optional constant current.  All coordinates
clip at the region boundaries.
"""

from __future__ import annotations

import math
from random import Random

from .config import SimConfig
from .geometry import Position, distance

__all__ = ["World", "deploy", "generate"]


class _Body:
    __slots__ = ("east0", "north0", "depth_ref", "ref_time", "v_down",
                 "cached_pos", "cached_bs_dist")

    def __init__(self, east: float, north: float, depth: float) -> None:
        self.east0 = east
        self.north0 = north
        self.depth_ref = depth
        self.ref_time = 0.0
        self.v_down = 0.0
        # valid only while the body is fully static (v == 0, no current)
        self.cached_pos: Position | None = None
        self.cached_bs_dist: float | None = None


class World:
    """Ground-truth positions of the base station and all nodes."""

    def __init__(self, bs_position: Position,
                 node_positions: list[Position],
                 region: tuple[float, float, float],
                 current: tuple[float, float] = (0.0, 0.0)) -> None:
        self.bs_position = bs_position
        self.region = region
        self.current = current
        self.drifting = current != (0.0, 0.0)
        self.bodies = [_Body(p.east, p.north, p.depth) for p in node_positions]

    @property
    def n(self) -> int:
        return len(self.bodies)

    def depth_of(self, i: int, t: float) -> float:
        body = self.bodies[i]
        depth = body.depth_ref + body.v_down * (t - body.ref_time)
        if depth < 0.0:
            return 0.0
        limit = self.region[2]
        return limit if depth > limit else depth

    def _coords(self, body: _Body, t: float) -> tuple[float, float, float]:
        # clip to the region; depth clips exactly as depth_of does
        region = self.region
        east = body.east0 + self.current[0] * t
        if east < 0.0:
            east = 0.0
        if east > region[0]:
            east = region[0]
        north = body.north0 + self.current[1] * t
        if north < 0.0:
            north = 0.0
        if north > region[1]:
            north = region[1]
        depth = body.depth_ref + body.v_down * (t - body.ref_time)
        if depth < 0.0:
            depth = 0.0
        elif depth > region[2]:
            depth = region[2]
        return east, north, depth

    def position_of(self, i: int, t: float) -> Position:
        body = self.bodies[i]
        if body.v_down == 0.0 and not self.drifting:
            # read once, so a cache that keeps nothing still returns a value
            pos = body.cached_pos
            if pos is None:
                pos = body.cached_pos = Position(body.east0, body.north0,
                                                 body.depth_ref)
            return pos
        return Position(*self._coords(body, t))

    def bs_distance_of(self, i: int, t: float) -> float:
        body = self.bodies[i]
        if body.v_down == 0.0 and not self.drifting:
            dist = body.cached_bs_dist
            if dist is None:
                dist = body.cached_bs_dist = distance(self.bs_position,
                                                      self.position_of(i, t))
            return dist
        east, north, depth = self._coords(body, t)
        bs = self.bs_position
        # distance(bs_position, pos)'s operand order, so the bits agree
        return math.sqrt((east - bs.east) ** 2 + (north - bs.north) ** 2
                         + (depth - bs.depth) ** 2)

    def set_vertical_velocity(self, i: int, v: float, now: float) -> None:
        body = self.bodies[i]
        body.depth_ref = self.depth_of(i, now)
        body.ref_time = now
        body.v_down = v
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
