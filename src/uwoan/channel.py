"""Acoustic and optical water-channel models.

The optical link is a Beer-Lambert transmittance along the straight
path times a conical geometric-spreading factor capped at 1.  The beam
attenuation coefficient may vary linearly with depth, c(z) = c0 + gamma*z,
so the path integral over a straight segment reduces to the coefficient
at the segment's mean depth.  Acoustic propagation is a constant sound
speed; the acoustic reach itself is modeled upstream as a plain radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Position, distance

__all__ = [
    "ChannelError",
    "WaterProfile",
    "OpticalLinkBudget",
    "acoustic_delay",
    "path_transmittance",
    "optical_received_power",
    "max_optical_range",
]


class ChannelError(ValueError):
    """Invalid channel parameters or degenerate link geometry."""


@dataclass(frozen=True)
class WaterProfile:
    """Water column: optical attenuation c(z) = c0 + gamma*z and sound speed.

    c0 is the beam attenuation coefficient at the surface (1/m), gamma its
    vertical gradient ((1/m)/m), sound_speed in m/s.
    """

    c0: float = 0.056
    gamma: float = 0.0
    sound_speed: float = 1500.0

    def __post_init__(self) -> None:
        if self.c0 <= 0.0:
            raise ChannelError(f"c0 must be positive, got {self.c0}")
        if self.sound_speed <= 0.0:
            raise ChannelError(f"sound_speed must be positive, got {self.sound_speed}")

    def attenuation_at(self, depth: float) -> float:
        c = self.c0 + self.gamma * depth
        if c <= 0.0:
            raise ChannelError(
                f"attenuation c({depth}) = {c} is not positive; "
                "profile invalid at this depth")
        return c


@dataclass(frozen=True)
class OpticalLinkBudget:
    """Transmitter/receiver constants of the optical link.

    divergence_half_angle and rx_fov_half_angle are radians; powers in
    watts; aperture area in square meters.
    """

    tx_power: float = 0.1
    divergence_half_angle: float = math.radians(1.0)
    rx_aperture_area: float = 7.854e-3
    rx_sensitivity: float = 2.5e-12
    rx_fov_half_angle: float = math.radians(30.0)

    def __post_init__(self) -> None:
        if self.tx_power <= 0.0:
            raise ChannelError(f"tx_power must be positive, got {self.tx_power}")
        if not 0.0 < self.divergence_half_angle < math.pi / 2:
            raise ChannelError(
                f"divergence_half_angle must be in (0, pi/2), got {self.divergence_half_angle}")
        if self.rx_aperture_area <= 0.0:
            raise ChannelError(
                f"rx_aperture_area must be positive, got {self.rx_aperture_area}")
        if self.rx_sensitivity <= 0.0:
            raise ChannelError(
                f"rx_sensitivity must be positive, got {self.rx_sensitivity}")
        if not 0.0 < self.rx_fov_half_angle <= math.pi / 2:
            raise ChannelError(
                f"rx_fov_half_angle must be in (0, pi/2], got {self.rx_fov_half_angle}")


def acoustic_delay(d: float, profile: WaterProfile) -> float:
    """One-way acoustic propagation delay over distance d, seconds."""
    if d < 0.0:
        raise ChannelError(f"negative distance {d}")
    return d / profile.sound_speed


def path_transmittance(a: Position, b: Position, profile: WaterProfile) -> float:
    """Beer-Lambert transmittance exp(-integral c(z) ds) along segment a-b.

    For the linear profile this is exp(-L * c(mean depth)).  Always in (0, 1].
    """
    length = distance(a, b)
    if length == 0.0:
        return 1.0
    c_mean = profile.attenuation_at((a.depth + b.depth) / 2.0)
    return math.exp(-length * c_mean)


def optical_received_power(tx: Position, rx: Position,
                           budget: OpticalLinkBudget,
                           profile: WaterProfile) -> float:
    """Received optical power in watts for a perfectly aimed beam.

    The transmitted power is spread over the divergence cone's spot at the
    receiver; the aperture-to-spot ratio is capped at 1 so short links
    cannot collect more power than was transmitted.
    """
    length = distance(tx, rx)
    if length == 0.0:
        raise ChannelError("coincident transmitter and receiver")
    spot_area = math.pi * (length * math.tan(budget.divergence_half_angle)) ** 2
    # a spot no larger than the aperture is caught whole, also one that
    # underflowed to zero on a link shorter than about 1e-160 m
    aperture = budget.rx_aperture_area
    geometric = 1.0 if spot_area <= aperture else aperture / spot_area
    return budget.tx_power * path_transmittance(tx, rx, profile) * geometric


def _horizontal_power(length: float, depth: float,
                      budget: OpticalLinkBudget, profile: WaterProfile) -> float:
    c = profile.attenuation_at(depth)
    spot_area = math.pi * (length * math.tan(budget.divergence_half_angle)) ** 2
    aperture = budget.rx_aperture_area
    geometric = 1.0 if spot_area <= aperture else aperture / spot_area
    return budget.tx_power * math.exp(-c * length) * geometric


def max_optical_range(budget: OpticalLinkBudget, profile: WaterProfile,
                      depth: float = 0.0, tol: float = 0.01) -> float:
    """Largest horizontal link length at `depth` that still closes the link.

    Received power is strictly decreasing in length, so the root is found
    by bracket doubling plus bisection to `tol` meters.  Returns 0.0 when
    no length is feasible (sensitivity above transmit power).
    """
    if budget.rx_sensitivity > budget.tx_power:
        return 0.0
    lo = tol
    if _horizontal_power(lo, depth, budget, profile) < budget.rx_sensitivity:
        return 0.0
    hi = 1.0
    while _horizontal_power(hi, depth, budget, profile) >= budget.rx_sensitivity:
        lo = hi
        hi *= 2.0
        if hi > 1e7:  # attenuation is positive, so this cannot trigger
            raise ChannelError("no upper bracket for optical range")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if _horizontal_power(mid, depth, budget, profile) >= budget.rx_sensitivity:
            lo = mid
        else:
            hi = mid
    return lo
