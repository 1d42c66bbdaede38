"""Run configuration: documented keys, defaults, and file parsing.

Config files are flat ``key = value`` text, one pair per line, with
``#`` comments and blank lines allowed.  Unknown or duplicate keys are
errors so typos cannot silently fall back to defaults.  Every key has
the default recorded in :class:`SimConfig`; the README carries the full
table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .channel import OpticalLinkBudget, WaterProfile
from .frame import MAX_DEPTH_CODE, MAX_FRAME_SEQ
from .geometry import DepthModel, Position

__all__ = ["ConfigError", "SimConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Invalid configuration file or parameter combination."""


# most periods (sonar pings, movement intervals) one run may span: the
# range of the 32-bit frame_seq
_MAX_PERIODS = MAX_FRAME_SEQ + 1

# most events one run may schedule, by `SimConfig.event_estimate`; at some
# microseconds an event, a run stays within minutes of host time
_MAX_EVENTS = 20_000_000

# the types a field takes, by its annotation, and their name; a bool is an
# int to Python, but a number field takes none
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "bool": (bool, "true or false")}


@dataclass(frozen=True)
class SimConfig:
    # deployment
    n_uwn: int = 50
    region_east_m: float = 200.0
    region_north_m: float = 200.0
    region_depth_m: float = 200.0
    bs_east_m: float = 100.0
    bs_north_m: float = 100.0
    # water column
    c0: float = 0.056
    gamma: float = 0.0
    sound_speed_mps: float = 1500.0
    # optical link budget
    tx_power_w: float = 0.1
    divergence_half_angle_deg: float = 1.0
    rx_aperture_area_m2: float = 7.854e-3
    rx_sensitivity_w: float = 2.5e-12
    rx_fov_half_angle_deg: float = 30.0
    # acoustic reach and imperfection knobs
    acoustic_range_m: float = 1000.0
    p_misdetect: float = 0.0
    p_frame_loss: float = 0.0
    sonar_depth_noise_std_m: float = 0.0
    # depth sounding resolution delta(z) = delta0 + kappa*z
    depth_resolution_surface_m: float = 0.5
    depth_resolution_gradient: float = 0.005
    # protocol timing
    superframe_period_s: float = 1.0
    first_superframe_offset_s: float = 0.1
    direct_retries: int = 5
    relay_retries: int = 5
    conflict_reset_after_s: float = 5.0
    # conflict movement and return
    v_min_mps: float = 0.05
    v_max_mps: float = 0.5
    move_duration_min_s: float = 1.0
    move_duration_max_s: float = 3.0
    v_return_mps: float = 0.5
    return_tolerance_m: float = 0.1
    match_on_motion_marker: bool = True
    # ambient drift
    current_east_mps: float = 0.0
    current_north_mps: float = 0.0
    # run control
    t_max_s: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        c = self
        def need(cond: bool, msg: str) -> None:
            if not cond:
                raise ConfigError(msg)

        # types first, so that no check below meets a string and no count
        # a float
        for f in fields(c):
            value = getattr(c, f.name)
            types, name = _KINDS[f.type]
            if not isinstance(value, types) \
                    or (isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{f.name} must be {name}, got {value!r}")
            if f.type == "float":
                # not isfinite, which raises on an int too large for a float
                need(abs(value) <= sys.float_info.max,
                     f"{f.name} must be finite")
        need(c.n_uwn >= 0, f"n_uwn must be >= 0, got {c.n_uwn}")
        # before any float arithmetic, which an int past the float range
        # overflows.  The estimate below counts a wake-up per node at the
        # ping at t = 0, so this rejects no config that the estimate passes
        need(c.n_uwn <= _MAX_EVENTS,
             f"n_uwn must be at most {_MAX_EVENTS:,}: the sonar ping at "
             f"t = 0 queues a wake-up per node, and one run may schedule at "
             f"most {_MAX_EVENTS:,} events")
        for name in ("region_east_m", "region_north_m", "region_depth_m"):
            need(getattr(c, name) > 0, f"{name} must be positive")
        # distances square coordinate differences, and float ** raises
        # OverflowError where * gives inf
        e, n, d = c.region_east_m, c.region_north_m, c.region_depth_m
        need(math.isfinite(e * e + n * n + d * d),
             "region too large: the squared diagonal overflows a float")
        need(0 <= c.bs_east_m <= c.region_east_m,
             f"bs_east_m {c.bs_east_m} outside region")
        need(0 <= c.bs_north_m <= c.region_north_m,
             f"bs_north_m {c.bs_north_m} outside region")
        need(c.c0 > 0, f"c0 must be positive, got {c.c0}")
        need(c.c0 + c.gamma * c.region_depth_m > 0,
             "attenuation c0 + gamma*z must stay positive over the region")
        need(c.sound_speed_mps > 0, "sound_speed_mps must be positive")
        need(c.tx_power_w > 0, "tx_power_w must be positive")
        need(0 < c.divergence_half_angle_deg < 90,
             "divergence_half_angle_deg must be in (0, 90)")
        need(c.rx_aperture_area_m2 > 0, "rx_aperture_area_m2 must be positive")
        need(c.rx_sensitivity_w > 0, "rx_sensitivity_w must be positive")
        need(0 < c.rx_fov_half_angle_deg <= 90,
             "rx_fov_half_angle_deg must be in (0, 90]")
        need(c.acoustic_range_m > 0, "acoustic_range_m must be positive")
        for name in ("p_misdetect", "p_frame_loss"):
            need(0 <= getattr(c, name) <= 1, f"{name} must be in [0, 1]")
        need(c.sonar_depth_noise_std_m >= 0,
             "sonar_depth_noise_std_m must be >= 0")
        need(c.depth_resolution_surface_m > 0,
             "depth_resolution_surface_m must be positive")
        need(c.depth_resolution_gradient >= 0,
             "depth_resolution_gradient must be >= 0")
        deepest = c.depth_model().bucket(c.region_depth_m)
        need(deepest <= MAX_DEPTH_CODE,
             f"depth resolution too fine: region_depth_m {c.region_depth_m} "
             f"needs depth code {deepest}, a frame carries at most "
             f"{MAX_DEPTH_CODE}")
        need(c.superframe_period_s > 0, "superframe_period_s must be positive")
        need(c.first_superframe_offset_s >= 0,
             "first_superframe_offset_s must be >= 0")
        need(c.direct_retries >= 1, "direct_retries must be >= 1")
        need(c.relay_retries >= 1, "relay_retries must be >= 1")
        need(c.conflict_reset_after_s > 0,
             "conflict_reset_after_s must be positive")
        need(0 <= c.v_min_mps <= c.v_max_mps,
             "need 0 <= v_min_mps <= v_max_mps")
        need(c.v_max_mps > 0, "v_max_mps must be positive")
        need(0 < c.move_duration_min_s <= c.move_duration_max_s,
             "need 0 < move_duration_min_s <= move_duration_max_s")
        need(c.v_return_mps > 0, "v_return_mps must be positive")
        need(c.return_tolerance_m >= 0, "return_tolerance_m must be >= 0")
        need(c.t_max_s > 0, "t_max_s must be positive")
        frames = (c.t_max_s - c.first_superframe_offset_s) \
            / c.superframe_period_s
        need(frames <= MAX_FRAME_SEQ,
             f"t_max_s {c.t_max_s} spans {frames:.4g} superframes, more "
             f"than the 32-bit frame_seq counts")
        # sonar pings come once a period from t = 0, whatever the frame
        # offset.  Movement intervals are uniform on [move_duration_min_s,
        # move_duration_max_s], so bounding by the maximum keeps their
        # expected count per node within about twice this quotient.  Both
        # stay within 2**32, so event times keep advancing and the run
        # ends; ceil(x) <= 2**32 exactly when x <= 2**32.
        pings = c.t_max_s / c.superframe_period_s
        need(pings <= _MAX_PERIODS,
             f"t_max_s {c.t_max_s} spans {pings:.4g} sonar pings of "
             f"superframe_period_s {c.superframe_period_s}, more than 2**32")
        moves = c.t_max_s / c.move_duration_max_s
        need(moves <= _MAX_PERIODS,
             f"t_max_s {c.t_max_s} spans {moves:.4g} movement intervals of "
             f"move_duration_max_s {c.move_duration_max_s}, more than 2**32")
        # checked last: within the limits above, every count is finite
        events = c.event_estimate()
        need(events <= _MAX_EVENTS,
             f"t_max_s {c.t_max_s} with n_uwn {c.n_uwn} makes an estimated "
             f"{events:.4g} events, more than the {_MAX_EVENTS:,} one run "
             f"may schedule")

    def event_estimate(self) -> float:
        """An estimate of the events one run schedules, not a strict bound.

        A run starts by queueing its end, the ping at t = 0 and the first
        superframe.  Pings come at t = 0, period, ... before `t_max_s`, so
        there are at most t_max_s / period + 1, and superframes at most one
        more than the periods after the offset.  Each ping queues the next,
        a timeout check and a wake-up per node.  Each superframe queues the
        next and an arrival per node, and each arrival queues at most one
        more event: a movement expiry, or the answer's landing at the base
        station.  A moving node queues an expiry per movement interval.
        Two terms are typical rather than worst cases: intervals are counted
        at their mean length, the midpoint of their uniform range, and a
        beam's landings at relays are left out.  In the traced runs of the
        tests both fit in the slack of the wake-ups counted at every ping,
        which a node takes only while dormant.
        """
        n, t_max, period = self.n_uwn, self.t_max_s, self.superframe_period_s
        offset = self.first_superframe_offset_s
        pings = t_max / period + 1
        frames = (t_max - offset) / period + 1 if offset < t_max else 0.0
        mean_move = (self.move_duration_min_s + self.move_duration_max_s) / 2
        return (3 + pings * (2 + n) + frames * (1 + 2 * n)
                + n * t_max / mean_move)

    # -- derived objects: bs_position, water_profile, link_budget, depth_model

    def bs_position(self) -> Position:
        return Position(self.bs_east_m, self.bs_north_m, 0.0)

    def water_profile(self) -> WaterProfile:
        return WaterProfile(c0=self.c0, gamma=self.gamma,
                            sound_speed=self.sound_speed_mps)

    def link_budget(self) -> OpticalLinkBudget:
        return OpticalLinkBudget(
            tx_power=self.tx_power_w,
            divergence_half_angle=math.radians(self.divergence_half_angle_deg),
            rx_aperture_area=self.rx_aperture_area_m2,
            rx_sensitivity=self.rx_sensitivity_w,
            rx_fov_half_angle=math.radians(self.rx_fov_half_angle_deg))

    def depth_model(self) -> DepthModel:
        return DepthModel(self.depth_resolution_surface_m,
                          self.depth_resolution_gradient)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    if ftype == "bool":
        lowered = raw.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ConfigError(f"key '{key}': expected true/false, got '{raw}'")
    if ftype == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': expected an integer, got '{raw}'") from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got '{raw}'") from None


def parse_config(text: str, source: str = "<string>") -> SimConfig:
    """Parse ``key = value`` config text into a validated SimConfig."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        if not raw:
            raise ConfigError(f"{source}:{lineno}: empty value for '{key}'")
        values[key] = _parse_value(key, raw)
    try:
        return SimConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path: str | Path) -> SimConfig:
    """Read and parse a config file; missing files are configuration errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from None
    return parse_config(text, source=str(path))
