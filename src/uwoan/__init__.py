"""Simulator and protocol library for initializing hybrid underwater
optical-acoustic networks: a surface base station with sonar and acoustic
broadcast walks optically-uplinked, acoustically-mute underwater nodes
through depth-keyed TDMA handshakes, depth-conflict decomposition, and
single-hop optical relaying."""

from .channel import (
    ChannelError,
    OpticalLinkBudget,
    WaterProfile,
    acoustic_delay,
    max_optical_range,
    optical_received_power,
    path_transmittance,
)
from .config import ConfigError, SimConfig, load_config, parse_config
from .engine import Simulation, run, simulate, trace
from .frame import (
    FrameError,
    MovementMarker,
    SlotPayload,
    SlotStage,
    SuperFrame,
    decode,
    encode,
)
from .geometry import (
    Bearing,
    DepthModel,
    GeometryError,
    Position,
    bearing_from_to,
    distance,
    unit_vector,
)
from .report import (
    SimReport,
    aggregate,
    export_topology,
    report_from_json,
    report_to_json,
)
from .world import World, generate

__version__ = "0.1.0"

__all__ = [
    "Bearing", "ChannelError", "ConfigError", "DepthModel",
    "FrameError", "GeometryError", "MovementMarker", "OpticalLinkBudget",
    "Position", "SimConfig", "SimReport", "Simulation", "SlotPayload",
    "SlotStage", "SuperFrame", "WaterProfile", "World",
    "acoustic_delay", "aggregate", "bearing_from_to", "decode", "distance",
    "encode", "export_topology", "generate", "load_config",
    "max_optical_range", "optical_received_power", "parse_config",
    "path_transmittance", "report_from_json",
    "report_to_json", "run", "simulate", "trace", "unit_vector",
]
