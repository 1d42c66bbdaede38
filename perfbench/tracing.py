"""Layer tracing from outside the simulator.

``LayerTracer`` is a reusable context manager.  Entering it replaces each
layer's public entry points where the engine looks them up with counting,
timing wrappers; leaving it puts the original objects back, also when the
body raised.  Counters accumulate across entries, so a tracer can be
entered once per run and read once at the end.

A layer's time is counted only for calls made while no other wrapped call
is running, so nested calls (``World.bs_distance_of`` calling
``position_of``) are not counted twice and the engine's self time is the
run time not spent in any wrapped layer.
"""

from __future__ import annotations

import re
from collections import Counter
from time import perf_counter

from uwoan import engine, node, report
from uwoan.base_station import BsState
from uwoan.world import World

__all__ = ["LayerTracer", "EVENT_KINDS", "patch_targets", "unit_of"]

EVENT_KINDS = (engine.SONAR_PING, engine.SUPERFRAME_TX,
               engine.ACOUSTIC_ARRIVAL, engine.OPTICAL_ARRIVAL,
               engine.MOVEMENT_EXPIRY, engine.TIMEOUT_CHECK)

BS_STEPS = ("sonar_scan", "allocate", "update_decomposition",
            "compose_superframe", "handle_timeouts", "on_optical_arrival")
WORLD_METHODS = ("depth_of", "position_of", "bs_distance_of",
                 "set_vertical_velocity")


def patch_targets() -> list[tuple[object, str, str, str]]:
    """Every patched name as (owner, attribute, layer, metric key)."""
    targets = [
        (engine, "encode", "frame", "frame.encode"),
        (engine, "decode", "frame", "frame.decode"),
        (engine, "FrameIndex", "frame", "frame.index"),
        (engine, "optical_received_power", "channel",
         "channel.received_power"),
        (node, "match_frame_indexed", "node", "node.match"),
        (node, "on_movement_expiry", "node", "node.movement_expiry"),
        (node, "forward_beam", "node", "node.forward_beam"),
        (report, "report_to_json", "report", "report.to_json"),
        (report, "export_topology", "report", "report.export_topology"),
    ]
    targets += [(BsState, m, "base_station", f"base_station.{m}")
                for m in BS_STEPS]
    targets += [(World, m, "world", f"world.{m}") for m in WORLD_METHODS]
    return targets


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from the words of its name."""
    words = set(re.split(r"[._]", metric))
    for word, unit in (("share", "fraction"), ("ratio", "ratio"),
                       ("bytes", "bytes"), ("us", "us"), ("ms", "ms")):
        if word in words:
            return unit
    return "count"


def _original(owner: object, attr: str) -> object:
    # read classes through __dict__ so the plain function is restored
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


class LayerTracer:
    """Counts calls, events and layer time while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()     # metric key -> calls
        self.seconds: Counter = Counter()   # metric key -> seconds, all calls
        self.layer_seconds: Counter = Counter()  # layer -> outermost seconds
        self.events: Counter = Counter()    # event kind -> pops
        self.tally: Counter = Counter()     # other counted outcomes
        self.runs = 0
        self.run_seconds = 0.0
        self.engine_self_seconds = 0.0
        self._depth = 0
        self._outer = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        if self._saved:
            raise RuntimeError("LayerTracer is already installed")
        try:
            self._patch(engine, "heappop", self._wrap_heappop(engine.heappop))
            for owner, attr, layer, key in patch_targets():
                self._patch(owner, attr,
                            self._wrap(_original(owner, attr), layer, key))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, _original(owner, attr)))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap_heappop(self, heappop):
        events = self.events

        def traced_heappop(heap):
            item = heappop(heap)
            events[item[2]] += 1
            return item
        return traced_heappop

    def _wrap(self, fn, layer: str, key: str):
        before, after = self._hooks().get(key, (None, None))
        calls, seconds, tracer = self.calls, self.seconds, self

        def traced(*args, **kwargs):
            token = before(args) if before else None
            tracer._depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._depth -= 1
            calls[key] += 1
            seconds[key] += dt
            if tracer._depth == 0:
                tracer.layer_seconds[layer] += dt
                tracer._outer += dt
            if after:
                after(args, result, token)
            return result
        return traced

    def _hooks(self) -> dict:
        """Metric key -> (before(args) -> token, after(args, result, token))."""
        tally = self.tally

        def encoded(args, data, _):
            tally["frame.slots"] += len(args[0].slots)
            tally["frame.bytes"] += len(data)

        def decoded(_, frame, __):
            tally["frame.decoded_slots"] += len(frame.slots)

        def received(args, power, _):
            if power >= args[2].rx_sensitivity:
                tally["channel.link_ok"] += 1

        def node_state(args):
            s = args[0]
            return (s.lifecycle, s.movement_epoch, s.matched_id, s.relay_duty)

        def matched(args, emissions, state_before):
            if not emissions and node_state(args) == state_before:
                tally["node.inert_match"] += 1

        def beam_counts(args):
            return args[0].unknown_beams, args[0].duplicate_beams

        def beam_arrived(args, _, counts_before):
            unknown, duplicate = beam_counts(args)
            tally["base_station.unknown_beams"] += unknown - counts_before[0]
            tally["base_station.duplicate_beams"] += \
                duplicate - counts_before[1]

        return {
            "frame.encode": (None, encoded),
            "frame.decode": (None, decoded),
            "channel.received_power": (None, received),
            "node.match": (node_state, matched),
            "base_station.on_optical_arrival": (beam_counts, beam_arrived),
        }

    # -- per-run accounting -------------------------------------------------

    def measure(self, fn, *args):
        """Call one run, adding its time and engine self time."""
        outer_before = self._outer
        t0 = perf_counter()
        result = fn(*args)
        dt = perf_counter() - t0
        self.runs += 1
        self.run_seconds += dt
        self.engine_self_seconds += dt - (self._outer - outer_before)
        return result

    # -- derived metrics ------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Per-run counts and shares; exact functions of the runs traced."""
        runs = self.runs
        frames = self.calls["frame.encode"]
        matches = self.calls["node.match"]
        powers = self.calls["channel.received_power"]
        out = {
            "engine.events_per_run": sum(self.events.values()) / runs,
            "engine.fast_forward_share":
                (runs - self.events[engine.SIM_END]) / runs,
            "frame.frames_per_run": frames / runs,
            "frame.slots_per_frame":
                self.tally["frame.slots"] / frames if frames else 0.0,
            "frame.bytes_per_run": self.tally["frame.bytes"] / runs,
            "base_station.on_optical_arrival.calls_per_run":
                self.calls["base_station.on_optical_arrival"] / runs,
            "base_station.unknown_beams_per_run":
                self.tally["base_station.unknown_beams"] / runs,
            "base_station.duplicate_beams_per_run":
                self.tally["base_station.duplicate_beams"] / runs,
            "node.match.calls_per_run": matches / runs,
            "node.inert_match_share":
                self.tally["node.inert_match"] / matches if matches else 0.0,
            "node.movement_expiry.calls_per_run":
                self.calls["node.movement_expiry"] / runs,
            "node.forward_beam.calls_per_run":
                self.calls["node.forward_beam"] / runs,
            "channel.received_power.calls_per_run": powers / runs,
            "channel.link_ok_share":
                self.tally["channel.link_ok"] / powers if powers else 0.0,
        }
        for kind in EVENT_KINDS:
            out[f"engine.events.{kind}_per_run"] = self.events[kind] / runs
        for m in ("position_of", "bs_distance_of", "set_vertical_velocity"):
            out[f"world.{m}.calls_per_run"] = self.calls[f"world.{m}"] / runs
        return out

    def timings(self, untraced_ms_per_run: float) -> dict[str, float]:
        """Per-layer host times; ``untraced_ms_per_run`` is the same runs'
        mean time with no wrapper installed."""
        runs = self.runs
        events = sum(self.events.values())

        def us_per_call(key: str) -> float:
            n = self.calls[key]
            return self.seconds[key] / n * 1e6 if n else 0.0

        decoded = self.tally["frame.decoded_slots"]
        out = {
            "engine.us_per_event": untraced_ms_per_run * 1e3 * runs / events,
            "engine.self_ms_per_run": self.engine_self_seconds / runs * 1e3,
            "frame.encode.us_per_call": us_per_call("frame.encode"),
            "frame.decode.us_per_call": us_per_call("frame.decode"),
            "frame.decode.us_per_slot":
                self.seconds["frame.decode"] / decoded * 1e6
                if decoded else 0.0,
            "frame.index.us_per_call": us_per_call("frame.index"),
            "node.match.us_per_call": us_per_call("node.match"),
            "channel.received_power.us_per_call":
                us_per_call("channel.received_power"),
            "world.ms_per_run": self.layer_seconds["world"] / runs * 1e3,
            "report.to_json.ms_per_run":
                self.seconds["report.to_json"] / runs * 1e3,
            "report.export_topology.ms_per_run":
                self.seconds["report.export_topology"] / runs * 1e3,
            "trace_overhead_ratio":
                self.run_seconds / runs * 1e3 / untraced_ms_per_run,
        }
        for step in BS_STEPS[:-1]:
            out[f"base_station.{step}.ms_per_run"] = \
                self.seconds[f"base_station.{step}"] / runs * 1e3
        return out
