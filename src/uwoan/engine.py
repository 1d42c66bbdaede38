"""Deterministic discrete-event core driving one initialization run.

A single seeded random stream is consumed in strict event order, so a
(config, seed) pair fully determines the run.  The event queue pops in
(time, sequence) order; acoustic deliveries are delayed by exactly
distance/sound_speed evaluated at transmit time, optical propagation is
treated as instantaneous (sub-microsecond over link scales here) but
still sequenced through the queue so causality is explicit.

Per superframe period the base station re-scans (sonar ping), checks
timeouts, composes and broadcasts the TDMA frame; nodes react to every
arrival.  Emitted beams are delivered to any receiver that passes the
pointing, link-budget, and field-of-view checks.  An untraced run offers
a beam to a relay only if the relay would forward it: an arrival that the
relay drops changes nothing a report shows, while the trace logs every
physical arrival, so traced runs offer each beam to every relay.

Settled nodes cost little.  The base station skips the sonar return of a
record that is accessed or failed and has not moved (`BsState.sonar_scan`).
An untraced run keeps a frame arrival off the event queue when it is known
to change nothing: the node is bound to an ID that the frame has no slot
for, or it is accessed and its slot is no relay assignment.  Binding is
never undone and access is final, so that still holds when the arrival
lands.  Such an arrival keeps its sequence number and waits in a tally
heap; before each event the run loop adds the delays ordered ahead of it
to the tally, so `avg_sound_delay_s` is summed in the exact order of the
plain loop and keeps every bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
# the benchmark counts events by wrapping `heappop`; the inert-arrival tally
# pops through its own name, so its entries are not counted as events
from heapq import heappop as pop_tally
from random import Random

from . import node as uwn
from .base_station import MAX_NETWORK_ID, STAGE_ACCESSED, STAGE_FAILED, BsState
from .channel import optical_received_power
from .config import ConfigError, SimConfig
# decode is unused here; perfbench/tracing.py and its tests patch it
from .frame import SLOT_RELAY_RX, FrameIndex, decode, encode  # noqa: F401
from .geometry import Bearing, Position, angle_between, unit_vector
from .node import NODE_ACCESSED, NODE_CONFLICT_MOVING, NODE_DORMANT
from .report import NodeOutcome, SimReport, TopologyEdge
from .world import World, deploy

__all__ = ["Simulation", "SimResult", "simulate", "run", "trace"]

SONAR_PING = "SONAR_PING"
SUPERFRAME_TX = "SUPERFRAME_TX"
ACOUSTIC_ARRIVAL = "ACOUSTIC_ARRIVAL"
OPTICAL_ARRIVAL = "OPTICAL_ARRIVAL"
MOVEMENT_EXPIRY = "MOVEMENT_EXPIRY"
TIMEOUT_CHECK = "TIMEOUT_CHECK"
SIM_END = "SIM_END"


@dataclass(frozen=True)
class SimResult:
    report: SimReport
    trace_lines: tuple[str, ...] = ()


class Simulation:
    """One run of the initialization protocol over a deployed world."""

    def __init__(self, config: SimConfig, seed: int | None = None,
                 world: World | None = None, collect_trace: bool = False) -> None:
        self.cfg = config
        self.seed = config.seed if seed is None else seed
        self.rng = Random(self.seed)
        self.world = world if world is not None else deploy(config, self.rng)
        # deploy draws any size, but a run has only MAX_NETWORK_ID IDs
        if self.world.n > MAX_NETWORK_ID:
            raise ConfigError(f"n_uwn {self.world.n} exceeds the "
                              f"{MAX_NETWORK_ID} network IDs of a run")
        self.profile = config.water_profile()
        self.budget = config.link_budget()
        self.model = config.depth_model()
        self.bs = BsState(config)
        self.nodes = [
            uwn.UwnState(node=i, original_depth=self.world.bodies[i].depth_ref)
            for i in range(self.world.n)
        ]
        self.trace_lines: list[str] | None = [] if collect_trace else None
        self._heap: list = []
        self._seq = 0
        self._delay_sum = 0.0
        self._delay_count = 0
        # ACCESSED nodes holding a relay duty; neither is ever undone
        self._duty_nodes: list[int] = []
        # emissions repeat identically while nothing moves; a delivery
        # verdict is reused while both positions are the same objects and
        # both bearings have the same values
        self._deliver_cache: dict[tuple, tuple] = {}
        # an untraced relay arrival only matters if the relay forwards it,
        # so `_emit` skips relays whose partner is not the beam's claim
        self._skip_idle_relays = not collect_trace
        # an untraced frame arrival known to change nothing waits here as
        # (arrival time, sequence, delay) until its delay joins the tally
        self._tally_inert = not collect_trace
        self._inert: list[tuple[float, int, float]] = []
        self._next_tx = config.first_superframe_offset_s
        # once the network settles, the only observable tail activity is the
        # repeated per-frame delivery delays, which can be replayed exactly;
        # anything that makes the tail non-repetitive disables the shortcut.
        # A drifting node may come into reach later, so a drifting world
        # qualifies only when no position in its region box is out of reach
        self._may_fast_forward = (
            not collect_trace
            and config.p_frame_loss == 0.0
            and (config.first_superframe_offset_s
                 + config.acoustic_range_m / self.profile.sound_speed
                 < config.superframe_period_s)
            and (not self.world.drifting
                 or _box_in_reach(self.world, config.acoustic_range_m)))
        # the ping time at which the settled tail was replayed, if it was
        self.settled_at: float | None = None
        self._finished = False

    # -- plumbing ------------------------------------------------------------

    def _push(self, t: float, kind: str, a=None, b=None) -> None:
        heappush(self._heap, (t, self._seq, kind, a, b))
        self._seq += 1

    def _tally_until(self, t: float, seq: int) -> None:
        """Add the delays of inert arrivals ordered before `(t, seq)`."""
        inert = self._inert
        total, count = self._delay_sum, self._delay_count
        key = (t, seq)
        while inert and inert[0] < key:
            total += pop_tally(inert)[2]
            count += 1
        self._delay_sum, self._delay_count = total, count

    def _trace(self, t: float, kind: str, subject: str, detail: str) -> None:
        if self.trace_lines is not None:
            self.trace_lines.append(f"{t!r} {kind} {subject} {detail}")

    # -- event handlers --------------------------------------------------------

    def _on_ping(self, t: float) -> None:
        snapshot = [(i, self.world.position_of(i, t))
                    for i in range(self.world.n)]
        detections = self.bs.sonar_scan(snapshot, self.rng)
        new_ids = self.bs.allocate(detections, t)
        self.bs.update_decomposition(detections, t)
        if self.trace_lines is not None:
            detected = len(detections) + self.bs.settled_returns
            self._trace(t, SONAR_PING, "bs",
                        f"detected={detected} new={len(new_ids)}")
        if self._may_fast_forward and self._quiescent(t):
            self.settled_at = t
            self._fast_forward_tail()
            self._heap.clear()  # nothing left can change the report
            return
        # the ping doubles as the wake-up trigger for dormant nodes
        reach = self.cfg.acoustic_range_m
        speed = self.profile.sound_speed
        for i, _pos in snapshot:
            if self.nodes[i].lifecycle is NODE_DORMANT:
                d = self.world.bs_distance_of(i, t)
                if d <= reach:
                    delay = d / speed
                    self._push(t + delay, ACOUSTIC_ARRIVAL, i,
                               ("trigger", None, d, delay))
        self._push(t, TIMEOUT_CHECK)
        self._push(t + self.cfg.superframe_period_s, SONAR_PING)

    def _quiescent(self, t: float) -> bool:
        """True once no future event can change anything but delay tallies.

        Every record must be terminal (accessed or failed), every node
        settled with zero vertical velocity, and every node in reach at
        ping time `t` already registered.  Terminal records put only
        CONFIRM and RELAY_RX slots in a frame, and every frame lands before
        the next ping, so an unaccessed node left over can match nothing.
        A static node's reach never changes, and a drifting world passes
        the gate only if every node stays in reach, so none can come into
        reach later and be registered.
        """
        for rec in self.bs.registry.values():
            if rec.stage is not STAGE_FAILED \
                    and rec.stage is not STAGE_ACCESSED:
                return False
        reach = self.cfg.acoustic_range_m
        for i, state in enumerate(self.nodes):
            if self.world.bodies[i].v_down != 0.0:
                return False
            if state.lifecycle is NODE_ACCESSED:
                continue
            if self.world.bs_distance_of(i, t) > reach:
                continue
            # registered nodes need no stage check: CONFIRMs land before a ping
            if self.bs.record_for_track(i) is None:
                return False
        return True

    def _fast_forward_tail(self) -> None:
        """Replay the settled tail's delivery delays in exact loop order.

        The tail is inert.  Terminal records send only CONFIRM and
        RELAY_RX slots.  A CONFIRM finds every node bound to its ID
        accessed already.  A RELAY_RX re-sets
        `relay_duty.receiver_bearing`, but no node emits a beam in the
        tail, so no bearing is ever read.  Sonar re-scans move
        `sonar_position` and clear `bs_angles`, which changes slot angles
        but never a terminal stage.  Misdetection and depth-noise draws
        consume the random stream, but nothing reads it afterwards.

        What the report sees of the tail is `_delay_sum`, which the run
        loop adds to as the heap pops each frame's arrivals.  So this walks
        the transmit times as the loop builds them (from `_next_tx`, then
        `t += period`) and sums each frame's `bs_distance_of(i, t) /
        speed` in the heap's `(t + delay, i)` order, stopping at `t_max`
        as SIM_END does.  Sorted by `(delay, i)`, the delays come out in
        that order unless two of them, with descending node indices, round
        to one arrival time; such a frame is re-sorted by its arrival
        times.  A static world computes its delays once; a drifting world
        recomputes them every frame, so wall clamping is replayed by
        `World._coords`.
        """
        if not self.bs.registry:
            return
        world = self.world
        reach = self.cfg.acoustic_range_m
        speed = self.profile.sound_speed
        t = self._next_tx
        t_max = self.cfg.t_max_s
        period = self.cfg.superframe_period_s
        # no arrival lands later than this; one ulp of it is the widest
        # gap two delays can have and still round to one arrival time
        tie_gap = math.ulp(t_max + reach / speed)
        total, count = self._delay_sum, self._delay_count
        delays: list[tuple[float, int]] | None = None
        while t < t_max:
            if delays is None or world.drifting:
                delays = []
                for i in range(world.n):
                    d = world.bs_distance_of(i, t)
                    if d <= reach:
                        delays.append((d / speed, i))
                delays.sort()
                may_tie = any(
                    later[0] - first[0] <= tie_gap and first[1] > later[1]
                    for first, later in zip(delays, delays[1:]))
            frame = sorted(delays, key=lambda e: (t + e[0], e[1])) \
                if may_tie else delays
            for delay, _ in frame:
                if t + delay >= t_max:  # the loop stops at SIM_END too
                    break
                total += delay
                count += 1
            t += period
        self._delay_sum, self._delay_count = total, count

    def _on_timeout_check(self, t: float) -> None:
        self.bs.handle_timeouts(t)
        if self.trace_lines is not None:
            self._trace(t, TIMEOUT_CHECK, "bs", "")

    def _on_superframe_tx(self, t: float) -> None:
        if self.bs.registry:
            frame = self.bs.compose_superframe(t)
            payload = encode(frame)  # validates the frame, sizes the trace
            # receivers share the composed slots; decode(payload) == frame
            index = FrameIndex(frame)
            by_id = index.by_id
            reach = self.cfg.acoustic_range_m
            speed = self.profile.sound_speed
            p_loss = self.cfg.p_frame_loss
            tally_inert = self._tally_inert
            for i in range(self.world.n):
                d = self.world.bs_distance_of(i, t)
                if d > reach:
                    continue
                if p_loss > 0.0 and self.rng.random() < p_loss:
                    continue
                delay = d / speed
                if tally_inert:
                    # a bound node heeds only its own slot, an accessed one
                    # only a relay assignment; binding is never undone and
                    # access is final, so this holds until the arrival lands,
                    # and the `own_depth` it would write is rewritten before
                    # anything reads it
                    state = self.nodes[i]
                    nid = state.matched_id
                    if nid is not None:
                        slot = by_id.get(nid)
                        if slot is None or (state.lifecycle is NODE_ACCESSED
                                            and slot.stage
                                            is not SLOT_RELAY_RX):
                            heappush(self._inert,
                                     (t + delay, self._seq, delay))
                            self._seq += 1
                            continue
                self._push(t + delay, ACOUSTIC_ARRIVAL, i,
                           ("frame", index, d, delay))
            if self.trace_lines is not None:
                slots = ",".join(
                    f"{s.network_id}:{s.stage.name}:{s.depth_code}"
                    f"{':C' if s.conflict_flag else ''}"
                    for s in frame.slots)
                self._trace(t, SUPERFRAME_TX, "bs",
                            f"frame={frame.frame_seq} nbytes={len(payload)} "
                            f"slots={slots}")
        self._next_tx = t + self.cfg.superframe_period_s
        self._push(self._next_tx, SUPERFRAME_TX)

    def _sync_motion(self, i: int, t: float, epoch_before: int) -> None:
        state = self.nodes[i]
        if state.movement_epoch == epoch_before:
            return
        self.world.set_vertical_velocity(i, state.vertical_velocity, t)
        if state.movement_deadline is not None:
            self._push(state.movement_deadline, MOVEMENT_EXPIRY, i,
                       state.movement_epoch)

    def _on_acoustic_arrival(self, t: float, i: int, payload) -> None:
        what, index, d, delay = payload
        self._delay_sum += delay
        self._delay_count += 1
        if self.trace_lines is not None:
            frame_seq = None if index is None else index.frame.frame_seq
            self._trace(t, ACOUSTIC_ARRIVAL, f"u{i}",
                        f"src=bs what={what} frame={frame_seq} dist={d!r} "
                        f"delay={delay!r}")
        state = self.nodes[i]
        if what == "trigger":
            uwn.on_trigger(state)
            return
        state.own_depth = self.world.depth_of(i, t)
        epoch_before = state.movement_epoch
        duty_before = state.relay_duty
        emissions = uwn.match_frame_indexed(state, index, self.model,
                                            self.cfg, self.rng, t)
        self._sync_motion(i, t, epoch_before)
        if state.relay_duty is not None and duty_before is None:
            self._duty_nodes.append(i)
        for emission in emissions:
            self._emit(i, emission, t)

    def _on_movement_expiry(self, t: float, i: int, epoch: int) -> None:
        state = self.nodes[i]
        if epoch != state.movement_epoch:
            return  # superseded by a newer draw
        state.own_depth = self.world.depth_of(i, t)
        before = state.movement_epoch
        uwn.on_movement_expiry(state, self.cfg, self.rng, t)
        if self.trace_lines is not None:
            self._trace(t, MOVEMENT_EXPIRY, f"u{i}",
                        f"v={state.vertical_velocity!r}")
        self._sync_motion(i, t, before)

    def _emit(self, src: int, emission: uwn.Emission, t: float) -> None:
        # A relay forwards only a beam that claims its partner's ID when the
        # arrival pops, at this same t.  Only an acoustic arrival can rebind
        # the partner, and only one already queued at t pops first, so with
        # nothing pending at t an untraced run skips the other relays.  Read
        # before the base station's arrival below is queued at t.
        heap = self._heap
        idle_skip = self._skip_idle_relays and (not heap or heap[0][0] > t)
        src_pos = self.world.position_of(src, t)
        beam_dir = unit_vector(emission.bearing)  # one per beam, not receiver
        self._try_deliver(src, emission, beam_dir, src_pos, "bs",
                          self.world.bs_position, None, math.pi / 2, t)
        claimed_id = emission.claimed_id
        for j in self._duty_nodes:
            if j == src:
                continue
            duty = self.nodes[j].relay_duty
            if idle_skip and duty.partner_id != claimed_id:
                continue
            self._try_deliver(src, emission, beam_dir, src_pos, j,
                              self.world.position_of(j, t),
                              duty.receiver_bearing,
                              self.budget.rx_fov_half_angle, t)

    def _try_deliver(self, src: int, emission: uwn.Emission,
                     beam_dir: tuple[float, float, float], src_pos: Position,
                     receiver, rx_pos: Position, rx_bearing: Bearing | None,
                     fov: float, t: float) -> None:
        # geometry and link outcome are pure in the inputs below; identical
        # repeats (retries while nothing moved) hit the cache
        key = (src, receiver)
        beam = emission.bearing
        hit = self._deliver_cache.get(key)
        if hit is not None and hit[0] is src_pos and hit[1] is rx_pos \
                and hit[2] == beam and hit[3] == rx_bearing:
            power = hit[4]
        else:
            power = self._delivery_power(src_pos, beam_dir, rx_pos,
                                         rx_bearing, fov)
            self._deliver_cache[key] = (src_pos, rx_pos, beam, rx_bearing,
                                        power)
        if power is None:
            return
        self._push(t, OPTICAL_ARRIVAL, receiver,
                   (src, emission.claimed_id, emission.relayed, power))

    def _delivery_power(self, src_pos: Position,
                        beam_dir: tuple[float, float, float],
                        rx_pos: Position, rx_bearing: Bearing | None,
                        fov: float) -> float | None:
        disp = (rx_pos.east - src_pos.east, rx_pos.north - src_pos.north,
                rx_pos.depth - src_pos.depth)
        # the squared length angle_between tests: it underflows to zero
        # for points under about 1.5e-154 m apart on every axis
        if disp[0] ** 2 + disp[1] ** 2 + disp[2] ** 2 == 0.0:
            return None
        if angle_between(beam_dir, disp) \
                > self.budget.divergence_half_angle:
            return None  # receiver outside the beam cone
        # no receiver bearing: the base station, looking straight down
        boresight = (0.0, 0.0, 1.0) if rx_bearing is None \
            else unit_vector(rx_bearing)
        toward_source = (-disp[0], -disp[1], -disp[2])
        if angle_between(boresight, toward_source) > fov:
            return None  # outside the receiver's field of view
        power = optical_received_power(src_pos, rx_pos, self.budget,
                                       self.profile)
        if power < self.budget.rx_sensitivity:
            return None
        return power

    def _on_optical_arrival(self, t: float, receiver, beam) -> None:
        src, claimed_id, relayed, power = beam
        if self.trace_lines is not None:
            subject = "bs" if receiver == "bs" else f"u{receiver}"
            self._trace(t, OPTICAL_ARRIVAL, subject,
                        f"src=u{src} claim={claimed_id} relayed={int(relayed)} "
                        f"power={power!r}")
        if receiver == "bs":
            self.bs.on_optical_arrival(claimed_id, relayed, t)
            return
        state = self.nodes[receiver]
        state.own_depth = self.world.depth_of(receiver, t)
        forwarded = uwn.forward_beam(state, claimed_id)
        if forwarded is not None:
            self._emit(receiver, forwarded, t)

    # -- run loop ----------------------------------------------------------------

    def run(self) -> SimReport:
        if self._finished:
            raise RuntimeError("Simulation objects are single-use")
        self._finished = True
        t_max = self.cfg.t_max_s
        self._push(t_max, SIM_END)
        self._push(0.0, SONAR_PING)
        self._push(self.cfg.first_superframe_offset_s, SUPERFRAME_TX)
        inert = self._inert
        while self._heap:
            t, seq, kind, a, b = heappop(self._heap)
            if inert and inert[0][0] <= t:
                # acoustic arrivals, the replay at a ping and the report
                # read the tally: bring it up to this event first
                self._tally_until(t, seq)
            if kind == SIM_END:
                if self.trace_lines is not None:
                    self._trace(t, SIM_END, "sim", "")
                break
            if kind == ACOUSTIC_ARRIVAL:
                self._on_acoustic_arrival(t, a, b)
            elif kind == OPTICAL_ARRIVAL:
                self._on_optical_arrival(t, a, b)
            elif kind == MOVEMENT_EXPIRY:
                self._on_movement_expiry(t, a, b)
            elif kind == SONAR_PING:
                self._on_ping(t)
            elif kind == TIMEOUT_CHECK:
                self._on_timeout_check(t)
            elif kind == SUPERFRAME_TX:
                self._on_superframe_tx(t)
        return self._build_report(t_max)

    def _build_report(self, t_max: float) -> SimReport:
        outcomes: list[NodeOutcome] = []
        edges: list[TopologyEdge] = []
        counts = {"accessed": 0, "failed": 0, "dormant": 0, "unresolved": 0}
        n_via = 0
        for i, state in enumerate(self.nodes):
            if state.lifecycle is NODE_CONFLICT_MOVING \
                    and state.conflict_entered_at is not None:
                state.total_conflict_time += t_max - state.conflict_entered_at
                state.conflict_entered_at = None
            rec = self.bs.record_for_track(i)
            nid = None if rec is None else rec.network_id
            via = False
            relay_name = None
            if state.lifecycle is NODE_ACCESSED:
                outcome = "accessed"
                if rec is not None and rec.via_relay and rec.relayed_by is not None:
                    via = True
                    relay_name = \
                        f"u{self.bs.registry[rec.relayed_by].track_key}"
                    n_via += 1
                    edges.append(TopologyEdge(f"u{i}", relay_name, 2))
                else:
                    edges.append(TopologyEdge(f"u{i}", "bs", 1))
            elif rec is not None and rec.stage is STAGE_FAILED:
                outcome = "failed"
            elif state.lifecycle is NODE_DORMANT:
                outcome = "dormant"
            else:
                outcome = "unresolved"
            counts[outcome] += 1
            body = self.world.bodies[i]
            outcomes.append(NodeOutcome(
                node=f"u{i}",
                network_id=nid,
                east=body.east0, north=body.north0,
                depth=state.original_depth,
                outcome=outcome,
                access_time=state.access_time,
                via_relay=via,
                relay=relay_name))
        n = self.world.n
        return SimReport(
            c0=self.cfg.c0,
            seed=self.seed,
            n_uwn=n,
            access_rate=(counts["accessed"] / n) if n else 1.0,
            dual_hop_rate=(n_via / n) if n else 0.0,
            avg_sound_delay_s=(self._delay_sum / self._delay_count
                               if self._delay_count else 0.0),
            max_decomp_delay_s=max(
                (s.total_conflict_time for s in self.nodes), default=0.0),
            n_accessed=counts["accessed"],
            n_failed=counts["failed"],
            n_dormant=counts["dormant"],
            n_unresolved=counts["unresolved"],
            nodes=tuple(outcomes),
            edges=tuple(edges),
            config=self.cfg.to_dict())


def _box_in_reach(world: World, reach: float) -> bool:
    """True when no position in the region box is beyond `reach` of the BS.

    Positions clip to the box, so the farthest corner bounds every node's
    base-station distance.  The corner's distance keeps the operand order
    of `World.bs_distance_of`; `** 2` goes through the C library's `pow`,
    which need not round exactly, and the relative margin covers that.
    """
    bs = world.bs_position
    east, north, depth = (
        max((0.0 - b) ** 2, (limit - b) ** 2)
        for b, limit in zip((bs.east, bs.north, bs.depth), world.region))
    return math.sqrt(east + north + depth) * (1.0 + 1e-12) <= reach


def simulate(config: SimConfig, seed: int | None = None,
             world: World | None = None,
             collect_trace: bool = False) -> SimResult:
    sim = Simulation(config, seed=seed, world=world, collect_trace=collect_trace)
    report = sim.run()
    lines = tuple(sim.trace_lines) if sim.trace_lines is not None else ()
    return SimResult(report, lines)


def run(config: SimConfig, seed: int | None = None) -> SimReport:
    """Simulate one run; identical (config, seed) give identical reports."""
    return simulate(config, seed=seed).report


def trace(config: SimConfig, seed: int | None = None) -> tuple[str, ...]:
    """Simulate one run and return the ordered event log."""
    return simulate(config, seed=seed, collect_trace=True).trace_lines
