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
pointing, link-budget, and field-of-view checks; a beam beyond optical
reach fails first (`_delivery_power`).  An untraced run offers a beam to
a relay only if the relay would forward it: an arrival that the relay
drops changes nothing a report shows, while the trace logs every physical
arrival, so traced runs offer each beam to every relay.

Settled nodes cost little.  The base station's per-period passes walk only
its live records, those neither accessed nor failed (`BsState.settled`
tells when none is left).  It sends each record's last slot again as the
same object while nothing it depends on changes.  A CONFIRM slot carries
no angles, since no receiver reads them, so it depends only on its
record's ID and frozen depth code and outlasts the moves of the record
and of its relay in a drifting world.  It skips the sonar return of a
record that saw no motion and holds the same position, whatever its stage,
and makes no range test when the whole region box is in acoustic reach
(`BsState.sonar_scan`).
An untraced run keeps a frame arrival off the event queue when it is
known to change nothing: the node is bound to an ID and does not heed the
frame (`node.heeds`); or its slot equals the RELAY_RX slot last queued to
it while it was accessed; or it is bound but not accessed, and the beam
it answers with can reach no receiver, being beyond optical reach of the
base station and, for a RELAY_TX slot, of the relay (`_answer_misses`),
in a static or a drifting world.  Binding is never undone and access is
final, so that still holds when the arrival lands.  The last two need
every frame to land before the next one is sent: a repeated RELAY_RX
re-sets the duty the earlier one set, which has landed by then.  The duty
is a function of the slot's field values and is only ever read by value,
so an equal slot object composed afresh is a repeat too.
`_on_superframe_tx` gives the argument for an answer that misses.

Each frame is checked against the wire rules (`SuperFrame.validate`) when
it is sent, but never encoded: receivers share the composed slots.

A traced run records each event as `(t, kind, subject, data)` in
`Simulation.events`; `format_event` writes one as a `trace.log` line.

Every acoustic delivery, queued or kept off the queue, logs its arrival
time and delay when it is sent, so the log is in sequence order.  Each
ping, and the end of the run, sorts the log stably by arrival time and
adds the delays that land before it, in that order: the `(time, sequence)`
order in which the plain loop pops the arrivals.  A delivery sent after a
fold at `t` lands at or after `t`, so `avg_sound_delay_s` is summed in the
exact order of the plain loop and keeps every bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import add, itemgetter
from random import Random

from . import node as uwn
from .base_station import MAX_NETWORK_ID, STAGE_FAILED, BsState
from .channel import optical_reach_bound, optical_received_power
from .config import ConfigError, SimConfig
from .frame import FrameIndex, SlotPayload
# the run loop calls neither; perfbench/tracing.py and its tests patch both
from .frame import decode, encode  # noqa: F401
from .geometry import Bearing, Position, angle_between, distance, unit_vector
from .node import (NODE_ACCESSED, NODE_CONFLICT_MOVING, NODE_DORMANT, answers,
                   answers_directly, heeds)
from .report import NodeOutcome, SimReport, TopologyEdge
from .world import World, deploy

__all__ = ["Simulation", "SimResult", "format_event", "simulate", "run",
           "trace"]

SONAR_PING = "SONAR_PING"
SUPERFRAME_TX = "SUPERFRAME_TX"
ACOUSTIC_ARRIVAL = "ACOUSTIC_ARRIVAL"
OPTICAL_ARRIVAL = "OPTICAL_ARRIVAL"
MOVEMENT_EXPIRY = "MOVEMENT_EXPIRY"
TIMEOUT_CHECK = "TIMEOUT_CHECK"
SIM_END = "SIM_END"


def format_event(event: tuple) -> str:
    """The `trace.log` line of one event record `(t, kind, subject, data)`."""
    t, kind, subject, data = event
    if kind == ACOUSTIC_ARRIVAL:  # most events are arrivals
        what, frame_seq, dist, delay = data
        return (f"{t!r} {kind} u{subject} src=bs what={what} "
                f"frame={frame_seq} dist={dist!r} delay={delay!r}")
    if kind == SUPERFRAME_TX:
        frame, = data
        slots = ",".join(
            f"{s.network_id}:{s.stage.name}:{s.depth_code}"
            f"{':C' if s.conflict_flag else ''}" for s in frame.slots)
        return (f"{t!r} {kind} bs frame={frame.frame_seq} "
                f"nbytes={frame.nbytes} slots={slots}")
    if kind == SONAR_PING:
        found, skipped, new = data
        return f"{t!r} {kind} bs detected={found + skipped} new={new}"
    if kind == OPTICAL_ARRIVAL:
        src, claimed_id, relayed, power = data
        receiver = subject if subject == "bs" else f"u{subject}"
        return (f"{t!r} {kind} {receiver} src=u{src} claim={claimed_id} "
                f"relayed={int(relayed)} power={power!r}")
    if kind == MOVEMENT_EXPIRY:
        return f"{t!r} {kind} u{subject} v={data[0]!r}"
    return f"{t!r} {kind} {subject} "  # TIMEOUT_CHECK and SIM_END


# the sort key of an `(arrival time, delay)` log entry
_ARRIVAL_TIME = itemgetter(0)


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
        # a run has only MAX_NETWORK_ID IDs; checked before deploy draws
        # a node, since it draws any count
        n = config.n_uwn if world is None else world.n
        if n > MAX_NETWORK_ID:
            raise ConfigError(f"n_uwn {n} exceeds the "
                              f"{MAX_NETWORK_ID} network IDs of a run")
        self.world = world if world is not None else deploy(config, self.rng)
        self.profile = config.water_profile()
        self.budget = config.link_budget()
        self.model = config.depth_model()
        # no position in the region box lies beyond acoustic reach of the
        # base station; the sonar sounds from the config's position, which
        # a hand-built world need not share
        in_reach = _box_in_reach(self.world, config.acoustic_range_m)
        self.bs = BsState(config, box_in_reach=in_reach and (
            self.world.bs_position == config.bs_position()))
        self.nodes = [
            uwn.UwnState(original_depth=body.depth_ref)
            for body in self.world.bodies
        ]
        self.events: list[tuple] | None = [] if collect_trace else None
        self._heap: list = []
        self._seq = 0
        # (arrival time, delay) of every acoustic delivery, in sequence
        # order, until `_fold` adds the delay to the tally
        self._arrivals: list[tuple[float, float]] = []
        self._delay_sum = 0.0
        self._delay_count = 0
        # ACCESSED nodes holding a relay duty; neither is ever undone
        self._duty_nodes: list[int] = []
        # an untraced relay arrival only matters if the relay forwards it,
        # so `_emit` skips relays whose partner is not the beam's claim
        self._skip_idle_relays = not collect_trace
        # an untraced frame arrival known to change nothing is only logged
        self._tally_inert = not collect_trace
        # gates the two skips below: an untraced run in which every frame
        # lands before the next one is sent, so a frame's arrivals have all
        # landed by the next frame
        self._lands_first = not collect_trace and (
            config.acoustic_range_m / self.profile.sound_speed
            <= config.superframe_period_s)
        # the RELAY_RX slot last queued to each accessed node: a slot equal
        # to it re-sets an equal duty
        self._relay_rx_sent: dict[int, SlotPayload] = {}
        # no optical link longer than this closes: no longer beam reaches
        # the pointing math, and a bound node's answer from farther away
        # from every receiver is only logged
        self._optical_reach = optical_reach_bound(
            self.budget, self.profile, self.world.region[2])
        # how fast the current moves a body, or less against a wall
        self._drift_speed = math.hypot(*self.world.current)
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
            and (not self.world.drifting or in_reach))
        # the ping time at which the settled tail was replayed, if it was
        self.settled_at: float | None = None
        self._finished = False

    # -- plumbing ------------------------------------------------------------

    def _push(self, t: float, kind: str, a=None, b=None) -> None:
        heappush(self._heap, (t, self._seq, kind, a, b))
        self._seq += 1

    def _fold(self, t: float) -> None:
        """Add the logged delays that land before `t`, in loop order.

        The stable sort keeps sequence order among equal arrival times, and
        `reduce` adds left to right: float `sum` is compensated from
        Python 3.12 on, which would change the bits.
        """
        arrivals = self._arrivals
        arrivals.sort(key=_ARRIVAL_TIME)
        n = bisect_left(arrivals, t, key=_ARRIVAL_TIME)
        self._delay_sum = reduce(add, [delay for _, delay in arrivals[:n]],
                                 self._delay_sum)
        self._delay_count += n
        del arrivals[:n]

    @property
    def trace_lines(self) -> list[str] | None:
        """The `trace.log` lines of the event records; None untraced."""
        if self.events is None:
            return None
        return [format_event(event) for event in self.events]

    # -- event handlers --------------------------------------------------------

    def _on_ping(self, t: float) -> None:
        self._fold(t)  # the replay below continues from this tally
        snapshot = list(enumerate(self.world.positions(t)))
        detections = self.bs.sonar_scan(snapshot, self.rng)
        new_ids = self.bs.allocate(detections, t)
        self.bs.update_decomposition(detections, t)
        if self.events is not None:
            self.events.append((t, SONAR_PING, "bs", (
                len(detections), self.bs.unchanged_returns, len(new_ids))))
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
                    self._arrivals.append((t + delay, delay))
                    self._push(t + delay, ACOUSTIC_ARRIVAL, i,
                               ("trigger", None, d, delay))
        self._push(t, TIMEOUT_CHECK)
        self._push(t + self.cfg.superframe_period_s, SONAR_PING)

    def _quiescent(self, t: float) -> bool:
        """True once no future event can change anything but delay tallies.

        The base station must hold no live record (every record accessed
        or failed, both final), every node settled with zero vertical
        velocity, and every node in reach at ping time `t` already
        registered.  Terminal records put only
        CONFIRM and RELAY_RX slots in a frame, and every frame lands before
        the next ping, so an unaccessed node left over can match nothing.
        A static node's reach never changes, and a drifting world passes
        the gate only if every node stays in reach, so none can come into
        reach later and be registered.
        """
        if not self.bs.settled:
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
        `sonar_position` and drop kept slots, which changes slot angles but
        never a terminal stage.  Misdetection and depth-noise draws consume
        the random stream, but nothing reads it afterwards.

        What the report sees of the tail is `_delay_sum`, to which the run
        loop adds each frame's delays in the order the heap pops its
        arrivals.  The ping has folded every earlier delay, so this walks
        the transmit times as the loop builds them (from `_next_tx`, then
        `t += period`) and sums each frame's `bs_distance_of(i, t) /
        speed` in the heap's `(t + delay, i)` order, stopping at `t_max`
        as SIM_END does.  Sorted by `(delay, i)`, the delays come out in
        that order unless two of them, with descending node indices, round
        to one arrival time; such a frame is re-sorted by its arrival
        times.  A static world computes its delays once.  A drifting world
        recomputes them every frame in one batched pass,
        `World.bs_distances_at_rest`, which clamps at the walls as
        `bs_distance_of` does and squares the terms that cannot change
        (depth, and any axis with no current) once per replay.  The replay
        adds to the tally directly rather than through the arrival log,
        which measured slower.
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
        bs_distances = world.bs_distances_at_rest()
        delays: list[tuple[float, int]] | None = None
        while t < t_max:
            if delays is None or world.drifting:
                delays = sorted((d / speed, i)
                                for i, d in enumerate(bs_distances(t))
                                if d <= reach)
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
        if self.events is not None:
            self.events.append((t, TIMEOUT_CHECK, "bs", ()))

    def _on_superframe_tx(self, t: float) -> None:
        """Compose, check and broadcast a frame; queue what can matter.

        When every frame lands before the next one is sent, an untraced
        run only logs the arrival of a bound, unaccessed node whose answer
        can reach no receiver (`_answer_misses`), and sets the bearing
        that answer leaves along now: the only write the arrival makes.
        That is exact:
        - No optical link longer than `_optical_reach` closes.
        - The node, and a forwarder, move less before the arrival lands
          than the margin `_answer_misses` takes off their distances.
        - No relay forwards an ASSIGN answer: a duty only ever names a
          record that was RELAY_PENDING when its RELAY_RX was composed, and
          no record returns to an ASSIGN stage after that.
        - A RELAY_TX answer has no forwarder but a node bound to the slot's
          partner, the relay's ID: a record gets one relay at most, and a
          node binds only to an ASSIGN slot, which no accessed record, so no
          relay, is sent again.  A beam reaching another relay in an
          untraced run changes nothing (`_emit`).
        - No earlier frame is in flight, and a bound node changes only
          through its own frame arrivals, so its state when the arrival
          lands is its state now.  Nothing reads an unaccessed node's
          bearing, and it draws no random number for the arrival.
        - Skipped pushes shift later sequence numbers but keep their
          order.  They leave `_emit`'s idle-relay test exact: such an
          arrival rebinds no duty.
        """
        if self.bs.registry:
            frame = self.bs.compose_superframe(t)
            frame.validate()
            # receivers share the composed slots
            index = FrameIndex(frame)
            by_id = index.by_id
            reach = self.cfg.acoustic_range_m
            speed = self.profile.sound_speed
            p_loss = self.cfg.p_frame_loss
            t_max = self.cfg.t_max_s
            arrivals = self._arrivals
            tally_inert = self._tally_inert
            lands_first = self._lands_first
            relay_rx_sent = self._relay_rx_sent
            for i, d in enumerate(self.world.bs_distances(t)):
                if d > reach:
                    continue
                if p_loss > 0.0 and self.rng.random() < p_loss:
                    continue
                delay = d / speed
                arrivals.append((t + delay, delay))
                if tally_inert:
                    # what a bound node does not heed now it never will:
                    # binding is never undone and access is final.  A slot
                    # equal to the RELAY_RX last queued re-sets an equal duty
                    state = self.nodes[i]
                    if state.matched_id is not None:
                        slot = by_id.get(state.matched_id)
                        if not heeds(state, slot):
                            continue
                        if state.lifecycle is NODE_ACCESSED:
                            if lands_first:
                                if relay_rx_sent.get(i) == slot:
                                    continue
                                relay_rx_sent[i] = slot
                        elif lands_first and answers(state, slot) \
                                and self._answer_misses(i, slot, t, d, delay):
                            if t + delay < t_max:  # else it never lands
                                uwn.aim(state, slot)
                            continue
                self._push(t + delay, ACOUSTIC_ARRIVAL, i,
                           ("frame", index, d, delay))
            if self.events is not None:
                self.events.append((t, SUPERFRAME_TX, "bs", (frame,)))
        self._next_tx = t + self.cfg.superframe_period_s
        self._push(self._next_tx, SUPERFRAME_TX)

    def _answer_misses(self, i: int, slot: SlotPayload, t: float, d: float,
                       delay: float) -> bool:
        """Whether node `i`'s answer to `slot` can reach no receiver.

        The frame sent at `t` reaches the node, `d` from the base station,
        after `delay`.  By then each end of a link has moved at most the
        current's speed plus its vertical speed times the delay: the
        current moves both ends alike, except against a wall, and a bound
        node's vertical speed can only fall until a CONFIRM reaches it,
        which this frame sends neither to the node nor to its relay.  The
        answer misses if every receiver is still beyond `_optical_reach`:
        the base station, and for a RELAY_TX answer every node bound to the
        relay's ID.
        """
        bodies = self.world.bodies
        optical_reach = self._optical_reach
        moved = (self._drift_speed + abs(bodies[i].v_down)) * delay
        if d - moved <= optical_reach:
            return False
        if answers_directly(self.nodes[i], slot):
            return True
        position_of = self.world.position_of
        src = position_of(i, t)
        relay_id = slot.partner_id
        for j, state in enumerate(self.nodes):
            if state.matched_id == relay_id \
                    and distance(src, position_of(j, t)) \
                    - (moved + abs(bodies[j].v_down) * delay) <= optical_reach:
                return False
        return True

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
        if self.events is not None:
            frame_seq = None if index is None else index.frame.frame_seq
            self.events.append((t, ACOUSTIC_ARRIVAL, i,
                                (what, frame_seq, d, delay)))
        state = self.nodes[i]
        if what == "trigger":
            uwn.on_trigger(state)
            return
        epoch_before = state.movement_epoch
        duty_before = state.relay_duty
        emissions = uwn.match_frame_indexed(state, index, self.model,
                                            self.cfg, self.rng, t,
                                            self.world.depth_of(i, t))
        self._sync_motion(i, t, epoch_before)
        if state.relay_duty is not None and duty_before is None:
            self._duty_nodes.append(i)
        for emission in emissions:
            self._emit(i, emission, t)

    def _on_movement_expiry(self, t: float, i: int, epoch: int) -> None:
        state = self.nodes[i]
        if epoch != state.movement_epoch:
            return  # superseded by a newer draw
        before = state.movement_epoch
        uwn.on_movement_expiry(state, self.cfg, self.rng, t,
                               self.world.depth_of(i, t))
        if self.events is not None:
            self.events.append((t, MOVEMENT_EXPIRY, i,
                                (state.vertical_velocity,)))
        self._sync_motion(i, t, before)

    def _emit(self, src: int, emission: uwn.Emission, t: float) -> None:
        """Offer a beam to its receivers: queue its arrival at each one
        `_delivery_power` lets it reach, the base station first."""
        # A relay forwards only a beam that claims its partner's ID when the
        # arrival pops, at this same t.  Only an acoustic arrival can rebind
        # the partner, and only one already queued at t pops first, so with
        # nothing pending at t an untraced run skips the other relays.  Read
        # before the base station's arrival below is queued at t.
        heap = self._heap
        idle_skip = self._skip_idle_relays and (not heap or heap[0][0] > t)
        src_pos = self.world.position_of(src, t)
        beam_dir = unit_vector(emission.bearing)  # one per beam, not receiver
        claimed_id, relayed = emission.claimed_id, emission.relayed
        power = self._delivery_power(src_pos, beam_dir, self.world.bs_position,
                                     None, math.pi / 2)
        if power is not None:
            self._push(t, OPTICAL_ARRIVAL, "bs",
                       (src, claimed_id, relayed, power))
        for j in self._duty_nodes:
            if j == src:
                continue
            duty = self.nodes[j].relay_duty
            if idle_skip and duty.partner_id != claimed_id:
                continue
            power = self._delivery_power(src_pos, beam_dir,
                                         self.world.position_of(j, t),
                                         duty.receiver_bearing,
                                         self.budget.rx_fov_half_angle)
            if power is not None:
                self._push(t, OPTICAL_ARRIVAL, j,
                           (src, claimed_id, relayed, power))

    def _delivery_power(self, src_pos: Position,
                        beam_dir: tuple[float, float, float],
                        rx_pos: Position, rx_bearing: Bearing | None,
                        fov: float) -> float | None:
        """The power a beam along `beam_dir` lands at `rx_pos`, or None.

        None for a link longer than `_optical_reach`, which no closing link
        is, before any pointing math; else None outside the beam cone or
        the receiver's field of view, or below the sensitivity.
        """
        disp = (rx_pos.east - src_pos.east, rx_pos.north - src_pos.north,
                rx_pos.depth - src_pos.depth)
        # the squared length angle_between tests: it underflows to zero
        # for points under about 1.5e-154 m apart on every axis.  The
        # bound's margin dwarfs the rounding of either square
        length2 = disp[0] ** 2 + disp[1] ** 2 + disp[2] ** 2
        if length2 == 0.0 or length2 > self._optical_reach ** 2:
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
        if self.events is not None:
            self.events.append((t, OPTICAL_ARRIVAL, receiver, beam))
        _, claimed_id, relayed, _ = beam
        if receiver == "bs":
            self.bs.on_optical_arrival(claimed_id, relayed, t)
            return
        forwarded = uwn.forward_beam(self.nodes[receiver], claimed_id)
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
        while self._heap:
            t, _, kind, a, b = heappop(self._heap)
            if kind == SIM_END:
                if self.events is not None:
                    self.events.append((t, SIM_END, "sim", ()))
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
        # arrivals at `t_max` pop after SIM_END, which was queued first
        self._fold(t_max)
        return self._build_report(t_max)

    def _build_report(self, t_max: float) -> SimReport:
        outcomes: list[NodeOutcome] = []
        edges: list[TopologyEdge] = []
        counts = {"accessed": 0, "failed": 0, "dormant": 0, "unresolved": 0}
        n_via = 0
        for i, state in enumerate(self.nodes):
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
            # a node still moving counts its open conflict up to t_max
            max_decomp_delay_s=max(
                (s.total_conflict_time + (t_max - s.conflict_entered_at)
                 if s.lifecycle is NODE_CONFLICT_MOVING
                 else s.total_conflict_time for s in self.nodes),
                default=0.0),
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
    return SimResult(report, tuple(sim.trace_lines or ()))


def run(config: SimConfig, seed: int | None = None) -> SimReport:
    """Simulate one run; identical (config, seed) give identical reports."""
    return simulate(config, seed=seed).report


def trace(config: SimConfig, seed: int | None = None) -> tuple[str, ...]:
    """Simulate one run and return the ordered event log."""
    return simulate(config, seed=seed, collect_trace=True).trace_lines
