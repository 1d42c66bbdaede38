"""Fixtures shared by the test modules.

`plain_loop` runs the simulator with its shortcuts turned off.  Each
shortcut lives in one attribute, and turning it off replaces that
attribute on its class with one that reads as "nothing stored" and drops
every write.  A new shortcut gets its equivalence test
(`test_engine.TestShortcuts`) by adding its line to `SHORTCUTS`, and the
mark a recording shows of it firing to `TestShortcuts.FIRED`.

`recorder` is the one harness of the differential tests.  `SCENARIOS` is
its table of rows; a run is a (row, water type, seed), and the corpus is
the first four rows over seeds 0 to 9, 120 runs.  The recorder simulates
a run at most once per mode and keeps what the tests read of it
(`Recording`).  A mode is traced or untraced, with a set of `SHORTCUTS`
entries off, turned off as `plain_loop` turns them off; the memo fills
lazily, so any test passes when run alone.  A recording comes only from
unpatched code: the recorder raises if any attribute it wraps, or any
shortcut's, is not the original, even when the run is already recorded.
Tests only read recordings.  `record` records a hand-built world the same
way, without the memo.  A test that patches the code simulates its own
runs, of the same rows (`Recorder.scenes`); only this module names the
table.

`check_trace_invariants` is the one checker of the protocol invariants a
traced run's event records show, and `check_held_ids` of the network IDs
the nodes hold at the end, for criterion 5 and `TestCausality`.
"""

import dataclasses
import math
import operator
import random
import sys
from array import array
from collections import Counter
from contextlib import contextmanager

import pytest

from uwoan import engine
from uwoan import node as uwn
from uwoan.base_station import BsState, NodeRecord
from uwoan.config import SimConfig
from uwoan.engine import SimResult, Simulation
from uwoan.frame import FrameIndex, SlotPayload, SlotStage, encode
from uwoan.geometry import Position
from uwoan.world import World, _Body


def _forgetful(read):
    """An attribute that always reads as `read()` and drops every write."""
    return property(lambda self: read(), lambda self, value: None)


# name -> (owner, attribute, replacement that turns the shortcut off)
SHORTCUTS = {
    # the settled-tail replay is never allowed
    "fast_forward": (Simulation, "_may_fast_forward",
                     _forgetful(lambda: False)),
    # static positions and base-station distances are recomputed per call
    "cached_pos": (_Body, "cached_pos", _forgetful(lambda: None)),
    "cached_bs_dist": (_Body, "cached_bs_dist", _forgetful(lambda: None)),
    # every beam is offered to every relay, as in a traced run
    "idle_relays": (Simulation, "_skip_idle_relays",
                    _forgetful(lambda: False)),
    # every sonar return is folded, unchanged ones too
    "unchanged_returns": (BsState, "_skip_unchanged",
                          _forgetful(lambda: False)),
    # every frame arrival goes through the event queue, as in a traced run
    "inert_arrivals": (Simulation, "_tally_inert",
                       _forgetful(lambda: False)),
    # every frame composes every slot afresh
    "kept_slots": (NodeRecord, "slot", _forgetful(lambda: None)),
    # an accessed relay's repeated RELAY_RX arrivals are queued
    "relay_rx_repeats": (Simulation, "_relay_rx_sent", _forgetful(dict)),
    # an answer beyond optical reach of every receiver is queued, and a
    # beam beyond it goes through the pointing math and the power formula
    "beyond_reach": (Simulation, "_optical_reach",
                     _forgetful(lambda: math.inf)),
    # every sonar return is tested against the acoustic range, as when
    # part of the region box lies out of reach
    "range_test": (BsState, "_skip_range_test", _forgetful(lambda: False)),
}


def _turn_off(patch, names):
    for name in names:
        owner, attribute, replacement = SHORTCUTS[name]
        # instance attributes have no class attribute to replace
        patch.setattr(owner, attribute, replacement, raising=False)


@pytest.fixture
def plain_loop():
    """`with plain_loop(*names):` turns the named shortcuts off, or all."""
    @contextmanager
    def shortcuts_off(*names):
        with pytest.MonkeyPatch.context() as patch:
            _turn_off(patch, names or SHORTCUTS)
            yield
    return shortcuts_off


@pytest.fixture(params=list(SHORTCUTS))
def shortcut(request):
    """The name of each shortcut in turn."""
    return request.param


@pytest.fixture
def shortcut_entry(shortcut):
    """The `SHORTCUTS` entry of each shortcut in turn."""
    return SHORTCUTS[shortcut]


# the paper's three water types (clear, coastal, turbid)
WATER_TYPES = (0.056, 0.120, 0.151)

# the longest period at which every frame lands before the next one is
# sent: acoustic_range_m / sound_speed
GATE = 1000.0 / 1500.0

# row -> (config overrides, co-depth placement); each row runs in every
# water type
SCENARIOS = {
    # the corpus.  The placement is the criterion-3 geometry scaled up, as
    # in the benchmark's codepth workload
    "static": ({}, False),
    "drift": ({"current_east_mps": 0.02}, False),
    "codepth": ({"n_uwn": 20}, True),
    "sonar_noise": ({"sonar_depth_noise_std_m": 3.0, "p_frame_loss": 0.1},
                    False),
    # currents along each axis and a diagonal.  An axis with no current
    # keeps its squared term through the settled-tail replay
    "north": ({"current_north_mps": -0.02}, False),
    "drift_north": ({"current_north_mps": 0.02}, False),
    "both": ({"current_east_mps": 0.03, "current_north_mps": 0.02}, False),
    "drift_diagonal": ({"current_east_mps": 0.03, "current_north_mps": -0.02},
                       False),
    # currents strong enough that nodes reach the walls and stay clamped
    # there.  Repeated additions of a 0.9 s period round differently from
    # offset + k * period, which moves a fast-drifting node's bits
    "wall": ({"current_east_mps": 5.0}, False),
    "wall_south": ({"current_north_mps": -5.0}, False),
    "wall_corner": ({"current_east_mps": -3.0, "current_north_mps": 4.0},
                    False),
    "wall_corner_0.9": ({"current_east_mps": -3.0, "current_north_mps": 4.0,
                         "superframe_period_s": 0.9}, False),
    # attenuation gradients and imperfect channels
    "gamma+": ({"gamma": 0.0003}, False),
    "gamma-": ({"gamma": -0.0002}, False),
    "loss": ({"p_frame_loss": 0.1}, False),
    "misdetect": ({"p_misdetect": 0.05}, False),
    "depth_noise": ({"sonar_depth_noise_std_m": 0.3}, False),
    # periods at the gate and just below it
    "at_gate": ({"superframe_period_s": GATE}, False),
    "below_gate": ({"superframe_period_s": GATE * (1.0 - 1e-9)}, False),
}
CORPUS = ("static", "drift", "codepth", "sonar_noise")
CORPUS_SEEDS = range(10)
PLAIN = frozenset(SHORTCUTS)  # every shortcut off

SLOT_FIELDS = operator.attrgetter(
    *(f.name for f in dataclasses.fields(SlotPayload)))


def codepth_world(cfg, seed):
    """20 nodes at 100 m depth over the central 80 m square."""
    rng = random.Random(seed)
    return World(cfg.bs_position(),
                 [Position(rng.uniform(60.0, 140.0), rng.uniform(60.0, 140.0),
                           100.0) for _ in range(20)],
                 (cfg.region_east_m, cfg.region_north_m, cfg.region_depth_m))


@dataclasses.dataclass
class Recording:
    """What one run showed."""

    cfg: SimConfig
    seed: int
    row: str | None           # None for a hand-built world
    result: SimResult
    nodes: list               # `Simulation.nodes` at the end
    seq: int                  # events queued (`Simulation._seq`)
    settled_at: float | None
    unchanged_returns: int    # `BsState.unchanged_returns` at the end
    # sonar returns folded in the scan over the run, from the SONAR_PING
    # records of a traced run; None untraced
    skipped: int | None
    slot_objects: int         # distinct slot objects composed
    # each composed slot whose field values at the end differ from those
    # it was composed with, as (values, slot)
    rewritten: list
    verdicts: int             # delivery verdicts (`_delivery_power` calls)
    powers: int               # calls of the power formula among them
    # the delay of every acoustic arrival handled, in the order popped
    delays: array
    # at each frame, for each relay duty: the stage of its partner's slot
    # in the frame, or None
    partner_stages: Counter
    # after each frame, for each duty naming a relayed record: whether
    # the duty's holder is bound to the record's relay
    duties_bound: Counter
    missed: bool              # `_answer_misses` kept some answer off the queue
    # the sonar made no range test (`BsState._skip_range_test`)
    range_untested: bool
    # (deadline, node) of each body still moving when the settled-tail
    # replay started
    movers: list
    # kept in the corpus with every shortcut on: every frame broadcast,
    # indexed, and every index a receiver matched, once
    frames: list | None = None
    matched: list | None = None
    # and traced: the frame of each SUPERFRAME_TX record
    tx_frames: list | None = None
    # kept in the corpus with every shortcut off: every frame's wire bytes
    frame_bytes: list | None = None

    @property
    def report(self):
        return self.result.report


# the attributes a recording wraps, as first imported
_WRAPPED = [(engine, "FrameIndex"), (engine, "encode"), (engine, "decode"),
            (engine, "optical_received_power"),
            (uwn, "match_frame_indexed"),
            (BsState, "compose_superframe"),
            (Simulation, "_on_superframe_tx"),
            (Simulation, "_answer_misses"),
            (Simulation, "_on_acoustic_arrival"),
            (Simulation, "_delivery_power"),
            (Simulation, "_fast_forward_tail")]
_ABSENT = object()
_ORIGINALS = [(owner, name, vars(owner).get(name, _ABSENT))
              for owner, name in _WRAPPED
              + [entry[:2] for entry in SHORTCUTS.values()]]


def _check_unpatched():
    for owner, name, original in _ORIGINALS:
        if vars(owner).get(name, _ABSENT) is not original:
            raise RuntimeError(
                f"{owner.__name__}.{name} is patched: a recording comes "
                f"only from unpatched code")


def record(cfg, seed, world=None, traced=False, off=(), row=None):
    """Simulate one run with the shortcuts named in `off` turned off."""
    _check_unpatched()
    off = frozenset(off)
    frames, matched, composed = [], {}, {}
    delays = array("d")
    partner_stages, duties_bound = Counter(), Counter()
    movers = []
    counts = Counter()

    def index_frame(frame):
        index = FrameIndex(frame)
        frames.append(index)
        return index

    def match(state, index, *args):
        matched[id(index)] = index
        return real_match(state, index, *args)

    def formula(*args):
        counts["powers"] += 1
        return real_formula(*args)

    def compose(self, now):
        frame = real_compose(self, now)
        for slot in frame.slots:
            if id(slot) not in composed:
                composed[id(slot)] = slot, SLOT_FIELDS(slot)
        return frame

    def transmit(self, t):
        sent = len(frames)
        real_transmit(self, t)
        index = frames[-1] if len(frames) > sent else None
        for state in self.nodes:
            duty = state.relay_duty
            if duty is None:
                continue
            if index is not None:
                slot = index.by_id.get(duty.partner_id)
                partner_stages[slot and slot.stage] += 1
            relayed_by = self.bs.registry[duty.partner_id].relayed_by
            if relayed_by is not None:
                duties_bound[state.matched_id == relayed_by] += 1

    def answer_misses(self, *args):
        missed = real_misses(self, *args)
        counts["missed"] += missed
        return missed

    def arrival(self, t, i, payload):
        delays.append(payload[3])
        real_arrival(self, t, i, payload)

    def delivery_power(self, *args):
        counts["verdicts"] += 1
        return real_power(self, *args)

    def no_codec(*args):
        raise AssertionError("the run loop encoded or decoded a frame")

    def replay(self):
        movers.extend((state.movement_deadline, i)
                      for i, state in enumerate(self.nodes)
                      if self.world.bodies[i].v_down != 0.0)
        real_replay(self)

    real_match = uwn.match_frame_indexed
    real_formula = engine.optical_received_power
    real_compose = BsState.compose_superframe
    real_transmit = Simulation._on_superframe_tx
    real_misses = Simulation._answer_misses
    real_arrival = Simulation._on_acoustic_arrival
    real_power = Simulation._delivery_power
    real_replay = Simulation._fast_forward_tail
    with pytest.MonkeyPatch.context() as patch:
        for (owner, name), wrapper in zip(_WRAPPED, [  # in the same order
                index_frame, no_codec, no_codec, formula, match, compose,
                transmit, answer_misses, arrival, delivery_power, replay]):
            patch.setattr(owner, name, wrapper)
        _turn_off(patch, off)
        sim = Simulation(cfg, seed, world, collect_trace=traced)
        report = sim.run()
        # read while the shortcuts named in `off` are still turned off
        range_untested = sim.bs._skip_range_test
    recording = Recording(
        cfg, seed, row,
        # interned, so the modes of one run share their equal lines
        SimResult(report, tuple(map(sys.intern, sim.trace_lines))
                  if traced else ()),
        sim.nodes, sim._seq, sim.settled_at, sim.bs.unchanged_returns,
        sum(data[1] for _, kind, _, data in sim.events
            if kind == engine.SONAR_PING) if traced else None,
        len(composed), [(values, slot) for slot, values in composed.values()
                        if SLOT_FIELDS(slot) != values],
        counts["verdicts"], counts["powers"], delays, partner_stages,
        duties_bound, counts["missed"] > 0, range_untested, movers)
    if row in CORPUS and seed in CORPUS_SEEDS:
        if not off:
            recording.frames = frames
            recording.matched = list(matched.values())
            if traced:
                recording.tx_frames = [
                    data[0] for _, kind, _, data in sim.events
                    if kind == engine.SUPERFRAME_TX]
        elif off == PLAIN:
            recording.frame_bytes = [encode(index.frame) for index in frames]
    return recording


class Recorder:
    """Each run of the table, simulated at most once per mode."""

    def __init__(self):
        self._memo = {}

    def run(self, row, c0, seed, traced=False, off=()):
        """The recording of `row` in water `c0` with `seed`."""
        _check_unpatched()  # for a run already recorded too
        key = row, c0, seed, traced, frozenset(off)
        if key not in self._memo:
            (cfg, seed, world), = self.scenes([row], [seed], [c0])
            self._memo[key] = record(cfg, seed, world, traced, off, row)
        return self._memo[key]

    def runs(self, rows, seeds, traced=False, off=()):
        """Recordings over rows x water types x seeds, in that order."""
        return [self.run(row, c0, seed, traced, off)
                for row in rows for c0 in WATER_TYPES for seed in seeds]

    def corpus(self, seeds=CORPUS_SEEDS, traced=False, off=()):
        return self.runs(CORPUS, seeds, traced, off)

    @staticmethod
    def scenes(rows, seeds, water_types=WATER_TYPES):
        """(config, seed, world) over rows x water types x seeds.

        A run mutates its world, so each one yielded is fresh.
        """
        for row in rows:
            overrides, placed = SCENARIOS[row]
            for c0 in water_types:
                cfg = SimConfig(c0=c0, **overrides)
                for seed in seeds:
                    yield cfg, seed, codepth_world(cfg, seed) if placed \
                        else None


@pytest.fixture(scope="session")
def recorder():
    return Recorder()


def check_trace_invariants(sim, report):
    """Assert the protocol invariants of a finished traced run.

    Its event records show that only the base station pings, checks
    timeouts and transmits, and that every acoustic arrival is a node
    receiving the base station's trigger or frame; a frame lands exactly
    `dist / 1500` after it was sent, and names no ID twice.  The ID every
    accessed node holds is sent an ASSIGN slot (HS1), then claimed by a
    beam at the base station (HS2), then sent a CONFIRM slot (HS3), all
    before the node is accessed.  The report shows unique IDs, relay
    fan-in of at most 1 and at most two hops.
    """
    frames, hs2 = {}, {}  # frame seq -> (time sent, {ID: stage}); ID -> HS2
    for t, kind, subject, data in sim.events:
        if kind in (engine.SONAR_PING, engine.SUPERFRAME_TX,
                    engine.TIMEOUT_CHECK):
            assert subject == "bs", "acoustic-side event not from the bs"
        if kind == engine.ACOUSTIC_ARRIVAL:
            what, seq, dist, delay = data
            assert isinstance(subject, int) \
                and what in ("trigger", "frame"), "node-originated acoustics"
            if what == "frame":
                assert delay == dist / 1500.0
                assert t == frames[seq][0] + delay
        elif kind == engine.SUPERFRAME_TX:
            frame, = data
            stages = {slot.network_id: slot.stage for slot in frame.slots}
            assert len(stages) == len(frame.slots), "duplicate slot id"
            frames[frame.frame_seq] = t, stages
        elif kind == engine.OPTICAL_ARRIVAL and subject == "bs":
            hs2.setdefault(data[1], t)
    ids = [n.network_id for n in report.nodes if n.network_id is not None]
    assert len(ids) == len(set(ids)), "duplicate network ids"
    relays_used = [e.dst for e in report.edges if e.hop == 2]
    assert len(relays_used) == len(set(relays_used)), "relay fan-in > 1"
    direct = {e.src for e in report.edges if e.dst == "bs"}
    assert all(dst in direct for dst in relays_used), "hop count > 2"
    for node, state in zip(report.nodes, sim.nodes):
        if node.outcome != "accessed":
            continue
        # the report prints the ID of the node's track record, which under
        # imperfect sounding need not be the one the node holds
        nid = state.matched_id
        hs1 = min(t for t, stages in frames.values()
                  if stages.get(nid) is SlotStage.ASSIGN)
        hs3 = min(t for t, stages in frames.values()
                  if stages.get(nid) is SlotStage.CONFIRM)
        assert hs1 < hs2[nid] < hs3 < node.access_time, \
            f"handshake order violated for id {nid}"


def check_held_ids(sim):
    """Assert that no network ID is held by two nodes, and that every bound
    node holds the ID of its own sonar track's record."""
    held = [s.matched_id for s in sim.nodes if s.matched_id is not None]
    assert len(held) == len(set(held)), "a network id held by two nodes"
    for i, state in enumerate(sim.nodes):
        if state.matched_id is not None:
            rec = sim.bs.record_for_track(i)
            assert rec is not None and rec.network_id == state.matched_id, \
                f"u{i} holds another record's network id"
