"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line; run with

    pytest tests/test_acceptance.py -v -s

Criteria 1 and 2 share one 3000-run sweep at paper scale (50 nodes in a
200 m cube, 50 s budget, 1000 seeds per attenuation coefficient).
"""

import csv
import json
import math
import os
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import check_held_ids, check_trace_invariants
from scipy.integrate import quad

from uwoan.base_station import (
    BsState,
    HandshakeStage,
    NodeRecord,
    nearest_eligible_relay,
)
from uwoan.channel import (
    OpticalLinkBudget,
    WaterProfile,
    max_optical_range,
    path_transmittance,
)
from uwoan.cli import main as cli_main
from uwoan.config import SimConfig
from uwoan.engine import Simulation, run
from uwoan.frame import (
    MovementMarker,
    SlotPayload,
    SlotStage,
    SuperFrame,
    decode,
    encode,
)
from uwoan.geometry import (
    DepthModel,
    Position,
    bearing_from_to,
    distance,
    unit_vector,
)
from uwoan.world import World

C_VALUES = (0.056, 0.120, 0.151)
BANDS = {0.056: (0.93, 1.00), 0.120: (0.75, 0.95), 0.151: (0.50, 0.85)}
SEEDS_PER_C = 1000


def note(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _paper_run(task):
    c0, seed = task
    report = run(SimConfig(c0=c0, seed=seed))
    return c0, report.access_rate, report.dual_hop_rate


@pytest.fixture(scope="module")
def paper_sweep():
    tasks = [(c0, seed) for c0 in C_VALUES for seed in range(SEEDS_PER_C)]
    t0 = time.perf_counter()
    workers = os.cpu_count() or 1
    with ProcessPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(_paper_run, tasks, chunksize=32))
    elapsed = time.perf_counter() - t0
    access = {c0: [] for c0 in C_VALUES}
    dual = {c0: [] for c0 in C_VALUES}
    for c0, ar, dh in rows:
        access[c0].append(ar)
        dual[c0].append(dh)
    means = {c0: statistics.fmean(access[c0]) for c0 in C_VALUES}
    dual_means = {c0: statistics.fmean(dual[c0]) for c0 in C_VALUES}
    return means, dual_means, elapsed


def test_criterion_1_ordering(paper_sweep):
    means, dual_means, elapsed = paper_sweep
    decreasing = means[0.056] > means[0.120] > means[0.151]
    dual_smallest = dual_means[0.056] < dual_means[0.120] \
        and dual_means[0.056] < dual_means[0.151]
    in_budget = elapsed < 60.0
    note("criterion 1 (access ordering, dual-hop ordering, <60 s)",
         decreasing and dual_smallest and in_budget,
         f"access means {means[0.056]:.4f} > {means[0.120]:.4f} > "
         f"{means[0.151]:.4f}; dual-hop {dual_means[0.056]:.4f} vs "
         f"{dual_means[0.120]:.4f}/{dual_means[0.151]:.4f}; "
         f"sweep took {elapsed:.1f} s for {3 * SEEDS_PER_C} runs")


def test_criterion_2_calibration_bands(paper_sweep):
    means, _, _ = paper_sweep
    misses = [f"c0={c0}: {means[c0]:.4f} outside {BANDS[c0]}"
              for c0 in C_VALUES
              if not BANDS[c0][0] <= means[c0] <= BANDS[c0][1]]
    note("criterion 2 (calibration bands)", not misses,
         "; ".join(f"c0={c0}: {means[c0]:.4f} in {BANDS[c0]}"
                   for c0 in C_VALUES) if not misses else "; ".join(misses))


def test_criterion_3_decomposition_delay():
    cfg = SimConfig(n_uwn=5)
    n_runs = 1000
    resolved = 0
    delays = []
    for seed in range(n_runs):
        rng = random.Random(seed)
        positions = [Position(rng.uniform(60, 140), rng.uniform(60, 140),
                              100.0) for _ in range(5)]
        world = World(cfg.bs_position(), positions, (200.0, 200.0, 200.0))
        report = Simulation(cfg, seed=seed, world=world).run()
        delays.append(report.max_decomp_delay_s)
        if report.n_accessed == 5:
            resolved += 1
    delays.sort()
    p95 = delays[int(0.95 * n_runs)]
    ok = resolved >= 0.99 * n_runs and 3.0 <= p95 <= 20.0
    note("criterion 3 (decomposition delay scale)", ok,
         f"{resolved}/{n_runs} runs resolved all 5 co-depth nodes; "
         f"p95 max decomposition delay {p95:.2f} s in [3, 20] "
         f"(mean {statistics.fmean(delays):.2f} s)")


def _random_registry(rng):
    bs = BsState(SimConfig())
    n = rng.randint(2, 10)
    model = DepthModel()
    for i in range(n):
        depth = rng.uniform(0, 200)
        pos = Position(rng.uniform(0, 200), rng.uniform(0, 200), depth)
        stage = rng.choice((HandshakeStage.ACCESSED, HandshakeStage.ACCESSED,
                            HandshakeStage.AWAITING_BEAM,
                            HandshakeStage.CONFLICTED, HandshakeStage.FAILED))
        rec = NodeRecord(
            network_id=i + 1, track_key=i, sonar_position=pos,
            depth_code=model.bucket(depth), stage=stage,
            retries_remaining=5,
            access_time=1.0 if stage is HandshakeStage.ACCESSED else None)
        if stage is HandshakeStage.ACCESSED:
            if rng.random() < 0.25:
                rec.via_relay = True
            elif rng.random() < 0.25:
                rec.relay_of = 999
        bs.registry[i + 1] = rec
        bs._by_track[i] = i + 1
    return bs


def test_criterion_4_oracle_equivalence():
    rng = random.Random(0xDECADE)
    mismatches = 0
    for _ in range(10_000):
        bs = _random_registry(rng)
        target = bs.registry[rng.randint(1, len(bs.registry))]
        got = nearest_eligible_relay(bs.registry.values(), target)
        best = None  # independent exhaustive search
        for rec in bs.registry.values():
            if rec.network_id == target.network_id:
                continue
            if rec.stage is not HandshakeStage.ACCESSED:
                continue
            if rec.via_relay or rec.relay_of is not None:
                continue
            key = (math.dist(
                (rec.sonar_position.east, rec.sonar_position.north,
                 rec.sonar_position.depth),
                (target.sonar_position.east, target.sonar_position.north,
                 target.sonar_position.depth)), rec.network_id)
            if best is None or key < best[0]:
                best = (key, rec)
        if got is not (best[1] if best else None):
            mismatches += 1

    range_errors = 0
    worst = 0.0
    rng = random.Random(0xCAB1E)
    for _ in range(1000):
        budget = OpticalLinkBudget(
            tx_power=rng.uniform(0.01, 1.0),
            divergence_half_angle=math.radians(rng.uniform(0.2, 3.0)),
            rx_aperture_area=rng.uniform(1e-3, 2e-2),
            rx_sensitivity=10 ** rng.uniform(-12, -9))
        profile = WaterProfile(c0=rng.uniform(0.03, 0.3))
        got = max_optical_range(budget, profile)
        # independent oracle: plain 0.1 m linear scan
        grid = np.arange(0.1, 1500.0, 0.1)
        spot = np.pi * (grid * np.tan(budget.divergence_half_angle)) ** 2
        power = budget.tx_power * np.exp(-profile.c0 * grid) \
            * np.minimum(1.0, budget.rx_aperture_area / spot)
        feasible = np.nonzero(power >= budget.rx_sensitivity)[0]
        expected = 0.0 if len(feasible) == 0 else float(grid[feasible[-1]])
        err = abs(got - expected)
        worst = max(worst, err)
        if err > 0.2:
            range_errors += 1

    ok = mismatches == 0 and range_errors == 0
    note("criterion 4 (oracle equivalence)", ok,
         f"relay selection: {mismatches}/10000 mismatches; "
         f"max range vs 0.1 m scan: {range_errors}/1000 beyond 0.2 m "
         f"(worst {worst:.3f} m)")


def test_criterion_5_protocol_invariants():
    checked = 0
    for c0 in (0.120, 0.151):
        for seed in range(50):
            sim = Simulation(SimConfig(c0=c0, seed=seed), collect_trace=True)
            check_trace_invariants(sim, sim.run())
            check_held_ids(sim)
            checked += 1
    note("criterion 5 (protocol invariants over full traces)", True,
         f"{checked} seeded runs: no node-originated acoustics, exact "
         f"distance/1500 delays, HS1<HS2<HS3, unique ids, fan-in <= 1, "
         f"hops <= 2")


def test_criterion_6_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text("n_uwn = 20\nt_max_s = 15\nc0 = 0.12\nseed = 5\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        outs.append(out)
    files = ("report.json", "trace.log", "topology.json", "topology.dot")
    identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                    for f in files)

    seq_csv, par_csv = tmp_path / "seq.csv", tmp_path / "par.csv"
    for path, workers in ((seq_csv, "1"), (par_csv, "2")):
        assert cli_main(["sweep", "--config", str(cfg_path),
                         "--c-list", "0.056,0.151", "--seeds", "3",
                         "--out", str(path), "--workers", workers]) == 0
    sweep_identical = seq_csv.read_bytes() == par_csv.read_bytes()
    note("criterion 6 (byte-identical determinism)",
         identical and sweep_identical,
         f"run artifacts identical across invocations: {identical}; "
         f"sweep CSV identical across 1 vs 2 workers: {sweep_identical}")


def test_criterion_7_codec():
    vectors = json.loads(
        (Path(__file__).parent / "data" / "frame_vectors.json").read_text())
    golden_ok = 0
    for vec in vectors:
        slots = tuple(
            SlotPayload(s["network_id"], s["depth_code"], s["az"], s["el"],
                        SlotStage(s["stage"]), bool(s["conflict"]),
                        MovementMarker(s["marker"]), s["reset"], s["partner"])
            for s in vec["frame"]["slots"])
        frame = SuperFrame(vec["frame"]["frame_seq"], slots)
        assert encode(frame).hex() == vec["hex"]
        assert decode(bytes.fromhex(vec["hex"])) == frame
        golden_ok += 1

    rng = random.Random(0xACCE55)
    for _ in range(10_000):
        n = rng.randint(0, 8)
        ids = rng.sample(range(1, 1024), n)
        slots = []
        for nid in ids:
            partners = [p for p in ids if p != nid]
            if partners and rng.random() < 0.25:
                stage = rng.choice((SlotStage.RELAY_RX, SlotStage.RELAY_TX))
                partner = rng.choice(partners)
            else:
                stage = rng.choice((SlotStage.ASSIGN, SlotStage.CONFIRM))
                partner = 0
            slots.append(SlotPayload(
                nid, rng.randint(0, 16383), rng.randint(0, 35999),
                rng.randint(0, 18000), stage, rng.random() < 0.3,
                MovementMarker(rng.randint(0, 2)), rng.randint(0, 1),
                partner))
        frame = SuperFrame(rng.randint(0, 2**32 - 1), tuple(slots))
        data = encode(frame)
        assert len(data) == 6 + 9 * len(slots)
        assert decode(data) == frame
    note("criterion 7 (codec)", True,
         f"{golden_ok} golden vectors bit-exact; 10000 random frames "
         f"round-trip bit-exact")


def test_criterion_8_numerics():
    rng = random.Random(0xF10A7)
    worst_rel = 0.0
    for _ in range(1000):
        profile = WaterProfile(c0=rng.uniform(0.01, 0.3),
                               gamma=rng.uniform(0.0, 0.001))
        a = Position(rng.uniform(0, 200), rng.uniform(0, 200),
                     rng.uniform(0, 200))
        b = Position(rng.uniform(0, 200), rng.uniform(0, 200),
                     rng.uniform(0, 200))
        length = distance(a, b)
        if length == 0.0:
            continue
        oracle, _ = quad(
            lambda s: profile.c0 + profile.gamma
            * (a.depth + (b.depth - a.depth) * s / length),
            0.0, length, epsabs=1e-12, epsrel=1e-12)
        oracle = math.exp(-oracle)
        got = path_transmittance(a, b, profile)
        worst_rel = max(worst_rel, abs(got - oracle) / oracle)

    worst_pos = 0.0
    rng = random.Random(0xBEA12)
    for _ in range(2000):
        a = Position(rng.uniform(-500, 500), rng.uniform(-500, 500),
                     rng.uniform(0, 1000))
        b = Position(rng.uniform(-500, 500), rng.uniform(-500, 500),
                     rng.uniform(0, 1000))
        if a == b:
            continue
        d = distance(a, b)
        ue, un, ud = unit_vector(bearing_from_to(a, b))
        err = max(abs(a.east + ue * d - b.east),
                  abs(a.north + un * d - b.north),
                  abs(a.depth + ud * d - b.depth))
        worst_pos = max(worst_pos, err)

    ok = worst_rel < 1e-9 and worst_pos < 1e-6
    note("criterion 8 (numerics)", ok,
         f"transmittance vs quadrature: worst relative error "
         f"{worst_rel:.2e} (< 1e-9); bearing round-trip: worst component "
         f"error {worst_pos:.2e} m (< 1e-6)")
