"""Watching a depth conflict decompose.

Five nodes sit at exactly 100 m, indistinguishable to the sounder: the
base station flags the conflict and the nodes dive or climb at random
until each occupies its own bucket.  The broadcast log shows the buckets
drifting apart scan by scan.
"""

from random import Random

from uwoan import Position, SimConfig, Simulation, SlotStage, World
from uwoan.engine import SUPERFRAME_TX

SEED = 11
cfg = SimConfig(n_uwn=5)
rng = Random(SEED)
positions = [Position(rng.uniform(70, 130), rng.uniform(70, 130), 100.0)
             for _ in range(5)]
world = World(cfg.bs_position(), positions, (200.0, 200.0, 200.0))
sim = Simulation(cfg, seed=SEED, world=world, collect_trace=True)
report = sim.run()

print("five nodes at exactly 100.0 m; sounder resolution there is 1.0 m")
print()
print("broadcast slots per superframe (bucket, C = conflict flag):")
for t, kind, _, data in sim.events:
    if kind != SUPERFRAME_TX:
        continue
    frame, = data
    codes = []
    for slot in frame.slots:
        mark = "C" if slot.conflict_flag \
            else " " if slot.stage is SlotStage.ASSIGN else "*"
        codes.append(f"{slot.network_id}@{slot.depth_code}{mark}")
    print(f"  t={t:5.1f}  " + "  ".join(codes))
print("  (* = handshake finished for that node)")
print()

print("per-node outcome:")
for i, node in enumerate(report.nodes):
    state = sim.nodes[i]
    print(f"  {node.node}: {node.outcome} at t={node.access_time:.2f} s, "
          f"spent {state.total_conflict_time:.1f} s moving")
print()
print(f"max decomposition delay this run: {report.max_decomp_delay_s:.1f} s")
print("each resolved node stops, answers optically, and then returns to")
print("its original depth; every completed handshake thins the conflict")
print("pool and speeds up the stragglers.")
