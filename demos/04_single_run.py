"""One full initialization run, narrated from its event records.

Deploys the paper-scale scenario (50 nodes in a 200 m cube) in coastal
water, runs the engine once, and walks through what happened: the first
handshakes, any dual-hop rescues, and the final topology.
"""

from uwoan import SimConfig, Simulation, export_topology
from uwoan.engine import OPTICAL_ARRIVAL, format_event

cfg = SimConfig(c0=0.120, seed=7)
sim = Simulation(cfg, collect_trace=True)
report = sim.run()

print(f"scenario: {cfg.n_uwn} nodes, c0={cfg.c0}, seed={cfg.seed}, "
      f"{cfg.t_max_s:.0f} s budget")
print()
print("first events on the wire:")
for event in sim.events[:6]:
    print("  " + format_event(event)[:110])
print("  ...")
print()

# a beam's record data is (source node, claimed ID, relayed, power)
relayed = [beam[2] for _, kind, receiver, beam in sim.events
           if kind == OPTICAL_ARRIVAL and receiver == "bs"]
print(f"optical arrivals at the base station: {relayed.count(False)} direct "
      f"beams, {relayed.count(True)} relayed")
print()

print("outcome:")
print(f"  accessed    {report.n_accessed:3d}  "
      f"({report.access_rate:.0%}, {report.dual_hop_rate:.0%} via relay)")
print(f"  failed      {report.n_failed:3d}")
print(f"  unresolved  {report.n_unresolved:3d}")
print(f"  mean one-way acoustic delay {report.avg_sound_delay_s * 1000:.1f} ms")
print(f"  worst decomposition delay   {report.max_decomp_delay_s:.1f} s")
print()

dual = [n for n in report.nodes if n.via_relay]
if dual:
    n = dual[0]
    print(f"example dual-hop rescue: {n.node} could not reach the base "
          f"station directly;")
    print(f"  accessed at t={n.access_time:.2f} s through relay {n.relay}")
    print()

dot = export_topology(report, "dot")
print(f"topology as DOT ({len(report.edges)} edges; dashed = relay leg):")
for line in dot.splitlines()[:8]:
    print("  " + line)
print("  ...")
