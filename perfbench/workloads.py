"""The benchmark's workloads and the output check applied to every run.

Each workload turns the benchmark seed into a fixed list of simulated runs
(config, simulation seed and, for ``codepth``, an explicit node placement)
and knows how to execute one of them the way a user of ``uwoan`` would.
Simulated time is always ``t_max_s = 50``.

The simulator is looked up through its modules at call time
(``engine.Simulation``, ``report.report_to_json``, ...), so the layer
tracer in ``tracing.py`` sees every call it patches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import uwoan
from uwoan import engine, report
from uwoan.geometry import Position
from uwoan.world import World

__all__ = ["RunSpec", "RunOutput", "Workload", "WORKLOADS", "check_output",
           "equivalent_report"]

# water types of the paper's turbidity sweep (clear, coastal, turbid)
C0_ROTATION = (0.056, 0.120, 0.151)

PAPER_BASE = "t_max_s = 50.0\n"
PAPER_CONFIGS = tuple(f"{PAPER_BASE}c0 = {c0}\n" for c0 in C0_ROTATION)
DRIFT_CONFIGS = tuple(f"{text}current_east_mps = 0.02\n"
                      for text in PAPER_CONFIGS)
CODEPTH_CONFIGS = (f"{PAPER_BASE}c0 = 0.056\nn_uwn = 20\n",)

# criterion-3 geometry scaled up: co-depth nodes over the central square
CODEPTH_NODES = 20
CODEPTH_DEPTH_M = 100.0
CODEPTH_SQUARE = (60.0, 140.0)


@dataclass(frozen=True)
class RunSpec:
    """One simulated run: a config, its seed and an optional placement."""

    config_text: str
    config: uwoan.SimConfig
    seed: int
    positions: tuple[tuple[float, float, float], ...] | None = None

    def world(self) -> World | None:
        """A fresh world for the placement (worlds are mutated by a run)."""
        if self.positions is None:
            return None
        cfg = self.config
        return World(cfg.bs_position(),
                     [Position(e, n, d) for e, n, d in self.positions],
                     (cfg.region_east_m, cfg.region_north_m,
                      cfg.region_depth_m),
                     (cfg.current_east_mps, cfg.current_north_mps))


@dataclass(frozen=True)
class RunOutput:
    """A run's report plus any artifacts the workload rendered from it."""

    report: uwoan.SimReport
    report_json: str | None = None
    topology_json: str | None = None


def _run_api(spec: RunSpec) -> RunOutput:
    return RunOutput(uwoan.run(spec.config, seed=spec.seed))


def _run_explicit_world(spec: RunSpec) -> RunOutput:
    sim = engine.Simulation(spec.config, seed=spec.seed, world=spec.world())
    return RunOutput(sim.run())


def _run_cli(spec: RunSpec) -> RunOutput:
    """What ``uwoan run`` does, with its four artifacts kept in memory."""
    result = engine.simulate(spec.config, seed=spec.seed, collect_trace=True)
    report_json = report.report_to_json(result.report)
    trace_log = "\n".join(result.trace_lines) + "\n"
    topology_json = report.export_topology(result.report, "json")
    topology_dot = report.export_topology(result.report, "dot")
    if not (trace_log and topology_dot):
        raise RuntimeError("uwoan run rendered an empty artifact")
    return RunOutput(result.report, report_json, topology_json)


def _placement(rng: random.Random) -> tuple[tuple[float, float, float], ...]:
    lo, hi = CODEPTH_SQUARE
    return tuple((rng.uniform(lo, hi), rng.uniform(lo, hi), CODEPTH_DEPTH_M)
                 for _ in range(CODEPTH_NODES))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config_texts: tuple[str, ...]
    runs_per_pass: int
    run: Callable[[RunSpec], RunOutput]
    collects_trace: bool = False
    places_nodes: bool = False

    def specs(self, seed: int) -> list[RunSpec]:
        """The runs of one pass, derived from the benchmark seed alone."""
        rng = random.Random(f"{self.name}:{seed}")
        configs = [uwoan.parse_config(text) for text in self.config_texts]
        out = []
        for k in range(self.runs_per_pass):
            j = k % len(configs)
            sim_seed = rng.randrange(2 ** 31)
            positions = _placement(rng) if self.places_nodes else None
            out.append(RunSpec(self.config_texts[j], configs[j], sim_seed,
                               positions))
        return out


WORKLOADS = {w.name: w for w in (
    Workload("paper",
             "paper-scale defaults over three water types via uwoan.run; "
             "settled-tail fast-forward and position caches are hit",
             PAPER_CONFIGS, 300, _run_api),
    Workload("cli_run",
             "what uwoan run does: traced simulate plus report and topology "
             "rendering; every frame is encoded and decoded",
             PAPER_CONFIGS, 100, _run_cli, collects_trace=True),
    Workload("drift",
             "paper configs with a 0.02 m/s current, which disables the "
             "fast-forward and every identity-keyed cache",
             DRIFT_CONFIGS, 100, _run_api),
    Workload("codepth",
             "20 nodes at 100 m depth over the central 80 m square; "
             "conflict decomposition and movement dominate",
             CODEPTH_CONFIGS, 100, _run_explicit_world, places_nodes=True),
)}


def check_output(out: RunOutput) -> str | None:
    """Return why a run's output is wrong, or None when it is consistent.

    Counts must sum to the deployment, rates must be fractions, the report
    must round-trip through its JSON form, and every topology edge must
    name an exported node.  The JSON and topology a workload rendered are
    reused; otherwise they are rendered here.
    """
    r = out.report
    if r.n_accessed + r.n_failed + r.n_dormant + r.n_unresolved != r.n_uwn:
        return f"outcome counts do not sum to n_uwn={r.n_uwn}"
    if len(r.nodes) != r.n_uwn:
        return f"{len(r.nodes)} node outcomes for n_uwn={r.n_uwn}"
    for name in ("access_rate", "dual_hop_rate"):
        value = getattr(r, name)
        if not 0.0 <= value <= 1.0:
            return f"{name}={value!r} outside [0, 1]"
    text = out.report_json
    if text is None:
        text = report.report_to_json(r)
    if report.report_from_json(text) != r:
        return "report does not round-trip through report_to_json"
    topology_json = out.topology_json
    if topology_json is None:
        topology_json = report.export_topology(r, "json")
    topology = report.parse_topology(topology_json)
    ids = {n["id"] for n in topology["nodes"]}
    if len(topology["edges"]) != len(r.edges):
        return "topology export lost edges"
    for edge in topology["edges"]:
        if edge["from"] not in ids or edge["to"] not in ids:
            return f"edge {edge['from']}->{edge['to']} names a missing node"
    return None


def equivalent_report(workload: Workload, spec: RunSpec,
                      out: RunOutput) -> str | None:
    """Re-run with the opposite trace setting; reports must be identical.

    Untraced runs may take the settled-tail shortcut and traced runs never
    do, so this checks the shortcut against the plain event loop.
    """
    other = engine.simulate(spec.config, seed=spec.seed, world=spec.world(),
                            collect_trace=not workload.collects_trace).report
    if report.report_to_json(other) != report.report_to_json(out.report):
        return "traced and untraced reports differ"
    return None
