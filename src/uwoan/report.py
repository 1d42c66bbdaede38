"""Run reports: per-node outcomes, summary metrics, topology export.

Report JSON is canonical (sorted keys, two-space indent, trailing
newline) so identical runs produce byte-identical files.  The topology
schema is ``{nodes: [{id, x, y, depth, outcome}], edges: [{from, to,
hop}]}``; DOT output is a digraph with the base station as the
distinguished box node.  Sweep CSV columns are fixed: c0, seed,
access_rate, dual_hop_rate, avg_sound_delay_s, max_decomp_delay_s,
n_failed, n_unresolved.
"""

from __future__ import annotations

# json and statistics are imported by the functions that use them, so that
# `import uwoan` loads neither: no run serializes or aggregates
from dataclasses import asdict, dataclass, field, fields

__all__ = [
    "ReportError",
    "NodeOutcome",
    "TopologyEdge",
    "SimReport",
    "report_to_json",
    "report_from_json",
    "aggregate",
    "export_topology",
    "parse_topology",
    "CSV_COLUMNS",
    "csv_row",
    "summary_csv_rows",
]

CSV_COLUMNS = ("c0", "seed", "access_rate", "dual_hop_rate",
               "avg_sound_delay_s", "max_decomp_delay_s",
               "n_failed", "n_unresolved")

_METRICS = ("access_rate", "dual_hop_rate", "avg_sound_delay_s",
            "max_decomp_delay_s", "n_failed", "n_unresolved")


class ReportError(ValueError):
    """Malformed report content or incompatible aggregation input."""


@dataclass(frozen=True)
class NodeOutcome:
    node: str                      # stable id, "u<i>" in deployment order
    network_id: int | None
    east: float
    north: float
    depth: float                   # deployment depth
    outcome: str                   # accessed / failed / dormant / unresolved
    access_time: float | None = None
    via_relay: bool = False
    relay: str | None = None


@dataclass(frozen=True)
class TopologyEdge:
    src: str
    dst: str
    hop: int                       # 1 = direct to BS, 2 = leg of a dual-hop path


@dataclass(frozen=True)
class SimReport:
    c0: float
    seed: int
    n_uwn: int
    access_rate: float
    dual_hop_rate: float
    avg_sound_delay_s: float
    max_decomp_delay_s: float
    n_accessed: int
    n_failed: int
    n_dormant: int
    n_unresolved: int
    nodes: tuple[NodeOutcome, ...] = field(default_factory=tuple)
    edges: tuple[TopologyEdge, ...] = field(default_factory=tuple)
    config: dict = field(default_factory=dict)


def report_to_json(report: SimReport) -> str:
    import json

    # field by field, so each node is converted once, below
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    payload["nodes"] = [asdict(n) for n in report.nodes]
    payload["edges"] = [{"from": e.src, "to": e.dst, "hop": e.hop}
                        for e in report.edges]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> SimReport:
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(f"invalid report JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ReportError("invalid report structure: top level is "
                          f"{type(payload).__name__}, not an object")
    config = payload.get("config", {})
    if not isinstance(config, dict):
        raise ReportError("invalid report structure: config is "
                          f"{type(config).__name__}, not an object")
    try:
        nodes = tuple(NodeOutcome(**n) for n in payload.pop("nodes"))
        edges = tuple(TopologyEdge(e["from"], e["to"], e["hop"])
                      for e in payload.pop("edges"))
        return SimReport(nodes=nodes, edges=edges, **payload)
    except (KeyError, TypeError) as exc:
        raise ReportError(f"invalid report structure: {exc}") from None


def aggregate(reports: list[SimReport]) -> list[dict]:
    """Per-c0 mean and population sigma of every metric.

    Groups are keyed by c0; every report in a group must share its
    configuration apart from the seed.  The fold is order-insensitive:
    inputs are sorted by (c0, seed) before summing.
    """
    import statistics

    if not reports:
        raise ReportError("nothing to aggregate")
    groups: dict[float, list[SimReport]] = {}
    for rep in sorted(reports, key=lambda r: (r.c0, r.seed)):
        groups.setdefault(rep.c0, []).append(rep)
    out = []
    for c0 in sorted(groups):
        members = groups[c0]
        reference = {k: v for k, v in members[0].config.items() if k != "seed"}
        for rep in members[1:]:
            other = {k: v for k, v in rep.config.items() if k != "seed"}
            if other != reference:
                raise ReportError(
                    f"mixed configs within the c0={c0} group")
        row: dict = {"c0": c0, "n_runs": len(members)}
        for metric in _METRICS:
            values = [float(getattr(r, metric)) for r in members]
            row[f"mean_{metric}"] = statistics.fmean(values)
            row[f"std_{metric}"] = statistics.pstdev(values)
        out.append(row)
    return out


def csv_row(report: SimReport) -> list:
    return [report.c0, report.seed, report.access_rate, report.dual_hop_rate,
            report.avg_sound_delay_s, report.max_decomp_delay_s,
            report.n_failed, report.n_unresolved]


def summary_csv_rows(summaries: list[dict]) -> list[list]:
    """One CSV row per c0 group, seed column set to 'mean'."""
    return [[s["c0"], "mean"] + [s[f"mean_{m}"] for m in _METRICS]
            for s in summaries]


def _dot_quoted(value) -> str:
    """`value` as a double-quoted DOT string, `\\` and `"` escaped.

    Names and outcomes come from the report file, so an unescaped quote in
    one would end the string and let the rest read as DOT statements.
    """
    text = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def export_topology(report: SimReport, fmt: str = "json") -> str:
    """Render the access topology as canonical JSON or a DOT digraph."""
    if fmt == "json":
        import json

        payload = {
            "nodes": [{"id": "bs", "x": report.config.get("bs_east_m"),
                       "y": report.config.get("bs_north_m"),
                       "depth": 0.0, "outcome": "base_station"}]
                     + [{"id": n.node, "x": n.east, "y": n.north,
                         "depth": n.depth, "outcome": n.outcome}
                        for n in report.nodes],
            "edges": [{"from": e.src, "to": e.dst, "hop": e.hop}
                      for e in report.edges],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "dot":
        lines = ["digraph uwoan {", '  "bs" [shape=box];']
        for n in report.nodes:
            lines.append(
                f"  {_dot_quoted(n.node)} [outcome={_dot_quoted(n.outcome)}];")
        for e in report.edges:
            style = "" if e.hop == 1 else " [style=dashed]"
            lines.append(
                f"  {_dot_quoted(e.src)} -> {_dot_quoted(e.dst)}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ReportError(f"unknown topology format '{fmt}'")


def parse_topology(text: str) -> dict:
    """Parse exported JSON topology back into its dict form."""
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(f"invalid topology JSON: {exc}") from None
    if not isinstance(payload, dict) or set(payload) != {"nodes", "edges"}:
        raise ReportError("topology JSON must have exactly nodes and edges")
    return payload
