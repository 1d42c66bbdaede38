import dataclasses
import json
import re
from dataclasses import asdict

import pytest

from uwoan.config import SimConfig
from uwoan.engine import run
from uwoan.report import (
    ReportError,
    TopologyEdge,
    aggregate,
    export_topology,
    parse_topology,
    report_from_json,
    report_to_json,
)


def small_report(seed=0, c0=0.056, **overrides):
    kwargs = dict(n_uwn=8, t_max_s=10.0, c0=c0, seed=seed)
    kwargs.update(overrides)
    return run(SimConfig(**kwargs))


class TestSerialization:
    def test_round_trip(self):
        report = small_report()
        assert report_from_json(report_to_json(report)) == report

    def test_canonical_bytes(self):
        report = small_report()
        assert report_to_json(report) == report_to_json(report)
        payload = json.loads(report_to_json(report))
        assert list(payload) == sorted(payload)

    def test_bytes_match_asdict_payload(self, recorder):
        # the payload as dataclasses.asdict builds it, edges renamed
        reports = [r.report for r in recorder.corpus(range(3))]
        assert any(edge.hop == 2 for r in reports for edge in r.edges)
        for report in reports:
            payload = asdict(report)
            payload["edges"] = [{"from": e.src, "to": e.dst, "hop": e.hop}
                                for e in report.edges]
            assert report_to_json(report) \
                == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_rejects_garbage(self):
        with pytest.raises(ReportError):
            report_from_json("not json")
        with pytest.raises(ReportError):
            report_from_json("{}")

    @pytest.mark.parametrize("text", ['"x"', "5", "null", "[1]"])
    def test_rejects_non_object_top_level(self, text):
        with pytest.raises(ReportError, match="top level"):
            report_from_json(text)

    @pytest.mark.parametrize("config", [[1], None, "x"])
    def test_rejects_non_object_config(self, config):
        payload = json.loads(report_to_json(small_report()))
        payload["config"] = config
        with pytest.raises(ReportError, match="config is"):
            report_from_json(json.dumps(payload))


class TestAggregate:
    def test_single_report_equals_itself(self):
        report = small_report()
        summary = aggregate([report])[0]
        assert summary["n_runs"] == 1
        assert summary["mean_access_rate"] == report.access_rate
        assert summary["std_access_rate"] == 0.0

    def test_order_insensitive(self):
        reports = [small_report(seed=s) for s in range(6)]
        fwd = aggregate(reports)
        rev = aggregate(list(reversed(reports)))
        assert fwd == rev

    def test_groups_by_c0(self):
        reports = [small_report(seed=s) for s in range(3)]
        reports += [small_report(seed=s, c0=0.12) for s in range(3)]
        summaries = aggregate(reports)
        assert [s["c0"] for s in summaries] == [0.056, 0.12]
        assert all(s["n_runs"] == 3 for s in summaries)

    def test_mixed_configs_rejected(self):
        a = small_report(seed=0)
        b = small_report(seed=1, t_max_s=12.0)
        with pytest.raises(ReportError, match="mixed configs"):
            aggregate([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ReportError):
            aggregate([])


class TestTopologyExport:
    def test_empty_report_has_only_bs(self):
        report = run(SimConfig(n_uwn=0, t_max_s=5.0), seed=0)
        topo = parse_topology(export_topology(report, "json"))
        assert [n["id"] for n in topo["nodes"]] == ["bs"]
        assert topo["edges"] == []

    def test_direct_access_single_edge(self):
        report = small_report()
        topo = parse_topology(export_topology(report, "json"))
        direct = [e for e in topo["edges"] if e["to"] == "bs"]
        assert all(e["hop"] == 1 for e in direct)

    def test_edges_round_trip(self):
        report = small_report(c0=0.151, seed=3)
        topo = parse_topology(export_topology(report, "json"))
        rebuilt = [(e["from"], e["to"], e["hop"]) for e in topo["edges"]]
        assert rebuilt == [(e.src, e.dst, e.hop) for e in report.edges]

    def test_relayed_node_has_two_hop_path(self):
        # find a seeded run with at least one dual-hop access
        for seed in range(40):
            report = run(SimConfig(n_uwn=30, c0=0.151, seed=seed))
            relayed = [n for n in report.nodes if n.via_relay]
            if relayed:
                break
        else:
            pytest.fail("no dual-hop access found in 40 seeds")
        topo = parse_topology(export_topology(report, "json"))
        edges = {(e["from"], e["to"]): e["hop"] for e in topo["edges"]}
        node = relayed[0]
        assert edges[(node.node, node.relay)] == 2
        assert edges[(node.relay, "bs")] == 1
        relay_outcome = [n for n in report.nodes if n.node == node.relay][0]
        assert relay_outcome.outcome == "accessed"

    def test_dot_output(self):
        report = small_report()
        dot = export_topology(report, "dot")
        assert dot.startswith("digraph")
        assert '"bs" [shape=box]' in dot
        assert dot == export_topology(report, "dot")  # deterministic

    def test_dot_escapes_quotes_and_backslashes(self):
        # names and outcomes are read back from a report file, so any text
        # may reach the DOT output; each must stay one quoted string
        names = ['u0" -> "bs', "u1\\", 'u2\\" [color=red]', "u3"]
        outcomes = ["accessed", "failed", "dormant", 'x"; "y']
        report = small_report()
        nodes = tuple(dataclasses.replace(node, node=name, outcome=outcome)
                      for node, name, outcome
                      in zip(report.nodes, names, outcomes))
        edges = (TopologyEdge(names[0], "bs", 1),
                 TopologyEdge(names[1], names[2], 2))
        text = report_to_json(dataclasses.replace(
            report, nodes=nodes, edges=edges))
        dot = export_topology(report_from_json(text), "dot")
        assert dot == (
            'digraph uwoan {\n'
            '  "bs" [shape=box];\n'
            '  "u0\\" -> \\"bs" [outcome="accessed"];\n'
            '  "u1\\\\" [outcome="failed"];\n'
            '  "u2\\\\\\" [color=red]" [outcome="dormant"];\n'
            '  "u3" [outcome="x\\"; \\"y"];\n'
            '  "u0\\" -> \\"bs" -> "bs";\n'
            '  "u1\\\\" -> "u2\\\\\\" [color=red]" [style=dashed];\n'
            '}\n')
        # read back, the quoted strings are the names and outcomes
        quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', dot)
        assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == [
            "bs", *(x for pair in zip(names, outcomes) for x in pair),
            names[0], "bs", names[1], names[2]]

    def test_unknown_format(self):
        with pytest.raises(ReportError, match="unknown topology format"):
            export_topology(small_report(), "svg")

    def test_parse_rejects_invalid_json(self):
        with pytest.raises(ReportError, match="invalid topology JSON"):
            parse_topology("not json")

    @pytest.mark.parametrize("text", ['["edges", "nodes"]', '"nodesedges"',
                                      "5", "null", '{"nodes": []}'])
    def test_parse_rejects_other_shapes(self, text):
        with pytest.raises(ReportError, match="exactly nodes and edges"):
            parse_topology(text)


class TestMetricsInvariants:
    def test_dual_hop_never_exceeds_access(self):
        for seed in range(15):
            for c0 in (0.056, 0.12, 0.151):
                report = run(SimConfig(n_uwn=20, c0=c0, seed=seed))
                assert 0.0 <= report.dual_hop_rate <= report.access_rate <= 1.0

    def test_edges_respect_hop_and_fan_in_rules(self):
        for seed in range(15):
            report = run(SimConfig(n_uwn=30, c0=0.151, seed=seed))
            relays_used = [e.dst for e in report.edges if e.hop == 2]
            assert len(relays_used) == len(set(relays_used))  # fan-in <= 1
            direct = {e.src for e in report.edges if e.dst == "bs"}
            for e in report.edges:
                if e.hop == 2:
                    assert e.dst in direct  # relay itself reaches the bs
