"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from uwoan import engine, report  # noqa: E402
from tracing import LayerTracer, _original, patch_targets  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402

NAMES = sorted(WORKLOADS)


def _patched_names() -> dict:
    names = {(engine, "heappop"): engine.heappop}
    for owner, attr, _layer, _key in patch_targets():
        names[(owner, attr)] = _original(owner, attr)
    return names


@pytest.mark.parametrize("name", NAMES)
def test_reports_under_tracing_are_byte_identical(name):
    workload = WORKLOADS[name]
    tracer = LayerTracer()
    for spec in workload.specs(3)[:2]:
        plain = workload.run(spec)
        with tracer:
            traced = tracer.measure(workload.run, spec)
        assert report.report_to_json(traced.report) \
            == report.report_to_json(plain.report)
        assert traced.report_json == plain.report_json
        assert traced.topology_json == plain.topology_json
        assert check_output(traced) is None
    assert tracer.runs == 2
    assert sum(tracer.events.values()) > 0


def test_no_patch_survives_the_context():
    before = _patched_names()
    tracer = LayerTracer()
    with tracer:
        inside = _patched_names()
        assert all(inside[k] is not v for k, v in before.items())
        with pytest.raises(RuntimeError):
            tracer.__enter__()
    assert _patched_names() == before
    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    after = _patched_names()
    assert all(after[k] is v for k, v in before.items())


def test_command_line_names_every_workload():
    import run
    assert sorted(run.WORKLOAD_NAMES) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_workload_specs_are_deterministic_in_the_seed(name):
    workload = WORKLOADS[name]
    first = workload.specs(5)
    assert first == workload.specs(5)
    assert len(first) == workload.runs_per_pass
    assert [s.seed for s in first] != [s.seed for s in workload.specs(6)]


@pytest.mark.parametrize("name", ["paper", "codepth"])
def test_counts_repeat_exactly(name):
    workload = WORKLOADS[name]
    specs = workload.specs(7)[:3]
    counts = []
    for _ in range(2):
        tracer = LayerTracer()
        for spec in specs:
            with tracer:
                tracer.measure(workload.run, spec)
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    assert counts[0]["engine.events_per_run"] > 0


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "paper", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
