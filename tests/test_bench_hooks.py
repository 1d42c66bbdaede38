"""The names the benchmark's layer tracer patches must keep existing.

`perfbench/tracing.py` replaces simulator entry points by name while it
counts and times runs.  Deleting or renaming one of them breaks the
benchmark without failing any simulator test, so this loads the tracer's
list of targets (it patches nothing on import) and checks every name.
"""

import importlib.util
from pathlib import Path

import pytest

from uwoan import engine
from uwoan.config import SimConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists():
    targets = [(engine, "heappop")]
    targets += [(owner, attr)
                for owner, attr, _, _ in load_tracing().patch_targets()]
    # classes are read through __dict__, as the tracer restores them
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not (attr in owner.__dict__ if isinstance(owner, type)
                       else hasattr(owner, attr))]
    assert missing == [], f"perfbench/tracing.py patches missing names: " \
                          f"{', '.join(missing)}"


@pytest.mark.parametrize("traced", [False, True])
def test_heappop_pops_only_events(traced, monkeypatch):
    # the tracer counts events by kind through `engine.heappop`, so any other
    # heap the engine pops through that name would be counted as events
    kinds = {engine.SONAR_PING, engine.SUPERFRAME_TX, engine.ACOUSTIC_ARRIVAL,
             engine.OPTICAL_ARRIVAL, engine.MOVEMENT_EXPIRY,
             engine.TIMEOUT_CHECK, engine.SIM_END}
    popped = []
    real = engine.heappop

    def recording(heap):
        item = real(heap)
        popped.append(item[2])
        return item

    monkeypatch.setattr(engine, "heappop", recording)
    engine.simulate(SimConfig(), seed=5, collect_trace=traced)
    assert len(popped) > 100
    assert set(popped) <= kinds, set(popped) - kinds
