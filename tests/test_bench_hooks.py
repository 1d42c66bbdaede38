"""The names the benchmark's layer tracer patches must keep existing.

`perfbench/tracing.py` replaces simulator entry points by name while it
counts and times runs.  Deleting or renaming one of them breaks the
benchmark without failing any simulator test, so this loads the tracer's
list of targets (it patches nothing on import) and checks every name.
"""

import importlib.util
from pathlib import Path

from uwoan import engine

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
