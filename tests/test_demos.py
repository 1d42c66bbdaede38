import os
import subprocess
import sys
from pathlib import Path

import pytest

import uwoan

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# each demo's expected stdout, one file per demo stem
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"


def test_demos_found():
    assert len(DEMOS) >= 6
    assert sorted(p.stem for p in EXPECTED.glob("*.out")) \
        == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(Path(uwoan.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (EXPECTED / f"{demo.stem}.out").read_text()
