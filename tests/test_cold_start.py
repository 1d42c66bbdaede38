"""Guard on start-up cost: importing the package or the CLI loads no module
that only serialization, aggregation or a sweep pool uses.

A paper-scale `uwoan run` spends longer starting up than simulating, so the
report helpers import `json` and `statistics`, and the sweep command `csv`
and its process pool, in the functions that use them.
"""

import subprocess
import sys
from pathlib import Path

import uwoan

SRC = str(Path(uwoan.__file__).resolve().parent.parent)

# only serialization, aggregation and sweeps use these
DEFERRED = ("json", "statistics", "csv", "concurrent.futures",
            "multiprocessing")

# the interpreter's own modules are taken before the path is set or
# anything imported, since `site` may preload some of them
PROBE = f"""
import sys
bare = set(sys.modules)
sys.path.insert(0, {SRC!r})
import uwoan
package = set(sys.modules)
import uwoan.cli
cli = set(sys.modules)
print(" ".join(sorted(package - bare)))
print(" ".join(sorted(cli - package)))
"""


def imported_modules():
    """The modules `import uwoan` adds to a fresh interpreter, and those
    `import uwoan.cli` adds after it."""
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                         text=True, check=True).stdout
    package, cli = out.splitlines()
    return set(package.split()), set(cli.split())


def test_imports_load_no_deferred_module():
    package, cli = imported_modules()
    assert "uwoan.engine" in package and "uwoan.cli" in cli  # not vacuous
    for name in DEFERRED:
        assert name not in package, f"import uwoan loads {name}"
        assert name not in cli, f"import uwoan.cli loads {name}"
