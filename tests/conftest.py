"""Fixtures shared by the test modules.

`plain_loop` runs the simulator with its shortcuts turned off.  Each
shortcut lives in one attribute, and turning it off replaces that
attribute on its class with one that reads as "nothing stored" and drops
every write.  A new shortcut gets its equivalence test
(`test_engine.TestShortcuts`) by adding its line to `SHORTCUTS`.
"""

from contextlib import contextmanager

import pytest

from uwoan.base_station import BsState, NodeRecord
from uwoan.engine import Simulation
from uwoan.world import _Body


def _forgetful(read):
    """An attribute that always reads as `read()` and drops every write."""
    return property(lambda self: read(), lambda self, value: None)


# name -> (owner, attribute, replacement that turns the shortcut off)
SHORTCUTS = {
    # the settled-tail replay is never allowed
    "fast_forward": (Simulation, "_may_fast_forward",
                     _forgetful(lambda: False)),
    # every delivery verdict is computed afresh
    "deliver_cache": (Simulation, "_deliver_cache", _forgetful(dict)),
    # static positions and base-station distances are recomputed per call
    "cached_pos": (_Body, "cached_pos", _forgetful(lambda: None)),
    "cached_bs_dist": (_Body, "cached_bs_dist", _forgetful(lambda: None)),
    # slot angles toward the base station are recomputed per frame
    "bs_angles": (NodeRecord, "bs_angles", _forgetful(lambda: None)),
    # every beam is offered to every relay, as in a traced run
    "idle_relays": (Simulation, "_skip_idle_relays",
                    _forgetful(lambda: False)),
    # every sonar return is folded, settled records' too
    "settled_returns": (BsState, "_skip_settled", _forgetful(lambda: False)),
    # every frame arrival goes through the event queue, as in a traced run
    "inert_arrivals": (Simulation, "_tally_inert",
                       _forgetful(lambda: False)),
}


@pytest.fixture
def plain_loop():
    """`with plain_loop(*names):` turns the named shortcuts off, or all."""
    @contextmanager
    def shortcuts_off(*names):
        with pytest.MonkeyPatch.context() as patch:
            for name in names or SHORTCUTS:
                owner, attribute, replacement = SHORTCUTS[name]
                # instance attributes have no class attribute to replace
                patch.setattr(owner, attribute, replacement, raising=False)
            yield
    return shortcuts_off


@pytest.fixture(params=list(SHORTCUTS))
def shortcut(request):
    """The name of each shortcut in turn."""
    return request.param
