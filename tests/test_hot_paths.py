"""Guards on the per-step code paths.

On Python 3.10 and 3.11 every `SomeEnum.MEMBER` read goes through
`EnumType.__getattr__`, about ten times the cost of reading a module
global.  The engine, base-station, node and frame modules therefore bind
each member to a module-level alias once, and no function in them reads a
member through its class.  Class bodies (dataclass field defaults) are
evaluated once and may keep the class form.

The state classes read and written on every step declare `__slots__`, so
their instances have no `__dict__`: attribute access goes straight to a
fixed offset, and a misspelt attribute raises instead of being stored.
"""

import ast
import inspect
from dataclasses import dataclass

import pytest

from uwoan import base_station, engine, frame, node
from uwoan.base_station import HandshakeStage, NodeRecord
from uwoan.frame import MovementMarker, SlotPayload, SlotStage
from uwoan.node import Lifecycle, UwnState
from uwoan.world import _Body

HOT_MODULES = (engine, base_station, node, frame)

# enum class -> (alias prefix, module that binds the aliases)
ALIASES = {
    HandshakeStage: ("STAGE_", base_station),
    Lifecycle: ("NODE_", node),
    SlotStage: ("SLOT_", frame),
    MovementMarker: ("MARKER_", frame),
}
ENUMS = {cls.__name__: cls for cls in ALIASES}


def member_reads(source: str) -> list[str]:
    """`function:line Enum.MEMBER` for every member read inside a function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        for sub in ast.walk(fn):
            if not isinstance(sub, ast.Attribute):
                continue
            owner = sub.value
            # `HandshakeStage.X` or a module-qualified `uwn.Lifecycle.X`
            cls_name = owner.id if isinstance(owner, ast.Name) \
                else owner.attr if isinstance(owner, ast.Attribute) else None
            cls = ENUMS.get(cls_name)
            if cls is not None and sub.attr in cls.__members__:
                found.append(f"{name}:{sub.lineno} {cls_name}.{sub.attr}")
    return found


@pytest.mark.parametrize("module", HOT_MODULES, ids=lambda m: m.__name__)
def test_no_enum_member_read_through_its_class(module):
    assert member_reads(inspect.getsource(module)) == []


def test_guard_catches_a_reintroduced_read():
    source = inspect.getsource(base_station)
    anchor = "        seen_relays: set[int] = set()\n"
    assert anchor in source
    mutated = source.replace(
        anchor, anchor + "        _ = HandshakeStage.ACCESSED\n", 1)
    reads = member_reads(mutated)
    assert len(reads) == 1
    assert reads[0].startswith("_check_invariants:")
    assert reads[0].endswith(" HandshakeStage.ACCESSED")


def test_guard_sees_module_qualified_and_nested_reads():
    source = (
        "class C:\n"
        "    default = Lifecycle.DORMANT\n"           # class body: allowed
        "    def m(self):\n"
        "        return lambda s: s is uwn.Lifecycle.ACCESSED\n"
        "def f(x):\n"
        "    return x == SlotStage.ASSIGN or MovementMarker.__members__\n")
    assert sorted(member_reads(source)) == [
        "<lambda>:4 Lifecycle.ACCESSED",
        "f:6 SlotStage.ASSIGN",
        "m:4 Lifecycle.ACCESSED",
    ]


@pytest.mark.parametrize("cls", ALIASES, ids=lambda c: c.__name__)
def test_each_alias_is_the_member_of_the_same_name(cls):
    prefix, module = ALIASES[cls]
    aliases = {name[len(prefix):]: value for name, value in vars(module).items()
               if name.startswith(prefix) and isinstance(value, cls)}
    assert set(aliases) == set(cls.__members__)
    for member_name, value in aliases.items():
        assert value is cls[member_name], member_name
        assert f"{prefix}{member_name}" in module.__all__


def test_importers_share_the_aliases():
    # every module that imports an alias holds the same member object
    for cls, (prefix, home) in ALIASES.items():
        for module in HOT_MODULES:
            for name, value in vars(module).items():
                if name.startswith(prefix) and hasattr(home, name) \
                        and name[len(prefix):] in cls.__members__:
                    assert value is getattr(home, name), \
                        f"{module.__name__}.{name}"


STEP_STATE = (NodeRecord, UwnState, SlotPayload, _Body)


def has_instance_dict(cls) -> bool:
    return "__dict__" in dir(cls)


@pytest.mark.parametrize("cls", STEP_STATE, ids=lambda c: c.__name__)
def test_step_state_has_no_instance_dict(cls):
    assert not has_instance_dict(cls)


def test_slots_guard_catches_a_dict_class():
    @dataclass
    class Plain:
        x: int

    @dataclass(slots=True)
    class Slotted:
        x: int

    class Subclass(Slotted):  # no __slots__ of its own: regains a dict
        pass

    assert has_instance_dict(Plain) and has_instance_dict(Subclass)
    assert not has_instance_dict(Slotted)
