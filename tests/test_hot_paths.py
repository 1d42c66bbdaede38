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

from uwoan import base_station, engine, frame, node, world
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


# The sonar ping reads every node: `World.positions` builds each position
# from clipped coordinates, valid by construction, and `sonar_scan`
# unpacks each return once and tests its reach inline.  A validating
# constructor or a distance call per return is a Python-level call each.
PER_RETURN_CALLS = ("Position", "Detection", "distance")


def calls_of(tree, names) -> list[str]:
    """`name:line` for each call under `tree` of one of `names`: bare, as
    `module.name`, or as a class method such as `Position._make`."""
    found = []
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        name = func.id if isinstance(func, ast.Name) \
            else func.attr if isinstance(func, ast.Attribute) else None
        if name not in names and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            name = func.value.id
        if name in names:
            found.append(f"{name}:{sub.lineno}")
    return found


def method(source: str, cls: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(source)
    owner = next(n for n in tree.body
                 if isinstance(n, ast.ClassDef) and n.name == cls)
    return next(n for n in owner.body
                if isinstance(n, ast.FunctionDef) and n.name == name)


def per_return_calls(source: str) -> list[str]:
    """The calls named above inside `BsState.sonar_scan`'s loop."""
    scan = method(source, "BsState", "sonar_scan")
    return [call for loop in scan.body if isinstance(loop, ast.For)
            for call in calls_of(loop, PER_RETURN_CALLS)]


def world_position_calls(source: str) -> list[str]:
    """`Position` calls in `World.positions`, and in `World.position_of`
    outside its static-body branch, the one that tests `drifting`."""
    computed = [stmt for stmt in method(source, "World", "position_of").body
                if not (isinstance(stmt, ast.If)
                        and "drifting" in ast.unparse(stmt.test))]
    return calls_of(method(source, "World", "positions"), ("Position",)) \
        + [call for stmt in computed for call in calls_of(stmt, ("Position",))]


def test_no_validating_call_per_sonar_return():
    assert per_return_calls(inspect.getsource(base_station)) == []


def test_world_positions_skip_the_validating_constructor():
    assert world_position_calls(inspect.getsource(world)) == []


def test_per_return_guard_sees_each_form():
    source = (
        "class BsState:\n"
        "    def sonar_scan(self, snapshot):\n"
        "        bs = Position(0, 0, 0)\n"                  # before the loop
        "        for key, pos in snapshot:\n"
        "            if distance(bs, pos) > 1:\n"
        "                continue\n"
        "            for extra in ():\n"
        "                geometry.distance(bs, extra)\n"
        "            out = [Detection._make(p) for p in (pos,)]\n"
        "            pos = new(Position, pos)\n"            # no call of it
        "        return Detection(0, bs, 0)\n")            # after the loop
    assert sorted(per_return_calls(source)) == [
        "Detection:9", "distance:5", "distance:8"]


def test_world_guard_sees_each_form():
    source = (
        "class World:\n"
        "    def position_of(self, i, t):\n"
        "        if body.v_down == 0.0 and not self.drifting:\n"
        "            return Position(1, 2, 3)\n"             # static: allowed
        "        if t > 0:\n"
        "            return geometry.Position(*self._coords(body, t))\n"
        "        return Position._make(self._coords(body, t))\n"
        "    def positions(self, t):\n"
        "        return [Position(*row) for row in self._rows(t)]\n")
    assert world_position_calls(source) == [
        "Position:9", "Position:6", "Position:7"]
