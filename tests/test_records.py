"""The package's records are immutable values: built from their fields
positionally or by keyword, equal when of one class with equal fields,
hashed by their field tuple, printed as `Name(field=value, ...)`, and closed
to assignment.  Circuit nodes are not records but int tuples (op, a, b);
their constructors are checked the same ways."""

import copy
import importlib
import inspect
import pickle

import pytest

from circuitbench import circuits
from circuitbench._record import Record
from circuitbench.circuits import (
    ADD, CONST, INPUT, MUL, PARAM, Add, Circuit, Const, InputVar, Mul, Param,
)

MODULES = ("circuits", "families", "forge", "pit", "protocols", "systems", "universal")
for _name in MODULES:
    importlib.import_module(f"circuitbench.{_name}")

# x + (-1), times parameter slot 1
CIRCUIT = Circuit((InputVar(1), Const(-1), Add(0, 1), Param(1), Mul(2, 3)), 4, 1, 1)
EQUATION = Circuit((Param(1), Mul(0, 0)), 1, 0, 1)
TEMPLATE_FIELDS = (CIRCUIT,)

# class name -> field values in constructor order
SAMPLES = {
    "Circuit": (CIRCUIT.nodes, 4, 1, 1),
    "WeightReport": (2, 1024, True, 5, 2, 2),
    "PitVerdict": (False, (3,), 2),
    "UniversalTemplate": TEMPLATE_FIELDS,
    "CoefficientVector": ((1, 0),),
    "Embedding": (1, (1, 0), TEMPLATE_FIELDS),
    "RealizableSet": (frozenset({(0, 1)}),),
    "HardVectorSearch": ((1, 1), False, 3, frozenset({(0, 1)})),
    "SignConditionSearch": ((1, 0), False, frozenset({(0, 0)}), 7),
    "PolySystem": (1, (EQUATION,)),
    "DensityReport": (20, 8, 4, 0.5, (2, 5, 13, 17), {2: (1,)}, True, 19),
    "HashMatrix": ((5, 3), 4),
    "GsReport": (4, 10, 3, 0.3, "small"),
    "PermanentVerifyReport": (True, "ok"),
    "ProverMessage": ((CIRCUIT,), (5, 7), ((1,), (2,)), 101, (3,)),
    "ProtocolTranscript": (((1, "A", "x"),), "accept", 1),
    "TruthTable": (1, (0, 1)),
}


# node constructor -> its arguments in order, and the node they build
NODES = {
    "InputVar": ((1,), (INPUT, 0, None)),
    "Const": ((-3,), (CONST, -3, None)),
    "Param": ((2,), (PARAM, 1, None)),
    "Add": ((0, 1), (ADD, 0, 1)),
    "Mul": ((0, 1), (MUL, 0, 1)),
}


def record_classes():
    found, stack = {}, [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            found[cls.__name__] = cls
            stack.append(cls)
    return found


CLASSES = record_classes()


def constructor(name):
    """(constructor, its argument names, the sample's arguments) of a
    record class or a node constructor."""
    if name in NODES:
        make = getattr(circuits, name)
        return make, tuple(inspect.signature(make).parameters), NODES[name][0]
    return CLASSES[name], CLASSES[name].__slots__, SAMPLES[name]


def test_every_record_class_has_a_sample():
    assert sorted(CLASSES) == sorted(SAMPLES)
    assert len(CLASSES) == 17
    assert not set(NODES) & set(CLASSES)


@pytest.mark.parametrize("name", sorted(SAMPLES | NODES))
def test_positional_and_keyword_construction_agree(name):
    make, names, values = constructor(name)
    positional = make(*values)
    keyword = make(**dict(zip(names, values)))
    half = len(values) // 2
    mixed = make(*values[:half], **dict(zip(names[half:], values[half:])))
    if name in NODES:  # a node is its int tuple
        fields, want = positional, NODES[name][1]
        assert positional.__class__ is tuple
    else:
        fields, want = tuple(getattr(positional, field) for field in names), values
    assert fields == want
    assert positional == keyword == mixed
    assert not positional != keyword
    try:
        expected = hash(want)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(positional)
    else:
        assert hash(positional) == hash(keyword) == expected


@pytest.mark.parametrize("name", sorted(SAMPLES | NODES))
def test_assigning_a_field_is_refused(name):
    make, names, values = constructor(name)
    record = make(*values)
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == make(*values)


@pytest.mark.parametrize("name", sorted(SAMPLES | NODES))
def test_copy_and_pickle_rebuild_an_equal_record(name):
    make, _, values = constructor(name)
    record = make(*values)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_of_different_classes_are_unequal():
    assert Add(0, 1) != Mul(0, 1)
    assert InputVar(1) != Param(1)
    assert Add(0, 1) != (0, 1)
    assert Add(0, 1) == Add(0, 1)
    assert Circuit((Const(1),), 0, 0) == Circuit((Const(1),), 0, 0, 0)


def test_a_bad_field_list_is_refused():
    cls = CLASSES["PitVerdict"]
    with pytest.raises(TypeError):
        cls(True, None)
    with pytest.raises(TypeError):
        cls(True, None, 1, 5)
    with pytest.raises(TypeError):
        cls(True, None, trials=5, q=6)
    with pytest.raises(TypeError):
        cls(True, None, 1, trials=5)


def test_repr_matches_the_dataclass_text():
    # records print as they did when they were frozen dataclasses; their
    # nodes print as the int tuples they are
    assert repr(Add(0, 1)) == "(1, 0, 1)"
    assert repr(CIRCUIT) == (
        "Circuit(nodes=((3, 0, None), (4, -1, None), (1, 0, 1), (2, 0, None), (0, 2, 3)), "
        "output=4, num_vars=1, num_params=1)"
    )
    assert repr(CLASSES["PitVerdict"](True, None, 2)) == (
        "PitVerdict(equal=True, witness=None, trials=2)"
    )
