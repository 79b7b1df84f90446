"""The package's records are immutable values: built from their fields
positionally or by keyword, equal when of one class with equal fields,
hashed by their field tuple, printed as `Name(field=value, ...)`, and closed
to assignment."""

import copy
import importlib
import pickle

import pytest

from circuitbench._record import Record
from circuitbench.circuits import Add, Circuit, Const, InputVar, Mul, Param

MODULES = ("circuits", "families", "forge", "pit", "protocols", "systems", "universal")
for _name in MODULES:
    importlib.import_module(f"circuitbench.{_name}")

# x + (-1), times parameter slot 1
CIRCUIT = Circuit((InputVar(1), Const(-1), Add(0, 1), Param(1), Mul(2, 3)), 4, 1, 1)
EQUATION = Circuit((Param(1), Mul(0, 0)), 1, 0, 1)
TEMPLATE_FIELDS = (CIRCUIT,)

# class name -> field values in constructor order
SAMPLES = {
    "InputVar": (1,),
    "Const": (-3,),
    "Param": (2,),
    "Add": (0, 1),
    "Mul": (0, 1),
    "Circuit": (CIRCUIT.nodes, 4, 1, 1),
    "CircuitMetrics": (5, 2, 2, 2),
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
    "ProtocolTranscript": (0, ((1, "A", "x"),), "accept", 1),
    "TruthTable": (1, (0, 1)),
}


def record_classes():
    found, stack = {}, [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            found[cls.__name__] = cls
            stack.append(cls)
    return found


CLASSES = record_classes()


def test_every_record_class_has_a_sample():
    assert sorted(CLASSES) == sorted(SAMPLES)
    assert len(CLASSES) == 23


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_positional_and_keyword_construction_agree(name):
    cls, values = CLASSES[name], SAMPLES[name]
    positional = cls(*values)
    keyword = cls(**dict(zip(cls.__slots__, values)))
    half = len(values) // 2
    mixed = cls(*values[:half], **dict(zip(cls.__slots__[half:], values[half:])))
    assert tuple(getattr(positional, field) for field in cls.__slots__) == values
    assert positional == keyword == mixed
    assert not positional != keyword
    try:
        expected = hash(values)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(positional)
    else:
        assert hash(positional) == hash(keyword) == expected


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_assigning_a_field_is_refused(name):
    cls, values = CLASSES[name], SAMPLES[name]
    record = cls(*values)
    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == cls(*values)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_copy_and_pickle_rebuild_an_equal_record(name):
    record = CLASSES[name](*SAMPLES[name])
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
    # as printed when the records were frozen dataclasses
    assert repr(Add(0, 1)) == "Add(left=0, right=1)"
    assert repr(CIRCUIT) == (
        "Circuit(nodes=(InputVar(index=1), Const(value=-1), Add(left=0, right=1), "
        "Param(index=1), Mul(left=2, right=3)), output=4, num_vars=1, num_params=1)"
    )
    assert repr(CLASSES["PitVerdict"](True, None, 2)) == (
        "PitVerdict(equal=True, witness=None, trials=2)"
    )
