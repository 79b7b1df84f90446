"""The benchmark in perfbench/ wraps and calls package functions by name; a
renamed or deleted function would silently turn a traced layer "absent" or
break an answer check.  These tests resolve every such name."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def resolve(short, attr):
    owner = importlib.import_module(f"circuitbench.{short}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


LAYERS = load_tracer().LAYERS
# traced layers whose function was deleted from the package on purpose
# (`simplify_constants`: embed no longer folds); the tracer reports them
# absent until its layer table drops them, and then this set must go too
RETIRED = {"circuits.simplify"}


@pytest.mark.parametrize("layer", sorted(set(LAYERS) - RETIRED))
def test_traced_layer_resolves(layer):
    short, attr, _counters = LAYERS[layer]
    assert callable(resolve(short, attr)), f"{layer}: circuitbench.{short}.{attr} is missing"


@pytest.mark.parametrize("layer", sorted(RETIRED))
def test_retired_layer_is_absent(layer):
    short, attr, _counters = LAYERS[layer]
    assert resolve(short, attr) is None, f"{layer}: circuitbench.{short}.{attr} is back"


@pytest.mark.parametrize("attr", ["compile_mod_evaluator", "bind_params", "evaluate"])
def test_workload_check_function_resolves(attr):
    # perfbench/workloads.py calls these directly in its answer checks
    assert callable(resolve("circuits", attr))
