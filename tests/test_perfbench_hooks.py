"""The benchmark in perfbench/ wraps and calls package functions by name; a
renamed or deleted function would silently turn a traced layer "absent" or
break an answer check.  These tests resolve every such name."""

import ast
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"
WORKLOADS_PATH = PERFBENCH / "workloads.py"


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


def workload_reads():
    """Every `circuits.` / `forge.` / `systems.` / `universal.` attribute
    perfbench/workloads.py reads, as (module, attribute) pairs."""
    tree = ast.parse(WORKLOADS_PATH.read_text())
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("circuits", "forge", "systems", "universal")
        }
    )


def test_workload_reads_are_found():
    # the scan sees the workloads' module-qualified reads at all
    assert len(workload_reads()) >= 17


WORKLOAD_NAMES = workload_reads() + [
    ("primes", "sieve"),
    ("universal", "UniversalTemplate.param_count"),
]


@pytest.mark.parametrize("short, attr", WORKLOAD_NAMES, ids=[attr for _, attr in WORKLOAD_NAMES])
def test_workload_check_function_resolves(short, attr):
    # perfbench/workloads.py runs its jobs and answer checks through these
    # names; a rename would otherwise show only as `outputs_incorrect`
    assert callable(resolve(short, attr)), f"circuitbench.{short}.{attr} is missing"
