"""The package's public names: `import circuitbench` imports no module, and
each name resolves, on first use, to the object its home module defines."""

import importlib

import pytest

import circuitbench

# home module -> the public names it exports through the package
PUBLIC = {
    "algebra": ["SparsePoly"],
    "circuits": [
        "Add", "Circuit", "CircuitBuilder", "Const", "InputVar", "Mul", "Param", "bind_params",
        "enumerate_circuits", "evaluate", "expand_circuit", "formal_degree",
        "is_constant_free", "metrics", "parse_circuit", "random_circuit", "serialize_circuit",
        "weight_report",
    ],
    "errors": ["BudgetError", "EmbeddingError", "ParseError"],
    "families": [
        "TruthTable", "apply_projection", "boolean_sum", "hamiltonian_cycle_sum",
        "multilinear_extension", "permanent", "permanent_naive",
    ],
    "forge": [
        "find_hard_vector", "hardness_certificate", "poscoef", "realizable_vectors",
        "sign_condition_search",
    ],
    "pit": ["pit_equal"],
    "protocols": [
        "CheatingProver", "HashMatrix", "HonestProver", "ama_simulate",
        "build_determinant_chain", "build_permanent_chain", "gs_estimate",
        "permanent_agreement_system", "permanent_verify", "phi", "psi",
    ],
    "rings": ["IntegerRing", "PrimeField", "TruncatedPolyRing"],
    "systems": [
        "PolySystem", "build_hardness_system", "build_language_system", "density_probe",
        "parse_system", "serialize_system", "solve_bruteforce",
    ],
    "universal": ["UniversalTemplate", "build_universal", "embed", "truncated_coefficient_map"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_the_public_names():
    assert len(NAMES) == 60
    assert circuitbench.__all__ == NAMES
    assert circuitbench.__version__ == "0.1.0"


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_each_name_is_its_home_modules_object(home):
    module = importlib.import_module(f"circuitbench.{home}")
    for name in PUBLIC[home]:
        assert getattr(circuitbench, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from circuitbench import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_dir_lists_the_public_names():
    assert set(NAMES) <= set(dir(circuitbench))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'circuitbench' has no attribute 'nope'"):
        circuitbench.nope


def test_removed_fold_is_not_a_public_name():
    with pytest.raises(AttributeError, match="no attribute 'simplify_constants'"):
        circuitbench.simplify_constants
