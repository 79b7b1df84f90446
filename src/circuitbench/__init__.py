"""circuitbench: a desk-scale workbench for arithmetic circuits.

Straight-line arithmetic programs over Z and F_p, universal polynomial
templates and embeddings, circuit-encoded polynomial systems with prime
density probes, exhaustive hard-coefficient-vector and sign-condition
searches, and simulations of hash-based set-size estimation, permanent
verification, and an Arthur-Merlin evaluation protocol.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it; each module is imported on the
# first access to one of its names, so `import circuitbench` loads nothing
_HOMES = {
    "SparsePoly": "algebra",
    "Add": "circuits",
    "Circuit": "circuits",
    "CircuitBuilder": "circuits",
    "Const": "circuits",
    "InputVar": "circuits",
    "Mul": "circuits",
    "Param": "circuits",
    "bind_params": "circuits",
    "enumerate_circuits": "circuits",
    "evaluate": "circuits",
    "expand_circuit": "circuits",
    "formal_degree": "circuits",
    "is_constant_free": "circuits",
    "parse_circuit": "circuits",
    "random_circuit": "circuits",
    "serialize_circuit": "circuits",
    "weight_report": "circuits",
    "BudgetError": "errors",
    "EmbeddingError": "errors",
    "ParseError": "errors",
    "TruthTable": "families",
    "apply_projection": "families",
    "boolean_sum": "families",
    "hamiltonian_cycle_sum": "families",
    "multilinear_extension": "families",
    "permanent": "families",
    "permanent_naive": "families",
    "find_hard_vector": "forge",
    "hardness_certificate": "forge",
    "poscoef": "forge",
    "realizable_vectors": "forge",
    "sign_condition_search": "forge",
    "pit_equal": "pit",
    "CheatingProver": "protocols",
    "HashMatrix": "protocols",
    "HonestProver": "protocols",
    "ama_simulate": "protocols",
    "build_determinant_chain": "protocols",
    "build_permanent_chain": "protocols",
    "gs_estimate": "protocols",
    "permanent_verify": "protocols",
    "phi": "protocols",
    "psi": "protocols",
    "IntegerRing": "rings",
    "PrimeField": "rings",
    "TruncatedPolyRing": "rings",
    "PolySystem": "systems",
    "build_hardness_system": "systems",
    "build_language_system": "systems",
    "density_probe": "systems",
    "parse_system": "systems",
    "permanent_agreement_system": "systems",
    "solve_bruteforce": "systems",
    "UniversalTemplate": "universal",
    "build_universal": "universal",
    "embed": "universal",
    "truncated_coefficient_map": "universal",
}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
