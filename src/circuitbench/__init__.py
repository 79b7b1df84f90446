"""circuitbench: a desk-scale workbench for arithmetic circuits.

Straight-line arithmetic programs over Z and F_p, universal polynomial
templates and embeddings, circuit-encoded polynomial systems with prime
density probes, exhaustive hard-coefficient-vector and sign-condition
searches, and simulations of hash-based set-size estimation, permanent
verification, and an Arthur-Merlin evaluation protocol.
"""

from .algebra import SparsePoly
from .circuits import (
    Add,
    Circuit,
    CircuitBuilder,
    Const,
    InputVar,
    Mul,
    Param,
    bind_params,
    enumerate_circuits,
    evaluate,
    expand_circuit,
    formal_degree,
    is_constant_free,
    metrics,
    parse_circuit,
    random_circuit,
    serialize_circuit,
    simplify_constants,
    weight_report,
)
from .errors import BudgetError, EmbeddingError, ParseError
from .families import (
    TruthTable,
    apply_projection,
    boolean_sum,
    hamiltonian_cycle_sum,
    multilinear_extension,
    permanent,
    permanent_naive,
)
from .forge import (
    find_hard_vector,
    hardness_certificate,
    poscoef,
    realizable_vectors,
    sign_condition_search,
)
from .pit import pit_equal
from .protocols import (
    CheatingProver,
    HashMatrix,
    HonestProver,
    ama_simulate,
    build_determinant_chain,
    build_permanent_chain,
    gs_estimate,
    permanent_agreement_system,
    permanent_verify,
    phi,
    psi,
)
from .rings import IntegerRing, PrimeField, TruncatedPolyRing
from .systems import (
    PolySystem,
    build_hardness_system,
    build_language_system,
    density_probe,
    parse_system,
    serialize_system,
    solve_bruteforce,
)
from .universal import (
    UniversalTemplate,
    build_universal,
    embed,
    truncated_coefficient_map,
)

__version__ = "0.1.0"
