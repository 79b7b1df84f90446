"""Desk-scale hard-polynomial search.

Which 0/1 coefficient vectors of length d+1 arise as the degree-d truncation
of something a small device can compute?  Two oracles answer that question:

  * parameter sweep: the image of the universal template's truncated
    coefficient map over all parameter assignments in F_p;
  * circuit enumeration: the truncated coefficient vectors of every
    canonical circuit of bounded size with constants in F_p, computed by
    exact arithmetic carried down the enumeration (an independent path).

The sweep never walks parameter assignments or tuples of level values.  Level
j of the template multiplies two elements of V_j = span{1, L_1, ..., L_{j-1}},
so it goes level by level over the distinct subspaces V_j, each in reduced
row-echelon form and visited once per level.  Its budget counts the products
it forms.

The searches return the lexicographically first vector outside the realized
set, or report saturation when every vector is realized.  Sign-condition
search does the analogous thing for the signs of integer coefficients of
constant-free circuits.
"""

from dataclasses import dataclass
from itertools import product

from .algebra import SparsePoly
from .circuits import enumerate_circuits, expand_circuit, is_constant_free
from .errors import BudgetError
from .primes import is_prime
from .rings import IntegerRing, PrimeField, TruncatedPolyRing
from .systems import DEFAULT_SOLVE_BUDGET, build_hardness_system, solve_bruteforce

DEFAULT_SWEEP_BUDGET = 10**7
DEFAULT_ENUM_ORACLE_BUDGET = 2_000_000


def lex_first_missing(vectors, d):
    """First vector of {0,1}^(d+1) not in `vectors`, index 0 most
    significant; None when all are present."""
    for cand in product((0, 1), repeat=d + 1):
        if cand not in vectors:
            return cand
    return None


def _series_mul(u, v, cap, p):
    """Product of two coefficient tuples over F_p, truncated at cap."""
    out = [0] * (cap + 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v[: cap + 1 - i]):
                if b:
                    out[i + j] += a * b
    return tuple(x % p for x in out)


def _span_elements(basis, p):
    """Every vector of span_Fp(basis); distinct when the basis is independent."""
    elems = [(0,) * len(basis[0])]
    for row in basis:
        elems = [
            tuple((x + c * y) % p for x, y in zip(vec, row))
            for vec in elems
            for c in range(p)
        ]
    return elems


def _span_with(basis, vec, p):
    """Reduced row-echelon basis of span(basis) + vec over F_p.  `basis` is
    reduced row-echelon with rows in pivot order, so equal spans get equal
    bases."""
    for row in basis:
        c = vec[row.index(1)]  # a reduced row's first nonzero entry is 1
        if c:
            vec = tuple((x - c * y) % p for x, y in zip(vec, row))
    lead = next((i for i, x in enumerate(vec) if x), None)
    if lead is None:
        return basis
    inv = pow(vec[lead], -1, p)
    vec = tuple(x * inv % p for x in vec)
    rows = [
        tuple((x - row[lead] * y) % p for x, y in zip(row, vec)) if row[lead] else row
        for row in basis
    ]
    # rows with an earlier pivot compare larger: the later rows are 0 there
    return tuple(sorted(rows + [vec], reverse=True))


@dataclass(frozen=True)
class RealizableSet:
    s: int
    d: int
    p: int
    vectors: frozenset  # 0/1 vectors of length d+1
    source: str  # "parameter-sweep" | "circuit-enumeration"


def _sweep_image(s, d, p, budget):
    """All truncated coefficient vectors of the s-level template over F_p.

    Level 1 takes every value of span{1, x}.  Level j >= 2 takes the values
    q*r, truncated at degree d, for q and r in V_j = span{1, L_1, ...,
    L_{j-1}}, so the options of every later level depend only on the
    subspace V_j, not on the level values that span it.  The sweep goes
    level by level over the distinct subspaces V_j, each in reduced
    row-echelon form and visited once per level: at j = s the products join
    the image, otherwise each product L leads on to V_j + L at level j + 1.
    Level 1 leaves only span{1} and span{1, x} (span{1} alone at d = 0).

    `budget` bounds the sweep work: each visited (V_j, j) forms
    |V_j|(|V_j| + 1)/2 products, and at s = 1 the |span{1, x}| level-1
    values count instead; all are counted before they are formed.
    """
    if s < 1:
        raise ValueError("level count must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    work = 0

    def charge(count):
        nonlocal work
        work += count
        if work > budget:
            raise BudgetError(
                f"{work} sweep products exceed the sweep-work budget {budget}",
                reached=work,
            )

    one = (1,) + (0,) * d
    spans = [(one,)] + ([(one, (0, 1) + (0,) * (d - 1))] if d else [])
    if s == 1:
        charge(p ** len(spans[-1]))
        return set(_span_elements(spans[-1], p))
    image = set()
    for j in range(2, s + 1):
        following = set()
        for basis in sorted(spans):
            size = p ** len(basis)
            charge(size * (size + 1) // 2)
            elems = _span_elements(basis, p)
            values = {
                _series_mul(q, r, d, p) for i, q in enumerate(elems) for r in elems[i:]
            }
            if j == s:
                image.update(values)
            else:
                following.update(_span_with(basis, v, p) for v in values)
        spans = following
    return image


def _vertex_bound(s, enum_size):
    """The enumeration oracles' vertex-count bound: `enum_size`, default s."""
    size = s if enum_size is None else enum_size
    if size < 0:
        raise ValueError(f"vertex bound must be >= 0, got {size}")
    return size


def realizable_vectors(
    s,
    d,
    p,
    oracle="parameter-sweep",
    enum_size=None,
    budget=None,
):
    """The set of realizable 0/1 truncated coefficient vectors.

    The circuit-enumeration oracle takes `enum_size` as its vertex-count
    bound (default s, counting all vertices) and draws constants from all of
    F_p.  Note the template sweep is well defined for any prime, including
    p <= d; only the hard-vector search needs p > d.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if d < 0:
        raise ValueError("d must be >= 0")
    if oracle == "parameter-sweep":
        image = _sweep_image(s, d, p, budget or DEFAULT_SWEEP_BUDGET)
        zero_one = frozenset(v for v in image if all(x in (0, 1) for x in v))
        return RealizableSet(s, d, p, zero_one, "parameter-sweep")
    if oracle == "circuit-enumeration":
        size = _vertex_bound(s, enum_size)
        found = set()
        ring = TruncatedPolyRing(PrimeField(p), 1, d)
        for _, poly in enumerate_circuits(
            size, 1, range(p), budget=budget or DEFAULT_ENUM_ORACLE_BUDGET, ring=ring
        ):
            vec = tuple(poly.coefficient((i,)) for i in range(d + 1))
            if all(x in (0, 1) for x in vec):
                found.add(vec)
        return RealizableSet(s, d, p, frozenset(found), "circuit-enumeration")
    raise ValueError(f"unknown oracle {oracle!r}")


@dataclass(frozen=True)
class HardVectorSearch:
    s: int
    d: int
    p: int
    gamma: tuple | None  # lex-first hard vector, None when saturated
    saturated: bool
    systems_checked: int
    realized: frozenset  # 0/1 vectors in the parameter-sweep image


def find_hard_vector(s, d, p, solve_budget=DEFAULT_SOLVE_BUDGET, sweep_budget=None):
    """Lexicographically first gamma whose hardness system is unsolvable
    over F_p, determined by building and brute-force solving each system.

    Requires p > d: identifying two degree-<=d polynomials from their values
    on 0..d needs d+1 distinct points mod p.  The answer is cross-checked
    against the parameter-sweep image, to which it provably must be equal.
    The sweep runs after the first solve: every system has the same s(s+1)
    unknowns, so a solver budget that cannot be met is refused before any
    sweep work.
    """
    if s < 1:
        raise ValueError("level count must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p <= d:
        raise ValueError(f"need p > d for {d + 1} distinct interpolation points, got p={p}")
    zero_one = None
    checked = 0
    for gamma in product((0, 1), repeat=d + 1):
        system = build_hardness_system(s, d, gamma)
        checked += 1
        hard = solve_bruteforce(system, p, budget=solve_budget) is None
        if zero_one is None:
            sweep = _sweep_image(s, d, p, sweep_budget or DEFAULT_SWEEP_BUDGET)
            zero_one = frozenset(v for v in sweep if all(x in (0, 1) for x in v))
            expected = lex_first_missing(zero_one, d)
        if hard:
            if gamma != expected:
                raise RuntimeError(
                    f"solver found hard vector {gamma} but the sweep predicts "
                    f"{expected}; truncated evaluation paths disagree"
                )
            return HardVectorSearch(s, d, p, gamma, False, checked, zero_one)
    if expected is not None:
        raise RuntimeError(
            f"solver saturated but the sweep predicts {expected} is unrealizable"
        )
    return HardVectorSearch(s, d, p, None, True, checked, zero_one)


def hardness_certificate(s, d, p, gamma, enum_size=None, budget=None):
    """Exhaustively confirm that no enumerated circuit of bounded size over
    F_p computes the polynomial sum_i gamma_i x^i exactly.

    Returns (True, None) or (False, offending circuit).
    """
    size = _vertex_bound(s, enum_size)
    target = SparsePoly(
        {(i,): g for i, g in enumerate(gamma) if g}, 1, modulus=p
    )
    ring = TruncatedPolyRing(PrimeField(p), 1, None)
    for circuit, poly in enumerate_circuits(
        size, 1, range(p), budget=budget or DEFAULT_ENUM_ORACLE_BUDGET, ring=ring
    ):
        if poly == target:
            return False, circuit
    return True, None


def poscoef(circuit, i, budget=None):
    """Exact sign of the coefficient of x^i of a constant-free one-variable
    circuit: 1, 0, or -1.  Expansion is truncated at degree i, which cannot
    change coefficients at or below i."""
    if not is_constant_free(circuit):
        raise ValueError("poscoef requires a constant-free circuit")
    if circuit.num_vars > 1:
        raise ValueError("poscoef requires a one-variable circuit")
    if i < 0:
        raise ValueError("coefficient index must be >= 0")
    kwargs = {"budget": budget} if budget is not None else {}
    poly = expand_circuit(circuit, cap=i, **kwargs)
    if circuit.num_vars == 0:
        coeff = poly.coefficient(()) if i == 0 else 0
    else:
        coeff = poly.coefficient((i,))
    return (coeff > 0) - (coeff < 0)


@dataclass(frozen=True)
class SignConditionSearch:
    s: int
    cap: int  # highest inspected coefficient index
    bits: tuple | None  # lex-first unrealized sign condition
    saturated: bool
    realized: frozenset
    circuits_enumerated: int


def sign_condition_search(s, cap, budget=None):
    """Lex-first sign condition (b_0..b_cap, b_i = 1 iff the coefficient of
    x^i is strictly positive) realized by no constant-free circuit with at
    most s vertices.

    Circuits of larger formal degree still participate; only coefficients
    0..cap are inspected.  An empty circuit set (s=0) realizes nothing, so
    the answer is the all-zero condition; a negative s or cap is refused.
    """
    if s < 0 or cap < 0:
        raise ValueError(f"s and cap must be >= 0, got s={s}, cap={cap}")
    realized = set()
    count = 0
    ring = TruncatedPolyRing(IntegerRing(), 1, cap)
    for _, poly in enumerate_circuits(
        s, 1, (-1,), budget=budget or DEFAULT_ENUM_ORACLE_BUDGET, ring=ring
    ):
        count += 1
        bits = tuple(
            1 if poly.coefficient((i,)) > 0 else 0 for i in range(cap + 1)
        )
        realized.add(bits)
    bits = lex_first_missing(realized, cap)
    return SignConditionSearch(
        s=s,
        cap=cap,
        bits=bits,
        saturated=bits is None,
        realized=frozenset(realized),
        circuits_enumerated=count,
    )
