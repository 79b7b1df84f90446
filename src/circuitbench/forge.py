"""Desk-scale hard-polynomial search.

Which 0/1 coefficient vectors of length d+1 arise as the degree-d truncation
of something a small device can compute?  Two oracles answer that question:

  * parameter sweep: the image of the universal template's truncated
    coefficient map over all parameter assignments in F_p;
  * circuit enumeration: the truncated coefficient vectors of every
    circuit of bounded size with constants in F_p, computed as a closure
    over value sets: a circuit's node values grow one leaf, sum or product
    at a time, so growing every value set of k elements to k + 1 reaches
    every value without building or enumerating a circuit.  Its values live
    in a dense series ring (an independent path: its product is not the
    sweep's).

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

from itertools import islice, product

from ._record import Record
from .algebra import DEFAULT_MONOMIAL_BUDGET, SparsePoly
from .circuits import enumerate_circuits, expand_circuit, is_constant_free
from .errors import DEFAULT_SOLVE_BUDGET, at_least, capped_power, charge
from .primes import require_prime
from .rings import DenseSeriesRing, IntegerRing, PrimeField, TruncatedPolyRing
from .systems import build_hardness_system, solve_bruteforce

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


class RealizableSet(Record):
    __slots__ = ("vectors",)  # frozenset of 0/1 vectors of length d+1


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
    at_least("level count", s, 1)
    at_least("d", d, 0)
    one = (1,) + (0,) * d
    spans = [(one,)] + ([(one, (0, 1) + (0,) * (d - 1))] if d else [])
    if s == 1:
        work = p ** len(spans[-1])
        charge("sweep", budget, work, f"{work} sweep products")
        return set(_span_elements(spans[-1], p))
    image = set()
    work = 0
    for j in range(2, s + 1):
        following = set()
        for basis in sorted(spans):
            size = p ** len(basis)
            work += size * (size + 1) // 2
            charge("sweep", budget, work, f"{work} sweep products")
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


def _closure_values(size, p, ring, budget):
    """Every value a circuit of at most `size` vertices computes in `ring`
    from x and the constants 0..p-1.

    A state is the frozenset of a circuit's node values.  Level k grows each
    k-element state by one leaf, a + b or a*b with a, b in it; a circuit
    with a repeated or dead node computes its output with fewer vertices, so
    the values of states of at most `size` elements are exactly the answer.
    Before each level its closure steps, k(k+1)/2 pairs and p + 1 leaves per
    state, are charged to `budget`, each at the cap + 1 coefficients of the
    series it forms.
    """
    leaves = [ring.gen(1)] + [ring.from_int(c) for c in range(p)]
    add, mul = ring.add, ring.mul
    memo = {}  # (a, b) -> (a + b, a * b)
    values = set()
    states = {frozenset()}
    steps = 0
    for k in range(size):
        steps += len(states) * (k * (k + 1) // 2 + p + 1) * (ring.cap + 1)
        charge("enumeration", budget, steps, f"{steps} closure steps")
        grown = set()
        for state in states:
            new = set(leaves)
            elems = list(state)
            for i, a in enumerate(elems):
                for b in elems[i:]:
                    pair = memo.get((a, b))
                    if pair is None:
                        pair = memo[a, b] = memo[b, a] = add(a, b), mul(a, b)
                    new.update(pair)
            values |= new
            if k + 1 < size:  # the last level only adds values
                grown.update(state | {v} for v in new - state)
        states = grown
    return values


def _vertex_bound(s, enum_size):
    """The enumeration oracles' vertex-count bound: `enum_size`, default s."""
    size = s if enum_size is None else enum_size
    at_least("vertex bound", size, 0)
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
    p <= d; only the hard-vector search needs p > d.  `budget` defaults to
    the chosen oracle's own budget.
    """
    require_prime(p)
    at_least("d", d, 0)
    if oracle == "parameter-sweep":
        image = _sweep_image(s, d, p, DEFAULT_SWEEP_BUDGET if budget is None else budget)
        zero_one = frozenset(v for v in image if all(x in (0, 1) for x in v))
        return RealizableSet(zero_one)
    if oracle == "circuit-enumeration":
        size = _vertex_bound(s, enum_size)
        ring = DenseSeriesRing(PrimeField(p), d)
        budget = DEFAULT_ENUM_ORACLE_BUDGET if budget is None else budget
        vectors = _closure_values(size, p, ring, budget)
        # residues are >= 0, so a vector is 0/1 when its largest entry is at most 1
        return RealizableSet(frozenset(v for v in vectors if max(v) <= 1))
    raise ValueError(f"unknown oracle {oracle!r}")


class HardVectorSearch(Record):
    __slots__ = (
        "gamma",  # lex-first hard vector, None when saturated
        "saturated",
        "systems_checked",
        "realized",  # frozenset of 0/1 vectors in the parameter-sweep image
    )


def find_hard_vector(s, d, p, solve_budget=DEFAULT_SOLVE_BUDGET):
    """Lexicographically first gamma whose hardness system is unsolvable
    over F_p, determined by building and brute-force solving each system.

    Requires p > d: identifying two degree-<=d polynomials from their values
    on 0..d needs d+1 distinct points mod p.  Every system has the same
    s(s+1) unknowns, so p^(s(s+1)) assignments over `solve_budget` are
    refused before any system is built or any sweep work is done.  Each
    system must be unsolvable exactly at the parameter-sweep image's
    lex-first missing vector, which the answer provably equals.
    """
    at_least("level count", s, 1)
    at_least("d", d, 0)
    require_prime(p)
    if p <= d:
        raise ValueError(f"need p > d for {d + 1} distinct interpolation points, got p={p}")
    u = s * (s + 1)
    charge("eval", solve_budget, capped_power(p, u, solve_budget), f"{p}^{u} assignments")
    zero_one = realizable_vectors(s, d, p).vectors
    expected = lex_first_missing(zero_one, d)
    for checked, gamma in enumerate(product((0, 1), repeat=d + 1), start=1):
        system = build_hardness_system(s, d, gamma)
        hard = solve_bruteforce(system, p, budget=solve_budget) is None
        if hard != (gamma == expected):
            verdict = "unsolvable" if hard else "solvable"
            message = f"solver finds {gamma} {verdict}, sweep's first hard vector is {expected}"
            raise RuntimeError(message)
        if hard:
            return HardVectorSearch(gamma, False, checked, zero_one)
    return HardVectorSearch(None, True, checked, zero_one)


def hardness_certificate(s, d, p, gamma, enum_size=None):
    """Exhaustively confirm that no enumerated circuit of bounded size over
    F_p computes the polynomial sum_i gamma_i x^i exactly.

    Returns (True, None) or (False, offending circuit).  The search reads
    values alone; on a match at position k of the stream, the offending
    circuit is the k-th circuit of the same enumeration without a ring.
    """
    size = _vertex_bound(s, enum_size)
    target = SparsePoly({(i,): g for i, g in enumerate(gamma)}, 1, modulus=p)
    ring = TruncatedPolyRing(PrimeField(p), 1, None)
    budget = DEFAULT_ENUM_ORACLE_BUDGET
    for k, poly in enumerate(enumerate_circuits(size, 1, range(p), budget=budget, ring=ring)):
        if poly == target:
            circuits = enumerate_circuits(size, 1, range(p), budget=budget)
            return False, next(islice(circuits, k, None))
    return True, None


def poscoef(circuit, i, budget=DEFAULT_MONOMIAL_BUDGET):
    """Exact sign of the coefficient of x^i of a constant-free one-variable
    circuit: 1, 0, or -1.  Expansion is truncated at degree i, which cannot
    change coefficients at or below i."""
    if not is_constant_free(circuit):
        raise ValueError("poscoef requires a constant-free circuit")
    if circuit.num_vars > 1:
        raise ValueError("poscoef requires a one-variable circuit")
    at_least("coefficient index", i, 0)
    poly = expand_circuit(circuit, cap=i, budget=budget)
    if circuit.num_vars == 0:
        coeff = poly.coefficient(()) if i == 0 else 0
    else:
        coeff = poly.coefficient((i,))
    return (coeff > 0) - (coeff < 0)


class SignConditionSearch(Record):
    __slots__ = (
        "bits",  # lex-first unrealized sign condition, None when saturated
        "saturated",
        "realized",
        "circuits_enumerated",
    )


def sign_condition_search(s, cap, budget=DEFAULT_ENUM_ORACLE_BUDGET):
    """Lex-first sign condition (b_0..b_cap, b_i = 1 iff the coefficient of
    x^i is strictly positive) realized by no constant-free circuit with at
    most s vertices.

    Circuits of larger formal degree still participate; only coefficients
    0..cap are inspected.  An empty circuit set (s=0) realizes nothing, so
    the answer is the all-zero condition; a negative s or cap is refused.
    Each circuit costs cap + 1 (its bit tuple) against `budget`; a cap
    whose one circuit exceeds it is refused before any enumeration.
    """
    at_least("s", s, 0)
    at_least("cap", cap, 0)
    cost = cap + 1
    what = f"coefficient signs ({cost} per circuit)"
    charge("sign-condition", budget, cost, f"{cost} {what}")
    vectors = set()
    count = 0
    ring = DenseSeriesRing(IntegerRing(), cap)
    # one circuit more than the sign-condition budget allows, so that budget refuses
    for vec in enumerate_circuits(s, 1, (-1,), budget=budget // cost + 1, ring=ring):
        count += 1
        if count * cost > budget:
            charge("sign-condition", budget, count * cost, f"{count * cost} {what}")
        vectors.add(vec)
    realized = {tuple(int(c > 0) for c in vec) for vec in vectors}
    bits = lex_first_missing(realized, cap)
    return SignConditionSearch(bits, bits is None, frozenset(realized), count)
