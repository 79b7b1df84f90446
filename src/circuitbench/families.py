"""Named polynomial families and Boolean exponential sums.

Covers the permanent (Ryser's inclusion-exclusion plus a naive oracle), the
Hamiltonian-cycle polynomial, multilinear extensions of truth-table
functions, exponential Boolean sums of circuits, and variable projections.
"""

import math
from itertools import permutations
from operator import add, mul, sub

from ._record import Record
from .algebra import SparsePoly
from .circuits import INPUT, Circuit, Const, InputVar, evaluate
from .errors import DEFAULT_SOLVE_BUDGET, at_least, capped_power, charge
from .rings import LaneRing

PERMANENT_CAP = 12
HC_BUDGET = 9  # cycle sums over more vertices are refused
LANE_BITS = 8  # at most 2^8 assignments per boolean_sum pass: each node holds one value per lane
LANE_VALUES = 1 << 16  # and at most this many node values per pass, unless one lane has more


def _check_square(matrix, mod):
    """The dimension of a square non-empty matrix; also refuses a modulus below 1."""
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and non-empty")
    if mod is not None:
        at_least("modulus", mod, 1)
    return n


def permanent(matrix, mod=None):
    """Permanent by Ryser's inclusion-exclusion over column subsets.

    The subsets are visited in Gray-code order, so each step adds or removes
    one column from the n row sums: O(2^n * n).  The test suite checks it
    against `permanent_naive` and against Ryser's formula in subset order.
    """
    n = _check_square(matrix, mod)
    charge("permanent", PERMANENT_CAP, n, f"{n} rows")
    columns = list(zip(*matrix))
    sums, total, size = [0] * n, 0, 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1  # the column whose bit flips at step k
        if k >> j & 2:  # bit j of the Gray code k ^ (k >> 1) turns off
            sums, size = list(map(sub, sums, columns[j])), size - 1
        else:
            sums, size = list(map(add, sums, columns[j])), size + 1
        prod = math.prod(sums)
        # (-1)^n (-1)^{|S|} written as (-1)^{n-|S|}
        total += -prod if (n - size) % 2 else prod
    return total % mod if mod is not None else total


def permanent_naive(matrix, mod=None):
    """Permutation-sum oracle, exponential; kept independent of Ryser."""
    n = _check_square(matrix, mod)
    charge("naive-permanent", 8, n, f"{n} rows")
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
        total += prod
    return total % mod if mod is not None else total


def hamiltonian_cycle_sum(matrix, mod=None):
    """Sum over the (n-1)! Hamiltonian cycles of the products of the cycle's
    entries, by Held and Karp's subset dynamic program with sums of
    products in place of minima: paths[S][v] sums the paths that start at
    vertex 0, visit exactly the vertices in S (a subset of 1..n-1) and end
    at v in S.  That is O(2^n * n^2) for (n-1)! cycles; the test suite
    checks it against the cycle walk."""
    n = _check_square(matrix, mod)
    if n < 2:
        raise ValueError("the cycle polynomial needs n >= 2")
    charge("cycle-sum", HC_BUDGET, n, f"{n} vertices")
    k = n - 1  # below, v stands for vertex v + 1, which is bit v of S
    into = [[row[v + 1] for row in matrix[1:]] for v in range(k)]  # into[v][u] = M[u+1][v+1]
    paths = [[0] * k for _ in range(1 << k)]
    for v in range(k):
        paths[1 << v][v] = matrix[0][v + 1]
    for mask in range(1 << k):
        if mask & (mask - 1):  # |S| >= 2; paths[prev][u] is 0 for u not in prev
            ends = paths[mask]
            for v in range(k):
                if mask >> v & 1:
                    ends[v] = sum(map(mul, paths[mask ^ 1 << v], into[v]))
    total = sum(map(mul, paths[-1], [row[0] for row in matrix[1:]]))
    return total % mod if mod is not None else total


class TruthTable(Record):
    """An integer-valued function on {0,1}^n, stored densely as a tuple.

    Index masks use bit j-1 for the j-th argument, so mask 0b01 means
    x1=1, x2=0.
    """

    __slots__ = ("n", "values")

    def __init__(self, n, values):
        at_least("n", n, 0)
        if len(values) != 1 << n:
            raise ValueError(f"expected {1 << n} values for n={n}")
        super().__init__(n, tuple(int(v) for v in values))


def multilinear_extension(table):
    """The unique multilinear polynomial agreeing with the table on {0,1}^n.

    This is the sum over points x of f(x) * prod_i (x_i X_i + (1-x_i)(1-X_i));
    its coefficients come out of a subset Moebius transform, so the build is
    O(n 2^n) rather than O(4^n).
    """
    charge("multilinear-extension", 20, table.n, f"{table.n} variables")
    n = table.n
    coeffs = list(table.values)
    for bit in range(n):
        step = 1 << bit
        for mask in range(1 << n):
            if mask & step:
                coeffs[mask] -= coeffs[mask ^ step]
    poly = {}
    for mask, c in enumerate(coeffs):
        if c:
            poly[tuple(mask >> i & 1 for i in range(n))] = c
    return SparsePoly(poly, n)


def _lane_bits(size, num_summed):
    """log2 of boolean_sum's lanes for a circuit of `size` nodes: at most
    LANE_BITS and num_summed, and lanes * size <= LANE_VALUES unless that
    leaves no lane but one, so a pass holds at most max(size, LANE_VALUES)
    values."""
    return min(num_summed, LANE_BITS, max(0, (LANE_VALUES // size).bit_length() - 1))


def boolean_sum(circuit, ring, x_assign, num_summed, budget=DEFAULT_SOLVE_BUDGET):
    """Sum the circuit over all 0/1 assignments of its last `num_summed`
    variables, the first variables being fixed to `x_assign`, in `ring`, an
    IntegerRing or a PrimeField.  The work, 2^num_summed evaluations of
    circuit.size() nodes, is charged against `budget` before the first
    evaluation.

    The assignments go in chunks of 2^_lane_bits(size, num_summed), each one
    `evaluate` over a LaneRing: the low summed variables take every 0/1
    pattern across the lanes of a chunk, and the others are fixed per chunk."""
    if num_summed < 0 or num_summed > circuit.num_vars:
        raise ValueError("bad summation variable count")
    size = circuit.size()
    work = size * capped_power(2, num_summed, budget)
    charge("eval", budget, work, f"2^{num_summed} evaluations of {size} nodes")
    n_free = circuit.num_vars - num_summed
    if len(x_assign) != n_free:
        raise ValueError(f"expected {n_free} fixed values")
    lanes = LaneRing(ring)
    low = _lane_bits(size, num_summed)
    width = 1 << low
    inputs = [lanes.from_int(v) for v in x_assign]
    inputs += [[lane >> j & 1 for lane in range(width)] for j in range(low)]
    total = ring.from_int(0)
    for chunk in range(1 << (num_summed - low)):
        high = [chunk >> j & 1 for j in range(num_summed - low)]
        value = evaluate(circuit, lanes, inputs + high)
        chunk_sum = sum(value) if isinstance(value, list) else value * width
        total = ring.add(total, ring.from_int(chunk_sum))
    return total


def apply_projection(circuit, subst, num_vars=None):
    """Substitute every variable by another variable or an integer constant.

    `subst` maps each 1-based variable index of `circuit` to either a string
    "x<j>" naming a target variable or an int constant.  The node list is
    preserved up to leaf relabeling.
    """
    for i in range(1, circuit.num_vars + 1):
        if i not in subst:
            raise ValueError(f"substitution missing variable x{i}")
    targets = []
    for i, v in subst.items():
        if isinstance(v, str):
            if not v.startswith("x"):
                raise ValueError(f"bad variable name {v!r}")
            targets.append((i, int(v[1:])))
    max_target = max((j for _, j in targets), default=0)
    if num_vars is None:
        num_vars = max_target
    if max_target > num_vars:
        bad = [f"x{j}" for _, j in targets if j > num_vars]
        raise ValueError(f"substitution references undeclared target variable {bad[0]}")
    mapping = {}
    for i, v in subst.items():
        if isinstance(v, str):
            mapping[i] = InputVar(int(v[1:]))
        else:
            mapping[i] = Const(int(v))
    nodes = tuple(mapping[node[1] + 1] if node[0] == INPUT else node for node in circuit.nodes)
    return Circuit(nodes, circuit.output, num_vars, circuit.num_params)
