"""Named polynomial families and Boolean exponential sums.

Covers the permanent (Ryser's inclusion-exclusion plus a naive oracle), the
Hamiltonian-cycle polynomial, multilinear extensions of truth-table
functions, exponential Boolean sums of circuits, and variable projections.
"""

import math
from itertools import permutations

from .algebra import SparsePoly
from .circuits import Circuit, Const, InputVar, evaluate
from .errors import BudgetError, ParseError, capped_power, content_lines, parse_int
from .rings import LaneRing

PERMANENT_CAP = 12
HC_BUDGET = 9  # (n-1)! enumeration above this is refused
LANE_BITS = 8  # at most 2^8 assignments per boolean_sum pass: each node holds one value per lane
LANE_VALUES = 1 << 16  # and at most this many node values per pass, unless one lane has more


def _check_square(matrix):
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and non-empty")
    return n


def permanent(matrix, mod=None):
    """Permanent by Ryser's inclusion-exclusion over column subsets.

    For n <= 6 the result is cross-checked against the naive permutation sum
    in the test suite, not here; this path is O(2^n * n^2).
    """
    n = _check_square(matrix)
    if n > PERMANENT_CAP:
        raise BudgetError(f"permanent cap {PERMANENT_CAP} exceeded (n={n})", reached=n)
    total = 0
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        prod = math.prod(sum(row[j] for j in cols) for row in matrix)
        # (-1)^n (-1)^{|S|} written as (-1)^{n-|S|}
        total += -prod if (n - len(cols)) % 2 else prod
    return total % mod if mod is not None else total


def permanent_naive(matrix, mod=None):
    """Permutation-sum oracle, exponential; kept independent of Ryser."""
    n = _check_square(matrix)
    if n > 8:
        raise BudgetError("naive permanent limited to n <= 8", reached=n)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
        total += prod
    return total % mod if mod is not None else total


def hamiltonian_cycle_sum(matrix, mod=None):
    """Sum over the (n-1)! Hamiltonian cycles of the products of the cycle's
    entries.  Cycles are enumerated by fixing vertex 1 and walking the
    lexicographic permutations of the remaining vertices, which makes the
    summation order deterministic."""
    n = _check_square(matrix)
    if n < 2:
        raise ValueError("the cycle polynomial needs n >= 2")
    if n > HC_BUDGET:
        raise BudgetError(f"(n-1)! enumeration refused for n={n} > {HC_BUDGET}", reached=n)
    total = 0
    for rest in permutations(range(1, n)):
        cycle = (0,) + rest
        total += math.prod(matrix[cycle[k]][cycle[(k + 1) % n]] for k in range(n))
    return total % mod if mod is not None else total


def hamiltonian_cycle_sum_padded(values):
    """Padding variant: on n values, evaluate the cycle polynomial of
    dimension floor(sqrt(n)) on the first floor(sqrt(n))^2 of them."""
    n = len(values)
    k = math.isqrt(n)
    if k < 2:
        raise ValueError("need at least 4 values")
    matrix = [[values[i * k + j] for j in range(k)] for i in range(k)]
    return hamiltonian_cycle_sum(matrix)


class TruthTable:
    """An integer-valued function on {0,1}^n, stored densely.

    Index masks use bit j-1 for the j-th argument, so mask 0b01 means
    x1=1, x2=0.
    """

    def __init__(self, n, values):
        if n < 0 or len(values) != 1 << n:
            raise ValueError(f"expected {1 << n} values for n={n}")
        self.n = n
        self.values = [int(v) for v in values]

    @classmethod
    def from_text(cls, text):
        """One line per point: '<bits> <value>', bits listed x1 first."""
        entries = {}
        n = None
        for lineno, line in content_lines(text.splitlines()):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected '<bits> <value>'", lineno)
            bits, value = parts
            if n is None:
                n = len(bits)
            if len(bits) != n or any(c not in "01" for c in bits):
                raise ParseError(f"bad bit string {bits!r}", lineno)
            mask = sum(1 << i for i, c in enumerate(bits) if c == "1")
            value = parse_int(value, f"bad value {value!r}", lineno)
            if mask in entries:
                raise ParseError(f"duplicate point {bits}", lineno)
            entries[mask] = value
        if n is None:
            raise ParseError("empty truth table")
        if len(entries) != 1 << n:
            raise ParseError(f"table incomplete: {len(entries)} of {1 << n} points")
        return cls(n, [entries[m] for m in range(1 << n)])

    def to_text(self):
        lines = []
        for mask in range(1 << self.n):
            bits = "".join("1" if mask >> i & 1 else "0" for i in range(self.n))
            lines.append(f"{bits} {self.values[mask]}")
        return "\n".join(lines) + "\n"


def multilinear_extension(table):
    """The unique multilinear polynomial agreeing with the table on {0,1}^n.

    This is the sum over points x of f(x) * prod_i (x_i X_i + (1-x_i)(1-X_i));
    its coefficients come out of a subset Moebius transform, so the build is
    O(n 2^n) rather than O(4^n).
    """
    if table.n > 20:
        raise BudgetError("multilinear extension limited to n <= 20", reached=table.n)
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


def boolean_sum(circuit, ring, x_assign, num_summed, budget=10**8):
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
    if work > budget:
        message = f"2^{num_summed} evaluations of {size} nodes exceed the eval budget {budget}"
        raise BudgetError(message, reached=work)
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
    nodes = tuple(
        mapping[n.index] if isinstance(n, InputVar) else n for n in circuit.nodes
    )
    return Circuit(nodes, circuit.output, num_vars, circuit.num_params)
