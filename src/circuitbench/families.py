"""Named polynomial families and Boolean exponential sums.

Covers the permanent (Ryser's inclusion-exclusion plus a naive oracle), the
Hamiltonian-cycle polynomial, multilinear extensions of truth-table
functions, exponential Boolean sums of circuits, and variable projections.
"""

import math
from itertools import permutations

from .algebra import SparsePoly
from .circuits import Circuit, Const, InputVar, evaluate
from .errors import BudgetError, ParseError

PERMANENT_CAP = 12
HC_BUDGET = 9  # (n-1)! enumeration above this is refused


def _check_square(matrix):
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and non-empty")
    return n


def permanent(matrix, mod=None, cap=PERMANENT_CAP):
    """Permanent by Ryser's inclusion-exclusion over column subsets.

    For n <= 6 the result is cross-checked against the naive permutation sum
    in the test suite, not here; this path is O(2^n * n^2).
    """
    n = _check_square(matrix)
    if n > cap:
        raise BudgetError(f"permanent cap {cap} exceeded (n={n})", reached=n)
    total = 0
    for mask in range(1, 1 << n):
        rowsums = []
        for i in range(n):
            s = 0
            row = matrix[i]
            m = mask
            j = 0
            while m:
                if m & 1:
                    s += row[j]
                m >>= 1
                j += 1
            rowsums.append(s % mod if mod is not None else s)
        prod = 1
        for s in rowsums:
            prod = prod * s % mod if mod is not None else prod * s
        # (-1)^n (-1)^{|S|} written as (-1)^{n-|S|}
        if (n - bin(mask).count("1")) % 2:
            prod = -prod
        total += prod
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


def hamiltonian_cycle_sum(matrix, mod=None, budget=HC_BUDGET):
    """Sum over the (n-1)! Hamiltonian cycles of the products of the cycle's
    entries.  Cycles are enumerated by fixing vertex 1 and walking the
    lexicographic permutations of the remaining vertices, which makes the
    summation order deterministic."""
    n = _check_square(matrix)
    if n < 2:
        raise ValueError("the cycle polynomial needs n >= 2")
    if n > budget:
        raise BudgetError(f"(n-1)! enumeration refused for n={n} > {budget}", reached=n)
    total = 0
    for rest in permutations(range(1, n)):
        cycle = (0,) + rest
        prod = 1
        for k in range(n):
            prod *= matrix[cycle[k]][cycle[(k + 1) % n]]
            if mod is not None:
                prod %= mod
        total += prod
    return total % mod if mod is not None else total


def hamiltonian_cycle_sum_padded(values, mod=None, budget=HC_BUDGET):
    """Padding variant: on n values, evaluate the cycle polynomial of
    dimension floor(sqrt(n)) on the first floor(sqrt(n))^2 of them."""
    n = len(values)
    k = math.isqrt(n)
    if k < 2:
        raise ValueError("need at least 4 values")
    matrix = [[values[i * k + j] for j in range(k)] for i in range(k)]
    return hamiltonian_cycle_sum(matrix, mod=mod, budget=budget)


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
    def from_function(cls, n, fn):
        return cls(n, [fn(mask) for mask in range(1 << n)])

    @classmethod
    def from_text(cls, text):
        """One line per point: '<bits> <value>', bits listed x1 first."""
        entries = {}
        n = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected '<bits> <value>'", lineno)
            bits, value = parts
            if n is None:
                n = len(bits)
            if len(bits) != n or any(c not in "01" for c in bits):
                raise ParseError(f"bad bit string {bits!r}", lineno)
            mask = sum(1 << i for i, c in enumerate(bits) if c == "1")
            try:
                entries[mask] = int(value)
            except ValueError:
                raise ParseError(f"bad value {value!r}", lineno) from None
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


def boolean_sum(circuit, ring, x_assign, num_summed, budget=24):
    """Sum the circuit over all 0/1 assignments of its last `num_summed`
    variables, the first variables being fixed to `x_assign`."""
    if num_summed < 0 or num_summed > circuit.num_vars:
        raise ValueError("bad summation variable count")
    if num_summed > budget:
        raise BudgetError(f"2^{num_summed} summation refused", reached=num_summed)
    n_free = circuit.num_vars - num_summed
    if len(x_assign) != n_free:
        raise ValueError(f"expected {n_free} fixed values")
    total = ring.from_int(0)
    for mask in range(1 << num_summed):
        ys = [mask >> j & 1 for j in range(num_summed)]
        total = ring.add(total, evaluate(circuit, ring, list(x_assign) + ys))
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
