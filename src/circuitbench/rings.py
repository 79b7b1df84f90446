"""Evaluation domains for circuits.

Five ring flavours cover everything the workbench needs: exact integers,
prime fields with plain int residues, lanes of many points of either of
those, rings of degree-truncated sparse polynomials over either of the
first two, and rings of degree-truncated dense one-variable series over
either of them.  A ring object knows how to build elements from ints and
how to add and multiply them; circuit evaluation is generic over that
interface.
"""

import operator
from itertools import repeat

from .algebra import DEFAULT_MONOMIAL_BUDGET, SparsePoly
from .errors import at_least
from .primes import require_prime


class IntegerRing:
    """Arbitrary-precision integers."""

    modulus = None

    def from_int(self, v):
        return int(v)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


class PrimeField:
    """F_p with elements stored as int residues in [0, p)."""

    def __init__(self, p):
        require_prime(p)
        self.modulus = p

    def from_int(self, v):
        return v % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus


class LaneRing:
    """Many points of a scalar ring (IntegerRing or PrimeField) at once.

    An element is either an int, the same value in every lane, or a list
    with one value per lane; `add` and `mul` broadcast an int against a
    list, and reduce mod p when the base ring is a PrimeField.  Evaluating a
    circuit over this ring runs the interpreter once per node for all lanes.
    """

    def __init__(self, base):
        self.base = base
        self.modulus = base.modulus

    def from_int(self, v):
        return self.base.from_int(v)

    def add(self, a, b):
        return self._lanes(operator.add, a, b)

    def mul(self, a, b):
        return self._lanes(operator.mul, a, b)

    def _lanes(self, op, a, b):
        p = self.modulus
        if isinstance(a, list):
            out = list(map(op, a, b if isinstance(b, list) else repeat(b)))
        elif isinstance(b, list):
            out = list(map(op, repeat(a), b))
        else:
            out = op(a, b)
            return out if p is None else out % p
        return out if p is None else [v % p for v in out]


class TruncatedPolyRing:
    """Polynomials over a base ring with monomials above `cap` discarded.

    Elements are SparsePoly values.  Truncation is applied after every
    multiplication; discarded monomials can never influence the surviving
    ones under + and *, so gate-by-gate deletion is exact.  cap=None keeps
    everything, which turns evaluation into exact symbolic expansion.
    """

    def __init__(self, base, var_count, cap, budget=DEFAULT_MONOMIAL_BUDGET):
        if cap is not None:
            at_least("degree cap", cap, 0)
        self.var_count = var_count
        self.cap = cap
        self.budget = budget
        self.modulus = base.modulus

    def from_int(self, v):
        return SparsePoly.const(v, self.var_count, self.modulus)

    def gen(self, index):
        """The generator polynomial for variable `index` (1-based)."""
        return SparsePoly.variable(index, self.var_count, self.modulus).truncate(self.cap)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a.mul_truncated(b, self.cap, budget=self.budget)


class DenseSeriesRing:
    """One-variable polynomials over a base ring with degrees above `cap`
    discarded, stored densely.

    An element is a tuple of cap + 1 coefficients, the constant term first,
    reduced mod p when the base ring is a PrimeField.  `mul` is one
    truncated convolution: each nonzero term c*x^i of the first factor adds
    c times the second factor, shifted up i degrees and cut at degree cap.
    An element never holds more than cap + 1 coefficients, so the ring needs
    no monomial budget.
    """

    def __init__(self, base, cap):
        at_least("degree cap", cap, 0)
        self.base = base
        self.cap = cap
        self.modulus = base.modulus

    def from_int(self, v):
        return (self.base.from_int(v),) + (0,) * self.cap

    def gen(self, index):
        """x, truncated to 0 when cap is 0; the ring has one variable."""
        if index != 1:
            raise ValueError(f"a one-variable ring has no variable {index}")
        return tuple(int(k == 1) for k in range(self.cap + 1))

    def add(self, a, b):
        p = self.modulus
        if p is None:
            return tuple(map(operator.add, a, b))
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def mul(self, a, b):
        top = self.cap + 1
        out = [0] * top
        for i, c in enumerate(a):
            if c:
                for j in range(top - i):
                    out[i + j] += c * b[j]
        p = self.modulus
        return tuple(out) if p is None else tuple([x % p for x in out])
