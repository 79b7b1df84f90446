"""Evaluation domains for circuits.

Three ring flavours cover everything the workbench needs: exact integers,
prime fields with plain int residues, and rings of degree-truncated sparse
polynomials over either of the first two.  A ring object knows how to build
elements from ints and how to add and multiply them; circuit evaluation is
generic over that interface.
"""

from .algebra import DEFAULT_MONOMIAL_BUDGET, SparsePoly
from .primes import is_prime


class IntegerRing:
    """Arbitrary-precision integers."""

    modulus = None

    def from_int(self, v):
        return int(v)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def __repr__(self):
        return "IntegerRing()"


class PrimeField:
    """F_p with elements stored as int residues in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.modulus = p

    def from_int(self, v):
        return v % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def __repr__(self):
        return f"PrimeField({self.p})"


class TruncatedPolyRing:
    """Polynomials over a base ring with monomials above `cap` discarded.

    Elements are SparsePoly values.  Truncation is applied after every
    multiplication; discarded monomials can never influence the surviving
    ones under + and *, so gate-by-gate deletion is exact.  cap=None keeps
    everything, which turns evaluation into exact symbolic expansion.
    """

    def __init__(self, base, var_count, cap, budget=DEFAULT_MONOMIAL_BUDGET):
        if cap is not None and cap < 0:
            raise ValueError("degree cap must be >= 0")
        self.base = base
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

    def __repr__(self):
        return f"TruncatedPolyRing({self.base!r}, vars={self.var_count}, cap={self.cap})"
