"""Exact sparse multivariate polynomial arithmetic.

Polynomials are stored as a map from exponent vectors (dense per-variable
degree tuples) to nonzero coefficients.  Coefficients are arbitrary-precision
integers, or residues when a prime modulus is attached.  Monomial order for
iteration is graded lexicographic.
"""

from .errors import charge
from .primes import is_prime, require_prime

DEFAULT_MONOMIAL_BUDGET = 10**6


class SparsePoly:
    """A multivariate polynomial with exponent-vector -> coefficient storage.

    Instances are value-like: no operation mutates its arguments.  `modulus`
    is None for integer coefficients or a prime p for F_p coefficients.
    The constructor is the one place coefficients are normalized: it reduces
    them into [0, p) and drops zeros, so operations only accumulate raw sums.
    """

    __slots__ = ("coeffs", "num_vars", "modulus")

    def __init__(self, coeffs, num_vars, modulus=None):
        if modulus is not None and not is_prime(modulus):
            require_prime(modulus)
        clean = {}
        for exps, c in coeffs.items():
            if len(exps) != num_vars:
                raise ValueError("exponent vector length does not match num_vars")
            if modulus is not None:
                c %= modulus
            if c:
                clean[tuple(exps)] = c
        self.coeffs = clean
        self.num_vars = num_vars
        self.modulus = modulus

    @classmethod
    def const(cls, value, num_vars, modulus=None):
        return cls({(0,) * num_vars: value}, num_vars, modulus)

    @classmethod
    def variable(cls, index, num_vars, modulus=None):
        """The polynomial x_index, with 1-based index."""
        if not 1 <= index <= num_vars:
            raise ValueError(f"variable index {index} out of range 1..{num_vars}")
        e = [0] * num_vars
        e[index - 1] = 1
        return cls({tuple(e): 1}, num_vars, modulus)

    def _check_compatible(self, other):
        if not isinstance(other, SparsePoly):
            raise TypeError("expected a SparsePoly")
        if self.num_vars != other.num_vars or self.modulus != other.modulus:
            raise ValueError("polynomial domains do not match")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return SparsePoly(out, self.num_vars, self.modulus)

    def __neg__(self):
        return SparsePoly({e: -c for e, c in self.coeffs.items()}, self.num_vars, self.modulus)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self.mul_truncated(other, None)

    def mul_truncated(self, other, cap, budget=DEFAULT_MONOMIAL_BUDGET):
        """Product with all monomials of total degree > cap removed.

        cap=None computes the exact product.  Raises BudgetError when more
        than `budget` distinct monomials are formed, counting those that
        later cancel.
        """
        self._check_compatible(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if cap is not None and d1 + sum(e2) > cap:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
                if len(out) > budget:
                    charge("monomial", budget, len(out), f"{len(out)} monomials of a product")
        return SparsePoly(out, self.num_vars, self.modulus)

    def truncate(self, cap):
        """Drop all monomials of total degree > cap."""
        if cap is None:
            return self
        kept = {e: c for e, c in self.coeffs.items() if sum(e) <= cap}
        return SparsePoly(kept, self.num_vars, self.modulus)

    def coefficient(self, exponents):
        """Stored coefficient of the given exponent vector, or zero."""
        e = tuple(exponents)
        if len(e) != self.num_vars:
            raise ValueError("exponent vector length does not match num_vars")
        return self.coeffs.get(e, 0)

    def weight(self):
        """Sum of absolute values of the coefficients (integer domain only)."""
        if self.modulus is not None:
            raise ValueError("weight is undefined over a prime field")
        return sum(abs(c) for c in self.coeffs.values())

    def total_degree(self):
        """Largest total degree of a monomial; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def evaluate(self, point):
        """Value at an integer point (reduced by the modulus when present)."""
        if len(point) != self.num_vars:
            raise ValueError("point length does not match num_vars")
        mod = self.modulus
        total = 0
        for e, c in self.coeffs.items():
            term = c
            for v, k in zip(point, e):
                if k:
                    term *= pow(v, k, mod) if mod is not None else v**k
            total += term
        return total % mod if mod is not None else total

    def monomials(self):
        """(exponents, coefficient) pairs in graded lexicographic order."""
        return [(e, self.coeffs[e]) for e in sorted(self.coeffs, key=lambda e: (sum(e), e))]

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.num_vars, self.modulus, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "SparsePoly(0)"
        parts = []
        for e, c in self.monomials():
            factors = [str(c)]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{i + 1}")
                elif k > 1:
                    factors.append(f"x{i + 1}^{k}")
            parts.append("*".join(factors))
        tail = f" mod {self.modulus}" if self.modulus is not None else ""
        return f"SparsePoly({' + '.join(parts)}{tail})"
