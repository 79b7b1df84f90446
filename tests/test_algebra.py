import random

import pytest

from circuitbench.algebra import SparsePoly
from circuitbench.errors import BudgetError


def poly(coeffs, n, mod=None):
    return SparsePoly(coeffs, n, mod)


def x(n=1, mod=None):
    return SparsePoly.variable(1, n, mod)


def one(n=1, mod=None):
    return SparsePoly.const(1, n, mod)


def random_poly(rng, n, terms, max_deg=4, max_coeff=9, mod=None):
    coeffs = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, max_deg) for _ in range(n))
        coeffs[e] = rng.randint(-max_coeff, max_coeff)
    return SparsePoly(coeffs, n, mod)


def test_mul_truncated_cap_one():
    f = one() + x()
    assert f.mul_truncated(f, 1) == poly({(0,): 1, (1,): 2}, 1)


def test_mul_exact():
    f = one() + x()
    assert f * f == poly({(0,): 1, (1,): 2, (2,): 1}, 1)


def test_mul_truncated_kills_everything():
    x2 = poly({(2,): 1}, 1)
    assert not x2.mul_truncated(x2, 3)


def test_coefficient_lookup():
    f = poly({(2,): 2, (1,): 1, (0,): -3}, 1)
    assert f.coefficient((1,)) == 1
    assert f.coefficient((3,)) == 0
    g = poly({(1, 0): 1, (0, 1): 1, (1, 1): -2}, 2)
    assert g.coefficient((1, 1)) == -2


def test_weight():
    assert poly({(2,): 2, (1,): 1, (0,): -3}, 1).weight() == 6
    assert SparsePoly.const(0, 1).weight() == 0
    f = one() + x()
    assert (f * f * f).weight() == 8


def test_weight_undefined_mod_p():
    with pytest.raises(ValueError):
        poly({(1,): 1}, 1, mod=5).weight()


def test_zero_coefficients_dropped():
    assert poly({(1,): 0, (0,): 2}, 1).coeffs == {(0,): 2}
    assert poly({(1,): 5}, 1, mod=5).coeffs == {}


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        poly({}, 1, mod=6)


def test_domain_mismatch():
    with pytest.raises(ValueError):
        x(1) + x(2)
    with pytest.raises(ValueError):
        x(1) * x(1, mod=5)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 4)
        g = random_poly(rng, n, 4)
        h = random_poly(rng, n, 4)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_weight_is_an_algebra_norm():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, rng.randint(1, 5))
        g = random_poly(rng, n, rng.randint(1, 5))
        assert (f + g).weight() <= f.weight() + g.weight()
        assert (f * g).weight() <= f.weight() * g.weight()


def test_truncated_mul_matches_truncate_after():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, rng.randint(1, 50) % 12 + 1)
        g = random_poly(rng, n, rng.randint(1, 50) % 12 + 1)
        cap = rng.randint(0, 6)
        assert f.mul_truncated(g, cap) == (f * g).truncate(cap)


def test_monomial_budget():
    f = poly({(i, 0): 1 for i in range(30)}, 2)
    g = poly({(0, i): 1 for i in range(30)}, 2)
    with pytest.raises(BudgetError):
        f.mul_truncated(g, None, budget=100)


def test_monomial_budget_counts_every_monomial_formed():
    with pytest.raises(BudgetError) as info:
        (x() + one()).mul_truncated(x() - one(), None, budget=2)
    assert info.value.reached == 3
    assert (x() + one()).mul_truncated(x() - one(), None, budget=3) == x() * x() - one()


@pytest.mark.parametrize("mod", [None, 2, 5, 101])
def test_results_store_only_normalized_coefficients(mod):
    """The constructor is the one normalizer: no operation's result holds a
    zero, and over F_p every coefficient lies in [0, p)."""
    rng = random.Random(1303)
    for _ in range(400):
        f = random_poly(rng, 2, rng.randint(0, 6), max_deg=3, max_coeff=4, mod=mod)
        g = random_poly(rng, 2, rng.randint(0, 6), max_deg=3, max_coeff=4, mod=mod)
        cap = rng.choice((None, 0, 1, 2, 3))
        for r in (f + g, f - g, -f, f * g, f.mul_truncated(g, cap), f.truncate(cap)):
            assert 0 not in r.coeffs.values()
            if mod is not None:
                assert all(0 <= c < mod for c in r.coeffs.values())


def test_evaluate():
    f = poly({(2,): 2, (1,): 1, (0,): -3}, 1)
    assert f.evaluate((3,)) == 18
    assert poly({(1, 1): 1}, 2, mod=5).evaluate((3, 4)) == 2


def test_graded_lex_order():
    f = poly({(0, 2): 1, (1, 0): 2, (0, 0): 3, (2, 0): 4}, 2)
    assert [e for e, _ in f.monomials()] == [(0, 0), (1, 0), (0, 2), (2, 0)]
