import pytest

from circuitbench.errors import BudgetError
from circuitbench.primes import (
    _MR_DETERMINISTIC_LIMIT,
    SIEVE_BUDGET,
    is_prime,
    next_prime_at_least,
    sieve,
)


def test_small_primes():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_carmichael_numbers_rejected():
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(n)


def test_large_prime():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_sieve_matches_point_tests():
    primes = sieve(500)
    assert primes == [n for n in range(501) if is_prime(n)]
    assert sieve(1) == []


def test_prime_count():
    assert len(sieve(20)) == 8
    assert len(sieve(10**4)) == 1229


def test_sieve_refuses_past_its_budget():
    with pytest.raises(BudgetError) as info:
        sieve(SIEVE_BUDGET + 1)
    assert info.value.reached == SIEVE_BUDGET + 1


def test_next_prime_at_least():
    assert next_prime_at_least(8) == 11
    assert next_prime_at_least(11) == 11
    assert next_prime_at_least(-5) == 2
    import math

    bound = math.factorial(8) * 4**8
    p = next_prime_at_least(bound)
    assert p >= bound and is_prime(p)


def test_deterministic_range_guard():
    # values past the limit with no factor among the trial-division primes;
    # the refusal is raised on every call, never cached
    for n in (_MR_DETERMINISTIC_LIMIT, _MR_DETERMINISTIC_LIMIT + 6, 10**25 + 13):
        for _ in range(3):
            with pytest.raises(ValueError):
                is_prime(n)


def test_cached_answers_match_uncached_test():
    uncached = is_prime.__wrapped__
    ranges = [range(50), range(501), (561, 1105, 1729, 2465, 2821, 6601, 2**61 - 1, 2**61 + 1)]
    for _ in range(2):
        for numbers in ranges:
            for n in numbers:
                assert is_prime(n) == uncached(n)
