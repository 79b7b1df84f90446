"""Primality testing and prime sieves.

The Miller-Rabin test with the first twelve prime bases is deterministic for
all inputs below 3.3 * 10^24, which covers every modulus this package ever
manufactures (the largest are the protocol primes p >= n! * M^n at desk
scale).
"""

import functools
from itertools import compress

from .errors import charge

# the Miller-Rabin bases, which also serve as the trial divisors
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

SIEVE_BUDGET = 10**7  # one flag byte per integer: sieve(10**7) peaks near 50 MB


@functools.lru_cache
def is_prime(n):
    """Deterministic primality test for n < 3.3e24.  Recent answers are
    cached; a refusal past the deterministic range is raised every time."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_DETERMINISTIC_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic Miller-Rabin range")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p):
    """The package's one composite-modulus refusal: ValueError("modulus <p> is
    not prime") unless `p` is prime."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _prime_flags(limit):
    """The sieve's flags: entry i is 1 exactly when i <= limit is prime.  A
    limit above SIEVE_BUDGET is refused before they are allocated."""
    charge("sieve", SIEVE_BUDGET, limit, f"the integers up to {limit}")
    if limit < 2:
        return bytearray()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    i = 2
    while i * i <= limit:
        if flags[i]:
            flags[i * i :: i] = bytearray((limit - i * i) // i + 1)
        i += 1
    return flags


def sieve(limit):
    """All primes <= limit, ascending."""
    return list(compress(range(limit + 1), _prime_flags(limit)))


def next_prime_at_least(n):
    """Smallest prime >= n; the prime-search budget ends at the 10^7-th candidate."""
    c = max(2, n)
    last = c + 10_000_000 - 1
    while not is_prime(c):
        c += 1
        if c > last:
            charge("prime-search", last, c, f"the candidates up to {c}")
    return c
