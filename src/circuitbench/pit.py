"""Randomized polynomial identity testing for circuits.

Two circuits computing polynomials of formal degree at most D differ at a
uniformly random point of F_p^n with probability at least 1 - D/p
(Schwartz-Zippel), so agreement on independent random points certifies
equality with error at most (D/p)^trials.  The test refuses outright when
p <= D, where a single trial carries no information; when trials is not
given it picks the smallest count driving the error below 1%.
"""

import math
import random
from dataclasses import dataclass

from .circuits import compile_mod_evaluator, formal_degree
from .primes import require_prime


@dataclass(frozen=True)
class PitVerdict:
    equal: bool
    witness: tuple | None  # a point where values differ, when not equal
    trials: int
    p: int


def default_trials(degree, p):
    """Smallest trial count with (degree/p)^trials <= 1%."""
    if degree <= 0:
        return 1
    ratio = degree / p
    if ratio >= 1:
        raise ValueError("p must exceed the formal degree")
    if ratio == 0:
        return 1
    return max(1, math.ceil(math.log(0.01) / math.log(ratio)))


def pit_equal(c1, c2, p, trials=None, seed=0):
    """Equality test for two parameter-free circuits over F_p.

    Returns a witness point on any disagreement; identical polynomials are
    always reported equal.
    """
    if c1.num_vars != c2.num_vars:
        raise ValueError("circuits must have the same variable count")
    if c1.num_params or c2.num_params:
        raise ValueError("bind parameter slots before identity testing")
    require_prime(p)
    degree = max(formal_degree(c1), formal_degree(c2))
    if p <= degree:
        raise ValueError(
            f"p={p} does not exceed the formal degree bound {degree}; "
            "the random-evaluation test would be unsound"
        )
    if trials is None:
        trials = default_trials(degree, p)
    rng = random.Random(seed)
    run1 = compile_mod_evaluator(c1, p)
    run2 = compile_mod_evaluator(c2, p)
    n = c1.num_vars
    for _ in range(trials):
        point = tuple(rng.randrange(p) for _ in range(n))
        if run1(point, ()) != run2(point, ()):
            return PitVerdict(False, point, trials, p)
    return PitVerdict(True, None, trials, p)
