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

from ._record import Record
from .circuits import compile_mod_evaluator, formal_degree
from .primes import require_prime


class PitVerdict(Record):
    __slots__ = (
        "equal",
        "witness",  # a point where values differ, when not equal
        "trials",
        "p",
    )


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
    run1 = compile_mod_evaluator(c1, p)
    run2 = compile_mod_evaluator(c2, p)
    return _random_trials(
        lambda point: run1(point, ()), lambda point: run2(point, ()),
        c1.num_vars, degree, p, trials, seed,
    )


def _random_trials(run1, run2, num_vars, degree, p, trials, seed):
    """The one Schwartz-Zippel trial loop, behind `pit_equal` and `embed`.

    Compares run1(point) and run2(point) at `trials` points of F_p^num_vars
    drawn from `random.Random(seed)`, for polynomials of degree at most
    `degree`; it refuses when p <= degree.
    """
    if p <= degree:
        raise ValueError(
            f"p={p} does not exceed the formal degree bound {degree}; "
            "the random-evaluation test would be unsound"
        )
    if trials is None:
        trials = default_trials(degree, p)
    rng = random.Random(seed)
    for _ in range(trials):
        point = tuple(rng.randrange(p) for _ in range(num_vars))
        if run1(point) != run2(point):
            return PitVerdict(False, point, trials, p)
    return PitVerdict(True, None, trials, p)
