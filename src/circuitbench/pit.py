"""Randomized polynomial identity testing for circuits.

Two circuits computing polynomials of formal degree at most D differ at a
uniformly random point of F_p^n with probability at least 1 - D/p
(Schwartz-Zippel), so agreement on independent random points certifies
equality with error at most (D/p)^trials.  The test refuses outright when
p <= D, where a single trial carries no information; when trials is not
given it picks the smallest count driving the error below 1%.

The trial points are a pure function of (seed, p, n, trials), and the
default trial count of (D, p): each is computed once per key and shared by
every later call, `embed`'s included, so a repeated test pays only for its
evaluations.  The point cache keeps at most POINT_CACHE_ENTRIES keys of at
most POINT_CACHE_COORDINATES coordinates each, a point with none counting
as one; a larger request, or a seed other than an int, str or bytes, is
drawn lazily on every call and never kept.
"""

import functools
import math
from random import Random

from ._record import Record
from .circuits import compile_mod_evaluator, formal_degree
from .errors import at_least
from .primes import require_prime

POINT_CACHE_ENTRIES = 128  # (seed, p, n, trials) keys the point cache keeps
POINT_CACHE_COORDINATES = 512  # max(n, 1) * trials above this is never cached


class PitVerdict(Record):
    __slots__ = (
        "equal",
        "witness",  # a point where values differ, when not equal
        "trials",
    )


@functools.lru_cache(maxsize=256)
def default_trials(degree, p):
    """Smallest trial count with (degree/p)^trials <= 1%."""
    if degree <= 0:
        return 1
    ratio = degree / p
    if ratio >= 1:
        raise ValueError("p must exceed the formal degree")
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

    Compares run1(point) and run2(point) at `trials` points of F_p^num_vars,
    the first `trials` points of `random.Random(seed)`'s stream, for
    polynomials of degree at most `degree`; it refuses when p <= degree or
    trials < 0.  The default count and the points are computed once per key,
    (degree, p) and (seed, p, num_vars, trials), and shared by later calls,
    so a repeated key draws nothing; the point cache is bounded by entries
    and by coordinates per entry, as the module docstring says.
    """
    if trials is not None:
        at_least("trials", trials, 0)
    if p <= degree:
        raise ValueError(
            f"p={p} does not exceed the formal degree bound {degree}; "
            "the random-evaluation test would be unsound"
        )
    if trials is None:
        trials = default_trials(degree, p)
    for point in _trial_points(seed, p, num_vars, trials):
        if run1(point) != run2(point):
            return PitVerdict(False, point, trials)
    return PitVerdict(True, None, trials)


def _trial_points(seed, p, num_vars, count):
    """The first `count` points of F_p^num_vars drawn from `Random(seed)`:
    a shared cached tuple, or a lazy stream kept by no one when the request
    passes POINT_CACHE_COORDINATES or the seed is not an int, str or bytes
    (None draws fresh entropy on every call)."""
    cacheable = type(seed) in (int, str, bytes)
    if not cacheable or max(num_vars, 1) * count > POINT_CACHE_COORDINATES:
        return _draw_points(seed, p, num_vars, count)
    return _cached_points(seed, p, num_vars, count)


@functools.lru_cache(maxsize=POINT_CACHE_ENTRIES)
def _cached_points(seed, p, num_vars, count):
    return tuple(_draw_points(seed, p, num_vars, count))


def _draw_points(seed, p, num_vars, count):
    """One `randrange(p)` per coordinate, point by point, from a private
    `Random(seed)`: no generator state is shared between calls."""
    rng = Random(seed)
    for _ in range(count):
        yield tuple(rng.randrange(p) for _ in range(num_vars))
