import gc
import random
import tracemalloc

import pytest

from circuitbench import pit
from circuitbench.circuits import (
    CircuitBuilder,
    compile_mod_evaluator,
    enumerate_circuits,
    formal_degree,
    parse_circuit,
    random_circuit,
)
from circuitbench.pit import PitVerdict, default_trials, pit_equal
from circuitbench.universal import embed


def square_of_x_plus_one():
    return parse_circuit("nvars 1\ng1 = in 1\ng2 = const 1\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n")


def expanded_square():
    return parse_circuit(
        "nvars 1\n"
        "g1 = in 1\ng2 = mul g1 g1\ng3 = const 2\ng4 = mul g3 g1\n"
        "g5 = add g2 g4\ng6 = const 1\ng7 = add g5 g6\nout g7\n"
    )


def permanent2():
    b = CircuitBuilder(num_vars=4)
    # entries x11 x12 / x21 x22 as variables 1 2 / 3 4
    return b.finish(b.add(b.mul(b.input(1), b.input(4)), b.mul(b.input(2), b.input(3))))


def determinant2():
    b = CircuitBuilder(num_vars=4)
    neg = b.mul(b.const(-1), b.mul(b.input(2), b.input(3)))
    return b.finish(b.add(b.mul(b.input(1), b.input(4)), neg))


def test_equal_circuits():
    verdict = pit_equal(square_of_x_plus_one(), expanded_square(), 101)
    assert verdict.equal
    assert verdict.witness is None


def test_permanent_vs_determinant():
    per2, det2 = permanent2(), determinant2()
    verdict = pit_equal(per2, det2, 101, trials=8)
    assert not verdict.equal
    runs = compile_mod_evaluator(per2, 101), compile_mod_evaluator(det2, 101)
    assert runs[0](verdict.witness, ()) != runs[1](verdict.witness, ())
    # the all-ones matrix separates them outright: 2 vs 0
    assert runs[0]((1, 1, 1, 1), ()) == 2
    assert runs[1]((1, 1, 1, 1), ()) == 0


def test_identical_circuit_always_equal():
    rng = random.Random(19)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 10), num_vars=2)
        assert pit_equal(c, c, 1009, seed=rng.getrandbits(16)).equal


def test_refuses_small_prime():
    c = square_of_x_plus_one()
    big = parse_circuit(
        "nvars 1\ng1 = in 1\ng2 = mul g1 g1\ng3 = mul g2 g2\ng4 = mul g3 g3\nout g4\n"
    )
    with pytest.raises(ValueError, match="formal degree"):
        pit_equal(c, big, 7)


def test_variable_count_must_match():
    with pytest.raises(ValueError):
        pit_equal(square_of_x_plus_one(), permanent2(), 101)


def test_default_trials_scaling():
    assert default_trials(1, 101) == 1  # p >= 100 * degree: one trial at 1%
    assert default_trials(16, 101) == 3
    assert default_trials(0, 101) == 1


def test_negative_trials_refused_before_any_cache_lookup():
    x = parse_circuit("nvars 1\ng1 = in 1\nout g1\n")
    x_squared = parse_circuit("nvars 1\ng1 = in 1\ng2 = mul g1 g1\nout g2\n")
    before = pit._cached_points.cache_info()
    with pytest.raises(ValueError, match="trials must be >= 0, got -3"):
        pit_equal(x, x_squared, 101, trials=-3)
    assert pit._cached_points.cache_info() == before
    assert pit_equal(x, x_squared, 101, trials=0) == PitVerdict(True, None, 0)


def _per_call_trials(run1, run2, num_vars, p, trials, seed):
    """The trial loop as it drew its points on every call: a fresh
    Random(seed), then one randrange(p) per coordinate, point by point."""
    rng = random.Random(seed)
    for index in range(trials):
        point = tuple(rng.randrange(p) for _ in range(num_vars))
        if run1(point) != run2(point):
            return (False, point, trials), index
    return (True, None, trials), None


PRIMES = (2, 3, 5, 7, 11, 13, 101, 257, 1009, 7919, 10007)


def _drawn_point(seed, p, num_vars, index):
    """The point the per-call loop draws at `index`."""
    rng = random.Random(seed)
    for _ in range(index + 1):
        point = tuple(rng.randrange(p) for _ in range(num_vars))
    return point


def _trial_cases():
    """Seeded (run1, run2, num_vars, p, trials, seed) cases: a circuit
    against itself, two random circuits, and, for half the cases, a circuit
    against itself plus the indicator of the point the per-call loop draws
    at index 0..49 in turn, so that unequal pairs exit at every trial index
    (or earlier, when F_p^num_vars is small enough to repeat a point)."""
    rng = random.Random(2203)
    for case in range(2400):
        num_vars, p = rng.randint(0, 4), rng.choice(PRIMES)
        trials, seed = rng.randint(0, 50), rng.getrandbits(32)
        c1 = random_circuit(rng, rng.randint(1, 8), num_vars=num_vars)
        run1 = compile_mod_evaluator(c1, p)
        kind = case % 4
        if kind == 0:
            run2 = compile_mod_evaluator(c1, p)
        elif kind == 1:
            run2 = compile_mod_evaluator(random_circuit(rng, rng.randint(1, 8), num_vars), p)
        else:
            index = (case // 4 * 2 + case % 2) % 50
            trials = rng.randint(index, 50)  # index == trials: no trial reaches it
            target = _drawn_point(seed, p, num_vars, index)
            run2 = lambda point, params, run=run1, target=target: (
                run(point, params) + (point == target)
            )
        yield (
            lambda point, run=run1: run(point, ()), lambda point, run=run2: run(point, ()),
            num_vars, p, trials, seed,
        )


def test_trial_points_match_a_fresh_generator_per_call():
    exits, equal, cases = set(), 0, 0
    for run1, run2, num_vars, p, trials, seed in _trial_cases():
        want, index = _per_call_trials(run1, run2, num_vars, p, trials, seed)
        got = pit._random_trials(run1, run2, num_vars, 0, p, trials, seed)
        assert (got.equal, got.witness, got.trials) == want
        exits.add(index)
        equal += got.equal
        cases += 1
    assert cases >= 2000
    assert set(range(50)) <= exits  # a witness first found at every trial index
    assert 500 <= equal <= cases - 500
    # past the cache's coordinate cap, or for a seed the cache does not key
    # on, the points are drawn lazily in the same order and nothing is kept
    pit._cached_points.cache_clear()
    run = lambda point: sum(point) % 5
    for trials, seed in ((400, 9), (40, bytearray(b"seed")), (40, 9.5)):
        want, _ = _per_call_trials(run, lambda point: 0, 4, 5, trials, seed)
        got = pit._random_trials(run, lambda point: 0, 4, 0, 5, trials, seed)
        assert (got.equal, got.witness, got.trials) == want
    assert pit._random_trials(run, run, 4, 0, 5, 40, None).equal
    assert pit._cached_points.cache_info().currsize == 0


def test_pit_equal_matches_a_fresh_generator_per_call():
    rng = random.Random(2204)
    for _ in range(300):
        num_vars, p = rng.randint(1, 3), rng.choice((101, 1009, 10007))
        c1 = random_circuit(rng, rng.randint(1, 8), num_vars)
        c2 = c1 if rng.random() < 0.5 else random_circuit(rng, rng.randint(1, 8), num_vars)
        trials, seed = rng.choice((None, rng.randint(0, 50))), rng.getrandbits(32)
        degree = max(formal_degree(c1), formal_degree(c2))
        runs = [lambda point, run=compile_mod_evaluator(c, p): run(point, ()) for c in (c1, c2)]
        count = default_trials.__wrapped__(degree, p) if trials is None else trials
        want, _ = _per_call_trials(*runs, num_vars, p, count, seed)
        got = pit_equal(c1, c2, p, trials=trials, seed=seed)
        assert (got.equal, got.witness, got.trials) == want


def test_trial_points_drawn_once_per_key(monkeypatch):
    constructed = []

    class CountingRandom(random.Random):
        def __init__(self, seed=None):
            constructed.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(pit, "Random", CountingRandom)
    pit._cached_points.cache_clear()
    corpus = list(enumerate_circuits(6, 1, (-1, 0, 1, 2), max_gates=3))
    for _ in range(2):
        for c in corpus:
            embed(c, 101, seed=77)
    degrees = range(max(formal_degree(c) for c in corpus) * 2 + 1)
    assert 1 <= len(constructed) <= len({default_trials(d, 101) for d in degrees})
    assert set(constructed) == {77}
    constructed.clear()
    for c in corpus[:200]:
        for trials in (0, 1, 5):
            pit_equal(c, c, 1009, trials=trials, seed=3)
    assert constructed == [3, 3, 3]


def test_point_cache_memory_does_not_grow_with_trials():
    c = square_of_x_plus_one()
    pit_equal(c, c, 101, trials=1)  # warm the prime check and the imports

    def retained(trials):
        pit._cached_points.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert pit_equal(c, c, 101, trials=trials).equal
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    cached = retained(pit.POINT_CACHE_COORDINATES)
    assert pit._cached_points.cache_info().currsize == 1
    small, big = retained(2_000), retained(200_000)
    assert pit._cached_points.cache_info().currsize == 0
    assert big <= small + 4096 < cached
    # a point without coordinates still counts against the cap
    constant = parse_circuit("nvars 0\ng1 = const 3\nout g1\n")
    assert pit_equal(constant, constant, 101, trials=pit.POINT_CACHE_COORDINATES + 1).equal
    assert pit._cached_points.cache_info().currsize == 0
