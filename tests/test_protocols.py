import random
from itertools import product

import pytest

from circuitbench.circuits import compile_mod_evaluator
from circuitbench.families import permanent
from circuitbench.protocols import (
    CheatingProver,
    HashMatrix,
    HonestProver,
    ama_simulate,
    build_determinant_chain,
    build_permanent_chain,
    find_collision_primes,
    gs_estimate,
    permanent_verify,
    phi,
    phi_reference,
    psi,
    random_hash_matrix,
    split_input,
)


def test_psi_zero_matrix_collides_distinct_elements():
    a = HashMatrix((0, 0), cols=4)
    assert psi([a], [3, 5])


def test_psi_identity_matrix_never_collides():
    a = HashMatrix((0b1000, 0b0100, 0b0010, 0b0001), cols=4)
    assert not psi([a], [3, 5])


def test_psi_requires_distinct_elements():
    a = HashMatrix((0, 0), cols=4)
    assert not psi([a], [3, 3])


def test_phi_matches_reference():
    rng = random.Random(101)
    for _ in range(200):
        m = rng.randint(1, 3)
        cols = rng.randint(2, 6)
        size = rng.randint(0, min(12, 1 << cols))
        elements = rng.sample(range(1 << cols), size)
        matrices = [random_hash_matrix(rng, m, cols) for _ in range(m)]
        assert phi(matrices, elements) == phi_reference(matrices, elements)


def test_phi_matches_tuple_search_tiny():
    # the literal exists-tuple definition, feasible only for tiny sets
    rng = random.Random(103)
    for _ in range(30):
        m = 2
        cols = 3
        elements = rng.sample(range(8), rng.randint(0, 5))
        matrices = [random_hash_matrix(rng, m, cols) for _ in range(m)]
        naive = any(
            psi(matrices, list(tup))
            for tup in product(elements, repeat=m + 1)
        )
        assert phi(matrices, elements) == naive


def test_gs_singleton_rate_zero():
    report = gs_estimate([7], m=4, trials=50, seed=1)
    assert report.rate == 0.0
    assert report.verdict == "small"


def test_gs_full_space_rate_one():
    report = gs_estimate(range(256), m=3, trials=50, seed=2, cols=8)
    assert report.rate == 1.0
    assert report.verdict == "large"


def test_gs_small_set_threshold():
    report = gs_estimate([1, 2, 3, 4], m=4, trials=1000, seed=3)
    assert report.rate <= 0.55
    assert report.verdict == "small"


def test_gs_large_set_exact_one():
    rng = random.Random(4)
    elements = rng.sample(range(1 << 12), 64)  # m * 2^m for m=4
    report = gs_estimate(elements, m=4, trials=1000, seed=5)
    assert report.rate == 1.0
    assert report.verdict == "large"


@pytest.mark.parametrize("m, trials", [(4, -5), (-2, 10)])
def test_gs_refuses_negative_counts(m, trials):
    with pytest.raises(ValueError, match="must be >= 0"):
        gs_estimate([1, 2, 3], m=m, trials=trials, seed=0)


def test_permanent_chain_circuits_compute_permanents():
    rng = random.Random(107)
    chain = build_permanent_chain(4)
    for k in (1, 2, 3, 4):
        run = compile_mod_evaluator(chain[k - 1], 10007)
        for _ in range(10):
            m = [[rng.randrange(50) for _ in range(k)] for _ in range(k)]
            flat = tuple(v for row in m for v in row)
            assert run(flat, ()) == permanent(m) % 10007


def test_honest_chain_always_accepted():
    chain = build_permanent_chain(3)
    for seed in range(40):
        report = permanent_verify(chain, 101, trials=2, seed=seed)
        assert report.accepted


def test_permanent_verify_refuses_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        permanent_verify(build_permanent_chain(2), 101, trials=-3, seed=0)


def test_wrong_base_rejected():
    from circuitbench.circuits import parse_circuit

    bad = parse_circuit("nvars 1\ng1 = in 1\ng2 = const 1\ng3 = add g1 g2\nout g3\n")
    chain = [bad] + build_permanent_chain(2)[1:]
    report = permanent_verify(chain, 101, trials=2, seed=0)
    assert not report.accepted
    assert "base" in report.reason


def test_determinant_corruption_rejected():
    per = build_permanent_chain(2)
    det = build_determinant_chain(2)
    chain = [per[0], det[1]]
    rejections = sum(
        not permanent_verify(chain, 101, trials=2, seed=seed).accepted
        for seed in range(200)
    )
    # each trial passes with probability 2/101, two trials per run
    assert rejections >= 190


def test_permanent_agreement_prime_pools():
    # the honest constant-free chain agrees with the permanent at every
    # prime; the determinant chain only modulo 2
    from circuitbench.protocols import permanent_agreement_system
    from circuitbench.systems import density_probe

    honest = permanent_agreement_system(build_permanent_chain(2))
    report = density_probe(honest, 60)
    assert report.ratio == 1.0

    det = permanent_agreement_system(build_determinant_chain(2))
    report = density_probe(det, 60)
    assert report.good_primes == (2,)


def test_split_input():
    assert split_input(2) == (1, 1)
    assert split_input(5) == (1, 4)
    assert split_input(8) == (4, 4)
    assert split_input(10) == (2, 8)
    with pytest.raises(ValueError):
        split_input(1)


def test_collision_primes_always_exist_at_default_sizes():
    rng = random.Random(109)
    for _ in range(20):
        matrices = [random_hash_matrix(rng, 4, 12) for _ in range(4)]
        picks = find_collision_primes(matrices, 12)
        assert picks is not None
        assert psi(matrices, list(picks))


def test_ama_non_square_branch():
    # n=6 splits into |y|=2, |z|=4, and 2 is not a square
    for b, verdict in ((0, "accept"), (1, "reject")):
        t = ama_simulate([1, 2, 3, 4, 5, 6], 0, b, HonestProver(), seed=11)
        assert t.verdict == verdict
        assert t.answer is None


def test_ama_honest_round_trip():
    x = [2, 3, 1, 4, 1, 1, 1, 1]  # |y| = 4, per([[2,3],[1,4]]) = 11
    y_perm = permanent([[2, 3], [1, 4]])
    assert y_perm == 11
    for i in (0, 1, 2, 3):
        want = y_perm >> i & 1
        t = ama_simulate(x, i, want, HonestProver(), seed=13 + i)
        assert t.verdict == "accept"
        assert t.answer == want
        t2 = ama_simulate(x, i, 1 - want, HonestProver(), seed=13 + i)
        assert t2.verdict == "reject"
        assert t2.answer == want


def test_ama_one_by_one_permanent():
    # n=5 splits into |y|=1: the chain degenerates to the single entry
    x = [7, 1, 1, 1, 1]
    for i in (0, 1, 2, 3):
        want = 7 >> i & 1
        t = ama_simulate(x, i, want, HonestProver(), seed=21 + i)
        assert t.verdict == "accept"
        assert t.answer == want


def test_ama_cheater_rejected_often():
    x = [2, 3, 1, 4, 1, 1, 1, 1]
    rej879 = 0
    for seed in range(60):
        t = ama_simulate(x, 0, 1, CheatingProver(), seed=seed)
        rej879 += t.verdict == "reject"
    assert rej879 >= 20  # well above the one-third requirement


def test_ama_transcript_deterministic():
    x = [2, 3, 1, 4, 1, 1, 1, 1]
    a = ama_simulate(x, 1, 1, HonestProver(), seed=99)
    b = ama_simulate(x, 1, 1, HonestProver(), seed=99)
    assert a.to_text() == b.to_text()
    c = ama_simulate(x, 1, 1, HonestProver(), seed=100)
    assert c.to_text() != a.to_text()


def test_ama_transcript_format():
    t = ama_simulate([2, 3, 1, 4, 1, 1, 1, 1], 0, 1, HonestProver(), seed=7)
    lines = t.to_text().splitlines()
    assert lines[0].startswith("round=1 sender=A payload=")
    assert lines[-1].startswith("verdict=")
    assert "answer=" in lines[-1]
    obj = t.to_json_obj()
    assert obj["verdict"] in ("accept", "reject")


class _DegenerateProver:
    """Sends a syntactically valid chain whose base circuit has a huge
    formal degree, which would void the identity test at small primes."""

    mode = "cheating(degenerate)"

    def message(self, t, n, max_value, matrices, cols):
        from circuitbench.circuits import CircuitBuilder

        honest = HonestProver().message(t, n, max_value, matrices, cols)
        if honest is None:
            return None
        b = CircuitBuilder(num_vars=1)
        node = b.input(1)
        for _ in range(6):
            node = b.mul(node, node)  # formal degree 64 exceeds small primes
        chain = (b.finish(node),) + honest.chain[1:]
        return type(honest)(
            chain,
            honest.small_primes,
            honest.small_constants,
            honest.big_prime,
            honest.big_constants,
        )


def test_ama_degenerate_chain_goes_to_failure_branch():
    x = [2, 3, 1, 4, 1, 1, 1, 1]
    for b, verdict in ((0, "accept"), (1, "reject")):
        t = ama_simulate(x, 0, b, _DegenerateProver(), seed=31)
        assert t.verdict == verdict
        assert t.answer is None


def test_ama_input_validation():
    with pytest.raises(ValueError):
        ama_simulate([1], 0, 0, HonestProver(), seed=0)
    with pytest.raises(ValueError):
        ama_simulate([1, -2], 0, 0, HonestProver(), seed=0)
    with pytest.raises(ValueError):
        ama_simulate([1, 2], 0, 2, HonestProver(), seed=0)


def test_ama_refuses_negative_verify_trials():
    # refused up front, not reported as an unverifiable chain
    with pytest.raises(ValueError, match="verify trials"):
        ama_simulate([2, 3, 1, 4, 1, 1, 1, 1], 0, 0, HonestProver(), seed=0, verify_trials=-1)
