import ast
import hashlib
import inspect
import random
import tracemalloc
from itertools import product

import pytest

from circuitbench import protocols
from circuitbench.circuits import Circuit, CircuitBuilder, compile_mod_evaluator
from circuitbench.errors import BudgetError
from circuitbench.families import permanent
from circuitbench.primes import sieve
from circuitbench.protocols import (
    CheatingProver,
    HashMatrix,
    HonestProver,
    ama_simulate,
    build_determinant_chain,
    build_permanent_chain,
    find_collision_primes,
    first_collision,
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


def _collision_corpus(seed, cases):
    """Seeded (matrices, elements) pairs with 0..4 matrices and sets of size
    0..12, the empty set with no matrices among them."""
    rng = random.Random(seed)
    corpus = [([], [])]
    for _ in range(cases):
        m = rng.randint(0, 4)
        cols = rng.randint(1, 6)
        elements = rng.sample(range(1 << cols), rng.randint(0, min(12, 1 << cols)))
        corpus.append(([random_hash_matrix(rng, m, cols) for _ in range(m)], elements))
    return corpus


def test_phi_matches_reference():
    for matrices, elements in _collision_corpus(101, 600):
        assert phi(matrices, elements) == phi_reference(matrices, elements)


def test_first_collision_witnesses_satisfy_psi():
    for matrices, elements in _collision_corpus(1204, 600):
        witness = first_collision(matrices, elements)
        assert (witness is not None) == phi_reference(matrices, elements)
        if witness is not None:
            assert set(witness) <= set(elements)
            assert psi(matrices, list(witness))


def _first_collision_buckets(matrices, elements):
    """The dict-bucketing search the lane search replaced, kept as its
    oracle: each matrix buckets every distinct element by `apply`."""
    elements = list(dict.fromkeys(elements))
    pivots, tables = set(elements), []
    for a in matrices:
        buckets = {}
        for e in elements:
            buckets.setdefault(a.apply(e), []).append(e)
        pivots &= {e for members in buckets.values() if len(members) > 1 for e in members}
        tables.append(buckets)
        if not pivots:
            break
    if not pivots:
        return None
    pivot = next(e for e in elements if e in pivots)
    mates = [next(e for e in b[a.apply(pivot)] if e != pivot) for a, b in zip(matrices, tables)]
    return (pivot, *mates)


def _outcome(search, matrices, elements):
    try:
        return search(matrices, elements)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_first_collision_matches_bucketing_oracle():
    """Full return tuples, refusals included, over lane widths 8 to 128."""
    rng = random.Random(1414)
    outcomes = set()
    for case in range(3000):
        m = rng.randint(0, 6)
        cols = rng.randint(1, 70)
        # a third of the cases mix matrix widths, so the widest sets the lane
        widths = [rng.randint(1, 70) if case % 3 == 0 else cols for _ in range(m)]
        narrow = min(widths, default=cols)
        # small value ranges force repeats and collisions, wide ones spread
        span = 1 << min(narrow, rng.choice([2, 4, 8, 70]))
        elements = [rng.randrange(span) for _ in range(rng.randint(0, 100))]
        if elements and case % 10 == 0:
            elements.insert(rng.randrange(len(elements)), rng.choice([-1, 1 << narrow]))
        matrices = [
            HashMatrix(tuple(rng.getrandbits(w) for _ in range(rng.randint(0, 6))), w)
            for w in widths
        ]
        want = _outcome(_first_collision_buckets, matrices, elements)
        assert _outcome(first_collision, matrices, elements) == want, (matrices, elements)
        outcomes.add("none" if want is None else type(want).__name__)
    assert outcomes == {"none", "tuple", "str"}
    # gs_estimate's shapes: cols 4..16, matrices with no rows or more rows
    # than a lane has bits, and every element repeated up to three times
    shapes = set()
    for _ in range(1000):
        cols = rng.randint(4, 16)
        rows = [rng.choice([0, rng.randint(1, 6), rng.randint(9, 40)]) for _ in range(3)]
        distinct = rng.sample(range(1 << cols), rng.randint(0, min(80, 1 << cols)))
        elements = [e for e in distinct for _ in range(rng.randint(1, 3))]
        rng.shuffle(elements)
        matrices = [random_hash_matrix(rng, r, cols) for r in rows[: rng.randint(0, 3)]]
        want = _first_collision_buckets(matrices, elements)
        assert first_collision(matrices, elements) == want, (matrices, elements)
        shapes.update((r == 0, r > 8) for r in map(len, (a.rows for a in matrices)))
        shapes.add("none" if want is None else "tuple")
    assert shapes == {(True, False), (False, False), (False, True), "none", "tuple"}


def test_first_collision_matrices_taller_than_a_lane():
    # more rows than lane bits split the hash keys into blocks of lane-width rows
    rng = random.Random(1417)
    for _ in range(300):
        cols = rng.randint(1, 20)
        elements = [rng.getrandbits(cols) for _ in range(rng.randint(0, 60))]
        count = rng.randint(1, 3)
        matrices = [random_hash_matrix(rng, rng.randint(7, 40), cols) for _ in range(count)]
        want = _first_collision_buckets(matrices, elements)
        assert first_collision(matrices, elements) == want, (matrices, elements)


def test_first_collision_memory_stays_linear_in_the_set():
    # 4,000 elements under 12-row matrices: the search holds a few hundred
    # bytes per element, not one lane mask of the whole set per bucket
    rng = random.Random(1418)
    elements = rng.sample(range(1 << 16), 4000)
    matrices = [random_hash_matrix(rng, 12, 16) for _ in range(12)]
    want = _first_collision_buckets(matrices, elements)
    tracemalloc.start()
    try:
        got = first_collision(matrices, elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 500 * len(elements), peak


def test_first_collision_refuses_like_apply():
    a = HashMatrix((0b101,), cols=3)
    for bad in (-1, 8):
        with pytest.raises(ValueError) as want:
            a.apply(bad)
        with pytest.raises(ValueError) as got:
            first_collision([a], [1, bad, 2, 9])
        assert str(got.value) == str(want.value)
    # only the matrices the search reaches check the elements
    identity = HashMatrix((0b100, 0b010, 0b001), 3)
    assert first_collision([identity, HashMatrix((), 1)], [1, 2, 4]) is None


def test_first_collision_ignores_repeated_elements():
    # a repeated element is not a distinct mate
    a = HashMatrix((0b11,), cols=2)
    assert first_collision([a], [1, 1, 2]) == (1, 2)
    assert first_collision([a], [1, 1]) is None
    assert not phi([a], [1, 1]) and not phi_reference([a], [1, 1])


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


def test_gs_estimate_counts_are_pinned():
    # SHA-256 of (phi_count, verdict) for the CLI's gs-sim case and 20
    # seeded (set size, m, cols, seed) cases, recorded before gs_estimate
    # packed its set once per estimate
    rng = random.Random(622)
    cases = [(rng.sample(range(1 << 12), 64), 4, 12, 1000, 622)]
    rng = random.Random(3501)
    for _ in range(20):
        cols, m = rng.randint(4, 16), rng.randint(0, 6)
        size = rng.randint(0, min(1 << cols, (m + 1) << m))  # both sides of m 2^m
        elements = rng.sample(range(1 << cols), size) * rng.randint(1, 2)  # repeats too
        cases.append((elements, m, cols, 100, rng.getrandbits(32)))
    answers = []
    for elements, m, cols, trials, seed in cases:
        report = gs_estimate(elements, m, trials, seed, cols=cols)
        answers.append((report.phi_count, report.verdict))
    assert answers[0] == (1000, "large")
    assert {verdict for _, verdict in answers} == {"small", "large", "inconclusive"}
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == "f87dafa3e4312794e06d784ddb9671e56bf8c94dda0f7d7cb9d4b9779c43cd37"


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


@pytest.mark.parametrize("build", [build_permanent_chain, build_determinant_chain])
@pytest.mark.parametrize("t", [0, 7])
def test_chain_length_outside_1_to_6_is_refused(build, t):
    with pytest.raises(ValueError, match=r"^chains supported for 1 <= t <= 6$"):
        build(t)


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
    from circuitbench.systems import density_probe, permanent_agreement_system

    honest = permanent_agreement_system(build_permanent_chain(2))
    report = density_probe(honest, 60)
    assert report.ratio == 1.0

    det = permanent_agreement_system(build_determinant_chain(2))
    report = density_probe(det, 60)
    assert report.good_primes == (2,)


def test_agreement_system_is_charged_before_it_is_built(monkeypatch):
    from circuitbench import systems
    from circuitbench.systems import permanent_agreement_system

    with pytest.raises(BudgetError) as info:
        permanent_agreement_system(build_permanent_chain(4))
    assert str(info.value) == "the grid points of 4 chain circuits exceed the agreement budget 100000"
    assert info.value.reached == 3 + 3**4 + 3**9 + 3**16
    # the budget counts equations: 3 + 81 for a chain of length 2
    monkeypatch.setattr(systems, "AGREEMENT_BUDGET", 84)
    assert len(permanent_agreement_system(build_permanent_chain(2)).equations) == 84
    monkeypatch.setattr(systems, "AGREEMENT_BUDGET", 83)
    with pytest.raises(BudgetError, match="agreement budget 83$"):
        permanent_agreement_system(build_permanent_chain(2))


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
        picks = find_collision_primes(matrices, sieve((1 << 12) - 1))
        assert picks is not None
        assert psi(matrices, list(picks))


def test_collision_primes_pinned():
    # SHA-256 of 300 seeded searches, recorded before the prime search and
    # phi shared one collision search
    rng = random.Random(1202)
    picks = []
    for _ in range(300):
        m = rng.randint(0, 6)
        cols = rng.randint(1, 12)
        matrices = [random_hash_matrix(rng, m, cols) for _ in range(m)]
        picks.append(find_collision_primes(matrices, sieve((1 << cols) - 1)))
    assert sum(p is None for p in picks) == 98
    digest = hashlib.sha256(repr(picks).encode()).hexdigest()
    assert digest == "c2064d2c57a22b096dcd0fcff56e542a7c509640997ce11391dcbd8c45d76506"


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
    assert a == b
    c = ama_simulate(x, 1, 1, HonestProver(), seed=100)
    assert c != a


def test_ama_transcript_format():
    # the record's shape; the CLI's text and JSON are checked in test_cli
    t = ama_simulate([2, 3, 1, 4, 1, 1, 1, 1], 0, 1, HonestProver(), seed=7)
    assert [r[:2] for r in t.rounds] == [(1, "A"), (2, "M"), (3, "A")]
    assert all(isinstance(payload, str) for _, _, payload in t.rounds)
    assert t.verdict in ("accept", "reject")
    assert t.answer in (0, 1)


def test_ama_degenerate_chain_goes_to_failure_branch():
    x = [2, 3, 1, 4, 1, 1, 1, 1]
    for b, verdict in ((0, "accept"), (1, "reject")):
        prover = _CorruptingProver(lambda msg: _with_chain(msg, 0, _degenerate_base))
        t = ama_simulate(x, 0, b, prover, seed=31)
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


@pytest.mark.parametrize("m, k", [(-1, 1), (4, -1)])
def test_ama_refuses_negative_m_and_k(m, k):
    with pytest.raises(ValueError, match="must be >= 0"):
        ama_simulate([2, 3, 1, 4, 1, 1, 1, 1], 0, 0, HonestProver(), seed=0, k=k, m=m)


def test_ama_zero_m_and_k_keep_their_transcripts():
    x = [2, 3, 1, 4, 1, 1, 1, 1]
    t = ama_simulate(x, 0, 0, HonestProver(), seed=0, m=0)
    assert t.rounds[0][2].endswith(" matrices=")
    assert (t.verdict, t.answer) == ("reject", 1)
    t = ama_simulate(x, 0, 0, HonestProver(), seed=0, k=0)
    assert t.rounds[-1][2] == "checks=failed reason=skeleton too large branch=b-zero"
    assert (t.verdict, t.answer) == ("accept", None)


def _bloated(circuit):
    """The same polynomial as `circuit` in more than 64 nodes."""
    b = CircuitBuilder(num_vars=circuit.num_vars)
    node = b.inline(circuit)
    for _ in range(70):
        node = b.add(node, b.const(0))
    return b.finish(node)


def _plus_one(circuit):
    b = CircuitBuilder(num_vars=circuit.num_vars)
    return b.finish(b.add(b.inline(circuit), b.const(1)))


def _degenerate_base(circuit):
    """A base circuit whose huge formal degree voids the identity test at
    small primes."""
    b = CircuitBuilder(num_vars=1)
    node = b.input(1)
    for _ in range(6):
        node = b.mul(node, node)  # formal degree 64 exceeds small primes
    return b.finish(node)


def replaced(msg, **changes):
    """`msg` rebuilt through its constructor with some fields changed."""
    fields = {name: getattr(msg, name) for name in type(msg).__slots__}
    return type(msg)(**{**fields, **changes})


def _with_chain(msg, position, change):
    chain = list(msg.chain)
    chain[position] = change(chain[position])
    return replaced(msg, chain=tuple(chain))


# one corruption of the honest message per refusal site of ama_simulate,
# as (reason, corruption); x = [2, 3, 1, 4, 1, 1, 1, 1] gives t = 2, n = 8
_REFUSALS = [
    ("no prover message", lambda msg: None),
    ("malformed message", lambda msg: replaced(msg, chain=msg.chain[:1])),
    ("malformed constants",
     lambda msg: replaced(msg, small_constants=msg.small_constants[1:])),
    ("inconsistent parameter counts",
     lambda msg: _with_chain(msg, 0, lambda c: Circuit(c.nodes, c.output, c.num_vars, 1))),
    ("wrong chain arity", lambda msg: replaced(msg, chain=msg.chain[::-1])),
    ("skeleton too large", lambda msg: _with_chain(msg, 1, _bloated)),
    ("constant vector length mismatch",
     lambda msg: replaced(msg, small_constants=((0,),) * len(msg.small_primes))),
    ("constant vector length mismatch", lambda msg: replaced(msg, big_constants=(0,))),
    ("prime does not fit the encoding",
     lambda msg: replaced(msg, small_primes=msg.small_primes[:-1] + (4099,))),
    ("no hash collision",
     lambda msg: replaced(msg, small_primes=msg.small_primes[:1] * 5)),
    ("evaluation prime too small", lambda msg: replaced(msg, big_prime=2)),
    ("composite modulus ", lambda msg: replaced(msg, big_prime=msg.big_prime * 3)),
    ("chain not verifiable mod ", lambda msg: _with_chain(msg, 0, _degenerate_base)),
    ("chain is not the permanent mod ", lambda msg: _with_chain(msg, 1, _plus_one)),
]


class _CorruptingProver:
    """Sends the honest message with one corruption applied."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def message(self, t, n, max_value, matrices, candidates):
        return self.corrupt(HonestProver().message(t, n, max_value, matrices, candidates))


@pytest.mark.parametrize(
    "reason, corrupt", _REFUSALS, ids=[f"{i}-{r.strip()}" for i, (r, _) in enumerate(_REFUSALS)]
)
def test_ama_verifier_refusals(reason, corrupt):
    x = [2, 3, 1, 4, 1, 1, 1, 1]
    for b, verdict in ((0, "accept"), (1, "reject")):
        t = ama_simulate(x, 0, b, _CorruptingProver(corrupt), seed=41)
        last = t.rounds[-1][2]
        assert last.startswith(f"checks=failed reason={reason}"), last
        assert last.endswith(" branch=b-zero")
        assert (t.verdict, t.answer) == (verdict, None)


def _fail_reasons():
    """The reason of every fail(...) call in ama_simulate; the constant
    prefix of an f-string reason."""
    tree = ast.parse(inspect.getsource(protocols.ama_simulate).lstrip())
    reasons = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fail":
            (arg,) = node.args
            if isinstance(arg, ast.JoinedStr):
                arg = arg.values[0]
            reasons.append(arg.value)
    return reasons


def test_every_ama_refusal_reason_has_a_case():
    # one case per fail(...) site, and every reason among the cases
    reasons = _fail_reasons()
    assert len(reasons) == len(_REFUSALS)
    assert set(reasons) == {reason for reason, _ in _REFUSALS}
