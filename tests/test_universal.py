import functools
import hashlib
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from circuitbench.algebra import SparsePoly
from circuitbench import circuits, pit, universal
from circuitbench.circuits import (
    bind_params,
    compile_mod_evaluator,
    enumerate_circuits,
    evaluate,
    expand_circuit,
    formal_degree,
    parse_circuit,
    serialize_circuit,
)
from circuitbench.errors import BudgetError, EmbeddingError
from circuitbench.rings import IntegerRing, PrimeField
from circuitbench.universal import (
    UniversalTemplate,
    build_universal,
    embed,
    truncated_coefficient_map,
    truncated_coefficient_map_reference,
)


def test_parameter_count():
    for s in range(1, 13):
        assert build_universal(s).param_count() == s * (s + 1)


def test_level_one_evaluation():
    t = build_universal(1)
    assert evaluate(t.circuit, IntegerRing(), [1], [2, 3]) == 5


def test_level_two_symbolic_expansion():
    # (a2_0 + a2_1 (a1_0 + b1_0 x)) * (b2_0 + b2_1 (a1_0 + b1_0 x)),
    # expanded with the parameters as extra variables 2..7 after x
    t = build_universal(2)
    got = expand_circuit(t.circuit, params_as_vars=True)

    def var(i):
        return SparsePoly.variable(i, 7)

    x, a10, b10, a20, a21, b20, b21 = (var(i) for i in range(1, 8))
    u1 = a10 + b10 * x
    want = (a20 + a21 * u1) * (b20 + b21 * u1)
    assert got == want


def test_coefficient_map_level_one_is_identity():
    t = build_universal(1)
    for a0 in range(5):
        for b0 in range(5):
            vec = truncated_coefficient_map(t, 1, 5, [a0, b0])
            assert vec.entries == (a0, b0)


def test_coefficient_map_linear_has_no_quadratic_part():
    t = build_universal(1)
    rng = random.Random(67)
    for _ in range(50):
        params = [rng.randrange(11) for _ in range(2)]
        vec = truncated_coefficient_map(t, 2, 11, params)
        assert vec.entries[2] == 0


def test_coefficient_map_pinned_example():
    t = build_universal(2)
    vec = truncated_coefficient_map(t, 2, 5, [1] * 6)
    assert vec.entries == (4, 4, 1)


def test_coefficient_map_matches_ring_reference():
    rng = random.Random(71)
    for s in (1, 2, 3):
        t = build_universal(s)
        for _ in range(20):
            d = rng.randint(0, 8)
            p = rng.choice([5, 7, 101])
            params = [rng.randrange(p) for _ in range(t.param_count())]
            fast = truncated_coefficient_map(t, d, p, params)
            ref = truncated_coefficient_map_reference(t, d, p, params)
            assert fast.entries == ref.entries


# (a + b x^2) * c (x + x + 3) + d e x + f + x^5: a one-variable circuit
# with the 2-level template's six slots but another shape, with a constant,
# x added to itself and a bare x^5
OTHER_TEMPLATE = UniversalTemplate(
    parse_circuit(
        "nvars 1\nnparams 6\ng1 = in 1\n"
        + "".join(f"g{k + 1} = param {k}\n" for k in range(1, 7))
        + "g8 = mul g1 g1\ng9 = mul g3 g8\ng10 = add g2 g9\ng11 = add g1 g1\n"
        "g12 = const 3\ng13 = add g11 g12\ng14 = mul g4 g13\ng15 = mul g10 g14\n"
        "g16 = mul g5 g6\ng17 = mul g16 g1\ng18 = add g15 g17\ng19 = add g18 g7\n"
        "g20 = mul g8 g8\ng21 = mul g20 g1\ng22 = add g19 g21\nout g22\n"
    )
)


def test_coefficient_map_follows_the_template_circuit():
    # the map evaluates `template.circuit`, whatever its shape
    rng = random.Random(79)
    t = OTHER_TEMPLATE
    assert t.param_count() == build_universal(2).param_count()
    for d in range(8):
        for p in (2, 5, 7, 101):
            for _ in range(10):
                params = [rng.randint(-2 * p, 2 * p) for _ in range(6)]
                fast = truncated_coefficient_map(t, d, p, params)
                ref = truncated_coefficient_map_reference(t, d, p, params)
                assert fast.entries == ref.entries


def test_coefficient_map_pads_a_large_degree_cap_quickly():
    # the series is cut at the circuit's formal degree, not at d, so a huge
    # d costs only the zero padding
    t = build_universal(2)
    params = [3, -1, 7, 2, 4, 12]
    start = time.perf_counter()
    vec = truncated_coefficient_map(t, 10**6, 5, params).entries
    elapsed = time.perf_counter() - start
    low = truncated_coefficient_map(t, 2, 5, params).entries
    assert vec == low + (0,) * (10**6 - 2)
    assert elapsed < 0.5


def test_coefficient_map_matches_full_expansion():
    rng = random.Random(73)
    for s in (1, 2, 3):
        t = build_universal(s)
        for _ in range(10):
            d = rng.randint(0, 8)
            p = rng.choice([5, 7])
            params = [rng.randrange(p) for _ in range(t.param_count())]
            bound = bind_params(t.circuit, params)
            full = expand_circuit(bound, modulus=p)
            want = tuple(full.truncate(d).coefficient((i,)) for i in range(d + 1))
            assert truncated_coefficient_map(t, d, p, params).entries == want


def test_coefficient_degree_bound_symbolically():
    # the coefficient of x^i, viewed as a polynomial in the parameters,
    # stays within the (i+1) * 2^(2s) degree bound
    for s in (1, 2):
        t = build_universal(s)
        poly = expand_circuit(t.circuit, params_as_vars=True)
        per_i = {}
        for exps, _ in poly.monomials():
            i = exps[0]
            par_deg = sum(exps[1:])
            per_i[i] = max(per_i.get(i, 0), par_deg)
        for i, deg in per_i.items():
            assert deg <= (i + 1) << (2 * s)


def test_template_construction_is_pinned():
    # SHA-256 of every template's text and slot numbering for s = 1..12,
    # recorded when `build_universal` had its own emit loop and the slots
    # were stored per level: the zero-aware construction with every slot
    # nonzero emits the same nodes in order, and `_slots` gives the same
    # numbers
    h = hashlib.sha256()
    for s in range(1, 13):
        t = build_universal(s)
        slots = tuple(tuple(map(tuple, universal._slots(j))) for j in range(1, s + 1))
        h.update(serialize_circuit(t.circuit).encode() + repr(slots).encode() + b"\n")
    assert h.hexdigest() == "c8c040d428ae386e15553797805a2fdd5eb6534dd7e2927150be303ba2b32c86"


def test_template_budget_is_charged_before_building():
    # s = 316 is the first level count over the budget (315 levels carry
    # 99,540 slots); the refusal comes before any node is emitted
    message = "^100172 template parameters exceed the template budget 100000$"
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=message) as err:
        build_universal(316)
    assert err.value.reached == 100172
    assert time.perf_counter() - start < 0.1


def test_template_serialization_reparses():
    t = build_universal(3)
    again = parse_circuit(serialize_circuit(t.circuit))
    assert again == t.circuit


def _index(level, i, side):
    """The parameter index of coefficient i on `side` ("a" or "b") of a level."""
    return universal._slots(level)["ab".index(side)][i] - 1


def test_embed_square():
    c = parse_circuit("nvars 1\ng1 = in 1\ng2 = mul g1 g1\nout g2\n")
    emb = embed(c, 101)
    assert emb.levels == 2
    assert emb.params[_index(1, 0, "a")] == 0
    assert emb.params[_index(1, 0, "b")] == 1
    assert emb.params[_index(2, 1, "a")] == 1
    assert emb.params[_index(2, 1, "b")] == 1


def test_embed_lone_constant_needs_two_levels():
    c = parse_circuit("nvars 1\ng1 = const 7\nout g1\n")
    emb = embed(c, 101)
    assert emb.levels == 2
    t = emb.template
    assert emb.params[_index(2, 0, "a")] == 7
    assert emb.params[_index(2, 0, "b")] == 1
    for r in range(5):
        assert evaluate(bind_params(t.circuit, emb.params), PrimeField(101), [r]) == 7


def test_embed_difference_of_squares():
    c = parse_circuit(
        "nvars 1\n"
        "g1 = in 1\ng2 = const 1\ng3 = add g1 g2\n"
        "g4 = const -1\ng5 = add g1 g4\ng6 = mul g3 g5\nout g6\n"
    )
    emb = embed(c, 101)
    bound = bind_params(emb.template.circuit, emb.params)
    target = parse_circuit(
        "nvars 1\ng1 = in 1\ng2 = mul g1 g1\ng3 = const -1\ng4 = add g2 g3\nout g4\n"
    )
    from circuitbench.pit import pit_equal

    assert pit_equal(bound, target, 101, trials=8).equal


def test_embed_identity_leaf():
    c = parse_circuit("nvars 1\ng1 = in 1\nout g1\n")
    emb = embed(c, 101)
    assert emb.levels == 1
    assert emb.params == (0, 1)


def test_embed_exhaustive_two_gates():
    p = 101
    field = PrimeField(p)
    rng = random.Random(79)
    for c in enumerate_circuits(5, 1, (-1, 0, 1, 2), max_gates=2):
        emb = embed(c, p)
        bound = bind_params(emb.template.circuit, emb.params)
        for _ in range(50):
            r = rng.randrange(p)
            assert evaluate(bound, field, [r]) == evaluate(c, field, [r])


def test_verification_rejects_a_changed_parameter():
    # x^2 embeds with level 1 = 0 + 1*x; a1.0 = 1 makes the template (x + 1)^2
    c = parse_circuit("nvars 1\ng1 = in 1\ng2 = mul g1 g1\nout g2\n")
    emb = embed(c, 101)
    params = list(emb.params)
    params[_index(1, 0, "a")] = 1
    with pytest.raises(EmbeddingError, match=r"failed at witness \(\d+,\)"):
        universal._verify_mod_p(emb.levels, bytes(map(bool, params)), tuple(params), c, 101, 0)


def test_verification_over_z_rejects_a_changed_parameter():
    # the same changed x^2 embedding, checked by exact expansion
    c = parse_circuit("nvars 1\ng1 = in 1\ng2 = mul g1 g1\nout g2\n")
    emb = embed(c)
    params = list(emb.params)
    params[_index(1, 0, "a")] = 1
    with pytest.raises(EmbeddingError, match="integer embedding verification failed"):
        universal._verify_over_z(emb.levels, bytes(map(bool, params)), tuple(params), c)


def test_neither_path_folds(monkeypatch):
    # a fold builds a new circuit through CircuitBuilder; neither check does:
    # over Z the zero-aware walk expands the template as emitted, and over
    # F_p the same walk emits the pruned template into a plain node list
    def refuse(*args):
        raise AssertionError("CircuitBuilder.finish called")

    monkeypatch.setattr(circuits.CircuitBuilder, "finish", refuse)
    c = parse_circuit(
        "nvars 1\ng1 = in 1\ng2 = const 7\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n"
    )
    assert embed(c, 101).levels == 3
    assert embed(c).levels == 3


def test_verification_rejects_a_nonzero_parameter_changed_to_another():
    # b1.0 = 2 makes the x^2 embedding's template 4x^2: the same zero
    # pattern as x^2's, so the check runs on the evaluator already cached
    c = parse_circuit("nvars 1\ng1 = in 1\ng2 = mul g1 g1\nout g2\n")
    emb = embed(c, 101)
    params = list(emb.params)
    params[_index(1, 0, "b")] = 2
    before = universal._template_evaluator.cache_info()
    with pytest.raises(EmbeddingError, match=r"failed at witness \(\d+,\)"):
        universal._verify_mod_p(emb.levels, bytes(map(bool, params)), tuple(params), c, 101, 0)
    assert universal._template_evaluator.cache_info().hits == before.hits + 1


def test_a_multiple_of_p_reads_as_zero_in_the_pattern():
    # over F_101, x*x + 101 gets the parameters of x*x + 0: the constant is
    # reduced before the zero pattern is read, so its check runs on the
    # evaluator x*x + 0 lowered; the cache starts empty, so no earlier
    # pattern is a hit
    universal._template_evaluator.cache_clear()
    text = "nvars 1\ng1 = in 1\ng2 = mul g1 g1\ng3 = const {}\ng4 = add g2 g3\nout g4\n"
    zero = embed(parse_circuit(text.format(0)), 101)
    before = universal._template_evaluator.cache_info()
    emb = embed(parse_circuit(text.format(101)), 101)
    after = universal._template_evaluator.cache_info()
    assert emb.params == zero.params
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_embed_over_z_of_repeated_squaring_stays_sparse():
    # x squared 39 times is one monomial of degree 2^39: a check whose work
    # grew with the degree (dense coefficients, or D + 1 evaluation points)
    # would never finish
    gates = "".join(f"g{i} = mul g{i - 1} g{i - 1}\n" for i in range(2, 41))
    c = parse_circuit(f"nvars 1\ng1 = in 1\n{gates}out g40\n")
    start = time.perf_counter()
    assert embed(c).levels == 40
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("p", [5, 7, 101, None], ids=["5", "7", "101", "z"])
def test_formal_degree_bounds_the_specialized_degree(p):
    # the check over F_p takes the target's formal degree as the degree of
    # both sides, so the bound pruned template's true degree must not exceed
    # it; two gates keep every formal degree below 5, so embed accepts the
    # whole corpus
    count = 0
    for c in enumerate_circuits(5, 1, (-1, 0, 1, 2), max_gates=2):
        emb = embed(c, p)
        pruned = universal._template_circuit(emb.levels, bytes(map(bool, emb.params)))
        true = expand_circuit(bind_params(pruned, emb.params), modulus=p).total_degree()
        assert true <= formal_degree(c)
        count += 1
    assert count == 395


def test_embed_over_the_integers():
    from circuitbench.rings import IntegerRing
    from circuitbench.universal import Embedding

    c = parse_circuit(
        "nvars 1\ng1 = in 1\ng2 = const 7\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n"
    )
    emb = embed(c)  # no modulus: integer parameters, exact verification
    assert isinstance(emb, Embedding)
    bound = bind_params(emb.template.circuit, emb.params)
    for r in (-3, 0, 2, 10):
        assert evaluate(bound, IntegerRing(), [r]) == (r + 7) ** 2


def test_embed_rejects_multivariate():
    c = parse_circuit("nvars 2\ng1 = in 1\ng2 = in 2\ng3 = add g1 g2\nout g3\n")
    with pytest.raises(ValueError):
        embed(c, 101)


def test_embed_rejects_params():
    c = parse_circuit("nvars 1\nnparams 1\ng1 = param 1\nout g1\n")
    with pytest.raises(ValueError):
        embed(c, 101)


@pytest.mark.parametrize(
    "p, digest",
    [
        (101, "1370483d1c9b864e7bc102f86b6336584eef8d3d20685da2dfddff5a323a7f6e"),
        (None, "b11d24e7ba509eb9b700afdc86e1e38b03ec8afe84d5c9e64ca52e8be7adf385"),
    ],
)
def test_embedding_parameters_are_pinned(p, digest):
    # SHA-256 of every (levels, params) over 5,705 circuits, recorded before
    # embed assigned parameters by linear forms
    h = hashlib.sha256()
    for c in enumerate_circuits(6, 1, (-1, 0, 1, 2), max_gates=3):
        emb = embed(c, p)
        h.update(repr((emb.levels, emb.params)).encode() + b"\n")
    assert h.hexdigest() == digest


def _random_template_cases():
    rng = random.Random(83)
    for _ in range(400):
        levels = rng.randint(1, 5)
        template = build_universal(levels)
        zeros = rng.random()
        params = tuple(
            0 if rng.random() < zeros else rng.randint(-2, 3)
            for _ in range(template.param_count())
        )
        yield levels, template, params


def _corpus():
    return enumerate_circuits(6, 1, (-1, 0, 1, 2), max_gates=3)


def _embedding_cases(p):
    for c in _corpus():
        emb = embed(c, p)
        yield emb.levels, emb.template, emb.params


@pytest.mark.parametrize(
    "cases",
    [_random_template_cases, lambda: _embedding_cases(101), lambda: _embedding_cases(None)],
    ids=["random", "embed-p101", "embed-z"],
)
def test_specialized_poly_matches_bind_then_expand(cases):
    # the check over Z expands the pruned template; its target here is the
    # full template with the parameters bound, so it passes only when the
    # two expansions agree
    count = 0
    for levels, template, params in cases():
        nonzero = bytes(map(bool, params))
        universal._verify_over_z(
            levels, nonzero, params, bind_params(template.circuit, params)
        )
        count += 1
    assert count >= 400


def test_templates_are_shared():
    for s in range(1, 5):
        assert build_universal(s) is build_universal(s)
    for _ in range(2):
        with pytest.raises(ValueError):
            build_universal(0)


def test_concurrent_embedding_matches_serial():
    corpus = list(enumerate_circuits(7, 1, (-1, 0, 1), max_gates=3))
    pairs = list(zip(corpus, corpus[1:]))

    def embed_all():
        return [embed(c, 101, seed=22) for c in corpus]

    def witnesses():
        return [pit.pit_equal(a, b, 101, seed=k % 7) for k, (a, b) in enumerate(pairs)]

    serial = embed_all(), witnesses()
    assert any(not verdict.equal for verdict in serial[1])
    pit._cached_points.cache_clear()
    pit.default_trials.cache_clear()
    barrier = threading.Barrier(4)

    def job():
        barrier.wait()
        return embed_all(), witnesses()

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = [f.result() for f in [pool.submit(job) for _ in range(4)]]
    for result in results:
        assert result == serial


@functools.cache
def _corpus_vectors():
    """The distinct (levels, params) of the `_embedding_cases` corpus over
    Z; reduced mod p they are its parameters over F_p."""
    return sorted({(emb.levels, emb.params) for emb in map(embed, _corpus())})


def _random_vectors(p):
    # zeros, nonzero multiples of p and other values, in random proportions
    rng = random.Random(89)
    for _ in range(400):
        levels = rng.randint(1, 5)
        zeros, multiples = rng.random(), rng.random()
        yield levels, tuple(
            0 if rng.random() < zeros
            else p * rng.choice((-2, -1, 1, 2)) if rng.random() < multiples
            else rng.randint(-2 * p, 2 * p)
            for _ in range(build_universal(levels).param_count())
        )


@pytest.mark.parametrize("p", [5, 7, 101])
def test_pruned_template_matches_the_template(p):
    # the cached evaluator of a zero pattern against the full template, at
    # every point of F_p
    count = 0
    for levels, params in [*_corpus_vectors(), *_random_vectors(p)]:
        run = universal._template_evaluator(levels, p, bytes(v % p != 0 for v in params))
        full = compile_mod_evaluator(build_universal(levels).circuit, p)
        for x in range(p):
            assert run((x,), params) == full((x,), params)
        count += 1
    assert count >= 4000 + 400  # 4,440 distinct corpus vectors and 400 random ones


def test_each_zero_pattern_is_lowered_once(monkeypatch):
    # a template is lowered on a cache miss only, so the lowering count is
    # at most the number of distinct (levels, zero pattern) keys; targets
    # have no parameter slots and are lowered once per embed
    lowered = []
    lower = universal.compile_mod_evaluator

    def counting(circuit, p):
        if circuit.num_params:
            lowered.append(p)
        return lower(circuit, p)

    monkeypatch.setattr(universal, "compile_mod_evaluator", counting)
    universal._template_evaluator.cache_clear()
    universal._template_circuit.cache_clear()
    cache = universal._template_evaluator.cache_info
    patterns = set()
    for c in _corpus():
        emb = embed(c, 101)
        patterns.add((emb.levels, tuple(v % 101 != 0 for v in emb.params)))
        assert cache().currsize <= cache().maxsize
    assert 0 < len(lowered) <= len(patterns)
    assert cache().hits + cache().misses == 5705
    # each pruned template is built for an evaluator's miss, at most once
    assert universal._template_circuit.cache_info().misses <= len(lowered)
