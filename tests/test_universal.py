import hashlib
import random
import time

import pytest

from circuitbench.algebra import SparsePoly
from circuitbench import circuits, universal
from circuitbench.circuits import (
    bind_params,
    enumerate_circuits,
    evaluate,
    expand_circuit,
    formal_degree,
    parse_circuit,
)
from circuitbench.errors import EmbeddingError
from circuitbench.rings import IntegerRing, PrimeField
from circuitbench.universal import (
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


def test_template_serialization_reparses():
    t = build_universal(3)
    again = parse_circuit(t.to_text())
    assert again == t.circuit


def test_embed_square():
    c = parse_circuit("nvars 1\ng1 = in 1\ng2 = mul g1 g1\nout g2\n")
    emb = embed(c, 101)
    assert emb.levels == 2
    t = emb.template
    assert emb.params[t.param_slot(1, 0, "a") - 1] == 0
    assert emb.params[t.param_slot(1, 0, "b") - 1] == 1
    assert emb.params[t.param_slot(2, 1, "a") - 1] == 1
    assert emb.params[t.param_slot(2, 1, "b") - 1] == 1


def test_embed_lone_constant_needs_two_levels():
    c = parse_circuit("nvars 1\ng1 = const 7\nout g1\n")
    emb = embed(c, 101)
    assert emb.levels == 2
    t = emb.template
    assert emb.params[t.param_slot(2, 0, "a") - 1] == 7
    assert emb.params[t.param_slot(2, 0, "b") - 1] == 1
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
    params[emb.template.param_slot(1, 0, "a") - 1] = 1
    with pytest.raises(EmbeddingError, match=r"failed at witness \(\d+,\)"):
        universal._verify_mod_p(emb.template, tuple(params), c, 101, 0)


def test_verification_over_z_rejects_a_changed_parameter():
    # the same changed x^2 embedding, checked by exact expansion
    c = parse_circuit("nvars 1\ng1 = in 1\ng2 = mul g1 g1\nout g2\n")
    emb = embed(c)
    params = list(emb.params)
    params[emb.template.param_slot(1, 0, "a") - 1] = 1
    with pytest.raises(EmbeddingError, match="integer embedding verification failed"):
        universal._verify_over_z(emb.template, tuple(params), c)


def test_neither_path_folds(monkeypatch):
    # a fold builds a new circuit through CircuitBuilder; both checks read the template as emitted
    def refuse(*args):
        raise AssertionError("CircuitBuilder.finish called")

    monkeypatch.setattr(circuits.CircuitBuilder, "finish", refuse)
    c = parse_circuit(
        "nvars 1\ng1 = in 1\ng2 = const 7\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n"
    )
    assert embed(c, 101).levels == 3
    assert embed(c).levels == 3


def test_embed_over_z_of_repeated_squaring_stays_sparse():
    # x squared 39 times is one monomial of degree 2^39: a check whose work
    # grew with the degree (dense coefficients, or D + 1 evaluation points)
    # would never finish
    gates = "".join(f"g{i} = mul g{i - 1} g{i - 1}\n" for i in range(2, 41))
    c = parse_circuit(f"nvars 1\ng1 = in 1\n{gates}out g40\n")
    start = time.perf_counter()
    assert embed(c).levels == 40
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("p", [5, 7, 101])
def test_specialized_degree_bounds_the_true_degree(p):
    # between the degree of the bound template over F_p and the target's
    # formal degree; two gates keep every formal degree below 5, so embed
    # accepts the whole corpus
    for c in enumerate_circuits(5, 1, (-1, 0, 1, 2), max_gates=2):
        emb = embed(c, p)
        circuit = emb.template.circuit
        bound = universal._specialized_degree(circuit, emb.params, p)
        true = expand_circuit(bind_params(circuit, emb.params), modulus=p).total_degree()
        assert true <= bound <= formal_degree(c)


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
        template = build_universal(rng.randint(1, 5))
        zeros = rng.random()
        params = tuple(
            0 if rng.random() < zeros else rng.randint(-2, 3)
            for _ in range(template.param_count())
        )
        yield template.circuit, params


def _embedding_cases(p):
    for c in enumerate_circuits(6, 1, (-1, 0, 1, 2), max_gates=3):
        emb = embed(c, p)
        yield emb.template.circuit, emb.params


@pytest.mark.parametrize(
    "cases",
    [_random_template_cases, lambda: _embedding_cases(101), lambda: _embedding_cases(None)],
    ids=["random", "embed-p101", "embed-z"],
)
def test_specialized_poly_matches_bind_then_expand(cases):
    count = 0
    for circuit, params in cases():
        want = expand_circuit(bind_params(circuit, params))
        assert universal._specialized_poly(circuit, params) == want
        count += 1
    assert count >= 400


def test_specialized_walk_refuses_a_constant():
    # template circuits have no constants; a walk that read one would misread it
    c = parse_circuit("nvars 1\nnparams 1\ng1 = const 0\ng2 = param 1\ng3 = mul g1 g2\nout g3\n")
    for walk in (lambda: universal._specialized_degree(c, (1,), 101),
                 lambda: universal._specialized_poly(c, (1,))):
        with pytest.raises(ValueError, match="has no Const node"):
            walk()


def test_templates_are_shared():
    for s in range(1, 5):
        assert build_universal(s) is build_universal(s)
    for _ in range(2):
        with pytest.raises(ValueError):
            build_universal(0)
