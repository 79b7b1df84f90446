from itertools import product

import pytest

from circuitbench import circuits, forge
from circuitbench.algebra import SparsePoly
from circuitbench.circuits import enumerate_circuits, expand_circuit, parse_circuit
from circuitbench.errors import BudgetError
from circuitbench.forge import (
    DEFAULT_SWEEP_BUDGET,
    _closure_values,
    _sweep_image,
    find_hard_vector,
    hardness_certificate,
    lex_first_missing,
    poscoef,
    realizable_vectors,
    sign_condition_search,
)
from circuitbench.rings import DenseSeriesRing, PrimeField
from circuitbench.universal import build_universal, embed, truncated_coefficient_map


def test_sweep_examples():
    # a one-level template is linear, so the quadratic slot is dead
    for p in (2, 5):
        got = realizable_vectors(1, 2, p).vectors
        assert got == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_sweep_degree_zero_contains_both_constants():
    for s in (1, 2):
        vectors = realizable_vectors(s, 0, 5).vectors
        assert {(0,), (1,)} <= vectors


def test_sweep_matches_raw_parameter_enumeration():
    # independent oracle: walk every parameter assignment directly
    from itertools import product

    for s, d, p in ((1, 2, 3), (1, 3, 5), (2, 2, 3), (3, 2, 2), (3, 5, 2)):
        t = build_universal(s)
        raw = set()
        for params in product(range(p), repeat=t.param_count()):
            vec = truncated_coefficient_map(t, d, p, params).entries
            if all(v in (0, 1) for v in vec):
                raw.add(vec)
        assert realizable_vectors(s, d, p).vectors == raw


def _level_tuple_walk(s, d, p):
    """Reference sweep: every tuple of level values, each level formed from
    the span of the earlier ones (the walk the subspace sweep replaced)."""
    image = set()
    pair_cache = {}

    def series_mul(u, v):
        out = [0] * (d + 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v[: d + 1 - i]):
                out[i + j] = (out[i + j] + a * b) % p
        return tuple(out)

    def products(span):
        out = set()
        ordered = sorted(span)
        for qi, q in enumerate(ordered):
            for r in ordered[qi:]:
                if (q, r) not in pair_cache:
                    pair_cache[q, r] = series_mul(q, r)
                out.add(pair_cache[q, r])
        return out

    def combos(state):
        """All vectors a_0 * 1 + sum_i a_i * level_i over F_p."""
        spans = {(0,) * (d + 1)}
        for base in state:
            spans = {
                tuple((x + a * y) % p for x, y in zip(vec, base))
                for vec in spans
                for a in range(p)
            }
        return {((vec[0] + a0) % p,) + vec[1:] for vec in spans for a0 in range(p)}

    def rec(state, j):
        if j > s:
            image.add(state[-1])
            return
        if j == 1:
            for a0 in range(p):
                for b0 in range(p if d else 1):  # b0 is invisible at cap 0
                    rec(((a0, b0)[: d + 1] + (0,) * (d - 1),), 2)
            return
        for value in sorted(products(combos(state))):
            rec(state + (value,), j + 1)

    rec((), 1)
    return image


def test_sweep_matches_level_tuple_walk():
    cells = [(s, d, p) for s in (1, 2) for d in range(5) for p in (2, 3, 5, 7)]
    cells += [(3, d, p) for d in range(5) for p in (2, 3)]
    for s, d, p in cells:
        assert _sweep_image(s, d, p, DEFAULT_SWEEP_BUDGET) == _level_tuple_walk(s, d, p)
    # full-image sizes the walk gave; it takes seconds per cell here
    assert len(_sweep_image(3, 3, 5, DEFAULT_SWEEP_BUDGET)) == 625
    assert len(_sweep_image(3, 4, 5, DEFAULT_SWEEP_BUDGET)) == 1565


def test_sweep_budget():
    # the budget counts products formed, |V|(|V|+1)/2 per visited subspace
    with pytest.raises(BudgetError, match="sweep budget") as info:
        realizable_vectors(3, 4, 11, budget=10**5)
    assert info.value.reached > 10**5
    assert realizable_vectors(3, 2, 5).vectors  # 8,555 products
    # s = 1 forms no products, but its 10007^2 level-1 values count too
    with pytest.raises(BudgetError, match="sweep budget") as info:
        realizable_vectors(1, 2, 10007)
    assert info.value.reached == 10007**2


def test_zero_budget_allows_no_work():
    for oracle in ("parameter-sweep", "circuit-enumeration"):
        with pytest.raises(BudgetError):
            realizable_vectors(2, 2, 5, oracle=oracle, budget=0)
    with pytest.raises(BudgetError):
        sign_condition_search(3, 2, budget=0)


@pytest.mark.parametrize("s, d", [(0, 2), (-1, 2), (2, -1)])
def test_forge_rejects_bad_level_count_and_degree(s, d):
    with pytest.raises(ValueError):
        find_hard_vector(s, d, 5)
    with pytest.raises(ValueError):
        realizable_vectors(s, d, 5)


def test_enumeration_oracle_small():
    got = realizable_vectors(1, 2, 5, oracle="circuit-enumeration").vectors
    assert got == {(0, 0, 0), (1, 0, 0), (0, 1, 0)}
    assert realizable_vectors(0, 2, 5, oracle="circuit-enumeration").vectors == set()


@pytest.mark.parametrize("s, enum_size", [(1, -1), (-1, None)])
def test_enumeration_oracles_refuse_negative_vertex_bound(s, enum_size):
    with pytest.raises(ValueError, match="vertex bound"):
        realizable_vectors(s, 2, 5, oracle="circuit-enumeration", enum_size=enum_size)
    with pytest.raises(ValueError, match="vertex bound"):
        hardness_certificate(s, 2, 5, (0, 0, 1), enum_size=enum_size)


def _enumerate_then_expand(size, pool, cap=None, modulus=None):
    """The oracles' reference path: expand each enumerated circuit alone."""
    for c in enumerate_circuits(size, 1, pool):
        yield c, expand_circuit(c, cap=cap, modulus=modulus)


def _certificate_reference(s, p, gamma):
    target = SparsePoly({(i,): g for i, g in enumerate(gamma) if g}, 1, modulus=p)
    for c, poly in _enumerate_then_expand(s, range(p), modulus=p):
        if poly == target:
            return False, c
    return True, None


def test_enumeration_oracle_matches_per_circuit_expansion():
    # truncating at 5 keeps every coefficient at or below each d exact
    expanded = [poly for _, poly in _enumerate_then_expand(5, range(5), cap=5, modulus=5)]
    for d in (2, 3, 4, 5):
        want = set()
        for poly in expanded:
            vec = tuple(poly.coefficient((i,)) for i in range(d + 1))
            if all(x in (0, 1) for x in vec):
                want.add(vec)
        got = realizable_vectors(2, d, 5, oracle="circuit-enumeration", enum_size=5)
        assert got.vectors == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closure_values_equal_the_canonical_enumeration(p):
    # every value, not only the 0/1 vectors the oracle keeps
    for d in range(4):
        ring = DenseSeriesRing(PrimeField(p), d)
        for n in range(6):
            want = set(enumerate_circuits(n, 1, range(p), ring=ring))
            assert _closure_values(n, p, ring, 10**9) == want, (p, d, n)


def test_enumeration_oracle_refuses_a_level_before_growing_it(monkeypatch):
    sums = []

    class CountingRing(DenseSeriesRing):
        def add(self, a, b):
            sums.append((a, b))
            return super().add(a, b)

    monkeypatch.setattr(forge, "DenseSeriesRing", CountingRing)
    message = "^{} closure steps exceed the enumeration budget {}$"
    # level 0: 6 leaves; level 1: 6 one-value states, 1 pair and 6 leaves each
    for _ in range(2):
        with pytest.raises(BudgetError, match=message.format(48, 47)) as info:
            realizable_vectors(1, 2, 5, oracle="circuit-enumeration", enum_size=3, budget=47)
        assert info.value.reached == 48
    assert sums == []
    # level 2: 17 two-value states, 3 pairs and 6 leaves each; only level 1 ran
    with pytest.raises(BudgetError, match=message.format(201, 48)) as info:
        realizable_vectors(1, 2, 5, oracle="circuit-enumeration", enum_size=3, budget=48)
    assert info.value.reached == 201
    assert len(sums) == 6 and all(a == b for a, b in sums)


def test_find_hard_vector_pinned():
    result = find_hard_vector(1, 2, 5)
    assert result.gamma == (0, 0, 1)
    assert not result.saturated
    assert result.realized == realizable_vectors(1, 2, 5).vectors


def test_find_hard_vector_refuses_before_building(monkeypatch):
    # 5^160400 assignments: refused before any system or sweep work
    def never(*args):
        raise AssertionError("work started before the solver budget check")

    monkeypatch.setattr(forge, "build_hardness_system", never)
    monkeypatch.setattr(forge, "_sweep_image", never)
    message = r"^5\^160400 assignments exceed the eval budget 100000000$"
    with pytest.raises(BudgetError, match=message) as info:
        find_hard_vector(400, 1, 5)
    assert info.value.reached == 5**27  # capped at the budget's bit length
    with pytest.raises(BudgetError, match=r"^5\^2 assignments exceed the eval budget 0$"):
        find_hard_vector(1, 2, 5, solve_budget=0)


@pytest.mark.parametrize(
    "image, message",
    [
        (set(), "solver finds (0, 0, 0) solvable, sweep's first hard vector is (0, 0, 0)"),
        (set(product((0, 1), repeat=3)),
         "solver finds (0, 0, 1) unsolvable, sweep's first hard vector is None"),
    ],
    ids=["sweep-empty", "sweep-saturated"],
)
def test_find_hard_vector_refuses_a_disagreeing_sweep(monkeypatch, image, message):
    monkeypatch.setattr(forge, "_sweep_image", lambda *args: image)
    with pytest.raises(RuntimeError) as info:
        find_hard_vector(1, 2, 5)
    assert str(info.value) == message


def test_find_hard_vector_requires_enough_points():
    with pytest.raises(ValueError, match="p > d"):
        find_hard_vector(1, 2, 2)


def test_find_hard_vector_saturated_at_degree_zero():
    result = find_hard_vector(1, 0, 5)
    assert result.saturated
    assert result.gamma is None


def test_find_hard_vector_three_levels_mod_two():
    # 2^12 assignments: the full solve-and-cross-check stack at s=3
    result = find_hard_vector(3, 1, 2)
    assert result.saturated  # every linear 0/1 pair is a template value mod 2


def test_counting_guarantee():
    # whenever p^(s(s+1)) < 2^(d+1) a hard vector must exist
    for p in (5, 7):
        for d in range(7):
            if p <= d:
                continue
            if p**2 < 2 ** (d + 1):
                assert not find_hard_vector(1, d, p).saturated


def test_embedded_circuit_vectors_land_in_sweep():
    # circuits with at most s-1 gates embed into the s-level template, so
    # their truncated vectors are always realizable by the sweep
    s, d, p = 2, 3, 5
    sweep_raw = set()
    from itertools import product

    t = build_universal(s)
    for params in product(range(p), repeat=t.param_count()):
        sweep_raw.add(truncated_coefficient_map(t, d, p, params).entries)
    for c in enumerate_circuits(9, 1, range(p), max_gates=s - 1):
        emb = embed(c, p)
        assert emb.levels <= s
        poly = expand_circuit(c, cap=d, modulus=p)
        vec = tuple(poly.coefficient((i,)) for i in range(d + 1))
        assert vec in sweep_raw


def test_hardness_certificate_for_solver_answers():
    for s, d, p in ((1, 2, 5), (2, 2, 5), (2, 2, 7)):
        result = find_hard_vector(s, d, p)
        ok, witness = hardness_certificate(s, d, p, result.gamma)
        assert ok, f"gamma {result.gamma} computed by {witness}"
        assert _certificate_reference(s, p, result.gamma) == (True, None)


def test_hardness_certificate_witness_matches_per_circuit_expansion():
    for s, d, p, gamma in ((1, 2, 5, (0, 1, 0)), (3, 2, 5, (1, 1, 0)), (3, 2, 7, (0, 0, 1))):
        ok, witness = hardness_certificate(s, d, p, gamma)
        assert not ok
        assert (ok, witness) == _certificate_reference(s, p, gamma)


def test_enumeration_oracles_build_no_circuit(monkeypatch):
    # every Circuit is validated by __post_init__ when it is built; the
    # oracles read values alone, and the certificate builds circuits only to
    # recover its counterexample: the ring-free stream up to and including it
    built = []
    validate = circuits.Circuit.__post_init__
    monkeypatch.setattr(
        circuits.Circuit, "__post_init__", lambda c: built.append(c) or validate(c)
    )
    realizable_vectors(2, 3, 5, oracle="circuit-enumeration", enum_size=5)
    sign_condition_search(5, 6)
    assert built == []
    assert hardness_certificate(1, 2, 5, (0, 0, 1)) == (True, None)
    assert built == []
    ok, witness = hardness_certificate(3, 2, 5, (1, 1, 0))
    assert not ok
    stream = built[:]
    assert stream == list(enumerate_circuits(3, 1, range(5)))[: len(stream)]
    assert stream[-1] is witness


def test_lex_first_missing():
    assert lex_first_missing({(0, 0), (0, 1)}, 1) == (1, 0)
    assert lex_first_missing({(0,), (1,)}, 0) is None


def test_poscoef_signs():
    c = parse_circuit("nvars 1\ng1 = in 1\ng2 = const -1\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n")
    assert poscoef(c, 1) == -1
    assert poscoef(c, 2) == 1
    assert poscoef(c, 3) == 0


def test_poscoef_requires_constant_free():
    c = parse_circuit("nvars 1\ng1 = const 2\nout g1\n")
    with pytest.raises(ValueError):
        poscoef(c, 0)


def test_poscoef_matches_full_expansion():
    for c in enumerate_circuits(6, 1, (-1,)):
        full = expand_circuit(c)
        for i in range(0, 9):
            coeff = full.coefficient((i,)) if c.num_vars else 0
            assert poscoef(c, i) == (coeff > 0) - (coeff < 0)


def test_sign_condition_tiny():
    result = sign_condition_search(1, 2)
    assert result.bits == (0, 0, 1)
    assert result.realized == {(0, 1, 0), (0, 0, 0)}
    assert result.circuits_enumerated == 2


def test_sign_condition_saturated():
    result = sign_condition_search(3, 0)
    assert result.saturated
    assert result.bits is None


def test_sign_condition_empty_enumeration():
    result = sign_condition_search(0, 3)
    assert result.bits == (0, 0, 0, 0)
    assert result.circuits_enumerated == 0


@pytest.mark.parametrize("s, cap", [(-1, 3), (0, -1)])
def test_sign_condition_refuses_negative_size_or_cap(s, cap):
    with pytest.raises(ValueError, match="must be >= 0"):
        sign_condition_search(s, cap)


def test_sign_condition_charges_cap_plus_one_per_circuit(monkeypatch):
    circuits = sign_condition_search(4, 4).circuits_enumerated
    assert sign_condition_search(4, 4, budget=5 * circuits).circuits_enumerated == circuits
    with pytest.raises(BudgetError, match="budget") as info:
        sign_condition_search(4, 4, budget=5 * circuits - 1)
    assert str(info.value) == (
        f"{5 * circuits} coefficient signs (5 per circuit) exceed the sign-condition budget"
        f" {5 * circuits - 1}"
    )
    assert info.value.reached == 5 * circuits  # budget units, the last circuit included
    # a cap whose one circuit exceeds the budget is refused before enumerating
    monkeypatch.setattr(forge, "enumerate_circuits", None)
    for s in (0, 4):
        with pytest.raises(BudgetError, match="exceed the sign-condition budget 2000000") as info:
            sign_condition_search(s, 2_000_000)
        assert info.value.reached == 2_000_001


def test_sign_condition_matches_per_circuit_expansion():
    for s in range(6):
        # truncating at 8 keeps every coefficient at or below each cap exact
        expanded = [poly for _, poly in _enumerate_then_expand(s, (-1,), cap=8)]
        for cap in (0, 3, 8):
            realized = {
                tuple(1 if poly.coefficient((i,)) > 0 else 0 for i in range(cap + 1))
                for poly in expanded
            }
            result = sign_condition_search(s, cap)
            assert result.realized == realized
            assert result.circuits_enumerated == len(expanded)
            assert result.bits == lex_first_missing(realized, cap)


def test_sign_condition_answer_differs_from_every_circuit():
    for s in (1, 2, 3):
        for cap in (2, 5, 8):
            result = sign_condition_search(s, cap)
            if result.saturated:
                continue
            for c in enumerate_circuits(s, 1, (-1,)):
                poly = expand_circuit(c, cap=cap)
                bits = tuple(
                    1 if poly.coefficient((i,)) > 0 else 0 for i in range(cap + 1)
                )
                assert bits != result.bits
