import math
import random
from itertools import product

import pytest

from circuitbench.algebra import SparsePoly
from circuitbench.circuits import (
    CircuitBuilder,
    evaluate,
    expand_circuit,
    parse_circuit,
    random_circuit,
)
from circuitbench.errors import BudgetError, ParseError
from circuitbench import families
from circuitbench.families import (
    LANE_BITS,
    LANE_VALUES,
    TruthTable,
    _lane_bits,
    apply_projection,
    boolean_sum,
    hamiltonian_cycle_sum,
    hamiltonian_cycle_sum_padded,
    multilinear_extension,
    permanent,
    permanent_naive,
)
from circuitbench.pit import pit_equal
from circuitbench.rings import IntegerRing, LaneRing, PrimeField


def test_permanent_examples():
    assert permanent([[1, 1], [1, 1]]) == 2
    assert permanent([[1] * 3 for _ in range(3)]) == 6
    assert permanent([[1, 2], [3, 4]]) == 10


def test_permanent_matches_naive():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert permanent(m) == permanent_naive(m)
    for _ in range(50):
        n = rng.randint(1, 5)
        p = rng.choice([2, 5, 101])
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        assert permanent(m, mod=p) == permanent_naive(m, mod=p)


def test_permanent_cap():
    with pytest.raises(BudgetError):
        permanent([[1] * 13 for _ in range(13)])


def test_hc_examples():
    assert hamiltonian_cycle_sum([[1] * 3 for _ in range(3)]) == 2
    assert hamiltonian_cycle_sum([[1] * 4 for _ in range(4)]) == 6
    weighted = [[1, 5, 1], [1, 1, 1], [1, 1, 1]]
    # cycle 1->2->3->1 contributes 5, cycle 1->3->2->1 contributes 1
    assert hamiltonian_cycle_sum(weighted) == 6


def test_hc_all_ones_factorial():
    for n in range(2, 9):
        assert hamiltonian_cycle_sum([[1] * n for _ in range(n)]) == math.factorial(n - 1)


def test_hc_needs_two_vertices():
    with pytest.raises(ValueError):
        hamiltonian_cycle_sum([[1]])


def test_hc_padded():
    values = list(range(1, 11))  # n=10 uses the first 9 as a 3x3 matrix
    matrix = [values[0:3], values[3:6], values[6:9]]
    assert hamiltonian_cycle_sum_padded(values) == hamiltonian_cycle_sum(matrix)


def test_multilinear_parity():
    parity = TruthTable(2, [0, 1, 1, 0])
    assert multilinear_extension(parity) == SparsePoly(
        {(1, 0): 1, (0, 1): 1, (1, 1): -2}, 2
    )


def test_multilinear_constants():
    assert not multilinear_extension(TruthTable(2, [0, 0, 0, 0]))
    ext = multilinear_extension(TruthTable(2, [1, 1, 1, 1]))
    assert ext == SparsePoly({(0, 0): 1}, 2)
    # the indicator sum telescopes: check at non-Boolean points too
    rng = random.Random(3)
    for _ in range(10):
        point = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert ext.evaluate(point) == 1


def test_multilinear_matches_table_exhaustively():
    # every function on <= 2 bits, all 2^(2^n) of them
    for n in (1, 2):
        for values in product(range(-2, 3), repeat=1 << n):
            ext = multilinear_extension(TruthTable(n, values))
            for mask in range(1 << n):
                point = tuple(mask >> i & 1 for i in range(n))
                assert ext.evaluate(point) == values[mask]


def test_multilinear_matches_table_sampled():
    rng = random.Random(47)
    for n in (3, 4):
        for _ in range(20):
            values = [rng.randint(-9, 9) for _ in range(1 << n)]
            ext = multilinear_extension(TruthTable(n, values))
            assert ext.total_degree() <= n
            for mask in range(1 << n):
                point = tuple(mask >> i & 1 for i in range(n))
                assert ext.evaluate(point) == values[mask]


def test_truth_table_text():
    t = TruthTable(2, [3, -1, 0, 7])
    assert TruthTable.from_text(t.to_text()).values == t.values
    with pytest.raises(ParseError):
        TruthTable.from_text("01 3\n")  # incomplete


def test_boolean_sum_examples():
    # x * y1 * y2 over x fixed to 5: only y = (1,1) contributes
    b = CircuitBuilder(num_vars=3)
    c = b.finish(b.mul(b.input(1), b.mul(b.input(2), b.input(3))))
    assert boolean_sum(c, IntegerRing(), [5], 2) == 5

    b = CircuitBuilder(num_vars=2)
    c = b.finish(b.add(b.input(1), b.input(2)))
    assert boolean_sum(c, IntegerRing(), [], 2) == 4


def sat_count_circuit(clauses, num_y):
    """Arithmetize an AND of OR-clauses over y variables; literal j>0 means
    y_j, j<0 its negation."""
    b = CircuitBuilder(num_vars=num_y)
    one = b.const(1)
    acc = None
    for clause in clauses:
        fail = None  # product of (1 - literal)
        for lit in clause:
            yv = b.input(abs(lit))
            val = yv if lit > 0 else b.add(one, b.mul(b.const(-1), yv))
            miss = b.add(one, b.mul(b.const(-1), val))
            fail = miss if fail is None else b.mul(fail, miss)
        sat = b.add(one, b.mul(b.const(-1), fail))
        acc = sat if acc is None else b.mul(acc, sat)
    return b.finish(acc)


def test_boolean_sum_counts_satisfying_assignments():
    clauses = [(1, 2), (-1, 3), (2, -3)]
    circuit = sat_count_circuit(clauses, 3)
    expected = 0
    for mask in range(8):
        y = [mask >> i & 1 for i in range(3)]

        def lit(j):
            return y[j - 1] if j > 0 else 1 - y[-j - 1]

        expected += all(any(lit(j) for j in clause) for clause in clauses)
    assert boolean_sum(circuit, IntegerRing(), [], 3) == expected


def test_boolean_sum_matches_direct_polynomial_summation():
    rng = random.Random(53)

    for _ in range(100):
        total_vars = rng.randint(1, 4)
        summed = rng.randint(0, total_vars)
        c = random_circuit(rng, rng.randint(1, 8), num_vars=total_vars)
        poly = expand_circuit(c)
        xs = [rng.randint(-3, 3) for _ in range(total_vars - summed)]
        direct = 0
        for mask in range(1 << summed):
            point = xs + [mask >> i & 1 for i in range(summed)]
            direct += poly.evaluate(tuple(point))
        assert boolean_sum(c, IntegerRing(), xs, summed) == direct


def test_boolean_sum_budget():
    b = CircuitBuilder(num_vars=30)
    c = b.finish(b.input(1))
    with pytest.raises(BudgetError):
        boolean_sum(c, IntegerRing(), [], 30)
    # the budget counts 2^k evaluations times the node count
    b = CircuitBuilder(num_vars=3)
    c = b.finish(b.mul(b.input(1), b.add(b.input(2), b.input(3))))  # 5 nodes
    assert boolean_sum(c, IntegerRing(), [], 3, budget=8 * 5) == 4
    with pytest.raises(BudgetError, match="eval budget 39$") as info:
        boolean_sum(c, IntegerRing(), [], 3, budget=8 * 5 - 1)
    assert info.value.reached == 8 * 5
    # a budget of 0 allows no evaluation, not even the one of zero summed variables
    with pytest.raises(BudgetError):
        boolean_sum(c, IntegerRing(), [1, 1, 1], 0, budget=0)


def _scalar_boolean_sum(circuit, ring, xs, summed):
    """One scalar `evaluate` per assignment: the oracle for the lane path."""
    total = ring.from_int(0)
    for mask in range(1 << summed):
        point = list(xs) + [mask >> j & 1 for j in range(summed)]
        total = ring.add(total, evaluate(circuit, ring, point))
    return total


@pytest.mark.parametrize(
    "ring", [IntegerRing(), PrimeField(2), PrimeField(3), PrimeField(1000003)], ids=repr
)
def test_boolean_sum_matches_scalar_loop(ring):
    rng = random.Random(1415)
    p = ring.modulus or 7
    for case in range(48):
        summed = case % 12  # 9 and more summed variables cross chunks
        total_vars = summed + rng.randint(0, 2)
        c = random_circuit(rng, rng.randint(2, 16), num_vars=total_vars)  # constants in -5..5
        xs = [rng.randint(-3 * p, 3 * p) for _ in range(total_vars - summed)]
        assert boolean_sum(c, ring, xs, summed) == _scalar_boolean_sum(c, ring, xs, summed)
    b = CircuitBuilder(num_vars=10)
    constant = b.finish(b.mul(b.const(-4), b.const(p + 2)))
    want = _scalar_boolean_sum(constant, ring, [], 10)
    assert boolean_sum(constant, ring, [], 10) == want == ring.from_int(-4 * (p + 2) << 10)


def test_boolean_sum_lanes_shrink_for_large_circuits(monkeypatch):
    assert _lane_bits(150, 12) == LANE_BITS and _lane_bits(150, 3) == 3
    sizes = (257, 1000, LANE_VALUES, LANE_VALUES + 1)
    assert [_lane_bits(size, 12) for size in sizes] == [7, 6, 0, 0]
    for size in range(1, 3 * LANE_VALUES, 997):
        assert size << _lane_bits(size, 12) <= max(size, LANE_VALUES)
    calls = []
    monkeypatch.setattr(families, "evaluate", lambda *a: calls.append(1) or evaluate(*a))
    rng = random.Random(1416)
    c = random_circuit(rng, 1200, num_vars=9)
    assert _lane_bits(c.size(), 8) == 5
    ring, xs = PrimeField(1000003), [rng.randint(0, 10**6)]
    assert boolean_sum(c, ring, xs, 8) == _scalar_boolean_sum(c, ring, xs, 8)
    assert len(calls) == 2 ** (8 - 5)  # 32 lanes per pass, not 2^LANE_BITS


def test_lane_ring_broadcasts():
    z = LaneRing(IntegerRing())
    assert z.add(2, 3) == 5 and z.mul(-2, 3) == -6
    assert z.add(2, [1, -1]) == [3, 1] == z.add([1, -1], 2)
    assert z.mul(-3, [1, 2]) == [-3, -6] == z.mul([1, 2], -3)
    assert z.add([1, 2], [3, -4]) == [4, -2] and z.mul([1, 2], [3, -4]) == [3, -8]
    f = LaneRing(PrimeField(5))
    assert f.from_int(-1) == 4 and f.from_int(7) == 2
    assert f.add(3, 4) == 2 and f.mul(3, 4) == 2
    assert f.add(4, [1, 3]) == [0, 2] == f.add([1, 3], 4)
    assert f.mul(3, [2, 4]) == [1, 2] == f.mul([2, 4], 3)
    assert f.add([1, 4], [4, 4]) == [0, 3] and f.mul([2, 3], [3, 4]) == [1, 2]


def test_projection_to_constant_and_variable():
    b = CircuitBuilder(num_vars=2)
    c = b.finish(b.mul(b.input(1), b.input(2)))  # y1 * y2
    projected = apply_projection(c, {1: "x1", 2: -1})
    assert expand_circuit(projected) == SparsePoly({(1,): -1}, 1)


def test_projection_identity():
    c = parse_circuit("nvars 2\ng1 = in 1\ng2 = in 2\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n")
    same = apply_projection(c, {1: "x1", 2: "x2"}, num_vars=2)
    assert pit_equal(c, same, 101).equal


def test_projection_undeclared_target():
    c = parse_circuit("nvars 1\ng1 = in 1\nout g1\n")
    with pytest.raises(ValueError, match="undeclared"):
        apply_projection(c, {1: "x3"}, num_vars=2)


def hc_circuit(n):
    """Expanded cycle-sum circuit over n*n matrix-entry variables."""
    from itertools import permutations

    b = CircuitBuilder(num_vars=n * n)
    acc = None
    for rest in permutations(range(1, n)):
        cycle = (0,) + rest
        term = None
        for k in range(n):
            v = b.input(cycle[k] * n + cycle[(k + 1) % n] + 1)
            term = v if term is None else b.mul(term, v)
        acc = term if acc is None else b.add(acc, term)
    return b.finish(acc)


def test_projection_zeroing_hc_entry():
    c = hc_circuit(3)
    subst = {j: f"x{j}" for j in range(1, 10)}
    subst[2] = 0  # kill entry (1,2)
    projected = apply_projection(c, subst, num_vars=9)
    rng = random.Random(59)
    for _ in range(20):
        vals = [rng.randint(-4, 4) for _ in range(9)]
        matrix = [vals[0:3], vals[3:6], vals[6:9]]
        matrix[0][1] = 0
        assert evaluate(projected, IntegerRing(), vals) == hamiltonian_cycle_sum(matrix)


def test_projection_commutes_with_evaluation():
    rng = random.Random(61)

    for _ in range(200):
        c = random_circuit(rng, rng.randint(1, 8), num_vars=3)
        subst = {}
        for j in (1, 2, 3):
            if rng.random() < 0.5:
                subst[j] = f"x{rng.randint(1, 2)}"
            else:
                subst[j] = rng.randint(-3, 3)
        projected = apply_projection(c, subst, num_vars=2)
        point = [rng.randint(-5, 5) for _ in range(2)]
        lifted = [
            point[int(subst[j][1:]) - 1] if isinstance(subst[j], str) else subst[j]
            for j in (1, 2, 3)
        ]
        assert evaluate(projected, IntegerRing(), point) == evaluate(c, IntegerRing(), lifted)


def test_boolean_sum_mod_p():
    b = CircuitBuilder(num_vars=2)
    c = b.finish(b.add(b.input(1), b.input(2)))
    assert boolean_sum(c, PrimeField(3), [], 2) == 1
