import random

import pytest

from circuitbench import cli
from circuitbench.circuits import (
    ADD,
    CONST,
    INPUT,
    MUL,
    PARAM,
    Add,
    Circuit,
    CircuitBuilder,
    Const,
    InputVar,
    Mul,
    Param,
    bind_params,
    compile_mod_evaluator,
    enumerate_circuits,
    evaluate,
    expand_circuit,
    formal_degree,
    is_constant_free,
    parse_circuit,
    parse_circuits,
    random_circuit,
    serialize_circuit,
    weight_report,
)
from circuitbench.errors import BudgetError, ParseError
from circuitbench.rings import DenseSeriesRing, IntegerRing, PrimeField, TruncatedPolyRing
from circuitbench.systems import parse_system

SQUARE_TEXT = "nvars 1\ng1 = in 1\ng2 = const -1\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n"


def test_parse_square():
    c = parse_circuit(SQUARE_TEXT)
    assert c.size() == 4
    assert evaluate(c, IntegerRing(), [3]) == 4


def test_parse_single_const():
    c = parse_circuit("g1 = const -1\nout g1\n".join(["nvars 0\n", ""]))
    assert c.size() == 1
    assert is_constant_free(c)


def test_parse_forward_reference():
    with pytest.raises(ParseError, match="line 3"):
        parse_circuit("nvars 1\ng1 = in 1\ng2 = add g3 g1\nout g2\n")


def test_parse_duplicate_gate():
    with pytest.raises(ParseError, match="duplicate"):
        parse_circuit("nvars 1\ng1 = in 1\ng1 = const 2\nout g1\n")


def test_parse_missing_output():
    with pytest.raises(ParseError, match="output"):
        parse_circuit("nvars 1\ng1 = in 1\n")


def test_parse_nonconsecutive_names():
    with pytest.raises(ParseError, match="consecutive"):
        parse_circuit("nvars 1\ng2 = in 1\nout g2\n")


def parse_chain(text):
    """The `per-verify --chain` reader: circuits separated by '---'."""
    return parse_circuits(text.splitlines())


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_circuit, "nvars 1\ng1 = in x\nout g1\n", 2),
        (parse_circuit, "nvars 0\nnparams 1\n\ng1 = param y\nout g1\n", 4),
        (parse_system, "# header\nunknowns x\n---\nnvars 0\ng1 = const 0\nout g1\n", 2),
        (parse_system, "\nnonsense 3\n", 2),
        (parse_system, "unknowns -1\n---\nnvars 0\ng1 = const 0\nout g1\n", 1),
        (parse_system, "unknowns 1\n---\nnvars 0\nnparams 1\ng1 = param z\nout g1\n", 5),
        (parse_system, "unknowns 1\nnvars 0\ng1 = const 2\nout g1\n---\nnvars 0\nbogus\n", 7),
        (parse_chain, "nvars 1\ng1 = in 1\nout g1\n---\nnvars 1\ng1 = in 1\ng2 = mul g1 g9\nout g2\n", 7),
        (parse_chain, "\n\n---\nnvars 1\n\ng1 = in 1\nout g2\n", 7),
        # an equation with free input variables names its nvars line
        (parse_system, "unknowns 1\n---\nnvars 1\ng1 = in 1\nout g1\n", 3),
        # a parameter slot past `unknowns` names the equation's nparams line
        (parse_system, "unknowns 1\n---\nnvars 0\nnparams 2\ng1 = param 2\nout g1\n", 4),
        # a row whose entry count is not the row count
        (cli._read_matrix, "1 2\n3\n", 2),
        # integer tokens are <signed decimal>, -?[0-9]+ in ASCII digits
        (parse_circuit, "nvars 0\ng1 = const 1_0\nout g1\n", 2),
        (parse_circuit, "nvars 1\ng1 = in 1\ng+2 = mul g1 g1\nout g2\n", 3),
        (parse_circuit, "nvars 0\ng1 = const \u0663\nout g1\n", 2),
        (cli._read_matrix, "1 2\n3 +2\n", 2),
    ],
)
def test_malformed_text_names_the_line(monkeypatch, parse, text, line):
    # read matrices from the text itself instead of from a named file
    monkeypatch.setattr(cli, "_read", lambda text: text)
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")


# The errors about a file as a whole, which carry no line (see README "File formats").
WHOLE_FILE_ERRORS = (
    "empty circuit text",
    "empty system text",
    "system has no equations",
)


def test_mutated_texts_parse_or_name_the_line(monkeypatch):
    # read matrices from the text itself instead of from a named file
    monkeypatch.setattr(cli, "_read", lambda text: text)
    valid = [
        (parse_circuit, "nvars 2\nnparams 1\ng1 = in 1\ng2 = param 1\ng3 = const -3\n"
         "g4 = mul g1 g2\ng5 = add g4 g3\nout g5\n"),
        (parse_system, "unknowns 2\n---\nnvars 0\nnparams 2\ng1 = param 1\ng2 = param 2\n"
         "g3 = mul g1 g2\nout g3\n---\nnvars 0\nnparams 1\ng1 = param 1\ng2 = const 1\n"
         "g3 = add g1 g2\nout g3\n"),
        (parse_chain, "nvars 1\ng1 = in 1\nout g1\n---\nnvars 4\ng1 = in 1\ng2 = in 4\n"
         "g3 = mul g1 g2\nout g3\n"),
        (cli._read_matrix, "1 2 0\n-3 4 5\n6 7 8\n"),
    ]
    extra = ["---", "-1", "0", "2", "g0", "g9", "x", "=", "nvars", "nparams", "mod", "1e3"]
    rng = random.Random(2024)
    refused = 0
    for parse, text in valid:
        parse(text)
        rows = [line.split() for line in text.splitlines()]
        pool = [tok for row in rows for tok in row] + extra
        for _ in range(400):
            mutant = [list(row) for row in rows]
            for _ in range(rng.randint(1, 3)):
                op = rng.choice(("swap", "insert", "delete"))
                row = rng.choice(mutant)
                if op == "insert":
                    row.insert(rng.randint(0, len(row)), rng.choice(pool))
                elif op == "delete" and row:
                    del row[rng.randrange(len(row))]
                elif op == "swap":
                    spots = [(r, i) for r, cells in enumerate(mutant) for i in range(len(cells))]
                    (r1, i1), (r2, i2) = rng.choice(spots), rng.choice(spots)
                    mutant[r1][i1], mutant[r2][i2] = mutant[r2][i2], mutant[r1][i1]
            mutant_text = "\n".join(" ".join(row) for row in mutant) + "\n"
            try:
                parse(mutant_text)
            except ParseError as exc:
                refused += 1
                message = str(exc)
                assert exc.line is not None or message.startswith(WHOLE_FILE_ERRORS), (
                    parse, mutant_text, message,
                )
    # the mutants reach the readers' refusals, not only their happy paths
    assert refused > 600


def test_comment_only_sections_are_skipped():
    system = parse_system("unknowns 1\n# equation 1\n---\nnvars 0\nnparams 1\ng1 = param 1\nout g1\n")
    assert system.equations == (parse_circuit("nvars 0\nnparams 1\ng1 = param 1\nout g1\n"),)
    chain = parse_chain("# a chain of one circuit\n---\nnvars 1\ng1 = in 1\nout g1\n")
    assert chain == [parse_circuit("nvars 1\ng1 = in 1\nout g1\n")]


def test_parse_comments_and_blanks():
    c = parse_circuit("# a comment\nnvars 1\n\ng1 = in 1  # trailing\nout g1\n")
    assert c.nodes == (InputVar(1),)


def test_roundtrip_identity():
    rng = random.Random(3)
    for _ in range(200):
        c = random_circuit(rng, rng.randint(1, 12), num_vars=2, num_params=rng.randint(0, 2))
        assert parse_circuit(serialize_circuit(c)) == c
    for c in enumerate_circuits(3, 1, (-1,)):
        assert parse_circuit(serialize_circuit(c)) == c


def _reachable_by_search(circuit):
    """Reference for `Circuit.reachable`: a depth-first search from the output."""
    seen, stack = set(), [circuit.output]
    while stack:
        pos = stack.pop()
        if pos not in seen:
            seen.add(pos)
            op, a, b = circuit.nodes[pos]
            if op in (ADD, MUL):
                stack += [a, b]
    return sorted(seen)


def test_reachable_matches_a_search():
    # random circuits leave some nodes dead; re-parsed with an earlier
    # output, everything after it is dead too
    rng = random.Random(97)
    dead = 0
    for _ in range(300):
        c = random_circuit(rng, rng.randint(1, 30), rng.randint(0, 2), rng.randint(0, 2))
        out = rng.randrange(c.size())
        lines = serialize_circuit(c).splitlines()[:-1] + [f"out g{out + 1}"]
        for circuit in (c, parse_circuit("\n".join(lines) + "\n")):
            want = _reachable_by_search(circuit)
            assert circuit.reachable() == want
            dead += circuit.size() - len(want)
    assert dead > 1000


def test_evaluate_examples():
    c = parse_circuit(SQUARE_TEXT)
    assert evaluate(c, IntegerRing(), [3]) == 4
    assert evaluate(c, PrimeField(5), [3]) == 4
    pc = parse_circuit("nvars 1\nnparams 1\ng1 = param 1\ng2 = in 1\ng3 = mul g1 g2\nout g3\n")
    assert evaluate(pc, IntegerRing(), [2], [3]) == 6


def test_evaluate_missing_assignment():
    c = parse_circuit(SQUARE_TEXT)
    with pytest.raises(ValueError):
        evaluate(c, IntegerRing(), [])
    # the F_p closure checks its inputs as `evaluate` does, and reads only
    # the circuit's own parameter slots from a longer shared vector
    run = compile_mod_evaluator(
        parse_circuit("nvars 1\nnparams 2\ng1 = in 1\ng2 = param 2\ng3 = mul g1 g2\nout g3\n"), 7
    )
    assert run((3,), (1, 5, 6)) == 1
    with pytest.raises(ValueError):
        run((), (1, 5))
    with pytest.raises(ValueError):
        run((3,), (1,))


def test_lowered_evaluator_matches_evaluate():
    # constants from random_circuit lie in -5..5, so p in 2..5 sees negative
    # constants and constants >= p; the shared params vector runs longer than
    # the circuit's slots, and only its first num_params entries are read.
    # The three paths that read the stored nodes agree: `evaluate` over F_p,
    # the compiled closure, and the exact expansion over F_p at the point.
    rng = random.Random(97)
    negative = at_least_p = 0
    for _ in range(400):
        p = rng.choice((2, 3, 5, 101))
        num_vars, num_params = rng.randint(0, 2), rng.randint(1, 3)
        c = random_circuit(rng, rng.randint(1, 16), num_vars, num_params)
        consts = [a for op, a, _ in c.nodes if op == CONST]
        negative += any(v < 0 for v in consts)
        at_least_p += any(v >= p for v in consts)
        run = compile_mod_evaluator(c, p)
        poly = expand_circuit(c, modulus=p, params_as_vars=True)
        for _ in range(4):
            inputs = tuple(rng.randint(-200, 200) for _ in range(num_vars))
            shared = tuple(rng.randint(-200, 200) for _ in range(num_params + rng.randint(0, 3)))
            want = evaluate(c, PrimeField(p), inputs, shared[:num_params])
            assert run(inputs, shared) == want
            assert poly.evaluate(inputs + shared[:num_params]) == want
    assert negative >= 50 and at_least_p >= 50


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(10)


def test_formal_degree():
    leaf = Circuit((InputVar(1),), 0, 1)
    assert formal_degree(leaf) == 1
    c = parse_circuit("nvars 1\ng1 = in 1\ng2 = const 1\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n")
    assert formal_degree(c) == 2
    # constants count as degree-1 leaves
    c2 = parse_circuit("nvars 1\ng1 = const 5\ng2 = in 1\ng3 = mul g1 g2\ng4 = add g3 g2\nout g4\n")
    assert formal_degree(c2) == 2


def test_weight_report_examples():
    # (2x+3)(x-1) expands to 2x^2 + x - 3, weight 6
    c = parse_circuit(
        "nvars 1\n"
        "g1 = in 1\ng2 = const 2\ng3 = mul g2 g1\ng4 = const 3\ng5 = add g3 g4\n"
        "g6 = const -1\ng7 = add g1 g6\ng8 = mul g5 g7\nout g8\n"
    )
    rep = weight_report(c)
    assert rep.exact_weight == 6
    assert rep.bound_holds

    # a circuit with size 3, formal degree 2, M=2 has bound 2^6 = 64
    c2 = parse_circuit("nvars 1\ng1 = in 1\ng2 = const 2\ng3 = mul g1 g2\nout g3\n")
    rep2 = weight_report(c2)
    assert (rep2.size, rep2.formal_degree, rep2.max_const_abs) == (3, 2, 2)
    assert rep2.bound == 64


def test_weight_submultiplicative_on_product_circuit():
    # the product of circuits with weights 2 and 3 weighs at most 6
    c = parse_circuit(
        "nvars 1\n"
        "g1 = in 1\ng2 = const 1\ng3 = add g1 g2\n"
        "g4 = const 2\ng5 = add g1 g4\ng6 = mul g3 g5\nout g6\n"
    )
    assert weight_report(c).exact_weight <= 6


def test_weight_report_budget():
    # (x+y)^2 already has three monomials; squeeze the budget below that
    c = parse_circuit("nvars 2\ng1 = in 1\ng2 = in 2\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n")
    with pytest.raises(BudgetError):
        weight_report(c, budget=1)


def test_is_constant_free():
    assert is_constant_free(parse_circuit("nvars 1\ng1 = in 1\ng2 = const -1\ng3 = mul g1 g2\nout g3\n"))
    assert not is_constant_free(parse_circuit("nvars 1\ng1 = const 2\nout g1\n"))
    assert not is_constant_free(
        parse_circuit("nvars 0\nnparams 1\ng1 = param 1\nout g1\n")
    )


def test_metrics_counts_both_conventions(tmp_path, capsys):
    # 2 * (x * p1 + (-3))^2: a parameter slot, and a negative constant
    # whose absolute value is the largest
    text = (
        "nvars 1\nnparams 1\ng1 = in 1\ng2 = param 1\ng3 = const -3\ng4 = const 2\n"
        "g5 = mul g1 g2\ng6 = add g5 g3\ng7 = mul g6 g6\ng8 = mul g7 g4\nout g8\n"
    )
    path = tmp_path / "c.circ"
    path.write_text(text)
    assert cli.main(["degree", "--circuit", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4:] == ["formal_degree=5", "size=8", "gates=4", "constant_free=false"]
    rep = weight_report(parse_circuit(text))
    assert (rep.size, rep.formal_degree, rep.max_const_abs) == (8, 5, 3)
    # 2x^2p^2 - 12xp + 18 against 3^(8*5)
    assert (rep.exact_weight, rep.bound, rep.bound_holds) == (32, 3**40, True)
    # M is at least 2 when every constant is -1
    assert weight_report(parse_circuit(SQUARE_TEXT)).max_const_abs == 2


# --- enumeration ----------------------------------------------------------


def test_enumerate_size_one():
    got = [serialize_circuit(c) for c in enumerate_circuits(1, 1, (-1,))]
    assert got == ["nvars 1\ng1 = in 1\nout g1\n", "nvars 1\ng1 = const -1\nout g1\n"]


def test_enumerate_size_zero_empty():
    assert list(enumerate_circuits(0, 1, (-1,))) == []


def test_enumerate_size_three_count():
    # Independent count for leaves {x, -1} under the canonical form:
    #   size 1: the 2 leaves.
    #   size 2: op(l, l) for each leaf and op:          2 * 2      = 4
    #   size 3: op(l1, l2) on the two distinct leaves:  2          = 2
    #           op2(g1, g1) with g1 = op1(l, l):        2 * 2 * 2  = 8
    #           op2(g1, l) sharing the same leaf:       2 * 2 * 2  = 8
    # cumulative: 2 + 4 + 18 = 24
    circuits = list(enumerate_circuits(3, 1, (-1,)))
    assert len(circuits) == 24
    polys = {serialize_circuit(c) for c in circuits}
    for want in (
        "nvars 1\ng1 = in 1\ng2 = add g1 g1\nout g2\n",
        "nvars 1\ng1 = in 1\ng2 = mul g1 g1\nout g2\n",
        "nvars 1\ng1 = in 1\ng2 = const -1\ng3 = add g1 g2\nout g3\n",
        "nvars 1\ng1 = const -1\ng2 = mul g1 g1\nout g2\n",
    ):
        assert want in polys


def test_enumerate_distinct_and_live():
    seen = set()
    for c in enumerate_circuits(4, 1, (-1, 1)):
        key = serialize_circuit(c)
        assert key not in seen
        seen.add(key)
        assert c.nodes[-1] is c.nodes[c.output]
        used = set()
        for op, a, b in c.nodes:
            if op in (ADD, MUL):
                used.add(a)
                used.add(b)
        assert used >= set(range(len(c.nodes) - 1))
        assert len(set(c.nodes)) == len(c.nodes)


def test_enumerate_budget():
    with pytest.raises(BudgetError):
        list(enumerate_circuits(5, 1, (-1, 0, 1), budget=50))


def test_enumerate_max_gates():
    for c in enumerate_circuits(9, 1, (-1,), max_gates=2):
        assert c.gate_count() <= 2


def _yield_time_enumeration(max_size, num_vars, constant_pool, max_gates=None):
    """Reference enumerator: grows the same prefixes, but tests liveness and
    min-key topological order only on each finished circuit."""
    leaves = [InputVar(i) for i in range(1, num_vars + 1)]
    leaves += [Const(v) for v in sorted({int(v) for v in constant_pool})]
    nodes, keys, refcount, present = [], [], [], set()

    def node_key(node):
        op, a, b = node
        if op == INPUT:
            return (0, a)
        if op == CONST:
            return (1, a)
        return (2 if op == ADD else 3, keys[a], keys[b])

    def keymin_order_ok(leaf_count):
        n = len(nodes)
        placed = [True] * leaf_count + [False] * (n - leaf_count)
        for pos in range(leaf_count, n):
            best = None
            for q in range(leaf_count, n):
                _, a, b = nodes[q]
                if not placed[q] and placed[a] and placed[b]:
                    if best is None or keys[q] < keys[best]:
                        best = q
            if best != pos:
                return False
            placed[pos] = True
        return True

    def push(node, *children):
        nodes.append(node)
        keys.append(node_key(node))
        refcount.append(0)
        for c in children:
            refcount[c] += 1
        present.add(node)

    def pop(*children):
        present.discard(nodes.pop())
        keys.pop()
        refcount.pop()
        for c in children:
            refcount[c] -= 1

    def rec(gates, leaf_count):
        live = all(refcount[i] > 0 for i in range(len(nodes) - 1))
        if nodes and live and keymin_order_ok(leaf_count):
            yield Circuit(tuple(nodes), len(nodes) - 1, num_vars, 0)
        if len(nodes) == max_size:
            return
        gate_room = max_size - len(nodes)
        if max_gates is not None:
            gate_room = min(gate_room, max_gates - gates)
        unused = sum(1 for c in refcount if c == 0)
        if gates == 0:
            room = max_size - len(nodes) - 1
            if max_gates is not None:
                room = min(room, max_gates)
            for leaf in leaves:
                if (keys and node_key(leaf) <= keys[-1]) or unused > room:
                    continue
                push(leaf)
                yield from rec(0, leaf_count + 1)
                pop()
        if gate_room < 1:
            return
        n = len(nodes)
        for cls in (Add, Mul):
            for a in range(n):
                for b in range(a, n):
                    g = cls(a, b)
                    delta = (refcount[a] == 0) + (b != a and refcount[b] == 0)
                    if g in present or unused - delta > gate_room - 1:
                        continue
                    push(g, a, b)
                    yield from rec(gates + 1, leaf_count)
                    pop(a, b)

    if max_size >= 1:
        yield from rec(0, 0)


@pytest.mark.parametrize(
    "args, max_gates",
    [
        ((5, 1, range(5)), None),
        ((6, 1, (-1,)), None),
        ((6, 1, (-1, 2)), None),
        ((9, 1, (-2, -1, 0, 1, 2)), 3),
        ((4, 2, (-1, 1)), None),
        ((5, 0, (-1, 0, 2)), None),
        ((0, 1, (-1, 2)), None),
        ((1, 2, (-1, 2)), None),
    ],
)
def test_enumerate_matches_yield_time_order_check(args, max_gates):
    want = list(_yield_time_enumeration(*args, max_gates=max_gates))
    assert list(enumerate_circuits(*args, max_gates=max_gates)) == want


def _coefficients(poly, cap):
    return tuple(poly.coefficient((i,)) for i in range(cap + 1))


@pytest.mark.parametrize(
    "size, pool, ring",
    [
        (5, range(5), TruncatedPolyRing(PrimeField(5), 1, 3)),
        (5, range(5), TruncatedPolyRing(PrimeField(5), 1, None)),
        (6, (-1,), TruncatedPolyRing(IntegerRing(), 1, 6)),
        (5, range(5), DenseSeriesRing(PrimeField(5), 3)),
        (5, range(5), DenseSeriesRing(PrimeField(5), 0)),
        (6, (-1,), DenseSeriesRing(IntegerRing(), 6)),
    ],
    ids=[
        "poly-mod5-cap3",
        "poly-mod5-exact",
        "poly-int-cap6",
        "dense-mod5-cap3",
        "dense-mod5-cap0",
        "dense-int-cap6",
    ],
)
def test_enumerate_ring_stream_follows_the_circuit_stream(size, pool, ring):
    # with a ring the stream yields values alone, one per circuit of the
    # ring-free stream and in its order
    values = list(enumerate_circuits(size, 1, pool, ring=ring))
    circuits = list(enumerate_circuits(size, 1, pool))
    assert len(values) == len(circuits) > 0
    dense = isinstance(ring, DenseSeriesRing)
    for c, value in zip(circuits, values):
        poly = expand_circuit(c, cap=ring.cap, modulus=ring.modulus)
        assert value == (_coefficients(poly, ring.cap) if dense else poly)


@pytest.mark.parametrize("base", [IntegerRing(), PrimeField(2), PrimeField(5), PrimeField(101)])
def test_dense_series_ring_matches_truncated_poly_ring(base):
    # independent of forge._series_mul, the sweep's product; a DenseSeriesRing.mul
    # that drops the mod-p reduction, or truncates one degree early, fails here.
    # random_circuit's constants lie in -5..5: negative, and >= p for p in 2..5
    rng = random.Random(131)
    for cap in range(7):
        dense, poly = DenseSeriesRing(base, cap), TruncatedPolyRing(base, 1, cap)
        top_nonzero = 0
        for _ in range(60):
            c = random_circuit(rng, rng.randint(1, 16), 1)
            for output in range(c.size()):  # every node, dead ones included
                node = Circuit(c.nodes, output, 1)
                got = evaluate(node, dense, [dense.gen(1)])
                want = _coefficients(evaluate(node, poly, [poly.gen(1)]), cap)
                assert got == want
                top_nonzero += want[-1] != 0
        assert top_nonzero >= 1  # the coefficient of x^cap is exercised
    assert DenseSeriesRing(base, 0).gen(1) == (0,)


@pytest.mark.parametrize("ring", [None, TruncatedPolyRing(IntegerRing(), 1, None)])
def test_enumerate_budget_counts_yields_with_or_without_ring(ring):
    seen = 0
    with pytest.raises(BudgetError) as info:
        for _ in enumerate_circuits(5, 1, (-1, 0, 1), budget=50, ring=ring):
            seen += 1
    assert seen == 50
    assert info.value.reached == 51


# --- semantics properties --------------------------------------------------


def test_evaluation_homomorphism():
    rng = random.Random(23)
    ints = IntegerRing()
    for _ in range(1000):
        c = random_circuit(rng, rng.randint(1, 10), num_vars=2)
        p = rng.choice([2, 3, 5, 7, 101])
        point = [rng.randint(-20, 20) for _ in range(2)]
        over_z = evaluate(c, ints, point)
        over_p = evaluate(c, PrimeField(p), point)
        assert over_z % p == over_p


def test_degree_soundness_exhaustive_small():
    for c in enumerate_circuits(6, 1, (-1, 2)):
        poly = expand_circuit(c)
        assert poly.total_degree() <= formal_degree(c)


def test_degree_soundness_random_to_ten_vertices():
    rng = random.Random(29)
    for _ in range(400):
        c = random_circuit(rng, rng.randint(1, 10), num_vars=2)
        poly = expand_circuit(c)
        assert poly.total_degree() <= formal_degree(c)


def test_weight_bound_random_corpus():
    rng = random.Random(31)
    for _ in range(300):
        c = random_circuit(rng, rng.randint(1, 12), num_vars=2)
        assert weight_report(c).bound_holds


def test_truncated_evaluation_exhaustive_small():
    ring = TruncatedPolyRing(IntegerRing(), 1, 2)
    for c in enumerate_circuits(5, 1, (-1, 2)):
        truncated = evaluate(c, ring, [ring.gen(1)])
        assert truncated == expand_circuit(c).truncate(2)


def test_truncated_evaluation_random_to_eight_vertices():
    rng = random.Random(37)
    for _ in range(300):
        c = random_circuit(rng, rng.randint(1, 8), num_vars=2)
        cap = rng.randint(0, 5)
        ring = TruncatedPolyRing(IntegerRing(), 2, cap)
        truncated = evaluate(c, ring, [ring.gen(1), ring.gen(2)])
        assert truncated == expand_circuit(c).truncate(cap)


def test_bind_params():
    c = parse_circuit("nvars 1\nnparams 2\ng1 = param 1\ng2 = param 2\ng3 = in 1\ng4 = mul g1 g3\ng5 = add g4 g2\nout g5\n")
    b = bind_params(c, (3, 4))
    assert b.num_params == 0
    assert evaluate(b, IntegerRing(), [2]) == 10


def test_builder_shares_nodes():
    builder = CircuitBuilder(num_vars=1)
    x = builder.input(1)
    a = builder.add(x, builder.const(1))
    b = builder.add(builder.const(1), x)
    assert a == b
    c = builder.finish(builder.mul(a, b))
    assert evaluate(c, IntegerRing(), [2]) == 9


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit((InputVar(1), Add(0, 1)), 1, 1)  # self reference
    with pytest.raises(ValueError):
        Circuit((InputVar(2),), 0, 1)  # var index beyond declared
    with pytest.raises(ValueError, match="param index 1 outside 1..0"):
        Circuit((Param(1),), 0, 0, 0)  # param beyond declared
    with pytest.raises(ValueError, match="input index 2 outside 1..1"):
        Circuit((InputVar(1), InputVar(2)), 0, 1)
    # a node that is not a 3-tuple with a known op is refused with ValueError,
    # never a TypeError or IndexError from reading it
    x = InputVar(1)
    malformed = (
        (7, 0, None), (-1, 0, None), (1, 0), (ADD, 0, 0, 0), (), object(), None,
        [INPUT, 0, None], "abc", ("add", 0, 0), (1.0, 0, 0), (CONST, 1, 0),
        (INPUT, None, None),
    )
    for node in malformed:
        with pytest.raises(ValueError, match="unknown node type"):
            Circuit((x, node), 1, 1)
    # a gate operand that is not an earlier node position
    for gate in ((ADD, 0, 1), (MUL, 2, 0), (ADD, -1, 0), (MUL, 0, None), (ADD, "0", 0)):
        with pytest.raises(ValueError, match="node 1 references a non-earlier node"):
            Circuit((x, gate), 1, 1)
    # the constructors build the int-tuple nodes the checks accept
    built = Circuit((x, Const(-7), Param(1), Add(0, 1), Mul(3, 2)), 4, 1, 1)
    assert built.nodes == (
        (INPUT, 0, None), (CONST, -7, None), (PARAM, 0, None), (ADD, 0, 1), (MUL, 3, 2)
    )
