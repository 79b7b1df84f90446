"""Arithmetic-circuit IR: parsing, evaluation, degree and weight, and enumeration.

A circuit is an immutable straight-line program: a tuple of nodes in
topological order (every gate references strictly earlier nodes), one
designated output node, and declared counts of input variables and parameter
slots.  Leaves are variables x_j, integer constants, or parameter slots;
gates are binary + and *.

A node is the int tuple (op, a, b), the step every walk runs:

  * (MUL, a, b) and (ADD, a, b): a gate (op < 2) on the 0-based node
    positions a and b;
  * (PARAM, k, None) and (INPUT, j, None): parameter slot k + 1 or
    variable x_(j + 1), so a is the 0-based slot or variable index;
  * (CONST, c, None): the integer constant c, not reduced.

`InputVar(j)` and `Param(k)` take the 1-based index the text format shows,
`Const(c)` the constant, and `Add(a, b)` and `Mul(a, b)` the 0-based operand
positions; each returns the node.
"""

from itertools import compress

from ._record import Record, _set
from .algebra import DEFAULT_MONOMIAL_BUDGET
from .errors import ParseError, at_least, charge, content_lines, parse_count, parse_int
from .primes import require_prime
from .rings import IntegerRing, PrimeField, TruncatedPolyRing

MUL, ADD, PARAM, INPUT, CONST = range(5)
_KINDS = ("mul", "add", "param", "in", "const")  # the text format's name of each op


def InputVar(index):
    return (INPUT, index - 1, None)


def Const(value):
    return (CONST, value, None)


def Param(index):
    return (PARAM, index - 1, None)


def Add(left, right):
    return (ADD, left, right)


def Mul(left, right):
    return (MUL, left, right)


class Circuit(Record):
    """Immutable circuit.  Node positions are 0-based; the text format shows
    them as g1, g2, ... in the same order."""

    __slots__ = ("nodes", "output", "num_vars", "num_params")

    # circuits are built by the hundred thousand, so this class writes its
    # own __init__, __eq__ and __hash__ rather than running Record's loops
    def __init__(self, nodes, output, num_vars, num_params=0):
        _set(self, "nodes", nodes)
        _set(self, "output", output)
        _set(self, "num_vars", num_vars)
        _set(self, "num_params", num_params)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.output == other.output
            and self.num_vars == other.num_vars
            and self.num_params == other.num_params
        )

    def __hash__(self):
        return hash((self.nodes, self.output, self.num_vars, self.num_params))

    def __post_init__(self):
        """Check the fields; a separate method so it can be timed alone."""
        if not self.nodes:
            raise ValueError("a circuit needs at least one node")
        if not 0 <= self.output < len(self.nodes):
            raise ValueError("output index out of range")
        for pos, node in enumerate(self.nodes):
            if node.__class__ is not tuple or len(node) != 3 or node[0].__class__ is not int:
                raise ValueError(f"unknown node type {node!r}")
            op, a, b = node
            if op == MUL or op == ADD:
                if not (a.__class__ is b.__class__ is int and 0 <= a < pos and 0 <= b < pos):
                    raise ValueError(f"node {pos} references a non-earlier node")
            elif b is not None or a.__class__ is not int:
                raise ValueError(f"unknown node type {node!r}")
            elif op == INPUT:
                if not 0 <= a < self.num_vars:
                    raise ValueError(f"input index {a + 1} outside 1..{self.num_vars}")
            elif op == PARAM:
                if not 0 <= a < self.num_params:
                    raise ValueError(f"param index {a + 1} outside 1..{self.num_params}")
            elif op != CONST:
                raise ValueError(f"unknown node type {node!r}")

    def size(self):
        """Total vertex count, leaves included."""
        return len(self.nodes)

    def gate_count(self):
        return sum(1 for node in self.nodes if node[0] < 2)

    def reachable(self):
        """Positions of nodes reachable from the output, ascending.  Nodes
        come in topological order, so one downward sweep from the output
        marks every reachable node before it is visited."""
        nodes, live = self.nodes, bytearray(self.output + 1)
        live[-1] = 1
        for i in range(self.output, 0, -1):  # node 0 has no earlier node, so it is a leaf
            if live[i]:
                op, a, b = nodes[i]
                if op < 2:
                    live[a] = live[b] = 1
        return list(compress(range(self.output + 1), live))


# ---------------------------------------------------------------------------
# Text format


def parse_circuit(text):
    """Parse the line-oriented circuit format.

    Layout: "nvars <k>", optional "nparams <k>", gate definitions
    "g<i> = in|param|const|add|mul ...", and a final "out g<i>".  '#' starts
    a comment; blank lines are ignored.  Gates must be named consecutively
    g1, g2, ... and may only reference earlier gates.
    """
    return _parse_rows(list(content_lines(text.splitlines())))


def _parse_rows(rows):
    """Parse one circuit from its (lineno, content) rows; errors name lineno."""
    if not rows:
        raise ParseError("empty circuit text")
    lineno, line = rows[0]
    num_vars = parse_count(line.split(), "nvars", lineno, "expected 'nvars <k>'")
    num_params, pos = 0, 1
    if len(rows) > 1 and rows[1][1].split()[0] == "nparams":
        lineno, line = rows[1]
        num_params = parse_count(line.split(), "nparams", lineno, "expected 'nparams <k>'")
        pos = 2

    def gate_number(token, lineno):
        if not token.startswith("g"):
            raise ParseError(f"expected a gate name, got {token!r}", lineno)
        return parse_int(token[1:], f"bad gate name {token!r}", lineno)

    def gate_ref(token, lineno, defined):
        idx = gate_number(token, lineno)
        if idx < 1:
            raise ParseError(f"bad gate name {token!r}", lineno)
        if idx > defined:
            raise ParseError(f"forward reference to {token}", lineno)
        return idx - 1

    nodes = []
    output = None
    for lineno, line in rows[pos:]:
        toks = line.split()
        if toks[0] == "out":
            if len(toks) != 2:
                raise ParseError("expected 'out g<i>'", lineno)
            output = gate_ref(toks[1], lineno, len(nodes))
            if (lineno, line) != rows[-1]:
                raise ParseError("'out' must be the final line", lineno)
            break
        if len(toks) < 3 or toks[1] != "=":
            raise ParseError("expected 'g<i> = <kind> ...'", lineno)
        name = toks[0]
        idx = gate_number(name, lineno)
        if 1 <= idx <= len(nodes):
            raise ParseError(f"duplicate gate name {name}", lineno)
        if idx != len(nodes) + 1:
            raise ParseError(f"gate names must be consecutive; expected g{len(nodes) + 1}", lineno)
        kind, args = toks[2], toks[3:]
        if kind in ("in", "param"):
            if len(args) != 1:
                raise ParseError(f"expected '{kind} <j>'", lineno)
            j = parse_int(args[0], f"bad index {args[0]!r}", lineno)
            label, limit = ("input", num_vars) if kind == "in" else ("param", num_params)
            if not 1 <= j <= limit:
                raise ParseError(f"{label} index {j} outside 1..{limit}", lineno)
            nodes.append(InputVar(j) if kind == "in" else Param(j))
        elif kind == "const":
            if len(args) != 1:
                raise ParseError("expected 'const <signed decimal>'", lineno)
            nodes.append(Const(parse_int(args[0], f"bad constant {args[0]!r}", lineno)))
        elif kind in ("add", "mul"):
            if len(args) != 2:
                raise ParseError(f"expected '{kind} g<a> g<b>'", lineno)
            a = gate_ref(args[0], lineno, len(nodes))
            b = gate_ref(args[1], lineno, len(nodes))
            nodes.append(Add(a, b) if kind == "add" else Mul(a, b))
        else:
            raise ParseError(f"unknown node kind {kind!r}", lineno)
    else:
        raise ParseError("missing output line", rows[-1][0])

    return Circuit(tuple(nodes), output, num_vars, num_params)


def _sections(lines, first_line):
    """The (lineno, content) rows of each '---'-separated section of
    `lines` that has text outside comments; `lines[0]` is line `first_line`."""
    sections = [[]]
    for lineno, line in content_lines(lines, first_line):
        if line == "---":
            sections.append([])
        else:
            sections[-1].append((lineno, line))
    return [rows for rows in sections if rows]


def parse_circuits(lines):
    """Parse the circuits in a file's `lines`, separated by '---' lines;
    sections with no text outside comments are skipped."""
    return [_parse_rows(rows) for rows in _sections(lines, 1)]


def serialize_circuit(circuit):
    """Inverse of parse_circuit, emitting nodes in index order."""
    lines = [f"nvars {circuit.num_vars}"]
    if circuit.num_params:
        lines.append(f"nparams {circuit.num_params}")
    for pos, (op, a, b) in enumerate(circuit.nodes, start=1):
        if op < 2:
            lines.append(f"g{pos} = {_KINDS[op]} g{a + 1} g{b + 1}")
        elif op == CONST:
            lines.append(f"g{pos} = const {a}")
        else:
            lines.append(f"g{pos} = {_KINDS[op]} {a + 1}")
    lines.append(f"out g{circuit.output + 1}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(circuit, ring, inputs=(), params=()):
    """Evaluate under the usual recursive semantics.

    `inputs` and `params` are sequences of ring elements (or ints for the
    scalar rings) covering all declared variables and parameter slots.
    """
    if len(inputs) != circuit.num_vars:
        raise ValueError(f"expected {circuit.num_vars} input values, got {len(inputs)}")
    if len(params) != circuit.num_params:
        raise ValueError(f"expected {circuit.num_params} param values, got {len(params)}")
    coerce = isinstance(ring, (IntegerRing, PrimeField))
    add, mul, from_int = ring.add, ring.mul, ring.from_int
    values = []
    push = values.append
    for op, a, b in circuit.nodes:
        if op == MUL:
            push(mul(values[a], values[b]))
        elif op == ADD:
            push(add(values[a], values[b]))
        elif op == CONST:
            push(from_int(a))
        else:
            v = params[a] if op == PARAM else inputs[a]
            push(from_int(v) if coerce else v)
    return values[circuit.output]


def compile_mod_evaluator(circuit, p):
    """`evaluate` over F_p for `circuit`: run(inputs, params) -> int.

    `run` executes the circuit's nodes as they are stored, each an
    (op, a, b) step, with inline `% p`: a gate combines the values at
    positions a and b, a leaf reads input or parameter a or reduces the
    constant a, so no ring method is called and nothing is built per node.
    Only the first `circuit.num_params` params are read, because a system
    passes one unknown vector, which can be longer than an equation's slots.
    """
    require_prime(p)
    nodes, num_vars, num_params, output = (
        circuit.nodes, circuit.num_vars, circuit.num_params, circuit.output
    )

    def run(inputs=(), params=()):
        if len(inputs) != num_vars:
            raise ValueError(f"expected {num_vars} input values, got {len(inputs)}")
        if len(params) < num_params:
            raise ValueError(f"expected {num_params} param values, got {len(params)}")
        values = []
        push = values.append
        for op, a, b in nodes:
            if op == MUL:
                push(values[a] * values[b] % p)
            elif op == ADD:
                push((values[a] + values[b]) % p)
            elif op == PARAM:
                push(params[a] % p)
            elif op == INPUT:
                push(inputs[a] % p)
            else:
                push(a % p)
        return values[output]

    return run


def expand_circuit(
    circuit,
    cap=None,
    modulus=None,
    budget=DEFAULT_MONOMIAL_BUDGET,
    params_as_vars=False,
):
    """Exact symbolic expansion into a SparsePoly.

    With `params_as_vars`, parameter slots become extra variables appended
    after the declared inputs.  `cap` truncates total degree after every
    gate, which is exact for the kept part.
    """
    extra = circuit.num_params if params_as_vars else 0
    if circuit.num_params and not params_as_vars:
        raise ValueError("circuit has parameter slots; bind them or set params_as_vars")
    var_count = circuit.num_vars + extra
    base = IntegerRing() if modulus is None else PrimeField(modulus)
    ring = TruncatedPolyRing(base, var_count, cap, budget=budget)
    inputs = [ring.gen(i) for i in range(1, circuit.num_vars + 1)]
    params = [ring.gen(circuit.num_vars + i) for i in range(1, extra + 1)]
    return evaluate(circuit, ring, inputs, params)


def bind_params(circuit, values):
    """Replace every parameter slot with an integer constant."""
    if len(values) != circuit.num_params:
        raise ValueError(f"expected {circuit.num_params} parameter values")
    nodes = tuple(
        Const(int(values[node[1]])) if node[0] == PARAM else node for node in circuit.nodes
    )
    return Circuit(nodes, circuit.output, circuit.num_vars, 0)


class CircuitBuilder:
    """Incremental hash-consing constructor for circuits.

    Structurally identical nodes are emitted once, so repeated constants and
    shared subterms stay shared.  Methods return node positions usable as
    gate operands.
    """

    def __init__(self, num_vars=0, num_params=0):
        self.num_vars = num_vars
        self.num_params = num_params
        self._nodes = []
        self._memo = {}

    def _emit(self, node):
        idx = self._memo.get(node)
        if idx is None:
            self._nodes.append(node)
            idx = len(self._nodes) - 1
            self._memo[node] = idx
        return idx

    def input(self, index):
        return self._emit(InputVar(index))

    def const(self, value):
        return self._emit(Const(int(value)))

    def param(self, index):
        return self._emit(Param(index))

    def add(self, a, b):
        return self._emit(Add(a, b) if a <= b else Add(b, a))

    def mul(self, a, b):
        return self._emit(Mul(a, b) if a <= b else Mul(b, a))

    def inline(self, circuit, input_map=None):
        """Copy another circuit's reachable nodes in, returning its output
        position.  `input_map` sends variable indices to node positions of
        this builder (e.g. constants).
        """
        placed = {}
        for pos in circuit.reachable():
            op, a, b = node = circuit.nodes[pos]
            if op < 2:
                a, b = placed[a], placed[b]
                placed[pos] = self._emit((op, a, b) if a <= b else (op, b, a))
            elif op == INPUT and input_map is not None and a + 1 in input_map:
                placed[pos] = input_map[a + 1]
            else:
                placed[pos] = self._emit(node)
        return placed[circuit.output]

    def copy(self):
        """A builder that continues from this one's nodes independently."""
        twin = CircuitBuilder(self.num_vars, self.num_params)
        twin._nodes, twin._memo = list(self._nodes), dict(self._memo)
        return twin

    def finish(self, output):
        return Circuit(tuple(self._nodes), output, self.num_vars, self.num_params)


# ---------------------------------------------------------------------------
# Structural metrics


def formal_degree(circuit):
    """Syntactic degree: 1 at every leaf, max at +, sum at *."""
    deg = []
    for op, a, b in circuit.nodes:
        if op == ADD:
            deg.append(max(deg[a], deg[b]))
        elif op == MUL:
            deg.append(deg[a] + deg[b])
        else:
            deg.append(1)
    return deg[circuit.output]


def is_constant_free(circuit):
    """True iff the only constant leaf value is -1 and no parameter appears."""
    return all(op != PARAM and (op != CONST or a == -1) for op, a, _ in circuit.nodes)


class WeightReport(Record):
    __slots__ = (
        "exact_weight",
        "bound",  # M ** (size * formal_degree)
        "bound_holds",
        "size",
        "formal_degree",
        "max_const_abs",  # M = max(2, largest |constant|)
    )


def weight_report(circuit, budget=DEFAULT_MONOMIAL_BUDGET):
    """Exact coefficient weight of the expanded polynomial, with the
    M^(s*d) bound it must satisfy.  Parameter slots are treated as extra
    variables for the expansion."""
    size, degree = circuit.size(), formal_degree(circuit)
    m = max(2, max((abs(a) for op, a, _ in circuit.nodes if op == CONST), default=0))
    exact = expand_circuit(circuit, budget=budget, params_as_vars=True).weight()
    bound = m ** (size * degree)
    return WeightReport(
        exact_weight=exact,
        bound=bound,
        bound_holds=exact <= bound,
        size=size,
        formal_degree=degree,
        max_const_abs=m,
    )


# ---------------------------------------------------------------------------
# Generation


def random_circuit(rng, size, num_vars, num_params=0):
    """A random valid circuit with exactly `size` nodes (output = last); a
    later node is a gate with probability 3/4, a constant leaf is in -5..5."""
    at_least("size", size, 1)
    nodes = []
    for pos in range(size):
        want_gate = pos > 0 and (pos == size - 1 or rng.random() < 0.75)
        if want_gate:
            a = rng.randrange(pos)
            b = rng.randrange(pos)
            nodes.append(Add(a, b) if rng.random() < 0.5 else Mul(a, b))
        else:
            kinds = ["const"]
            if num_vars:
                kinds.append("in")
            if num_params:
                kinds.append("param")
            kind = rng.choice(kinds)
            if kind == "in":
                nodes.append(InputVar(rng.randint(1, num_vars)))
            elif kind == "param":
                nodes.append(Param(rng.randint(1, num_params)))
            else:
                nodes.append(Const(rng.randint(-5, 5)))
    return Circuit(tuple(nodes), size - 1, num_vars, num_params)


DEFAULT_ENUM_BUDGET = 5_000_000


def enumerate_circuits(
    max_size, num_vars, constant_pool, max_gates=None, budget=DEFAULT_ENUM_BUDGET, ring=None
):
    """Yield every canonical circuit with at most `max_size` vertices.

    Leaves are drawn from the declared variables and the constant pool.  The
    canonical form has one representative per shared-subexpression DAG:

      * no two nodes are structurally identical (common subexpressions are
        shared);
      * children of the commutative gates are ordered left index <= right;
      * every node except the output feeds a later node (no dead code);
      * leaves precede gates and are sorted (variables by index, then
        constants by value), and gates appear in min-key topological order,
        which fixes a unique node ordering per DAG.

    The order is checked when a gate is added: a gate with children a <= b
    was available at every gate position after max(b, last leaf), so each
    gate placed there must have a smaller key, or no extension is canonical.

    `max_gates` additionally bounds the gate count.  The stream is
    deterministic; exceeding `budget` yielded circuits raises BudgetError.

    With a `ring` (e.g. a DenseSeriesRing, or a TruncatedPolyRing in
    `num_vars` variables), it yields each circuit's value instead, `evaluate`
    at the ring's generators, in the order the ring-free stream yields the
    circuits; no Circuit is built.  Each node's value is computed once, when
    the node is pushed, and shared by every circuit on that prefix, so a
    TruncatedPolyRing's monomial budget applies before `budget` counts the
    circuit.  A DenseSeriesRing has no such budget: its elements have a
    fixed length.
    """
    if max_gates is None:
        max_gates = max_size  # a circuit has fewer gates than vertices
    pool = sorted({int(v) for v in constant_pool})
    # values[i] is node i without a ring, its ring value with one
    var, const = (InputVar, Const) if ring is None else (ring.gen, ring.from_int)
    # (key, value) in key order: variables by index, then constants by value;
    # a gate's key is (2 or 3, left key, right key), above every leaf.
    leaves = [((0, i), var(i)) for i in range(1, num_vars + 1)]
    leaves += [((1, v), const(v)) for v in pool]
    if ring is None:
        ops = ((2, Add), (3, Mul))
    else:
        add, mul = ring.add, ring.mul
        ops = (
            (2, lambda a, b: add(values[a], values[b])),
            (3, lambda a, b: mul(values[a], values[b])),
        )

    values = []
    keys = []
    refcount = []
    unused = 0  # nodes no gate reads yet; the last node is always one
    yielded = 0

    def rec(gates):
        nonlocal unused, yielded
        if unused == 1:
            yielded += 1
            if yielded > budget:
                charge("enumeration", budget, yielded, f"{yielded} circuits")
            yield values[-1] if ring else Circuit(tuple(values), len(values) - 1, num_vars, 0)
        n = len(values)
        if n == max_size:
            return
        gate_room = min(max_size - n, max_gates - gates)
        # a leaf adds an unused node; each later gate retires at most one net
        room = min(max_size - n - 1, max_gates)
        if gates == 0 and unused <= room:
            for key, value in leaves:
                if keys and key <= keys[-1]:
                    continue
                values.append(value)
                keys.append(key)
                refcount.append(0)
                unused += 1
                yield from rec(0)
                unused -= 1
                refcount.pop()
                keys.pop()
                values.pop()
        if gate_room < 1:
            return
        leaf_count = n - gates  # leaves are pushed only while gates == 0
        for tag, make in ops:
            for a in range(n):
                for b in range(a, n):
                    delta = (refcount[a] == 0) + (b != a and refcount[b] == 0)
                    # each later gate can retire at most one unused node net
                    if unused - delta > gate_room - 1:
                        continue
                    key = (tag, keys[a], keys[b])
                    # min-key order; an equal key is this gate, already placed
                    start = max(b + 1, leaf_count)
                    if start < n and max(keys[start:n]) >= key:
                        continue
                    values.append(make(a, b))
                    keys.append(key)
                    refcount.append(0)
                    refcount[a] += 1
                    refcount[b] += 1
                    unused += 1 - delta
                    yield from rec(gates + 1)
                    unused -= 1 - delta
                    refcount[b] -= 1
                    refcount[a] -= 1
                    refcount.pop()
                    keys.pop()
                    values.pop()

    if max_size >= 1:
        yield from rec(0)
