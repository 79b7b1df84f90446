"""Arithmetic-circuit IR: parsing, evaluation, metrics, and enumeration.

A circuit is an immutable straight-line program: a tuple of nodes in
topological order (every gate references strictly earlier nodes), one
designated output node, and declared counts of input variables and parameter
slots.  Leaves are variables x_j, integer constants, or parameter slots;
gates are binary + and *.
"""

from ._record import Record, _set
from .algebra import DEFAULT_MONOMIAL_BUDGET
from .errors import ParseError, at_least, charge, content_lines, parse_count, parse_int
from .primes import require_prime
from .rings import IntegerRing, PrimeField, TruncatedPolyRing

# Nodes and circuits are built by the hundred thousand, so each writes its own
# __init__, __eq__ and __hash__ rather than running Record's generic loops.


class InputVar(Record):
    __slots__ = ("index",)  # 1-based

    def __init__(self, index):
        _set(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index == other.index

    def __hash__(self):
        return hash((self.index,))


class Const(Record):
    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.value,))


class Param(Record):
    __slots__ = ("index",)  # 1-based
    __init__, __eq__, __hash__ = InputVar.__init__, InputVar.__eq__, InputVar.__hash__


class Add(Record):
    __slots__ = ("left", "right")  # node positions, 0-based

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self.left, self.right))


class Mul(Record):
    __slots__ = ("left", "right")
    __init__, __eq__, __hash__ = Add.__init__, Add.__eq__, Add.__hash__


_GATES = (Add, Mul)


class Circuit(Record):
    """Immutable circuit.  Node positions are 0-based; the text format shows
    them as g1, g2, ... in the same order."""

    __slots__ = ("nodes", "output", "num_vars", "num_params")

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
            if isinstance(node, _GATES):
                if not (0 <= node.left < pos and 0 <= node.right < pos):
                    raise ValueError(f"node {pos} references a non-earlier node")
            elif isinstance(node, InputVar):
                if not 1 <= node.index <= self.num_vars:
                    raise ValueError(f"input index {node.index} outside 1..{self.num_vars}")
            elif isinstance(node, Param):
                if not 1 <= node.index <= self.num_params:
                    raise ValueError(f"param index {node.index} outside 1..{self.num_params}")
            elif not isinstance(node, Const):
                raise ValueError(f"unknown node type {node!r}")

    def size(self):
        """Total vertex count, leaves included."""
        return len(self.nodes)

    def gate_count(self):
        return sum(1 for n in self.nodes if isinstance(n, _GATES))

    def reachable(self):
        """Positions of nodes reachable from the output, ascending."""
        seen = set()
        stack = [self.output]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            node = self.nodes[i]
            if isinstance(node, _GATES):
                stack.append(node.left)
                stack.append(node.right)
        return sorted(seen)


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
    for pos, node in enumerate(circuit.nodes, start=1):
        if isinstance(node, InputVar):
            lines.append(f"g{pos} = in {node.index}")
        elif isinstance(node, Param):
            lines.append(f"g{pos} = param {node.index}")
        elif isinstance(node, Const):
            lines.append(f"g{pos} = const {node.value}")
        elif isinstance(node, Add):
            lines.append(f"g{pos} = add g{node.left + 1} g{node.right + 1}")
        else:
            lines.append(f"g{pos} = mul g{node.left + 1} g{node.right + 1}")
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
    values = []
    for node in circuit.nodes:
        if isinstance(node, Add):
            values.append(ring.add(values[node.left], values[node.right]))
        elif isinstance(node, Mul):
            values.append(ring.mul(values[node.left], values[node.right]))
        elif isinstance(node, InputVar):
            v = inputs[node.index - 1]
            values.append(ring.from_int(v) if coerce else v)
        elif isinstance(node, Param):
            v = params[node.index - 1]
            values.append(ring.from_int(v) if coerce else v)
        else:
            values.append(ring.from_int(node.value))
    return values[circuit.output]


def compile_mod_evaluator(circuit, p):
    """`evaluate` over F_p, lowered once for `circuit`: run(inputs, params) -> int.

    Lowering turns each node into one step (op, left, right): a gate keeps
    its operand positions, a constant is reduced mod p, and an input or
    parameter leaf becomes its 0-based index.  `run` executes the steps with
    inline `% p`, so no node is type-tested and no ring method is called.
    Only the first `circuit.num_params` params are read, because a system
    passes one unknown vector, which can be longer than an equation's slots.
    """
    require_prime(p)
    steps = []
    for node in circuit.nodes:
        if isinstance(node, Mul):
            steps.append((0, node.left, node.right))
        elif isinstance(node, Add):
            steps.append((1, node.left, node.right))
        elif isinstance(node, Param):
            steps.append((2, node.index - 1, None))
        elif isinstance(node, InputVar):
            steps.append((3, node.index - 1, None))
        else:
            steps.append((4, node.value % p, None))
    num_vars, num_params, output = circuit.num_vars, circuit.num_params, circuit.output

    def run(inputs=(), params=()):
        if len(inputs) != num_vars:
            raise ValueError(f"expected {num_vars} input values, got {len(inputs)}")
        if len(params) < num_params:
            raise ValueError(f"expected {num_params} param values, got {len(params)}")
        values = []
        push = values.append
        for op, a, b in steps:
            if op == 0:
                push(values[a] * values[b] % p)
            elif op == 1:
                push((values[a] + values[b]) % p)
            elif op == 2:
                push(params[a] % p)
            elif op == 3:
                push(inputs[a] % p)
            else:
                push(a)
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
        Const(int(values[n.index - 1])) if isinstance(n, Param) else n for n in circuit.nodes
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
            node = circuit.nodes[pos]
            if isinstance(node, Add):
                placed[pos] = self.add(placed[node.left], placed[node.right])
            elif isinstance(node, Mul):
                placed[pos] = self.mul(placed[node.left], placed[node.right])
            elif input_map is not None and isinstance(node, InputVar) and node.index in input_map:
                placed[pos] = input_map[node.index]
            else:
                placed[pos] = self._emit(node)
        return placed[circuit.output]

    def finish(self, output):
        return Circuit(tuple(self._nodes), output, self.num_vars, self.num_params)


# ---------------------------------------------------------------------------
# Structural metrics


def formal_degree(circuit):
    """Syntactic degree: 1 at every leaf, max at +, sum at *."""
    deg = []
    for node in circuit.nodes:
        if isinstance(node, Add):
            deg.append(max(deg[node.left], deg[node.right]))
        elif isinstance(node, Mul):
            deg.append(deg[node.left] + deg[node.right])
        else:
            deg.append(1)
    return deg[circuit.output]


def is_constant_free(circuit):
    """True iff the only constant leaf value is -1 and no parameter appears."""
    for node in circuit.nodes:
        if isinstance(node, Param):
            return False
        if isinstance(node, Const) and node.value != -1:
            return False
    return True


class CircuitMetrics(Record):
    __slots__ = (
        "size",  # all vertices, leaves included
        "gate_count",  # gates only; both counts exposed since conventions differ
        "formal_degree",
        "max_const_abs",  # max(2, largest |constant|)
    )


def metrics(circuit):
    consts = [abs(n.value) for n in circuit.nodes if isinstance(n, Const)]
    return CircuitMetrics(
        size=circuit.size(),
        gate_count=circuit.gate_count(),
        formal_degree=formal_degree(circuit),
        max_const_abs=max(2, max(consts, default=0)),
    )


class WeightReport(Record):
    __slots__ = (
        "exact_weight",
        "bound",  # M ** (size * formal_degree)
        "bound_holds",
        "size",
        "formal_degree",
        "max_const_abs",
    )


def weight_report(circuit, budget=DEFAULT_MONOMIAL_BUDGET):
    """Exact coefficient weight of the expanded polynomial, with the
    M^(s*d) bound it must satisfy.  Parameter slots are treated as extra
    variables for the expansion."""
    m = metrics(circuit)
    poly = expand_circuit(circuit, budget=budget, params_as_vars=True)
    exact = poly.weight()
    bound = m.max_const_abs ** (m.size * m.formal_degree)
    return WeightReport(
        exact_weight=exact,
        bound=bound,
        bound_holds=exact <= bound,
        size=m.size,
        formal_degree=m.formal_degree,
        max_const_abs=m.max_const_abs,
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

    With a `ring` (e.g. a TruncatedPolyRing in `num_vars` variables), it
    yields (circuit, value) pairs, value being `evaluate` at the ring's
    generators.  Each node's value is computed when the node is pushed, so a
    ring's own budget applies before `budget` counts the circuit.  For the
    forge's one-variable rings the monomial budget cannot come first: n
    vertices give at most 2**(n - 1) + 1 monomials, so it needs 21, and the
    depth-first walk spends the enumeration budget on low-degree prefixes.
    """
    pool = sorted({int(v) for v in constant_pool})
    # (node, key, value) in key order: variables by index, then constants by
    # value; a gate's key is (2 or 3, left key, right key), above every leaf.
    leaves = [
        (InputVar(i), (0, i), ring.gen(i) if ring else None) for i in range(1, num_vars + 1)
    ]
    leaves += [(Const(v), (1, v), ring.from_int(v) if ring else None) for v in pool]
    add, mul = (ring.add, ring.mul) if ring else (None, None)

    nodes = []
    keys = []
    values = []
    refcount = []
    unused = 0  # nodes no gate reads yet; the last node is always one
    yielded = 0

    def rec(gates, leaf_count):
        nonlocal unused, yielded
        if unused == 1:
            yielded += 1
            if yielded > budget:
                charge("enumeration", budget, yielded, f"{yielded} circuits")
            circuit = Circuit(tuple(nodes), len(nodes) - 1, num_vars, 0)
            yield circuit if ring is None else (circuit, values[-1])
        n = len(nodes)
        if n == max_size:
            return
        gate_room = max_size - n
        if max_gates is not None:
            gate_room = min(gate_room, max_gates - gates)
        # a leaf adds an unused node; each later gate retires at most one net
        room = max_size - n - 1
        if max_gates is not None:
            room = min(room, max_gates)
        if gates == 0 and unused <= room:
            for leaf, key, value in leaves:
                if keys and key <= keys[-1]:
                    continue
                nodes.append(leaf)
                keys.append(key)
                values.append(value)
                refcount.append(0)
                unused += 1
                yield from rec(0, leaf_count + 1)
                unused -= 1
                refcount.pop()
                values.pop()
                keys.pop()
                nodes.pop()
        if gate_room < 1:
            return
        for tag, cls, op in ((2, Add, add), (3, Mul, mul)):
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
                    nodes.append(cls(a, b))
                    keys.append(key)
                    values.append(op(values[a], values[b]) if op else None)
                    refcount.append(0)
                    refcount[a] += 1
                    refcount[b] += 1
                    unused += 1 - delta
                    yield from rec(gates + 1, leaf_count)
                    unused -= 1 - delta
                    refcount[b] -= 1
                    refcount[a] -= 1
                    refcount.pop()
                    values.pop()
                    keys.pop()
                    nodes.pop()

    if max_size >= 1:
        yield from rec(0, 0)
