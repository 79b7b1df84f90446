"""Universal polynomial templates in the style of Schnorr's construction.

Level 1 computes a_0 + b_0 * x.  Every later level j computes

    (a_0 + a_1 L_1 + ... + a_{j-1} L_{j-1}) * (b_0 + b_1 L_1 + ... + b_{j-1} L_{j-1})

over the earlier levels L_i, with fresh parameter slots a_i, b_i per level.
A template with s levels therefore carries exactly s*(s+1) parameters, and a
suitable assignment specializes it to any polynomial a small circuit can
compute: one level per gate plus the base level for x.
"""

from dataclasses import dataclass

from .circuits import (
    Add,
    Circuit,
    Const,
    InputVar,
    Mul,
    Param,
    bind_params,
    compile_mod_evaluator,
    evaluate,
    expand_circuit,
    serialize_circuit,
    simplify_constants,
)
from .errors import EmbeddingError
from .pit import pit_equal
from .primes import is_prime
from .rings import PrimeField, TruncatedPolyRing


@dataclass(frozen=True)
class UniversalTemplate:
    levels: int
    circuit: Circuit
    # per level j (1-based): (a_slots, b_slots), each a tuple of parameter
    # indices for coefficients 0..j-1
    level_params: tuple
    # circuit node position of each level's output
    level_nodes: tuple

    def param_slot(self, level, i, side):
        """Parameter slot (1-based) for coefficient i of the given side."""
        a_slots, b_slots = self.level_params[level - 1]
        return a_slots[i] if side == "a" else b_slots[i]

    def param_count(self):
        return self.circuit.num_params

    def coefficient_degree_bound(self, i):
        """Upper bound on the degree, in the parameters, of the coefficient
        of x^i: (i+1) * 2^(2s)."""
        return (i + 1) * (1 << (2 * self.levels))

    def to_text(self):
        """Circuit serialization with a header comment and a slot legend."""
        lines = [f"# universal s={self.levels}"]
        for j in range(1, self.levels + 1):
            a_slots, b_slots = self.level_params[j - 1]
            a_leg = ",".join(f"a{j}.{i}=p{s}" for i, s in enumerate(a_slots))
            b_leg = ",".join(f"b{j}.{i}=p{s}" for i, s in enumerate(b_slots))
            lines.append(f"# level {j}: {a_leg} {b_leg}")
        return "\n".join(lines) + "\n" + serialize_circuit(self.circuit)


def build_universal(s):
    """Construct the s-level template.  Parameter slots are numbered level by
    level, a-side coefficients before b-side."""
    if s < 1:
        raise ValueError("level count must be >= 1")
    nodes = [InputVar(1)]
    x_node = 0

    def emit(node):
        nodes.append(node)
        return len(nodes) - 1

    slot = 0
    level_params = []
    level_nodes = []
    for j in range(1, s + 1):
        a_slots = tuple(range(slot + 1, slot + j + 1))
        b_slots = tuple(range(slot + j + 1, slot + 2 * j + 1))
        slot += 2 * j
        level_params.append((a_slots, b_slots))
        if j == 1:
            a0 = emit(Param(a_slots[0]))
            b0 = emit(Param(b_slots[0]))
            bx = emit(Mul(b0, x_node))
            level_nodes.append(emit(Add(a0, bx)))
            continue
        sides = []
        for slots in (a_slots, b_slots):
            acc = emit(Param(slots[0]))
            for i in range(1, j):
                sel = emit(Param(slots[i]))
                prod = emit(Mul(sel, level_nodes[i - 1]))
                acc = emit(Add(acc, prod))
            sides.append(acc)
        level_nodes.append(emit(Mul(sides[0], sides[1])))
    circuit = Circuit(tuple(nodes), level_nodes[-1], 1, slot)
    return UniversalTemplate(s, circuit, tuple(level_params), tuple(level_nodes))


@dataclass(frozen=True)
class CoefficientVector:
    """The first d+1 coefficients of a template specialization, over F_p."""

    entries: tuple
    levels: int
    cap: int
    p: int

    def degree_bound(self, i):
        return (i + 1) * (1 << (2 * self.levels))


def template_series(template, d, ring, param):
    """Degree-d truncation of the template as a {degree: element} dict.

    The one recursion over template levels: level j is built from the
    series of levels 1..j-1 with `ring.add` and `ring.mul`, and `param(slot)`
    supplies the element for each parameter slot, in slot-use order.  Over
    PrimeField it gives the truncated coefficient map; over a CircuitBuilder
    it gives circuit nodes for the hardness systems.
    """
    add, mul = ring.add, ring.mul
    series = []
    for j in range(1, template.levels + 1):
        a_slots, b_slots = template.level_params[j - 1]
        if j == 1:
            first = {0: param(a_slots[0])}
            if d >= 1:
                first[1] = param(b_slots[0])
            series.append(first)
            continue
        sides = []
        for slots in (a_slots, b_slots):
            acc = {0: param(slots[0])}
            for i in range(1, j):
                sel = param(slots[i])
                for deg, node in series[i - 1].items():
                    term = mul(sel, node)
                    acc[deg] = add(acc[deg], term) if deg in acc else term
            sides.append(acc)
        prod = {}
        for i, a in sides[0].items():
            for k, b in sides[1].items():
                if i + k <= d:
                    term = mul(a, b)
                    prod[i + k] = add(prod[i + k], term) if i + k in prod else term
        series.append(prod)
    return series[-1]


def truncated_coefficient_map(template, d, p, params):
    """Coefficients 0..d of the specialized template over F_p."""
    if d < 0:
        raise ValueError("degree cap must be >= 0")
    field = PrimeField(p)
    if len(params) != template.param_count():
        raise ValueError(f"expected {template.param_count()} parameter values")
    series = template_series(template, d, field, lambda k: params[k - 1] % p)
    entries = tuple(series.get(i, 0) for i in range(d + 1))
    return CoefficientVector(entries, template.levels, d, p)


def truncated_coefficient_map_reference(template, d, p, params):
    """Same map computed by evaluating the template circuit in a truncated
    polynomial ring; used to cross-check the fast path."""
    ring = TruncatedPolyRing(PrimeField(p), 1, d)
    poly = evaluate(template.circuit, ring, [ring.gen(1)], [ring.from_int(v) for v in params])
    entries = tuple(poly.coefficient((i,)) for i in range(d + 1))
    return CoefficientVector(entries, template.levels, d, p)


def interpolate_univariate(points, values, p):
    """Coefficients of the unique polynomial of degree < len(points) through
    the given points over F_p (Lagrange).  Points must be distinct mod p."""
    field = PrimeField(p)
    n = len(points)
    if len(values) != n:
        raise ValueError("points and values must have the same length")
    if len({pt % p for pt in points}) != n:
        raise ValueError("interpolation points must be distinct mod p")
    coeffs = [0] * n
    for j, (xj, yj) in enumerate(zip(points, values)):
        # basis polynomial prod_{k != j} (x - x_k) / (x_j - x_k)
        basis = [1]
        denom = 1
        for k, xk in enumerate(points):
            if k == j:
                continue
            denom = denom * (xj - xk) % p
            nxt = [0] * (len(basis) + 1)
            for deg, c in enumerate(basis):
                nxt[deg] = (nxt[deg] - c * xk) % p
                nxt[deg + 1] = (nxt[deg + 1] + c) % p
            basis = nxt
        scale = yj % p * field.inv(denom) % p
        for deg, c in enumerate(basis):
            coeffs[deg] = (coeffs[deg] + scale * c) % p
    return tuple(coeffs)


def interpolated_coefficients(circuit, d, p):
    """Exact coefficients 0..d of a one-variable circuit over F_p, recovered
    from its values at x = 0..d.

    Exactness requires that the computed polynomial has degree at most d
    (e.g. formal degree <= d) and that p > d so the points are distinct.
    This is the exact alternative to randomized identity testing for
    low-degree univariate comparisons.
    """
    if circuit.num_vars > 1 or circuit.num_params:
        raise ValueError("interpolation targets closed one-variable circuits")
    if p <= d:
        raise ValueError(f"need p > d for {d + 1} distinct points, got p={p}")
    run = compile_mod_evaluator(circuit, p)
    values = [run((m,) if circuit.num_vars else (), ()) for m in range(d + 1)]
    return interpolate_univariate(tuple(range(d + 1)), values, p)


@dataclass(frozen=True)
class Embedding:
    levels: int
    params: tuple  # full parameter vector for the template, slot order
    template: UniversalTemplate


def embed(circuit, p=None, trials=None, seed=0):
    """Find template parameters reproducing a one-variable circuit, over F_p
    or (with p=None) over the integers.

    Level 1 is pinned to x.  Every gate reachable from the output occupies
    one level: a product gate selects its two operands, a sum gate selects
    both operands on one side and multiplies by the constant side 1.
    Constant leaves fold into the offset coefficients.  Over F_p the
    assignment is verified with pit_equal (which needs p above the formal
    degree of the folded template); over the integers by exact expansion.
    A verification failure raises EmbeddingError since it can only mean the
    construction is wrong.
    """
    if circuit.num_params:
        raise ValueError("circuit must not have parameter slots")
    if circuit.num_vars > 1:
        raise ValueError("embedding targets one-variable circuits")
    if p is not None and not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")

    def red(v):
        return v if p is None else v % p

    reach = circuit.reachable()
    gates = [pos for pos in reach if isinstance(circuit.nodes[pos], (Add, Mul))]
    out_node = circuit.nodes[circuit.output]

    if not gates and isinstance(out_node, Const):
        # a lone constant needs a synthetic level: (c) * (1)
        levels = 2
        template = build_universal(levels)
        params = [0] * template.param_count()
        params[template.param_slot(1, 0, "b") - 1] = 1
        params[template.param_slot(2, 0, "a") - 1] = red(out_node.value)
        params[template.param_slot(2, 0, "b") - 1] = 1
    else:
        levels = max(1, len(gates) + 1)
        template = build_universal(levels)
        params = [0] * template.param_count()
        params[template.param_slot(1, 0, "b") - 1] = 1

        desc = {}
        level_of = {}
        for idx, pos in enumerate(gates):
            level_of[pos] = idx + 2
        for pos in reach:
            node = circuit.nodes[pos]
            if isinstance(node, InputVar):
                desc[pos] = ("level", 1)
            elif isinstance(node, Const):
                desc[pos] = ("const", red(node.value))
            else:
                j = level_of[pos]
                if isinstance(node, Mul):
                    for child, side in ((node.left, "a"), (node.right, "b")):
                        kind, val = desc[child]
                        if kind == "const":
                            slot = template.param_slot(j, 0, side)
                            params[slot - 1] = val
                        else:
                            slot = template.param_slot(j, val, side)
                            params[slot - 1] = 1
                else:
                    offset = 0
                    for child in (node.left, node.right):
                        kind, val = desc[child]
                        if kind == "const":
                            offset = red(offset + val)
                        else:
                            slot = template.param_slot(j, val, "a")
                            params[slot - 1] = red(params[slot - 1] + 1)
                    params[template.param_slot(j, 0, "a") - 1] = offset
                    params[template.param_slot(j, 0, "b") - 1] = 1
                desc[pos] = ("level", j)

    params = tuple(params)
    bound = simplify_constants(bind_params(template.circuit, params))
    target = circuit
    if target.num_vars == 0:
        target = Circuit(target.nodes, target.output, 1, 0)
    if p is None:
        if expand_circuit(bound) != expand_circuit(target):
            raise EmbeddingError(
                "integer embedding verification failed; "
                "this is a bug in the embedding construction"
            )
    else:
        verdict = pit_equal(bound, target, p, trials=trials, seed=seed)
        if not verdict.equal:
            raise EmbeddingError(
                f"embedding verification failed at witness {verdict.witness}; "
                "this is a bug in the embedding construction"
            )
    return Embedding(levels, params, template)
