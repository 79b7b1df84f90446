"""Universal polynomial templates in the style of Schnorr's construction.

Level 1 computes a_0 + b_0 * x.  Every later level j computes

    (a_0 + a_1 L_1 + ... + a_{j-1} L_{j-1}) * (b_0 + b_1 L_1 + ... + b_{j-1} L_{j-1})

over the earlier levels L_i, with fresh parameter slots a_i, b_i per level.
A template with s levels therefore carries exactly s*(s+1) parameters, and a
suitable assignment specializes it to any polynomial a small circuit can
compute: one level per gate plus the base level for x.
"""

import functools
import operator

from ._record import Record
from .algebra import SparsePoly
from .circuits import (
    Add,
    Circuit,
    Const,
    InputVar,
    Mul,
    Param,
    compile_mod_evaluator,
    evaluate,
    expand_circuit,
    formal_degree,
    serialize_circuit,
)
from .errors import EmbeddingError, at_least
from .pit import _random_trials
from .primes import require_prime
from .rings import PrimeField, TruncatedPolyRing


class UniversalTemplate(Record):
    __slots__ = (
        "levels",
        "circuit",
        # per level j (1-based): (a_slots, b_slots), each a tuple of parameter
        # indices for coefficients 0..j-1
        "level_params",
    )

    def param_slot(self, level, i, side):
        """Parameter slot (1-based) for coefficient i of the given side."""
        a_slots, b_slots = self.level_params[level - 1]
        return a_slots[i] if side == "a" else b_slots[i]

    def param_count(self):
        return self.circuit.num_params

    def to_text(self):
        """Circuit serialization with a header comment and a slot legend."""
        lines = [f"# universal s={self.levels}"]
        for j in range(1, self.levels + 1):
            a_slots, b_slots = self.level_params[j - 1]
            a_leg = ",".join(f"a{j}.{i}=p{s}" for i, s in enumerate(a_slots))
            b_leg = ",".join(f"b{j}.{i}=p{s}" for i, s in enumerate(b_slots))
            lines.append(f"# level {j}: {a_leg} {b_leg}")
        return "\n".join(lines) + "\n" + serialize_circuit(self.circuit)


@functools.cache
def build_universal(s):
    """Construct the s-level template.  Parameter slots are numbered level by
    level, a-side coefficients before b-side.  Templates are immutable, so
    each level count is built once and the same object is shared."""
    at_least("level count", s, 1)
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
    return UniversalTemplate(s, circuit, tuple(level_params))


class CoefficientVector(Record):
    """The first d+1 coefficients of a template specialization, over F_p."""

    __slots__ = ("entries", "levels", "cap", "p")


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
    at_least("degree cap", d, 0)
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


class Embedding(Record):
    __slots__ = (
        "levels",
        "params",  # full parameter vector for the template, slot order
        "template",
    )


def embed(circuit, p=None, seed=0):
    """Find template parameters reproducing a one-variable circuit, over F_p
    or (with p=None) over the integers.

    Every reachable node is a linear form over template levels, level 0
    being the constant 1: x is level 1, so {1: 1}, and a constant c is
    {0: c}.  Each reachable gate takes the next level, whose form is
    {level: 1}.  A product gate multiplies its operands' forms; a sum gate
    multiplies their sum by {0: 1}.  A constant output takes one synthetic
    level, (c) * (1).  The forms' coefficients are the level's parameters.
    Both checks read the unfolded template circuit: over F_p it is evaluated
    with the parameters at random points (`_verify_mod_p`), over the
    integers expanded exactly by one zero-aware walk (`_verify_over_z`), and
    compared with the circuit.  A verification failure raises EmbeddingError
    since it can only mean the construction is wrong.
    """
    if circuit.num_params:
        raise ValueError("circuit must not have parameter slots")
    if circuit.num_vars > 1:
        raise ValueError("embedding targets one-variable circuits")
    if p is not None:
        require_prime(p)

    def red(v):
        return v if p is None else v % p

    forms = {}
    sides = []  # per level j >= 2: the (a, b) forms it multiplies
    for pos in circuit.reachable():
        node = circuit.nodes[pos]
        if isinstance(node, InputVar):
            forms[pos] = {1: 1}
        elif isinstance(node, Const):
            forms[pos] = {0: red(node.value)}
        else:
            a, b = forms[node.left], forms[node.right]
            if isinstance(node, Add):
                a = dict(a)
                for i, c in b.items():
                    a[i] = red(a.get(i, 0) + c)
                b = {0: 1}
            sides.append((a, b))
            forms[pos] = {len(sides) + 1: 1}
    if isinstance(circuit.nodes[circuit.output], Const):
        sides.append((forms[circuit.output], {0: 1}))

    levels = len(sides) + 1
    template = build_universal(levels)
    params = [0] * template.param_count()
    params[template.param_slot(1, 0, "b") - 1] = 1
    for j, pair in enumerate(sides, start=2):
        for side, form in zip("ab", pair):
            for i, c in form.items():
                params[template.param_slot(j, i, side) - 1] = c

    params = tuple(params)
    target = circuit
    if target.num_vars == 0:
        target = Circuit(target.nodes, target.output, 1, 0)
    if p is None:
        _verify_over_z(template, params, target)
    else:
        _verify_mod_p(template, params, target, p, seed)
    return Embedding(levels, params, template)


@functools.lru_cache(maxsize=8)
def _template_evaluator(levels, p):
    """The lowered F_p evaluator of the `levels`-level template.  The cache
    is bounded because a template's lowering grows with levels squared."""
    return compile_mod_evaluator(build_universal(levels).circuit, p)


def _specialized_walk(circuit, slots, x, add, mul):
    """A template circuit's value with its input read as `x` and parameter
    slot k as `slots[k - 1]`, None standing for zero: a product with a zero
    factor is zero, and a sum drops its zero operands.  Templates hold only
    inputs, parameters, sums and products; any other node is refused."""
    val = []
    push = val.append
    for node in circuit.nodes:
        kind = type(node)
        if kind is Mul:
            a, b = val[node.left], val[node.right]
            push(None if a is None or b is None else mul(a, b))
        elif kind is Add:
            a, b = val[node.left], val[node.right]
            push(b if a is None else a if b is None else add(a, b))
        elif kind is Param:
            push(slots[node.index - 1])
        elif kind is InputVar:
            push(x)
        else:
            raise ValueError(f"a template circuit has no {kind.__name__} node")
    return val[circuit.output]


def _specialized_degree(circuit, params, p):
    """An upper bound on the degree in x of the template with `params` over
    F_p: the walk over degrees, a parameter 0 mod p being zero; zero gets 0."""
    slots = [None if v % p == 0 else 0 for v in params]
    return _specialized_walk(circuit, slots, 1, max, operator.add) or 0


def _specialized_poly(circuit, params):
    """The template with `params` over Z[x]: the walk over SparsePoly."""
    slots = [SparsePoly.const(v, 1) if v else None for v in params]
    x = SparsePoly.variable(1, 1)
    value = _specialized_walk(circuit, slots, x, operator.add, operator.mul)
    return SparsePoly({}, 1) if value is None else value


def _verify_over_z(template, params, target):
    """Check by exact expansion that the template circuit with `params`
    computes the one-variable `target` over Z; raise EmbeddingError if not."""
    if _specialized_poly(template.circuit, params) != expand_circuit(target):
        raise EmbeddingError(
            "integer embedding verification failed; this is a bug in the embedding construction"
        )


def _verify_mod_p(template, params, target, p, seed):
    """Check that the template circuit with `params` computes the
    one-variable `target` over F_p, by Schwartz-Zippel trials on the
    unfolded template; raise EmbeddingError naming a witness if not."""
    degree = max(_specialized_degree(template.circuit, params, p), formal_degree(target))
    run_template = _template_evaluator(template.levels, p)
    run_target = compile_mod_evaluator(target, p)
    verdict = _random_trials(
        lambda point: run_template(point, params), lambda point: run_target(point, ()),
        1, degree, p, None, seed,
    )
    if not verdict.equal:
        raise EmbeddingError(
            f"embedding verification failed at witness {verdict.witness}; "
            "this is a bug in the embedding construction"
        )
