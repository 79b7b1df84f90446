"""Universal polynomial templates in the style of Schnorr's construction.

Level 1 computes a_0 + b_0 * x.  Every later level j computes

    (a_0 + a_1 L_1 + ... + a_{j-1} L_{j-1}) * (b_0 + b_1 L_1 + ... + b_{j-1} L_{j-1})

over the earlier levels L_i, with fresh parameter slots a_i, b_i per level.
A template with s levels therefore carries exactly s*(s+1) parameters, and a
suitable assignment specializes it to any polynomial a small circuit can
compute: one level per gate plus the base level for x.
"""

import functools

from ._record import Record
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
)
from .errors import EmbeddingError, at_least, charge
from .pit import _random_trials
from .primes import require_prime
from .rings import IntegerRing, PrimeField, TruncatedPolyRing


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


TEMPLATE_BUDGET = 10**5  # parameter slots: s levels carry s(s+1), so s = 315 is the last allowed


@functools.cache
def build_universal(s):
    """Construct the s-level template.  Parameter slots are numbered level by
    level, a-side coefficients before b-side.  Templates are immutable, so
    each level count is built once and the same object is shared."""
    at_least("level count", s, 1)
    charge("template", TEMPLATE_BUDGET, s * (s + 1), f"{s * (s + 1)} template parameters")
    return _template_circuit(s, b"\1" * (s * (s + 1)))


@functools.lru_cache(maxsize=1024)
def _template_circuit(s, nonzero):
    """The one template construction: the s-level template with slot k left
    out when byte k-1 of `nonzero` is 0.  A zero slot emits no node, a
    product with a zero factor is zero, a sum keeps its nonzero operands, and
    a zero template is `Const(0)`; with every slot nonzero nothing is left
    out.  Zero patterns repeat across embeddings: each is built once."""
    nodes = [InputVar(1)]

    def emit(node):
        nodes.append(node)
        return len(nodes) - 1

    def param(k):
        return emit(Param(k)) if nonzero[k - 1] else None

    def add(a, b):
        return b if a is None else a if b is None else emit(Add(a, b))

    def mul(a, b):
        return None if a is None or b is None else emit(Mul(a, b))

    level_nodes = []
    for j, (a_slots, b_slots) in enumerate(_level_params(s), start=1):
        if j == 1:
            a0 = param(a_slots[0])
            level_nodes.append(add(a0, mul(param(b_slots[0]), 0)))  # node 0 is x
            continue
        sides = []
        for slots in (a_slots, b_slots):
            acc = param(slots[0])
            for i in range(1, j):
                if level_nodes[i - 1] is not None:  # a zero level reads no slot
                    acc = add(acc, mul(param(slots[i]), level_nodes[i - 1]))
            sides.append(acc)
        level_nodes.append(mul(*sides))
    out = level_nodes[-1]
    if out is None:
        out = emit(Const(0))
    circuit = Circuit(tuple(nodes), out, 1, s * (s + 1))
    return UniversalTemplate(s, circuit, _level_params(s))


@functools.cache
def _level_params(s):
    """Per level j: its a-side and b-side slots, j each, numbered level by
    level from 1, a before b; shared by every template of s levels."""
    return tuple(
        (tuple(range(j * j - j + 1, j * j + 1)), tuple(range(j * j + 1, j * j + j + 1)))
        for j in range(1, s + 1)
    )


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
    Both checks run one circuit, the template built without its zero slots
    (those 0 mod p over F_p): over F_p it is lowered and evaluated with the
    parameters at random points (`_verify_mod_p`), over Z it is expanded
    exactly (`_verify_over_z`), and each is compared with the circuit.  The
    template's s(s+1) parameters are charged against `TEMPLATE_BUDGET`
    before it is built.  A verification failure raises EmbeddingError since
    it can only mean the construction is wrong.
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


@functools.lru_cache(maxsize=1024)
def _template_evaluator(levels, p, nonzero):
    """The pruned template of the zero pattern `nonzero`, lowered over F_p."""
    return compile_mod_evaluator(_template_circuit(levels, nonzero).circuit, p)


def _verify_over_z(template, params, target):
    """Check by exact expansion that the template circuit with `params`
    computes the one-variable `target` over Z; raise EmbeddingError if not."""
    pruned = _template_circuit(template.levels, bytes(map(bool, params))).circuit
    ring = TruncatedPolyRing(IntegerRing(), 1, None)
    slots = [ring.from_int(v) if v else None for v in params]  # a zero slot is never read
    value = evaluate(pruned, ring, [ring.gen(1)], slots)
    if value != expand_circuit(target):
        raise EmbeddingError(
            "integer embedding verification failed; this is a bug in the embedding construction"
        )


def _verify_mod_p(template, params, target, p, seed):
    """Check that the template circuit with `params` computes the
    one-variable `target` over F_p, by Schwartz-Zippel trials on the template
    pruned of its zero slots; raise EmbeddingError naming a witness if not.
    The target's formal degree bounds the degree of both sides, since each
    template level's degree is at most its gate's formal degree."""
    nonzero = bytes(v % p != 0 for v in params)
    run_template = _template_evaluator(template.levels, p, nonzero)
    run_target = compile_mod_evaluator(target, p)
    verdict = _random_trials(
        lambda point: run_template(point, params), lambda point: run_target(point, ()),
        1, formal_degree(target), p, None, seed,
    )
    if not verdict.equal:
        raise EmbeddingError(
            f"embedding verification failed at witness {verdict.witness}; "
            "this is a bug in the embedding construction"
        )
