"""Universal polynomial templates in the style of Schnorr's construction.

Level 1 computes a_0 + b_0 * x.  Every later level j computes

    (a_0 + a_1 L_1 + ... + a_{j-1} L_{j-1}) * (b_0 + b_1 L_1 + ... + b_{j-1} L_{j-1})

over the earlier levels L_i, with fresh parameter slots a_i, b_i per level.
A template with s levels therefore carries exactly s*(s+1) parameters, and a
suitable assignment specializes it to any polynomial a small circuit can
compute: one level per gate plus the base level for x.

`_template_circuit` is the one construction: the coefficient map, its
reference, the hardness systems and `embed` each evaluate its circuit.
"""

import functools

from ._record import Record
from .circuits import (
    ADD,
    CONST,
    INPUT,
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
from .rings import DenseSeriesRing, IntegerRing, PrimeField, TruncatedPolyRing


class UniversalTemplate(Record):
    __slots__ = ("circuit",)

    def param_count(self):
        return self.circuit.num_params


TEMPLATE_BUDGET = 10**5  # parameter slots: s levels carry s(s+1), so s = 315 is the last allowed


@functools.cache
def build_universal(s):
    """Construct the s-level template.  Parameter slots are numbered level by
    level, a-side coefficients before b-side (`_slots`).  Templates are
    immutable, so each level count is built once and the same object is
    shared."""
    at_least("level count", s, 1)
    charge("template", TEMPLATE_BUDGET, s * (s + 1), f"{s * (s + 1)} template parameters")
    return UniversalTemplate(_template_circuit(s, b"\1" * (s * (s + 1))))


def _slots(j):
    """Level j's a-side and b-side parameter slots (1-based), j each: the
    levels before it carry (j - 1) j slots, and a comes before b."""
    return range(j * j - j + 1, j * j + 1), range(j * j + 1, j * j + j + 1)


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

    level_nodes = [add(param(1), mul(param(2), 0))]  # level 1 is a_0 + b_0 x; node 0 is x
    for j in range(2, s + 1):
        sides = []
        for slots in _slots(j):
            acc = param(slots[0])
            for i in range(1, j):
                if level_nodes[i - 1] is not None:  # a zero level reads no slot
                    acc = add(acc, mul(param(slots[i]), level_nodes[i - 1]))
            sides.append(acc)
        level_nodes.append(mul(*sides))
    out = level_nodes[-1]
    if out is None:
        out = emit(Const(0))
    return Circuit(tuple(nodes), out, 1, s * (s + 1))


class CoefficientVector(Record):
    """The first d+1 coefficients of a template specialization, over F_p."""

    __slots__ = ("entries",)


def truncated_coefficient_map(template, d, p, params):
    """Coefficients 0..d of the specialized template over F_p: its circuit
    evaluated over dense series in x, cut at degree d or at the circuit's
    formal degree, which bounds its degree in x, whichever is lower; the
    ring refuses a negative d."""
    ring = DenseSeriesRing(PrimeField(p), min(d, formal_degree(template.circuit)))
    series = evaluate(template.circuit, ring, [ring.gen(1)], [ring.from_int(v) for v in params])
    return CoefficientVector(series + (0,) * (d + 1 - len(series)))


def truncated_coefficient_map_reference(template, d, p, params):
    """Same map computed by evaluating the template circuit in a truncated
    polynomial ring; used to cross-check the fast path."""
    ring = TruncatedPolyRing(PrimeField(p), 1, d)
    poly = evaluate(template.circuit, ring, [ring.gen(1)], [ring.from_int(v) for v in params])
    entries = tuple(poly.coefficient((i,)) for i in range(d + 1))
    return CoefficientVector(entries)


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
    Both checks run one circuit, the template built without the slots whose
    parameters are zero (over F_p they are already reduced mod p), with that
    pattern read once: over F_p it is compiled and evaluated with the
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
    nodes = circuit.nodes
    for pos in circuit.reachable():
        op, a, b = nodes[pos]
        if op == INPUT:
            forms[pos] = {1: 1}
        elif op == CONST:
            forms[pos] = {0: red(a)}
        else:
            a, b = forms[a], forms[b]
            if op == ADD:
                a = dict(a)
                for i, c in b.items():
                    a[i] = red(a.get(i, 0) + c)
                b = {0: 1}
            sides.append((a, b))
            forms[pos] = {len(sides) + 1: 1}
    if nodes[circuit.output][0] == CONST:
        sides.append((forms[circuit.output], {0: 1}))

    levels = len(sides) + 1
    template = build_universal(levels)
    params = [0] * template.param_count()
    params[1] = 1  # level 1 is 0 + 1 x
    for j, pair in enumerate(sides, start=2):
        for slots, form in zip(_slots(j), pair):
            for i, c in form.items():
                params[slots[i] - 1] = c

    params = tuple(params)
    nonzero = bytes(map(bool, params))  # over F_p each parameter is already in [0, p)
    target = circuit
    if target.num_vars == 0:
        target = Circuit(target.nodes, target.output, 1, 0)
    if p is None:
        _verify_over_z(levels, nonzero, params, target)
    else:
        _verify_mod_p(levels, nonzero, params, target, p, seed)
    return Embedding(levels, params, template)


@functools.lru_cache(maxsize=1024)
def _template_evaluator(levels, p, nonzero):
    """The pruned template of the zero pattern `nonzero`, compiled over F_p."""
    return compile_mod_evaluator(_template_circuit(levels, nonzero), p)


def _verify_over_z(levels, nonzero, params, target):
    """Check by exact expansion that the template circuit with `params`,
    pruned of the slots `nonzero` marks zero, computes the one-variable
    `target` over Z; raise EmbeddingError if not."""
    ring = TruncatedPolyRing(IntegerRing(), 1, None)
    slots = [ring.from_int(v) if v else None for v in params]  # a zero slot is never read
    value = evaluate(_template_circuit(levels, nonzero), ring, [ring.gen(1)], slots)
    if value != expand_circuit(target):
        raise EmbeddingError(
            "integer embedding verification failed; this is a bug in the embedding construction"
        )


def _verify_mod_p(levels, nonzero, params, target, p, seed):
    """Check that the template circuit with `params` computes the
    one-variable `target` over F_p, by Schwartz-Zippel trials on the template
    pruned of the slots `nonzero` marks zero; raise EmbeddingError naming a
    witness if not.  The target's formal degree bounds the degree of both
    sides, since each template level's degree is at most its gate's formal
    degree."""
    run_template = _template_evaluator(levels, p, nonzero)
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
