"""Circuit-encoded polynomial systems, brute-force solving, density probes.

A system is a list of circuits over a shared set of parameter slots (the
unknowns) with no free input variables; an assignment satisfies it when
every equation evaluates to zero.  Three constructions are provided: the
hardness systems, the universal template's circuit evaluated over node
series; the language systems that make a skeleton decide a finite language;
and the agreement systems that make a circuit chain compute permanents.

`solve_bruteforce` runs a compiled loop nest over the p^u assignments.  Its
innermost unknown takes its candidates from its least-degree equation: the
one value solving it when it is affine; when it is the only unknown and
D^2 < p, D its formal degree, its roots, found by equal-degree splitting of
its gcd with y^p - y; and every residue otherwise.
"""

import functools
from itertools import compress, count, product, zip_longest

from ._record import Record
from .circuits import (
    ADD,
    CONST,
    PARAM,
    CircuitBuilder,
    _parse_rows,
    _sections,
    compile_mod_evaluator,
    evaluate,
)
from .errors import (
    DEFAULT_SOLVE_BUDGET,
    BudgetError,
    ParseError,
    at_least,
    capped_power,
    charge,
    content_lines,
    parse_count,
)
from .primes import _prime_flags, require_prime
from .rings import DenseSeriesRing, PrimeField
from .universal import build_universal


class PolySystem(Record):
    __slots__ = ("unknown_count", "equations")

    def __init__(self, unknown_count, equations):
        super().__init__(unknown_count, equations)
        at_least("unknown_count", unknown_count, 0)
        for eq in equations:
            if eq.num_vars != 0:
                raise ValueError("system equations must not have free input variables")
            if eq.num_params > unknown_count:
                raise ValueError("equation references an unknown beyond the declared count")


class _NodeSeries:
    """Series in x truncated above degree d whose coefficients are nodes of
    `builder`, as {degree: node}; the coefficient None is 1, so a product
    with x shifts degrees and emits no node."""

    def __init__(self, builder, d):
        self.builder, self.d = builder, d

    def node(self, c):
        return self.builder.const(1) if c is None else c

    def from_int(self, v):
        return {0: self.builder.const(v)} if v else {}

    def add(self, a, b):
        out = dict(a)
        for deg, c in b.items():
            out[deg] = self.builder.add(self.node(out[deg]), self.node(c)) if deg in out else c
        return out

    def mul(self, a, b):
        out = {}
        for i, u in a.items():
            for k, v in b.items():
                if i + k <= self.d:
                    term = v if u is None else u if v is None else self.builder.mul(u, v)
                    out = self.add(out, {i + k: term})
        return out


def build_hardness_system(s, d, gamma):
    """One equation per point m in {0..d}: the degree-d truncation of the
    s-level universal template, evaluated at x=m, must equal
    sum_i gamma_i m^i.  Unknowns are the s(s+1) template parameters.

    The truncation is written as a genuine circuit by evaluating the
    template circuit over series of CircuitBuilder nodes (`_NodeSeries`),
    so the system can be evaluated over any prime field.  The series does
    not depend on m, so it is built once; each equation continues from a
    copy of that builder with its Horner tail.
    """
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != d + 1:
        raise ValueError(f"gamma must have length {d + 1}")
    if any(g not in (0, 1) for g in gamma):
        raise ValueError("gamma entries must be 0 or 1")
    template = build_universal(s)
    unknowns = template.param_count()
    base = CircuitBuilder(num_vars=0, num_params=unknowns)
    params = [{0: base.param(k)} for k in range(1, unknowns + 1)]
    series = evaluate(template.circuit, _NodeSeries(base, d), [{1: None} if d else {}], params)
    equations = []
    for m in range(d + 1):
        builder = base.copy()
        # Horner evaluation of the truncated series at x=m
        value = None
        for deg in range(d, -1, -1):
            if value is not None:
                value = builder.mul(value, builder.const(m))
            if deg in series:
                coeff = series[deg]
                if coeff is None:  # the coefficient 1 of a bare power of x
                    coeff = builder.const(1)
                value = builder.add(value, coeff) if value is not None else coeff
        target = sum(g * m**i for i, g in enumerate(gamma))
        if target:
            value = builder.add(value, builder.const(-target))
        equations.append(builder.finish(value))
    return PolySystem(unknowns, tuple(equations))


def _substituted(builder, skeleton, values):
    """Inline `skeleton` into `builder` with input j bound to the constant
    values[j - 1]; returns the output position."""
    consts = {j: builder.const(v) for j, v in enumerate(values, start=1)}
    return builder.inline(skeleton, input_map=consts)


def build_language_system(n, accepted, skeleton):
    """Force `skeleton` (over n input variables and t parameter slots) to be
    nonzero exactly on the accepted words.

    One equation per rejected word: the substituted skeleton must vanish.
    One product equation over all accepted words times a fresh unknown Z
    must equal 1, built as a single product circuit rather than one equation
    per accepted word.  With no accepted words the product equation
    degenerates to Z - 1 = 0.  More than 12 input variables are refused.
    """
    if skeleton.num_vars != n:
        raise ValueError(f"skeleton must have {n} input variables")
    charge("language-system", 12, n, f"{n} input variables")
    accepted = {int(x) for x in accepted}
    if any(x < 0 or x >= 1 << n for x in accepted):
        raise ValueError("accepted word out of range")
    t = skeleton.num_params
    unknowns = t + 1
    z_slot = t + 1
    equations = []
    for mask in range(1 << n):
        if mask in accepted:
            continue
        builder = CircuitBuilder(num_vars=0, num_params=unknowns)
        out = _substituted(builder, skeleton, [mask >> j & 1 for j in range(n)])
        equations.append(builder.finish(out))
    builder = CircuitBuilder(num_vars=0, num_params=unknowns)
    if accepted:
        prod = None
        for mask in sorted(accepted):
            out = _substituted(builder, skeleton, [mask >> j & 1 for j in range(n)])
            prod = builder.mul(prod, out) if prod is not None else out
        value = builder.add(builder.mul(prod, builder.param(z_slot)), builder.const(-1))
    else:
        value = builder.add(builder.param(z_slot), builder.const(-1))
    equations.append(builder.finish(value))
    return PolySystem(unknowns, tuple(equations))


AGREEMENT_BUDGET = 10**5  # equations: a chain of length 3 needs 19,767, length 4 about 43 million


def permanent_agreement_system(chain):
    """The system forcing a skeleton chain to compute permanents: one
    equation per circuit and grid point, C_k(e) - per(e) = 0 with e ranging
    over {0, 1, 2}^(k*k).  Unknowns are the chain's parameter slots.

    The primes at which this system is solvable form the pool the evaluation
    protocol's collision test is probing, so a density probe over it makes
    that set explicit; for a constant-free honest chain it is every prime,
    for the determinant chain it is exactly {2}.  The sum of 3^(k*k) over the
    chain is charged to the agreement budget before any equation is built.
    """
    from .families import permanent  # here, not at the top: no command builds this system

    num_params = {c.num_params for c in chain}
    if len(num_params) != 1:
        raise ValueError("chain circuits must share one parameter-slot count")
    (unknowns,) = num_params
    total = sum(capped_power(3, k * k, AGREEMENT_BUDGET) for k in range(1, len(chain) + 1))
    charge("agreement", AGREEMENT_BUDGET, total, f"the grid points of {len(chain)} chain circuits")
    equations = []
    for k, skeleton in enumerate(chain, start=1):
        if skeleton.num_vars != k * k:
            raise ValueError(f"chain circuit {k} must have {k * k} variables")
        for point in product(range(3), repeat=k * k):
            matrix = [list(point[r * k : (r + 1) * k]) for r in range(k)]
            target = permanent(matrix)
            builder = CircuitBuilder(num_params=unknowns)
            out = _substituted(builder, skeleton, point)
            if target:
                out = builder.add(out, builder.const(-target))
            equations.append(builder.finish(out))
    return PolySystem(unknowns, tuple(equations))


# CPython refuses more than 20 statically nested blocks in one function;
# slots beyond this many nested loops are drawn from one outer product loop.
_NESTED_SLOTS = 15


@functools.lru_cache(maxsize=64)
def _solver_kernel(system):
    """Compile the system once into a loop nest `kernel(p)` over all p^u
    assignments, the last unknown fastest, which returns the
    lexicographically first zero of every equation over F_p, or None.

    The equations are merged into one builder, so shared subterms are
    computed once.  Each node sits at the loop of the last unknown it
    depends on and is computed there, and each equation is tested as soon
    as its loop is reached: a prefix that fails it is skipped with all of
    its completions, which all fail it too, so the first zero is unchanged.

    The innermost loop draws its candidates for a_u from one equation E, the
    first of least formal degree D in a_u tested there.  If D = 1, E is
    c0 + c1 a_u; its cone at a_u = 0 and 1 leaves -c0/c1 if c1 != 0, none if
    only c0 != 0, and 0..p-1 if both vanish.  If u = 1 and D^2 < p, the
    candidates are E's roots, found once per prime by `_roots_of`.  Otherwise
    they are 0..p-1.  Every equation is still tested on each candidate, but
    for E at D = 1, which each candidate solves by construction: E's test and
    the part of its cone no other equation reads are left out of the loop.
    """
    u = system.unknown_count
    builder = CircuitBuilder(0, u)
    outputs = [builder.inline(eq) for eq in system.equations]
    nodes = builder.finish(outputs[0]).nodes if outputs else ()
    prefix = max(0, u - _NESTED_SLOTS)
    # slots bound by each loop level; level 0 is outside every loop
    groups = [()] + ([tuple(range(1, prefix + 1))] if prefix else [])
    groups += [(k,) for k in range(prefix + 1, u + 1)]
    level_of_slot = {k: level for level, slots in enumerate(groups) for k in slots}

    last = len(groups) - 1  # the level of a_u when u > 0
    # degrees: formal degree in a_u (1 at a_u, 0 at other leaves)
    consts, names, levels, degrees = [], [], [], []
    exprs = {}
    body = [[] for _ in groups]  # straight-line statements per level
    untested = set(outputs)
    best = None  # the first equation of least degree tested at the last level
    for pos, (op, a, b) in enumerate(nodes):
        if op == PARAM:
            names.append(f"a{a + 1}")
            levels.append(level_of_slot[a + 1])
            degrees.append(int(a + 1 == u))
        elif op == CONST:
            names.append(f"v{pos}")
            levels.append(0)
            degrees.append(0)
            body[0].append(f"v{pos} = C[{len(consts)}] % p")
            consts.append(a)
        else:
            x, y = names[a], names[b]
            names.append(f"v{pos}")
            levels.append(max(levels[a], levels[b]))
            da, db = degrees[a], degrees[b]
            degrees.append(max(da, db) if op == ADD else da + db)
            exprs[pos] = f"({x} + {y}) % p" if op == ADD else f"{x} * {y} % p"
            body[levels[pos]].append(f"v{pos} = {exprs[pos]}")
        if pos in untested:
            untested.remove(pos)
            fail = "continue" if levels[pos] else "return None"
            body[levels[pos]].append(f"if {names[pos]}: {fail}")
            if u and levels[pos] == last and (best is None or degrees[pos] < degrees[best]):
                best = pos
    namespace = {"C": tuple(consts), "product": product, "_roots_of": _roots_of}
    head = [f"for a{u} in range(p):"]
    if best is not None and degrees[best] == 1:
        cone = {best}
        for pos in range(best, -1, -1):
            if pos in cone and pos in exprs:
                cone.update(k for k in nodes[pos][1:] if levels[k] == last)
        step = [f"v{pos} = {exprs[pos]}" for pos in sorted(cone) if pos in exprs]
        f, fail = names[best], ("continue" if last > 1 else "return None")
        head = [f"a{u} = 0", *step, f"c0 = {f}", f"a{u} = 1", *step, f"c1 = ({f} - c0) % p"]
        head += ["if c1: roots = (-c0 * pow(c1, -1, p) % p,)", f"elif c0: {fail}"]
        head += ["else: roots = range(p)", f"for a{u} in roots:"]
        # every candidate solves E: its test goes, and so does its cone
        # outside the cones of the equations still tested there
        live = {pos for pos in outputs if levels[pos] == last and pos != best}
        for pos in range(len(nodes) - 1, -1, -1):
            if pos in live and pos in exprs:
                live.update(k for k in nodes[pos][1:] if levels[k] == last)
        dead = {f"v{pos} = {exprs[pos]}" for pos in cone - live if pos in exprs}
        dead.add(f"if {f}: continue")
        body[last] = [stmt for stmt in body[last] if stmt not in dead]
    elif best is not None and u == 1:
        namespace.update(E=system.equations[outputs.index(best)], D=degrees[best])
        head = ["roots = _roots_of(E, D, p) if D * D < p else range(p)"]
        head += ["if not roots: return None", "for a1 in roots:"]

    lines = ["def kernel(p):"]
    for level, slots in enumerate(groups):
        indent = "    " * level
        if len(slots) > 1:
            targets = "".join(f"a{k}, " for k in slots)
            lines.append(f"{indent}for {targets}in product(range(p), repeat={len(slots)}):")
        elif level == last and u:
            lines += [f"{indent}{stmt}" for stmt in head]
        elif slots:
            lines.append(f"{indent}for a{slots[0]} in range(p):")
        lines += [f"{indent}    {stmt}" for stmt in body[level]]
    witness = "".join(f"a{k}, " for k in range(1, u + 1))
    lines.append(f"{'    ' * len(groups)}return ({witness})")
    if u:
        lines.append("    return None")
    exec(compile("\n".join(lines) + "\n", "<solver kernel>", "exec"), namespace)
    return namespace["kernel"]


# Polynomials in the one unknown y over F_p: lists of residues, constant
# term first, no trailing zeros.


def _roots_of(equation, degree, p):
    """Every root over F_p of a one-unknown equation of formal degree at
    most `degree`, ascending, or range(p) if it vanishes mod p.  The
    equation is expanded densely up to that degree, which bounds its true
    degree; its roots are those of g = gcd(equation, y^p - y), a product of
    distinct linear factors.  y^p = y h^2 with h = y^((p-1)/2), whose
    residue mod g is also the first split's.
    """
    ring = DenseSeriesRing(PrimeField(p), degree)
    g = _gcd([], list(evaluate(equation, ring, (), (ring.gen(1),)[: equation.num_params])), p)
    if not g:
        return range(p)
    h = None
    if len(g) > 2:  # a linear g divides y^p - y already
        h = _power([1], 0, bin(p // 2)[2:], g, p)
        g = _gcd(g, _sub(_power(h, 0, "1", g, p), [0, 1], p), p)
        h = _divmod(h, g, p)[1]
    return sorted(_roots(g, p, 0, h)) if len(g) > 1 else ()


def _roots(g, p, a, h=None):
    """Roots of monic g, a product of distinct linear factors over F_p;
    h, if given, is (y + a)^((p-1)/2) mod g.

    gcd(g, (y + a)^((p-1)/2) - 1) keeps the roots r with r + a a nonzero
    square; shifts a, a + 1, ... are tried until one splits g.  Each factor
    goes on from the next shift, as no shift tried so far splits it.  The
    roots do not depend on the shift that splits.  p is odd when deg g > 1,
    as D^2 < p.
    """
    if len(g) == 2:
        return [-g[0] % p]
    for a in count(a):
        h = _power([1], a, bin(p // 2)[2:], g, p) if h is None else h
        f = _gcd(g, _sub(h, [1], p), p)
        if 1 < len(f) < len(g):
            return _roots(f, p, a + 1) + _roots(_divmod(g, f, p)[0], p, a + 1)
        h = None


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _sub(f, h, p):
    return _trim([(a - b) % p for a, b in zip_longest(f, h, fillvalue=0)])


def _divmod(f, g, p):
    """Quotient and remainder of f, with any int entries, by monic g."""
    n = len(g) - 1
    f = list(f)
    for top in range(len(f) - 1, n - 1, -1):
        c = f[top] = f[top] % p
        if c:
            for k, d in enumerate(g[:n], top - n):
                f[k] -= c * d
    return f[n:], _trim([c % p for c in f[:n]])


def _gcd(f, g, p):
    """Monic gcd of f, monic or zero, and g."""
    g = _trim(g)
    while g:
        inv = pow(g[-1], -1, p)
        f, g = [c * inv % p for c in g], f
        g = _divmod(g, f, p)[1]
    return f


def _power(f, a, bits, g, p):
    """f^(2^len(bits)) (y + a)^e mod monic g, e the binary number `bits`:
    square-and-multiply from the top bit.  The remainder is kept as n
    coefficients, n = deg g, and multiplying by y + a is a shift, a scaled
    add and one reduction step by y^n = -g[0] - ... - g[n-1] y^(n-1).
    """
    n = len(g) - 1
    tail = [-c for c in g[:n]]
    f = f + [0] * (n - len(f))
    for bit in bits:
        sq = [0] * (2 * n - 1)  # f^2, each cross product formed once
        for i, c in enumerate(f):
            if c:
                sq[2 * i] += c * c
                c += c
                for k, d in enumerate(f[i + 1 :], 2 * i + 1):
                    sq[k] += c * d
        for top in range(2 * n - 2, n - 1, -1):
            c = sq.pop() % p
            if c:
                for k, d in enumerate(tail, top - n):
                    sq[k] += c * d
        if bit == "1":
            top = sq[-1]
            f = [(b + a * c + top * t) % p for b, c, t in zip([0] + sq, sq, tail)]
        else:
            f = [c % p for c in sq]
    return _trim(f)


def solve_bruteforce(system, p, budget=DEFAULT_SOLVE_BUDGET):
    """Lexicographically first satisfying assignment over F_p, or None.

    Unknowns vary in slot order with residues 0..p-1, the last slot fastest.
    The search runs in a loop nest compiled once per system; any returned
    assignment is re-checked against every original equation by
    `compile_mod_evaluator`, independently of the loop nest.
    """
    require_prime(p)
    u = system.unknown_count
    charge("eval", budget, capped_power(p, u, budget), f"{p}^{u} assignments")
    witness = _solver_kernel(system)(p)
    if witness is not None:
        runs = [compile_mod_evaluator(eq, p) for eq in system.equations]
        if any(run((), witness) for run in runs):
            raise RuntimeError("solver re-check failed; evaluation is inconsistent")
    return witness


class DensityReport(Record):
    __slots__ = (
        "limit",
        "pi",  # primes up to the limit
        "pi_s",  # of which the system is solvable
        "ratio",  # pi_s over the primes decided, those up to high_water
        "good_primes",
        "witnesses",  # prime -> first witness
        "complete",
        "high_water",  # last prime actually decided
    )


DENSITY_BUDGET = 10**8  # solver assignments one probe may spend over all its primes


def density_probe(system, limit, solve_budget=DEFAULT_SOLVE_BUDGET):
    """Decide solvability of the system over F_p for every prime p <= limit.

    Each prime's p^u assignments are charged against `solve_budget`, and
    their running total against DENSITY_BUDGET, before that prime is
    solved.  On either overrun the probe stops and returns the partial
    counts with `complete=False` and the high-water prime reached; `pi`
    still counts every prime up to the limit, but `ratio` is taken over
    the primes decided.
    """
    flags = _prime_flags(limit)
    good = []
    witnesses = {}
    complete = True
    high_water = 0
    decided = 0
    u = system.unknown_count
    total = 0
    for p in compress(range(limit + 1), flags):
        total += capped_power(p, u, DENSITY_BUDGET)
        try:
            charge("density", DENSITY_BUDGET, total, f"{total} assignments")
            witness = solve_bruteforce(system, p, budget=solve_budget)
        except BudgetError:
            complete = False
            break
        high_water = p
        decided += 1
        if witness is not None:
            good.append(p)
            witnesses[p] = witness
    pi = flags.count(1)
    pi_s = len(good)
    ratio = pi_s / decided if decided else 0.0
    return DensityReport(
        limit=limit,
        pi=pi,
        pi_s=pi_s,
        ratio=ratio,
        good_primes=tuple(good),
        witnesses=witnesses,
        complete=complete,
        high_water=high_water,
    )


# ---------------------------------------------------------------------------
# Text format: "unknowns <u>" header, then circuits separated by "---"


def parse_system(text):
    lines = text.splitlines()
    lineno, header = next(content_lines(lines), (None, None))
    if header is None:
        raise ParseError("empty system text")
    unknowns = parse_count(header.split(), "unknowns", lineno, "expected header 'unknowns <u>'")
    sections = _sections(lines[lineno:], lineno + 1)
    equations = [_parse_rows(rows) for rows in sections]
    if not equations:
        raise ParseError("system has no equations")
    # PolySystem's checks, naming the equation's nvars or nparams line
    for rows, eq in zip(sections, equations):
        if eq.num_vars:
            raise ParseError("system equations must not have free input variables", rows[0][0])
        if eq.num_params > unknowns:
            message = "equation references an unknown beyond the declared count"
            raise ParseError(message, rows[1][0])
    return PolySystem(unknowns, tuple(equations))
