"""Circuit-encoded polynomial systems, brute-force solving, density probes.

A system is a list of circuits over a shared set of parameter slots (the
unknowns) with no free input variables; an assignment satisfies it when
every equation evaluates to zero.  Two constructions are provided: the
coefficient-hardness systems tied to the universal template, and the
language systems that force a circuit skeleton to decide a finite language.
"""

from dataclasses import dataclass
from itertools import product

from .circuits import (
    CircuitBuilder,
    compile_mod_evaluator,
    parse_circuits,
    serialize_circuit,
)
from .errors import BudgetError, ParseError
from .primes import is_prime, sieve
from .universal import build_universal, template_series

DEFAULT_SOLVE_BUDGET = 10**8


@dataclass(frozen=True)
class PolySystem:
    unknown_count: int
    equations: tuple
    provenance: str = ""

    def __post_init__(self):
        for eq in self.equations:
            if eq.num_vars != 0:
                raise ValueError("system equations must not have free input variables")
            if eq.num_params > self.unknown_count:
                raise ValueError("equation references an unknown beyond the declared count")


def build_hardness_system(s, d, gamma):
    """One equation per point m in {0..d}: the degree-d truncation of the
    s-level universal template, evaluated at x=m, must equal
    sum_i gamma_i m^i.  Unknowns are the s(s+1) template parameters.

    The truncation is compiled into genuine circuits by running the template
    recursion (template_series) over CircuitBuilder nodes, so the system can
    be evaluated over any prime field.
    """
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != d + 1:
        raise ValueError(f"gamma must have length {d + 1}")
    if any(g not in (0, 1) for g in gamma):
        raise ValueError("gamma entries must be 0 or 1")
    template = build_universal(s)
    unknowns = template.param_count()
    equations = []
    for m in range(d + 1):
        builder = CircuitBuilder(num_vars=0, num_params=unknowns)
        series = template_series(template, d, builder, builder.param)
        # Horner evaluation of the truncated series at x=m
        value = None
        for deg in range(d, -1, -1):
            if value is not None:
                value = builder.mul(value, builder.const(m))
            coeff = series.get(deg)
            if coeff is not None:
                value = builder.add(value, coeff) if value is not None else coeff
        if value is None:
            value = builder.const(0)
        target = sum(g * m**i for i, g in enumerate(gamma))
        if target:
            value = builder.add(value, builder.const(-target))
        equations.append(builder.finish(value))
    tag = f"hardness(s={s},d={d},gamma={''.join(map(str, gamma))})"
    return PolySystem(unknowns, tuple(equations), tag)


def build_language_system(n, accepted, skeleton, budget=12):
    """Force `skeleton` (over n input variables and t parameter slots) to be
    nonzero exactly on the accepted words.

    One equation per rejected word: the substituted skeleton must vanish.
    One product equation over all accepted words times a fresh unknown Z
    must equal 1, built as a single product circuit rather than one equation
    per accepted word.  With no accepted words the product equation
    degenerates to Z - 1 = 0.
    """
    if skeleton.num_vars != n:
        raise ValueError(f"skeleton must have {n} input variables")
    if n > budget:
        raise BudgetError(f"2^{n} substitutions refused", reached=n)
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
        bits = {j: builder.const(mask >> (j - 1) & 1) for j in range(1, n + 1)}
        out = builder.inline(skeleton, input_map=bits)
        equations.append(builder.finish(out))
    builder = CircuitBuilder(num_vars=0, num_params=unknowns)
    if accepted:
        prod = None
        for mask in sorted(accepted):
            bits = {j: builder.const(mask >> (j - 1) & 1) for j in range(1, n + 1)}
            out = builder.inline(skeleton, input_map=bits)
            prod = builder.mul(prod, out) if prod is not None else out
        value = builder.add(builder.mul(prod, builder.param(z_slot)), builder.const(-1))
    else:
        value = builder.add(builder.param(z_slot), builder.const(-1))
    equations.append(builder.finish(value))
    tag = f"language(n={n},|L|={len(accepted)})"
    return PolySystem(unknowns, tuple(equations), tag)


def solve_bruteforce(system, p, budget=DEFAULT_SOLVE_BUDGET):
    """Lexicographically first satisfying assignment over F_p, or None.

    Unknowns vary in slot order with residues 0..p-1, the last slot fastest.
    Any returned assignment is re-checked against every equation.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    u = system.unknown_count
    if p**u > budget:
        raise BudgetError(f"{p}^{u} assignments exceed budget {budget}", reached=p**u)
    runs = [compile_mod_evaluator(eq, p) for eq in system.equations]
    for assign in product(range(p), repeat=u):
        for run in runs:
            if run((), assign):
                break
        else:
            if any(run((), assign) for run in runs):
                raise RuntimeError("solver re-check failed; evaluation is inconsistent")
            return assign
    return None


@dataclass(frozen=True)
class DensityReport:
    limit: int
    pi: int  # primes up to the limit
    pi_s: int  # of which the system is solvable
    ratio: float
    good_primes: tuple
    witnesses: dict  # prime -> first witness
    complete: bool
    high_water: int  # last prime actually decided

    def summary(self):
        return f"pi_S={self.pi_s} pi={self.pi} ratio={self.ratio!r}"


def density_probe(system, limit, solve_budget=DEFAULT_SOLVE_BUDGET):
    """Decide solvability of the system over F_p for every prime p <= limit.

    On a per-prime budget overrun the probe stops and returns the partial
    counts with `complete=False` and the high-water prime reached.
    """
    primes = sieve(limit)
    good = []
    witnesses = {}
    decided = 0
    complete = True
    high_water = 0
    for p in primes:
        try:
            witness = solve_bruteforce(system, p, budget=solve_budget)
        except BudgetError:
            complete = False
            break
        decided += 1
        high_water = p
        if witness is not None:
            good.append(p)
            witnesses[p] = witness
    pi = len(primes)
    pi_s = len(good)
    ratio = pi_s / pi if pi else 0.0
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
    header = None
    for lineno, raw in enumerate(lines, start=1):
        header = raw.split("#", 1)[0].strip()
        if header:
            break
    if not header:
        raise ParseError("empty system text")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "unknowns":
        raise ParseError("expected header 'unknowns <u>'", lineno)
    try:
        unknowns = int(parts[1])
    except ValueError:
        raise ParseError("bad unknowns count", lineno) from None
    equations = parse_circuits(lines[lineno:])
    if not equations:
        raise ParseError("system has no equations")
    return PolySystem(unknowns, tuple(equations), "file")


def serialize_system(system):
    parts = [f"unknowns {system.unknown_count}\n"]
    texts = [serialize_circuit(eq) for eq in system.equations]
    return parts[0] + "---\n".join(texts)
