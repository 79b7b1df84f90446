import hashlib
import random
import re
from itertools import product

import pytest

from circuitbench.circuits import (
    CircuitBuilder,
    compile_mod_evaluator,
    formal_degree,
    parse_circuit,
    random_circuit,
    serialize_circuit,
)
from circuitbench import systems
from circuitbench.errors import BudgetError, ParseError
from circuitbench.systems import (
    PolySystem,
    build_hardness_system,
    build_language_system,
    density_probe,
    parse_system,
    solve_bruteforce,
)


def single_equation(text):
    return PolySystem(parse_circuit(text).num_params, (parse_circuit(text),))


def y_squared_plus_one():
    return single_equation("nvars 0\nnparams 1\ng1 = param 1\ng2 = mul g1 g1\ng3 = const 1\ng4 = add g2 g3\nout g4\n")


def test_solve_examples():
    system = y_squared_plus_one()
    assert solve_bruteforce(system, 5) == (2,)  # first of {2, 3}
    assert solve_bruteforce(system, 7) is None
    assert solve_bruteforce(system, 2) == (1,)


def test_solve_budget():
    system = y_squared_plus_one()
    with pytest.raises(BudgetError):
        solve_bruteforce(system, 101, budget=50)


def test_solve_budget_never_forms_the_whole_power():
    # 101^(10^8) is a number of about 80 MB; the refusal compares 101^27,
    # the first power past the budget's bit length
    system = PolySystem(10**8, (y_squared_plus_one().equations[0],))
    message = r"^101\^100000000 assignments exceed the eval budget 100000000$"
    with pytest.raises(BudgetError, match=message) as info:
        solve_bruteforce(system, 101)
    assert info.value.reached == 101**27


def oracle_solve(system, p):
    """The reference solver: every assignment in lexicographic order, each
    equation evaluated over F_p by `compile_mod_evaluator`, not by the
    solver's generated loop nest."""
    runs = [compile_mod_evaluator(eq, p) for eq in system.equations]
    for assign in product(range(p), repeat=system.unknown_count):
        if all(run((), assign) == 0 for run in runs):
            return assign
    return None


def test_solve_matches_oracle_on_hardness_systems():
    for s in (1, 2):
        for d in range(4):
            for gamma in product((0, 1), repeat=d + 1):
                system = build_hardness_system(s, d, gamma)
                for p in (2, 3, 5, 7):
                    if p**system.unknown_count <= 10**6:
                        assert solve_bruteforce(system, p) == oracle_solve(system, p), (s, gamma, p)


def test_solve_lex_first_and_complete_vs_direct_substitution():
    rng = random.Random(83)
    for _ in range(300):
        u = rng.randint(1, 4)
        p = rng.choice([p for p in (2, 3, 5, 7) if p**u <= 2401])
        # equations may use fewer parameter slots than the system has unknowns
        eqs = tuple(
            random_circuit(rng, rng.randint(1, 8), num_vars=0, num_params=rng.randint(0, u))
            for _ in range(rng.randint(1, 3))
        )
        system = PolySystem(u, eqs)
        assert solve_bruteforce(system, p) == oracle_solve(system, p)


def test_solve_without_unknowns():
    zero = single_equation("nvars 0\ng1 = const 5\ng2 = const -5\ng3 = add g1 g2\nout g3\n")
    nonzero = single_equation("nvars 0\ng1 = const 3\nout g1\n")
    for p in (2, 3, 5, 7):
        assert solve_bruteforce(zero, p) == () == oracle_solve(zero, p)
        assert solve_bruteforce(nonzero, p) == oracle_solve(nonzero, p)
        assert (solve_bruteforce(nonzero, p) is None) == (p != 3)


def test_solve_matches_oracle_beyond_the_nested_loops():
    # more unknowns than nested loops: the leading slots come from one
    # product loop, and equations on them are tested in it
    rng = random.Random(307)
    u = 17
    b = CircuitBuilder(num_params=u)
    # x^2 + x + 1 has no root mod 2
    no_root = b.finish(b.add(b.mul(b.param(u), b.param(u)), b.add(b.param(u), b.const(1))))
    systems = [PolySystem(u, (no_root,))]
    for _ in range(4):
        eqs = tuple(
            random_circuit(rng, rng.randint(4, 12), num_vars=0, num_params=u)
            for _ in range(rng.randint(1, 3))
        )
        systems.append(PolySystem(u, eqs))
    b = CircuitBuilder(num_params=u)
    late = b.finish(b.add(b.mul(b.param(1), b.param(2)), b.const(-1)))
    systems.append(PolySystem(u, (late,)))
    for system in systems:
        assert solve_bruteforce(system, 2) == oracle_solve(system, 2)
    assert solve_bruteforce(systems[-1], 2) == (1, 1) + (0,) * (u - 2)


def test_solve_rechecks_witness_independently(monkeypatch):
    import circuitbench.systems as systems_module

    system = y_squared_plus_one()
    monkeypatch.setattr(
        systems_module, "compile_mod_evaluator", lambda circuit, p: lambda inputs, params: 1
    )
    with pytest.raises(RuntimeError, match="re-check"):
        solve_bruteforce(system, 5)


def system_of(u, *builds):
    """PolySystem(u, ...) with one equation per build(b, params)."""
    eqs = []
    for build in builds:
        b = CircuitBuilder(num_params=u)
        eqs.append(b.finish(build(b, [None] + [b.param(k) for k in range(1, u + 1)])))
    return PolySystem(u, tuple(eqs))


def closed_form(system):
    """How the solver's kernel draws the last unknown's candidates: "affine"
    when it solves c0 + c1 a_u for them, "roots" when it asks `_roots_of`,
    and None when it loops over every residue."""
    code = systems._solver_kernel(system).__code__
    if "c1" in code.co_varnames:
        return "affine"
    return "roots" if "_roots_of" in code.co_names else None


def test_closed_form_last_unknown_matches_oracle():
    unique = system_of(2, lambda b, a: b.add(b.mul(a[1], a[2]), b.const(-3)))  # a1 a2 - 3
    # (a1 - 3) a2 + 1: at a1 = 3 the coefficient of a2 vanishes and the prefix
    # fails; a2 + a1 + 1 then holds first at (5, 5) mod 11
    no_candidate = system_of(
        2,
        lambda b, a: b.add(b.mul(b.add(a[1], b.const(-3)), a[2]), b.const(1)),
        lambda b, a: b.add(b.add(a[2], a[1]), b.const(1)),
    )
    # (a1 - 2) a2 vanishes for every a2 at a1 = 2, where a2 - 3 picks the witness
    every = system_of(
        2,
        lambda b, a: b.mul(b.add(a[1], b.const(-2)), a[2]),
        lambda b, a: b.add(a[2], b.const(-3)),
    )
    # a2^2 - 2 first: the affine a2 + a1 after it still gives the candidates
    square_first = system_of(
        2, lambda b, a: b.add(b.mul(a[2], a[2]), b.const(-2)), lambda b, a: b.add(a[2], a[1])
    )
    squares = system_of(3, lambda b, a: b.add(b.mul(a[3], a[3]), b.mul(a[1], a[2])))
    cases = [unique, no_candidate, every, square_first, squares]
    assert [closed_form(system) for system in cases] == ["affine"] * 4 + [None]
    for system in cases:
        for p in (2, 3, 5, 7, 11, 13):
            assert solve_bruteforce(system, p) == oracle_solve(system, p), (system, p)
    assert solve_bruteforce(every, 7) == (2, 3)
    assert solve_bruteforce(no_candidate, 11) == (5, 5)
    assert solve_bruteforce(square_first, 7) == (3, 4)  # 4^2 = 2 mod 7


def test_closed_form_in_one_unknown():
    # u = 1: a prefix that fails returns None from the kernel itself
    cases = [
        system_of(1, lambda b, a: b.add(b.mul(b.const(3), a[1]), b.const(-1))),  # 3y - 1
        system_of(1, lambda b, a: b.add(b.mul(b.const(0), a[1]), b.const(2))),  # 0y + 2
        system_of(1, lambda b, a: b.add(a[1], b.mul(b.const(-1), a[1]))),  # y - y
        system_of(1, lambda b, a: b.add(b.mul(a[1], a[1]), b.const(1))),  # y^2 + 1
    ]
    assert [closed_form(system) for system in cases] == ["affine"] * 3 + ["roots"]
    for system in cases:
        for p in PRIMES_BELOW_300[:20]:
            assert systems._solver_kernel(system)(p) == oracle_solve(system, p), (system, p)


def test_closed_form_beyond_the_nested_loops():
    u = 17
    late = system_of(
        u,
        lambda b, a: b.add(b.mul(a[1], a[u]), b.const(-1)),
        lambda b, a: b.add(b.add(a[u - 1], a[u]), b.const(1)),
    )
    never = system_of(
        u, lambda b, a: b.add(b.mul(a[1], a[u]), b.const(-1)), lambda b, a: b.mul(a[1], a[u])
    )
    for system in (late, never):
        assert closed_form(system) == "affine"
        assert solve_bruteforce(system, 2) == oracle_solve(system, 2)
    assert solve_bruteforce(late, 2) == (1,) + (0,) * (u - 2) + (1,)


def test_closed_form_takes_one_step_per_prefix():
    # the plain nest would try all p^2 = 99,460,729 assignments; the closed
    # form inverts a1 once for each of its p - 1 nonzero values
    system = system_of(
        2,
        lambda b, a: b.add(b.mul(a[1], a[2]), b.const(-1)),
        lambda b, a: b.add(b.mul(a[1], a[2]), b.const(-2)),
    )
    p = 9973
    kernel = systems._solver_kernel.__wrapped__(system)  # uncached: its pow is patched
    inverses = []
    kernel.__globals__["pow"] = lambda *args: inverses.append(args) or pow(*args)
    assert kernel(p) is None
    assert len(inverses) == p - 1
    assert solve_bruteforce(system, p) is None


def test_affine_head_leaves_out_its_equation(monkeypatch):
    # each candidate of the affine head solves E by construction, so the
    # candidate loop tests only the other equations and computes only what
    # they read
    sources = []
    monkeypatch.setattr(
        systems, "compile", lambda text, *args: sources.append(text) or compile(text, *args),
        raising=False,
    )
    system = build_hardness_system(2, 2, (0, 1, 1))
    kernel = systems._solver_kernel.__wrapped__(system)  # uncached: compiled here
    loop = [line.strip() for line in sources[0].split(" in roots:\n")[1].splitlines()]
    loop = loop[: loop.index("return None")]
    assert sum(line.startswith("if ") for line in loop) == len(system.equations) - 1 == 2
    for k, line in enumerate(loop):
        if " = " in line:  # every value the loop computes is read later in it
            name = line.split(" = ")[0]
            read = (later.split(" = ")[-1] for later in loop[k + 1 :])
            assert any(re.search(rf"\b{name}\b", text) for text in read), name
    for p in (2, 3):
        assert kernel(p) == oracle_solve(system, p)


def one_unknown(rng):
    """A random system in one unknown: products of shared and own linear
    factors, some with a constant factor that vanishes mod 2 or 3, and
    random circuits, some of them constants with no parameter slot."""
    shared = [rng.randint(-20, 20) for _ in range(rng.randint(0, 2))]
    eqs = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            size = rng.randint(1, 6)
            eqs.append(random_circuit(rng, size, num_vars=0, num_params=rng.randint(0, 1)))
            continue
        b = CircuitBuilder(num_params=1)
        out = b.const(rng.choice([1, 2, -3, 6]))
        for r in shared + [rng.randint(-20, 20) for _ in range(rng.randint(0, 2))]:
            out = b.mul(out, b.add(b.param(1), b.const(-r)))
        eqs.append(b.finish(out))
    return PolySystem(1, tuple(eqs))


def least_root(system, p):
    """(least common root,) of a one-unknown system's equations over F_p, or
    None, from `_roots_of` on each equation."""
    common = set(range(p))
    for eq in system.equations:
        common.intersection_update(systems._roots_of(eq, formal_degree(eq), p))
    return (min(common),) if common else None


def one_equation(build):
    b = CircuitBuilder(num_params=1)
    return PolySystem(1, (b.finish(build(b, b.param(1))),))


PRIMES_BELOW_300 = [p for p in range(2, 300) if all(p % q for q in range(2, p))]


def test_root_path_matches_oracle_on_one_unknown_systems():
    # solve's kernel asks `_roots_of` when D^2 < p; it is also called
    # directly at every odd prime, where it holds for any degree
    rng = random.Random(2801)
    for _ in range(40):
        system = one_unknown(rng)
        for p in PRIMES_BELOW_300:
            want = oracle_solve(system, p)
            assert solve_bruteforce(system, p) == want, (system, p)
            if p > 2:
                assert least_root(system, p) == want, (system, p)


def test_root_path_fixed_cases():
    vanish = one_equation(lambda b, y: b.mul(b.const(0), y))
    constant = PolySystem(1, (parse_circuit("nvars 0\ng1 = const 4\nout g1\n"),))
    double = one_equation(lambda b, y: b.mul(*[b.add(y, b.const(-3))] * 2))  # (y - 3)^2

    def y5_minus_y(b, y):
        y4 = b.mul(b.mul(y, y), b.mul(y, y))
        return b.add(b.mul(y4, y), b.mul(b.const(-1), y))

    fermat = one_equation(y5_minus_y)
    for p in (101, 103):
        assert least_root(vanish, p) == solve_bruteforce(vanish, p) == (0,)
        assert least_root(constant, p) is solve_bruteforce(constant, p) is None
        assert least_root(double, p) == solve_bruteforce(double, p) == (3,)
    # every residue is a root mod 5; as D^2 = 25 > p, solve tries every residue
    assert least_root(fermat, 5) == solve_bruteforce(fermat, 5) == (0,)
    assert least_root(fermat, 7) == solve_bruteforce(fermat, 7) == (0,)


def test_root_path_matches_oracle_on_products_of_linear_factors():
    # c (y - r1)...(y - rk), k <= 4, repeated roots and the root 0 included,
    # in one or two equations, at primes above (k + 1)^2, which bounds the
    # kernel's D^2 (D counts a constant as degree 0), where solve finds roots
    rng = random.Random(3301)
    primes = [p for p in PRIMES_BELOW_300 if p > 25]
    residues, zero_roots = set(), 0
    for _ in range(150):
        eqs = []
        for _ in range(rng.randint(1, 2)):
            roots = [rng.choice([0, rng.randint(-12, 12)]) for _ in range(rng.randint(1, 4))]
            roots += rng.choices(roots, k=rng.randint(0, min(2, 4 - len(roots))))  # repeats
            b = CircuitBuilder(num_params=1)
            out = b.const(rng.choice([1, 2, -3]))
            for r in roots:
                out = b.mul(out, b.add(b.param(1), b.const(-r)))
            eqs.append(b.finish(out))
        system = PolySystem(1, tuple(eqs))
        bound = max(formal_degree(eq) for eq in eqs) ** 2
        for p in rng.sample(primes, 4):
            assert bound < p
            want = oracle_solve(system, p)
            assert solve_bruteforce(system, p) == want, (system, p)
            residues.add(p % 4)
            zero_roots += want == (0,)
    assert residues == {1, 3} and zero_roots > 10


def pinned_corpus():
    """(system, p, budget) triples: random systems in at most 3 unknowns at
    the first primes, some past a small budget; one-unknown products of at
    most 5 linear factors at primes below 400; and systems in 2 or 3
    unknowns whose last unknown is only squared."""
    rng = random.Random(3401)
    cases = []
    for _ in range(600):
        u = rng.randint(0, 3)
        eqs = tuple(
            random_circuit(rng, rng.randint(1, 9), num_vars=0, num_params=rng.randint(0, u))
            for _ in range(rng.randint(1, 3))
        )
        cases.append((PolySystem(u, eqs), rng.choice((2, 3, 5, 7, 11, 13)), 1000))
    primes = [p for p in range(2, 400) if all(p % q for q in range(2, p))]
    for _ in range(300):
        eqs = []
        for _ in range(rng.randint(1, 2)):
            b = CircuitBuilder(num_params=1)
            out = b.const(rng.choice([1, 2, -3, 6]))
            for _ in range(rng.randint(0, 5)):
                out = b.mul(out, b.add(b.param(1), b.const(-rng.randint(-30, 30))))
            eqs.append(b.finish(out))
        cases += [(PolySystem(1, tuple(eqs)), p, 10**8) for p in rng.sample(primes, 8)]
    for _ in range(200):
        u = rng.randint(2, 3)
        b = CircuitBuilder(num_params=u)
        rest = [b.param(rng.randint(1, u - 1)) for _ in range(rng.randint(1, 3))]
        low = b.const(rng.randint(-9, 9))
        for node in rest:
            low = b.add(b.mul(low, node), b.const(rng.randint(-3, 3)))
        quad = b.finish(b.add(b.mul(b.param(u), b.param(u)), low))
        other = random_circuit(rng, rng.randint(1, 6), num_vars=0, num_params=u)
        eqs = (quad, other) if rng.random() < 0.5 else (quad,)
        cases.append((PolySystem(u, eqs), rng.choice((5, 7, 11, 13, 17, 19, 23)), 10**8))
    return cases


def test_solver_answers_are_pinned():
    # the answer (witness, None, or the refusal's class) of every solve in
    # the corpus: the digest of their list, recorded before the one-unknown
    # root finding became the loop nest's innermost head
    answers = []
    for system, p, budget in pinned_corpus():
        try:
            answers.append(solve_bruteforce(system, p, budget=budget))
        except BudgetError as refusal:
            answers.append(type(refusal).__name__)
    assert sum(a is None for a in answers) > 100 and answers.count("BudgetError") > 10
    assert sum(isinstance(a, tuple) for a in answers) > 500
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == (
        "03f222c788130b1190441994421489e49eba4713893dcf5957f5818045570234"
    )


def refuse_root_path(*args):
    raise AssertionError("root path ran")


@pytest.fixture
def patched_roots(monkeypatch):
    """Patch `_roots_of` with the given stand-in; a kernel binds it when it
    is compiled, so the kernel cache is cleared before and after."""

    def patch(stand_in):
        systems._solver_kernel.cache_clear()
        monkeypatch.setattr(systems, "_roots_of", stand_in)

    yield patch
    systems._solver_kernel.cache_clear()


def test_small_primes_take_the_loop_nest(patched_roots):
    # y^2 + 1 has D = 2, so D^2 >= p at p = 2 and 3, and D^2 < p from 5 on
    patched_roots(refuse_root_path)
    assert solve_bruteforce(y_squared_plus_one(), 2) == (1,)
    assert solve_bruteforce(y_squared_plus_one(), 3) is None
    with pytest.raises(AssertionError, match="root path"):
        solve_bruteforce(y_squared_plus_one(), 5)


def test_large_prime_skips_the_loop_nest(patched_roots):
    # the kernel loops over the roots alone: none at 1,000,003, which is
    # 3 mod 4, so -1 is not a square, and two at 1,000,033
    roots_of, found = systems._roots_of, []
    patched_roots(lambda *args: found.append(roots_of(*args)) or found[-1])
    assert solve_bruteforce(y_squared_plus_one(), 2) == (1,) and found == []
    assert solve_bruteforce(y_squared_plus_one(), 1_000_003) is None
    (w,) = solve_bruteforce(y_squared_plus_one(), 1_000_033)
    p = 1_000_033
    assert (w * w + 1) % p == 0 and w < p - w
    assert found == [(), [w, p - w]]


def huge_degree_system():
    """param squared 40 times, plus 1: formal degree 2^40."""
    b = CircuitBuilder(num_params=1)
    out = b.param(1)
    for _ in range(40):
        out = b.mul(out, out)
    return PolySystem(1, (b.finish(b.add(out, b.const(1))),))


def test_huge_formal_degree_takes_the_loop_nest(patched_roots):
    patched_roots(refuse_root_path)
    system = huge_degree_system()
    assert solve_bruteforce(system, 101) == oracle_solve(system, 101)
    report = density_probe(system, 200)
    assert (report.pi, report.good_primes, report.complete) == (46, (2,), True)



def test_one_unknown_candidates_come_from_the_least_degree_equation():
    # y^3 + 27 = (y + 3)(y^2 - 3y + 9) first, then (y + 3)(y - 2): the roots
    # are the quadratic's, 2 and p - 3, and the cubic keeps only p - 3
    # except at p = 5 and 7, where 2^3 + 27 = 35 vanishes too
    system = system_of(
        1,
        lambda b, a: b.add(b.mul(b.mul(a[1], a[1]), a[1]), b.const(27)),
        lambda b, a: b.mul(b.add(a[1], b.const(3)), b.add(a[1], b.const(-2))),
    )
    kernel = systems._solver_kernel(system)
    assert closed_form(system) == "roots"
    assert kernel.__globals__["E"] is system.equations[1] and kernel.__globals__["D"] == 2
    for p in PRIMES_BELOW_300:
        assert solve_bruteforce(system, p) == oracle_solve(system, p), p
    assert solve_bruteforce(system, 7) == (2,) and solve_bruteforce(system, 101) == (98,)


def test_formal_degree_past_the_int_string_limit():
    # y squared 7,200 times, plus 1: D = 2^7200 has 2,168 digits and D^2 more
    # than the 4,300 CPython turns into a string, so D reaches the kernel as
    # a value, and at p = 101 every residue is tried
    b = CircuitBuilder(num_params=1)
    out = b.param(1)
    for _ in range(7200):
        out = b.mul(out, out)
    system = PolySystem(1, (b.finish(b.add(out, b.const(1))),))
    assert closed_form(system) == "roots"
    assert systems._solver_kernel(system).__globals__["D"] == 2**7200
    assert solve_bruteforce(system, 101) == oracle_solve(system, 101)


def test_no_roots_are_found_per_prefix():
    # a3^2 + a1 a2 - 3: the quadratic last unknown sits inside two loops,
    # where finding roots would run once per prefix, so the loop stays plain
    system = system_of(
        3, lambda b, a: b.add(b.add(b.mul(a[3], a[3]), b.mul(a[1], a[2])), b.const(-3))
    )
    assert closed_form(system) is None
    assert "_roots_of" not in systems._solver_kernel(system).__code__.co_names
    for p in (2, 3, 5, 7, 11):
        assert solve_bruteforce(system, p) == oracle_solve(system, p), p

def test_hardness_system_linear_example():
    # one level, cap 1, target 1 + x: equations a0 = 1 and a0 + b0 = 2
    system = build_hardness_system(1, 1, (1, 1))
    assert system.unknown_count == 2
    assert solve_bruteforce(system, 5) == (1, 1)


def test_hardness_system_square_unsolvable_mod5():
    system = build_hardness_system(1, 2, (0, 0, 1))
    assert solve_bruteforce(system, 5) is None


def test_hardness_system_zero_vector_always_solvable():
    for s, d in ((1, 1), (1, 3), (2, 2)):
        system = build_hardness_system(s, d, (0,) * (d + 1))
        witness = solve_bruteforce(system, 5)
        assert witness == (0,) * system.unknown_count


def test_hardness_system_rejects_bad_gamma():
    with pytest.raises(ValueError):
        build_hardness_system(1, 1, (1,))
    with pytest.raises(ValueError):
        build_hardness_system(1, 1, (1, 2))


def test_language_system_singleton():
    skeleton = parse_circuit("nvars 1\nnparams 1\ng1 = in 1\ng2 = param 1\ng3 = mul g1 g2\nout g3\n")
    system = build_language_system(1, {1}, skeleton)
    assert system.unknown_count == 2
    assert solve_bruteforce(system, 5) == (1, 1)


def test_language_system_empty_language():
    skeleton = parse_circuit("nvars 1\nnparams 1\ng1 = param 1\nout g1\n")
    system = build_language_system(1, set(), skeleton)
    # Y1 = 0 twice, then Z - 1 = 0
    assert solve_bruteforce(system, 5) == (0, 1)


def test_language_system_zero_skeleton_unsolvable():
    skeleton = parse_circuit("nvars 1\nnparams 1\ng1 = const 0\nout g1\n")
    system = build_language_system(1, {0, 1}, skeleton)
    for p in (2, 3, 5, 7, 11):
        assert solve_bruteforce(system, p) is None


def test_language_system_decides_membership():
    rng = random.Random(89)
    skeleton = parse_circuit(
        "nvars 2\nnparams 2\n"
        "g1 = in 1\ng2 = param 1\ng3 = mul g1 g2\n"
        "g4 = in 2\ng5 = param 2\ng6 = mul g4 g5\n"
        "g7 = add g3 g6\nout g7\n"
    )
    accepted = {1, 2}
    system = build_language_system(2, accepted, skeleton)
    p = 7
    witness = solve_bruteforce(system, p)
    assert witness is not None
    run = compile_mod_evaluator(skeleton, p)
    for mask in range(4):
        bits = (mask & 1, mask >> 1 & 1)
        value = run(bits, witness[:-1])
        assert (value != 0) == (mask in accepted)
    del rng


def test_density_probe_quadratic():
    report = density_probe(y_squared_plus_one(), 20)
    assert report.good_primes == (2, 5, 13, 17)
    assert report.pi == 8
    assert report.pi_s == 4
    assert report.ratio == 0.5
    assert report.complete


def test_density_probe_planted_integer_solution():
    system = single_equation("nvars 0\nnparams 1\ng1 = param 1\ng2 = const -3\ng3 = add g1 g2\nout g3\n")
    report = density_probe(system, 20)
    assert report.pi_s == report.pi == 8
    assert report.ratio == 1.0
    for p, witness in report.witnesses.items():
        assert witness == (3 % p,)


def test_density_probe_contradictory_system():
    b1 = CircuitBuilder(num_params=1)
    eq1 = b1.finish(b1.param(1))
    b2 = CircuitBuilder(num_params=1)
    eq2 = b2.finish(b2.add(b2.param(1), b2.const(-1)))
    system = PolySystem(1, (eq1, eq2))
    report = density_probe(system, 20)
    assert report.pi_s == 0
    assert report.good_primes == ()


def test_density_probe_monotone():
    system = y_squared_plus_one()
    a_values = [10, 20, 40, 80]
    reports = [density_probe(system, a) for a in a_values]
    for small, big in zip(reports, reports[1:]):
        assert small.pi_s <= big.pi_s
        assert small.pi <= big.pi
    for r in reports:
        assert r.pi_s <= r.pi


def test_density_probe_planted_random_circuits():
    rng = random.Random(97)
    for _ in range(10):
        u = rng.randint(1, 2)
        point = [rng.randint(-5, 5) for _ in range(u)]
        eqs = []
        for _ in range(rng.randint(1, 2)):
            c = random_circuit(rng, rng.randint(1, 6), num_vars=0, num_params=u)
            from circuitbench.circuits import evaluate
            from circuitbench.rings import IntegerRing

            value = evaluate(c, IntegerRing(), [], point)
            b = CircuitBuilder(num_params=u)
            out = b.inline(c)
            eqs.append(b.finish(b.add(out, b.const(-value))))
        system = PolySystem(u, tuple(eqs))
        report = density_probe(system, 100)
        assert report.ratio == 1.0


def test_partial_report_on_budget():
    system = PolySystem(
        2,
        (parse_circuit("nvars 0\nnparams 2\ng1 = param 1\ng2 = param 2\ng3 = mul g1 g2\ng4 = const -1\ng5 = add g3 g4\nout g5\n"),),
    )
    report = density_probe(system, 30, solve_budget=200)  # 13^2 = 169 fits, 17^2 doesn't
    assert not report.complete
    assert report.high_water == 13


def test_density_budget_bounds_the_whole_probe(monkeypatch):
    # y^2 + 1 has one unknown, so prime p costs p assignments: the running
    # total after 2, 3, 5, 7, 11, 13 is 41, and 17 would take it to 58
    solved = []
    solve = systems.solve_bruteforce

    def counted(system, p, **kwargs):
        solved.append(p)
        return solve(system, p, **kwargs)

    monkeypatch.setattr(systems, "solve_bruteforce", counted)
    monkeypatch.setattr(systems, "DENSITY_BUDGET", 41)
    report = density_probe(y_squared_plus_one(), 30)
    assert solved == [2, 3, 5, 7, 11, 13]
    assert not report.complete
    assert report.high_water == 13
    assert (report.pi, report.pi_s, report.good_primes) == (10, 3, (2, 5, 13))
    assert report.witnesses == {2: (1,), 5: (2,), 13: (5,)}
    monkeypatch.setattr(systems, "DENSITY_BUDGET", 40)
    assert density_probe(y_squared_plus_one(), 30).high_water == 11


def test_density_ratio_counts_only_decided_primes(monkeypatch):
    # the budget stops the probe after 13: of the 6 primes decided, 2, 5
    # and 13 are good, while pi still counts the 10 primes up to 30
    monkeypatch.setattr(systems, "DENSITY_BUDGET", 41)
    report = density_probe(y_squared_plus_one(), 30)
    assert (report.pi, report.pi_s, report.high_water) == (10, 3, 13)
    assert report.ratio == 0.5
    monkeypatch.setattr(systems, "DENSITY_BUDGET", 1)
    report = density_probe(y_squared_plus_one(), 30)
    assert (report.pi, report.pi_s, report.high_water, report.ratio) == (10, 0, 0, 0.0)


def test_system_text_roundtrip():
    system = build_hardness_system(1, 1, (1, 0))
    text = f"unknowns {system.unknown_count}\n" + "---\n".join(
        serialize_circuit(eq) for eq in system.equations
    )
    again = parse_system(text)
    assert again.unknown_count == system.unknown_count
    assert again.equations == system.equations
    with pytest.raises(ParseError):
        parse_system("nonsense 3\n")


def test_equations_must_be_closed():
    with pytest.raises(ValueError):
        PolySystem(1, (parse_circuit("nvars 1\ng1 = in 1\nout g1\n"),))


def test_negative_unknown_count_rejected():
    with pytest.raises(ValueError, match="unknown_count must be >= 0"):
        PolySystem(-1, (parse_circuit("nvars 0\ng1 = const 0\nout g1\n"),))


# (a + b x)(c + x^2) + x + x + 5 + d^2 + x^4: a one-variable circuit with
# four slots, a constant, x added to itself and a bare x^4
OTHER_TEMPLATE = (
    "nvars 1\nnparams 4\ng1 = in 1\ng2 = param 1\ng3 = param 2\ng4 = param 3\n"
    "g5 = mul g3 g1\ng6 = add g2 g5\ng7 = mul g1 g1\ng8 = add g4 g7\ng9 = mul g6 g8\n"
    "g10 = add g1 g1\ng11 = add g9 g10\ng12 = const 5\ng13 = add g11 g12\n"
    "g14 = param 4\ng15 = mul g14 g14\ng16 = add g13 g15\ng17 = mul g7 g7\n"
    "g18 = add g16 g17\nout g18\n"
)


def test_hardness_equations_match_coefficient_map(monkeypatch):
    # the equations evaluate `template.circuit` over series of builder
    # nodes; check them against the reference map, which evaluates it in a
    # truncated polynomial ring, also for a template of another shape put in
    # place of `build_universal`'s
    rng = random.Random(211)
    from circuitbench.universal import UniversalTemplate, truncated_coefficient_map_reference

    shaped = UniversalTemplate(parse_circuit(OTHER_TEMPLATE))
    cases = [(1, 0, 7), (1, 3, 7), (2, 2, 5), (2, 4, 11), (3, 2, 5), (3, 3, 5)]
    cases += [(None, d, p) for d, p in ((0, 5), (3, 7), (5, 11))]  # None: the other shape
    for s, d, p in cases:
        with monkeypatch.context() as patch:
            if s is None:
                patch.setattr(systems, "build_universal", lambda s: shaped)
            template = systems.build_universal(s)
            gamma = tuple(rng.randint(0, 1) for _ in range(d + 1))
            system = build_hardness_system(s, d, gamma)
        runs = [compile_mod_evaluator(eq, p) for eq in system.equations]
        for _ in range(20):
            params = [rng.randrange(p) for _ in range(template.param_count())]
            vec = truncated_coefficient_map_reference(template, d, p, params).entries
            for m, run in enumerate(runs):
                truncated_at_m = sum(v * m**i for i, v in enumerate(vec)) % p
                target = sum(g * m**i for i, g in enumerate(gamma)) % p
                assert run((), params) == (truncated_at_m - target) % p


def test_hardness_equations_emit_only_the_truncation():
    # node counts of the equations for gamma = (1, ..., 1), s = 1..3 and
    # d = 0..4: terms above degree d and products with x emit no node; at
    # d = 0 the unused slot b_0 of level 1 is still a node
    sizes = [
        sum(len(eq.nodes) for eq in build_hardness_system(s, d, (1,) * (d + 1)).equations)
        for s in (1, 2, 3)
        for d in range(5)
    ]
    assert sizes == [4, 14, 21, 28, 35, 13, 42, 72, 96, 120, 28, 90, 165, 240, 315]


def test_hardness_equations_are_pinned():
    # every equation of every hardness system for s <= 2, d <= 3 and all
    # gamma, node for node: the digest of their text, recorded when each
    # equation still evaluated the template series from a fresh builder
    digest = hashlib.sha256()
    for s in (1, 2):
        for d in range(4):
            for gamma in product((0, 1), repeat=d + 1):
                for eq in build_hardness_system(s, d, gamma).equations:
                    digest.update(serialize_circuit(eq).encode())
    assert digest.hexdigest() == (
        "d575009298d9951afcf91c50392f5c3050fff0605ab9e54049d3da03490861ca"
    )


def test_hardness_system_builds_at_three_levels():
    system = build_hardness_system(3, 2, (0, 1, 1))
    assert system.unknown_count == 12
    zero = (0,) * 12
    # x = 0 point: equation value is -gamma_0 = 0; x = 1: -(0+1+1) = -2
    runs = [compile_mod_evaluator(eq, 7) for eq in system.equations]
    assert runs[0]((), zero) == 0
    assert runs[1]((), zero) == (-2) % 7


def test_realizable_vectors_are_solvable():
    # cross-module consistency: every vector in the sweep image yields a
    # solvable hardness system at the same prime
    from circuitbench.forge import realizable_vectors

    for s, d, p in ((1, 2, 5), (1, 3, 7), (2, 2, 5)):
        for gamma in sorted(realizable_vectors(s, d, p).vectors):
            system = build_hardness_system(s, d, gamma)
            assert solve_bruteforce(system, p) is not None
