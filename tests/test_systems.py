import random
from itertools import product

import pytest

from circuitbench.circuits import (
    CircuitBuilder,
    compile_mod_evaluator,
    parse_circuit,
    random_circuit,
)
from circuitbench.errors import BudgetError, ParseError
from circuitbench.systems import (
    PolySystem,
    build_hardness_system,
    build_language_system,
    density_probe,
    parse_system,
    serialize_system,
    solve_bruteforce,
)


def single_equation(text):
    return PolySystem(parse_circuit(text).num_params, (parse_circuit(text),), "test")


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


def test_solve_lex_first_and_complete_vs_direct_substitution():
    rng = random.Random(83)
    for _ in range(40):
        u = rng.randint(1, 2)
        p = rng.choice([2, 3, 5, 7])
        eqs = tuple(
            random_circuit(rng, rng.randint(1, 6), num_vars=0, num_params=u)
            for _ in range(rng.randint(1, 3))
        )
        system = PolySystem(u, eqs, "random")
        got = solve_bruteforce(system, p)
        runs = [compile_mod_evaluator(eq, p) for eq in eqs]
        oracle = None
        for assign in product(range(p), repeat=u):
            if all(run((), assign) == 0 for run in runs):
                oracle = assign
                break
        assert got == oracle


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
    system = PolySystem(1, (eq1, eq2), "contradiction")
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
        system = PolySystem(u, tuple(eqs), "planted")
        report = density_probe(system, 100)
        assert report.ratio == 1.0


def test_partial_report_on_budget():
    system = PolySystem(
        2,
        (parse_circuit("nvars 0\nnparams 2\ng1 = param 1\ng2 = param 2\ng3 = mul g1 g2\ng4 = const -1\ng5 = add g3 g4\nout g5\n"),),
        "test",
    )
    report = density_probe(system, 30, solve_budget=200)  # 13^2 = 169 fits, 17^2 doesn't
    assert not report.complete
    assert report.high_water == 13


def test_system_text_roundtrip():
    system = build_hardness_system(1, 1, (1, 0))
    text = serialize_system(system)
    again = parse_system(text)
    assert again.unknown_count == system.unknown_count
    assert again.equations == system.equations
    with pytest.raises(ParseError):
        parse_system("nonsense 3\n")


def test_equations_must_be_closed():
    with pytest.raises(ValueError):
        PolySystem(1, (parse_circuit("nvars 1\ng1 = in 1\nout g1\n"),), "bad")


def test_hardness_equations_match_coefficient_map():
    # the builder-ring equations and the fast truncated map share one
    # recursion (template_series), so check the equations against the
    # reference map, which evaluates the template circuit in a truncated
    # polynomial ring instead
    rng = random.Random(211)
    from circuitbench.universal import build_universal, truncated_coefficient_map_reference

    for s, d, p in ((1, 3, 7), (2, 2, 5), (2, 4, 11), (3, 2, 5)):
        template = build_universal(s)
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
