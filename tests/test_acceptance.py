"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 3's oracle-agreement clause is asserted exactly as specified; see
the test body for the six grid cells where the two oracles provably cannot
agree.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from circuitbench.circuits import (
    enumerate_circuits,
    expand_circuit,
    parse_circuit,
    random_circuit,
    serialize_circuit,
    weight_report,
)
from circuitbench.families import TruthTable, boolean_sum, multilinear_extension, permanent
from circuitbench.forge import (
    find_hard_vector,
    hardness_certificate,
    lex_first_missing,
    poscoef,
    realizable_vectors,
    sign_condition_search,
)
from circuitbench.protocols import (
    CheatingProver,
    HonestProver,
    ama_simulate,
    build_determinant_chain,
    build_permanent_chain,
    gs_estimate,
    permanent_verify,
    phi,
    phi_reference,
    random_hash_matrix,
)
from circuitbench.rings import IntegerRing
from circuitbench.systems import PolySystem, density_probe
from circuitbench.universal import embed


@contextmanager
def criterion(number, label):
    details = {}
    try:
        yield details
    except BaseException:
        extra = f" ({details['note']})" if "note" in details else ""
        print(f"criterion {number:2d} [{label}]: FAIL{extra}")
        raise
    extra = f" ({details['note']})" if "note" in details else ""
    print(f"criterion {number:2d} [{label}]: PASS{extra}")


def test_criterion_01_weight_bound_suite():
    with criterion(1, "weight bound") as details:
        rng = random.Random(20240416)
        start = time.monotonic()
        violations = 0
        for _ in range(1000):
            c = random_circuit(rng, rng.randint(1, 12), num_vars=rng.randint(1, 3))
            if not weight_report(c).bound_holds:
                violations += 1
        elapsed = time.monotonic() - start
        details["note"] = f"1000 circuits, {elapsed:.1f}s"
        assert violations == 0
        assert elapsed < 30.0


def test_criterion_02_universality_suite():
    with criterion(2, "universality") as details:
        start = time.monotonic()
        p = 101
        count = 0
        for c in enumerate_circuits(9, 1, (-1, 0, 1, 2), max_gates=4):
            embed(c, p)  # raises EmbeddingError if pit_equal ever disagrees
            count += 1
        elapsed = time.monotonic() - start
        details["note"] = f"{count} circuits, {elapsed:.1f}s"
        assert count == 125705  # frozen exhaustive-corpus size
        assert elapsed < 60.0


def test_criterion_03_forge_exactness():
    with criterion(3, "forge exactness") as details:
        pinned = find_hard_vector(1, 2, 5)
        assert pinned.gamma == (0, 0, 1)

        disagreements = []
        cells = 0
        for s in (1, 2):
            for prime in (5, 7):
                for d in range(0, 7):
                    if prime <= d:
                        continue  # the solver needs d+1 distinct points mod p
                    cells += 1
                    result = find_hard_vector(s, d, prime)
                    if prime ** (s * (s + 1)) < 2 ** (d + 1):
                        assert not result.saturated  # counting guarantee
                    enum = realizable_vectors(s, d, prime, oracle="circuit-enumeration")
                    enum_first = lex_first_missing(enum.vectors, d)
                    if enum_first != result.gamma:
                        disagreements.append((s, d, prime, result.gamma, enum_first))
        details["note"] = f"{cells} cells, {len(disagreements)} oracle disagreements"
        # This criterion demands exact agreement on every cell, which is
        # provably unattainable: the pinned answer (1,2,5) -> 001 forces x*x
        # (2 vertices) outside the size-1 class, while agreement at d=1 would
        # require 1+x (3 vertices) inside it; and (2,2,5) vs (2,2,7) force
        # contradictory size conventions for s=2.
        assert disagreements == [], f"oracle disagreements at {disagreements}"


def test_criterion_04_hardness_certificate():
    with criterion(4, "hardness certificate") as details:
        checked = 0
        for s in (1, 2):
            for prime in (5, 7):
                for d in range(0, 7):
                    if prime <= d:
                        continue
                    result = find_hard_vector(s, d, prime)
                    if result.saturated:
                        continue
                    ok, witness = hardness_certificate(s, d, prime, result.gamma)
                    assert ok, (
                        f"gamma {result.gamma} at (s={s},d={d},p={prime}) computed by "
                        f"{None if witness is None else serialize_circuit(witness)}"
                    )
                    checked += 1
        details["note"] = f"{checked} certificates"


def _quadratic_system():
    eq = parse_circuit(
        "nvars 0\nnparams 1\ng1 = param 1\ng2 = mul g1 g1\ng3 = const 1\ng4 = add g2 g3\nout g4\n"
    )
    return PolySystem(1, (eq,))


def test_criterion_05_density_probe():
    with criterion(5, "density probe") as details:
        system = _quadratic_system()
        small = density_probe(system, 20)
        assert small.pi_s == 4 and small.pi == 8
        assert small.good_primes == (2, 5, 13, 17)

        big = density_probe(system, 10**4)
        assert 0.45 <= big.ratio <= 0.55

        rng = random.Random(5150)
        planted_ok = 0
        for _ in range(5):
            u = rng.randint(1, 2)
            point = [rng.randint(-5, 5) for _ in range(u)]
            from circuitbench.circuits import CircuitBuilder, evaluate

            eqs = []
            for _ in range(rng.randint(1, 2)):
                c = random_circuit(rng, rng.randint(1, 6), num_vars=0, num_params=u)
                value = evaluate(c, IntegerRing(), [], point)
                b = CircuitBuilder(num_params=u)
                eqs.append(b.finish(b.add(b.inline(c), b.const(-value))))
            report = density_probe(PolySystem(u, tuple(eqs)), 100)
            assert report.ratio == 1.0
            planted_ok += 1
        details["note"] = f"pi_S(1e4)/pi(1e4)={big.ratio:.4f}, {planted_ok} planted systems"


def test_criterion_06_gs_thresholds():
    with criterion(6, "gs thresholds") as details:
        small = gs_estimate([1, 2, 3, 4], m=4, trials=1000, seed=606, cols=12)
        assert small.rate <= 0.55

        rng = random.Random(607)
        large_set = rng.sample(range(1 << 12), 64)  # m * 2^m
        large = gs_estimate(large_set, m=4, trials=1000, seed=608, cols=12)
        assert large.rate == 1.0

        for size in range(0, 65):
            elements = rng.sample(range(1 << 12), size)
            matrices = [random_hash_matrix(rng, 4, 12) for _ in range(4)]
            assert phi(matrices, elements) == phi_reference(matrices, elements)
        details["note"] = f"small rate {small.rate:.3f}, large rate {large.rate:.1f}"


def test_criterion_07_permanent_verification():
    with criterion(7, "permanent verification") as details:
        accepted = 0
        for seed in range(200):
            honest = build_permanent_chain(2 if seed % 2 else 3)
            accepted += permanent_verify(honest, 101, trials=2, seed=seed).accepted
        assert accepted == 200

        corrupted = [honest[0], build_determinant_chain(2)[1]]
        rejected = sum(
            not permanent_verify(corrupted, 101, trials=2, seed=seed).accepted
            for seed in range(200)
        )
        details["note"] = f"honest 200/200, corrupted rejected {rejected}/200"
        assert rejected >= 190


AMA_CORPUS = (
    [2, 3, 1, 4, 1, 1, 1, 1],
    [1, 1, 1, 1, 2, 2, 2, 2],
    [0, 5, 7, 2, 1, 0, 1, 0],
    [3, 0, 0, 3, 9, 9, 9, 9],
    [1, 2, 3, 4, 5, 6, 7, 8],
)


def test_criterion_08_ama_end_to_end():
    with criterion(8, "ama protocol") as details:
        correct = 0
        for run in range(200):
            x = AMA_CORPUS[run % len(AMA_CORPUS)]
            matrix = [x[0:2], x[2:4]]
            truth = permanent(matrix)
            i = run % 3
            want = truth >> i & 1
            t = ama_simulate(x, i, want, HonestProver(), seed=run)
            if t.verdict == "accept" and t.answer == want:
                correct += 1
        assert correct == 200

        for seed in range(20):
            for b in (0, 1):
                t = ama_simulate([1, 2, 3, 4, 5, 6], 0, b, HonestProver(), seed=seed)
                assert t.verdict == ("accept" if b == 0 else "reject")

        rejected = 0
        for seed in range(200):
            x = AMA_CORPUS[seed % len(AMA_CORPUS)]
            t = ama_simulate(x, seed % 3, 1, CheatingProver(), seed=seed)
            rejected += t.verdict == "reject"
        details["note"] = f"honest 200/200, cheater rejected {rejected}/200"
        assert rejected >= 200 // 3


def test_criterion_09_valiant_and_boolean_sums():
    with criterion(9, "multilinear builder and sums") as details:
        for values in product((0, 1), repeat=4):  # all 16 functions on 2 bits
            ext = multilinear_extension(TruthTable(2, values))
            for mask in range(4):
                point = (mask & 1, mask >> 1 & 1)
                assert ext.evaluate(point) == values[mask]

        rng = random.Random(909)
        for _ in range(100):
            values = [rng.randint(0, 1) for _ in range(16)]
            ext = multilinear_extension(TruthTable(4, values))
            for mask in range(16):
                point = tuple(mask >> i & 1 for i in range(4))
                assert ext.evaluate(point) == values[mask]

        ints = IntegerRing()
        for _ in range(500):
            free = rng.randint(0, 2)
            summed = rng.randint(1, 12)
            c = random_circuit(rng, rng.randint(1, 8), num_vars=free + summed)
            poly = expand_circuit(c)
            xs = [rng.randint(-3, 3) for _ in range(free)]
            direct = 0
            for mask in range(1 << summed):
                point = tuple(xs + [mask >> j & 1 for j in range(summed)])
                direct += poly.evaluate(point)
            assert boolean_sum(c, ints, xs, summed) == direct
        details["note"] = "16 + 100 tables, 500 summation instances"


def test_criterion_10_sign_condition_forge():
    with criterion(10, "sign conditions") as details:
        tiny = sign_condition_search(1, 2)
        assert tiny.bits == (0, 0, 1)

        checked = 0
        for s in (1, 2, 3):
            corpus = list(enumerate_circuits(s, 1, (-1,)))
            for cap in range(0, 9):
                result = sign_condition_search(s, cap)
                realized = set()
                for c in corpus:
                    full = expand_circuit(c)
                    bits = []
                    for i in range(cap + 1):
                        coeff = full.coefficient((i,))
                        assert poscoef(c, i) == (coeff > 0) - (coeff < 0)
                        bits.append(1 if coeff > 0 else 0)
                    realized.add(tuple(bits))
                if result.saturated:
                    assert realized == set(product((0, 1), repeat=cap + 1))
                else:
                    assert all(result.bits != bits for bits in realized)
                    checked += 1
        details["note"] = f"{checked} (s, D) cells with a hard condition"


def test_criterion_11_cli_determinism(tmp_path, capsys):
    from circuitbench.cli import main

    with criterion(11, "cli determinism") as details:
        square = tmp_path / "square.circ"
        square.write_text(
            "nvars 1\ng1 = in 1\ng2 = const -1\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n"
        )
        system = tmp_path / "xsq.sys"
        system.write_text(
            "unknowns 1\n"
            "nvars 0\nnparams 1\ng1 = param 1\ng2 = mul g1 g1\ng3 = const 1\ng4 = add g2 g3\nout g4\n"
        )
        ones3 = tmp_path / "ones3.mat"
        ones3.write_text("1 1 1\n1 1 1\n1 1 1\n")
        chain = tmp_path / "chain.circs"
        chain.write_text(
            "---\n".join(serialize_circuit(c) for c in build_permanent_chain(2))
        )
        sumc = tmp_path / "sum.circ"
        sumc.write_text("nvars 2\ng1 = in 1\ng2 = in 2\ng3 = add g1 g2\nout g3\n")

        invocations = [
            ["eval", "--circuit", str(square), "--vars", "3"],
            ["degree", "--circuit", str(square)],
            ["weight", "--circuit", str(square)],
            ["embed", "--circuit", str(square), "--p", "101", "--seed", "2"],
            ["forge", "--s", "1", "--d", "2", "--p", "5"],
            ["signcond", "--s", "2", "--D", "3"],
            ["poscoef", "--circuit", str(square), "--i", "1"],
            ["density", "--system", str(system), "--limit", "20"],
            ["solve", "--system", str(system), "--p", "5"],
            ["gs-sim", "--size", "16", "--trials", "40", "--seed", "9"],
            ["per-verify", "--chain", str(chain), "--p", "101", "--seed", "3"],
            ["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "1", "--b", "0", "--seed", "4"],
            ["per", "--matrix", str(ones3)],
            ["hc", "--matrix", str(ones3)],
            ["vnp-sum", "--circuit", str(sumc), "--summed", "2"],
        ]
        for argv in invocations:
            for extra in ([], ["--json"]):
                code_a = main(argv + extra)
                out_a = capsys.readouterr().out
                code_b = main(argv + extra)
                out_b = capsys.readouterr().out
                assert code_a == code_b == 0, argv
                assert out_a == out_b, argv
        details["note"] = f"{len(invocations)} commands, text and json"
