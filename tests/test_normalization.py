"""Pinned results of exact arithmetic on fixed seeded corpora.

`SparsePoly.__init__` reduces every coefficient mod p and drops zeros, and
the operations only accumulate raw sums; `permanent` and
`hamiltonian_cycle_sum` work over Z and reduce once.  The SHA-256 digests
below pin what expansion, weight reports and those two families compute,
so a change to how or where coefficients are normalized that alters a
single value shows up here.
"""

import hashlib
import random

from circuitbench.circuits import expand_circuit, random_circuit, weight_report
from circuitbench.families import hamiltonian_cycle_sum, permanent


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _circuits():
    """2,000 seeded two-variable circuits of 1-30 nodes; their formal
    degree is at most 24, so exact expansion stays small."""
    rng = random.Random(1301)
    return [random_circuit(rng, rng.randint(1, 30), 2) for _ in range(2000)]


def _matrices():
    rng = random.Random(1302)
    out = []
    for _ in range(300):
        n = rng.randint(2, 7)
        out.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    return out


def test_expansion_digest():
    circuits = _circuits()
    lines = [
        f"{mod} {cap} {expand_circuit(c, cap=cap, modulus=mod).monomials()}"
        for mod in (None, 2, 5, 101)
        for cap in (None, 4)
        for c in circuits
    ]
    assert _digest(lines) == "b329b3537068e3ae3ee86ae35e5c2f4603cafd56ce53b19082ad51b8db88ee8c"


def test_weight_report_digest():
    reports = [weight_report(c) for c in _circuits()]
    lines = [f"{r.exact_weight} {r.bound_holds}" for r in reports]
    assert _digest(lines) == "43f876d51c513bc75a3eae194006609529236e2749837fe4795f2f0a3321174c"


def test_permanent_and_cycle_sum_digest():
    lines = [
        f"{mod} {permanent(m, mod)} {hamiltonian_cycle_sum(m, mod)}"
        for mod in (None, 2, 7, 1000003)
        for m in _matrices()
    ]
    assert _digest(lines) == "866fd75bede446b6ec61c143e7b1a95eab8ab6d72c08c3923b9059b5311110d0"
