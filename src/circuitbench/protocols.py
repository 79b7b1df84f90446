"""Interactive verification machinery.

Three layers, each usable on its own:

  * F_2 hash-collision predicates and Goldwasser-Sipser style set-size
    estimation (is a set of encoded elements small or large?);
  * permanent verification by downward self-reducibility: a chain of
    circuits C_1..C_t is accepted when C_1 is identically the 1x1 entry and
    every C_k agrees with the first-row minor expansion of C_{k-1} at random
    matrices;
  * an Arthur-Merlin-Arthur protocol that evaluates one bit of a permanent
    claim end to end against an honest or a cheating prover.
"""

import math
import random
from itertools import product

from ._record import Record
from .circuits import (
    Circuit,
    CircuitBuilder,
    InputVar,
    bind_params,
    compile_mod_evaluator,
    serialize_circuit,
)
from .errors import DEFAULT_SOLVE_BUDGET, at_least, charge
from .families import permanent
from .pit import pit_equal
from .primes import is_prime, next_prime_at_least, require_prime, sieve
from .systems import PolySystem, _substituted


# ---------------------------------------------------------------------------
# Hashing over F_2


class HashMatrix(Record):
    """A rows x cols bit matrix; rows are stored as cols-bit integers."""

    __slots__ = ("rows", "cols")

    def apply(self, x):
        """Hash a cols-bit integer to a len(rows)-bit integer."""
        if x < 0 or x >> self.cols:
            raise ValueError(f"element {x} does not fit in {self.cols} bits")
        out = 0
        for row in self.rows:
            out = (out << 1) | (bin(row & x).count("1") & 1)
        return out


def random_hash_matrix(rng, rows, cols):
    return HashMatrix(tuple(rng.getrandbits(cols) for _ in range(rows)), cols)


def psi(matrices, elements):
    """True iff every hash collides element 0 with the corresponding later
    element, the two being distinct: AND_j (A_j e_0 = A_j e_j and e_0 != e_j)."""
    if len(elements) != len(matrices) + 1:
        raise ValueError("need one element per matrix plus the pivot")
    e0 = elements[0]
    for a, ej in zip(matrices, elements[1:]):
        if e0 == ej or a.apply(e0) != a.apply(ej):
            return False
    return True


def _lane_hashes(a, packed, ones, width, count):
    """Every packed element's hash under `a`, one key per lane.

    One row's hash bit of every element is the lane parity of `packed` ANDed
    with the row repeated in every lane: log2(width) shift-XOR folds leave
    it in each lane's bit 0.  Row r of a block of `width` rows goes to lane
    bit r, so a block's keys are one int, unpacked once into a memoryview
    (bytes slices for lanes wider than 64 bits); a matrix of more than
    `width` rows gives tuples of block keys.  Equal hashes give equal keys
    and distinct ones distinct keys; the key values are not `a.apply`'s."""
    size, lane = width // 8, (1 << width) - 1
    blocks = []
    for start in range(0, max(1, len(a.rows)), width):  # no rows: one all-zero block
        keys = 0
        for r, row in enumerate(a.rows[start : start + width]):
            bits = packed & (row & lane) * ones
            shift = width // 2
            while shift:
                bits ^= bits >> shift
                shift //= 2
            keys |= (bits & ones) << r
        raw = keys.to_bytes(count * size, "little")
        if size in _LANE_CODES:  # native byte order: a bijection on keys
            blocks.append(memoryview(raw).cast(_LANE_CODES[size]))
        else:
            blocks.append([raw[i : i + size] for i in range(0, len(raw), size)])
    return blocks[0] if len(blocks) == 1 else list(zip(*blocks))


_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # lane bytes -> memoryview format


def first_collision(matrices, elements):
    """The first pivot in `elements` with a distinct element colliding with
    it under every matrix, as (pivot, mate_1, .., mate_m) with mate_j the
    first such element under matrix j; None when no pivot collides
    everywhere.  Each matrix buckets the set once, and the search ends at
    the first matrix after which no pivot is left.

    The hashes come from `_lane_hashes`: the distinct elements are packed
    into width-bit lanes of one int, with width a power of two >= max(8,
    the widest matrix's cols), so each row costs a few big-int operations
    over the whole set, and memory stays O(len(elements) * width)."""
    elements = list(dict.fromkeys(elements))
    pivots, tables = set(elements), []
    lo, hi = min(elements, default=0), max(elements, default=0)
    width = 8
    while width < max((a.cols for a in matrices), default=0):
        width *= 2
    ones = ((1 << (width * len(elements))) - 1) // ((1 << width) - 1)
    packed = None
    for a in matrices:
        if lo < 0 or hi >> a.cols:
            a.apply(next(e for e in elements if e < 0 or e >> a.cols))  # raises its ValueError
        if packed is None:  # every element fits a.cols <= width bits
            packed = int.from_bytes(
                b"".join(e.to_bytes(width // 8, "little") for e in elements), "little"
            )
        keys = _lane_hashes(a, packed, ones, width, len(elements))
        buckets = {}
        for e, key in zip(elements, keys):
            buckets.setdefault(key, []).append(e)
        pivots &= {e for members in buckets.values() if len(members) > 1 for e in members}
        tables.append(keys)
        if not pivots:
            break
    if not pivots:
        return None
    i = next(i for i, e in enumerate(elements) if e in pivots)
    mates = [
        next(e for e, key in zip(elements, keys) if key == keys[i] and e != elements[i])
        for keys in tables
    ]
    return (elements[i], *mates)


def phi(matrices, elements):
    """Exists a pivot in the set colliding, under every matrix, with some
    distinct set element.  Evaluated exactly by bucketing the set under each
    matrix, never by scanning tuples."""
    return first_collision(matrices, elements) is not None


def phi_reference(matrices, elements):
    """Quadratic-scan reference for phi, kept independent of the bucketing
    path so the two can be checked against each other."""
    elements = list(elements)
    for e0 in elements:
        if all(
            any(e0 != ej and a.apply(e0) == a.apply(ej) for ej in elements)
            for a in matrices
        ):
            return True
    return False


def charge_hashing(rows, size, budget):
    """Charge the rows * size row parities of hashing `size` elements under
    `rows` matrix rows to the eval budget, before the set or any matrix is drawn."""
    charge("eval", budget, rows * size, f"{rows} hash rows over {size} elements")


class GsReport(Record):
    __slots__ = (
        "set_size",
        "m",
        "cols",
        "trials",
        "seed",
        "phi_count",
        "rate",
        "verdict",  # "small" | "large" | "inconclusive"
    )


def gs_estimate(elements, m, trials, seed, cols=12):
    """Empirical rate of the collision predicate over random hash samples.

    A set of size at most 2^(m-2) makes the predicate hold with probability
    at most 1/2, while size at least m 2^m forces it always; the verdict
    reflects which side the measured rate lands on, "small" up to 0.55.
    """
    at_least("trials", trials, 0)
    at_least("m", m, 0)
    elements = sorted(set(elements))
    for e in elements:
        if e < 0 or e >> cols:
            raise ValueError(f"element {e} does not fit in {cols} bits")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        matrices = [random_hash_matrix(rng, m, cols) for _ in range(m)]
        if phi(matrices, elements):
            hits += 1
    rate = hits / trials if trials else 0.0
    if trials and hits == trials:
        verdict = "large"
    elif rate <= 0.55:
        verdict = "small"
    else:
        verdict = "inconclusive"
    return GsReport(len(elements), m, cols, trials, seed, hits, rate, verdict)


# ---------------------------------------------------------------------------
# Permanent chains


def _minor_rows(rows, col):
    return [r[:col] + r[col + 1 :] for r in rows[1:]]


def _expansion_nodes(builder, rows, sign):
    """Minor expansion along the first row; sign=-1 alternates (determinant)."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    acc = None
    for i in range(k):
        sub = _expansion_nodes(builder, _minor_rows(rows, i), sign)
        term = builder.mul(rows[0][i], sub)
        if sign < 0 and i % 2:
            term = builder.mul(builder.const(-1), term)
        acc = builder.add(acc, term) if acc is not None else term
    return acc


def _chain(t, sign):
    if not 1 <= t <= 6:
        raise ValueError("chains supported for 1 <= t <= 6")
    circuits = []
    for k in range(1, t + 1):
        builder = CircuitBuilder(num_vars=k * k)
        rows = [[builder.input(i * k + j + 1) for j in range(k)] for i in range(k)]
        circuits.append(builder.finish(_expansion_nodes(builder, rows, sign)))
    return circuits


def build_permanent_chain(t):
    """Minor-expansion circuits for the 1x1 up to the t x t permanent.
    Matrix entry (i, j) is variable (i-1)*k + j, 1-based."""
    return _chain(t, +1)


def build_determinant_chain(t):
    """Same shape computing determinants: the canonical wrong answer."""
    return _chain(t, -1)


def permanent_agreement_system(chain):
    """The system forcing a skeleton chain to compute permanents: one
    equation per circuit and grid point, C_k(e) - per(e) = 0 with e ranging
    over {0, 1, 2}^(k*k).  Unknowns are the chain's parameter slots.

    The primes at which this system is solvable form the pool the evaluation
    protocol's collision test is probing, so a density probe over it makes
    that set explicit; for a constant-free honest chain it is every prime,
    for the determinant chain it is exactly {2}.
    """
    num_params = {c.num_params for c in chain}
    if len(num_params) != 1:
        raise ValueError("chain circuits must share one parameter-slot count")
    (unknowns,) = num_params
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


class PermanentVerifyReport(Record):
    __slots__ = ("accepted", "reason", "p", "trials", "seed")


def permanent_verify(chain, p, trials, seed):
    """Accept iff C_1 is identically the single matrix entry and every C_k
    matches the first-row minor expansion of C_{k-1} on `trials` random
    matrices over F_p.

    The base identity is decided by pit_equal; the inductive identities are
    polynomial, so an honest chain is accepted with probability 1, while a
    corruption of degree-D difference survives each trial with probability
    at most D/p.
    """
    if not chain:
        raise ValueError("empty chain")
    at_least("trials", trials, 0)
    for k, c in enumerate(chain, start=1):
        if c.num_vars != k * k:
            raise ValueError(f"chain circuit {k} must have {k * k} variables")
        if c.num_params:
            raise ValueError("bind chain parameters before verification")
    require_prime(p)
    rng = random.Random(seed)
    base = Circuit((InputVar(1),), 0, 1, 0)
    verdict = pit_equal(chain[0], base, p, seed=rng.getrandbits(32))
    if not verdict.equal:
        return PermanentVerifyReport(False, "base circuit is not the 1x1 entry", p, trials, seed)
    runs = [compile_mod_evaluator(c, p) for c in chain]
    for k in range(2, len(chain) + 1):
        for trial in range(trials):
            flat = tuple(rng.randrange(p) for _ in range(k * k))
            rows = [list(flat[i * k : (i + 1) * k]) for i in range(k)]
            lhs = runs[k - 1](flat, ())
            rhs = 0
            for i in range(k):
                minor = _minor_rows(rows, i)
                minor_flat = tuple(v for row in minor for v in row)
                rhs = (rhs + rows[0][i] * runs[k - 2](minor_flat, ())) % p
            if lhs != rhs:
                return PermanentVerifyReport(
                    False,
                    f"self-reduction failed at size {k}, trial {trial}",
                    p,
                    trials,
                    seed,
                )
    return PermanentVerifyReport(True, "all identities held", p, trials, seed)


# ---------------------------------------------------------------------------
# The evaluation protocol


class ProverMessage(Record):
    __slots__ = (
        "chain",  # skeleton circuits C_1..C_t, possibly with parameter slots
        "small_primes",  # p_0..p_m, hash-collision candidates
        "small_constants",  # per prime: a residue vector for the parameter slots
        "big_prime",
        "big_constants",
    )

    def payload(self):
        def consts(vals):
            return f"{len(vals)}:" + ",".join(str(v) for v in vals)

        chain_txt = "|".join(
            serialize_circuit(c).rstrip("\n").replace("\n", ";") for c in self.chain
        )
        primes = ",".join(str(q) for q in self.small_primes)
        ctxt = "/".join(consts(v) for v in self.small_constants)
        return (
            f"chain={chain_txt} primes={primes} constants={ctxt} "
            f"big={self.big_prime}:{consts(self.big_constants)}"
        )


class _ChainProver:
    """Sends the chain from `build_chain` and genuinely colliding primes."""

    def message(self, t, n, max_value, matrices, candidates):
        chain = tuple(self.build_chain(t))
        picks = find_collision_primes(matrices, candidates)
        if picks is None:
            return None
        big = next_prime_at_least(max(2, math.factorial(n) * max(1, max_value) ** n))
        empty = tuple(() for _ in picks)
        return ProverMessage(chain, picks, empty, big, ())


class HonestProver(_ChainProver):
    """Sends the true minor-expansion chain and genuinely colliding primes."""

    build_chain = staticmethod(build_permanent_chain)


class CheatingProver(_ChainProver):
    """Same envelope, but the chain computes determinants."""

    build_chain = staticmethod(build_determinant_chain)


def find_collision_primes(matrices, primes):
    """Deterministically pick primes (p_0, .., p_m) from `primes`, in
    ama_simulate the primes below 2^cols, satisfying the collision
    predicate, or None when no pivot collides everywhere."""
    return first_collision(matrices, primes)


class ProtocolTranscript(Record):
    __slots__ = (
        "seed",
        "rounds",  # (round, sender, payload)
        "verdict",  # "accept" | "reject"
        "answer",  # int, or None
    )

    def to_text(self):
        lines = [f"round={r} sender={s} payload={p}" for r, s, p in self.rounds]
        answer = "none" if self.answer is None else str(self.answer)
        lines.append(f"verdict={self.verdict} answer={answer}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self):
        return {
            "seed": self.seed,
            "rounds": [
                {"round": r, "sender": s, "payload": p} for r, s, p in self.rounds
            ],
            "verdict": self.verdict,
            "answer": self.answer,
        }


def split_input(n):
    """Sizes (|y|, |z|) with 0 < |y| <= |z| and |z| a power of two; the power
    is unique in [n/2, n-1]."""
    if n < 2:
        raise ValueError("need at least two input values")
    z = 1
    while 2 * z <= n - 1:
        z *= 2
    return n - z, z


def ama_simulate(
    x,
    i,
    b,
    prover,
    seed,
    k=1,
    m=4,
    cols=12,
    verify_trials=2,
    budget=DEFAULT_SOLVE_BUDGET,
):
    """Three-round evaluation protocol for bit i of the permanent of the
    matrix packed into the y part of x.

    Arthur splits x into (y, z); a non-square |y| short-circuits to
    "accept iff the claimed bit is 0".  Otherwise Arthur sends random hash
    matrices; the prover answers with a circuit chain, colliding primes with
    per-prime constants, and a large prime for the actual evaluation; Arthur
    checks the collision, primality, the size bound, and that the chain
    computes permanents modulo every supplied prime, then compares bit i of
    the evaluation.  Any failed check sends him to the same
    "accept iff b = 0" branch.  Identical seeds reproduce the transcript
    byte for byte.  The primes below 2^cols are sieved once and handed to
    the prover; its collision search over them, m^2 hash rows, is charged
    against `budget` before any matrix is drawn.
    """
    x = [int(v) for v in x]
    n = len(x)
    if n < 2 or n > 10:
        raise ValueError("desk-scale protocol needs 2 <= n <= 10")
    if any(v < 0 for v in x):
        raise ValueError("inputs must be nonnegative integers")
    if b not in (0, 1):
        raise ValueError("claimed bit must be 0 or 1")
    at_least("bit position", i, 0)
    at_least("verify trials", verify_trials, 0)
    at_least("m", m, 0)
    at_least("k", k, 0)
    rng = random.Random(seed)
    rounds = []

    ylen, zlen = split_input(n)
    t = math.isqrt(ylen)
    square = t * t == ylen
    head = f"split=|y|:{ylen},|z|:{zlen} square={int(square)}"
    if not square:
        rounds.append((1, "A", head + " branch=non-square"))
        verdict = "accept" if b == 0 else "reject"
        return ProtocolTranscript(seed, tuple(rounds), verdict, None)

    candidates = sieve((1 << cols) - 1)  # the primes the prover's collision search hashes
    charge_hashing(m * m, len(candidates), budget)
    matrices = [random_hash_matrix(rng, m, cols) for _ in range(m)]
    mats_txt = ",".join(
        ".".join(format(row, f"0{(cols + 3) // 4}x") for row in a.rows) for a in matrices
    )
    rounds.append((1, "A", f"{head} matrices={mats_txt}"))

    y = x[:ylen]
    max_value = max(x)
    msg = prover.message(t, n, max_value, matrices, candidates)

    def fail(reason):
        rounds.append((3, "A", f"checks=failed reason={reason} branch=b-zero"))
        verdict = "accept" if b == 0 else "reject"
        return ProtocolTranscript(seed, tuple(rounds), verdict, None)

    if msg is None:
        rounds.append((2, "M", "message=none"))
        return fail("no prover message")
    rounds.append((2, "M", msg.payload()))

    chain = msg.chain
    if len(chain) != t or len(msg.small_primes) != m + 1:
        return fail("malformed message")
    if len(msg.small_constants) != m + 1:
        return fail("malformed constants")
    num_params = {c.num_params for c in chain}
    if len(num_params) != 1:
        return fail("inconsistent parameter counts")
    (params_count,) = num_params
    for c, kk in zip(chain, range(1, t + 1)):
        if c.num_vars != kk * kk:
            return fail("wrong chain arity")
        if c.size() > n ** (2 * k):
            return fail("skeleton too large")
    if any(len(v) != params_count for v in msg.small_constants):
        return fail("constant vector length mismatch")
    if len(msg.big_constants) != params_count:
        return fail("constant vector length mismatch")
    if any(q >> cols for q in msg.small_primes):
        return fail("prime does not fit the encoding")
    if not psi(matrices, list(msg.small_primes)):
        return fail("no hash collision")
    bound = math.factorial(n) * max_value**n
    if msg.big_prime < bound:
        return fail("evaluation prime too small")
    primes = (*msg.small_primes, msg.big_prime)
    for q in primes:
        if not is_prime(q):
            return fail(f"composite modulus {q}")

    checks = []
    for q, consts in zip(primes, (*msg.small_constants, msg.big_constants)):
        bound_chain = [bind_params(c, consts) for c in chain]
        try:
            report = permanent_verify(bound_chain, q, verify_trials, rng.getrandbits(32))
        except ValueError:
            # e.g. a base circuit whose formal degree voids the identity test
            return fail(f"chain not verifiable mod {q}")
        checks.append(f"mod{q}:{'ok' if report.accepted else 'fail'}")
        if not report.accepted:
            rounds.append((3, "A", f"checks={','.join(checks)}"))
            return fail(f"chain is not the permanent mod {q}")

    # the loop ends on the big prime, so bound_chain is bound to its constants
    run = compile_mod_evaluator(bound_chain[-1], msg.big_prime)
    value = run(tuple(v % msg.big_prime for v in y), ())
    bit = value >> i & 1
    rounds.append(
        (3, "A", f"checks={','.join(checks)} value={value} bit{i}={bit}")
    )
    verdict = "accept" if bit == b else "reject"
    return ProtocolTranscript(seed, tuple(rounds), verdict, bit)
