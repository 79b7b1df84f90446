"""The benchmark's four workloads.

Each workload makes its inputs from the seed (`setup`), works out the answers
it expects (`expect`), runs one closed-loop job on one thread (`job`, the
timed part), and checks that job's outputs (`check`).  Jobs call the
package's public API, or for `cli_session` its command line.  Every job of a
run does the same items in the same order, so that item i of one job is the
same work as item i of another and its time can be taken over the jobs.
Importing this module imports circuitbench, which is part of the measured
set-up.
"""

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import circuitbench
from circuitbench import circuits, forge, systems, universal
from circuitbench.rings import IntegerRing, PrimeField
from tracer import Tracer, solve_assignments

BENCH = Path(__file__).resolve().parent
clock = time.perf_counter
CHILD_TIMEOUT_S = 120


class Job:
    """One timed job: its wall seconds, per-item latencies in seconds and the
    host's slowdown measured before each item, the failures seen while it
    ran, whatever `check` needs, and the peak resident memory in KiB of the
    process that did its work."""

    def __init__(self, seconds, latencies, slowdowns, failures, output):
        self.seconds = seconds
        self.latencies = latencies
        self.slowdowns = slowdowns
        self.failures = failures
        self.output = output
        self.traced = False
        self.layers = {}
        self.absent = {}
        self.spans = []
        self.import_s = []
        self.peak_rss_kb = 0


# The reference loop takes about REFERENCE_S on the baseline host at its
# fast speed; a slowdown is the loop's time over REFERENCE_S.
REFERENCE_N, REFERENCE_S = 3000, 0.0004


def reference_loop():
    """Seconds a fixed piece of pure-Python work takes, a gauge of the
    host's current speed that no change to circuitbench can move.  Dict
    updates with int keys slow down with the host as the workloads' own
    object code does; a pure arithmetic loop slowed down less."""
    t0 = clock()
    counts = {}
    for i in range(REFERENCE_N):
        key = i * 7919 % 1021
        counts[key] = counts.get(key, 0) + i
    return clock() - t0


def host_slowdown():
    """The host's current slowdown against its fast speed (about 1 to 1.7)."""
    return min(reference_loop(), reference_loop()) / REFERENCE_S


class ItemClock:
    """Times a job's items, and the host's speed between them.

    The host's speed drifts by up to 1.7x for seconds or minutes at a time
    (README).  `tick` closes an item; at most every PERIOD_S it then reruns
    the reference loop, and each item is paired with the slowdown measured
    last before it.  The reference loop counts neither in the items'
    latencies nor in the job's seconds."""

    PERIOD_S = 0.025

    def __init__(self):
        self.latencies, self.slowdowns = [], []
        self.gauge_s = 0.0
        self.t0 = clock()
        self._gauge()

    def _gauge(self):
        t = clock()
        self.slowdown = host_slowdown()
        self.start = self.gauged = clock()
        self.gauge_s += self.start - t

    def tick(self):
        now = clock()
        self.latencies.append(now - self.start)
        self.slowdowns.append(self.slowdown)
        if now - self.gauged > self.PERIOD_S:
            self._gauge()
        else:
            self.start = now

    def job(self, failures, output):
        seconds = clock() - self.t0 - self.gauge_s
        return Job(seconds, self.latencies, self.slowdowns, failures, output)


def run_child(cmd, **kwargs):
    """Run a child process to completion; return its exit code, its stdout
    and its own peak resident memory in KiB.

    A timer kills the child after CHILD_TIMEOUT_S.  The wait blocks in the
    kernel: Popen.wait(timeout) would poll at up to 50 ms intervals, which
    adds that much noise to every timed command.  waitid(WNOWAIT) sees the
    exit without reaping, so the timer is stopped before the pid can be
    reused, and wait4 then reaps the child with its resource usage."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, **kwargs
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    finally:
        watchdog.cancel()
        watchdog.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def _bits(vec):
    return None if vec is None else "".join(str(v) for v in vec)


def _primes_upto(limit):
    """Trial-division primes; independent of circuitbench.primes."""
    found = []
    for n in range(2, limit + 1):
        if all(n % q for q in found if q * q <= n):
            found.append(n)
    return found


def _quadratic_solvable(c, p):
    """Whether y^2 + c = 0 has a root mod p (Euler's criterion)."""
    r = -c % p
    return p == 2 or r == 0 or pow(r, (p - 1) // 2, p) == 1


def _quadratic_system_text(c):
    return (
        "unknowns 1\nnvars 0\nnparams 1\n"
        f"g1 = param 1\ng2 = mul g1 g1\ng3 = const {c}\ng4 = add g2 g3\nout g4\n"
    )


def _witness_ok(system, p, witness):
    field = PrimeField(p)
    return all(circuits.evaluate(eq, field, (), witness) == 0 for eq in system.equations)


class Workload:
    name = ""
    item = ""
    tail_pct = 50.0  # fixed per workload so the metric means the same on every commit

    def __init__(self, seed, root):
        self.seed = seed
        self.root = Path(root)
        with open(BENCH / "expected.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)[self.name]

    def rng(self, *tags):
        return random.Random(":".join(str(t) for t in (self.name, self.seed, *tags)))

    def setup(self):
        """Make the inputs; part of the measured set-up."""

    def expect(self):
        """Work out expected answers; not timed."""

    def job(self, k):
        raise NotImplementedError

    def run(self, k, traced):
        """One job; when traced, inside a span tree over the package's layers."""
        if not traced:
            job = self.job(k)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                job = tracer.span("job", self.job, k)
            finally:
                tracer.uninstall()
            job.layers = tracer.summary()
            job.absent = dict(tracer.absent)
            job.spans = tracer.spans
        job.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return job

    def check(self, k, job):
        """Return the number of mismatches in a finished job's outputs."""
        return 0

    def check_once(self, jobs):
        """Cross-checks run once per run.  Returns (attempted, failed)."""
        return 0, 0

    def work(self, job):
        """Work counters of one job that repeat exactly across runs."""
        return {}


class Universality(Workload):
    """Enumerate a corpus of one-variable circuits, embed every circuit into
    the universal template over F_101, and a seeded 1-in-10 sample over Z."""

    name = "universality"
    item = "circuit embedded"
    tail_pct = 99.9  # 13 of the 12,942-12,943 circuits lie above it
    MAX_SIZE, POOL, MAX_GATES, P = 9, (-2, -1, 0, 1, 2), 3, 101
    Z_EVERY = 10
    CHECKS_P, CHECKS_Z = 24, 8

    def setup(self):
        rng = self.rng()
        self.offset = rng.randrange(self.Z_EVERY)
        self.pit_seed = rng.randrange(1 << 32)

    def job(self, k):
        rng = self.rng(k)
        offset, pit_seed = self.offset, self.pit_seed
        corpus_size = self.expected["corpus"]
        check_p = set(rng.sample(range(corpus_size), self.CHECKS_P))
        check_z = set(rng.sample(range(corpus_size // self.Z_EVERY), self.CHECKS_Z))
        embed = universal.embed
        # Only the circuits the checks need are kept, so that peak memory is
        # the program's, not a retained corpus.
        count, kept, kept_z, z_sample, failures = 0, [], [], [], []
        items = ItemClock()
        for c in circuits.enumerate_circuits(
            self.MAX_SIZE, 1, self.POOL, max_gates=self.MAX_GATES
        ):
            try:
                emb = embed(c, self.P, seed=pit_seed)
                if count in check_p:
                    kept.append((c, emb))
            except Exception as exc:  # counted as a failed item
                failures.append(f"embed p={self.P}: {exc!r}")
            if count % self.Z_EVERY == offset:
                z_sample.append(c)
            count += 1
            items.tick()
        for j, c in enumerate(z_sample):
            try:
                emb = embed(c, None)
                if j in check_z:
                    kept_z.append((c, emb))
            except Exception as exc:
                failures.append(f"embed over Z: {exc!r}")
            items.tick()
        return items.job(failures, (count, kept, len(z_sample), kept_z))

    def check(self, k, job):
        """Corpus size, then the kept sample: the bound template equals the
        circuit at every point of F_101, or at x = -3..3 over Z."""
        count, kept, _, kept_z = job.output
        bad = abs(count - self.expected["corpus"])
        for pairs, ring, points in (
            (kept, PrimeField(self.P), range(self.P)),
            (kept_z, IntegerRing(), range(-3, 4)),
        ):
            for c, emb in pairs:
                bound = circuits.bind_params(emb.template.circuit, emb.params)
                if any(
                    circuits.evaluate(bound, ring, [x]) != circuits.evaluate(c, ring, [x])
                    for x in points
                ):
                    bad += 1
        return bad

    def work(self, job):
        count, _, z_count, _ = job.output
        return {"circuits": count, "embedded_p101": count, "embedded_z": z_count}


class ForgeGrid(Workload):
    """Template sweeps, the hard-vector search over a (d, p) grid, the
    circuit-enumeration oracle and the sign-condition search."""

    name = "forge_grid"
    item = "forge call"
    tail_pct = 65.0  # 11 of the 30 calls lie above it

    def setup(self):
        calls = [("sweep", 2, d, p) for p in (5, 7, 11) for d in (2, 3, 4)]
        calls += [("sweep", 3, d, 3) for d in (2, 3, 4)]
        calls += [("hard", 2, d, p) for p in (3, 5, 7) for d in range(min(p, 4))]
        calls += [("enum", 2, d, 5) for d in (2, 3, 4, 5)]
        calls += [("signcond", 4, 4), ("signcond", 5, 6), ("signcond", 6, 8)]
        self.rng().shuffle(calls)
        self.calls = calls

    @staticmethod
    def key(call):
        return " ".join(str(v) for v in call)

    def _call(self, call):
        kind, s, a, b = call if len(call) == 4 else (*call, None)
        if kind == "sweep":
            res = forge.realizable_vectors(s, a, b, budget=b ** (s * (s + 1)))
            return len(res.vectors), res.vectors
        if kind == "hard":
            res = forge.find_hard_vector(s, a, b)
            return [_bits(res.gamma), res.systems_checked], res.gamma
        if kind == "enum":
            res = forge.realizable_vectors(s, a, b, oracle="circuit-enumeration", enum_size=5)
            return len(res.vectors), res.vectors
        res = forge.sign_condition_search(s, a)
        return [_bits(res.bits), res.circuits_enumerated], res.bits

    def job(self, k):
        answers, failures = {}, []
        items = ItemClock()
        for call in self.calls:
            try:
                answers[call] = self._call(call)
            except Exception as exc:
                failures.append(f"{self.key(call)}: {exc!r}")
            items.tick()
        return items.job(failures, answers)

    def check(self, k, job):
        return sum(
            1
            for call, (answer, _) in job.output.items()
            if answer != self.expected["answers"][self.key(call)]
        )

    def check_once(self, jobs):
        """Certify every hard vector by exhaustive enumeration, and check the
        fast truncated coefficient map against the reference evaluation on
        seeded s=2 template parameters mod 11, whose 0/1 images must be in
        the sweep's image."""
        answers = jobs[0].output
        attempted = failed = 0
        for call, (_, gamma) in answers.items():
            if call[0] != "hard" or gamma is None:
                continue
            attempted += 1
            ok, _ = forge.hardness_certificate(call[1], call[2], call[3], gamma)
            failed += not ok
        realized = answers.get(("sweep", 2, 2, 11), (None, frozenset()))[1]
        template = universal.build_universal(2)
        rng = self.rng("params")
        for _ in range(60):
            params = [rng.randrange(11) for _ in range(template.param_count())]
            fast = universal.truncated_coefficient_map(template, 2, 11, params).entries
            ref = universal.truncated_coefficient_map_reference(template, 2, 11, params).entries
            attempted += 1
            zero_one = all(v in (0, 1) for v in fast)
            failed += fast != ref or (zero_one and fast not in realized)
        return attempted, failed

    def work(self, job):
        answers = {self.key(c): a for c, (a, _) in job.output.items()}
        return {
            "calls": len(job.output),
            "sweep_image": sum(a for k, a in answers.items() if k.startswith("sweep")),
            "systems_checked": sum(a[1] for k, a in answers.items() if k.startswith("hard")),
            "circuits": sum(a[1] for k, a in answers.items() if k.startswith("signcond")),
        }


class Density(Workload):
    """Prime-density probes: y^2 + c up to 8000 (c seeded in 1..9), then the
    three-equation hardness systems with six unknowns for the eight 0/1
    vectors gamma, each up to 7."""

    name = "density"
    item = "prime decided"
    tail_pct = 99.0  # 11 of the 1,039 primes lie above it
    LIMIT_QUAD, LIMIT_HARD = 8000, 7
    GAMMAS = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))

    def setup(self):
        self.c = self.rng().randint(1, 9)
        self.text = _quadratic_system_text(self.c)

    def expect(self):
        primes = _primes_upto(self.LIMIT_QUAD)
        self.good_quad = tuple(p for p in primes if _quadratic_solvable(self.c, p))
        self.pi_quad = len(primes)

    def job(self, k):
        failures, reports = [], []
        solve = systems.solve_bruteforce
        items = None

        def stamped(*args, **kwargs):
            # one tick per prime decided, for per-prime latency
            result = solve(*args, **kwargs)
            items.tick()
            return result

        systems.solve_bruteforce = stamped
        try:
            items = ItemClock()
            try:
                quad = systems.parse_system(self.text)
                reports.append((quad, systems.density_probe(quad, self.LIMIT_QUAD)))
            except Exception as exc:
                failures.append(f"y^2+{self.c}: {exc!r}")
            for gamma in self.GAMMAS:
                try:
                    hard = systems.build_hardness_system(2, 2, gamma)
                    reports.append((hard, systems.density_probe(hard, self.LIMIT_HARD)))
                except Exception as exc:
                    failures.append(f"hardness {gamma}: {exc!r}")
        finally:
            systems.solve_bruteforce = solve
        return items.job(failures, reports)

    def check(self, k, job):
        want = [(self.pi_quad, self.good_quad, None)]
        for gamma in self.GAMMAS:
            hard = self.expected["hardness"][" ".join(map(str, gamma))]
            want.append((hard["pi"], tuple(hard["good_primes"]), hard["witnesses"]))
        bad = abs(len(job.output) - len(want))
        for (system, rep), (pi, good, witnesses) in zip(job.output, want):
            bad += rep.pi != pi or rep.good_primes != good or not rep.complete
            for p, w in rep.witnesses.items():
                bad += not _witness_ok(system, p, w)
                if witnesses is not None:
                    bad += list(w) != witnesses.get(str(p))
        return bad

    def work(self, job):
        primes = assignments = 0
        for system, rep in job.output:
            primes += rep.pi
            for p in circuitbench.primes.sieve(rep.limit):
                assignments += solve_assignments(rep.witnesses.get(p), p, system.unknown_count)
        return {"primes": primes, "assignments": assignments}


def _permanent_dp(matrix):
    """Permanent by a subset dynamic program over columns; an oracle
    independent of Ryser's formula in circuitbench.families."""
    n = len(matrix)
    ways = {0: 1}
    for row in matrix:
        nxt = {}
        for used, w in ways.items():
            for j in range(n):
                if not used >> j & 1 and row[j]:
                    key = used | 1 << j
                    nxt[key] = nxt.get(key, 0) + w * row[j]
        ways = nxt
    return ways.get((1 << n) - 1, 0)


def _cycle_sum_dp(matrix):
    """Hamiltonian-cycle polynomial by a dynamic program over paths from
    vertex 0; an oracle independent of the package's permutation walk."""
    n = len(matrix)
    paths = {(1, 0): 1}  # (visited mask, last vertex) -> summed path weight
    for _ in range(n - 1):
        nxt = {}
        for (mask, v), w in paths.items():
            for u in range(1, n):
                if not mask >> u & 1:
                    key = (mask | 1 << u, u)
                    nxt[key] = nxt.get(key, 0) + w * matrix[v][u]
        paths = nxt
    return sum(w * matrix[v][0] for (_, v), w in paths.items())


class CliSession(Workload):
    """All 15 subcommands, in text and in --json, each in a fresh
    interpreter.  The inputs are fixed files under cli_inputs/, drawn once
    with `circuits.random_circuit` and checked in, so that every answer has a
    recorded SHA-256 that the commit under test cannot change; the seed
    shuffles the order of the commands."""

    name = "cli_session"
    item = "command completed"
    tail_pct = 65.0  # 11 of the 30 commands lie above it
    INPUTS = "perfbench/cli_inputs/"
    MOD = "1000003"
    EVAL_VARS = "290109,62479,733557"
    VNP_FIXED = "946246,667298"
    QUAD_C = 9  # quad.sys is y^2 + 9
    COMMANDS = (
        ["eval", "--circuit", INPUTS + "big.circ", "--ring", "modp", "--p", MOD, "--vars", EVAL_VARS],
        ["degree", "--circuit", INPUTS + "big.circ"],
        ["weight", "--circuit", INPUTS + "weight.circ"],
        ["embed", "--circuit", INPUTS + "embed.circ", "--p", "101", "--seed", "622"],
        ["forge", "--s", "2", "--d", "4", "--p", "7"],
        ["signcond", "--s", "5", "--D", "6"],
        ["poscoef", "--circuit", INPUTS + "poscoef.circ", "--i", "3"],
        ["density", "--system", INPUTS + "quad.sys", "--limit", "2000"],
        ["solve", "--system", INPUTS + "hard.sys", "--p", "5"],
        ["gs-sim", "--size", "64", "--m", "4", "--trials", "1000", "--seed", "622"],
        ["per-verify", "--chain", INPUTS + "chain.circs", "--p", "101", "--trials", "20", "--seed", "622"],
        ["ama-sim", "--x", "0,2,3,0,1,2,2,3", "--i", "1", "--b", "0", "--seed", "622"],
        ["per", "--matrix", INPUTS + "per.mat"],
        ["hc", "--matrix", INPUTS + "hc.mat"],
        ["vnp-sum", "--circuit", INPUTS + "vnp.circ", "--summed", "12", "--x", VNP_FIXED,
         "--mod", MOD],
    )
    SESSION = [argv + extra for argv in COMMANDS for extra in ([], ["--json"])]

    def setup(self):
        self.order = list(self.SESSION)
        self.rng().shuffle(self.order)
        # The commands run in child processes, which inherit this pinning to
        # one CPU, so that the reference loop run here between commands
        # gauges the CPU they run on.  Unpinned, the children ran on either
        # CPU and correcting by the loop widened the spread.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def check_once(self, jobs):
        """Independent oracles for the answers of the first job's text
        commands, which also vouch for the recorded SHA-256s."""
        text = {argv[0]: out for argv, _, out in jobs[0].output if "--json" not in argv}

        def result(command, key, parse=str):
            for line in text.get(command, "").splitlines():
                if line.startswith(key + "="):
                    try:
                        return parse(line.split("=", 1)[1])
                    except ValueError:
                        return None
            return None

        inputs = self.root / self.INPUTS

        def read(name):
            return (inputs / name).read_text(encoding="utf-8")

        def matrix(name):
            return [[int(v) for v in line.split()] for line in read(name).splitlines()]

        mod = int(self.MOD)
        good = [p for p in _primes_upto(2000) if _quadratic_solvable(self.QUAD_C, p)]
        run_big = circuits.compile_mod_evaluator(circuits.parse_circuit(read("big.circ")), mod)
        # vnp-sum: the compiled evaluator, not the package's summation loop
        run_vnp = circuits.compile_mod_evaluator(circuits.parse_circuit(read("vnp.circ")), mod)
        fixed = tuple(int(v) for v in self.VNP_FIXED.split(","))
        vnp_sum = sum(
            run_vnp(fixed + tuple(mask >> j & 1 for j in range(12)), ()) for mask in range(1 << 12)
        ) % mod
        checks = [
            result("per", "result", int) == _permanent_dp(matrix("per.mat")),
            result("hc", "result", int) == _cycle_sum_dp(matrix("hc.mat")),
            result("density", "good_primes") == ",".join(map(str, good)),
            result("solve", "witness") == "none",  # (1,1,1) is hard mod 5
            result("eval", "result", int)
            == run_big(tuple(int(v) for v in self.EVAL_VARS.split(",")), ()),
            result("vnp-sum", "result", int) == vnp_sum,
        ]
        return len(checks), checks.count(False)

    def run(self, k, traced):
        return self.job(k, traced)

    def job(self, k, traced=False):
        order = self.order
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        out_dir = self.root / ".bench_out"
        failures, outputs, layer_files = [], [], []
        peak_kb = 0
        items = ItemClock()
        for i, argv in enumerate(order):
            if traced:
                layer_file = out_dir / f"cli-layers-{os.getpid()}-{i}.json"
                layer_files.append(layer_file)
                cmd = [sys.executable, str(BENCH / "cli_child.py"), str(layer_file), *argv]
            else:
                cmd = [sys.executable, "-m", "circuitbench.cli", *argv]
            code, out, rss_kb = run_child(cmd, env=env, cwd=self.root)
            peak_kb = max(peak_kb, rss_kb)
            outputs.append((tuple(argv), code, out))
            items.tick()
        job = items.job(failures, outputs)
        job.peak_rss_kb = peak_kb
        for path in layer_files:
            if not path.exists():
                continue  # the command failed; its stdout check counts it
            data = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            job.import_s.append(data["import_s"])
            job.absent.update(data["absent"])
            for name, fields in data["layers"].items():
                into = job.layers.setdefault(name, {})
                for key, value in fields.items():
                    into[key] = into.get(key, 0) + value
        return job

    def check(self, k, job):
        """Every command exits 0 and prints exactly the recorded stdout."""
        golden = self.expected["stdout_sha256"]
        return sum(
            1
            for argv, code, out in job.output
            if code != 0 or hashlib.sha256(out.encode()).hexdigest() != golden[" ".join(argv)]
        )

    def work(self, job):
        return {"commands": len(job.output)}


WORKLOADS = {w.name: w for w in (Universality, ForgeGrid, Density, CliSession)}
