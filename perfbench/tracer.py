"""Span tracing around the package's public functions, installed from outside.

The tracer replaces a function by a timing wrapper in every circuitbench
module namespace that holds it (the module sites that call it), or on its
class for methods.  Nothing under src/ is edited.  Each call records a span
(name, start, end, parent); a layer's self time is its duration minus the
part covered by child spans.  Calls are sequential on one thread, so the
child intervals of a span never overlap and "covered" is their sum.

`compile_mod_evaluator` returns a closure that the solver calls millions of
times.  Those closure calls (layer `circuits.modeval`) are counted and timed
in aggregate and credited to the enclosing span, but are not kept as spans.
"""

import importlib
import sys
import time

MODULES = (
    "algebra", "circuits", "cli", "families", "forge", "pit", "primes",
    "protocols", "rings", "systems", "universal",
)
SPAN_CAP = 20_000  # raw spans kept per tracer; aggregates are always complete


def solve_assignments(witness, p, unknowns):
    """Assignments the brute-force solver tried over F_p: the witness's
    lexicographic index + 1, or p^unknowns when there is no witness."""
    if witness is None:
        return p**unknowns
    index = 0
    for v in witness:
        index = index * p + v
    return index + 1


def _solve_counters(result, args, kwargs):
    system, p = args[0], args[1] if len(args) > 1 else kwargs["p"]
    return {"assignments": solve_assignments(result, p, system.unknown_count)}


# name -> (module, attribute, counters(result, args, kwargs) -> {counter: increment})
# `Class.method` attributes are patched on the class.
LAYERS = {
    "circuits.enumerate": ("circuits", "enumerate_circuits", None),
    "circuits.compile": ("circuits", "compile_mod_evaluator", None),
    "circuits.validate": ("circuits", "Circuit.__post_init__", None),
    "circuits.bind": ("circuits", "bind_params", None),
    "circuits.simplify": ("circuits", "simplify_constants", None),
    "circuits.expand": ("circuits", "expand_circuit",
                        lambda r, a, k: {"monomials": len(r.coeffs)}),
    "circuits.evaluate": ("circuits", "evaluate", None),
    "circuits.parse": ("circuits", "parse_circuit", None),
    "circuits.weight": ("circuits", "weight_report", None),
    "algebra.mul": ("algebra", "SparsePoly.mul_truncated",
                    lambda r, a, k: {"terms_out": len(r.coeffs)}),
    "primes.is_prime": ("primes", "is_prime", None),
    "primes.sieve": ("primes", "sieve", None),
    "universal.build": ("universal", "build_universal", None),
    "universal.embed": ("universal", "embed", None),
    "pit.equal": ("pit", "pit_equal", lambda r, a, k: {"trials": r.trials}),
    "systems.solve": ("systems", "solve_bruteforce", _solve_counters),
    "systems.density": ("systems", "density_probe", lambda r, a, k: {"primes": r.pi}),
    "systems.build_hardness": ("systems", "build_hardness_system", None),
    "systems.parse": ("systems", "parse_system", None),
    "forge.sweep": ("forge", "_sweep_image", lambda r, a, k: {"image": len(r)}),
    "forge.realizable": ("forge", "realizable_vectors", None),
    "forge.find_hard": ("forge", "find_hard_vector",
                        lambda r, a, k: {"systems_checked": r.systems_checked}),
    "forge.signcond": ("forge", "sign_condition_search",
                       lambda r, a, k: {"circuits": r.circuits_enumerated}),
    "families.permanent": ("families", "permanent", None),
    "families.hc": ("families", "hamiltonian_cycle_sum", None),
    "families.boolean_sum": ("families", "boolean_sum", None),
    "protocols.gs": ("protocols", "gs_estimate", lambda r, a, k: {"trials": r.trials}),
    "protocols.phi": ("protocols", "phi", None),
    "protocols.per_verify": ("protocols", "permanent_verify", None),
    "protocols.ama": ("protocols", "ama_simulate", None),
    "protocols.collision_primes": ("protocols", "find_collision_primes", None),
    "cli.parser": ("cli", "build_parser", None),
    "cli.main": ("cli", "main", None),
}
# Sites left unwrapped: expand_circuit's own ring walk stays in its self time.
SKIP_SITES = {"circuits.evaluate": {"circuitbench.circuits"}}


def _span_name(name, args, kwargs):
    if name == "forge.realizable" and kwargs.get("oracle") == "circuit-enumeration":
        return "forge.enum_oracle"
    return name


class Stat:
    __slots__ = ("calls", "total", "self_time", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters = {}


class Tracer:
    """Install with `install()`, run the job inside `span("job")`, then
    `uninstall()`.  Aggregates live in `stats`, raw spans in `spans`."""

    def __init__(self):
        self.stats = {}
        self.spans = []  # (id, parent id, name, start, end)
        self.absent = {}  # layer -> reason it could not be wrapped
        self.is_prime_args = set()
        self.build_args = set()
        self._stack = []  # frames: [span id, start, child time]
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _enter(self):
        self._next_id += 1
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        st = self.stat(name)
        st.calls += 1
        st.total += dur
        st.self_time += dur - frame[2]
        if len(self.spans) < SPAN_CAP:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append((frame[0], parent, name, frame[1], end))

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        frame = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame)

    def _count(self, name, counters, result, args, kwargs):
        if name == "primes.is_prime":
            self.is_prime_args.add(args[0] if args else kwargs["n"])
        elif name == "universal.build":
            self.build_args.add(args[0] if args else kwargs["s"])
        if counters is not None:
            st = self.stat(name)
            for key, inc in counters(result, args, kwargs).items():
                st.counters[key] = st.counters.get(key, 0) + inc

    def _wrap(self, name, fn, counters):
        tracer = self

        if name == "circuits.enumerate":
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)

                def timed():
                    while True:
                        frame = tracer._enter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(name, frame)
                        st = tracer.stat(name)
                        st.counters["yielded"] = st.counters.get("yielded", 0) + 1
                        yield item

                return timed()

        elif name == "circuits.compile":
            def wrapper(*args, **kwargs):
                run = tracer.span(name, fn, *args, **kwargs)
                return tracer._timed_closure(run)

        else:
            def wrapper(*args, **kwargs):
                span_name = _span_name(name, args, kwargs)
                result = tracer.span(span_name, fn, *args, **kwargs)
                tracer._count(span_name, counters, result, args, kwargs)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_closure(self, run):
        st = self.stat("circuits.modeval")
        stack = self._stack
        clock = time.perf_counter

        def timed_run(*args, **kwargs):
            t0 = clock()
            value = run(*args, **kwargs)
            dur = clock() - t0
            st.calls += 1
            st.total += dur
            st.self_time += dur
            if stack:
                stack[-1][2] += dur
            return value

        return timed_run

    def install(self):
        modules = {}
        for short in MODULES:
            full = f"circuitbench.{short}"
            try:
                modules[full] = importlib.import_module(full)
            except ImportError:
                continue
        modules["circuitbench"] = sys.modules["circuitbench"]
        for name, (short, attr, counters) in LAYERS.items():
            full = f"circuitbench.{short}"
            home = modules.get(full)
            if home is None:
                self.absent[name] = f"module {full} is missing"
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                orig = getattr(cls, meth, None) if cls is not None else None
                if orig is None:
                    self.absent[name] = f"{full}.{attr} is missing"
                    continue
                self._patch(cls, meth, orig, self._wrap(name, orig, counters))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                self.absent[name] = f"{full}.{attr} is missing"
                continue
            wrapper = self._wrap(name, orig, counters)
            skip = SKIP_SITES.get(name, set())
            for mod_name, mod in modules.items():
                if mod_name in skip:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def summary(self):
        """Aggregates as plain data, for writing out or merging."""
        out = {}
        for name, st in self.stats.items():
            out[name] = {
                "calls": st.calls,
                "total_s": st.total,
                "self_s": st.self_time,
                **st.counters,
            }
        if "primes.is_prime" in out:
            out["primes.is_prime"]["distinct"] = len(self.is_prime_args)
        if "universal.build" in out:
            out["universal.build"]["distinct"] = len(self.build_args)
        return out
