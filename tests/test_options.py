"""Every defaulted parameter of the package is set by some caller outside
the tests or exempted with a reason, every record field is read by the
package or its benchmark, and every public function and method, and every
private helper, has a caller outside the tests.

An option that no call in the package or its benchmark ever passes is
surface without a use: it only widens what a reader has to consider, so
one that only the tests set needs a reason in `TEST_ONLY_OPTIONS`.  This
test walks `src/circuitbench` with `ast`, keys functions by name and class
`__init__`s by class name (other methods are skipped), and looks for a call
that passes each defaulted parameter by keyword or by position.  A record
field that nothing reads is the same kind of surface: it is computed and
carried, and it takes part in equality, but no answer depends on it.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import circuitbench

from circuitbench._record import Record

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "circuitbench"
PROGRAM = (ROOT / "src", ROOT / "perfbench")
CALLERS = (*PROGRAM, ROOT / "tests")


def _trees(*dirs):
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defaulted_parameters():
    """{(name, param, position)} for every parameter with a default;
    `position` is None for keyword-only parameters."""
    found = set()
    for tree in _trees(PACKAGE):
        methods = {
            id(item)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef | ast.FunctionDef):
                continue
            if isinstance(node, ast.ClassDef):
                init = [f for f in node.body if getattr(f, "name", None) == "__init__"]
                if not init:
                    continue
                name, fn, skip = node.name, init[0], 1  # `self` is never passed
            elif id(node) in methods:
                continue
            else:
                name, fn, skip = node.name, node, 0
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for pos in range(first, len(positional)):
                found.add((name, positional[pos].arg, pos - skip))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found.add((name, arg.arg, None))
    return found


def passed_parameters(*dirs):
    """{(name, keyword)} and {(name, position)} for every call in `dirs`;
    a `*args` or `**kwargs` call passes everything that way."""
    passed = set()
    for tree in _trees(*dirs):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for pos, arg in enumerate(call.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else pos))
            for kw in call.keywords:
                passed.add((name, kw.arg or "**"))
    return passed


# Options that only the tests set, each kept on purpose.
TEST_ONLY_OPTIONS = {
    "apply_projection(num_vars)": "target variables no substitution names (a paper construction)",
    "expand_circuit(modulus)": "test tool: the exact mod-p expansion the F_p paths are checked by",
    "hardness_certificate(enum_size)": "a vertex bound other than s: the tests check its refusal",
    "permanent_naive(mod)": "independent oracle that Ryser's permanent mod m is checked against",
    "pit_equal(trials)": "a fixed trial count; every command takes the degree's default",
    "random_circuit(num_params)": "test tool: random circuits with parameter slots",
    "sign_condition_search(budget)": "the tests reach the enumeration budget at a small size",
}


def _unset(passed):
    return {
        f"{name}({param})"
        for name, param, pos in defaulted_parameters()
        if not {(name, param), (name, pos), (name, "**"), (name, "*")} & passed
    }


def test_every_default_is_set_by_a_caller():
    """An option that no call in the package or the benchmark passes is
    surface no command reads; it goes, or `TEST_ONLY_OPTIONS` says why the
    tests need it."""
    unset = _unset(passed_parameters(*PROGRAM))
    assert sorted(unset - set(TEST_ONLY_OPTIONS)) == []
    # a stale exemption fails too: each one is still unset by the program
    # and still set by a test
    assert sorted(set(TEST_ONLY_OPTIONS) - unset) == []
    assert sorted(_unset(passed_parameters(*CALLERS)) & set(TEST_ONLY_OPTIONS)) == []


def record_fields():
    """{(class, field)} for every `__slots__` field of a package record,
    a class built on `Record`."""
    return {
        (cls.name, field.value)
        for tree in _trees(PACKAGE)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(getattr(base, "id", None) == "Record" for base in cls.bases)
        for item in cls.body
        if isinstance(item, ast.Assign)
        and [getattr(target, "id", None) for target in item.targets] == ["__slots__"]
        for field in item.value.elts
    }


def _read_on(node):
    """The name `x` when `node` reads `x.attr`, "" for a read on any other
    expression, None when `node` is no attribute read."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return getattr(node.value, "id", "")
    return None


def read_names():
    """The program's reads, as `.name` or `getattr(..., "name")`: the bare
    names read on any object but `self` and argparse's `args`, and the
    (class, name) pairs read as `self.name` inside that class."""
    read, own = set(), set()
    for tree in _trees(*PROGRAM):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                own.update((cls.name, n.attr) for n in ast.walk(cls) if _read_on(n) == "self")
        for node in ast.walk(tree):
            if _read_on(node) not in (None, "self", "args"):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
    return read, own


def test_every_record_field_is_read():
    """A record field that no code in the package or the benchmark reads is
    an argument echoed back to its caller; it goes.

    Known limit: outside `self`, fields are matched by bare name, so a field
    counts as read when any object's `.name` of that spelling is read: a
    `levels` field on any record passes on `emb.levels`, a `cols` field on
    `HashMatrix.cols` and a `trials` field on the tracer's `r.trials`.  An
    echo so spelled has to be found by hand."""
    read, own = read_names()
    unread = sorted(
        f"{cls}.{field}"
        for cls, field in record_fields()
        if field not in read and (cls, field) not in own
    )
    assert unread == []


def test_record_fields_cover_every_record_class():
    # the scan above must see every record the package defines, or it checks nothing
    for name in ("circuits", "families", "forge", "pit", "protocols", "systems", "universal"):
        importlib.import_module(f"circuitbench.{name}")
    defined, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            defined.add((cls.__name__, cls.__slots__))
            stack.append(cls)
    scanned = {}
    for cls, field in record_fields():
        scanned.setdefault(cls, set()).add(field)
    assert {name: set(slots) for name, slots in defined} == scanned


# Public names that only the tests call, each kept on purpose.
UNCALLED = {
    "permanent_naive": "independent oracle the tests check Ryser's permanent against",
    "phi_reference": "independent oracle the tests check the collision search of phi against",
    "apply_projection": "paper construction: a variable projection of a family",
    "build_language_system": "paper construction: the system of a language's membership",
    "permanent_agreement_system": "paper construction: the system a permanent chain must satisfy",
    "TruthTable": "paper construction: the function a multilinear extension extends",
    "multilinear_extension": "paper construction: the multilinear extension of a truth table",
    "random_circuit": "test tool; it also generated perfbench's checked-in cli inputs",
    "SparsePoly.total_degree": "test tool: the degree checks of the families and templates",
}


def public_definitions():
    """{module: names} with every public top-level function and class of
    the package, and every public method of a public class as
    `Class.method`; dunders and the methods of private classes are not
    public."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = found.setdefault(path.stem, set())
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef | ast.FunctionDef) or node.name.startswith("_"):
                continue
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return found


def called_names():
    """Every name loaded as `name` or `.name`, or imported, in the package
    (not its `__init__`, whose `_HOMES` is a name table, not a use) and in
    the benchmark, plus each part of the benchmark's dotted string
    constants, which name the layers its tracer wraps."""
    read = set()
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").rglob("*.py"))
    for path in paths:
        in_bench = "perfbench" in path.parts
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Import | ast.ImportFrom):
                read.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
            elif (
                in_bench
                and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and re.fullmatch(r"\w+(\.\w+)+", node.value)
            ):
                read.update(node.value.split("."))
    return read


def test_every_public_name_has_a_caller():
    """A public function or method that only the tests call is surface no
    command reads; it goes, or `UNCALLED` says why it stays.

    Known limit: methods are matched by bare name, so a method is counted
    as called when any `.name` of that spelling is read anywhere, on any
    object.  A second method of a common name (another `payload`, say)
    therefore passes unseen; such a method has to be found by hand."""
    read = called_names()
    public = set().union(*public_definitions().values())
    uncalled = {name for name in public if name.rsplit(".", 1)[-1] not in read}
    assert sorted(uncalled - set(UNCALLED)) == []
    # a stale exemption fails too: each one is still defined and still uncalled
    assert sorted(set(UNCALLED) - uncalled) == []


def test_public_definitions_cover_every_module():
    # the scan above must see every module and every public top-level name, or it checks nothing
    scanned = public_definitions()
    modules = {info.name for info in pkgutil.iter_modules(circuitbench.__path__)}
    assert set(scanned) == modules | {"__init__"}
    for name in modules:
        module = importlib.import_module(f"circuitbench.{name}")
        defined = {
            key
            for key, value in vars(module).items()
            if not key.startswith("_")
            and getattr(value, "__module__", None) == module.__name__
            and getattr(value, "__name__", None) == key
        }
        assert defined == {public for public in scanned[name] if "." not in public}, name


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions():
    """Every private top-level function of the package, and every private
    method of any of its classes as `Class.method`; dunders are not private."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and _is_private(node.name):
                found.add(node.name)
            elif isinstance(node, ast.ClassDef):
                found.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and _is_private(item.name)
                )
    return found


def test_every_private_helper_has_a_caller():
    """A private helper that no code in the package or the benchmark reads
    is kept alive only by its tests; it goes, and its tests move to what
    replaced it.  No exemptions: a private name is no one's surface.

    Known limits: as above, names are matched bare, and a helper read only
    in its own body (a recursion) counts as read."""
    read = called_names()
    private = private_definitions()
    # the scan must see top-level helpers and methods, or it checks nothing
    assert {"_template_circuit", "CircuitBuilder._emit", "Record._values"} <= private
    assert sorted(name for name in private if name.rsplit(".", 1)[-1] not in read) == []


# Every functools cache of the package -> the workload or command whose
# repeated keys it serves, with its hits out of its lookups in one job of
# that workload (seed 51001, caches cleared after set-up).
CACHES = {
    "pit.default_trials": "universality: each embed's check mod 101 asks the trial count of"
    " its (degree, p) again; 11,759 hits of 11,766",
    "pit._cached_points": "universality: each embed's check draws the points of one"
    " (seed, p, n, trials) again; 11,764 hits of 11,766",
    "primes.is_prime": "universality: each compile mod 101 checks the same prime; 24,194 hits"
    " of 24,195 (density: 1,623 of 2,634)",
    "systems._solver_kernel": "density: one system solved over every prime up to the limit;"
    " 1,030 hits of 1,039 (the `density` command: 302 of 303)",
    "universal.build_universal": "universality: each embed asks the template of its level"
    " count; 12,939 hits of 12,943",
    "universal._template_circuit": "universality's checks over Z: the pruned template of a zero"
    " pattern seen before; 1,177 hits of 1,844, none on the F_p path, which"
    " `_template_evaluator` serves",
    "universal._template_evaluator": "universality: the compiled pruned template of a repeated"
    " (levels, p, zero pattern); 11,103 hits of 11,766",
}
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _named(node):
    return getattr(node, "attr", None) or getattr(node, "id", None)


def cached_functions():
    """{module.function} for every function of the package under a functools
    cache decorator, and the places that name a cache any other way."""
    found, stray = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()
        for node in ast.walk(tree):
            for decorator in getattr(node, "decorator_list", ()):
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if _named(target) in CACHE_DECORATORS:
                    found.add(f"{path.stem}.{node.name}")
                    decorators.add(id(target))
        stray.update(
            f"{path.stem}:{node.lineno}"
            for node in ast.walk(tree)
            if _named(node) in CACHE_DECORATORS and id(node) not in decorators
        )
    return found, stray


def test_every_cache_names_the_keys_it_serves():
    """A cache is surface and memory: it stays only while a workload or a
    command repeats its keys, and `CACHES` says which one, with its hits.
    A new cache without an entry fails, and so does an entry whose cache
    is gone; a cache made other than as a decorator is not seen, so it fails."""
    found, stray = cached_functions()
    assert sorted(stray) == []
    assert sorted(found - set(CACHES)) == []
    assert sorted(set(CACHES) - found) == []
    # the scan must see the decorator forms the package uses, or it checks nothing
    assert {"universal.build_universal", "primes.is_prime", "pit.default_trials"} <= found
