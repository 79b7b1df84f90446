"""Command-line surface.

Every command prints a deterministic report: a fixed header (schema,
command, seed, arguments) followed by result lines, or the same data as
JSON under --json.  Identical argv and seed give byte-identical output;
nothing time- or machine-dependent is ever printed.

Exit codes: 0 success, 1 domain error, 2 budget exceeded, 64 usage error.
"""

import argparse
import json
import random
import sys

from . import families, forge, protocols, systems
from .algebra import DEFAULT_MONOMIAL_BUDGET
from .circuits import (
    evaluate,
    is_constant_free,
    metrics,
    parse_circuit,
    parse_circuits,
    weight_report,
)
from .errors import BudgetError, ParseError, content_lines, parse_int
from .rings import IntegerRing, PrimeField
from .universal import embed

SCHEMA = "circuitbench-report-v1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _ints(text, option):
    """The comma-separated `<signed decimal>` integers of an argv option."""
    if not text.strip():
        return []
    return [parse_int(v, f"bad integer {v!r} in {option}", None) for v in text.split(",")]


def _read_matrix(path):
    """The rows of a square integer matrix file; the first row whose entry
    count is not the row count raises ParseError with its line."""
    rows = [
        (lineno, [parse_int(v, f"bad matrix row {line!r}", lineno) for v in line.split()])
        for lineno, line in content_lines(_read(path).splitlines())
    ]
    for lineno, row in rows:
        if len(row) != len(rows):
            raise ParseError(f"expected {len(rows)} entries, one per row, got {len(row)}", lineno)
    return [row for _, row in rows]


def _bits(vec):
    return None if vec is None else "".join(str(v) for v in vec)


def _text(value):
    """The text form of a report value: true/false, none, lists joined by commas."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_text(v) for v in value)
    return str(value)


def _report(**fields):
    """The (JSON object, text lines) pair of a report, one key=value line per field."""
    return fields, [f"{key}={_text(value)}" for key, value in fields.items()]


def _value_report(value):
    """The single-value report of eval, per, hc and vnp-sum: 'result=' in text."""
    return {"value": str(value)}, [f"result={value}"]


def _circuit_arg(parser):
    parser.add_argument("--circuit", required=True, help="path to a circuit file")


def build_parser():
    parser = _Parser(prog="circuitbench", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument("--seed", type=int, default=0, help="seed recorded in every report")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="reserved; report content never depends on the thread count",
    )
    common.add_argument(
        "--monomial-budget", type=int, default=DEFAULT_MONOMIAL_BUDGET, dest="monomial_budget"
    )
    common.add_argument(
        "--eval-budget", type=int, default=systems.DEFAULT_SOLVE_BUDGET, dest="eval_budget"
    )
    subparsers = parser.add_subparsers(dest="command")

    def sub(name, handler, **kwargs):
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = sub("eval", _cmd_eval, help="evaluate a circuit")
    _circuit_arg(p)
    p.add_argument("--ring", choices=["int", "modp"], default="int")
    p.add_argument("--p", type=int, default=0, help="modulus for --ring modp")
    p.add_argument("--vars", default="", help="comma-separated input values")
    p.add_argument("--params", default="", help="comma-separated parameter values")

    p = sub("degree", _cmd_degree, help="formal degree and size metrics")
    _circuit_arg(p)

    p = sub("weight", _cmd_weight, help="exact coefficient weight and its bound")
    _circuit_arg(p)

    p = sub("embed", _cmd_embed, help="embed a one-variable circuit into the universal template")
    _circuit_arg(p)
    p.add_argument("--p", type=int, required=True)

    p = sub("forge", _cmd_forge, help="lex-first hard 0/1 coefficient vector")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--enum-size", type=int, default=None, dest="enum_size")

    p = sub("signcond", _cmd_signcond, help="lex-first unrealizable sign condition")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--D", type=int, required=True, dest="cap")

    p = sub("poscoef", _cmd_poscoef, help="sign of one coefficient of a constant-free circuit")
    _circuit_arg(p)
    p.add_argument("--i", type=int, required=True)

    p = sub("density", _cmd_density, help="solvable-prime density of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--limit", type=int, required=True)

    p = sub("solve", _cmd_solve, help="brute-force a system over one prime")
    p.add_argument("--system", required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub("gs-sim", _cmd_gs_sim, help="set-size estimation by hash collisions")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--bits", type=int, default=12)
    p.add_argument("--trials", type=int, default=1000)

    p = sub("per-verify", _cmd_per_verify, help="verify a permanent chain")
    p.add_argument("--chain", required=True, help="circuit files joined by --- lines")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--trials", type=int, default=2)

    p = sub("ama-sim", _cmd_ama_sim, help="run the evaluation protocol once")
    p.add_argument("--x", required=True, help="comma-separated nonnegative integers")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--prover", choices=["honest", "determinant"], default="honest")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--bits", type=int, default=12)
    p.add_argument("--trials", type=int, default=2)

    p = sub("per", _cmd_per, help="permanent of an integer matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mod", type=int, default=None)

    p = sub("hc", _cmd_hc, help="Hamiltonian-cycle polynomial of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mod", type=int, default=None)

    p = sub("vnp-sum", _cmd_vnp_sum, help="Boolean sum of a circuit over its last variables")
    _circuit_arg(p)
    p.add_argument("--summed", type=int, required=True)
    p.add_argument("--x", default="", help="comma-separated values for the free variables")
    p.add_argument("--mod", type=int, default=None)

    return parser


def _cmd_eval(args):
    c = parse_circuit(_read(args.circuit))
    ring = PrimeField(args.p) if args.ring == "modp" else IntegerRing()
    value = evaluate(c, ring, _ints(args.vars, "--vars"), _ints(args.params, "--params"))
    return _value_report(value)


def _cmd_degree(args):
    c = parse_circuit(_read(args.circuit))
    m = metrics(c)
    return _report(
        formal_degree=m.formal_degree,
        size=m.size,
        gates=m.gate_count,
        constant_free=is_constant_free(c),
    )


def _cmd_weight(args):
    c = parse_circuit(_read(args.circuit))
    rep = weight_report(c, budget=args.monomial_budget)
    return _report(
        exact_weight=str(rep.exact_weight),
        bound=str(rep.bound),
        bound_holds=rep.bound_holds,
        size=rep.size,
        formal_degree=rep.formal_degree,
        max_const=rep.max_const_abs,
    )


def _cmd_embed(args):
    c = parse_circuit(_read(args.circuit))
    emb = embed(c, args.p, seed=args.seed)
    return _report(levels=emb.levels, params=emb.params, verified=True)


def _cmd_forge(args):
    result = forge.find_hard_vector(args.s, args.d, args.p, solve_budget=args.eval_budget)
    enum = forge.realizable_vectors(
        args.s, args.d, args.p, oracle="circuit-enumeration", enum_size=args.enum_size
    )
    enum_first = forge.lex_first_missing(enum.vectors, args.d)
    return _report(
        oracles=["system-solve", "parameter-sweep", "circuit-enumeration"],
        saturated=result.saturated,
        gamma=_bits(result.gamma),
        gamma_sweep=_bits(forge.lex_first_missing(result.realized, args.d)),
        gamma_enum=_bits(enum_first),
        realized_sweep=len(result.realized),
        realized_enum=len(enum.vectors),
        systems_checked=result.systems_checked,
        oracles_agree=enum_first == result.gamma,
    )


def _cmd_signcond(args):
    result = forge.sign_condition_search(args.s, args.cap)
    return _report(
        saturated=result.saturated,
        bits=_bits(result.bits),
        realized=len(result.realized),
        circuits=result.circuits_enumerated,
    )


def _cmd_poscoef(args):
    c = parse_circuit(_read(args.circuit))
    sign = forge.poscoef(c, args.i, budget=args.monomial_budget)
    return _report(sign={1: "positive", 0: "zero", -1: "negative"}[sign])


def _cmd_density(args):
    system = systems.parse_system(_read(args.system))
    report = systems.density_probe(system, args.limit, solve_budget=args.eval_budget)
    obj, lines = _report(
        pi_S=report.pi_s,
        pi=report.pi,
        ratio=report.ratio,
        good_primes=report.good_primes,
        complete=report.complete,
        high_water=report.high_water,
    )
    # text: the three counts share one summary line
    return obj, [report.summary()] + lines[3:]


def _cmd_solve(args):
    system = systems.parse_system(_read(args.system))
    return _report(witness=systems.solve_bruteforce(system, args.p, budget=args.eval_budget))


def _cmd_gs_sim(args):
    universe = 1 << args.bits
    if universe > sys.maxsize:
        raise ValueError(
            f"the {args.bits}-bit universe exceeds the sampling limit sys.maxsize = {sys.maxsize}"
        )
    if args.size > universe:
        raise ValueError(f"set size {args.size} exceeds the {args.bits}-bit universe")
    protocols.charge_hashing(max(1, args.trials * args.m**2), args.size, args.eval_budget)
    rng = random.Random(args.seed)
    elements = rng.sample(range(universe), args.size)
    report = protocols.gs_estimate(
        elements, args.m, args.trials, seed=args.seed, cols=args.bits
    )
    return _report(
        rate=report.rate,
        verdict=report.verdict,
        phi_count=report.phi_count,
        set_size=report.set_size,
    )


def _cmd_per_verify(args):
    chain = parse_circuits(_read(args.chain).splitlines())
    report = protocols.permanent_verify(chain, args.p, args.trials, args.seed)
    return _report(accepted=report.accepted, reason=report.reason)


def _cmd_ama_sim(args):
    prover = (
        protocols.HonestProver()
        if args.prover == "honest"
        else protocols.CheatingProver()
    )
    transcript = protocols.ama_simulate(
        _ints(args.x, "--x"),
        args.i,
        args.b,
        prover,
        seed=args.seed,
        k=args.k,
        m=args.m,
        cols=args.bits,
        verify_trials=args.trials,
        budget=args.eval_budget,
    )
    lines = transcript.to_text().rstrip("\n").split("\n")
    return transcript.to_json_obj(), lines


def _cmd_per(args):
    value = families.permanent(_read_matrix(args.matrix), mod=args.mod)
    return _value_report(value)


def _cmd_hc(args):
    value = families.hamiltonian_cycle_sum(_read_matrix(args.matrix), mod=args.mod)
    return _value_report(value)


def _cmd_vnp_sum(args):
    c = parse_circuit(_read(args.circuit))
    ring = PrimeField(args.mod) if args.mod is not None else IntegerRing()
    x = _ints(args.x, "--x")
    value = families.boolean_sum(c, ring, x, args.summed, budget=args.eval_budget)
    return _value_report(value)


def _config_obj(args):
    skip = {"command", "handler", "json"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 64
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        obj, lines = args.handler(args)
    except BudgetError as exc:
        print(f"error=budget: {exc}")
        return 2
    except MemoryError as exc:
        print(f"error=out of memory: {exc}" if str(exc) else "error=out of memory")
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error={exc}")
        return 1
    config = _config_obj(args)
    if args.json:
        report = {"schema": SCHEMA, "command": args.command, "config": config, "result": obj}
        print(json.dumps(report, sort_keys=True))
    else:
        out = [f"schema={SCHEMA}", f"command={args.command}"]
        out.extend(f"arg.{key}={_text(value)}" for key, value in config.items())
        out.extend(lines)
        print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
