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
from .errors import BudgetError, ParseError
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


def _ints(text):
    if not text.strip():
        return []
    return [int(v) for v in text.split(",")]


def _read_matrix(path):
    rows = []
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                rows.append([int(v) for v in line.split()])
            except ValueError:
                raise ParseError(f"bad matrix row {line!r}", lineno) from None
    return rows


def _bits(vec):
    return "".join(str(v) for v in vec)


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

    class _Sub:
        def add_parser(self, name, **kwargs):
            return subparsers.add_parser(name, parents=[common], **kwargs)

    sub = _Sub()

    p = sub.add_parser("eval", help="evaluate a circuit")
    _circuit_arg(p)
    p.add_argument("--ring", choices=["int", "modp"], default="int")
    p.add_argument("--p", type=int, default=0, help="modulus for --ring modp")
    p.add_argument("--vars", default="", help="comma-separated input values")
    p.add_argument("--params", default="", help="comma-separated parameter values")

    p = sub.add_parser("degree", help="formal degree and size metrics")
    _circuit_arg(p)

    p = sub.add_parser("weight", help="exact coefficient weight and its bound")
    _circuit_arg(p)

    p = sub.add_parser("embed", help="embed a one-variable circuit into the universal template")
    _circuit_arg(p)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("forge", help="lex-first hard 0/1 coefficient vector")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--enum-size", type=int, default=None, dest="enum_size")

    p = sub.add_parser("signcond", help="lex-first unrealizable sign condition")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--D", type=int, required=True, dest="cap")

    p = sub.add_parser("poscoef", help="sign of one coefficient of a constant-free circuit")
    _circuit_arg(p)
    p.add_argument("--i", type=int, required=True)

    p = sub.add_parser("density", help="solvable-prime density of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("solve", help="brute-force a system over one prime")
    p.add_argument("--system", required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("gs-sim", help="set-size estimation by hash collisions")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--bits", type=int, default=12)
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("per-verify", help="verify a permanent chain")
    p.add_argument("--chain", required=True, help="circuit files joined by --- lines")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--trials", type=int, default=2)

    p = sub.add_parser("ama-sim", help="run the evaluation protocol once")
    p.add_argument("--x", required=True, help="comma-separated nonnegative integers")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--prover", choices=["honest", "determinant"], default="honest")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--bits", type=int, default=12)
    p.add_argument("--trials", type=int, default=2)

    p = sub.add_parser("per", help="permanent of an integer matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mod", type=int, default=None)

    p = sub.add_parser("hc", help="Hamiltonian-cycle polynomial of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mod", type=int, default=None)

    p = sub.add_parser("vnp-sum", help="Boolean sum of a circuit over its last variables")
    _circuit_arg(p)
    p.add_argument("--summed", type=int, required=True)
    p.add_argument("--x", default="", help="comma-separated values for the free variables")
    p.add_argument("--mod", type=int, default=None)

    return parser


def _cmd_eval(args):
    c = parse_circuit(_read(args.circuit))
    ring = PrimeField(args.p) if args.ring == "modp" else IntegerRing()
    value = evaluate(c, ring, _ints(args.vars), _ints(args.params))
    return {"value": str(value)}, [f"result={value}"]


def _cmd_degree(args):
    c = parse_circuit(_read(args.circuit))
    m = metrics(c)
    lines = [
        f"formal_degree={m.formal_degree}",
        f"size={m.size}",
        f"gates={m.gate_count}",
        f"constant_free={'true' if is_constant_free(c) else 'false'}",
    ]
    obj = {
        "formal_degree": m.formal_degree,
        "size": m.size,
        "gates": m.gate_count,
        "constant_free": is_constant_free(c),
    }
    return obj, lines


def _cmd_weight(args):
    c = parse_circuit(_read(args.circuit))
    rep = weight_report(c, budget=args.monomial_budget)
    lines = [
        f"exact_weight={rep.exact_weight}",
        f"bound={rep.bound}",
        f"bound_holds={'true' if rep.bound_holds else 'false'}",
        f"size={rep.size}",
        f"formal_degree={rep.formal_degree}",
        f"max_const={rep.max_const_abs}",
    ]
    obj = {
        "exact_weight": str(rep.exact_weight),
        "bound": str(rep.bound),
        "bound_holds": rep.bound_holds,
        "size": rep.size,
        "formal_degree": rep.formal_degree,
        "max_const": rep.max_const_abs,
    }
    return obj, lines


def _cmd_embed(args):
    c = parse_circuit(_read(args.circuit))
    emb = embed(c, args.p, seed=args.seed)
    params = ",".join(str(v) for v in emb.params)
    lines = [f"levels={emb.levels}", f"params={params}", "verified=true"]
    return {"levels": emb.levels, "params": list(emb.params), "verified": True}, lines


def _cmd_forge(args):
    result = forge.find_hard_vector(args.s, args.d, args.p, solve_budget=args.eval_budget)
    enum = forge.realizable_vectors(
        args.s, args.d, args.p, oracle="circuit-enumeration", enum_size=args.enum_size
    )
    sweep_first = forge.lex_first_missing(result.realized, args.d)
    enum_first = forge.lex_first_missing(enum.vectors, args.d)
    lines = [
        "oracles=system-solve,parameter-sweep,circuit-enumeration",
        f"saturated={'true' if result.saturated else 'false'}",
        f"gamma={'none' if result.gamma is None else _bits(result.gamma)}",
        f"gamma_sweep={'none' if sweep_first is None else _bits(sweep_first)}",
        f"gamma_enum={'none' if enum_first is None else _bits(enum_first)}",
        f"realized_sweep={len(result.realized)}",
        f"realized_enum={len(enum.vectors)}",
        f"systems_checked={result.systems_checked}",
        f"oracles_agree={'true' if enum_first == result.gamma else 'false'}",
    ]
    obj = {
        "oracles": ["system-solve", "parameter-sweep", "circuit-enumeration"],
        "saturated": result.saturated,
        "gamma": None if result.gamma is None else _bits(result.gamma),
        "gamma_sweep": None if sweep_first is None else _bits(sweep_first),
        "gamma_enum": None if enum_first is None else _bits(enum_first),
        "realized_sweep": len(result.realized),
        "realized_enum": len(enum.vectors),
        "systems_checked": result.systems_checked,
        "oracles_agree": enum_first == result.gamma,
    }
    return obj, lines


def _cmd_signcond(args):
    result = forge.sign_condition_search(args.s, args.cap)
    lines = [
        f"saturated={'true' if result.saturated else 'false'}",
        f"bits={'none' if result.bits is None else _bits(result.bits)}",
        f"realized={len(result.realized)}",
        f"circuits={result.circuits_enumerated}",
    ]
    obj = {
        "saturated": result.saturated,
        "bits": None if result.bits is None else _bits(result.bits),
        "realized": len(result.realized),
        "circuits": result.circuits_enumerated,
    }
    return obj, lines


def _cmd_poscoef(args):
    c = parse_circuit(_read(args.circuit))
    sign = forge.poscoef(c, args.i, budget=args.monomial_budget)
    word = {1: "positive", 0: "zero", -1: "negative"}[sign]
    return {"sign": word}, [f"sign={word}"]


def _cmd_density(args):
    system = systems.parse_system(_read(args.system))
    report = systems.density_probe(system, args.limit, solve_budget=args.eval_budget)
    lines = [
        report.summary(),
        f"good_primes={','.join(str(q) for q in report.good_primes)}",
        f"complete={'true' if report.complete else 'false'}",
        f"high_water={report.high_water}",
    ]
    obj = {
        "pi_S": report.pi_s,
        "pi": report.pi,
        "ratio": report.ratio,
        "good_primes": list(report.good_primes),
        "complete": report.complete,
        "high_water": report.high_water,
    }
    return obj, lines


def _cmd_solve(args):
    system = systems.parse_system(_read(args.system))
    witness = systems.solve_bruteforce(system, args.p, budget=args.eval_budget)
    text = "none" if witness is None else ",".join(str(v) for v in witness)
    obj = {"witness": None if witness is None else list(witness)}
    return obj, [f"witness={text}"]


def _cmd_gs_sim(args):
    universe = 1 << args.bits
    if args.size > universe:
        raise ValueError(f"set size {args.size} exceeds the {args.bits}-bit universe")
    rng = random.Random(args.seed)
    elements = rng.sample(range(universe), args.size)
    report = protocols.gs_estimate(
        elements, args.m, args.trials, seed=args.seed, cols=args.bits
    )
    lines = [
        f"rate={report.rate!r}",
        f"verdict={report.verdict}",
        f"phi_count={report.phi_count}",
        f"set_size={report.set_size}",
    ]
    obj = {
        "rate": report.rate,
        "verdict": report.verdict,
        "phi_count": report.phi_count,
        "set_size": report.set_size,
    }
    return obj, lines


def _cmd_per_verify(args):
    chain = parse_circuits(_read(args.chain).splitlines())
    report = protocols.permanent_verify(chain, args.p, args.trials, args.seed)
    lines = [
        f"accepted={'true' if report.accepted else 'false'}",
        f"reason={report.reason}",
    ]
    return {"accepted": report.accepted, "reason": report.reason}, lines


def _cmd_ama_sim(args):
    prover = (
        protocols.HonestProver()
        if args.prover == "honest"
        else protocols.CheatingProver()
    )
    transcript = protocols.ama_simulate(
        _ints(args.x),
        args.i,
        args.b,
        prover,
        seed=args.seed,
        k=args.k,
        m=args.m,
        cols=args.bits,
        verify_trials=args.trials,
    )
    lines = transcript.to_text().rstrip("\n").split("\n")
    return transcript.to_json_obj(), lines


def _cmd_per(args):
    value = families.permanent(_read_matrix(args.matrix), mod=args.mod)
    return {"value": str(value)}, [f"result={value}"]


def _cmd_hc(args):
    value = families.hamiltonian_cycle_sum(_read_matrix(args.matrix), mod=args.mod)
    return {"value": str(value)}, [f"result={value}"]


def _cmd_vnp_sum(args):
    c = parse_circuit(_read(args.circuit))
    ring = PrimeField(args.mod) if args.mod is not None else IntegerRing()
    value = families.boolean_sum(c, ring, _ints(args.x), args.summed)
    return {"value": str(value)}, [f"result={value}"]


_HANDLERS = {
    "eval": _cmd_eval,
    "degree": _cmd_degree,
    "weight": _cmd_weight,
    "embed": _cmd_embed,
    "forge": _cmd_forge,
    "signcond": _cmd_signcond,
    "poscoef": _cmd_poscoef,
    "density": _cmd_density,
    "solve": _cmd_solve,
    "gs-sim": _cmd_gs_sim,
    "per-verify": _cmd_per_verify,
    "ama-sim": _cmd_ama_sim,
    "per": _cmd_per,
    "hc": _cmd_hc,
    "vnp-sum": _cmd_vnp_sum,
}


def _config_lines(args):
    skip = {"command", "json"}
    lines = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            value = "none"
        lines.append(f"arg.{key}={value}")
    return lines


def _config_obj(args):
    skip = {"command", "json"}
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
    handler = _HANDLERS[args.command]
    try:
        obj, lines = handler(args)
    except BudgetError as exc:
        print(f"error=budget: {exc}")
        return 2
    except MemoryError as exc:
        print(f"error=out of memory: {exc}" if str(exc) else "error=out of memory")
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error={exc}")
        return 1
    if args.json:
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "config": _config_obj(args),
            "result": obj,
        }
        print(json.dumps(report, sort_keys=True))
    else:
        out = [f"schema={SCHEMA}", f"command={args.command}"]
        out.extend(_config_lines(args))
        out.extend(lines)
        print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
