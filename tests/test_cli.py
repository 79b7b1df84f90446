import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from circuitbench import cli, forge
from circuitbench.cli import main

SQUARE = "nvars 1\ng1 = in 1\ng2 = const -1\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n"
# every budget refusal: one stdout line naming what ran over which budget
BUDGET_FORM = r"^error=budget: .+ exceed the [a-z -]+ budget \d+$"
XSQ_PLUS_1 = (
    "unknowns 1\n"
    "nvars 0\nnparams 1\ng1 = param 1\ng2 = mul g1 g1\ng3 = const 1\ng4 = add g2 g3\nout g4\n"
)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.circ"
    path.write_text(SQUARE)
    return str(path)


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "xsq_plus_1.sys"
    path.write_text(XSQ_PLUS_1)
    return str(path)


@pytest.fixture
def ones3_file(tmp_path):
    path = tmp_path / "ones3.mat"
    path.write_text("1 1 1\n1 1 1\n1 1 1\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_eval(capsys, square_file):
    code, out = run(capsys, ["eval", "--circuit", square_file, "--vars", "3"])
    assert code == 0
    assert "result=4" in out


def test_eval_modp(capsys, square_file):
    code, out = run(
        capsys, ["eval", "--circuit", square_file, "--ring", "modp", "--p", "5", "--vars", "3"]
    )
    assert code == 0
    assert "result=4" in out


def test_degree_and_weight(capsys, square_file):
    code, out = run(capsys, ["degree", "--circuit", square_file])
    assert code == 0
    assert "formal_degree=2" in out
    code, out = run(capsys, ["weight", "--circuit", square_file])
    assert code == 0
    assert "exact_weight=4" in out
    assert "bound_holds=true" in out


def test_embed(capsys, square_file):
    code, out = run(capsys, ["embed", "--circuit", square_file, "--p", "101"])
    assert code == 0
    assert "verified=true" in out
    assert "levels=3" in out


def test_forge_contains_gamma(capsys):
    code, out = run(capsys, ["forge", "--s", "1", "--d", "2", "--p", "5"])
    assert code == 0
    assert "gamma=001" in out


def test_density_line(capsys, system_file):
    code, out = run(capsys, ["density", "--system", system_file, "--limit", "20"])
    assert code == 0
    assert "pi_S=4 pi=8 ratio=0.5" in out


def test_solve(capsys, system_file):
    code, out = run(capsys, ["solve", "--system", system_file, "--p", "5"])
    assert code == 0
    assert "witness=2" in out
    code, out = run(capsys, ["solve", "--system", system_file, "--p", "7"])
    assert code == 0
    assert "witness=none" in out


def test_huge_formal_degree_system_answers(capsys, tmp_path):
    # param squared 40 times, plus 1: formal degree 2^40, so D^2 >= p and
    # the solver takes its loop nest, never a dense polynomial
    squarings = "".join(f"g{k} = mul g{k - 1} g{k - 1}\n" for k in range(2, 42))
    path = tmp_path / "huge.sys"
    path.write_text(
        "unknowns 1\nnvars 0\nnparams 1\ng1 = param 1\n"
        + squarings
        + "g42 = const 1\ng43 = add g41 g42\nout g43\n"
    )
    code, out = run(capsys, ["solve", "--system", str(path), "--p", "101"])
    assert code == 0 and "witness=none" in out
    code, out = run(capsys, ["density", "--system", str(path), "--limit", "200"])
    assert code == 0 and "pi_S=1 pi=46 " in out


def test_per(capsys, ones3_file):
    code, out = run(capsys, ["per", "--matrix", ones3_file])
    assert code == 0
    assert "result=6" in out


def test_hc(capsys, ones3_file):
    code, out = run(capsys, ["hc", "--matrix", ones3_file])
    assert code == 0
    assert "result=2" in out


def test_vnp_sum(capsys, tmp_path):
    path = tmp_path / "sum.circ"
    path.write_text("nvars 3\ng1 = in 1\ng2 = in 2\ng3 = in 3\ng4 = mul g2 g3\ng5 = mul g1 g4\nout g5\n")
    code, out = run(capsys, ["vnp-sum", "--circuit", str(path), "--summed", "2", "--x", "5"])
    assert code == 0
    assert "result=5" in out


def test_signcond(capsys):
    code, out = run(capsys, ["signcond", "--s", "1", "--D", "2"])
    assert code == 0
    assert "bits=001" in out


def test_poscoef(capsys, tmp_path):
    path = tmp_path / "sq.circ"
    path.write_text("nvars 1\ng1 = in 1\ng2 = const -1\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n")
    code, out = run(capsys, ["poscoef", "--circuit", str(path), "--i", "1"])
    assert code == 0
    assert "sign=negative" in out


def test_gs_sim(capsys):
    code, out = run(capsys, ["gs-sim", "--size", "64", "--trials", "50"])
    assert code == 0
    assert "verdict=large" in out


def test_gs_sim_empty_set_without_matrices_is_small(capsys):
    # with no matrices and no elements there is no pivot, so phi never holds
    code, out = run(capsys, ["gs-sim", "--size", "0", "--m", "0"])
    assert code == 0
    assert out.endswith("rate=0.0\nverdict=small\nphi_count=0\nset_size=0\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--system", "huge.sys", "--p", "101"],
         "101^100000000 assignments exceed the eval budget 100000000"),
        (["forge", "--s", "400", "--d", "1", "--p", "5"],
         "5^160400 assignments exceed the eval budget 100000000"),
    ],
    ids=["solve", "forge"],
)
def test_assignment_budget_refuses_at_once(capsys, tmp_path, monkeypatch, argv, message):
    huge = "unknowns 100000000\nnvars 0\nnparams 1\ng1 = param 1\nout g1\n"
    (tmp_path / "huge.sys").write_text(huge)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out = run(capsys, argv)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == f"error=budget: {message}\n"
    assert re.match(BUDGET_FORM, out)


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["density", "--system", "xsq_plus_1.sys", "--limit", "100000000000"], 100000000000),
        (["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "0", "--b", "1", "--bits", "30"],
         2**30 - 1),
    ],
    ids=["density", "ama-sim"],
)
def test_sieve_budget_refuses_before_allocating(capsys, tmp_path, monkeypatch, argv, limit):
    (tmp_path / "xsq_plus_1.sys").write_text(XSQ_PLUS_1)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out = run(capsys, argv)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == f"error=budget: the integers up to {limit} exceed the sieve budget 10000000\n"
    assert re.match(BUDGET_FORM, out)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gs-sim", "--size", "20000000", "--bits", "30", "--trials", "1"],
         "16 hash rows over 20000000 elements exceed the eval budget 100000000"),
        (["gs-sim", "--size", "64", "--trials", "100000000"],
         "1600000000 hash rows over 64 elements exceed the eval budget 100000000"),
        # m^2 rows over the 564 primes below 2^12
        (["ama-sim", "--x", "0,2,3,0,1,2,2,3", "--i", "1", "--b", "0", "--m", "3000"],
         "9000000 hash rows over 564 elements exceed the eval budget 100000000"),
    ],
    ids=["gs-sim-size", "gs-sim-trials", "ama-sim-m"],
)
def test_hashing_budget_refuses_before_drawing(capsys, argv, message):
    start = time.perf_counter()
    code, out = run(capsys, argv)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == f"error=budget: {message}\n"
    assert re.match(BUDGET_FORM, out)


AMA = ["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "0", "--b", "1"]
# every count option: (argv without it, the option, its bound, the name its refusal gives)
COUNT_OPTIONS = [
    (["forge", "--d", "1", "--p", "5"], "--s", 1, "level count"),
    (["forge", "--s", "1", "--p", "5"], "--d", 0, "d"),
    (["forge", "--s", "1", "--d", "1", "--p", "5"], "--enum-size", 0, "vertex bound"),
    (["signcond", "--D", "2"], "--s", 0, "s"),
    (["signcond", "--s", "2"], "--D", 0, "cap"),
    (["poscoef", "--circuit", "square.circ"], "--i", 0, "coefficient index"),
    (["density", "--system", "xsq_plus_1.sys"], "--limit", 0, "--limit"),
    (["gs-sim"], "--size", 0, "--size"),
    (["gs-sim", "--size", "1"], "--bits", 0, "--bits"),
    (["gs-sim", "--size", "8"], "--m", 0, "m"),
    (["gs-sim", "--size", "8"], "--trials", 0, "trials"),
    (["per-verify", "--chain", "chain.circs", "--p", "101"], "--trials", 0, "trials"),
    (["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--b", "1"], "--i", 0, "bit position"),
    (AMA, "--k", 0, "k"),
    (AMA, "--m", 0, "m"),
    (AMA, "--bits", 0, "--bits"),
    (AMA, "--trials", 0, "verify trials"),
    (["per", "--matrix", "ones3.mat"], "--mod", 1, "modulus"),
    (["hc", "--matrix", "ones3.mat"], "--mod", 1, "modulus"),
] + [
    (argv, budget, 0, budget)
    for argv in (
        ["solve", "--system", "xsq_plus_1.sys", "--p", "5"],
        ["density", "--system", "xsq_plus_1.sys", "--limit", "20"],
        ["weight", "--circuit", "square.circ"],
        ["vnp-sum", "--circuit", "square.circ", "--summed", "1", "--x", ""],
    )
    for budget in ("--eval-budget", "--monomial-budget")
]
COUNT_IDS = [f"{argv[0]}-{option.lstrip('-')}" for argv, option, _, _ in COUNT_OPTIONS]
# every argument refusal: one stdout line naming the argument, its bound and its value
ARGUMENT_FORM = r"^error=(--)?[a-z][a-z _-]* must be >= -?\d+, got -?\d+$"


def assert_argument_refusal(capsys, argv, message):
    """`argv` exits 1 with exactly `message`, one line in ARGUMENT_FORM, and
    nothing on stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == f"error={message}\n"
    assert re.match(ARGUMENT_FORM, captured.out)
    assert captured.err == ""


@pytest.fixture
def count_option_inputs(tmp_path, monkeypatch, square_file, system_file, ones3_file, chain_file):
    """The input files COUNT_OPTIONS names, in the working directory."""
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv, option, low, name", COUNT_OPTIONS, ids=COUNT_IDS)
def test_negative_option_is_named_in_the_error(
    capsys, count_option_inputs, argv, option, low, name
):
    assert_argument_refusal(
        capsys, [*argv, option, str(low - 1)], f"{name} must be >= {low}, got {low - 1}"
    )


@pytest.mark.parametrize("argv, option, low, name", COUNT_OPTIONS, ids=COUNT_IDS)
def test_count_option_at_its_bound_passes_the_check(
    capsys, count_option_inputs, argv, option, low, name
):
    # a budget of 0 is a budget: it refuses all work, in the budget form
    code, out = run(capsys, [*argv, option, str(low)])
    assert code == 0 or (code == 2 and re.match(BUDGET_FORM, out)), out


def test_gs_sim_refuses_a_universe_it_cannot_sample(capsys):
    code, out = run(capsys, ["gs-sim", "--size", "64", "--bits", "100000"])
    assert code == 1
    assert out == (
        "error=the 100000-bit universe exceeds the sampling limit "
        f"sys.maxsize = {sys.maxsize}\n"
    )


@pytest.mark.parametrize(
    "argv, token, option",
    [
        (["eval", "--vars", "1_0"], "1_0", "--vars"),
        (["eval", "--vars", " +3"], " +3", "--vars"),
        (["eval", "--vars", "3", "--params", "1,,2"], "", "--params"),
        (["vnp-sum", "--summed", "0", "--x", "\u0663"], "\u0663", "--x"),
    ],
)
def test_argv_integers_are_strict(capsys, square_file, argv, token, option):
    code, out = run(capsys, [argv[0], "--circuit", square_file, *argv[1:]])
    assert code == 1
    assert out == f"error=bad integer {token!r} in {option}\n"


def test_ama_sim_argv_integers_are_strict(capsys):
    code, out = run(capsys, ["ama-sim", "--x", "2,3,1,+4,1,1,1,1", "--i", "0", "--b", "0"])
    assert code == 1
    assert out == "error=bad integer '+4' in --x\n"


@pytest.fixture
def chain_file(tmp_path):
    from circuitbench.circuits import serialize_circuit
    from circuitbench.protocols import build_permanent_chain

    path = tmp_path / "chain.circs"
    path.write_text("---\n".join(serialize_circuit(c) for c in build_permanent_chain(2)))
    return str(path)


def test_per_verify(capsys, chain_file):
    code, out = run(capsys, ["per-verify", "--chain", chain_file, "--p", "101"])
    assert code == 0
    assert "accepted=true" in out


def test_ama_sim(capsys):
    code, out = run(
        capsys,
        ["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "0", "--b", "1", "--seed", "5"],
    )
    assert code == 0
    assert "verdict=accept answer=1" in out


def test_unknown_command_exits_64(capsys):
    assert main(["frobnicate"]) == 64
    assert main([]) == 64


def test_domain_error_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.circ"
    path.write_text("nvars 1\ng1 = add g2 g2\nout g1\n")
    code, out = run(capsys, ["degree", "--circuit", str(path)])
    assert code == 1
    assert "error=" in out


@pytest.mark.parametrize("command", ["per", "hc"])
def test_malformed_matrix_names_the_line(capsys, tmp_path, command):
    path = tmp_path / "bad.mat"
    path.write_text("1 2\n3 x\n")
    code, out = run(capsys, [command, "--matrix", str(path)])
    assert code == 1
    assert out.startswith("error=line 2: ")


@pytest.mark.parametrize("command", ["per", "hc"])
def test_ragged_matrix_names_the_row(capsys, tmp_path, command):
    path = tmp_path / "ragged.mat"
    path.write_text("1 2\n3\n")
    code, out = run(capsys, [command, "--matrix", str(path)])
    assert code == 1
    assert out == "error=line 2: expected 2 entries, one per row, got 1\n"


@pytest.mark.parametrize("mod", ["0", "-3"])
@pytest.mark.parametrize("command", ["per", "hc"])
def test_matrix_modulus_below_one_exits_1(capsys, ones3_file, command, mod):
    code = main([command, "--matrix", ones3_file, "--mod", mod])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == f"error=modulus must be >= 1, got {mod}\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "summed, budget, message",
    [
        # 24 summed variables of a 47-node circuit: 2^24 * 47 evaluations
        (24, [], "2^24 evaluations of 47 nodes exceed the eval budget 100000000"),
        (2, ["--eval-budget", str(4 * 47 - 1)],
         "2^2 evaluations of 47 nodes exceed the eval budget 187"),
    ],
    ids=["summed-24", "eval-budget"],
)
def test_vnp_sum_charges_its_work_to_the_eval_budget(capsys, tmp_path, summed, budget, message):
    lines = ["nvars 24"] + [f"g{j} = in {j}" for j in range(1, 25)]
    lines += [f"g{j + 24} = add g{j + 23} g{j + 1}" for j in range(1, 24)]
    path = tmp_path / "sum24.circ"
    path.write_text("\n".join(lines + ["out g47"]) + "\n")
    free = ",".join("1" * (24 - summed))
    argv = ["vnp-sum", "--circuit", str(path), "--summed", str(summed), "--x", free, *budget]
    code, out = run(capsys, argv)
    assert code == 2
    assert out == f"error=budget: {message}\n"
    assert re.match(BUDGET_FORM, out)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("unknowns 1\n---\nnvars 1\ng1 = in 1\nout g1\n", 3,
         "system equations must not have free input variables"),
        ("unknowns 1\n---\nnvars 0\nnparams 2\ng1 = param 2\nout g1\n", 4,
         "equation references an unknown beyond the declared count"),
    ],
)
def test_system_equation_refusals_name_the_line(capsys, tmp_path, text, line, message):
    path = tmp_path / "bad.sys"
    path.write_text(text)
    code, out = run(capsys, ["solve", "--system", str(path), "--p", "5"])
    assert code == 1
    assert out == f"error=line {line}: {message}\n"


FORGE_REFUSALS = [
    (["--s", "0", "--d", "2", "--p", "5"], "level count must be >= 1, got 0"),
    (["--s", "-1", "--d", "2", "--p", "5"], "level count must be >= 1, got -1"),
    (["--s", "2", "--d", "-1", "--p", "5"], "d must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "argv, message", FORGE_REFUSALS, ids=[f"argv{i}" for i in range(len(FORGE_REFUSALS))]
)
def test_forge_bad_level_count_or_degree_exits_1(capsys, argv, message):
    assert_argument_refusal(capsys, ["forge", *argv], message)


AMA_B0 = ["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "0", "--b", "0"]
NEGATIVE_COUNTS = [
    (["forge", "--s", "1", "--d", "2", "--p", "5", "--enum-size", "-1"],
     "vertex bound must be >= 0, got -1"),
    (["gs-sim", "--size", "8", "--trials", "-5"], "trials must be >= 0, got -5"),
    (["gs-sim", "--size", "8", "--m", "-2"], "m must be >= 0, got -2"),
    ([*AMA_B0, "--trials", "-1"], "verify trials must be >= 0, got -1"),
    ([*AMA_B0, "--m", "-1"], "m must be >= 0, got -1"),
    ([*AMA_B0, "--k", "-1"], "k must be >= 0, got -1"),
    (["signcond", "--s", "-1", "--D", "3"], "s must be >= 0, got -1"),
    (["signcond", "--s", "0", "--D", "-1"], "cap must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "argv, message", NEGATIVE_COUNTS, ids=[f"argv{i}" for i in range(len(NEGATIVE_COUNTS))]
)
def test_negative_count_exits_1(capsys, argv, message):
    assert_argument_refusal(capsys, argv, message)


def test_per_verify_negative_trials_exits_1(capsys, chain_file):
    code, out = run(capsys, ["per-verify", "--chain", chain_file, "--p", "101", "--trials", "-3"])
    assert code == 1
    assert out == "error=trials must be >= 0, got -3\n"


@pytest.mark.parametrize(
    "exc, code", [(MemoryError, 2), (RecursionError("maximum recursion depth exceeded"), 1)]
)
def test_resource_exhaustion_exits_without_traceback(capsys, monkeypatch, square_file, exc, code):
    def handler(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_degree", handler)
    assert main(["degree", "--circuit", square_file]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith("error=") and captured.out.count("\n") == 1
    assert captured.err == ""


def test_forge_refuses_solver_budget_before_sweeping(capsys, monkeypatch):
    def sweep(*args):
        raise AssertionError("the sweep ran before the solver budget check")

    monkeypatch.setattr(forge, "_sweep_image", sweep)
    code, out = run(capsys, ["forge", "--s", "3", "--d", "4", "--p", "11"])
    assert code == 2
    assert out.startswith("error=budget: ")


def test_budget_error_exits_2(capsys, system_file):
    code, out = run(
        capsys, ["solve", "--system", system_file, "--p", "101", "--eval-budget", "3"]
    )
    assert code == 2
    assert "error=budget" in out


def test_reports_embed_config(capsys, square_file):
    code, out = run(capsys, ["degree", "--circuit", square_file])
    assert code == 0
    assert "schema=circuitbench-report-v1" in out
    assert "command=degree" in out
    assert "arg.seed=0" in out


def test_json_report(capsys, square_file):
    code, out = run(capsys, ["weight", "--circuit", square_file, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "circuitbench-report-v1"
    assert obj["result"]["exact_weight"] == "4"
    assert obj["config"]["seed"] == 0


def test_determinism_byte_identical(capsys, square_file, system_file, ones3_file, tmp_path):
    sq = square_file
    chain_path = tmp_path / "chain.circs"
    from circuitbench.circuits import serialize_circuit
    from circuitbench.protocols import build_permanent_chain

    chain_path.write_text("---\n".join(serialize_circuit(c) for c in build_permanent_chain(2)))
    sum_path = tmp_path / "sum.circ"
    sum_path.write_text("nvars 2\ng1 = in 1\ng2 = in 2\ng3 = add g1 g2\nout g3\n")
    invocations = [
        ["eval", "--circuit", sq, "--vars", "3"],
        ["degree", "--circuit", sq],
        ["weight", "--circuit", sq],
        ["embed", "--circuit", sq, "--p", "101"],
        ["forge", "--s", "1", "--d", "2", "--p", "5"],
        ["signcond", "--s", "2", "--D", "3"],
        ["poscoef", "--circuit", sq, "--i", "2"],
        ["density", "--system", system_file, "--limit", "20"],
        ["solve", "--system", system_file, "--p", "5"],
        ["gs-sim", "--size", "16", "--trials", "30", "--seed", "9"],
        ["per-verify", "--chain", str(chain_path), "--p", "101", "--seed", "3"],
        ["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "1", "--b", "0", "--seed", "4"],
        ["per", "--matrix", ones3_file],
        ["hc", "--matrix", ones3_file],
        ["vnp-sum", "--circuit", str(sum_path), "--summed", "2", "--x", ""],
    ]
    for argv in invocations:
        first_code, first = run(capsys, argv)
        second_code, second = run(capsys, argv)
        assert first_code == second_code == 0, argv
        assert first == second, argv
        json_one = run(capsys, argv + ["--json"])[1]
        json_two = run(capsys, argv + ["--json"])[1]
        assert json_one == json_two, argv


def test_signcond_refuses_work_beyond_its_budget(capsys):
    # each circuit costs D + 1 bits: 2,000,000 // 20,001 leaves room for 99 circuits;
    # a D + 1 above the budget is refused before any circuit is enumerated
    for cap, work in ((20000, 100 * 20001), (10**9, 10**9 + 1)):
        code, out = run(capsys, ["signcond", "--s", "5", "--D", str(cap)])
        assert code == 2
        assert out == (
            f"error=budget: {work} coefficient signs ({cap + 1} per circuit) exceed the"
            " sign-condition budget 2000000\n"
        )
        assert re.match(BUDGET_FORM, out)


def _report_parts(capsys, argv):
    """(text result lines, JSON result object) of one command, header checked."""
    code, text = run(capsys, argv)
    assert code == 0, argv
    code, raw = run(capsys, argv + ["--json"])
    assert code == 0, argv
    report = json.loads(raw)
    config = report["config"]
    lines = text.rstrip("\n").split("\n")
    header = [f"schema={cli.SCHEMA}", f"command={argv[0]}"]
    header += [f"arg.{key}={cli._text(value)}" for key, value in config.items()]
    assert lines[: len(header)] == header, argv
    return lines[len(header):], report["result"]


def _shared_rule(lines, result):
    """The text lines `_text` gives for `result`, in the text's key order."""
    keys = [line.split("=", 1)[0] for line in lines]
    assert sorted(keys) == sorted(result)
    return [f"{key}={cli._text(result[key])}" for key in keys]


def test_text_result_lines_render_the_json_result(capsys, square_file, system_file, chain_file):
    invocations = [
        ["degree", "--circuit", square_file],
        ["weight", "--circuit", square_file],
        ["embed", "--circuit", square_file, "--p", "101"],
        ["forge", "--s", "1", "--d", "2", "--p", "5"],
        ["forge", "--s", "1", "--d", "0", "--p", "5"],
        ["signcond", "--s", "2", "--D", "3"],
        ["signcond", "--s", "3", "--D", "0"],
        ["poscoef", "--circuit", square_file, "--i", "1"],
        ["solve", "--system", system_file, "--p", "5"],
        ["solve", "--system", system_file, "--p", "7"],
        ["gs-sim", "--size", "16", "--trials", "30", "--seed", "9"],
        ["per-verify", "--chain", chain_file, "--p", "101", "--seed", "3"],
    ]
    for argv in invocations:
        lines, result = _report_parts(capsys, argv)
        assert lines == _shared_rule(lines, result), argv


def test_text_report_exceptions(capsys, square_file, system_file, ones3_file, tmp_path):
    sum_path = tmp_path / "sum.circ"
    sum_path.write_text("nvars 2\ng1 = in 1\ng2 = in 2\ng3 = add g1 g2\nout g3\n")
    # eval, per, hc and vnp-sum: 'result=' in text, 'value' in JSON
    for argv in (
        ["eval", "--circuit", square_file, "--vars", "3"],
        ["per", "--matrix", ones3_file],
        ["hc", "--matrix", ones3_file, "--mod", "5"],
        ["vnp-sum", "--circuit", str(sum_path), "--summed", "1", "--x", "4"],
    ):
        lines, result = _report_parts(capsys, argv)
        assert list(result) == ["value"], argv
        assert lines == [f"result={result['value']}"], argv
    # density: one summary line for the three counts, then the shared rule
    lines, result = _report_parts(capsys, ["density", "--system", system_file, "--limit", "20"])
    assert lines[0] == f"pi_S={result['pi_S']} pi={result['pi']} ratio={result['ratio']!r}"
    rest = {k: v for k, v in result.items() if k not in ("pi_S", "pi", "ratio")}
    assert lines[1:] == _shared_rule(lines[1:], rest)
    # ama-sim: the transcript, one line per round, then the verdict
    argv = ["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "1", "--b", "0", "--seed", "4"]
    lines, result = _report_parts(capsys, argv)
    rounds = [
        f"round={r['round']} sender={r['sender']} payload={r['payload']}"
        for r in result["rounds"]
    ]
    verdict = f"verdict={result['verdict']} answer={cli._text(result['answer'])}"
    assert lines == rounds + [verdict]


def test_cli_session_matches_recorded_hashes(capsys, monkeypatch):
    """Every benchmark CLI command prints exactly its recorded output."""
    root = Path(__file__).resolve().parent.parent
    expected = json.loads((root / "perfbench" / "expected.json").read_text())
    golden = expected["cli_session"]["stdout_sha256"]
    monkeypatch.chdir(root)
    mismatched = []
    for command, digest in golden.items():
        code = main(command.split(" "))
        out = capsys.readouterr().out
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            mismatched.append(command)
    assert len(golden) == 30
    assert mismatched == []


SRC = Path(__file__).resolve().parent.parent / "src"
# the layers that a command loads only when it runs them
LAYERS = {"forge", "protocols", "systems", "universal", "pit", "families"}
PRINT_LOADED = (
    "print(*sorted(m for m in sys.modules if m.startswith('circuitbench.')), file=sys.stderr)"
)


def _fresh(argv):
    """Run python `argv` in a fresh interpreter that imports circuitbench from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def _loaded(code, *args):
    """The circuitbench submodules loaded after `code` runs in a fresh
    interpreter (with `args` as sys.argv[1:]), and its stdout."""
    done = _fresh(["-c", f"import sys\n{code}\n{PRINT_LOADED}", *args])
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("circuitbench.") for name in done.stderr.split()}, done.stdout


def test_package_import_loads_no_submodule():
    assert _loaded("import circuitbench")[0] == set()


def test_cli_import_loads_no_command_layer():
    loaded, _ = _loaded("import circuitbench.cli")
    assert "circuits" in loaded
    assert loaded & LAYERS == set()


def test_no_layer_imports_dataclasses_or_inspect():
    # records are plain slotted classes; `dataclasses` alone costs ~10 ms per command
    imports = "\n".join(f"import circuitbench.{name}" for name in ["cli", *sorted(LAYERS)])
    done = _fresh(["-c", f"import sys\n{imports}\nprint(*sorted(sys.modules))"])
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "circuitbench.families" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


COMMAND_LAYERS = [
    (["degree", "--circuit", "square.circ"], LAYERS - {"families"}),
    (["eval", "--circuit", "square.circ", "--vars", "3"], LAYERS - {"families"}),
    (["weight", "--circuit", "square.circ"], LAYERS - {"families"}),
    (["per", "--matrix", "ones3.mat"], LAYERS - {"families"}),
    (["hc", "--matrix", "ones3.mat"], LAYERS - {"families"}),
    (["vnp-sum", "--circuit", "square.circ", "--summed", "1"], LAYERS - {"families"}),
    (["embed", "--circuit", "square.circ", "--p", "101"], {"forge", "systems", "protocols"}),
    (["forge", "--s", "1", "--d", "2", "--p", "5"], {"protocols", "families"}),
    (["density", "--system", "xsq_plus_1.sys", "--limit", "20"],
     {"forge", "protocols", "families"}),
    (["solve", "--system", "xsq_plus_1.sys", "--p", "5"], {"forge", "protocols", "families"}),
    (["gs-sim", "--size", "8", "--trials", "3"], {"forge", "systems", "universal", "families"}),
    (["per-verify", "--chain", "chain.circs", "--p", "101"],
     {"forge", "systems", "universal", "families"}),
    (["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "1", "--b", "0"],
     {"forge", "systems", "universal", "families"}),
]


@pytest.mark.parametrize(
    "argv, unloaded", COMMAND_LAYERS, ids=[argv[0] for argv, _ in COMMAND_LAYERS]
)
def test_command_loads_only_its_layers(tmp_path, monkeypatch, chain_file, argv, unloaded):
    (tmp_path / "square.circ").write_text(SQUARE)
    (tmp_path / "ones3.mat").write_text("1 1 1\n1 1 1\n1 1 1\n")
    (tmp_path / "xsq_plus_1.sys").write_text(XSQ_PLUS_1)
    monkeypatch.chdir(tmp_path)
    loaded, out = _loaded("from circuitbench import cli\nassert cli.main(sys.argv[1:]) == 0", *argv)
    assert out.startswith(f"schema=circuitbench-report-v1\ncommand={argv[0]}\n")
    assert "circuits" in loaded
    assert loaded & unloaded == set()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--help"], "5ce8714f7c333c3e27a73f40bd19073c0f8d61067aa8f5209cb8234188ab52ab"),
        (["forge", "--help"], "ccdac9bb934833ab3b13ce73c5701ad793e04c91ff2463c9dce08e558e733b03"),
    ],
    ids=["main", "forge"],
)
def test_help_text_is_unchanged(argv, digest):
    # argparse's text at 80 columns, as printed when every layer was imported up front
    done = _fresh(["-m", "circuitbench.cli", *argv])
    assert (done.returncode, done.stderr) == (0, "")
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["per-verify", "--chain", str(SRC.parent / "perfbench" / "cli_inputs" / "chain.circs"),
          "--p", "101", "--trials", "100000000"],
         "66000000000 node evaluations of 100000000 verification trials"),
        # six checked primes' rounds, each C_2 (7 nodes) once and C_1 (1 node) twice
        ([*AMA, "--trials", "100000000"],
         "5400000000 node evaluations of 600000000 verification trials"),
    ],
    ids=["per-verify", "ama-sim"],
)
def test_verification_budget_refuses_before_drawing(argv, message):
    start = time.perf_counter()
    done = _fresh(["-m", "circuitbench.cli", *argv])
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stderr) == (2, "")
    assert done.stdout == f"error=budget: {message} exceed the eval budget 100000000\n"


def test_enumeration_oracle_refuses_a_large_vertex_bound_at_once():
    # the oracle charges each level's closure steps before it grows the level
    argv = ["forge", "--s", "1", "--d", "2", "--p", "5", "--enum-size", "100"]
    start = time.perf_counter()
    done = _fresh(["-m", "circuitbench.cli", *argv])
    assert time.perf_counter() - start < 20
    assert (done.returncode, done.stderr) == (2, "")
    message = "3901972 closure steps exceed the enumeration budget 2000000"
    assert done.stdout == f"error=budget: {message}\n"


def _squarings(leaf, count):
    """A one-variable circuit: `leaf`, then `count` gates each squaring the last."""
    gates = [f"g{i} = mul g{i - 1} g{i - 1}" for i in range(2, count + 2)]
    return "\n".join(["nvars 1", f"g1 = {leaf}", *gates, f"out g{count + 1}"]) + "\n"


@pytest.mark.parametrize(
    "leaf, count, code, lines",
    [
        # 2^(2^39): p is below its degree bound; the check never leaves F_p
        ("const 2", 39, 1,
         ["error=p=101 does not exceed the formal degree bound 549755813888; "
          "the random-evaluation test would be unsound"]),
        ("in 1", 6, 0, ["levels=7", "verified=true"]),
    ],
    ids=["const-2-squared-39-times", "x-squared-6-times"],
)
def test_embed_mod_p_of_repeated_squaring_answers_at_once(tmp_path, leaf, count, code, lines):
    path = tmp_path / "squarings.circ"
    path.write_text(_squarings(leaf, count))
    start = time.perf_counter()
    done = _fresh(["-m", "circuitbench.cli", "embed", "--circuit", str(path), "--p", "101"])
    assert time.perf_counter() - start < 10
    assert (done.returncode, done.stderr) == (code, "")
    got = done.stdout.splitlines()
    assert got == lines if code else set(lines) <= set(got)


@pytest.mark.parametrize(
    "count, code, lines",
    [
        # 400 gates take 401 levels, 401 * 402 parameter slots
        (400, 2, ["error=budget: 161202 template parameters exceed the template budget 100000"]),
        (1000, 2, ["error=budget: 1003002 template parameters exceed the template budget 100000"]),
        (300, 0, ["levels=301", "verified=true"]),
    ],
    ids=["400-gates", "1000-gates", "300-gates"],
)
def test_embed_charges_the_template_before_building_it(tmp_path, count, code, lines):
    # x + x + ... + x: one level per gate, so the template grows as the square
    gates = [f"g{i} = add g{i - 1} g1" for i in range(2, count + 2)]
    path = tmp_path / "chain.circ"
    path.write_text("\n".join(["nvars 1", "g1 = in 1", *gates, f"out g{count + 1}"]) + "\n")
    start = time.perf_counter()
    done = _fresh(["-m", "circuitbench.cli", "embed", "--circuit", str(path), "--p", "101"])
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stderr) == (code, "")
    got = done.stdout.splitlines()
    assert got == lines if code else set(lines) <= set(got)
