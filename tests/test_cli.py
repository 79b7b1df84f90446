import json

import pytest

from circuitbench import cli
from circuitbench.cli import main

SQUARE = "nvars 1\ng1 = in 1\ng2 = const -1\ng3 = add g1 g2\ng4 = mul g3 g3\nout g4\n"
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


@pytest.mark.parametrize(
    "argv",
    [["--s", "0", "--d", "2", "--p", "5"], ["--s", "-1", "--d", "2", "--p", "5"],
     ["--s", "2", "--d", "-1", "--p", "5"]],
)
def test_forge_bad_level_count_or_degree_exits_1(capsys, argv):
    code, out = run(capsys, ["forge", *argv])
    assert code == 1
    assert out.startswith("error=") and out.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["forge", "--s", "1", "--d", "2", "--p", "5", "--enum-size", "-1"],
        ["gs-sim", "--size", "8", "--trials", "-5"],
        ["gs-sim", "--size", "8", "--m", "-2"],
        ["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "0", "--b", "0", "--trials", "-1"],
        ["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "0", "--b", "0", "--m", "-1"],
        ["ama-sim", "--x", "2,3,1,4,1,1,1,1", "--i", "0", "--b", "0", "--k", "-1"],
        ["signcond", "--s", "-1", "--D", "3"],
        ["signcond", "--s", "0", "--D", "-1"],
    ],
)
def test_negative_count_exits_1(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 1
    assert out.startswith("error=") and out.count("\n") == 1


def test_per_verify_negative_trials_exits_1(capsys, chain_file):
    code, out = run(capsys, ["per-verify", "--chain", chain_file, "--p", "101", "--trials", "-3"])
    assert code == 1
    assert out == "error=trials must be >= 0\n"


@pytest.mark.parametrize(
    "exc, code", [(MemoryError, 2), (RecursionError("maximum recursion depth exceeded"), 1)]
)
def test_resource_exhaustion_exits_without_traceback(capsys, monkeypatch, square_file, exc, code):
    def handler(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "degree", handler)
    assert main(["degree", "--circuit", square_file]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith("error=") and captured.out.count("\n") == 1
    assert captured.err == ""


def test_forge_refuses_solver_budget_before_sweeping(capsys, monkeypatch):
    def sweep(*args):
        raise AssertionError("the sweep ran before the solver budget check")

    monkeypatch.setattr(cli.forge, "_sweep_image", sweep)
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
