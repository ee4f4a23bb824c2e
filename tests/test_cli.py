import ast
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import blowuplab
import cli_manifest
from blowuplab import cli

HEADLINE = {
    "k": 0.004619714575484712,
    "t1": 9.968516692408222,
    "t2": 2.164635896136673,
    "t_s": 12.133152588544895,
}


def run_cli(*argv, cwd=None):
    # the warnings pytest turns into errors are errors in the CLI's process too
    return subprocess.run([sys.executable, "-W", "error::DeprecationWarning",
                           "-W", "error::RuntimeWarning", "-m", "blowuplab", *argv],
                          capture_output=True, text=True, cwd=cwd)


def run_json(*argv, cwd=None):
    proc = run_cli(*argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestExitCodes:
    def test_no_arguments_is_a_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_required_flag_is_a_usage_error(self, tmp_path):
        proc = run_cli("solve", "--model", "hyperbolic", "--k", "0.01",
                       "--I", "1", "--out", str(tmp_path))
        assert proc.returncode == 2

    def test_gbm_ensemble_requires_the_driver_level(self, tmp_path):
        proc = run_cli("ensemble", "--model", "gbm", "--k", "0.00462",
                       "--sigma", "0.1", "--paths", "5",
                       "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "--I" in proc.stderr

    def test_domain_errors_exit_3(self, tmp_path):
        # evaluating past the pole is a domain error, not a usage error
        proc = run_cli("solve", "--model", "hyperbolic", "--k", "0.00462",
                       "--I", "100", "--t-max", "3", "--out", str(tmp_path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "2.1645021645021645" in proc.stderr

    def test_a_level_past_double_range_exits_3(self, tmp_path):
        # (1 - 0.01*99.99)**-100 is 1e400: an overflow, not a traceback
        proc = run_cli("solve", "--model", "powerlaw", "--k", "1", "--I", "1", "--n", "1.01",
                       "--t-max", "99.99", "--out", str(tmp_path))
        assert proc.returncode == 3
        assert proc.stderr == "error: power-law level exceeds double range at t=99.99\n"

    def test_coupled_model_with_zero_rate_exits_3(self, tmp_path):
        proc = run_cli("solve", "--model", "coupled-gdp", "--k1", "0",
                       "--t-max", "1", "--out", str(tmp_path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "k1" in proc.stderr

    def test_coupled_simulation_with_zero_k2_exits_3(self, tmp_path):
        # the default Y0 is k1/k2
        proc = run_cli("simulate", "--model", "coupled-gdp", "--k1", "0.05",
                       "--k2", "0", "--t-max", "1", "--out", str(tmp_path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: invalid arithmetic in 'k1 / k2'")

    @pytest.mark.parametrize("argv", [
        ("simulate", "--dsl", "dA = 1e999*A", "--init", "A=1", "--t-max", "1"),
        ("classify", "--dsl", "1e999*A^2"),
    ])
    def test_non_finite_literal_exits_3(self, argv, tmp_path):
        proc = run_cli(*argv, "--out", str(tmp_path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: number 1e999 is out of range")

    @pytest.mark.parametrize("argv", [
        ("classify", "--dsl-file"),
        ("simulate", "--init", "A=1", "--t-max", "1", "--dsl-file"),
        ("barometer", "--csv"),
    ])
    def test_file_that_is_not_utf8_exits_3(self, argv, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("t,A\n0,1\n1,2\n# \xe9\n".encode("latin-1"))
        assert cli.main([*argv, str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == \
            f"error: {str(path)!r} is not UTF-8 text: invalid continuation byte at byte 14\n"

    @pytest.mark.parametrize("argv", [
        ("classify", "--dsl", "dA = x^2"),
        ("compose", "--R", "2", "--I", "10", "--dsl", "dA = x^2"),
    ], ids=["classify", "compose"])
    def test_an_equation_in_another_variable_exits_3(self, argv, tmp_path, capsys):
        # dA = x^2 is a law in A; x is an unbound name, as in simulate
        assert cli.main([*argv, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: unbound names ['x']")

    @pytest.mark.parametrize("argv", [
        ("classify", "--dsl", "dA = A; dY = Y"),
        ("compose", "--R", "2", "--I", "10", "--dsl", "dA = A; dY = Y"),
    ], ids=["classify", "compose"])
    def test_a_system_of_two_equations_exits_3_and_writes_nothing(self, argv, tmp_path,
                                                                  capsys):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: a growth law is a single equation; got 2\n"
        assert not any(tmp_path.iterdir())

    def test_classify_rejects_rate_vanishing_at_start(self, tmp_path):
        proc = run_cli("classify", "--dsl", "ln(A)*A", "--out", str(tmp_path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")


def exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# a usage error each: exit 2, and the last line of stderr is argparse's error line
USAGE_ERRORS = {
    "solve_steps": (["solve", "--model", "hyperbolic", "--k", "0.01", "--I", "1",
                     "--t-max", "1", "--steps", "1"], "--steps must be at least 2"),
    "solve_t_max": (["solve", "--model", "hyperbolic", "--k", "0.01", "--I", "1",
                     "--t-max", "0"], "--t-max must be positive"),
    "simulate_t_max": (["simulate", "--model", "hyperbolic", "--k", "0.01", "--t-max", "0"],
                       "--t-max must be positive"),
    "simulate_points": (["simulate", "--model", "hyperbolic", "--k", "0.01", "--t-max", "1",
                         "--points", "1"], "--points must be at least 2"),
    "A0_of_a_system": (["simulate", "--dsl", "dA = A; dY = Y", "--A0", "1", "--t-max", "1"],
                       "--A0 works only for single-variable systems; use --init"),
    "missing_init": (["simulate", "--dsl", "dA = A; dY = Y", "--init", "A=1", "--t-max", "1"],
                     "missing initial levels for: Y (use --init NAME=VALUE)"),
    "param_without_value": (["simulate", "--dsl", "dA = k*A", "--param", "k", "--init", "A=1",
                             "--t-max", "1"], "--param expects NAME=VALUE, got 'k'"),
    "param_not_a_number": (["simulate", "--dsl", "dA = k*A", "--param", "k=x", "--init", "A=1",
                            "--t-max", "1"], "--param value for 'k' is not a number: 'x'"),
}


@pytest.mark.parametrize("argv,message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_a_usage_error_exits_2_naming_its_cause(argv, message, tmp_path, capsys):
    assert exit_code([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f": error: {message}")
    assert not any(tmp_path.iterdir())


# a law with one parameter k and variable A for each command that binds --param
BINDING_COMMANDS = {
    "simulate": ["simulate", "--dsl", "dA = k*A", "--init", "A=1", "--t-max", "1"],
    "classify": ["classify", "--dsl", "k*A^2"],
    "compose": ["compose", "--R", "2", "--I", "10", "--dsl", "k*A^2"],
}


@pytest.mark.parametrize("params,code,message", [
    (["--param", "k=0.1", "--param", "k=0.2"], 2, "--param gives 'k' more than once"),
    (["--param", "k=0.1,k=0.2"], 2, "--param gives 'k' more than once"),
    (["--param", "k=0.1,zz=3"], 3, "error: parameters ['zz'] are read by no equation of"),
    (["--param", "k=0.1,A=3"], 3, "error: parameters ['A'] name state variables of"),
], ids=["repeated", "repeated-in-a-list", "unread", "variable"])
@pytest.mark.parametrize("command", BINDING_COMMANDS)
def test_a_binding_outside_the_rule_writes_nothing(command, params, code, message,
                                                   tmp_path, capsys):
    assert exit_code([*BINDING_COMMANDS[command], *params, "--out", str(tmp_path)]) == code
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


VALID_COMMANDS = {
    "solve": ["solve", "--model", "hyperbolic", "--k", "0.01", "--I", "1",
              "--t-max", "50"],
    "simulate": ["simulate", "--model", "hyperbolic", "--k", "0.01",
                 "--t-max", "5"],
    "ensemble": ["ensemble", "--model", "hyperbolic-sde", "--k", "0.05",
                 "--sigma", "0.05", "--paths", "5", "--t-max", "1"],
    "classify": ["classify", "--dsl", "A^2"],
    "compose": ["compose", "--R", "1.5872", "--I", "100", "--dsl", "k*A^2",
                "--param", "k=0.0046"],
    "barometer": ["barometer", "--csv", "series.csv"],
}


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--sigma", "1"), ("solve", "--A0", "1"), ("solve", "--Y0", "1"),
    ("solve", "--k2", "1"), ("solve", "--seed", "1"),
    ("simulate", "--sigma", "1"), ("simulate", "--c", "1"),
    ("simulate", "--seed", "1"),
    ("ensemble", "--format", "json"),
    ("classify", "--seed", "1"), ("classify", "--format", "json"),
    ("compose", "--seed", "1"),
    ("barometer", "--seed", "1"), ("barometer", "--format", "json"),
])
def test_flags_a_command_does_not_read_are_usage_errors(command, flag, value,
                                                        tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*VALID_COMMANDS[command], flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("source,flags,unread", [
    (["--model", "hyperbolic", "--k", "0.01"], ["--param", "k=5"], "--param"),
    (["--model", "hyperbolic", "--k", "0.01"], ["--param", "k=5", "--init", "A=3"],
     "--param, --init"),
    (["--model", "exponential", "--k", "0.01", "--A0", "2"], ["--init", "A=3"], "--init"),
    (["--dsl", "dA = k*A^2", "--param", "k=0.01", "--A0", "1"], ["--k", "5", "--Y0", "3"],
     "--k, --Y0"),
    (["--dsl", "dA = k*A^2", "--param", "k=0.01", "--A0", "1"],
     ["--I", "1", "--R", "2", "--n", "3", "--k1", "1", "--k2", "1"],
     "--I, --R, --n, --k1, --k2"),
])
def test_simulate_flags_its_source_does_not_read_are_usage_errors(source, flags, unread,
                                                                  tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", *source, *flags, "--t-max", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {source[0]} does not read {unread}\n")
    assert not list(tmp_path.iterdir())


def test_simulate_dsl_file_does_not_read_model_flags(tmp_path, capsys):
    law = tmp_path / "law.txt"
    law.write_text("dA = k*A^2")
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--dsl-file", str(law), "--param", "k=0.01", "--A0", "1",
                  "--k", "5", "--t-max", "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: --dsl-file does not read --k\n")


# the source flags of each subcommand
COMMAND_SOURCE_FLAGS = {
    "solve": "--k --I --R --n --k1 --c",
    "simulate": "--k --I --R --n --k1 --k2 --A0 --Y0 --param --init",
    "ensemble": "--k --I --sigma --A0",
}
# each source: a command line that gives it every flag it reads (LAW is the
# path of a law file), and those flags
SOURCES = {
    "solve-exponential": ("solve --model exponential --k 0.01 --R 1.5 --I 2 --c 1",
                          "--k --R --I --c"),
    "solve-hyperbolic": ("solve --model hyperbolic --k 0.01 --I 1", "--k --I"),
    "solve-powerlaw": ("solve --model powerlaw --k 0.01 --I 1 --n 2", "--k --I --n"),
    "solve-loglaw": ("solve --model loglaw --k 0.01 --c 1", "--k --c"),
    "solve-coupled-gdp": ("solve --model coupled-gdp --k1 0.05", "--k1"),
    "simulate-exponential": ("simulate --model exponential --k 0.01 --R 1.5 --I 2 --A0 1",
                             "--k --R --I --A0"),
    "simulate-hyperbolic": ("simulate --model hyperbolic --k 0.01 --A0 1", "--k --A0"),
    "simulate-powerlaw": ("simulate --model powerlaw --k 0.01 --n 2 --A0 1", "--k --n --A0"),
    "simulate-loglaw": ("simulate --model loglaw --k 0.01 --A0 2", "--k --A0"),
    "simulate-coupled-gdp": ("simulate --model coupled-gdp --k1 0.05 --k2 0.1 --A0 1 --Y0 0.5",
                             "--k1 --k2 --A0 --Y0"),
    # --A0 and --init both set the initial level, so each case gives one of them
    "simulate-dsl": ("simulate --dsl 'dA = k*A^2' --param k=0.01 --init A=1",
                     "--param --init --A0"),
    "simulate-dsl-file": ("simulate --dsl-file LAW --param k=0.01 --A0 1", "--param --init --A0"),
    "ensemble-hyperbolic-sde": ("ensemble --model hyperbolic-sde --k 0.05 --sigma 0.05 --A0 1",
                                "--k --sigma --A0"),
    "ensemble-gbm": ("ensemble --model gbm --k 0.01 --I 1 --sigma 0.1 --A0 1",
                     "--k --I --sigma --A0"),
}


@pytest.mark.parametrize("argv,reads", SOURCES.values(), ids=SOURCES)
def test_a_source_flag_its_source_does_not_read_is_a_usage_error(argv, reads, tmp_path,
                                                                capsys):
    law = tmp_path / "law.txt"
    law.write_text("dA = k*A^2")
    argv = [str(law) if arg == "LAW" else arg for arg in shlex.split(argv)]
    argv += ["--t-max", "1"] + (["--paths", "5"] if argv[0] == "ensemble" else [])
    out = tmp_path / "out"
    unread = [f for f in COMMAND_SOURCE_FLAGS[argv[0]].split() if f not in reads.split()]
    for flag in unread:
        value = {"--param": "k=1", "--init": "A=1"}.get(flag, "1")
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {argv[1]} does not read {flag}\n")
        assert not out.exists()
    assert cli.main([*argv, "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ("simulate", "--t-max", "1"),
    ("simulate", "--model", "hyperbolic", "--dsl", "dA = A", "--t-max", "1"),
    ("classify",),
    ("classify", "--dsl", "A^2", "--dsl-file", "law.txt"),
], ids=["simulate-none", "simulate-two", "classify-none", "classify-two"])
def test_a_command_takes_exactly_one_source(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert re.search(r"one of the arguments .* is required|not allowed with argument",
                     capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("model,flags,missing", [
    ("hyperbolic", [], "--k"), ("powerlaw", ["--k", "1"], "--n"),
    ("powerlaw", [], "--k, --n"), ("loglaw", [], "--k"),
    ("coupled-gdp", [], "--k1, --k2"), ("coupled-gdp", ["--k1", "1"], "--k2"),
])
def test_simulate_model_names_its_missing_flags(model, flags, missing, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", model, *flags, "--t-max", "5",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: missing required flags: {missing}\n")


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_exponential_rate_is_k_or_k_from_r(command, tmp_path, capsys):
    def run(*flags):
        code = cli.main([command, "--model", "exponential", *flags, "--t-max", "5",
                         "--out", str(tmp_path)])
        return code, capsys.readouterr()

    code, out = run("--I", "100")
    assert (code, out.err) == (3, "error: no growth rate available: set k or R\n")
    code, out = run("--k", "-1", "--I", "100")
    assert (code, out.err) == (3, "error: k must be a finite real number > 0, got -1.0\n")
    # --k wins over --R
    assert run("--k", "0.003", "--I", "100")[1].out == \
        run("--k", "0.003", "--R", "1.5872", "--I", "100")[1].out
    k_from_r = run("--R", "1.5872", "--I", "100")[1].out
    assert k_from_r != run("--k", "0.003", "--I", "100")[1].out


def test_simulate_exponential_needs_a_rate(tmp_path, capsys):
    assert cli.main(["simulate", "--model", "exponential", "--t-max", "5",
                     "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: no growth rate available: set k or R\n"


def test_readme_command_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line, comments=True) for line in lines
                if line.startswith("blowuplab ")]
    assert len(examples) >= 8
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # in order, each building on the ones before
        exec(compile(block, "README.md", "exec"), namespace)


class TestHeadline:
    def test_numbers(self, tmp_path):
        data = run_json("reproduce", "headline", "--out", str(tmp_path))
        assert data["k"] == pytest.approx(HEADLINE["k"], abs=1e-5)
        assert data["t1"] == pytest.approx(HEADLINE["t1"], abs=0.01)
        assert data["t2"] == pytest.approx(HEADLINE["t2"], abs=0.01)
        assert data["t_s"] == pytest.approx(HEADLINE["t_s"], abs=0.02)
        assert data["t_s"] == pytest.approx(data["t1"] + data["t2"], rel=1e-12)
        assert data["inputs"] == {"R": 1.5872, "I": 100.0}


class TestSolve:
    def test_exponential_phase_ends_at_the_driver_level(self, tmp_path):
        data = run_json("solve", "--model", "exponential", "--R", "1.5872",
                        "--I", "100", "--t-max", repr(HEADLINE["t1"]),
                        "--steps", "129", "--out", str(tmp_path))
        assert data["final_level"] == pytest.approx(100.0, rel=1e-9)
        assert data["table"] == "solve_exponential.csv"
        assert data["rows"] == 129

    def test_table_matches_the_summary(self, tmp_path):
        data = run_json("solve", "--model", "hyperbolic", "--k", "0.01",
                        "--I", "1", "--t-max", "50", "--steps", "11",
                        "--out", str(tmp_path))
        lines = (tmp_path / data["table"]).read_text().splitlines()
        assert lines[0] == "t,A"
        assert len(lines) == 1 + data["rows"]
        assert data["blowup_time"] == pytest.approx(100.0, rel=1e-12)

    def test_loglaw_with_zero_rate_is_constant(self, tmp_path):
        data = run_json("solve", "--model", "loglaw", "--k", "0",
                        "--t-max", "5", "--out", str(tmp_path))
        assert data["final_level"] == pytest.approx(math.e, rel=1e-12)
        assert data["blowup_time"] is None


class TestSimulate:
    def test_builtin_hyperbolic_blowup(self, tmp_path):
        data = run_json("simulate", "--model", "hyperbolic", "--k", "0.01",
                        "--t-max", "150", "--out", str(tmp_path))
        assert data["blowup"] is not None
        assert data["blowup"]["estimate"] == pytest.approx(100.0, abs=0.1)
        assert data["blowup"]["method"] == "threshold-crossing"

    def test_coupled_dsl_with_comma_bindings(self, tmp_path):
        data = run_json("simulate",
                        "--dsl", "dY = k1*Y*A; dA = k2*Y*A",
                        "--param", "k1=0.05,k2=0.1",
                        "--init", "Y=0.5,A=1",
                        "--t-max", "100", "--out", str(tmp_path))
        assert data["dimension"] == 2
        assert data["blowup"]["estimate"] == pytest.approx(20.0, abs=0.1)
        assert data["model"] == "dY = k1 * Y * A; dA = k2 * Y * A"

    def test_zero_rate_stays_flat(self, tmp_path):
        data = run_json("simulate", "--dsl", "dA = 0", "--init", "A=1",
                        "--t-max", "5", "--out", str(tmp_path))
        assert data["final_state"] == [1.0]
        assert data["final_time"] == 5.0
        assert data["blowup"] is None

    @pytest.mark.parametrize("level", [["--A0", "1"], ["--init", "x=1"]],
                             ids=["A0", "init"])
    def test_bare_expression_in_another_variable(self, level, tmp_path, capsys):
        # the variable is the one name --param leaves unbound, as in classify
        assert cli.main(["simulate", "--dsl", "k*x^2", "--param", "k=0.01", *level,
                         "--t-max", "10", "--out", str(tmp_path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model"] == "dx = k * x^2"
        assert data["final_state"] == [pytest.approx(1.0 / 0.9)]
        assert (tmp_path / data["table"]).read_text().splitlines()[0] == "t,x"

    def test_init_names_only_state_variables(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--dsl", "dA = A", "--init", "A=1,Y=2", "--t-max", "1",
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--init names no state variable: Y" in capsys.readouterr().err

    def test_an_initial_level_given_twice_is_a_usage_error(self, tmp_path, capsys):
        assert exit_code(["simulate", "--dsl", "dA = A", "--init", "A=1", "--init", "A=2",
                          "--t-max", "1", "--out", str(tmp_path)]) == 2
        assert "--init gives 'A' more than once" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_a0_and_init_together_are_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--dsl", "dA = A", "--init", "A=5", "--A0", "1",
                      "--t-max", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--A0 and --init" in capsys.readouterr().err

    def test_missing_initial_level_is_a_usage_error(self, tmp_path):
        proc = run_cli("simulate", "--dsl", "dA = A^2", "--t-max", "1",
                       "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "--init" in proc.stderr


class TestSeededReruns:
    COMMANDS = [
        ("simulate", "--model", "hyperbolic", "--k", "0.01", "--t-max", "90",
         "--points", "61"),
        ("ensemble", "--model", "hyperbolic-sde", "--k", "0.05",
         "--sigma", "0.05", "--paths", "60", "--t-max", "30", "--seed", "42"),
        ("reproduce", "fig2"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS,
                             ids=[c[0] if c[0] != "reproduce" else c[1]
                                  for c in COMMANDS])
    def test_rerun_into_another_directory_is_byte_identical(self, argv,
                                                            tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        a = run_cli(*argv, "--out", str(first))
        b = run_cli(*argv, "--out", str(second))
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestEnsembleCommand:
    def test_summary_fields(self, tmp_path):
        data = run_json("ensemble", "--model", "hyperbolic-sde", "--k", "0.05",
                        "--sigma", "0.05", "--paths", "50", "--t-max", "30",
                        "--seed", "42", "--out", str(tmp_path))
        assert data["n_paths"] == 50
        assert 0.0 <= data["exploded_fraction"] <= 1.0
        assert 0.0 <= data["absorbed_fraction"] <= 1.0
        assert data["paths_table"] == "ensemble_paths.csv"
        lines = (tmp_path / "ensemble_paths.csv").read_text().splitlines()
        assert lines[0] == "path,outcome,event_time,terminal_value,slope"
        assert len(lines) == 51


class TestClassifyCommand:
    def test_finite_time_verdict(self, tmp_path):
        data = run_json("classify", "--dsl", "A^2", "--out", str(tmp_path))
        assert data["verdict"] == "finite-time"
        assert data["singularity_time_estimate"] == pytest.approx(1.0,
                                                                  abs=1e-3)

    def test_infinite_time_verdict_with_parameters(self, tmp_path):
        data = run_json("classify", "--dsl", "k*ln(A)*A",
                        "--param", "k=0.00462", "--A0", "2",
                        "--out", str(tmp_path))
        assert data["verdict"] == "infinite-time"
        assert data["singularity_time_estimate"] is None

    def test_an_equation_classifies_in_its_own_variable(self, tmp_path, capsys):
        assert cli.main(["classify", "--dsl", "dY = k*Y^2", "--param", "k=0.01",
                         "--out", str(tmp_path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "finite-time"
        assert data["singularity_time_estimate"] == pytest.approx(100.0, rel=1e-6)


class TestComposeCommand:
    def test_headline_composition(self, tmp_path):
        data = run_json("compose", "--R", "1.5872", "--I", "100",
                        "--dsl", "k*A^2",
                        "--param", f"k={HEADLINE['k']!r}",
                        "--out", str(tmp_path))
        assert data["switch_time"] == pytest.approx(HEADLINE["t1"], rel=1e-12)
        assert data["total_blowup_time"] == pytest.approx(HEADLINE["t_s"],
                                                          rel=1e-6)
        assert data["table"] == "compose.csv"


class TestBarometerCommand:
    def test_super_exponential_series_is_flagged(self, tmp_path):
        run_json("solve", "--model", "hyperbolic", "--k", "0.01", "--I", "1",
                 "--t-max", "95", "--steps", "400", "--out", str(tmp_path))
        data = run_json("barometer", "--csv",
                        str(tmp_path / "solve_hyperbolic.csv"),
                        "--window", "64", "--out", str(tmp_path))
        assert data["flagged"] is True
        assert data["value_column"] == "A"
        assert data["z_score"] > 3.0

    def test_exponential_series_is_not_flagged(self, tmp_path):
        run_json("solve", "--model", "exponential", "--R", "1.5872",
                 "--I", "100", "--t-max", "9", "--steps", "300",
                 "--out", str(tmp_path))
        data = run_json("barometer", "--csv",
                        str(tmp_path / "solve_exponential.csv"),
                        "--window", "64", "--out", str(tmp_path))
        assert data["flagged"] is False

    def test_the_time_column_is_no_value_column(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("t,A\n" + "".join(f"{t},{math.exp(t)}\n" for t in range(16)))
        assert exit_code(["barometer", "--csv", str(csv), "--value-col", "t",
                          "--window", "8", "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "error: value column 't' is the time column\n"
        assert not (tmp_path / "out").exists()

    def test_missing_column_is_a_domain_error(self, tmp_path):
        csv = tmp_path / "series.csv"
        csv.write_text("x,y\n0,1\n1,2\n")
        proc = run_cli("barometer", "--csv", str(csv), "--window", "8")
        assert proc.returncode == 3
        assert "'t'" in proc.stderr

    @pytest.mark.parametrize("text,flags,message", [
        ("", [], "{csv!r} is empty"),
        ("x,A\n0,1\n", [], "column 't' not found in {csv!r}"),
        ("t\n0\n1\n", [], "{csv!r} has no value column"),
        ("t,A\n0,1\n", ["--value-col", "B"], "column 'B' not found in {csv!r}"),
        ("t,A\n0,1\n1,x\n", [], "{csv!r} line 3: cannot read columns 't'/'A'"),
        ("t,A\n", [], "{csv!r} contains no data rows"),
    ], ids=["empty", "no_time_column", "only_time_column", "unknown_value_column",
            "unreadable_row", "no_data_rows"])
    def test_a_malformed_table_exits_3(self, text, flags, message, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text(text)
        assert exit_code(["barometer", "--csv", str(csv), *flags, "--window", "8",
                          "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {message.format(csv=str(csv))}\n"
        assert not (tmp_path / "out").exists()


class TestReproduceFigures:
    def test_fig1_and_fig2_write_their_tables(self, tmp_path):
        one = run_json("reproduce", "fig1", "--out", str(tmp_path))
        two = run_json("reproduce", "fig2", "--out", str(tmp_path))
        assert one["rows"] == 257 and two["rows"] == 257
        assert (tmp_path / one["table"]).exists()
        assert (tmp_path / two["table"]).exists()
        # the hyperbolic phase spans many decades on a short clock
        assert two["level_span"] > 1e3

    def test_fig3_keeps_non_exploding_paths(self, tmp_path):
        data = run_json("reproduce", "fig3", "--seed", "42",
                        "--out", str(tmp_path))
        assert data["master_seed"] == 42
        settings = {(s["k"], s["sigma"]): s for s in data["settings"]}
        assert (0.01, 0.1) in settings
        noisy = settings[(0.01, 0.1)]
        assert noisy["n_never_exploded"] >= 1
        assert (tmp_path / noisy["table"]).exists()
        header = (tmp_path / noisy["table"]).read_text().splitlines()[0]
        assert header.startswith("t,path_")


PACKAGE = Path(blowuplab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_of_sibling_modules(module):
    # no module may depend on another's private helpers
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in MODULES and node.attr.startswith("_"):
            reached.append(f"{node.value.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.level:
            reached += [f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_")]
    assert reached == []


# With None in sys.modules["scipy"], importing scipy or any of its
# submodules raises ImportError: the package runs on numpy alone.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import blowuplab
from blowuplab import cli
blowuplab.classify_growth_law("k*A^2", parameters={"k": 0.05})
blowuplab.ergodicity_check(blowuplab.gbm_model(0.00462, 100.0, 0.001))
assert cli.main(["reproduce", "headline", "--out", sys.argv[1]]) == 0
assert not [name for name in sys.modules if name.startswith("scipy.")]
"""


def test_the_package_and_the_cli_run_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def manifest_runs(tmp_path_factory):
    return cli_manifest.run_corpus(tmp_path_factory.mktemp("manifest"))


class TestManifest:
    """The committed byte manifest of the CLI (``cli_manifest.py`` regenerates it)."""

    MANIFEST = json.loads(cli_manifest.MANIFEST.read_text())

    def test_every_line_exits_as_recorded(self, manifest_runs):
        assert list(manifest_runs) == list(self.MANIFEST["lines"])
        assert {line: run["exit"] for line, run in manifest_runs.items()} == \
            {line: record["exit"] for line, record in self.MANIFEST["lines"].items()}

    def test_every_line_writes_the_recorded_bytes(self, manifest_runs):
        made, here = self.MANIFEST["numpy"], cli_manifest.numpy_version()
        if made != here:
            pytest.skip(f"byte comparison skipped: the manifest was made with numpy {made}, "
                        f"this is numpy {here}")
        assert [line for line, record in self.MANIFEST["lines"].items()
                if manifest_runs.get(line) != record] == []

    @pytest.mark.parametrize("line", cli_manifest.UNSET_I)
    def test_exponential_reads_an_unset_I_as_1(self, manifest_runs, line, tmp_path):
        assert manifest_runs[line]["exit"] == 0
        assert cli_manifest.run_line(f"{line} --I 1", tmp_path) == manifest_runs[line]
