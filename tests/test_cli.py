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
from blowuplab import cli

HEADLINE = {
    "k": 0.004619714575484712,
    "t1": 9.968516692408222,
    "t2": 2.164635896136673,
    "t_s": 12.133152588544895,
}


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "blowuplab", *argv],
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

    def test_classify_rejects_rate_vanishing_at_start(self, tmp_path):
        proc = run_cli("classify", "--dsl", "ln(A)*A", "--out", str(tmp_path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")


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

    def test_ensemble_workers_do_not_change_the_output(self, tmp_path):
        base = ["ensemble", "--model", "hyperbolic-sde", "--k", "0.05",
                "--sigma", "0.05", "--paths", "600", "--t-max", "20",
                "--seed", "7"]
        serial = run_cli(*base, "--workers", "1",
                         "--out", str(tmp_path / "serial"))
        threaded = run_cli(*base, "--workers", "8",
                           "--out", str(tmp_path / "threaded"))
        assert serial.returncode == threaded.returncode == 0
        assert serial.stdout == threaded.stdout
        assert (tmp_path / "serial" / "ensemble_paths.csv").read_bytes() == \
            (tmp_path / "threaded" / "ensemble_paths.csv").read_bytes()


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

    def test_missing_column_is_a_domain_error(self, tmp_path):
        csv = tmp_path / "series.csv"
        csv.write_text("x,y\n0,1\n1,2\n")
        proc = run_cli("barometer", "--csv", str(csv), "--window", "8")
        assert proc.returncode == 3
        assert "'t'" in proc.stderr


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
    # ensemble drives the Euler-Maruyama kernel in sde; no other module
    # may depend on another's private helpers
    allowed = {"sde"} if module == "ensemble" else set()
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in MODULES and node.value.id not in allowed \
                and node.attr.startswith("_"):
            reached.append(f"{node.value.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.level \
                and node.module not in allowed:
            reached += [f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_")]
    assert reached == []
