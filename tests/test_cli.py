import json
import logging
from dataclasses import fields
from pathlib import Path

import pytest

from cyclecluster import bench, cli
from cyclecluster.bench import parse_heuristic_spec
from cyclecluster.cli import EXIT_BAD_FILE, EXIT_BAD_PARAMS, EXIT_OK, build_parser, main
from cyclecluster.engine import HEURISTIC_NAMES, SolveResult
from cyclecluster.formulation import build_cc
from cyclecluster.instance import load_instance, save_instance
from cyclecluster.lp import lp_relaxation, solve_lp
from conftest import random_instance, t1_instance


@pytest.fixture(params=[["solve"], ["heuristic", "greedy"]], ids=["solve", "heuristic"])
def command(request):
    """The leading arguments of each command that loads an instance file."""
    return request.param


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.cc"
    save_instance(t1_instance(), path)
    return str(path)


class TestSolveCommand:
    def test_solve_t1_optimal(self, t1_file, capsys):
        assert main(["solve", t1_file, "--time-limit", "60"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "optimal" in out
        assert "0.4" in out

    def test_missing_file_exit_2(self, command, tmp_path, capsys):
        binary = tmp_path / "binary.cc"
        binary.write_bytes(b"CCDENSE 2 2 0.5\n\xff\xfe 1\n1 0\n")  # not UTF-8
        for path in ("nowhere.cc", str(tmp_path), str(binary)):  # missing, a directory, undecodable
            assert main(command + [path]) == EXIT_BAD_FILE
            err = capsys.readouterr().err
            assert err == f"error: cannot read {path}\n", err

    def test_malformed_file_exit_2(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.cc"
        for text in ("CCWRONG 1 2 3\n", "CCDENSE 3 3 0.5\n0 1 1\n1 0 nan\n1 1 0\n", "CCDENSE 3 3 0.5\n0 inf 1\n1 0 1\n1 1 0\n"):
            bad.write_text(text)
            assert main(command + [str(bad)]) == EXIT_BAD_FILE
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err

    def test_infeasible_override_exit_3(self, command, t1_file, capsys):
        assert main(command + [t1_file, "--m-override", "9"]) == EXIT_BAD_PARAMS

    def test_m2_override_exit_3(self, t1_file, capsys):
        assert main(["solve", t1_file, "--m-override", "2"]) == EXIT_BAD_PARAMS

    @pytest.mark.parametrize("flag", ["--out", "--export-lp"])
    def test_m2_override_opens_no_output(self, flag, t1_file, tmp_path, capsys):
        path = tmp_path / "result"
        assert main(["solve", t1_file, "--m-override", "2", flag, str(path)]) == EXIT_BAD_PARAMS
        err = capsys.readouterr().err
        assert err == "error: cycle formulations require m >= 3, got m=2\n", err
        assert not path.exists()

    def test_json_report_fields(self, t1_file, capsys):
        assert main(["solve", t1_file, "--json", "--time-limit", "60"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "optimal"
        assert payload["primal_bound"] == pytest.approx(0.4, abs=1e-9)
        assert payload["dual_bound"] == pytest.approx(0.4, abs=1e-9)
        assert payload["gap_percent"] == 0.0
        assert payload["best_clustering"] is not None
        assert min(payload["best_clustering"]) == 1  # clusters reported 1-based
        for key in ("nodes_processed", "lp_solves", "simplex_iterations", "lp_rows_deleted", "link_rows_readded", "cut_counts", "primal_integral", "dual_integral", "bound_history", "config"):
            assert key in payload

    def test_root_only_report(self, tmp_path, capsys):
        # t1's root LP is integral once vertex 0 is pinned; this one's is not
        path = tmp_path / "r4.cc"
        save_instance(random_instance(4, 3, seed=0), path)
        rc = main(["solve", str(path), "--sepa", "none", "--heur", "none", "--node-limit", "1", "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["primal_bound"] is None
        model = build_cc(load_instance(path))
        model.lo[model.space.x(0, 0)] = 1.0
        assert payload["dual_bound"] == pytest.approx(solve_lp(lp_relaxation(model)).objective_value, abs=1e-5)
        assert payload["gap_percent"] == "inf"

    def test_out_file(self, t1_file, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert main(["solve", t1_file, "--time-limit", "60", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["status"] == "optimal"

    def test_export_lp(self, t1_file, tmp_path, capsys):
        lp_path = tmp_path / "t1.lp"
        assert main(["solve", t1_file, "--time-limit", "60", "--export-lp", str(lp_path)]) == EXIT_OK
        text = lp_path.read_text()
        assert "Maximize" in text
        assert " 0 <= x_0_0 <= 1\n" in text  # the paper's model, without the solver's pin

    def test_no_symmetry_option(self, t1_file, capsys):
        with pytest.raises(SystemExit):
            main(["solve", t1_file, "--symmetry-break"])
        capsys.readouterr()
        assert main(["solve", t1_file, "--json", "--time-limit", "60"]) == EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        assert sorted(config) == [
            "heuristics",
            "node_limit",
            "rng_seed",
            "separators",
            "time_limit_s",
        ]

    def test_config_echo_reproduces_the_run(self, t1_file, capsys):
        argv = ["solve", t1_file, "--json", "--time-limit", "60"]
        assert main(argv + ["--sepa", "triangle", "--heur", "greedy,exchange", "--seed", "4"]) == EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {
            "time_limit_s": 60.0,
            "node_limit": None,
            "separators": ["triangle"],
            "heuristics": ["greedy", "exchange"],
            "rng_seed": 4,
        }


BAD_PARAMETERS = {
    "solve-time-limit": ["solve", "{instance}", "--time-limit", "0"],
    "solve-time-limit-nan": ["solve", "{instance}", "--time-limit", "nan"],
    "solve-node-limit": ["solve", "{instance}", "--node-limit", "0"],
    "solve-sepa": ["solve", "{instance}", "--sepa", "bogus"],
    "solve-heur": ["solve", "{instance}", "--heur", "bogus"],
    "solve-seed": ["solve", "{instance}", "--seed", "-1", "--out", "{out}"],
    "heuristic-seed": ["heuristic", "exchange", "{instance}", "--seed", "-1"],
    "generate-seed": ["generate", "--n", "6", "--m", "3", "--seed", "-1", "-o", "{out}"],
    "generate-suite-seed": ["generate", "--suite", "{out}", "--seed", "-1"],
    "generate-suite-alpha": ["generate", "--suite", "{out}", "--alpha", "1.5"],
    "sparsify-time-limit": ["heuristic", "sparsify", "{instance}", "--time-limit", "0"],
    "check-time-limit": ["check", "--grid", "tiny", "--time-limit", "0"],
    "check-seed": ["check", "--grid", "tiny", "--seed", "-1"],
    "bench-time-limit": ["bench", "{suite}", "--time-limit", "0"],
    "bench-seed": ["bench", "{suite}", "--seed", "-1", "--out", "{out}"],
    "bench-settings": ["bench", "{suite}", "--settings", "all/bogus"],
    "bench-settings-empty": ["bench", "{suite}", "--settings", "", "--out", "{out}"],
    "bench-settings-comma": ["bench", "{suite}", "--settings", ","],
}


@pytest.mark.parametrize("argv", list(BAD_PARAMETERS.values()), ids=list(BAD_PARAMETERS))
def test_bad_solver_parameters_exit_3(argv, t1_file, tmp_path, capsys):
    # t1_file is the only file in tmp_path, so tmp_path is a one-instance suite
    out = tmp_path / "out"
    argv = [arg.format(instance=t1_file, suite=tmp_path, out=out) for arg in argv]
    assert main(argv) == EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [Path(t1_file)]  # no output file or directory is left


UNWRITABLE_OUTPUTS = {
    "solve-out": ["solve", "{instance}", "--out", "{path}"],
    "solve-export-lp": ["solve", "{instance}", "--export-lp", "{path}"],
    "generate-out": ["generate", "--n", "6", "--m", "3", "-o", "{path}"],
    "generate-suite": ["generate", "--suite", "{path}"],
    "bench-out": ["bench", "{suite}", "--out", "{path}"],
}


@pytest.mark.parametrize("argv", list(UNWRITABLE_OUTPUTS.values()), ids=list(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exit_2(argv, t1_file, tmp_path, capsys, monkeypatch):
    # a path under a regular file cannot be created, not even by root
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = str(blocker / "out")
    suite = tmp_path / "suite"
    suite.mkdir()
    save_instance(t1_instance(), suite / "t1.cc")

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output was opened")

    monkeypatch.setattr(cli, "solve", no_solve)
    monkeypatch.setattr(bench, "solve", no_solve)
    argv = [arg.format(instance=t1_file, suite=suite, path=path) for arg in argv]
    assert main(argv) == EXIT_BAD_FILE
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {path}\n", captured.err
    assert captured.out == ""


class TestHeuristicCommand:
    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_every_heuristic_name_parses(self, name):
        assert parse_heuristic_spec(name) == (name,)
        assert build_parser().parse_args(["heuristic", name, "x.cc"]).name == name

    def test_greedy_prints_feasible(self, t1_file, capsys):
        assert main(["heuristic", "greedy", t1_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "value" in out
        labels = [int(tok) for tok in out.splitlines()[1].split()[1:]]
        assert sorted(set(labels)) == [1, 2, 3]

    @pytest.mark.parametrize("name", ["exchange", "rounding", "sparsify"])
    def test_other_heuristics_run(self, name, tmp_path, capsys):
        path = tmp_path / "r.cc"
        save_instance(random_instance(7, 3, seed=2, alpha=1 / 1.001), path)
        assert main(["heuristic", name, str(path), "--seed", "3"]) == EXIT_OK
        assert "value" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_then_solve(self, tmp_path, capsys):
        target = tmp_path / "x.cc"
        assert main(["generate", "--n", "12", "--m", "4", "--seed", "7", "-o", str(target)]) == EXIT_OK
        assert target.exists() and target.with_suffix(".meta").exists()
        inst = load_instance(target)
        assert inst.n == 12 and inst.m == 4
        assert main(["solve", str(target), "--time-limit", "10", "--node-limit", "5"]) == EXIT_OK

    def test_generate_suite(self, tmp_path, capsys):
        # smaller grid exercised via the library; the CLI writes the default 48
        assert main(["generate", "--suite", str(tmp_path / "suite"), "--seed", "3"]) == EXIT_OK
        assert len(list((tmp_path / "suite").glob("*.cc"))) == 48

    def test_bad_params_exit_3(self, tmp_path, capsys):
        for extra in (["--n", "3", "--m", "9"], ["--n", "6", "--m", "3", "--forward", "nan"]):
            rc = main(["generate", *extra, "--seed", "0", "-o", str(tmp_path / "y.cc")])
            assert rc == EXIT_BAD_PARAMS
        assert not (tmp_path / "y.cc").exists()
        assert "strengths must be finite and nonnegative" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_tiny_suite(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        for seed in (0, 1):
            save_instance(random_instance(6, 3, seed=seed, alpha=1 / 1.001), suite / f"i{seed}.cc")
        out_dir = tmp_path / "runs"
        rc = main(
            [
                "bench",
                str(suite),
                "--settings",
                "none/all,all/all",
                "--time-limit",
                "15",
                "--out",
                str(out_dir),
                "--json",
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert {row["setting"] for row in payload} == {"none/all", "all/all"}
        assert (out_dir / "summary.json").exists()
        assert sorted(path.suffix for path in out_dir.glob("*/*")) == [".json"] * 4  # one file per run

    def test_run_file_is_the_solve_report(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        save_instance(random_instance(7, 3, seed=5, alpha=1 / 1.001), suite / "r.cc")
        flags = ["--time-limit", "30", "--seed", "1"]
        assert main(["solve", str(suite / "r.cc"), "--json"] + flags) == EXIT_OK
        solved = json.loads(capsys.readouterr().out)
        assert main(["bench", str(suite), "--settings", "all/all", "--out", str(tmp_path / "runs")] + flags) == EXIT_OK
        run = json.loads((tmp_path / "runs" / "all_all" / "r.json").read_text())
        assert {f.name for f in fields(SolveResult)} <= set(solved)
        assert set(run) == set(solved) | {"setting"}
        fixed = (
            "status", "primal_bound", "dual_bound", "root_dual_bound", "gap_percent", "nodes_processed",
            "lp_solves", "simplex_iterations", "lp_rows_deleted", "link_rows_readded", "cut_counts",
            "heuristic_stats", "best_clustering", "root_lp_values", "config",
        )
        assert {k: run[k] for k in fixed} == {k: solved[k] for k in fixed}
        assert solved["status"] == "optimal" and solved["root_lp_values"]

    def test_missing_suite_dir(self, capsys):
        assert main(["bench", "does-not-exist"]) == EXIT_BAD_FILE

    @pytest.mark.parametrize("bad", ["nan", "inf", "directory", "not-utf8"])
    def test_bad_suite_file_exit_2(self, bad, tmp_path, capsys):
        # a good instance sorts first, so the suite fails on its second file
        save_instance(random_instance(6, 3, seed=0), tmp_path / "a.cc")
        path = tmp_path / "b.cc"
        if bad == "directory":
            path.mkdir()
        elif bad == "not-utf8":
            path.write_bytes(b"CCDENSE 2 2 0.5\n\xff\xfe 1\n1 0\n")
        else:
            path.write_text(f"CCDENSE 3 3 0.5\n0 1 1\n1 0 {bad}\n1 1 0\n")
        assert main(["bench", str(tmp_path), "--settings", "none/none"]) == EXIT_BAD_FILE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert str(path) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_infeasible_header_exit_3(self, tmp_path, capsys):
        path = tmp_path / "b.cc"
        path.write_text("CCDENSE 2 3 0.5\n0 1\n1 0\n")  # m > n
        for argv in (["solve", str(path)], ["bench", str(tmp_path)]):
            assert main(argv) == EXIT_BAD_PARAMS
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


class TestCheckCommand:
    def test_check_tiny_grid(self, capsys):
        assert main(["check", "--grid", "tiny", "--seed", "1", "--time-limit", "60"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all ok" in out


@pytest.fixture
def root_logger():
    """The root logger, with its level and handlers given back after the test.

    `basicConfig` binds its handler to the test's captured stderr, which is
    closed once the test ends; left in place, it would log every later
    test's engine lines at INFO into a closed file.
    """
    root = logging.getLogger()
    level, handlers = root.level, root.handlers[:]
    yield root
    root.handlers[:] = handlers
    root.setLevel(level)


class TestLogging:
    def test_env_var_sets_level(self, t1_file, capsys, monkeypatch, root_logger):
        monkeypatch.setenv("CYCLECLUSTER_LOG", "INFO")
        # force reconfiguration despite earlier basicConfig calls
        root_logger.handlers.clear()
        assert main(["heuristic", "greedy", t1_file]) == EXIT_OK
        assert root_logger.level <= logging.INFO
