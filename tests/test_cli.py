import json
import logging

import pytest

from cyclecluster.cli import EXIT_BAD_FILE, EXIT_BAD_PARAMS, EXIT_OK, main
from cyclecluster.formulation import build_cc
from cyclecluster.instance import load_instance, save_instance
from cyclecluster.lp import lp_relaxation, solve_lp
from conftest import random_instance, t1_instance


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

    def test_missing_file_exit_2(self, capsys):
        assert main(["solve", "nowhere.cc"]) == EXIT_BAD_FILE

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cc"
        bad.write_text("CCWRONG 1 2 3\n")
        assert main(["solve", str(bad)]) == EXIT_BAD_FILE

    def test_infeasible_override_exit_3(self, t1_file, capsys):
        assert main(["solve", t1_file, "--m-override", "9"]) == EXIT_BAD_PARAMS

    def test_m2_override_exit_3(self, t1_file, capsys):
        assert main(["solve", t1_file, "--m-override", "2"]) == EXIT_BAD_PARAMS

    def test_json_report_fields(self, t1_file, capsys):
        assert main(["solve", t1_file, "--json", "--time-limit", "60"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "optimal"
        assert payload["primal_bound"] == pytest.approx(0.4, abs=1e-9)
        assert payload["dual_bound"] == pytest.approx(0.4, abs=1e-9)
        assert payload["gap_percent"] == 0.0
        assert payload["best_clustering"] is not None
        assert min(payload["best_clustering"]) == 1  # clusters reported 1-based
        for key in ("nodes_processed", "lp_solves", "simplex_iterations", "lp_rows_deleted", "cut_counts", "primal_integral", "dual_integral", "bound_history", "config"):
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
        assert sorted(config) == ["heuristics", "node_limit", "rng_seed", "separators", "time_limit_s"]


class TestHeuristicCommand:
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
        rc = main(["generate", "--n", "3", "--m", "9", "--seed", "0", "-o", str(tmp_path / "y.cc")])
        assert rc == EXIT_BAD_PARAMS


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
        assert len(list(out_dir.glob("*/*.log"))) == 4

    def test_missing_suite_dir(self, capsys):
        assert main(["bench", "does-not-exist"]) == EXIT_BAD_FILE


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
