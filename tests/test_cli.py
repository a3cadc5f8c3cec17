"""Black-box tests of the command-line interface via its main() entry point."""

import json

import numpy as np
import pytest

from ccve import builders, cli
from ccve.core import load_game, save_game
from ccve.equilibrium import solve_ccve


def run(argv):
    return cli.main(argv)


@pytest.fixture
def warmup_path(tmp_path):
    path = tmp_path / "warmup.json"
    assert run(["build", "scalar", "--q1", "1.0", "--r1", "0.25", "--s1", "0.0",
                "--out", str(path)]) == cli.EXIT_OK
    return path


@pytest.fixture
def bench_path(tmp_path):
    path = tmp_path / "bench.json"
    assert run(["build", "random", "--recipe", "paper7ex1", "--d1", "2",
                "--d2", "3", "--out", str(path)]) == cli.EXIT_OK
    return path


class TestBuild:
    def test_scalar_game_written(self, warmup_path):
        g = load_game(warmup_path)
        assert g.dims.d1 == 1 and g.dims.d2 == 1
        assert g.p1.A[0, 0] == 1.0
        assert g.p1.B[0, 0] == 0.25

    def test_scalar_degenerate_exits_error(self, tmp_path):
        out = tmp_path / "bad.json"
        code = run(["build", "scalar", "--q1", "1.0", "--r1", "1.0",
                    "--s1", "1.0", "--out", str(out)])
        assert code == cli.EXIT_ERROR
        assert not out.exists()

    def test_random_build_is_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run(["build", "random", "--recipe", "paper7ex2",
                        "--d1", "3", "--d2", "4", "--seed", "7",
                        "--out", str(out)]) == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_lq_build_matches_hand_unroll(self, tmp_path):
        spec = {
            "F": [[1.0]], "G1": [[1.0]], "G2": [[1.0]],
            "Q1": [[0.0]], "Q2": [[0.0]], "Q1f": [[2.0]], "Q2f": [[2.0]],
            "R1": [[1.0]], "R2": [[1.0]], "R12": [[0.0]], "R21": [[0.0]],
            "z0": [0.0], "T": 1,
        }
        spec_path = tmp_path / "lq.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "lq_game.json"
        assert run(["build", "lq", "--spec", str(spec_path),
                    "--out", str(out)]) == cli.EXIT_OK
        g = load_game(out)
        # T=1: A_i = R_i + G_i^T Q_if G_i = 1 + 2.
        assert g.p1.A[0, 0] == pytest.approx(3.0)

    def test_manifest_written(self, tmp_path, warmup_path):
        manifest = json.loads((warmup_path.parent / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["command"][0] == "build"
        assert manifest["duration_s"] >= 0

    def test_paper_recipe_with_bounds_exits_error(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = run(["build", "random", "--recipe", "paper7ex2", "--d1", "2",
                    "--d2", "3", "--lo", "-5", "--hi", "5", "--out", str(out)])
        assert code == cli.EXIT_ERROR
        assert not out.exists()
        assert "lo, hi" in capsys.readouterr().err

    def test_random_manifest_records_recipe_and_bounds(self, tmp_path):
        out = tmp_path / "u.json"
        assert run(["build", "random", "--recipe", "uniform", "--d1", "2",
                    "--d2", "3", "--seed", "4", "--lo", "-2", "--hi", "0.5",
                    "--out", str(out)]) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["config"] == {"kind": "random", "recipe": "uniform",
                                      "lo": -2.0, "hi": 0.5}


class TestSolve:
    def test_stable_solution(self, tmp_path, warmup_path):
        out = tmp_path / "sol.json"
        assert run(["solve", "--game", str(warmup_path),
                    "--out", str(out)]) == cli.EXIT_OK
        sol = json.loads(out.read_text())
        assert sol["stable"] is True
        assert sol["L1"][0][0] == pytest.approx(-2.0 + np.sqrt(3.0), abs=1e-12)

    def test_unstable_selection_not_certified(self, tmp_path, warmup_path):
        out = tmp_path / "sol.json"
        code = run(["solve", "--game", str(warmup_path),
                    "--selection", "smallest", "--out", str(out)])
        assert code == cli.EXIT_NOT_CERTIFIED
        # The solution is still written for inspection.
        assert json.loads(out.read_text())["stable"] is False

    def test_allow_unstable_overrides(self, tmp_path, warmup_path):
        out = tmp_path / "sol.json"
        assert run(["solve", "--game", str(warmup_path),
                    "--selection", "smallest", "--allow-unstable",
                    "--out", str(out)]) == cli.EXIT_OK

    def test_no_stable_selection(self, tmp_path):
        game = tmp_path / "elliptic.json"
        assert run(["build", "scalar", "--q1", "1.5", "--r1", "0.6",
                    "--s1", "-1.5", "--q2", "1.4", "--r2", "1.8",
                    "--s2", "1.6", "--out", str(game)]) == cli.EXIT_OK
        out = tmp_path / "sol.json"
        assert run(["solve", "--game", str(game),
                    "--out", str(out)]) == cli.EXIT_NOT_CERTIFIED

    def test_missing_game_file(self, tmp_path):
        assert run(["solve", "--game", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "sol.json")]) == cli.EXIT_ERROR


class TestIterate:
    def test_trace_and_summary(self, tmp_path, bench_path):
        trace = tmp_path / "trace.csv"
        assert run(["iterate", "--game", str(bench_path), "--tol", "1e-8",
                    "--max-iters", "50", "--trace", str(trace)]) == cli.EXIT_OK
        assert trace.exists()
        summary = json.loads(trace.with_suffix(".summary.json").read_text())
        assert summary["status"] == "converged"
        assert max(summary["final_residuals"]) < 1e-7
        header = trace.read_text().splitlines()[0].split(",")
        assert header[0] == "iter"
        assert header[-1] == "res2"

    def test_compare_against_solution(self, tmp_path, bench_path):
        sol = tmp_path / "sol.json"
        assert run(["solve", "--game", str(bench_path),
                    "--out", str(sol)]) == cli.EXIT_OK
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "sum.json"
        assert run(["iterate", "--game", str(bench_path), "--tol", "1e-10",
                    "--trace", str(trace), "--summary", str(summary),
                    "--compare", str(sol)]) == cli.EXIT_OK
        data = json.loads(summary.read_text())
        assert data["distance_to_solution"]["L1"] < 1e-6

    def test_divergence_exit_code(self, tmp_path):
        game = tmp_path / "div.json"
        assert run(["build", "scalar", "--q1", "2.0", "--r1", "1.0",
                    "--s1", "1.0", "--q2", "1.0", "--r2", "1.0",
                    "--s2", "3.0", "--out", str(game)]) == cli.EXIT_OK
        trace = tmp_path / "trace.csv"
        code = run(["iterate", "--game", str(game), "--max-iters", "100",
                    "--trace", str(trace)])
        assert code == cli.EXIT_DIVERGED
        summary = json.loads(trace.with_suffix(".summary.json").read_text())
        assert summary["status"] == "diverged"

    def test_custom_init_file(self, tmp_path, warmup_path):
        L = -2.0 + np.sqrt(3.0)
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"L1": [[L]], "ell1": [0.0],
                                    "L2": [[L]], "ell2": [0.0]}))
        trace = tmp_path / "trace.csv"
        assert run(["iterate", "--game", str(warmup_path), "--init", str(init),
                    "--trace", str(trace)]) == cli.EXIT_OK
        summary = json.loads(trace.with_suffix(".summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["status_iter"] == 1

    def test_singular_first_step_writes_strict_json(self, tmp_path, warmup_path):
        # L2 = -4 makes A2 + B2^T L2 = 0, so the first cross step is singular.
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"L1": [[0.0]], "ell1": [0.0],
                                    "L2": [[-4.0]], "ell2": [0.0]}))
        trace = tmp_path / "trace.csv"
        # The init's negative effective Hessian is reported, not an error.
        with pytest.warns(UserWarning, match="NotCertifiedMin"):
            assert run(["iterate", "--game", str(warmup_path), "--init", str(init),
                        "--trace", str(trace)]) == cli.EXIT_OK

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = trace.with_suffix(".summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert summary["status"] == "singular"
        assert summary["status_iter"] == 1
        assert summary["final_change"] is None


class TestCheck:
    def test_certified_solution_passes(self, tmp_path, bench_path, capsys):
        sol = tmp_path / "sol.json"
        assert run(["solve", "--game", str(bench_path),
                    "--out", str(sol)]) == cli.EXIT_OK
        assert run(["check", "--game", str(bench_path),
                    "--solution", str(sol)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "certification: PASS" in out

    def test_tampered_solution_fails(self, tmp_path, bench_path, capsys):
        sol = tmp_path / "sol.json"
        assert run(["solve", "--game", str(bench_path),
                    "--out", str(sol)]) == cli.EXIT_OK
        data = json.loads(sol.read_text())
        data["L1"][0][0] += 0.05
        sol.write_text(json.dumps(data))
        assert run(["check", "--game", str(bench_path),
                    "--solution", str(sol)]) == cli.EXIT_NOT_CERTIFIED
        assert "certification: FAIL" in capsys.readouterr().out


class TestEnumerate:
    def test_candidates_sorted_by_multiplier(self, tmp_path, bench_path):
        out = tmp_path / "enum.json"
        assert run(["enumerate", "--game", str(bench_path),
                    "--out", str(out)]) == cli.EXIT_OK
        data = json.loads(out.read_text())
        assert len(data["candidates"]) == 6
        assert len(data["skipped"]) == 4
        xi = [c["xi_max"][0] for c in data["candidates"]]
        assert xi == sorted(xi)
        assert sum(c["stable"] for c in data["candidates"]) == 1
        assert all(s["reason"] for s in data["skipped"])

    def test_failing_subset_is_skipped_by_error_class(self, tmp_path):
        # Subset (2,) of this game has a singular best response; the other
        # two subsets give the stable direct solution and an unstable one.
        game = builders.random_game(1, 2, recipe="uniform", seed=0)
        path = tmp_path / "uniform.json"
        out = tmp_path / "enum.json"
        save_game(game, path)
        assert run(["enumerate", "--game", str(path),
                    "--out", str(out)]) == cli.EXIT_OK
        data = json.loads(out.read_text())
        assert len(data["candidates"]) == 2
        stable = [c for c in data["candidates"] if c["stable"]]
        assert len(stable) == 1
        assert np.array_equal(stable[0]["L1"], solve_ccve(game).L1)
        assert data["skipped"] == [{"indices": [2], "reason": "SingularBestResponse"}]

    def test_cap_exceeded_is_error(self, tmp_path, bench_path):
        out = tmp_path / "enum.json"
        assert run(["enumerate", "--game", str(bench_path), "--cap", "5",
                    "--out", str(out)]) == cli.EXIT_ERROR


class TestRoundTrip:
    def test_game_save_load_identity(self, tmp_path, bench_path):
        g = load_game(bench_path)
        second = tmp_path / "copy.json"
        save_game(g, second)
        assert json.loads(bench_path.read_text()) == json.loads(second.read_text())
