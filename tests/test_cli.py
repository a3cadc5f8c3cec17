"""Black-box tests of the command-line interface via its main() entry point."""

import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ccve import builders, cli
from ccve.core import game_to_dict, load_game, save_game
from ccve.equilibrium import solve_ccve


def run(argv):
    return cli.main(argv)


# A horizon-1 scalar LQ spec whose unroll is A_i = R_i + G_i^T Q_if G_i = 3.
LQ_SPEC = {
    "F": [[1.0]], "G1": [[1.0]], "G2": [[1.0]],
    "Q1": [[0.0]], "Q2": [[0.0]], "Q1f": [[2.0]], "Q2f": [[2.0]],
    "R1": [[1.0]], "R2": [[1.0]], "R12": [[0.0]], "R21": [[0.0]],
    "z0": [0.0], "T": 1,
}


@pytest.fixture
def warmup_path(tmp_path):
    path = tmp_path / "warmup.json"
    assert run(["build", "scalar", "--q1", "1.0", "--r1", "0.25", "--s1", "0.0",
                "--out", str(path)]) == cli.EXIT_OK
    return path


@pytest.fixture(scope="module")
def paper_50x60(tmp_path_factory):
    """(game, solution): paper7ex2 50x60 seed 0, built and solved by the CLI."""
    d = tmp_path_factory.mktemp("paper_50x60")
    game, sol = d / "game.json", d / "solution.json"
    assert run(["build", "random", "--recipe", "paper7ex2", "--d1", "50",
                "--d2", "60", "--seed", "0", "--out", str(game)]) == cli.EXIT_OK
    assert run(["solve", "--game", str(game), "--out", str(sol)]) == cli.EXIT_OK
    return game, sol


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
        spec_path = tmp_path / "lq.json"
        spec_path.write_text(json.dumps(LQ_SPEC))
        out = tmp_path / "lq_game.json"
        assert run(["build", "lq", "--spec", str(spec_path),
                    "--out", str(out)]) == cli.EXIT_OK
        g = load_game(out)
        # T=1: A_i = R_i + G_i^T Q_if G_i = 1 + 2.
        assert g.p1.A[0, 0] == pytest.approx(3.0)

    def test_manifest_written(self, tmp_path, warmup_path):
        manifest = json.loads((tmp_path / "warmup.json.manifest.json").read_text())
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

    @pytest.mark.parametrize("lo, hi", [("nan", "1"), ("-1", "inf")])
    def test_uniform_bounds_without_a_finite_range_exit_error(self, tmp_path, capsys,
                                                             lo, hi):
        out = tmp_path / "u.json"
        assert run(["build", "random", "--recipe", "uniform", "--d1", "2", "--d2", "3",
                    "--lo", lo, "--hi", hi, "--out", str(out)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: uniform bounds need a finite hi - lo; got {float(lo):g}, {float(hi):g}\n")
        assert not out.exists()

    @pytest.mark.parametrize("change, err", [
        pytest.param({"T": 2.5}, "T must be a JSON integer, got 2.5", id="float-T"),
        pytest.param({"T": "3"}, "T must be a JSON integer, got '3'", id="string-T"),
        pytest.param({"extra": 1}, "unknown LqSpec keys: ['extra']", id="unknown-key"),
        pytest.param({"F": None}, "F must be a square matrix, got shape ()", id="null-F"),
        pytest.param({"G1": None}, "G1 must be a matrix, got shape ()", id="null-G1"),
        pytest.param({"Q1": [[float("nan")]]}, "Q1 contains non-finite entries",
                     id="nan-Q1"),
        pytest.param({"R12": [0.0]}, "R12 must have shape (1, 1), got (1,)", id="flat-R12"),
        pytest.param({"F": [[1.0, 0.0], [0.0, 1.0]], "G1": [[1.0], [0.0]],
                      "G2": [[0.0], [1.0]], "Q1": [0.0] * 4, "Q2": [[0.0] * 2] * 2,
                      "Q1f": [[1.0, 0.0], [0.0, 1.0]], "Q2f": [[1.0, 0.0], [0.0, 1.0]],
                      "z0": [0.0, 0.0]},
                     "Q1 must have shape (2, 2), got (4,)", id="flat-Q1-2-states"),
    ])
    def test_malformed_lq_spec_exits_error(self, tmp_path, capsys, change, err):
        spec_path, out = tmp_path / "lq.json", tmp_path / "lq_game.json"
        spec_path.write_text(json.dumps({**LQ_SPEC, **change}))
        assert run(["build", "lq", "--spec", str(spec_path),
                    "--out", str(out)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"DimensionMismatch: {err}\n"
        assert not out.exists()

    def test_lq_horizon_beyond_the_unroll_cap_exits_error(self, tmp_path, capsys,
                                                            monkeypatch):
        # The spec is refused before build_lq_game unrolls (or allocates) anything.
        monkeypatch.setattr(builders, "build_lq_game", None)
        spec_path, out = tmp_path / "lq.json", tmp_path / "lq_game.json"
        spec_path.write_text(json.dumps({**LQ_SPEC, "T": 1000000000}))
        assert run(["build", "lq", "--spec", str(spec_path),
                    "--out", str(out)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("DimensionMismatch: horizon T = 1000000000 unrolls")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_random_manifest_records_recipe_and_bounds(self, tmp_path):
        out = tmp_path / "u.json"
        assert run(["build", "random", "--recipe", "uniform", "--d1", "2",
                    "--d2", "3", "--seed", "4", "--lo", "-2", "--hi", "0.5",
                    "--out", str(out)]) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "u.json.manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["config"] == {"kind": "random", "recipe": "uniform",
                                      "lo": -2.0, "hi": 0.5}

    def test_manifests_in_one_directory_do_not_overwrite(self, tmp_path, warmup_path):
        sol = tmp_path / "sol.json"
        assert run(["solve", "--game", str(warmup_path),
                    "--out", str(sol)]) == cli.EXIT_OK
        for out, command in ((warmup_path, "build"), (sol, "solve")):
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            assert manifest["command"][0] == command
        assert not (tmp_path / "manifest.json").exists()


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

    def test_compare_against_another_games_solution_is_an_error(
            self, tmp_path, bench_path, warmup_path, capsys):
        # A 1x1 game's solution against a 2x3 iterate: its L1 and L2 would
        # broadcast, so the file is checked against the game before the run.
        sol = tmp_path / "sol.json"
        assert run(["solve", "--game", str(warmup_path),
                    "--out", str(sol)]) == cli.EXIT_OK
        trace = tmp_path / "trace.csv"
        assert run(["iterate", "--game", str(bench_path), "--tol", "1e-10",
                    "--trace", str(trace), "--compare", str(sol)]) == cli.EXIT_ERROR
        assert ("DimensionMismatch: L1 must have shape (3, 2), got (1, 1)"
                in capsys.readouterr().err)
        assert not trace.exists()
        assert not trace.with_suffix(".summary.json").exists()

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

    def test_singular_record_ends_the_run(self, tmp_path):
        # Step 1 maps L2 = -2 to L1 = 1 exactly, where player 1's effective
        # Hessian 1 - L1^2 vanishes: the run ends "singular", not exit 1.
        game = tmp_path / "game.json"
        assert run(["build", "scalar", "--q1", "1", "--r1", "0", "--s1", "-1",
                    "--q2", "1", "--r2", "0", "--s2", "0.5",
                    "--out", str(game)]) == cli.EXIT_OK
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"L1": [[0.0]], "ell1": [0.0],
                                    "L2": [[-2.0]], "ell2": [0.0]}))
        trace = tmp_path / "trace.csv"
        assert run(["iterate", "--game", str(game), "--init", str(init),
                    "--trace", str(trace)]) == cli.EXIT_OK
        rows = trace.read_text().splitlines()
        assert len(rows) == 2 and rows[1].split(",")[0] == "0"
        summary = json.loads(trace.with_suffix(".summary.json").read_text())
        assert summary["status"] == "singular"
        assert summary["status_iter"] == 1
        assert summary["final_change"] is None

    def test_nan_tol_is_an_error(self, tmp_path, bench_path, capsys):
        # tol <= 0 is False for NaN; such a run would go to max_iters.
        trace = tmp_path / "trace.csv"
        assert run(["iterate", "--game", str(bench_path), "--tol", "nan",
                    "--max-iters", "50", "--trace", str(trace)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == "error: tol must be positive and finite\n"
        assert not trace.exists()

    def test_infinite_tol_is_an_error(self, tmp_path, bench_path, capsys):
        # An infinite tol would report "converged" at step 1.
        trace = tmp_path / "trace.csv"
        assert run(["iterate", "--game", str(bench_path), "--tol", "inf",
                    "--max-iters", "5", "--trace", str(trace)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == "error: tol must be positive and finite\n"
        assert not trace.exists()

    def test_tol_of_one_or_more_is_an_error(self, tmp_path, bench_path, capsys):
        # A tol of 1e300 would report "converged" at step 1.
        trace = tmp_path / "trace.csv"
        assert run(["iterate", "--game", str(bench_path), "--tol", "1e300",
                    "--max-iters", "5", "--trace", str(trace)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == "error: tol must be below 1\n"
        assert not trace.exists()


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

    def test_nan_residual_skips_stability(self, tmp_path, bench_path, capsys,
                                          monkeypatch):
        # max(0.0, nan) is 0.0: a NaN second residual must not pass the gate.
        sol = tmp_path / "sol.json"
        assert run(["solve", "--game", str(bench_path),
                    "--out", str(sol)]) == cli.EXIT_OK
        monkeypatch.setattr(cli, "riccati_residual_norms",
                            lambda game, L1, L2: (0.0, float("nan")))
        assert run(["check", "--game", str(bench_path),
                    "--solution", str(sol)]) == cli.EXIT_NOT_CERTIFIED == 2
        out = capsys.readouterr().out
        assert "stability: skipped" in out
        assert "certification: FAIL" in out


# Each CLI reader of a JSON file, as (argv, output path) from the file's
# path, the 2x3 game's path and a directory for outputs.
JSON_READERS = [
    pytest.param(lambda f, game, d: (["iterate", "--game", game, "--init", f,
                                      "--trace", str(d / "t.csv")], d / "t.csv"),
                 id="iterate-init"),
    pytest.param(lambda f, game, d: (["iterate", "--game", game, "--compare", f,
                                      "--trace", str(d / "t.csv")], d / "t.csv"),
                 id="iterate-compare"),
    pytest.param(lambda f, game, d: (["check", "--game", game, "--solution", f],
                                     None),
                 id="check-solution"),
    pytest.param(lambda f, game, d: (["build", "lq", "--spec", f,
                                      "--out", str(d / "g.json")], d / "g.json"),
                 id="build-lq-spec"),
]


@pytest.mark.parametrize("text", ["[1, 2]", "null"])
@pytest.mark.parametrize("reader", JSON_READERS)
def test_json_file_that_is_not_an_object_is_an_error(tmp_path, bench_path, capsys,
                                                     reader, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv, out = reader(str(path), str(bench_path), tmp_path)
    assert run(argv) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"DimensionMismatch: {path} must hold a JSON object\n"
    assert out is None or not out.exists()


@pytest.mark.parametrize("reader", JSON_READERS)
def test_json_file_missing_a_key_is_an_error(tmp_path, bench_path, capsys, reader):
    # A missing key printed only "error: 'L1'".
    path = tmp_path / "input.json"
    path.write_text("{}")
    argv, out = reader(str(path), str(bench_path), tmp_path)
    assert run(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"DimensionMismatch: {path} is missing keys ['")
    assert err.count("\n") == 1
    assert out is None or not out.exists()


# A valid input of each reader: the 2x3 game, zero slopes and offsets for
# --init, --compare and --solution, and LQ_SPEC.
ZERO_INIT = {"L1": [[0.0, 0.0]] * 3, "ell1": [0.0] * 3,
             "L2": [[0.0] * 3] * 2, "ell2": [0.0, 0.0]}
VALID_INPUTS = {"game": game_to_dict(builders.example1_game()),
                "iterate-init": ZERO_INIT, "iterate-compare": ZERO_INIT,
                "check-solution": ZERO_INIT, "build-lq-spec": LQ_SPEC}
READERS = {p.id: p.values[0] for p in JSON_READERS}
READERS["game"] = lambda f, game, d: (["solve", "--game", f, "--out", str(d / "s.json")],
                                      d / "s.json")


@pytest.mark.parametrize("data", [b"{", b'{"T": "\xff"}'], ids=["bad-json", "bad-utf8"])
@pytest.mark.parametrize("reader", READERS)
def test_json_file_that_does_not_parse_names_the_file(tmp_path, bench_path, capsys,
                                                      reader, data):
    # "{" given to --init printed "error: Expecting property name enclosed in
    # double quotes: line 1 column 2 (char 1)", naming none of the files.
    path = tmp_path / "input.json"
    path.write_bytes(data)
    argv, out = READERS[reader](str(path), str(bench_path), tmp_path)
    assert run(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert out is None or not out.exists()


def first_number_as(entry, kind):
    """The nested list ``entry`` with its first number made a ``kind``."""
    entry = copy.deepcopy(entry)
    row = entry
    while isinstance(row[0], list):
        row = row[0]
    row[0] = kind(row[0])
    return entry


@pytest.mark.parametrize("reader, key, name", [
    ("game", "A", "A1"),  # player1's A
    ("iterate-init", "L1", "L1"),
    ("iterate-compare", "L2", "L2"),
    ("check-solution", "L1", "L1"),
    ("build-lq-spec", "Q1", "Q1"),
])
@pytest.mark.parametrize("replace", [
    lambda entry: {},
    lambda entry: "x",
    lambda entry: first_number_as(entry, str),
    lambda entry: first_number_as(entry, bool),
], ids=["object", "string", "numeric-string", "boolean"])
def test_entry_that_is_not_numbers_is_an_error(tmp_path, bench_path, capsys,
                                               reader, key, name, replace):
    # An object ended in a TypeError traceback, and "x" printed
    # "error: could not convert string to float: 'x'", naming no entry.
    # A numeric string ("0.0") or a boolean among numbers was read as a number.
    data = copy.deepcopy(VALID_INPUTS[reader])
    entries = data["player1"] if reader == "game" else data
    entries[key] = replace(entries[key])
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv, out = READERS[reader](str(path), str(bench_path), tmp_path)
    assert run(argv) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"DimensionMismatch: {name} must be an array of numbers\n"
    assert out is None or not out.exists()


@pytest.mark.parametrize("reader, owner, key, name", [
    ("game", "player2", "a", "a2"),
    ("build-lq-spec", None, "z0", "z0"),
    ("iterate-init", None, "ell1", "ell1"),
])
def test_vector_as_a_column_is_an_error(tmp_path, bench_path, capsys,
                                        reader, owner, key, name):
    # A vector nested one level too deep, [[1.0], [1.0], [1.0]], was read
    # flattened, as the vector it holds.
    data = copy.deepcopy(VALID_INPUTS[reader])
    entries = data[owner] if owner else data
    n = len(entries[key])
    entries[key] = [[v] for v in entries[key]]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv, out = READERS[reader](str(path), str(bench_path), tmp_path)
    assert run(argv) == cli.EXIT_ERROR
    assert capsys.readouterr().err == (
        f"DimensionMismatch: {name} must have length {n}, got ({n}, 1)\n")
    assert out is None or not out.exists()


@pytest.mark.parametrize("nan, code, error", [
    pytest.param(True, cli.EXIT_ERROR, ["DimensionMismatch: A2 contains non-finite entries"],
                 id="warning-then-error"),
    pytest.param(False, cli.EXIT_OK, [], id="warning-only"),
])
def test_warning_prints_one_line(tmp_path, nan, code, error):
    # Python's warning display added the location in ccve's code and the
    # source line "p1 = PlayerCost.create(...)"; pytest captures warnings in
    # process, so this runs ccve in a subprocess.
    data = game_to_dict(builders.example1_game())
    data["player1"]["D"][0][1] = 0.5
    if nan:
        data["player2"]["A"][0][0] = float("nan")
    game = tmp_path / "game.json"
    game.write_text(json.dumps(data))
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "ccve.cli", "solve", "--game", str(game),
                           "--out", str(tmp_path / "s.json")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.splitlines() == [
        "UserWarning: D1 is not symmetric (relative asymmetry above 1e-08); "
        "using its symmetric part"] + error


def test_main_restores_the_warning_format(tmp_path, warmup_path):
    before = warnings.formatwarning
    assert run(["solve", "--game", str(warmup_path), "--out", str(tmp_path / "s.json")]) \
        == cli.EXIT_OK
    assert warnings.formatwarning is before


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

    def test_certificate_round_trip_at_50x60(self, paper_50x60):
        # solve reads the certificate off the reordered Schur form; check
        # recomputes it from H1 and H1' and, for player 2, from
        # bC1 L2 + bD1 and bA1 - L2 bC1, and must certify it.
        game, sol = paper_50x60
        assert run(["check", "--game", str(game),
                    "--solution", str(sol)]) == cli.EXIT_OK

    @pytest.mark.parametrize("mode, steps", [("cross", 29), ("composite", 15)])
    def test_iteration_round_trip_at_50x60(self, tmp_path, paper_50x60, mode, steps):
        # From the Nash initialization each iteration converges to the solved
        # L1 (cross: 29 steps, distance about 1e-9; composite, which reads
        # the blocks of boldM1, player 2 through its inverse: 15 steps,
        # distance about 6e-10), its step count within 1.
        game, sol = paper_50x60
        trace = tmp_path / f"trace-{mode}.csv"
        assert run(["iterate", "--game", str(game), "--mode", mode,
                    "--trace", str(trace), "--compare", str(sol),
                    "--tol", "1e-10"]) == cli.EXIT_OK
        summary = json.loads(trace.with_suffix(".summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["distance_to_solution"]["L1"] <= 1e-6
        assert abs(summary["iterations"] - steps) <= 1

    def test_one_not_certified_min_warning_a_run_at_100x120(self, tmp_path):
        # From 100x120 up paper7ex2 leaves the effective Hessians S_i
        # indefinite at most steps. Even with every warning shown, a 20-step
        # cross run warns once and exits 0.
        game = tmp_path / "game.json"
        assert run(["build", "random", "--recipe", "paper7ex2", "--d1", "100",
                    "--d2", "120", "--seed", "0", "--out", str(game)]) == cli.EXIT_OK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            assert run(["iterate", "--game", str(game), "--max-iters", "20",
                        "--trace", str(tmp_path / "trace.csv")]) == cli.EXIT_OK
        assert sum("NotCertifiedMin" in str(w.message) for w in caught) == 1
