"""Property test of the command line's inputs.

Each example takes a valid input, makes one mutation and runs cli.main in
process. The inputs are the files of the five JSON readers (the game,
``iterate --init``, ``iterate --compare``, ``check --solution`` and
``build lq --spec``) and command lines with numeric flags. Whatever the
mutation, main returns one of the exit codes 0-3 without raising, and on
exit 1 prints exactly one line on stderr. The horizon T and the flags
--max-iters and --cap are never set to large values: an unroll or a run of
that size is bounded by memory and time, not by input checks.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccve import builders, cli, equilibrium
from ccve.core import game_to_dict, save_game

# A 2-state, one-control-each LQ spec of horizon 2.
LQ_SPEC = {
    "F": [[0.5, 0.1], [0.0, 0.4]], "G1": [[1.0], [0.0]], "G2": [[0.0], [1.0]],
    "Q1": [[1.0, 0.0], [0.0, 0.0]], "Q2": [[0.0, 0.0], [0.0, 1.0]],
    "Q1f": [[2.0, 0.0], [0.0, 0.0]], "Q2f": [[0.0, 0.0], [0.0, 2.0]],
    "R1": [[1.0]], "R2": [[1.0]], "R12": [[0.1]], "R21": [[0.0]],
    "z0": [1.0, -1.0], "T": 2,
}

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """({reader: (valid JSON value, argv from the input's path)}, the game's
    path, a directory): inputs made from the 2x3 game and its solution."""
    d = tmp_path_factory.mktemp("inputs")
    game = builders.example1_game()
    game_path = str(d / "game.json")
    save_game(game, game_path)
    sol = equilibrium.solve_ccve(game)
    solution = equilibrium.solution_to_dict(sol)
    init = {"L1": sol.L1.tolist(), "ell1": sol.ell1.tolist(),
            "L2": sol.L2.tolist(), "ell2": sol.ell2.tolist()}
    out, trace = str(d / "out.json"), str(d / "trace.csv")
    return {
        "game": (game_to_dict(game), lambda f: ["solve", "--game", f, "--out", out]),
        "init": (init, lambda f: ["iterate", "--game", game_path, "--init", f,
                                  "--max-iters", "20", "--trace", trace]),
        "compare": (solution, lambda f: ["iterate", "--game", game_path, "--compare", f,
                                         "--max-iters", "20", "--trace", trace]),
        "solution": (solution, lambda f: ["check", "--game", game_path, "--solution", f]),
        "lq-spec": (LQ_SPEC, lambda f: ["build", "lq", "--spec", f, "--out", out]),
    }, game_path, d


def json_paths(value, prefix=()):
    """The path of keys and indices to every node below the JSON value's root."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    found = []
    for key, child in items:
        found.append(prefix + (key,))
        found += json_paths(child, prefix + (key,))
    return found


def replacements(node):
    """What a mutation may put in a node's place: null, a string, a numeric
    string, a boolean, an object, NaN and infinities, the node nested one level
    deeper or one level shallower, and a float for an int."""
    values = [None, "x", "1", True, {}, float("nan"), float("inf"), float("-inf"),
              [node]]
    if isinstance(node, list) and node:
        values.append(node[0])
    if isinstance(node, int) and not isinstance(node, bool):
        values += [float(node), node + 0.5]
    return values


@st.composite
def mutated(draw, value):
    """``value`` with one node dropped, one key or element added, or one
    node replaced by one of its replacements."""
    value = copy.deepcopy(value)
    path = draw(st.sampled_from(json_paths(value)))
    *parents, key = path
    parent = value
    for k in parents:
        parent = parent[k]
    kind = draw(st.sampled_from(["drop", "add", "replace"]))
    if kind == "drop":
        del parent[key]
    elif kind == "add" and isinstance(parent, dict):
        parent["extra"] = draw(st.sampled_from([0, [0.0], None]))
    elif kind == "add":
        parent.append(copy.deepcopy(parent[key]))
    else:
        parent[key] = draw(st.sampled_from(replacements(parent[key])))
    return value


def check_exit(argv, capsys):
    """Run main on argv: an exit code 0-3, and one stderr line on exit 1."""
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_NOT_CERTIFIED, cli.EXIT_DIVERGED)
    if code == cli.EXIT_ERROR:
        assert err.endswith("\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("reader", ["game", "init", "compare", "solution", "lq-spec"])
@SETTINGS
@given(data=st.data())
def test_mutated_json_input_exits_cleanly(inputs, capsys, reader, data):
    readers, _, d = inputs
    valid, argv = readers[reader]
    path = d / f"{reader}.json"
    path.write_text(json.dumps(data.draw(mutated(valid))))
    check_exit(argv(str(path)), capsys)


# Command lines with numeric flags, each flag followed by its valid value.
FLAG_COMMANDS = [
    ["iterate", "--game", "{game}", "--trace", "{dir}/t.csv",
     "--max-iters", "20", "--tol", "1e-8"],
    ["enumerate", "--game", "{game}", "--out", "{dir}/e.json", "--cap", "64"],
    ["build", "random", "--recipe", "uniform", "--d1", "2", "--d2", "3",
     "--seed", "1", "--lo", "-1", "--hi", "1", "--out", "{dir}/r.json"],
    ["build", "scalar", "--q1", "1.0", "--r1", "0.25", "--s1", "0.0",
     "--w1", "0.5", "--v1", "0.0", "--q2", "2.0", "--out", "{dir}/s.json"],
]
FLAG_VALUES = ["nan", "inf", "-inf", "2.5", "0", "-1", "x", "", "null", "[1]"]


@SETTINGS
@given(command=st.sampled_from(FLAG_COMMANDS), data=st.data())
def test_mutated_numeric_flag_exits_cleanly(inputs, capsys, command, data):
    _, game_path, d = inputs
    argv = [a.format(game=game_path, dir=d) for a in command]
    flags = [i for i, a in enumerate(argv) if a.startswith("--")
             and a not in ("--game", "--trace", "--out", "--recipe")]
    i = data.draw(st.sampled_from(flags))
    if data.draw(st.booleans()):
        argv[i + 1] = data.draw(st.sampled_from(FLAG_VALUES))
    else:
        del argv[i + 1]  # a flag without its value
    check_exit(argv, capsys)


def test_valid_inputs_exit_0(inputs):
    """The unmutated inputs run: a mutation is what any failure above is about."""
    readers, game_path, d = inputs
    for reader, (valid, argv) in readers.items():
        path = d / f"{reader}.json"
        path.write_text(json.dumps(valid))
        assert cli.main(argv(str(path))) == cli.EXIT_OK, reader
    for command in FLAG_COMMANDS:
        assert cli.main([a.format(game=game_path, dir=d) for a in command]) == cli.EXIT_OK
