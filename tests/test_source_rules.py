"""Source rules of the package, checked line by line over src/ccve.

Each rule is a regular expression that no line of its files may match:
LAPACK stays in core and spectral, linear solves go through the guarded LU,
block matrices through core._stack, slope products (block by block, or
from a player's cost rows) through core._slope_terms, the Schur form, the ordered QZ form and the smallest
symmetric eigenvalue through the package's direct LAPACK calls, every
rcond estimate is read and compared in core alone, only core imports
scipy at module level, no module forms an explicit inverse, and no module
reads an input array by reshaping it.  Each rule is also shown to
catch a planted violating line, so a rule that matches nothing cannot pass
unnoticed.

One more rule reads the syntax trees: every public top-level def or class
of src/ccve has a caller in the package, in scripts/ or in perfbench/, so
no function lives in src/ for the tests alone. And every function that
perfbench/tracing.py's LAYERS names for the tracer to wrap exists.
"""

import ast
import importlib
import re
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ccve"
# The code outside the package that may call its public names.
CALLER_DIRS = tuple(SRC.parent.parent / name for name in ("scripts", "perfbench"))


class Rule(NamedTuple):
    pattern: str
    files: tuple  # file names under src/ccve; () means every *.py
    exempt: tuple  # file names the rule does not read
    message: str
    planted: str  # a line the rule must catch


RULES = {
    "lapack-in-core-and-spectral": Rule(
        r"lapack",
        ("lft.py", "equilibrium.py", "analysis.py", "stability.py",
         "builders.py", "cli.py"),
        (),
        "call LAPACK only from ccve.core and ccve.spectral",
        "    lu, piv, info = lapack.dgetrf(a)",
    ),
    "guarded-solves": Rule(
        r"(np\.linalg|sla|scipy\.linalg)\.(solve|inv|cho_solve|lu_solve)\b"
        r"|from scipy\.linalg import .*\b(solve|inv|cho_solve|lu_solve)\b",
        (),
        (),
        "solve through core._solve_checked, or core._solve_sym_checked for a "
        "symmetric system (core._factor_m for M_i)",
        "    H = np.linalg.inv(K)",
    ),
    "blocks-through-stack": Rule(
        r"np\.block",
        (),
        (),
        "assemble through core._stack",
        "    m = np.block([[a, b], [c, d]])",
    ),
    # _slope_terms forms A + B^T L, B + D L and a + L^T b as the rows of
    # own + opp L, from the column blocks (own, opp) of a player's
    # core._cost_rows: no module, core included, forms them block by block,
    # and none but core unpacks the cost rows or takes that product.
    "slope-products-in-slope-terms": Rule(
        r"\.B\.T @|\.D @ |\.T @ [a-z0-9_]+\.b\b",
        (),
        (),
        "form A + B^T L, B + D L and a + L^T b through core._slope_terms",
        "    P = p.A + p.B.T @ L",
    ),
    "cost-row-products-in-slope-terms": Rule(
        r"own, opp =|\bown \+|\bopp( @|\.dot\()",
        (),
        ("core.py",),
        "form [P; Q; c^T] = own + opp L through core._slope_terms",
        "    own, opp = core._cost_rows(game.p1)",
    ),
    "spectral-kernels-through-lapack": Rule(
        r"sla\.schur|np\.linalg\.eigvalsh|sla\.ordqz|sla\.qz\b",
        (),
        (),
        "take the Schur form from spectral._schur (dgees), the QZ form from "
        "spectral._qz (dgges, reordered by dtgsen) and a smallest eigenvalue "
        "from core._min_eig (dsyevr)",
        "    w = np.linalg.eigvalsh(S)",
    ),
    "rcond-guards-in-core": Rule(
        r"_lu_rcond\(|\brcond\w* *[<>]=?",
        (),
        ("core.py",),
        "guard an LU through core._lu_checked (or core._solve_checked): only "
        "ccve.core reads or compares an rcond estimate",
        "    if not _lu_rcond(H1)[2] >= RCOND_MIN:",
    ),
    "scipy-only-in-core": Rule(
        r"^(import|from) scipy\b",
        (),
        ("core.py",),
        "take LAPACK from ccve.core.lapack: only ccve.core imports scipy, and "
        "it loads scipy.linalg._flapack without scipy.linalg",
        "from scipy.linalg import lapack",
    ),
    "no-explicit-inverses": Rule(
        r"\bdgetri\b|\.inv\(",
        (),
        (),
        "form no explicit inverse: guard a matrix with core._lu_checked and "
        "solve with core._solve_checked",
        "    H2 = lapack.dgetri(lu, piv)[0]",
    ),
    "inputs-through-as-matrix": Rule(
        r"np\.asarray\(.*\)\.reshape\(",
        (),
        (),
        "read an input array through core._as_matrix or core._as_vector, which "
        "check its shape and entries and name it in the error, not by reshaping it",
        "            Q1=np.asarray(Q1, float).reshape(n, n),",
    ),
}


def rule_files(rule, root=SRC):
    """The files a rule reads under ``root``."""
    paths = [root / name for name in rule.files] or sorted(root.glob("*.py"))
    return [p for p in paths if p.name not in rule.exempt]


def violations(rule, paths):
    """'file:line: text' for each line of ``paths`` that the rule matches."""
    regex = re.compile(rule.pattern)
    found = []
    for path in paths:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if regex.search(line):
                found.append(f"{path.name}:{number}: {line.strip()}")
    return found


@pytest.mark.parametrize("name", RULES)
def test_source_rule_holds(name):
    rule = RULES[name]
    paths = rule_files(rule)
    assert paths and all(p.is_file() for p in paths), f"{name} reads no file"
    found = violations(rule, paths)
    assert not found, rule.message + ":\n" + "\n".join(found)


@pytest.mark.parametrize("name", RULES)
def test_source_rule_catches_a_planted_line(tmp_path, name):
    """Copies of the package's files, each with one violating line added,
    fail the rule once in each file it reads and nowhere else."""
    rule = RULES[name]
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text() + rule.planted + "\n")
    found = violations(rule, rule_files(rule, tmp_path))
    assert sorted(line.split(":")[0] for line in found) == \
        sorted(p.name for p in rule_files(rule))
    assert all(line.endswith(rule.planted.strip()) for line in found)


def _referenced_name(node):
    """The name an expression node refers to: an ast.Name's id, an
    ast.Attribute's attr, or a string constant, as perfbench's LAYERS names
    the functions it traces; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def uncalled_public_names(src=SRC, caller_dirs=CALLER_DIRS):
    """'module.name' for each public top-level def or class of the package
    at ``src`` that no code refers to outside its own body. The code is the
    package but its __init__.py, which only re-exports, and ``caller_dirs``."""
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += [p for d in caller_dirs for p in sorted(d.rglob("*.py"))]
    defined, referenced = [], set()
    for path in paths:
        tree = ast.parse(path.read_text())
        # id(node) -> the name of the public definition whose body holds it.
        owner = {}
        if path.parent == src:
            for top in tree.body:
                if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                        and not top.name.startswith("_")):
                    defined.append(f"{path.stem}.{top.name}")
                    owner.update((id(node), top.name) for node in ast.walk(top))
        for node in ast.walk(tree):
            name = _referenced_name(node)
            if name is not None and owner.get(id(node)) != name:
                referenced.add(name)
    return [d for d in defined if d.split(".", 1)[1] not in referenced]


def test_every_public_name_has_a_caller():
    assert all(d.is_dir() for d in CALLER_DIRS)
    uncalled = uncalled_public_names()
    assert not uncalled, (
        "no code outside the tests calls these public names of src/ccve: delete "
        "each, or make it private with a leading underscore:\n" + "\n".join(uncalled))


def test_public_caller_rule_catches_a_planted_def(tmp_path):
    """A copy of the package with one unused public def, which calls itself,
    fails the rule with that def alone."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "core.py", "a") as fh:
        fh.write("\n\ndef planted_unused(n):\n    return planted_unused(n - 1)\n")
    assert uncalled_public_names(tmp_path) == ["core.planted_unused"]


def test_every_traced_layer_is_a_callable_of_the_package():
    """Each (module, name) of perfbench/tracing.py's LAYERS, read from its
    syntax tree, is a callable of ccve.<module>: the tracer wraps each, and
    a deleted or renamed one breaks every traced benchmark run."""
    tree = ast.parse((SRC.parent.parent / "perfbench" / "tracing.py").read_text())
    (layers,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    assert layers
    missing = [f"{module}.{name}" for module, name in layers
               if not callable(getattr(importlib.import_module(f"ccve.{module}"), name, None))]
    assert not missing, "perfbench's LAYERS names what ccve lacks: " + ", ".join(missing)
