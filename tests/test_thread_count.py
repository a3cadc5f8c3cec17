"""What a solve's bits depend on: the BLAS thread count.

One and two OpenBLAS threads give bit-identical solutions on the 2x3 game
and paper7ex2 10x12 and 50x60 s0, on both routes. At 100x120 and up they do
not: the Schur route's L1 of paper7ex2 100x120 s0 differs by 1.9e-12
relative to its largest entry (README "BLAS thread count"). This test solves
that game in two processes, one per thread count, since OpenBLAS reads the
count once, when numpy loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

SOLVE = """
import sys
import numpy as np
from ccve import builders, equilibrium
game = builders.random_game(100, 120, recipe="paper7ex2", seed=0)
np.save(sys.argv[1], equilibrium.solve_ccve(game).L1)
"""


def solve_L1(tmp_path, threads):
    """L1 of the auto solve of paper7ex2 100x120 s0 at ``threads`` BLAS threads."""
    out = tmp_path / f"L1-{threads}.npy"
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", SOLVE, str(out)], env=env, check=True)
    return np.load(out)


def test_one_and_two_threads_agree_at_100x120(tmp_path):
    one, two = solve_L1(tmp_path, 1), solve_L1(tmp_path, 2)
    assert np.max(np.abs(one - two)) <= 1e-10 * np.max(np.abs(one))
