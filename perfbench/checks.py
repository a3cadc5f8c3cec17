"""Correctness gate for every benchmark operation.

The residuals and the stability certificate are recomputed here from the
game's blocks, independently of the package's own helpers, so that a change
that breaks those helpers cannot also hide the breakage.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from ccve import builders
from ccve.errors import ComplexFixedPoints

RESIDUAL_TOL = 1e-8  # relative Riccati residual of a returned solution
ORACLE_TOL = 1e-10  # scalar slope against the Moebius oracle
ROUTE_TOL = 1e-8  # Schur route against QZ route
ITERATE_TOL = 1e-6  # converged iteration against the direct solution
XI_TOL = 1e-6  # recomputed certificate against the reported one


def relative_residuals(game, L1, L2):
    """||R_i||_F / ||A_i||_F of the coupled conjecture equations."""
    p1, p2 = game.p1, game.p2
    r1 = L2.T @ (p1.A + p1.B.T @ L1) + (p1.B + p1.D @ L1)
    r2 = L1.T @ (p2.A + p2.B.T @ L2) + (p2.B + p2.D @ L2)
    return (np.linalg.norm(r1) / np.linalg.norm(p1.A),
            np.linalg.norm(r2) / np.linalg.norm(p2.A))


def certificate(game, L1, L2):
    """xi_max of both players: max |lambda| / min |mu| over the two spectra."""
    p1, p2 = game.p1, game.p2
    m1 = np.block([[p1.A, p1.B.T], [p1.B, p1.D]])
    m2 = np.block([[p2.D, p2.B], [p2.B.T, p2.A]])
    d1 = game.dims.d1
    bold1 = np.linalg.solve(m2.T, m1)
    bold2 = np.linalg.solve(m1.T, m2)
    # boldM1 = [[A1, B1], [C1, D1]]; boldM2 = [[D2, C2], [B2, A2]] (D2 is d1 x d1).
    blocks = ((bold1[:d1, :d1], bold1[:d1, d1:], bold1[d1:, d1:], L1),
              (bold2[d1:, d1:], bold2[d1:, :d1], bold2[:d1, :d1], L2))
    xi = []
    for bA, bB, bD, L in blocks:
        mu = np.abs(np.linalg.eigvals(bA + bB @ L))
        lam = np.abs(np.linalg.eigvals(bD - L @ bB))
        xi.append(float(lam.max() / mu.min()))
    return tuple(xi)


def distance(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


class Gate:
    """Collects violations; remembers each game's solutions across operations."""

    def __init__(self):
        self.violations = []
        self.checked = 0
        self._solutions = {}  # (game key, route) -> L1 of the first solution

    def fail(self, where, message):
        self.violations.append(f"{where}: {message}")

    def solution(self, g, sol, route="schur"):
        """A returned solution: residuals, certificate, oracle, route agreement."""
        self.checked += 1
        where = f"{g.key} [{route}]"
        first = self._solutions.get((g.key, route))
        if first is not None:
            # Same game and route earlier in the run: the result must repeat.
            if distance(sol.L1, first) > ROUTE_TOL:
                self.fail(where, "solution differs from an earlier solve of the same game")
            return
        self._solutions[(g.key, route)] = np.array(sol.L1)
        r1, r2 = relative_residuals(g.game, sol.L1, sol.L2)
        if not (r1 < RESIDUAL_TOL and r2 < RESIDUAL_TOL):
            self.fail(where, f"Riccati residuals {r1:.3e}, {r2:.3e} not below {RESIDUAL_TOL:g}")
        if not sol.stable:
            self.fail(where, "returned solution is not certified stable")
        xi1, xi2 = certificate(g.game, sol.L1, sol.L2)
        if not (xi1 < 1.0 and abs(xi1 - sol.xi_max[0]) <= XI_TOL * max(1.0, xi1)):
            self.fail(where, f"recomputed xi_max {xi1:.9g} vs reported {sol.xi_max[0]:.9g}")
        if g.scalar:
            self.scalar_slope(g, float(sol.L1[0, 0]), where)
        other = self._solutions.get((g.key, "qz" if route == "schur" else "schur"))
        if other is not None and distance(sol.L1, other) > ROUTE_TOL:
            self.fail(where, "Schur and QZ solutions disagree")

    def scalar_slope(self, g, L1, where):
        """A scalar game's stable slope against the closed-form oracle."""
        try:
            result = builders.mobius_fixed_points(g.game)
        except ComplexFixedPoints:
            self.fail(where, "a slope was returned for a game with no real fixed point")
            return
        stable = [r for r in result.records if r.classification == "stable"]
        if len(stable) != 1 or abs(L1 - stable[0].L) > ORACLE_TOL:
            self.fail(where, f"slope {L1!r} does not match the Moebius oracle")
        if g.pinned_L1 is not None and abs(L1 - g.pinned_L1) > ORACLE_TOL:
            self.fail(where, f"slope {L1!r} is not the pinned {g.pinned_L1!r}")

    def iteration(self, g, trace, direct_L1, where=None):
        """A converged iteration must land on the direct solution."""
        self.checked += 1
        where = where or f"{g.key} [iterate]"
        if direct_L1 is None:
            self.fail(where, "iteration converged but the game has no direct solution")
            return
        if distance(trace.final.L1, direct_L1) > ITERATE_TOL:
            self.fail(where, "converged iteration does not match the direct L1")

    # --- ccve subprocess outputs ------------------------------------------

    def cli(self, op, exit_code, stdout, stderr, reference):
        """Check one ccve subprocess; return True when the op succeeded.

        ``reference`` is the in-process solution of the same game (or None
        when the game has none).  Exit codes: 0 success, 1 error, 2 not
        certified, 3 diverged.
        """
        self.checked += 1
        where = f"ccve {' '.join(op.argv[:1])} {op.game.key}"
        if exit_code != op.expect_exit:
            self.fail(where, f"exit code {exit_code}, expected {op.expect_exit}: {stderr[-300:]}")
            return False
        if exit_code == 2:
            if "NoStableSelection" not in stderr:
                self.fail(where, "exit 2 without a NoStableSelection message")
            return False
        try:
            return self._cli_outputs(op, stdout, reference, where)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.fail(where, f"output does not parse: {exc!r}")
            return False

    def _cli_outputs(self, op, stdout, reference, where):
        kind = op.argv[0]
        if kind == "solve":
            with open(op.expect["solution"]) as fh:
                data = json.load(fh)
            if not data["stable"]:
                self.fail(where, "solution file is not certified stable")
            if distance(data["L1"], reference.L1) > ROUTE_TOL:
                self.fail(where, "solution file does not match the in-process solve")
            return True
        if kind == "iterate":
            trace = op.expect["trace"]
            with open(trace.rsplit(".", 1)[0] + ".summary.json") as fh:
                summary = json.load(fh)
            with open(trace, newline="") as fh:
                rows = list(csv.reader(fh))
            d1, d2 = op.game.game.dims.d1, op.game.game.dims.d2
            width = 1 + 2 * d1 * d2 + 3 * (d1 + d2) + 5
            if len(rows) != summary["iterations"] + 2 or any(len(r) != width for r in rows):
                self.fail(where, "trace CSV shape does not match the summary")
            if summary["status"] != "converged":
                return False
            L1 = np.array(rows[-1][1:1 + d1 * d2], float).reshape(d2, d1)
            if distance(L1, reference.L1) > ITERATE_TOL:
                self.fail(where, "converged trace does not end at the direct L1")
            if op.expect.get("compare") and \
                    summary["distance_to_solution"]["L1"] > ITERATE_TOL:
                self.fail(where, "reported distance to the solution is too large")
            return True
        if kind == "check":
            if "certification: PASS" not in stdout:
                self.fail(where, "check did not certify the solution")
            return True
        if kind == "enumerate":
            with open(op.expect["candidates"]) as fh:
                data = json.load(fh)
            stable = [c for c in data["candidates"] if c["stable"]]
            if len(stable) != 1 or distance(stable[0]["L1"], reference.L1) > ROUTE_TOL:
                self.fail(where, "enumeration does not hold exactly the direct solution as stable")
            return True
        raise ValueError(f"unknown subcommand {kind!r}")
