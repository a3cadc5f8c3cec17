"""End-to-end acceptance gate.

Ten numbered criteria covering benchmark reproduction, certification,
spectral structure, stability, the scalar oracle, route equivalence, the
composite-map identity, the LQ builder, and cost reporting.  Each test prints
a single PASS/FAIL line.
"""

import time

import numpy as np
import pytest

from ccve import analysis, builders, equilibrium, lft, stability
from ccve.core import assemble_blocks, riccati_residual_norms
from ccve.errors import (
    CcveError,
    ComplexFixedPoints,
    DegenerateScalar,
    NoStableSelection,
)
from ccve.spectral import LargestMagnitude, SmallestMagnitude

from conftest import (
    h_matrices,
    match_multisets,
    perturbation_operator,
    principal_angles,
    random_lq_spec,
    rollout_cost,
    uniform_pool,
)


def report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


@pytest.fixture(scope="module")
def pool():
    """100 random validated games with d1, d2 <= 6 and clean spectral gaps."""
    return uniform_pool(100, seed0=1000, dmax=6)


@pytest.fixture(scope="module")
def pool_solutions(pool):
    return [equilibrium.solve_ccve(g) for g in pool]


class TestAcceptance:
    def test_criterion_1_bench_reproduction(self, bench_game):
        t0 = time.monotonic()
        trace = lft.iterate(
            bench_game,
            lft.IterationConfig(mode="cross", max_iters=20, tol=1e-8),
        )
        sol = equilibrium.solve_ccve(bench_game)
        elapsed = time.monotonic() - t0
        ok = (
            trace.status == "converged"
            and trace.status_iter <= 20
            and sol.stable
            and np.linalg.norm(trace.final.L1 - sol.L1) < 1e-6
            and elapsed < 1.0
        )
        report(1, "fixed 2x3 benchmark: cross iteration converges within 20 "
                  "iterations to the direct stable solution in under 1 s", ok)

    def test_criterion_2_large_benchmark_convergence(self):
        t0 = time.monotonic()
        ok = True
        for seed in range(5):
            g = builders.random_game(50, 60, recipe="paper7ex2", seed=seed)
            sol = equilibrium.solve_ccve(g)
            trace = lft.iterate(
                g, lft.IterationConfig(mode="cross", max_iters=100, tol=1e-13)
            )
            dists = np.array(
                [np.linalg.norm(s.L1 - sol.L1) for s in trace.steps]
            )
            hit = np.nonzero(dists < 1e-6)[0]
            ok &= hit.size > 0 and hit[0] <= 100
            # Log-distance tail (past the transient) must be linear with
            # negative slope.
            mask = (dists > 1e-12) & (dists < 1e-4)
            ks = np.nonzero(mask)[0]
            logs = np.log(dists[ks])
            slope, intercept = np.polyfit(ks, logs, 1)
            fit = slope * ks + intercept
            ok &= slope < 0 and np.max(np.abs(logs - fit)) < 0.5
        elapsed = time.monotonic() - t0
        ok &= elapsed < 30.0
        report(2, "five 50x60 seeded games converge to the direct solution "
                  "below 1e-6 within 100 iterations at an exponential rate, "
                  "under 30 s total", ok)

    def test_criterion_3_riccati_certification(self, pool, pool_solutions):
        ok = True
        for g, sol in zip(pool, pool_solutions):
            r1, r2 = riccati_residual_norms(g, sol.L1, sol.L2)
            ok &= max(r1, r2) < 1e-8
            ok &= np.linalg.norm(sol.L1 @ sol.x1 + sol.ell1 - sol.x2) < 1e-8
            ok &= np.linalg.norm(sol.L2 @ sol.x2 + sol.ell2 - sol.x1) < 1e-8
            ok &= np.linalg.norm(lft.best_response(g, 1, sol.L1, sol.ell1) - sol.x1) < 1e-8
            ok &= np.linalg.norm(lft.best_response(g, 2, sol.L2, sol.ell2) - sol.x2) < 1e-8
        report(3, "100 random games (d <= 6): solved equilibria have relative "
                  "residuals below 1e-8 and mutually consistent actions", ok)

    def test_criterion_4_spectral_structure(self, pool, pool_solutions):
        ok = True
        for g, sol in zip(pool, pool_solutions):
            blocks = assemble_blocks(g)
            H1, H1p, _, H2p = h_matrices(blocks, sol.L1, sol.L2)
            full1 = np.linalg.eigvals(blocks.boldM1)
            scale = max(1.0, np.abs(full1).max())
            split = np.concatenate(
                [np.linalg.eigvals(H1), np.linalg.eigvals(H1p)]
            )
            ok &= match_multisets(split, full1, 1e-6 * scale)
            partner = np.linalg.solve(blocks.M1.T, blocks.M2)
            recip = 1.0 / np.linalg.eigvals(partner)
            ok &= match_multisets(full1, recip, 1e-6 * scale)
            h2p = np.linalg.eigvals(H2p)
            h1_inv = 1.0 / np.linalg.eigvals(H1)
            ok &= match_multisets(h2p, h1_inv, 1e-6 * max(1.0, np.abs(h1_inv).max()))
        report(4, "composite spectrum splits into spec(H1) and spec(H1'), is "
                  "reciprocal to the partner composite, and spec(H2') matches "
                  "1/spec(H1), all within 1e-6", ok)

    def test_criterion_5_stability_dichotomy(self, pool, pool_solutions):
        ok = True
        checked_unstable = 0
        for g, sol in zip(pool, pool_solutions):
            if "NoSpectralGap" in sol.warnings or sol.stability.marginal:
                continue
            ok &= sol.selection_used == "largest"
            ok &= sol.stability.xi_max_1 < 1.0
            try:
                other = equilibrium.solve_ccve(g, SmallestMagnitude)
            except CcveError:
                other = None  # no valid candidate for the complement ordering
            if other is not None and not other.stability.marginal:
                ok &= other.stability.xi_max_1 > 1.0
                checked_unstable += 1
            blocks = assemble_blocks(g)
            for i, L in ((1, sol.L1), (2, sol.L2)):
                ratios = stability.perturbation_spectrum(blocks, i, L)
                op_eigs = np.linalg.eigvals(
                    perturbation_operator(blocks, i, L)
                )
                ok &= match_multisets(ratios, op_eigs,
                                      1e-6 * max(1.0, np.abs(ratios).max()))
        ok &= checked_unstable > 0
        # Empirical contraction rate from 1e-4 perturbations on a subsample.
        for g, sol in list(zip(pool, pool_solutions))[:10]:
            blocks = assemble_blocks(g)
            rng = np.random.default_rng(0)
            E = rng.standard_normal(sol.L1.shape)
            E /= np.linalg.norm(E)
            L = sol.L1 + 1e-4 * E
            prev, rate = 1e-4, None
            for _ in range(60):
                L = lft.composite_step(blocks, 1, L)
                err = np.linalg.norm(L - sol.L1)
                if err < 1e-13 or prev < 1e-13:
                    break
                rate = err / prev
                prev = err
            ok &= rate is not None and abs(rate - sol.stability.xi_max_1) < 0.05
        report(5, "largest-magnitude candidates certify stable and "
                  "smallest-magnitude ones unstable; ratio spectra match the "
                  "dense operator and the observed contraction rate matches "
                  "xi_max within 0.05", ok)

    def test_criterion_6_scalar_oracle(self):
        rng = np.random.default_rng(99)
        ok = True
        collected = 0
        while collected < 100:
            spec = builders.ScalarSpec(
                q1=float(rng.uniform(0.3, 2.0)), r1=float(rng.uniform(-1, 1)),
                s1=float(rng.uniform(-1, 1)), w1=float(rng.uniform(-1, 1)),
                v1=float(rng.uniform(-1, 1)),
                q2=float(rng.uniform(0.3, 2.0)), r2=float(rng.uniform(-1, 1)),
                s2=float(rng.uniform(-1, 1)), w2=float(rng.uniform(-1, 1)),
                v2=float(rng.uniform(-1, 1)),
            )
            try:
                g = builders.build_scalar_game(spec)
                mob = builders.mobius_fixed_points(g)
                enum = equilibrium.enumerate_fixed_points(g)
            except (DegenerateScalar, ComplexFixedPoints, CcveError):
                continue
            if mob.infinite_root or len(enum.candidates) != 2:
                continue
            collected += 1
            mob_slopes = sorted(r.L for r in mob.records)
            enum_slopes = sorted(c.solution.L1[0, 0] for c in enum.candidates)
            ok &= np.allclose(mob_slopes, enum_slopes, atol=1e-10)
            xis = sorted(r.xi_magnitude for r in mob.records)
            if xis[1] - xis[0] > 1e-6:
                stable = [r for r in mob.records if r.classification == "stable"]
                ok &= len(stable) == 1
                try:
                    sol = equilibrium.solve_ccve(g)
                    ok &= abs(sol.L1[0, 0] - stable[0].L) < 1e-10
                    ok &= abs(sol.xi_max[0] - stable[0].xi_magnitude) < 1e-10
                except NoStableSelection:
                    # Only admissible when the stable root is near-marginal.
                    ok &= abs(stable[0].xi_magnitude - 1.0) < 1e-6
        report(6, "100 random scalar games: quadratic-formula fixed points "
                  "agree with enumeration and the solver to 1e-10, with a "
                  "unique stable root whenever multipliers separate", ok)

    def test_criterion_7_route_equivalence(self, pool, pool_solutions):
        ok = True
        for g, sol in zip(pool, pool_solutions):
            gen = equilibrium.solve_via_generalized(g)
            ok &= np.linalg.norm(gen.L1 - sol.L1) < 1e-8
            ok &= np.linalg.norm(gen.L2 - sol.L2) < 1e-8
            ok &= np.linalg.norm(gen.x1 - sol.x1) < 1e-8
            ok &= np.linalg.norm(gen.x2 - sol.x2) < 1e-8
        # Basis invariance: L1 depends only on the span of the basis.
        rng = np.random.default_rng(5)
        for g in pool[:20]:
            from ccve import spectral
            blocks = assemble_blocks(g)
            d1 = g.dims.d1
            sub = spectral.invariant_subspace(blocks.boldM1, d1, LargestMagnitude)
            W = rng.standard_normal((d1, d1)) + 2.0 * np.eye(d1)
            basis = sub.basis @ W
            Y, X = basis[:d1], basis[d1:]
            L_w = np.linalg.solve(Y.T, X.T).T
            L_0 = np.linalg.solve(sub.basis[:d1].T, sub.basis[d1:].T).T
            ok &= np.linalg.norm(L_w - L_0) < 1e-10 * (1 + np.linalg.norm(L_0))
        report(7, "generalized-eigenproblem route matches the direct route to "
                  "1e-8 and the recovered slope is basis invariant to 1e-10", ok)

    def test_criterion_8_composite_identity(self, pool):
        ok = True
        rng = np.random.default_rng(77)
        samples = 0
        games = pool[:50]
        while samples < 1000:
            g = games[samples % len(games)]
            blocks = assemble_blocks(g)
            if samples % 2 == 0:
                i, shape = 1, (g.dims.d2, g.dims.d1)
            else:
                i, shape = 2, (g.dims.d1, g.dims.d2)
            L = 0.5 * rng.standard_normal(shape)
            one = lft.composite_step(blocks, i, L)
            j = 2 if i == 1 else 1
            two = lft.lft_cross(g, j, lft.lft_cross(g, i, L))
            ok &= np.linalg.norm(one - two) < 1e-10 * (1 + np.linalg.norm(one))
            samples += 1
        # k-step subspace property, k <= 10.
        for g in pool[:5]:
            blocks = assemble_blocks(g)
            d1, d2 = g.dims.d1, g.dims.d2
            trace = lft.iterate(
                g, lft.IterationConfig(mode="composite", max_iters=10, tol=1e-30)
            )
            V = np.vstack([np.eye(d1), np.zeros((d2, d1))])
            for k in range(1, len(trace.steps)):
                V = blocks.boldM1 @ V
                W = np.vstack([np.eye(d1), trace.steps[k].L1])
                ok &= np.max(principal_angles(V, W)) < 1e-6
        report(8, "composite update equals two chained cross updates on 1000 "
                  "samples to 1e-10 relative; k-step iterates stay graphs of "
                  "the k-step composite images for k <= 10", ok)

    def test_criterion_9_lq_builder(self):
        rng = np.random.default_rng(2024)
        ok = True
        for _ in range(20):
            spec = random_lq_spec(rng, n_max=3, t_max=4)
            g = builders.build_lq_game(spec)
            u1 = rng.standard_normal(g.dims.d1)
            u2 = rng.standard_normal(g.dims.d2)
            for i in (1, 2):
                from ccve.core import eval_cost
                static = eval_cost(g, i, u1, u2)
                rolled = rollout_cost(spec, i, u1, u2)
                ok &= abs(static - rolled) < 1e-10 * (1 + abs(static))
            # Analytic own-control gradient vs central finite differences.
            grad = g.p1.A @ u1 + g.p1.B.T @ u2 + g.p1.a
            h = 1e-6
            for j in range(g.dims.d1):
                e = np.zeros(g.dims.d1)
                e[j] = h
                fd = (rollout_cost(spec, 1, u1 + e, u2)
                      - rollout_cost(spec, 1, u1 - e, u2)) / (2 * h)
                ok &= abs(fd - grad[j]) < 1e-5 * max(1.0, abs(grad[j]))
        report(9, "20 random LQ specs: built-game costs equal rollout costs "
                  "to 1e-10 and analytic gradients match finite differences "
                  "to 1e-5 relative", ok)

    def test_criterion_10_second_order_and_costs(self, bench_game):
        sol = equilibrium.solve_ccve(bench_game)
        trace = lft.iterate(
            bench_game, lft.IterationConfig(mode="cross", max_iters=50, tol=1e-10)
        )
        _, _, fs_star = analysis.social_optimum(bench_game)
        social = [s.f_social for s in trace.steps]
        ok = (
            sol.second_order.pass_
            and trace.status == "converged"
            and all(np.isfinite([s.f1, s.f2, s.f_social]).all()
                    for s in trace.steps)
            and fs_star <= min(social) + 1e-8
        )
        report(10, "benchmark pipeline passes the second-order check, emits "
                   "per-step cost traces, and the social optimum lower-bounds "
                   "the social-cost trace", ok)
