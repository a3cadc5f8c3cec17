"""Eigendecomposition, ordered invariant subspaces, and the generalized route."""

import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.linalg import lapack

from ccve import builders, spectral
from ccve.core import assemble_blocks
from ccve.errors import ConjugatePairSplit, EigFailure
from ccve.spectral import (
    Indices,
    LargestMagnitude,
    SmallestMagnitude,
    eig,
    generalized_pairs,
    invariant_subspace,
)

from conftest import SQ3, principal_angles, uniform_pool

WARM_BOLD = np.array([[-15.0, -4.0], [4.0, 1.0]])
# Characteristic polynomial x^2 + 14x + 1: eigenvalues -7 +/- 4 sqrt(3).
WARM_EIGS = (-7.0 + 4.0 * SQ3, -7.0 - 4.0 * SQ3)


class TestEig:
    def test_sorted_by_descending_magnitude(self):
        s = eig(np.diag([1.0, -3.0, 2.0]))
        assert np.allclose(s.values, [-3.0, 2.0, 1.0])
        assert np.allclose(s.magnitudes, [3.0, 2.0, 1.0])

    def test_warmup_composite_eigenvalues(self):
        s = eig(WARM_BOLD)
        assert s.values[0].real == pytest.approx(WARM_EIGS[1], abs=1e-12)
        assert s.values[1].real == pytest.approx(WARM_EIGS[0], abs=1e-12)

    def test_complex_pair_sorted_conjugates_adjacent(self):
        # Rotation by 90 degrees: eigenvalues +/- i, equal magnitude.
        s = eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.allclose(sorted(v.imag for v in s.values), [-1.0, 1.0])
        assert np.allclose([v.real for v in s.values], [0.0, 0.0], atol=1e-12)
        # Tie on magnitude and real part breaks by descending imaginary part.
        assert s.values[0].imag > 0

    def test_eigenvector_residuals_checked(self):
        s = eig(WARM_BOLD)
        for j, v in enumerate(s.values):
            r = WARM_BOLD @ s.vectors[:, j] - v * s.vectors[:, j]
            assert np.linalg.norm(r) < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(EigFailure):
            eig(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(EigFailure):
            eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def schur_values_by_block(T):
    """Reference: each diagonal block's eigenvalues from the general 2x2 formula."""
    values = []
    i = 0
    while i < len(T):
        if i + 1 < len(T) and T[i + 1, i] != 0.0:
            a, b, c, d = T[i, i], T[i, i + 1], T[i + 1, i], T[i + 1, i + 1]
            mean = 0.5 * (a + d)
            root = np.sqrt(-(0.25 * (a - d) ** 2 + b * c))
            values += [mean + 1j * root, mean - 1j * root]
            i += 2
        else:
            values.append(complex(T[i, i]))
            i += 1
    return np.array(values)


def assert_schur_values(T, values):
    """The eigenvalues dgees gives with its form T: real parts are T's diagonal,
    each conjugate pair is exact with its positive imaginary part first, and
    the imaginary parts are within 4 ulp of the block formula (dgees forms
    sqrt|b| sqrt|c| where the formula forms sqrt(-bc))."""
    assert np.array_equal(values.real, np.diag(T))
    first = np.nonzero(values.imag > 0)[0]
    assert np.array_equal(values[first + 1], np.conj(values[first]))
    expected = schur_values_by_block(T).imag
    assert np.array_equal(values.imag == 0.0, expected == 0.0)
    assert np.all(np.abs(values.imag - expected) <= 4 * np.spacing(np.abs(expected)))


class TestSchurValues:
    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_matches_block_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        T, _, values = spectral._schur(rng.standard_normal((n, n)))
        assert_schur_values(T, values)


class TestInvariantSubspace:
    def test_diagonal_largest(self):
        sub = invariant_subspace(np.diag([3.0, 1.0, 2.0]), 2, LargestMagnitude)
        # Largest two eigenvalues are 3 and 2: span of e0, e2.
        assert np.allclose(sorted(np.abs(sub.eigenvalues)), [2.0, 3.0])
        target = np.zeros((3, 2))
        target[0, 0] = 1.0
        target[2, 1] = 1.0
        assert np.max(principal_angles(sub.basis, target)) < 1e-12

    def test_diagonal_smallest(self):
        sub = invariant_subspace(np.diag([3.0, 1.0, 2.0]), 1, SmallestMagnitude)
        assert np.allclose(np.abs(sub.eigenvalues), [1.0])
        assert abs(abs(sub.basis[1, 0]) - 1.0) < 1e-12

    def test_warmup_largest_graph_slope(self):
        # Eigenvector of -7 - 4 sqrt(3) for [[-15, -4], [4, 1]] is
        # [1, -2 + sqrt(3)] (from (-15 - lam) y - 4 x = 0).
        sub = invariant_subspace(WARM_BOLD, 1, LargestMagnitude)
        assert sub.eigenvalues[0].real == pytest.approx(WARM_EIGS[1], abs=1e-12)
        slope = sub.basis[1, 0] / sub.basis[0, 0]
        assert slope == pytest.approx(-2.0 + SQ3, abs=1e-12)

    def test_basis_orthonormal_and_invariant(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 6))
        sub = invariant_subspace(M, 3, LargestMagnitude)
        assert np.allclose(sub.basis.T @ sub.basis, np.eye(3), atol=1e-12)
        rep = sub.basis.T @ M @ sub.basis
        assert np.linalg.norm(M @ sub.basis - sub.basis @ rep) < 1e-8 * np.linalg.norm(M)

    def test_residual_check_passes_nothing_vacuously(self):
        # ||M||_F^2 overflowed to inf and read any finite residual as 0, and
        # a NaN residual compared False with the tolerance: both passed.
        M = 1e160 * np.eye(3)
        with pytest.raises(EigFailure, match="residual 1.000e-03"):
            spectral._check_residual("invariant-subspace", (1e-3 * M, M))
        with pytest.raises(EigFailure, match="residual nan"):
            spectral._check_residual("invariant-subspace", (np.full((3, 3), np.nan), M))
        spectral._check_residual("invariant-subspace", (1e-9 * M, M))

    def test_conjugate_pair_split_raises(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ConjugatePairSplit):
            invariant_subspace(M, 1, LargestMagnitude)

    def test_real_basis_for_selected_complex_pair(self):
        # blkdiag(rotation scaled by 2, 0.5): the pair 2e^{+/-i pi/2} is the
        # largest-magnitude set and is conjugation closed.
        M = np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        sub = invariant_subspace(M, 2, LargestMagnitude)
        assert np.isrealobj(sub.basis)
        assert sorted(np.round(v.imag, 9) for v in sub.eigenvalues) == [-2.0, 2.0]
        target = np.eye(3)[:, :2]
        assert np.max(principal_angles(sub.basis, target)) < 1e-10

    def test_indices_selection(self):
        M = np.diag([5.0, 3.0, 1.0])
        sub = invariant_subspace(M, 2, Indices([0, 2]))
        assert np.allclose(sorted(np.abs(sub.eigenvalues)), [1.0, 5.0])

    def test_indices_wrong_length_rejected(self):
        with pytest.raises(EigFailure):
            invariant_subspace(np.diag([2.0, 1.0]), 1, Indices([0, 1]))

    @pytest.mark.parametrize("route", ["direct", "generalized"])
    @pytest.mark.parametrize("k", [0, 3, 1.0, 2.0, True, np.float64(1.0), "1"])
    def test_k_outside_the_order_rejected(self, route, k):
        # k must be a count too: 2.0 ended in a raw TypeError and True in a
        # raw ValueError.
        M = np.diag([2.0, 1.0])
        msg = re.escape(f"k must satisfy 1 <= k <= 2, got {k}")
        with pytest.raises(EigFailure, match=msg):
            if route == "direct":
                invariant_subspace(M, k, LargestMagnitude)
            else:
                generalized_pairs(M, np.eye(2), k, LargestMagnitude)

    @pytest.mark.parametrize("idx", [[0.9, 1.7], [0.0, 1], ["1", 0], [True, 0], [0, None]])
    def test_indices_that_are_no_counts_rejected(self, idx):
        # [0.9, 1.7] became indices[0, 1], which a solve then solved, and
        # ["1", 0] became indices[1, 0]; Selection("indices", (0.5, 1))
        # ended a solve in a raw IndexError.
        with pytest.raises(EigFailure, match="Indices selection positions must be integers"):
            Indices(idx)
        with pytest.raises(EigFailure, match="Indices selection positions must be integers"):
            spectral.Selection("indices", tuple(idx))

    @pytest.mark.parametrize("kind, idx, msg", [
        ("largest", (7,), "a 'largest' selection takes no positions, got (7,)"),
        ("smallest", (0,), "a 'smallest' selection takes no positions, got (0,)"),
        ("bogus", (), "unknown selection kind 'bogus'"),
        ("Largest", (), "unknown selection kind 'Largest'"),
    ], ids=["largest-with-positions", "smallest-with-positions", "bogus", "Largest"])
    def test_selection_refuses_what_it_would_ignore(self, kind, idx, msg):
        # Selection("largest", (7,)) solved the largest selection and recorded
        # "largest"; "bogus" was refused only when a solve reached it.
        with pytest.raises(EigFailure, match=re.escape(msg)):
            spectral.Selection(kind, idx)

    @pytest.mark.parametrize("make", [
        lambda: spectral.Selection("indices", 7),
        lambda: Indices(3),
        lambda: spectral.Selection("largest", 7),
    ], ids=["indices-7", "Indices-3", "largest-7"])
    def test_positions_that_are_no_sequence_rejected(self, make):
        # Each ended in a raw TypeError: "'int' object is not iterable" for
        # the first two, "object of type 'int' has no len()" for the third.
        with pytest.raises(EigFailure, match=r"selection positions must be a sequence, got \d"):
            make()

    def test_numpy_integer_indices_are_stored_as_ints(self):
        selection = Indices(np.array([0, 2]))
        assert selection.indices == (0, 2)
        assert all(type(i) is int for i in selection.indices)

    @pytest.mark.parametrize("route", ["direct", "generalized"])
    @pytest.mark.parametrize("idx", [2, -1])
    def test_indices_out_of_range_rejected(self, route, idx):
        M = np.diag([2.0, 1.0])
        with pytest.raises(EigFailure, match="Indices selection out of range"):
            if route == "direct":
                invariant_subspace(M, 1, Indices([idx]))
            else:
                generalized_pairs(M, np.eye(2), 1, Indices([idx]))

    def test_no_spectral_gap_warning(self):
        sub = invariant_subspace(np.diag([1.0, 1.0 + 1e-12, 2.0]), 2, LargestMagnitude)
        assert "NoSpectralGap" in sub.warnings

    def test_clean_gap_has_no_warning(self):
        sub = invariant_subspace(np.diag([1.0, 3.0]), 1, LargestMagnitude)
        assert sub.warnings == ()

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_selected_plus_complement_is_full_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        M = rng.standard_normal((n, n))
        k = int(rng.integers(1, n))
        try:
            sub = invariant_subspace(M, k, LargestMagnitude)
            comp = invariant_subspace(M, n - k, SmallestMagnitude)
        except ConjugatePairSplit:
            assume(False)
        both = np.concatenate([sub.eigenvalues, comp.eigenvalues])
        full = np.linalg.eigvals(M)
        scale = max(np.abs(full).max(), 1.0)
        assert np.allclose(
            np.sort_complex(both), np.sort_complex(full), atol=1e-7 * scale
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_k_dim_subspace_contains_k_step_images(self, seed):
        # An invariant subspace is closed under M: span(V) = span(MV) when the
        # selected eigenvalues are nonzero.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        M = rng.standard_normal((n, n)) + 0.5 * np.eye(n)
        k = int(rng.integers(1, n))
        try:
            sub = invariant_subspace(M, k, LargestMagnitude)
        except ConjugatePairSplit:
            assume(False)
        assume(np.min(np.abs(sub.eigenvalues)) > 1e-6)
        image = M @ sub.basis
        assert np.max(principal_angles(sub.basis, image)) < 1e-7


class TestGeneralizedRoute:
    def _random_pencil(self, seed, n):
        rng = np.random.default_rng(seed)
        M1 = rng.standard_normal((n, n))
        M2T = rng.standard_normal((n, n)) + n * np.eye(n)
        return M1, M2T

    def test_matches_direct_route_subspace(self):
        M1, M2T = self._random_pencil(5, 6)
        bold = np.linalg.solve(M2T, M1)
        for k in (2, 3):
            try:
                direct = invariant_subspace(bold, k, LargestMagnitude)
                gen = generalized_pairs(M1, M2T, k, LargestMagnitude)
            except ConjugatePairSplit:
                continue
            assert np.max(principal_angles(direct.basis, gen.basis)) < 1e-8
            assert np.allclose(
                np.sort_complex(direct.eigenvalues),
                np.sort_complex(gen.eigenvalues),
                atol=1e-8 * max(1.0, np.abs(direct.eigenvalues).max()),
            )

    def test_deflating_residual_small(self):
        M1, M2T = self._random_pencil(1, 5)
        sub = generalized_pairs(M1, M2T, 2, LargestMagnitude)
        rep = np.linalg.lstsq(M2T @ sub.basis, M1 @ sub.basis, rcond=None)[0]
        resid = np.linalg.norm(M1 @ sub.basis - M2T @ sub.basis @ rep)
        assert resid < 1e-8 * np.linalg.norm(M1)

    def test_singular_m2_rejected(self):
        M1 = np.eye(2)
        M2T = np.diag([1.0, 0.0])
        with pytest.raises(EigFailure, match="infinite generalized eigenvalue"):
            generalized_pairs(M1, M2T, 1, LargestMagnitude)


class TestPrincipalAngles:
    def test_identical_spans_are_zero(self):
        rng = np.random.default_rng(2)
        U = rng.standard_normal((5, 2))
        # Any invertible right factor leaves the span unchanged.
        V = U @ np.array([[2.0, 1.0], [0.0, -1.0]])
        assert np.max(principal_angles(U, V)) < 1e-12

    def test_orthogonal_spans_are_right_angles(self):
        U = np.eye(4)[:, :2]
        V = np.eye(4)[:, 2:]
        assert np.allclose(principal_angles(U, V), np.pi / 2)


def bitwise_equal(a, b):
    """Same dtype, shape and bytes: signed zeros and NaNs count too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


KERNEL_POOLS = [
    pytest.param(lambda: [builders.example1_game()], id="2x3"),
    pytest.param(lambda: uniform_pool(20), id="uniform_pool"),
    pytest.param(lambda: [builders.random_game(50, 60, recipe="paper7ex2", seed=0)],
                 id="paper7ex2-50x60-s0"),
]


def old_select(values, k, selection):
    """(inside, selected, complement) as resolved before one sort served the
    whole selection: each value set sorted by its own _sort_key."""
    n = len(values)
    order = spectral._sort_key(values)
    if selection.kind == "largest":
        chosen = order[:k]
    elif selection.kind == "smallest":
        chosen = order[n - k:]
    else:
        chosen = order[list(selection.indices)]
    inside = np.zeros(n, dtype=bool)
    inside[chosen] = True
    selected, complement = values[chosen], values[~inside]
    return (inside, selected[spectral._sort_key(selected)],
            complement[spectral._sort_key(complement)])


def assert_one_sort_selection(values, k, selection):
    try:
        got = spectral._select_positions(values, k, selection)
    except ConjugatePairSplit:
        return False
    for new, old in zip(got, old_select(values, k, selection)):
        assert bitwise_equal(new, old)
    return True


# spectral's form through each kernel, and the options it passes the kernel:
# the QZ form does not form Q.
FORMS = {"dgees": (spectral._schur, {}), "dgges": (spectral._qz, {"jobvsl": 0})}


class TestDirectKernels:
    @pytest.mark.parametrize("pool", KERNEL_POOLS)
    def test_schur_is_scipy_schur_bit_for_bit(self, pool):
        for game in pool():
            M = assemble_blocks(game).boldM1
            T, Z, values = spectral._schur(M)
            T0, Z0 = sla.schur(M, output="real")
            assert bitwise_equal(T, T0) and bitwise_equal(Z, Z0)
            assert_schur_values(T0, values)

    @pytest.mark.parametrize("n", [1, 6, 50])
    @pytest.mark.parametrize("kernel", ["dgees", "dgges"])
    def test_form_keeps_no_state(self, monkeypatch, kernel, n):
        # Each of two forms of one order makes two kernel calls, both with the
        # route's options: the lwork query, then the form at the lwork it returned.
        form, options = FORMS[kernel]
        call = getattr(lapack, kernel)
        calls = []

        def spy(select, *mats, lwork=None, **passed):
            assert passed == options
            out = call(select, *mats, lwork=lwork, **passed)
            calls.append((lwork, int(out[-2][0])))
            return out
        monkeypatch.setattr(spectral.lapack, kernel, spy)
        rng = np.random.default_rng(n)
        for _ in range(2):
            calls.clear()
            form(*rng.standard_normal((1 if kernel == "dgees" else 2, n, n)))
            (query, answer), (passed, _) = calls
            assert (query, passed) == (-1, answer)

    @pytest.mark.parametrize("pool", KERNEL_POOLS)
    def test_qz_is_scipy_qz_bit_for_bit(self, pool):
        for game in pool():
            blocks = assemble_blocks(game)
            # The route does not form scipy's Q.
            AA, BB, Z, _ = spectral._qz(blocks.M1, blocks.M2.T)
            AA0, BB0, _, Z0 = sla.qz(blocks.M1, blocks.M2.T, output="real")
            for got, want in ((AA, AA0), (BB, BB0), (Z, Z0)):
                assert bitwise_equal(got, want)

    @pytest.mark.parametrize("M1, M2T", [
        (np.array([[np.nan, 0.0], [1.0, 2.0]]), np.eye(2)),
        (np.eye(2), np.array([[np.inf, 0.0], [1.0, 2.0]])),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.eye(2), np.eye(3)),
        (np.ones(3), np.ones(3)),
    ], ids=["nan", "inf", "2x3", "2-and-3", "1-d"])
    def test_non_finite_or_non_square_pencil_raises_eig_failure(self, M1, M2T):
        with pytest.raises(EigFailure, match="expected a finite square pencil"):
            generalized_pairs(M1, M2T, 1, LargestMagnitude)

    @pytest.mark.parametrize("M", [np.array([[np.nan, 0.0], [1.0, 2.0]]),
                                   np.array([[np.inf, 0.0], [1.0, 2.0]]),
                                   np.ones((2, 3)), np.ones(3)],
                             ids=["nan", "inf", "2x3", "1-d"])
    def test_non_finite_or_non_square_matrix_raises_eig_failure(self, M):
        with pytest.raises(EigFailure, match="expected a finite square matrix"):
            invariant_subspace(M, 1, LargestMagnitude)

    @pytest.mark.parametrize("pool", KERNEL_POOLS)
    def test_one_sort_selection_matches_per_set_sorts(self, pool):
        rng = np.random.default_rng(7)
        checked = 0
        for game in pool():
            values = spectral._schur(assemble_blocks(game).boldM1)[2]
            n = len(values)
            for k in range(1, n + 1):
                idx = rng.permutation(n)[:k]  # unsorted positions
                for selection in (LargestMagnitude, SmallestMagnitude, Indices(idx)):
                    checked += assert_one_sort_selection(values, k, selection)
        assert checked > 0

    def test_one_sort_selection_with_exact_ties(self):
        # A conjugate pair, a real value of the same magnitude and two equal
        # real values: ties broken by real part, then by position.
        values = np.array([1 + 1j, 1 - 1j, -SQ3 + 0j, 2.0, 2.0, -2.0, 1.0])
        for k in range(1, len(values) + 1):
            for idx in ([3, 4, 0, 1, 2, 6, 5][:k], [4, 2, 3, 1, 0, 6, 5][:k]):
                for selection in (LargestMagnitude, SmallestMagnitude, Indices(idx)):
                    assert_one_sort_selection(values, k, selection)

    @pytest.mark.parametrize("pool", KERNEL_POOLS)
    def test_qz_pick_matches_per_set_sorts(self, monkeypatch, pool):
        seen = []
        select = spectral._select_positions

        def spy(values, k, selection):
            seen.append((values.copy(), k, selection))
            return select(values, k, selection)
        monkeypatch.setattr(spectral, "_select_positions", spy)
        for game in pool():
            blocks = assemble_blocks(game)
            for selection in (LargestMagnitude, SmallestMagnitude):
                try:
                    generalized_pairs(blocks.M1, blocks.M2.T, game.dims.d1, selection)
                except (ConjugatePairSplit, EigFailure):
                    pass
        monkeypatch.undo()
        assert any([assert_one_sort_selection(*args) for args in seen])
