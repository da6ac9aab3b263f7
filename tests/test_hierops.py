"""Finite-volume operator: apply paths, dense assembly, diagonalization.

The dense matrix is the oracle for the fast paths; the closed-form
spectrum is cross-checked against dense eigendecomposition and the
hierarchical eigenbasis.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hierspec.errors import CertificationError, DomainError
from hierspec.hierops import (HaarBasis, SpectrumSummary, VolumeGrid,
                              apply_laplacian, assemble_dense, dense_spectrum,
                              dirichlet_spectrum, expm_action,
                              hier_distance_matrix, lanczos_extreme)
from hierspec.lattice import LatticeParams, cube_of, cube_sites, hier_distance


def grid_of(nu, p, depth):
    return VolumeGrid(LatticeParams(nu, p), depth)


class TestApply:
    def test_detail_vector_eigenvalue_minus_one(self):
        # delta_0 - delta_1 lives in the first eigenspace
        g = grid_of(2, 0.5, 5)
        psi = np.zeros(g.n_sites)
        psi[0], psi[1] = 1.0, -1.0
        out = apply_laplacian(psi, g)
        assert out == pytest.approx(-psi, abs=1e-14)

    @pytest.mark.parametrize("nu,p,depth", [(2, 0.5, 4), (3, 0.3, 3)])
    def test_constant_field_eigenvalue(self, nu, p, depth):
        g = grid_of(nu, p, depth)
        out = apply_laplacian(np.ones(g.n_sites), g)
        expected = -p**depth * (nu - 1) / (nu - p)
        assert out == pytest.approx(np.full(g.n_sites, expected), rel=1e-13)
        # independent check: truncating the defining series at high rank
        brute = sum((1 - p) * p ** (r - 1) * (min(nu**r, nu**depth) / nu**r - 1)
                    for r in range(1, 200))
        assert expected == pytest.approx(brute, abs=1e-14)

    @pytest.mark.parametrize("nu", [2, 3, 4])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_fast_equals_naive(self, nu, p):
        rng = np.random.default_rng(17)
        for depth in range(1, 7):
            g = grid_of(nu, p, depth)
            psi = rng.standard_normal(g.n_sites)
            fast = apply_laplacian(psi, g, "fast")
            naive = apply_laplacian(psi, g, "naive")
            scale = np.max(np.abs(naive))
            assert np.max(np.abs(fast - naive)) <= 1e-12 * max(scale, 1.0)

    def test_batch_matches_single(self):
        g = grid_of(2, 0.6, 5)
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((g.n_sites, 7))
        out = apply_laplacian(batch, g)
        for j in range(7):
            assert out[:, j] == pytest.approx(apply_laplacian(batch[:, j], g),
                                              abs=1e-13)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            apply_laplacian(np.ones(7), grid_of(2, 0.5, 3))

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            apply_laplacian(np.ones(8), grid_of(2, 0.5, 3), mode="magic")


class TestDense:
    def test_diagonal_value(self):
        m = assemble_dense(grid_of(2, 0.5, 4))
        assert m[3, 3] == pytest.approx(0.5 / 1.5 - 1.0, abs=1e-15)

    def test_first_shell_value(self):
        m = assemble_dense(grid_of(2, 0.5, 4))
        assert m[2, 3] == pytest.approx(1.0 / 3.0, abs=1e-15)
        # cross-check on the two-site volume: eigenpairs (1,-1) -> -1,
        # (1,1) -> -1/3
        m2 = assemble_dense(grid_of(2, 0.5, 1))
        vals = np.sort(np.linalg.eigvalsh(m2))
        assert vals == pytest.approx([-1.0, -1.0 / 3.0], abs=1e-14)

    @pytest.mark.parametrize("nu,p,depth", [(2, 0.5, 6), (3, 0.4, 4)])
    def test_matvec_equals_apply(self, nu, p, depth):
        g = grid_of(nu, p, depth)
        m = assemble_dense(g)
        assert np.max(np.abs(m - m.T)) == 0.0
        rng = np.random.default_rng(8)
        psi = rng.standard_normal(g.n_sites)
        assert m @ psi == pytest.approx(apply_laplacian(psi, g), abs=1e-12)

    def test_potential_on_diagonal(self):
        g = grid_of(2, 0.5, 3)
        m0 = assemble_dense(g)
        m1 = assemble_dense(g, np.eye(g.n_sites)[2] * 1.5)
        diff = m1 - m0
        assert diff[2, 2] == 1.5
        assert np.count_nonzero(diff) == 1

    @pytest.mark.parametrize("length", [7, 9])
    def test_diagonal_of_wrong_length_rejected(self, length):
        with pytest.raises(DomainError):
            assemble_dense(grid_of(2, 0.5, 3), np.ones(length))

    @pytest.mark.parametrize("nu,p,depth", [(2, 0.5, 6), (3, 0.3, 4),
                                            (4, 0.5, 3), (2, 0.97, 5)])
    @pytest.mark.parametrize("with_potential", [False, True])
    def test_block_fill_equals_distance_gather(self, nu, p, depth,
                                               with_potential):
        # the entry table gathered by the pairwise distance matrix
        g = grid_of(nu, p, depth)
        n = g.n_sites
        r = np.arange(depth + 1, dtype=float)
        table = (1.0 - p) * p ** (r - 1.0) / (float(nu) ** (r - 1.0) * (nu - p))
        expected = table[hier_distance_matrix(g, range(n))]
        np.fill_diagonal(expected, (1.0 - p) / (nu - p) - 1.0)
        potential = None
        if with_potential:
            potential = np.random.default_rng(nu + depth).uniform(0.0, 2.0, n)
            expected[np.diag_indices(n)] += potential
        m = assemble_dense(g, potential)
        assert m.shape == expected.shape
        assert m.tobytes() == expected.tobytes()
        assert np.array_equal(m, m.T)

    def test_dense_spectrum_holds_one_matrix(self):
        g = grid_of(2, 0.5, 10)
        tracemalloc.start()
        try:
            summary = dense_spectrum(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.total_multiplicity == g.n_sites
        assert peak < 1.5 * g.n_sites**2 * 8

    def test_distances_of_a_site_list(self):
        g = grid_of(3, 0.5, 4)
        sites = [80, 0, 5, 27, 26]
        d = hier_distance_matrix(g, sites)
        assert d.tolist() == [[hier_distance(x, y, 3) for y in sites]
                              for x in sites]
        assert np.array_equal(d, hier_distance_matrix(
            g, range(g.n_sites))[np.ix_(sites, sites)])

    def test_cap_enforced(self):
        with pytest.raises(DomainError):
            assemble_dense(grid_of(2, 0.5, 13))

    def test_cap_read_at_call_time(self, monkeypatch):
        import hierspec.hierops as hierops
        monkeypatch.setattr(hierops, "DENSE_CAP_DEFAULT", 8)
        assert assemble_dense(grid_of(2, 0.5, 3)).shape == (8, 8)
        with pytest.raises(DomainError):
            assemble_dense(grid_of(2, 0.5, 4))

    def test_nonpositive_and_symmetric_form(self):
        g = grid_of(3, 0.6, 4)
        rng = np.random.default_rng(21)
        for _ in range(25):
            psi = rng.standard_normal(g.n_sites)
            phi = rng.standard_normal(g.n_sites)
            lpsi = apply_laplacian(psi, g)
            assert psi @ lpsi <= 1e-12
            assert psi @ apply_laplacian(phi, g) == pytest.approx(
                phi @ lpsi, abs=1e-12)


class TestHaar:
    @pytest.mark.parametrize("nu,p,depth", [(2, 0.5, 6), (3, 0.3, 4), (4, 0.8, 3)])
    def test_round_trip(self, nu, p, depth):
        g = grid_of(nu, p, depth)
        basis = HaarBasis(g)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(g.n_sites)
        assert basis.inverse(basis.forward(x)) == pytest.approx(x, abs=1e-12)
        assert basis.forward(basis.inverse(x)) == pytest.approx(x, abs=1e-12)

    def test_orthonormality(self):
        g = grid_of(3, 0.5, 3)
        basis = HaarBasis(g)
        eye = np.eye(g.n_sites)
        f = basis.forward(eye)
        assert f @ f.T == pytest.approx(eye, abs=1e-12)

    def test_diagonal_values_match_closed_form(self):
        g = grid_of(2, 0.5, 2)
        basis = HaarBasis(g)
        assert sorted(basis.eigenvalues) == pytest.approx(
            [-1.0, -1.0, -0.5, -1.0 / 6.0])

    def test_action_matches_dense(self):
        g = grid_of(2, 0.45, 6)
        basis = HaarBasis(g)
        m = assemble_dense(g)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(g.n_sites)
        assert basis.apply_operator(x) == pytest.approx(m @ x, abs=1e-12)

    def test_eigenspace_structure(self):
        # rank-k detail vectors: zero sum on their rank-k cube, constant
        # on rank-(k-1) sub-cubes
        nu, depth = 3, 3
        g = grid_of(nu, 0.5, depth)
        basis = HaarBasis(g)
        vectors = basis.inverse(np.eye(g.n_sites))
        # the documented layout: the constant (rank 0), then detail blocks
        # of rank N, ..., 1 with nu**(N-k) (nu-1) coefficients each
        ranks = [0] + [k for k in range(depth, 0, -1)
                       for _ in range(nu ** (depth - k) * (nu - 1))]
        for idx, k in enumerate(ranks):
            v = vectors[:, idx]
            if k == 0:
                assert np.ptp(v) == pytest.approx(0.0, abs=1e-14)
                continue
            support = np.nonzero(np.abs(v) > 1e-13)[0]
            home = cube_of(int(support[0]), k, nu)
            assert v[list(cube_sites(home, nu))].sum() == pytest.approx(
                0.0, abs=1e-13)
            for s in cube_sites(home, nu):
                sub = list(cube_sites(cube_of(s, k - 1, nu), nu))
                assert np.ptp(v[sub]) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("nu,p,depth", [(2, 0.5, 8), (3, 0.3, 5),
                                            (4, 0.5, 5), (2, 0.25, 10)])
    @pytest.mark.parametrize("tau", [0.0, 1e-12, 0.3, 2.0])
    def test_green_by_distance_closed_form(self, nu, p, depth, tau):
        # rank-k detail vectors put weight 1[d<=k-1] nu**(1-k) - 1[d<=k]
        # nu**-k on a site pair at distance d; the constant vector nu**-N
        g = grid_of(nu, p, depth)
        w = float(nu) ** -np.arange(depth + 1)  # w[k] = nu**-k
        closed = [math.fsum([((d <= k - 1) * w[k - 1] - (d <= k) * w[k])
                             / (tau + p ** (k - 1))
                             for k in range(1, depth + 1)]
                            + [w[depth] / (tau + g.bottom_eigenvalue())])
                  for d in range(depth + 1)]
        table = HaarBasis(g).green_by_distance(tau)
        assert table.shape == (depth + 1,)
        assert np.max(np.abs(table - closed)) <= 1e-13 * closed[0]

    def test_green_by_distance_refuses_an_eigenvalue(self):
        with pytest.raises(DomainError, match="coincides"):
            HaarBasis(grid_of(2, 0.5, 3)).green_by_distance(-0.5)

    @pytest.mark.parametrize("nu,p,depth", [(2, 0.5, 8), (3, 0.3, 5)])
    def test_green_by_distance_away_from_origin(self, nu, p, depth):
        g = grid_of(nu, p, depth)
        table = HaarBasis(g).green_by_distance(0.3)
        green = np.linalg.solve(0.3 * np.eye(g.n_sites) - assemble_dense(g),
                                np.eye(g.n_sites))
        rng = np.random.default_rng(17)
        for _ in range(10):
            x, y = (int(s) for s in rng.integers(1, g.n_sites, size=2))
            assert green[x, y] == pytest.approx(
                table[hier_distance(x, y, nu)], abs=1e-13 * table[0])


class TestSpectra:
    def test_closed_form_example(self):
        summary = dirichlet_spectrum(grid_of(2, 0.5, 3))
        assert summary.entries == ((1.0, 4), (0.5, 2), (0.25, 1),
                                   (pytest.approx(1.0 / 12.0), 1))

    @pytest.mark.parametrize("nu,p,depth", [(2, 0.5, 5), (3, 0.3, 4), (2, 0.7, 6)])
    def test_total_multiplicity(self, nu, p, depth):
        summary = dirichlet_spectrum(grid_of(nu, p, depth))
        assert summary.total_multiplicity == nu**depth

    def test_three_routes_agree(self):
        # p = 0.1 and 0.05 put the smallest eigenvalues within 1e-8 of each
        # other; dense groups them apart at LAPACK's error scale 2 n u
        # max|lam| (max|lam| = 1 here)
        for nu, p, depth in [(2, 0.05, 10), (2, 0.1, 11)]:
            g = grid_of(nu, p, depth)
            closed = dirichlet_spectrum(g)
            dense = dense_spectrum(g).entries
            assert len(dense) == len(closed.entries) == depth + 1
            assert [m for _, m in dense] == [m for _, m in closed.entries]
            for (value, _), (exact, _) in zip(dense, closed.entries):
                assert abs(value - exact) <= 2 * g.n_sites * 2.0**-53
            haar = np.sort(-HaarBasis(g).eigenvalues)
            assert np.array_equal(haar, np.sort(closed.expand()))

    def test_strictly_decreasing_enforced(self):
        with pytest.raises(DomainError):
            SpectrumSummary(entries=((1.0, 1), (1.0, 2)), provenance="dense")


class TestIterative:
    def test_lanczos_matches_dense_extremes(self):
        g = grid_of(2, 0.5, 8)
        m = assemble_dense(g)
        top = np.sort(np.linalg.eigvalsh(m))[::-1][:3]
        vals, vecs = lanczos_extreme(lambda v: m @ v, g.n_sites, 3)
        assert vals == pytest.approx(top, abs=1e-10)
        for i in range(3):
            resid = np.linalg.norm(m @ vecs[:, i] - vals[i] * vecs[:, i])
            assert resid < 1e-9

    def test_expm_action_matches_dense(self):
        g = grid_of(2, 0.5, 7)
        m = assemble_dense(g)
        v = np.zeros(g.n_sites)
        v[5] = 1.0
        ts = np.array([0.5, 2.0, 11.0])
        approx = expm_action(lambda x: m @ x, v, ts)
        for i, t in enumerate(ts):
            exact = scipy.linalg.expm(t * m) @ v
            assert approx[i] == pytest.approx(exact, abs=1e-10)

    def test_expm_action_basis_grows_as_needed(self):
        # 14 distinct eigenvalues exhaust the Krylov space in 14 steps; a
        # basis reserved at its 240-row maximum would hold 240 rows
        n = 2**14
        eigs = -np.repeat(np.linspace(0.0, 1.0, 14), -(-n // 14))[:n]
        tracemalloc.start()
        try:
            expm_action(lambda x: eigs * x, np.ones(n), np.array([0.5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * n * 8

    def test_expm_action_refuses_unexhausted_space(self):
        # 300 distinct eigenvalues and a start with no zero entry span a
        # Krylov space of dimension 300, beyond the 240 steps allowed
        eigs = -np.linspace(0.0, 1.0, 300)
        with pytest.raises(CertificationError, match="not exhausted"):
            expm_action(lambda x: eigs * x, np.ones(300), np.array([1.0]))
