"""Perturbed operator: counting, power sums, secular equation, JSON IO."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import hierspec.closedform as cf
from hierspec.errors import DomainError
from hierspec.hierops import (HaarBasis, VolumeGrid, assemble_dense,
                              dirichlet_spectrum)
from hierspec.lattice import LatticeParams, hier_distance
from hierspec.schrodinger import (POSITIVITY_THRESHOLD, Potential,
                                  _delta_spectrum, _support_cube_matrix,
                                  count_above_threshold,
                                  delta_potential, positive_spectrum,
                                  potential_from_json, potential_to_json,
                                  powerlaw_potential,
                                  secular_coupling_threshold,
                                  secular_eigenvalue,
                                  volume_coupling_threshold)

PA_2_HALF = LatticeParams(2, 0.5)
PA_2_QUARTER = LatticeParams(2, 0.25)
PA_4_HALF = LatticeParams(4, 0.5)


class TestPotential:
    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            Potential({0: -1.0})

    def test_powerlaw_cube_beyond_every_volume_refused(self, monkeypatch):
        import hierspec.schrodinger as sch

        def no_sites(*args):
            raise AssertionError("sites listed before the check")

        monkeypatch.setattr(sch, "cube_sites", no_sites)
        with pytest.raises(DomainError, match="2\\*\\*23 sites"):
            powerlaw_potential(PA_2_QUARTER, 0, 1.0, 3.0, 23)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(DomainError):
            Potential({0: value})

    @pytest.mark.parametrize("site", [1.5, 1.0, "1"])
    def test_rejects_non_integer_sites(self, site):
        with pytest.raises(DomainError):
            Potential({site: 1.0})

    def test_diagonal(self):
        g = VolumeGrid(PA_2_HALF, 3)
        diag = Potential({2: 1.5, 7: 0.25}).diagonal(g)
        assert diag.tolist() == [0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.25]
        with pytest.raises(DomainError):
            Potential({8: 1.0}).diagonal(g)

    def test_powerlaw_values(self):
        v = powerlaw_potential(PA_2_QUARTER, 0, 2.0, 2.0, 3)
        assert v.value(0) == 2.0
        assert v.value(4) == pytest.approx(2.0 * (1 + 7.0) ** -2)  # d=3, rho=7
        v2 = powerlaw_potential(PA_2_HALF, 0, 1.0, 1.0, 2)
        assert v2.value(2) == pytest.approx(0.5)  # d=2, rho=1
        assert len(v.support) == 8

    def test_json_round_trip(self):
        v = powerlaw_potential(PA_2_HALF, 3, 1.5, 2.0, 2)
        again = potential_from_json(potential_to_json(v))
        assert again.support == v.support
        assert again.origin == v.origin

    def test_json_decimal_strings(self):
        v = potential_from_json('{"sites": [[3, "0.1"], [7, 2]], "origin": 3}')
        assert v.support == {3: 0.1, 7: 2.0}
        assert v.origin == 3

    def test_json_malformed(self):
        with pytest.raises(DomainError):
            potential_from_json('{"sites": [["a", "b", "c"]]}')
        with pytest.raises(DomainError):
            potential_from_json('{')

    @pytest.mark.parametrize("text", [
        '{"sites": [[1.5, 2.0]]}',
        '{"sites": [[1.0, 2.0]]}',
        '{"sites": [[1, 2.0]], "origin": 0.5}',
        '{"sites": [[1, "NaN"]]}',
        '{"sites": [[1, NaN]]}',
        '{"sites": [[1, "inf"]]}',
    ])
    def test_json_rejects_non_integer_sites_and_non_finite_values(self, text):
        with pytest.raises(DomainError):
            potential_from_json(text)


class TestPositiveSpectrum:
    def test_free_operator_has_none(self):
        g = VolumeGrid(PA_2_HALF, 6)
        report = positive_spectrum(g, Potential({}))
        assert report.count == 0
        assert report.sum_gamma(0.5) == 0.0

    def test_transient_coupling_threshold(self):
        # c* = (p nu - 1)/(p (nu - 1)) = 2/3 on the infinite lattice;
        # the depth-6 volume shifts it by its finite-size correction
        assert secular_coupling_threshold(PA_4_HALF) == pytest.approx(2 / 3)
        g = VolumeGrid(PA_4_HALF, 6)
        c_star = volume_coupling_threshold(g)
        below = positive_spectrum(g, delta_potential(0, c_star - 1e-6))
        above = positive_spectrum(g, delta_potential(0, c_star + 1e-6))
        assert (below.count, above.count) == (0, 1)

    def test_weak_coupling_binds_when_recurrent(self):
        g = VolumeGrid(PA_2_QUARTER, 10)
        for c in (0.1, 1.0, 10.0):
            assert positive_spectrum(g, delta_potential(0, c)).count == 1
        assert secular_coupling_threshold(PA_2_QUARTER) == 0.0
        # the finite-volume threshold collapses to 0 as the depth grows
        thresholds = [volume_coupling_threshold(VolumeGrid(PA_2_QUARTER, N))
                      for N in (6, 9, 12)]
        assert all(b < a for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] < 2e-4

    @pytest.mark.parametrize("nu, depth", [(2, 10), (3, 6), (4, 5), (5, 4)])
    def test_rank_one_secular_residual(self, nu, depth):
        # every positive dense eigenvalue solves c G_lam(y,y) = 1
        pa = LatticeParams(nu, 0.5)
        g = VolumeGrid(pa, depth)
        c, site = 5.0, 3
        report = positive_spectrum(g, delta_potential(site, c))
        assert report.count == 1
        lam = report.largest
        assert c * cf.resolvent(pa, lam, 0).real == pytest.approx(
            1.0, abs=1e-6)
        assert secular_eigenvalue(g, site, c) == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize("nu, p, depth, c", [
        (2, 0.5, 8, 0.3), (3, 0.3, 5, 2.0), (4, 0.5, 5, 0.9),
        (2, 0.25, 10, 5.0), (5, 0.5, 4, 5.0), (4, 0.5, 5, 0.5)])
    def test_delta_spectrum_is_exact(self, nu, p, depth, c):
        # the whole spectrum of L + c delta_x: each -loc of the stated
        # spectrum with multiplicity mult - 1, one secular root per gap and
        # one above the top; c = 0.5 at (4, 1/2, 5) is below the threshold
        # 0.671, so the top root lies in (-b_N, 0)
        g = VolumeGrid(LatticeParams(nu, p), depth)
        loc, mult = np.array(dirichlet_spectrum(g).entries).T
        values, mults = _delta_spectrum(g, c)
        roots = -values[:depth + 1]  # one per gap, then the top
        assert np.array_equal(values[depth + 1:], -loc)
        assert np.array_equal(mults, [1] * (depth + 1) + list(mult - 1))
        assert np.all((loc[1:] < roots[:-1]) & (roots[:-1] < loc[:-1]))
        below = c < volume_coupling_threshold(g)
        assert (-loc[-1] < -roots[-1] < 0.0) if below else -roots[-1] > 0.0
        dense = assemble_dense(g, delta_potential(g.n_sites - 1,
                                                  c).diagonal(g))
        spectrum = np.sort(np.repeat(values, mults))
        assert len(spectrum) == g.n_sites
        assert np.max(np.abs(spectrum - scipy.linalg.eigvalsh(dense))) <= 1e-13

    @pytest.mark.parametrize("nu, p, depth", [
        (2, 0.5, 8), (3, 0.3, 5), (4, 0.5, 5), (2, 0.25, 10), (2, 0.99, 12)])
    def test_threshold_matches_haar_solve(self, nu, p, depth):
        # the N + 1 entries of the stated spectrum against a volume solve
        g = VolumeGrid(LatticeParams(nu, p), depth)
        oracle = 1.0 / HaarBasis(g).green_by_distance(0.0)[0]
        assert volume_coupling_threshold(g) == pytest.approx(oracle,
                                                             rel=1e-14)

    def test_rank_one_paths_build_no_haar_basis(self, monkeypatch):
        calls = []
        for name in ("__init__", "forward", "inverse"):
            def spy(*args, _real=getattr(HaarBasis, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(HaarBasis, name, spy)
        g = VolumeGrid(PA_4_HALF, 5)
        volume_coupling_threshold(g)
        secular_eigenvalue(g, 0, 5.0)
        assert calls == []
        count_above_threshold(g, delta_potential(0, 5.0))  # the spy records
        assert {"__init__", "forward", "inverse"} <= set(calls)

    @pytest.mark.parametrize("coupling",
                             [1e307, 1e308, float(np.finfo(float).max)])
    def test_secular_root_at_huge_coupling(self, coupling):
        # the top root lies within the spectrum's width below c, so it is c
        # to rounding; the open bracket's end and midpoints stay finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = secular_eigenvalue(VolumeGrid(PA_2_HALF, 6), 0, coupling)
        assert np.isfinite(lam)
        assert lam == pytest.approx(coupling, rel=1e-15)

    @pytest.mark.parametrize("site", [-1, 2**8])
    def test_secular_site_outside_volume_rejected(self, site):
        with pytest.raises(DomainError):
            secular_eigenvalue(VolumeGrid(PA_2_HALF, 8), site, 5.0)

    @pytest.mark.parametrize("coupling", [0.5, float("nan")])
    def test_secular_coupling_at_or_below_threshold_rejected(self, coupling):
        # c* = 1/G_5(0) = 2/3 + 2**-5/9 at (4, 1/2)
        with pytest.raises(DomainError, match="below the finite-volume"):
            secular_eigenvalue(VolumeGrid(PA_4_HALF, 5), 0, coupling)

    def test_sum_matches_secular_root(self):
        g = VolumeGrid(PA_2_HALF, 8)
        report = positive_spectrum(g, delta_potential(0, 5.0))
        assert report.sum_gamma(1.0) == pytest.approx(
            secular_eigenvalue(g, 0, 5.0), abs=1e-10)

    def test_monotone_in_potential(self):
        g = VolumeGrid(PA_2_HALF, 7)
        rng = np.random.default_rng(31)
        for _ in range(5):
            sites = rng.choice(g.n_sites, size=4, replace=False)
            vals = rng.uniform(0.3, 3.0, size=4)
            v1 = Potential(dict(zip((int(s) for s in sites), vals)))
            v2 = v1.scaled(2.0)
            assert positive_spectrum(g, v2).count >= positive_spectrum(
                g, v1).count

    def test_eigenvalue_window(self):
        g = VolumeGrid(PA_2_HALF, 6)
        v = powerlaw_potential(PA_2_HALF, 0, 4.0, 2.0, 3)
        m = assemble_dense(g, v.diagonal(g))
        vals = np.linalg.eigvalsh(m)
        assert vals.min() >= -1.0 - 1e-12
        assert vals.max() <= v.max_value() + 1e-12

    def test_stability_in_depth(self):
        v = powerlaw_potential(PA_2_HALF, 0, 3.0, 2.0, 3)
        counts = {N: positive_spectrum(VolumeGrid(PA_2_HALF, N), v).count
                  for N in (9, 10, 11)}
        assert counts[9] == counts[10] == counts[11]

    def test_support_outside_volume_rejected(self):
        with pytest.raises(DomainError):
            positive_spectrum(VolumeGrid(PA_2_HALF, 3), delta_potential(100, 1.0))

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_first_site_past_the_volume_rejected(self, method):
        # site n = 2**8 is the first one outside; n - 1 is inside
        g = VolumeGrid(PA_2_HALF, 8)
        inside = Potential({0: 3.0, g.n_sites - 1: 1.0})
        outside = Potential({0: 3.0, g.n_sites: 1.0})
        assert positive_spectrum(g, inside, method=method).count >= 1
        with pytest.raises(DomainError, match="outside"):
            positive_spectrum(g, outside, method=method)
        with pytest.raises(DomainError, match="outside"):
            count_above_threshold(g, outside)

    def test_dense_branch_holds_one_matrix(self):
        g = VolumeGrid(PA_2_QUARTER, 10)
        v = powerlaw_potential(PA_2_QUARTER, 0, 3.0, 3, 6)
        tracemalloc.start()
        try:
            report = positive_spectrum(g, v, method="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.count >= 1
        assert peak < 1.5 * g.n_sites**2 * 8

    def test_dense_branch_is_support_sized(self):
        # a rank-4 power law at depth 12 gives a 24 x 24 matrix, not the
        # volume's 4096 x 4096 (134 MB)
        g = VolumeGrid(PA_2_QUARTER, 12)
        v = powerlaw_potential(PA_2_QUARTER, 0, 3.0, 3, 4)
        tracemalloc.start()
        try:
            report = positive_spectrum(g, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.count >= 1 and report.method == "dense"
        assert peak < 2**20


def _volume_positive_spectrum(grid, potential):
    """Brute force: eigenvalues above tau of the whole volume's matrix."""
    vals = scipy.linalg.eigvalsh(assemble_dense(grid, potential.diagonal(
        grid)))[::-1]
    return vals[vals > POSITIVITY_THRESHOLD]


def _support_rank(potential, nu):
    """Rank R >= 1 of the smallest cube holding every site with V > 0."""
    sites = [s for s, v in potential.support.items() if v > 0]
    return max(1, max(hier_distance(sites[0], s, nu) for s in sites))


class TestSupportCubeReduction:
    @pytest.mark.parametrize("nu, p, depth", [
        (2, 0.25, 8), (3, 0.3, 5), (4, 0.5, 4), (5, 0.4, 3)])
    def test_equals_volume_eigensolve(self, nu, p, depth):
        pa = LatticeParams(nu, p)
        g = VolumeGrid(pa, depth)
        n = g.n_sites
        rng = np.random.default_rng(nu * 100 + depth)
        # power laws of every rank off the origin
        potentials = [powerlaw_potential(pa, int(rng.integers(n)),
                                         float(rng.uniform(0.5, 8.0)), 2.0,
                                         radius)
                      for radius in range(depth + 1)]
        # deltas, at the last site too
        potentials += [delta_potential(int(rng.integers(n)), 5.0),
                       delta_potential(n - 1, 0.9)]
        # two sites straddling the boundary of each rank-k cube: R = k + 1
        potentials += [Potential({nu**k - 1: 4.0, nu**k: 2.5})
                       for k in range(1, depth)]
        for size in (1, 3, 5):
            sites = rng.choice(n, size=size, replace=False)
            potentials.append(Potential(dict(zip(
                (int(s) for s in sites), rng.uniform(0.2, 6.0, size=size)))))
        for v in potentials:
            rank = _support_rank(v, nu)
            m = _support_cube_matrix(g, v)
            assert m.shape == (nu**rank + depth - rank,) * 2
            assert np.array_equal(m, m.T)
            report = positive_spectrum(g, v)
            exact = _volume_positive_spectrum(g, v)
            assert report.method == "dense"
            assert report.count == len(exact)
            assert np.all(np.abs(report.eigenvalues - exact)
                          <= 1e-13 * np.maximum(1.0, np.abs(exact)))

    def test_zero_valued_site_does_not_widen_the_cube(self):
        g = VolumeGrid(PA_2_HALF, 8)
        v = Potential({3: 5.0, g.n_sites - 1: 0.0})  # d(3, 255) = 8
        assert _support_cube_matrix(g, v).shape == (2 + 7, 2 + 7)
        exact = _volume_positive_spectrum(g, v)
        report = positive_spectrum(g, v)
        assert report.count == len(exact) == 1
        assert report.largest == pytest.approx(exact[0], rel=1e-13)

    @pytest.mark.parametrize("support", [{}, {0: 0.0, 17: 0.0}])
    def test_empty_support_has_no_spectrum(self, support):
        g = VolumeGrid(PA_2_HALF, 8)
        assert _support_cube_matrix(g, Potential(support)) is None
        report = positive_spectrum(g, Potential(support), method="dense")
        assert (report.count, report.method) == (0, "dense")
        assert len(_volume_positive_spectrum(g, Potential(support))) == 0

    def test_dense_sized_by_the_support_cube(self):
        # above the volume cap, explicit dense works while the support's
        # cube is within it, and names that cube when it is not
        g = VolumeGrid(PA_2_HALF, 16)
        inside = Potential({0: 3.0, 2**8 - 1: 3.0})
        dense = positive_spectrum(g, inside, method="dense")
        assert dense.count == count_above_threshold(g, inside) >= 1
        with pytest.raises(DomainError, match="rank-14 cube of 16384 sites"):
            positive_spectrum(g, Potential({0: 3.0, 2**13: 3.0}),
                              method="dense")

    def test_whole_volume_cube_is_the_volume_matrix(self):
        # R = N: the reduction is the volume's matrix, bit for bit
        g = VolumeGrid(PA_2_HALF, 6)
        v = Potential({0: 2.0, 63: 1.5})
        assert np.array_equal(_support_cube_matrix(g, v),
                              assemble_dense(g, v.diagonal(g)))


class TestCertifiedCounting:
    def test_birman_schwinger_equals_dense(self):
        g = VolumeGrid(PA_2_HALF, 8)
        rng = np.random.default_rng(7)
        for _ in range(6):
            sites = rng.choice(g.n_sites, size=5, replace=False)
            vals = rng.uniform(0.0, 4.0, size=5)
            v = Potential(dict(zip((int(s) for s in sites), vals)))
            dense = positive_spectrum(g, v, method="dense").count
            assert count_above_threshold(g, v) == dense

    def test_iterative_matches_dense(self):
        v = Potential({0: 3.0, 5: 1.2, 37: 0.9})
        dense = positive_spectrum(VolumeGrid(PA_2_HALF, 11), v, method="dense")
        iterative = positive_spectrum(VolumeGrid(PA_2_HALF, 14), v,
                                      method="iterative")
        assert iterative.count == dense.count
        # converged-in-depth eigenvalues agree across the two volumes
        assert iterative.eigenvalues == pytest.approx(dense.eigenvalues,
                                                      abs=1e-8)
        assert iterative.residual_norms.max() < 1e-9
        assert iterative.method == "iterative"

    def test_count_memory_is_support_sized(self):
        # a volume solve holds a few fields of n entries; a volume x
        # support array (n x 64 here) would exceed the bound 32 n doubles
        g = VolumeGrid(PA_2_QUARTER, 16)
        v = powerlaw_potential(PA_2_QUARTER, 0, 3.0, 3.0, 6)
        assert len(v.support) == 64
        expected = count_above_threshold(g, v)
        tracemalloc.start()
        try:
            assert count_above_threshold(g, v) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * g.n_sites * 8
