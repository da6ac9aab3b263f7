"""Perturbed operator: counting, power sums, secular equation, JSON IO."""

import json
import tracemalloc

import numpy as np
import pytest

import hierspec.closedform as cf
from hierspec.errors import DomainError
from hierspec.hierops import VolumeGrid, assemble_dense
from hierspec.lattice import LatticeParams
from hierspec.schrodinger import (Potential, count_above_threshold,
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

    def test_rank_one_secular_residual(self):
        # every positive dense eigenvalue solves c G_lam(y,y) = 1
        g = VolumeGrid(PA_2_HALF, 10)
        c, site = 5.0, 3
        report = positive_spectrum(g, delta_potential(site, c))
        assert report.count == 1
        lam = report.largest
        assert c * cf.resolvent(PA_2_HALF, lam, 0).real == pytest.approx(
            1.0, abs=1e-6)
        assert secular_eigenvalue(g, site, c) == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize("site", [-1, 2**8])
    def test_secular_site_outside_volume_rejected(self, site):
        with pytest.raises(DomainError):
            secular_eigenvalue(VolumeGrid(PA_2_HALF, 8), site, 5.0)

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
        m = assemble_dense(g, v)
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
