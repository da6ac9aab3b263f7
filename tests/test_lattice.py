"""Lattice index arithmetic, metrics, and the walk sampler.

Distance examples are checked against a brute-force minimal-common-cube
search; metric/partition properties over randomized site triples; walk
marginals against the exact jump-rank and landing laws.
"""

import math

import numpy as np
import pytest
import scipy.stats

import hierspec.closedform as cf
from hierspec.errors import DomainError
from hierspec.lattice import (CubeRef, LatticeParams, cube_of, cube_sites,
                              hier_distance, rho, rho_of_distance,
                              sample_end_sites, sample_walk, site_digits,
                              site_from_digits)


def brute_distance(x, y, nu):
    """Smallest rank r whose cube around x also contains y."""
    r = 0
    while True:
        base = (x // nu**r) * nu**r
        if base <= y < base + nu**r:
            return r
        r += 1


class TestParams:
    def test_derived_constants(self):
        pa = LatticeParams(2, 0.25)
        assert pa.s_h == pytest.approx(1.0)
        assert pa.alpha == pytest.approx(0.5)
        pa4 = LatticeParams(4, 0.5)
        assert pa4.s_h == pytest.approx(4.0)

    def test_jump_weights_sum_to_one(self):
        pa = LatticeParams(3, 0.7)
        w = pa.jump_weights(200)
        tail = pa.p ** 200  # geometric remainder of sum a_r
        assert w.sum() + tail == pytest.approx(1.0, abs=1e-14)
        assert all(w > 0)

    @pytest.mark.parametrize("nu,p", [(1, 0.5), (2, 0.0), (2, 1.0), (2, -0.1)])
    def test_rejects_bad_parameters(self, nu, p):
        with pytest.raises(DomainError):
            LatticeParams(nu, p)


class TestDistance:
    def test_identity(self):
        assert hier_distance(7, 7, 2) == 0

    def test_spec_values(self):
        # most significant differing digit of 000 vs 101 is position 2
        assert hier_distance(0, 5, 2) == 3
        assert hier_distance(2, 3, 2) == 1

    @pytest.mark.parametrize("nu", [2, 3, 5])
    def test_matches_brute_force(self, nu):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x, y = rng.integers(0, nu**6, size=2)
            assert hier_distance(int(x), int(y), nu) == brute_distance(
                int(x), int(y), nu)

    @pytest.mark.parametrize("nu", [2, 3])
    def test_ultrametric_inequality(self, nu):
        rng = np.random.default_rng(5)
        for _ in range(500):
            x, y, z = (int(v) for v in rng.integers(0, nu**7, size=3))
            dxy = hier_distance(x, y, nu)
            assert dxy <= max(hier_distance(x, z, nu), hier_distance(z, y, nu))


class TestRho:
    def test_zero_iff_equal(self):
        pa = LatticeParams(2, 0.5)
        assert rho(3, 3, pa) == 0.0
        assert rho(3, 4, pa) > 0.0

    def test_spec_values(self):
        assert rho_of_distance(3, LatticeParams(2, 0.25)) == pytest.approx(7.0)
        assert rho_of_distance(2, LatticeParams(2, 0.5)) == pytest.approx(1.0)

    def test_triangle_inequality(self):
        pa = LatticeParams(3, 0.4)
        rng = np.random.default_rng(2)
        for _ in range(300):
            x, y, z = (int(v) for v in rng.integers(0, 3**6, size=3))
            assert rho(x, y, pa) <= rho(x, z, pa) + rho(z, y, pa) + 1e-12


class TestCubes:
    def test_spec_values(self):
        assert cube_of(5, 0, 2) == CubeRef(0, 5)
        assert cube_of(5, 1, 2) == CubeRef(1, 2)
        assert cube_of(5, 3, 2) == CubeRef(3, 0)

    def test_membership_matches_index(self):
        # cube_of inverts cube_sites for every member
        for nu in (2, 3):
            ref = cube_of(17, 2, nu)
            members = list(cube_sites(ref, nu))
            assert len(members) == nu**2
            assert all(cube_of(m, 2, nu) == ref for m in members)

    @pytest.mark.parametrize("nu", [2, 3])
    def test_partition_consistency(self, nu):
        # rank-r cubes partition the rank-N volume; each splits into nu
        # cubes of the next lower rank
        N = 4
        sites = range(nu**N)
        for r in range(N + 1):
            cubes = {cube_of(x, r, nu) for x in sites}
            assert len(cubes) == nu ** (N - r)
            covered = sorted(s for c in cubes for s in cube_sites(c, nu))
            assert covered == list(sites)
            if r > 0:
                for c in cubes:
                    subs = {cube_of(s, r - 1, nu) for s in cube_sites(c, nu)}
                    assert len(subs) == nu

    def test_nesting_is_monotone(self):
        nu = 3
        for r in range(5):
            inner = cube_of(77, r, nu)
            outer = cube_of(77, r + 1, nu)
            assert set(cube_sites(inner, nu)) <= set(cube_sites(outer, nu))


class TestDigits:
    def test_round_trip(self):
        for nu in (2, 3, 7):
            for x in [0, 1, nu, nu**4 + 3, 123456]:
                assert site_from_digits(site_digits(x, nu), nu) == x

    def test_no_trailing_zeros(self):
        digits = site_digits(8, 2)
        assert digits == [0, 0, 0, 1]

    def test_rejects_bad_digit(self):
        with pytest.raises(DomainError):
            site_from_digits([0, 5], 3)


class TestWalk:
    def test_zero_horizon(self):
        pa = LatticeParams(2, 0.5)
        traj = sample_walk(pa, 9, 0.0, seed=1)
        assert traj.times == [0.0]
        assert traj.sites == [9]
        assert traj.end_site == 9

    def test_deterministic_for_fixed_seed(self):
        pa = LatticeParams(3, 0.6)
        t1 = sample_walk(pa, 0, 8.0, seed=42)
        t2 = sample_walk(pa, 0, 8.0, seed=42)
        assert t1.times == t2.times and t1.sites == t2.sites
        t3 = sample_walk(pa, 0, 8.0, seed=43)
        assert t3.times != t1.times

    def test_trajectory_shape(self):
        pa = LatticeParams(2, 0.5)
        traj = sample_walk(pa, 0, 20.0, seed=7)
        assert traj.times[0] == 0.0
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        assert all(t <= 20.0 for t in traj.times)
        assert len(traj.jump_ranks) == len(traj.sites) - 1
        assert traj.generator == "numpy.random.PCG64"

    def test_jump_stays_inside_drawn_cube(self):
        pa = LatticeParams(2, 0.5)
        traj = sample_walk(pa, 5, 30.0, seed=3)
        for (a, b, k) in zip(traj.sites, traj.sites[1:], traj.jump_ranks):
            assert hier_distance(a, b, 2) <= k

    def test_rank_law_is_geometric(self):
        pa = LatticeParams(2, 0.5)
        _, ranks = sample_end_sites(pa, 0, 4.0, 4000, seed=101)
        kmax = 8
        observed = np.bincount(np.minimum(ranks, kmax), minlength=kmax + 1)[1:]
        probs = np.array([(1 - pa.p) * pa.p ** (k - 1) for k in range(1, kmax)]
                         + [pa.p ** (kmax - 1)])
        _, pvalue = scipy.stats.chisquare(observed, probs * observed.sum())
        assert pvalue > 0.01

    def test_landing_uniform_on_cube(self):
        # condition on rank-2 jumps from site 0: landing must be uniform
        # over the 4 sites of the rank-2 cube
        pa = LatticeParams(2, 0.5)
        rng_landings = []
        for seed in range(600):
            traj = sample_walk(pa, 0, 1.0, seed=seed)
            for (a, b, k) in zip(traj.sites, traj.sites[1:], traj.jump_ranks):
                if k == 2 and a == 0:
                    rng_landings.append(b)
        observed = np.bincount(rng_landings, minlength=4)
        assert observed.sum() >= 50
        _, pvalue = scipy.stats.chisquare(observed)
        assert pvalue > 0.01

    def test_negative_horizon_rejected(self):
        with pytest.raises(DomainError):
            sample_walk(LatticeParams(2, 0.5), 0, -1.0, seed=0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected(self, horizon):
        # the walk would never pass the horizon
        pa = LatticeParams(2, 0.5)
        with pytest.raises(DomainError, match="finite"):
            sample_walk(pa, 0, horizon, seed=0)
        with pytest.raises(DomainError, match="finite"):
            sample_end_sites(pa, 0, horizon, 10, seed=0)

    def test_expected_jumps_capped(self):
        # refused before any draw: at 1e9 x 10 walks sample_end_sites would
        # otherwise allocate 1e10 int64 ranks
        pa = LatticeParams(2, 0.5)
        with pytest.raises(DomainError,
                           match=r"1e\+07 expected.*1e\+09 over 1 walk"):
            sample_walk(pa, 0, 1e9, seed=0)
        with pytest.raises(DomainError, match=r"1e\+09 over 10 walk"):
            sample_end_sites(pa, 0, 1e9, 10, seed=0)
        with pytest.raises(DomainError, match=r"1e\+07"):
            sample_end_sites(pa, 0, 1001.0, 10**4, seed=0)
        assert len(sample_end_sites(pa, 0, 1e9, 0, seed=0)[0]) == 0

    @pytest.mark.parametrize("x0", [-3, -1])
    def test_negative_start_rejected(self, x0):
        pa = LatticeParams(2, 0.5)
        with pytest.raises(DomainError):
            sample_walk(pa, x0, 1.0, seed=0)
        with pytest.raises(DomainError):
            sample_end_sites(pa, x0, 1.0, 2, seed=0)

    def test_negative_sample_count_rejected(self):
        with pytest.raises(DomainError):
            sample_end_sites(LatticeParams(2, 0.5), 0, 1.0, -1, seed=0)


class TestEndSites:
    """The one-pass end-site sampler vs independent laws and paths."""

    def test_matches_per_jump_walks(self):
        # two-sample chi-square on distance shells against the per-jump
        # loop of sample_walk, one seed per walk
        pa, horizon, x0, n_loop = LatticeParams(2, 0.5), 3.0, 0, 3000
        loop_ends = [sample_walk(pa, x0, horizon, seed=s).end_site
                     for s in range(n_loop)]
        fast_ends, _ = sample_end_sites(pa, x0, horizon, 3 * n_loop, seed=77)
        r_cap = 12
        table = np.array([
            np.bincount(np.minimum([hier_distance(x0, e, 2) for e in ends],
                                   r_cap), minlength=r_cap + 1)
            for ends in (loop_ends, fast_ends)], dtype=float)
        # merge shells whose smaller expected count is below 10
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        keep = expected.min(axis=0) >= 10.0
        merged = np.column_stack([table[:, keep],
                                  table[:, ~keep].sum(axis=1)])
        _, pvalue, _, _ = scipy.stats.chi2_contingency(merged)
        assert pvalue > 0.01, pvalue

    def test_shell_law_matches_heat_kernel(self):
        pa, horizon, x0, n = LatticeParams(4, 0.5), 3.0, 12345, 20000
        ends, _ = sample_end_sites(pa, x0, horizon, n, seed=4)
        r_cap = 16
        dists = [hier_distance(x0, e, 4) for e in ends]
        observed = np.bincount(np.minimum(dists, r_cap + 1),
                               minlength=r_cap + 2)
        # P{d(x0, X_t) = r}: the kernel at distance r times the shell size
        law = np.array([cf.heat_kernel(pa, horizon, r)
                        * (1 if r == 0 else 3 * 4 ** (r - 1))
                        for r in range(r_cap + 1)])
        expected = np.append(law, 1.0 - law.sum()) * n
        # merge bins with expected counts below 10 into one
        keep = expected >= 10.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        _, pvalue = scipy.stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert pvalue > 0.01, pvalue

    def test_zero_horizon(self):
        ends, ranks = sample_end_sites(LatticeParams(3, 0.4), 17, 0.0, 50,
                                       seed=2)
        assert ends == [17] * 50
        assert ranks.size == 0

    def test_determined_by_seed(self):
        pa = LatticeParams(3, 0.6)
        ends1, ranks1 = sample_end_sites(pa, 5, 4.0, 200, seed=9)
        ends2, ranks2 = sample_end_sites(pa, 5, 4.0, 200, seed=9)
        assert ends1 == ends2 and np.array_equal(ranks1, ranks2)
        ends3, _ = sample_end_sites(pa, 5, 4.0, 200, seed=10)
        assert ends3 != ends1

    def test_big_int_sites_stay_exact(self):
        # at p = 0.97 about a third of the walks draw a rank above 62
        x0 = 12345
        ends, ranks = sample_end_sites(LatticeParams(2, 0.97), x0, 3.0, 200,
                                       seed=3)
        assert all(type(e) is int for e in ends)
        assert any(e > 2**63 for e in ends)
        assert max(hier_distance(x0, e, 2) for e in ends) <= ranks.max()
