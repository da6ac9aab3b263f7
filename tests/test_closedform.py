"""Closed-form spectral functions vs matrix and quadrature oracles.

Dense finite-volume operators provide the matrix-exponential and
linear-solve oracles; scipy adaptive quadrature provides the integral
oracles.  Boundary-leak allowances follow the p**N * t rule of the
Dirichlet restriction.
"""

import cmath
import math
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

import hierspec.closedform as cf
from hierspec.errors import (CertificationError, DivergentIntegralError,
                             DomainError, SpectrumProximityError)
from hierspec.hierops import VolumeGrid, assemble_dense, dirichlet_spectrum
from hierspec.lattice import LatticeParams

PA_2_HALF = LatticeParams(2, 0.5)
PA_2_QUARTER = LatticeParams(2, 0.25)
PA_4_HALF = LatticeParams(4, 0.5)


class TestIds:
    def test_above_one(self):
        assert cf.ids(PA_2_HALF, 2.0) == 1.0

    def test_spec_value(self):
        assert cf.ids(PA_2_QUARTER, 0.3) == 0.5

    def test_profile_value(self):
        # N(1/2) lam**(-1/2) = 2**-0.5 and matches nu**({z}-1) at z = 1/2
        val = cf.ids_profile(PA_2_QUARTER, 0.5)
        assert val == pytest.approx(2 ** -0.5, abs=1e-15)
        z = math.log(0.5) / math.log(0.25)
        assert val == pytest.approx(2 ** ((z % 1.0) - 1.0), abs=1e-15)

    def test_staircase_structure(self):
        pa = LatticeParams(3, 0.4)
        for k in range(1, 6):
            atom = pa.p**k
            assert cf.ids(pa, atom * 1.000001) == pytest.approx(3.0**-k)
            assert cf.ids(pa, atom) == pytest.approx(3.0 ** -(k + 1))

    def test_matches_finite_volume_counting(self):
        # exact once p**N < lam: volume-normalized count of closed-form
        # Dirichlet eigenvalues below lam equals the limit staircase
        pa = LatticeParams(2, 0.3)
        for lam in (0.05, 0.2, 0.77):
            g = VolumeGrid(pa, 10)
            values = dirichlet_spectrum(g).expand()
            count = float(np.sum(values < lam)) / g.n_sites
            assert count == pytest.approx(cf.ids(pa, lam), abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            cf.ids(PA_2_HALF, 0.0)


class TestHeatKernel:
    def test_normalization_at_zero(self):
        assert cf.heat_kernel(PA_2_HALF, 0.0, 0) == 1.0
        assert cf.heat_kernel(LatticeParams(3, 0.77), 0.0, 0) == pytest.approx(
            1.0, abs=1e-15)

    def test_off_diagonal_vanishes_at_zero(self):
        for r in (1, 2, 5):
            assert cf.heat_kernel(PA_2_HALF, 0.0, r) == pytest.approx(
                0.0, abs=1e-14)

    def test_against_matrix_exponential(self):
        g = VolumeGrid(PA_2_HALF, 8)
        m = assemble_dense(g)
        for t in (0.1, 1.0, 5.0, 20.0):
            e_t = scipy.linalg.expm(t * m)
            for r, site in [(0, 0), (1, 1), (2, 2), (3, 4)]:
                allowed = PA_2_HALF.p**8 * t + 1e-9
                assert abs(cf.heat_kernel(PA_2_HALF, t, r)
                           - e_t[0, site]) <= allowed

    def test_range_and_monotone_diag(self):
        ts = np.geomspace(0.01, 1e5, 40)
        vals = [cf.heat_kernel(PA_4_HALF, t, 0) for t in ts]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_stochasticity_with_exterior_tail(self):
        # shell r multiplies the kernel by nu**(r-1)(nu-1), so the
        # kernel tolerance is tightened accordingly
        for pa, t, rank in [(PA_2_HALF, 3.7, 12), (LatticeParams(3, 0.4), 0.9, 8)]:
            nu = pa.nu
            mass = cf.heat_kernel(pa, t, 0, tol=1e-16)
            mass += sum(nu ** (r - 1) * (nu - 1)
                        * cf.heat_kernel(pa, t, r, tol=1e-15 / nu**r)
                        for r in range(1, rank + 1))
            assert mass + cf.heat_exterior_mass(pa, t, rank) == \
                pytest.approx(1.0, abs=1e-12)

    def test_semigroup_identity(self):
        # sum_y p(t,x,y) p(s,y,z) over a rank-R volume; exterior bounded
        # by exterior-mass * sup of the second kernel
        pa = PA_2_HALF
        t, s, rank = 1.3, 0.9, 14
        n = 2**rank

        def kernel_row(tt, x):
            from hierspec.lattice import hier_distance
            return np.array([cf.heat_kernel(pa, tt, hier_distance(x, y, 2))
                             for y in range(n)])

        x, z = 3, 9
        total = kernel_row(t, x) @ kernel_row(s, z)
        remainder = cf.heat_exterior_mass(pa, t, rank)  # * sup_y<exterior> p(s,y,z) <= 1
        assert abs(total - cf.heat_kernel(pa, t + s, hier_distance_xz(x, z)))\
            <= remainder + 1e-9

    @pytest.mark.parametrize("pa", [PA_2_QUARTER, PA_4_HALF])
    @pytest.mark.parametrize("r", [0, 2])
    def test_large_t(self, pa, r):
        # the zeroth-order tail bound certifies where the first-order one
        # would need more than _MAX_TERMS atoms
        for t in (1e295, 1e300):
            assert 0.0 <= cf.heat_kernel(pa, t, r) <= 1e-14

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            cf.heat_kernel(PA_2_HALF, -0.1, 0)


class TestArrayCalls:
    """An array call equals scalar calls element by element, bit for bit."""

    TS = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 400)])

    def test_heat_kernel(self):
        for pa in (PA_2_QUARTER, LatticeParams(3, 0.4)):
            for r in (0, 1, 3):
                values = cf.heat_kernel(pa, self.TS, r)
                scalars = [cf.heat_kernel(pa, float(t), r) for t in self.TS]
                assert np.array_equal(values, scalars)
        assert cf.heat_kernel(PA_2_HALF, self.TS, 0)[0] == 1.0
        assert cf.theta(PA_2_HALF, np.zeros(3)).tolist() == [1.0] * 3

    def test_heat_profile(self):
        ts = self.TS[1:]
        assert np.array_equal(cf.heat_profile(PA_4_HALF, ts),
                              [cf.heat_profile(PA_4_HALF, float(t)) for t in ts])

    def test_heat_exterior_mass(self):
        for rank in (0, 4):
            values = cf.heat_exterior_mass(LatticeParams(3, 0.4), self.TS, rank)
            scalars = [cf.heat_exterior_mass(LatticeParams(3, 0.4), float(t),
                                             rank) for t in self.TS]
            assert np.array_equal(values, scalars)

    def test_resolvent(self):
        lams = np.geomspace(2e-3, 80.0, 400)
        sector = lams * np.exp(1j * np.linspace(-2.3, 2.3, 400))
        for pa in (PA_2_QUARTER, LatticeParams(3, 0.4)):
            for r in (0, 2):
                values = cf.resolvent(pa, lams, r)
                assert np.array_equal(values, [cf.resolvent(pa, float(lam), r)
                                               for lam in lams])
                assert not np.any(values.imag)
                values = cf.resolvent(pa, sector, r)
                assert np.array_equal(values, [cf.resolvent(pa, complex(lam), r)
                                               for lam in sector])

    def test_checks_apply_to_each_element(self):
        with pytest.raises(DomainError):
            cf.heat_kernel(PA_2_HALF, np.array([1.0, -0.5, 2.0]), 0)
        with pytest.raises(DomainError):
            cf.heat_exterior_mass(PA_2_HALF, np.array([1.0, -0.5]), 2)
        with pytest.raises(DomainError):
            cf.heat_profile(PA_2_HALF, np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            cf.resolvent(PA_2_HALF, np.array([1.0, complex(-1.0, 0.1)]), 0)
        with pytest.raises(DomainError):
            cf.resolvent(PA_2_HALF, np.array([1.0, 0.0]), 0)
        with pytest.raises(SpectrumProximityError):
            cf.resolvent(PA_2_HALF, np.array([1.0, 1e-14]), 0)


def hier_distance_xz(x, z):
    from hierspec.lattice import hier_distance
    return hier_distance(x, z, 2)


class TestHeatProfile:
    def test_log_periodicity(self):
        for t in 10.0 ** np.arange(2.0, 6.01, 0.3):
            drift = abs(cf.heat_profile(PA_4_HALF, t)
                        - cf.heat_profile(PA_4_HALF, t / PA_4_HALF.p))
            assert drift <= 1e-4

    def test_residual_decreases(self):
        res = [abs(cf.heat_profile(PA_4_HALF, t)
                   - cf.heat_profile(PA_4_HALF, t / PA_4_HALF.p))
               for t in (1e2, 1e4)]
        assert res[1] <= res[0]

    @pytest.mark.parametrize("t", [1e100, 1e140])
    def test_large_t_against_log_periodicity(self, t):
        # F(t/p) = F(t) + (nu-1) t**(s_h/2) e**(-t/p), and the last term is
        # 0.0 for t >= 2e3: F(t) = F(t 2**-k) with t 2**-k in [2e3, 5e3]
        k = math.ceil(math.log2(t / 5e3))
        assert 2e3 <= t * 2.0**-k <= 5e3
        assert abs(cf.heat_profile(PA_4_HALF, t)
                   - cf.heat_profile(PA_4_HALF, t * 2.0**-k)) <= 2e-12

    @pytest.mark.parametrize("pa,t", [(PA_4_HALF, 1e150),
                                      (LatticeParams(2, 0.99), 1e5)])
    def test_refused_where_kernel_tolerance_underflows(self, pa, t):
        # tol / t**(s_h/2) < 1e-300 at (4, 1/2); t**(s_h/2) overflows at
        # (2, 0.99), where s_h/2 is about 69
        with pytest.raises(CertificationError, match=re.escape(f"t = {t}:")):
            cf.heat_profile(pa, np.array([10.0, t]))

    def test_bounded_at_critical_dimension(self):
        vals = [cf.heat_profile(PA_2_HALF, t)
                for t in 10.0 ** np.arange(2.0, 6.01, 0.3)]
        assert 0.0 < min(vals) <= max(vals) < math.inf
        assert max(vals) / min(vals) < 2.0


class TestResolvent:
    def test_large_lambda_limit(self):
        for lam in (1e3, 1e6):
            assert lam * cf.resolvent(PA_2_HALF, lam, 0).real == pytest.approx(
                1.0, abs=2e-3 / lam ** 0)
        assert 1e6 * cf.resolvent(PA_2_HALF, 1e6, 0).real == pytest.approx(
            1.0, abs=1e-5)

    def test_small_lambda_approaches_green_function(self):
        assert cf.resolvent(PA_4_HALF, 1e-8, 0).real == pytest.approx(
            1.5, abs=1e-6)

    def test_against_dense_solve(self):
        pa = PA_2_HALF
        g = VolumeGrid(pa, 10)
        m = assemble_dense(g)
        lam = 0.3
        inv = np.linalg.inv(lam * np.eye(g.n_sites) - m)
        assert abs(cf.resolvent(pa, lam, 2).real - inv[0, 2]) < 1e-8
        assert abs(cf.resolvent(pa, lam, 0).real - inv[0, 0]) < 1e-8

    def test_functional_equation_on_sector_grid(self):
        for pa in (PA_2_HALF, PA_4_HALF, PA_2_QUARTER):
            nu, p = pa.nu, pa.p
            for mag in (0.05, 0.3, 1.0, 4.0):
                for ang in (-2.0, -0.9, 0.0, 0.9, 2.0):
                    lam = mag * cmath.exp(1j * ang)
                    resid = (cf.resolvent(pa, p * lam, 0)
                             - cf.resolvent(pa, lam, 0) / (p * nu)
                             - (nu - 1) / (nu * (p * lam + 1)))
                    assert abs(resid) < 1e-12

    def test_sector_and_spectrum_guards(self):
        with pytest.raises(DomainError):
            cf.resolvent(PA_2_HALF, complex(-1.0, 0.1), 0)  # arg > 3pi/4
        # atoms accumulate at 0, so tiny lam sits within 1e-13 of one
        with pytest.raises(SpectrumProximityError):
            cf.resolvent(PA_2_HALF, 1e-14, 0)
        with pytest.raises(DomainError):
            cf.resolvent(PA_2_HALF, 0.0, 0)

    def test_laplace_transform_of_kernel(self):
        for lam in (0.5, 1.0, 2.0):
            val, _ = quad(lambda t: math.exp(-lam * t)
                          * cf.heat_kernel(PA_2_HALF, t, 0), 0, np.inf,
                          limit=300)
            assert val == pytest.approx(cf.resolvent(PA_2_HALF, lam, 0).real,
                                        abs=1e-9)


class TestGreenFunction:
    def test_spec_values(self):
        assert cf.resolvent_zero(PA_4_HALF, 0) == 1.5
        assert cf.resolvent_zero(PA_4_HALF, 1) == pytest.approx(0.5)
        assert cf.resolvent_zero(PA_4_HALF, 3) == pytest.approx(0.125)

    def test_decay_constant(self):
        # R_0 * (1 + rho)**(s_h - 2) equals c exactly at every distance
        from hierspec.lattice import rho_of_distance
        pa = PA_4_HALF
        c = cf.resolvent_zero_constant(pa)
        for r in (1, 5, 20):
            rho1 = 1.0 + rho_of_distance(r, pa)
            assert cf.resolvent_zero(pa, r) * rho1 ** (pa.s_h - 2) == \
                pytest.approx(c, rel=1e-13)

    def test_asymptotic_ratio_with_rho(self):
        from hierspec.lattice import rho_of_distance
        pa = LatticeParams(4, 0.26)  # transient, s_h barely above 2
        c = cf.resolvent_zero_constant(pa)
        ratio = (cf.resolvent_zero(pa, 30)
                 * rho_of_distance(30, pa) ** (pa.s_h - 2) / c)
        assert ratio == pytest.approx(1.0, abs=1e-8)
        # the deviation follows (1 - p**(r/2))**(s_h-2) - 1
        pa2 = PA_4_HALF
        ratio2 = (cf.resolvent_zero(pa2, 30)
                  * rho_of_distance(30, pa2) ** (pa2.s_h - 2) / 1.0)
        predicted = (1.0 - pa2.p**15.0) ** (pa2.s_h - 2)
        assert ratio2 == pytest.approx(predicted, rel=1e-12)

    def test_recurrent_rejected(self):
        with pytest.raises(DivergentIntegralError):
            cf.resolvent_zero(PA_2_QUARTER, 0)


class TestExpansion:
    def test_constants(self):
        c0, _, _ = cf.resolvent_expansion(PA_2_QUARTER, 0.1)
        assert c0 == pytest.approx(-0.5)
        assert PA_2_QUARTER.alpha == pytest.approx(0.5)

    def test_drift_bounded(self):
        pa = PA_2_QUARTER
        for lam in (0.5, 0.1, 0.02):
            _, u1, bound = cf.resolvent_expansion(pa, lam)
            _, u2, _ = cf.resolvent_expansion(pa, pa.p * lam)
            assert abs(u1 - u2) <= bound

    def test_profile_stabilizes_geometrically(self):
        pa = PA_2_QUARTER
        lams = [0.6 * 0.25**m for m in range(2, 11)]
        us = [cf.resolvent_expansion(pa, lam)[1] for lam in lams]
        diffs = [abs(b - a) for a, b in zip(us, us[1:])]
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
        # successive differences shrink like p**(1+alpha) = 0.25**1.5
        expected = pa.p ** (1.0 + pa.alpha)
        for got in ratios[:4]:
            assert got == pytest.approx(expected, rel=0.2)

    def test_requires_recurrent_dimension(self):
        with pytest.raises(DomainError):
            cf.resolvent_expansion(PA_4_HALF, 0.1)


class TestThetaZeta:
    def test_theta_at_zero(self):
        assert cf.theta(PA_2_HALF, 0.0) == 1.0

    def test_closed_form_equals_series(self):
        pa = PA_2_HALF
        z = 0.05
        series = (1 - 1 / pa.nu) * sum(
            (pa.p**z * pa.nu) ** -r for r in range(4000))
        assert cf.zeta_spectral(pa, z).real == pytest.approx(series, abs=1e-12)

    def test_pole_locations(self):
        pa = PA_2_HALF
        poles = cf.zeta_poles(pa, 3)
        assert poles[0] == pytest.approx(1.0)
        for z in poles:
            assert abs(pa.nu * cmath.exp(z * math.log(pa.p)) - 1.0) < 1e-12
        # spacing is 2*pi/ln(1/p); the midpoint pi*i/ln(1/p) is regular
        mid = complex(1.0, math.pi / math.log(2.0))
        assert abs(pa.nu * cmath.exp(mid * math.log(pa.p)) + 1.0) < 1e-12
        assert cf.zeta_spectral(pa, mid) == pytest.approx(
            (1 - 1 / pa.nu) / 2.0, abs=1e-13)

    def test_pole_proximity_rejected(self):
        with pytest.raises(SpectrumProximityError):
            cf.zeta_spectral(PA_2_HALF, 1.0)

    def test_atom_table_is_the_density_of_states(self):
        locations, weights = zip(*cf._atom_table(LatticeParams(3, 0.4))[:40])
        assert sum(weights) == pytest.approx(1.0, abs=1e-15)
        assert all(a > b for a, b in zip(locations, locations[1:]))


def atoms_one_by_one(params, term, first, last, total=0.0):
    """Reference for cf._sum_atoms: one atom at a time, in order of s."""
    top = int(np.max(last, initial=first - 1))
    for s in range(first, top + 1):
        loc, w = cf._atom(params, s)
        total = total + term(s, loc, w) * (s <= last)
    return total


class TestSumAtoms:
    """The blocked running sum gives the bits of the one-by-one loop."""

    # a scalar, a block of many atoms, blocks of two atoms, of one atom
    SIZES = [None, 60, 3000, 20000]

    @staticmethod
    def grid(lo, hi, size):
        return (math.sqrt(lo * hi) if size is None
                else np.geomspace(lo, hi, size))

    @pytest.mark.parametrize("size", SIZES)
    def test_heat_and_resolvent_bits(self, monkeypatch, size):
        ts = self.grid(1e-3, 1e6, size)
        lams = self.grid(2e-3, 80.0, size)
        turn = np.exp(1j * (0.3 if size is None else np.linspace(-2.3, 2.3,
                                                                 size)))
        calls = [(cf.heat_kernel, ts, 0), (cf.heat_kernel, ts, 2),
                 (cf.heat_profile, ts), (cf.heat_exterior_mass, ts, 3),
                 (cf.resolvent, lams, 0), (cf.resolvent, lams * turn, 2)]
        for pa in (PA_2_QUARTER, LatticeParams(3, 0.4)):
            values = [f(pa, *args) for f, *args in calls]
            with monkeypatch.context() as m:
                m.setattr(cf, "_sum_atoms", atoms_one_by_one)
                reference = [f(pa, *args) for f, *args in calls]
            for value, ref in zip(values, reference):
                assert np.array_equal(value, ref)

    def test_measure_bits(self, monkeypatch):
        import hierspec.annihilated as ann
        pa = PA_2_QUARTER
        ann._measure.cache_clear()
        values = [ann._measure(pa, r) for r in range(1, 5)]
        with monkeypatch.context() as m:
            m.setattr(ann, "_sum_atoms", atoms_one_by_one)
            ann._measure.cache_clear()
            reference = [ann._measure(pa, r) for r in range(1, 5)]
        ann._measure.cache_clear()
        for (mu, c, tail), (mu_ref, c_ref, tail_ref) in zip(values, reference):
            assert np.array_equal(mu, mu_ref) and np.array_equal(c, c_ref)
            assert tail == tail_ref

    @pytest.mark.parametrize("r", [1, 3])
    def test_measure_brackets_end_on_adjacent_floats(self, monkeypatch, r):
        # replay the bisection from the pole sums it asked for, then check
        # that each bracket is two adjacent floats across a sign change
        import inspect
        import hierspec.annihilated as ann
        pa, pole_sum, calls = PA_2_QUARTER, ann._pole_sum, []

        def spy(params, den, last, head=0.0):
            value = pole_sum(params, den, last, head)
            calls.append((inspect.getclosurevars(den).nonlocals, last, value))
            return value

        monkeypatch.setattr(ann, "_pole_sum", spy)
        ann._measure.cache_clear()
        mu, _, _ = ann._measure(pa, r)
        ann._measure.cache_clear()
        bisection = [call for call in calls if "mid" in call[0]]
        base, last = bisection[0][0]["base"], bisection[0][1]
        lo = np.full(len(base), np.finfo(float).tiny)
        hi = np.array([cf._atom(pa, j)[0] for j in range(len(base))]) - base
        for env, _, value in bisection:
            up = value > 0.0
            lo, hi = np.where(up, lo, env["mid"]), np.where(up, env["mid"], hi)
        y = next(env["y"] for env, _, _ in calls if "y" in env)
        assert np.array_equal((lo + hi) / 2.0, y)
        assert np.array_equal(mu[r:], base + y)
        assert np.array_equal(np.nextafter(lo, np.inf), hi)
        with np.errstate(divide="ignore"):
            assert np.all(pole_sum(pa, lambda loc: (loc - base) - lo, last)
                          <= 0.0)
            assert np.all(pole_sum(pa, lambda loc: (loc - base) - hi, last)
                          > 0.0)

    def test_memory_is_a_few_grids(self):
        import tracemalloc
        ts = np.geomspace(1e-3, 1e6, 10**6)
        tracemalloc.start()
        try:
            cf.heat_kernel(PA_2_QUARTER, ts, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # heat_kernel holds about 7 grids at its peak; summing all atoms
        # of a million points in one block would hold dozens
        assert peak < 10 * ts.nbytes


class TestGreenTail:
    def test_vanishes_at_infinity(self):
        # transient decay is algebraic, ~ 1/T**(s_h/2 - 1)
        values = [cf.green_tail_integral(PA_4_HALF, T, 0.0)
                  for T in (5.0, 500.0, 1e9)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-8

    def test_t_zero_equals_green_function(self):
        assert cf.green_tail_integral(PA_4_HALF, 0.0, 0.0) == pytest.approx(
            1.5, abs=1e-12)

    def test_gamma_against_quadrature(self):
        val = cf.green_tail_integral(PA_2_HALF, 2.0, 0.8)
        oracle = 0.0
        pts = [2.0 * 3**k for k in range(40)]
        for lo, hi in zip(pts, pts[1:]):
            piece, _ = quad(lambda t: t**-0.8 * cf.heat_kernel(PA_2_HALF, t, 0),
                            lo, hi, limit=200)
            oracle += piece
        assert val == pytest.approx(oracle, abs=1e-9)

    def test_gamma_above_one_against_quadrature(self):
        # gamma = 2.5 takes the Gamma(a, x) recurrence below a = -1
        for gamma in (1.6, 2.5):
            val = cf.green_tail_integral(PA_2_QUARTER, 0.7, gamma)
            oracle, _ = quad(
                lambda t: t**-gamma * cf.heat_kernel(PA_2_QUARTER, t, 0),
                0.7, np.inf, limit=400)
            assert val == pytest.approx(oracle, abs=1e-8)

    def test_upper_gamma_against_mpmath(self):
        import mpmath  # test-only oracle (the "test" extra)
        # a just below 0 and -1 is where a downward recurrence from
        # Gamma(a+1, x) would cancel; the kernel is x**-a Gamma(a, x)
        for a in (0.9, 0.2, 0.0, -1e-8, -1e-6, -1e-4, -0.5, -0.9999, -1.0,
                  -1.0 - 1e-6, -1.5, -2.0 - 1e-6, -2.3, -5.5):
            for x in np.concatenate([[1e-12, 1e-6], np.linspace(0.01, 30, 60)]):
                exact = float(mpmath.mpf(x) ** -a
                              * mpmath.gammainc(a, x, mpmath.inf))
                assert cf._scaled_upper_gamma(a, x) == pytest.approx(
                    exact, rel=1e-10)

    def test_large_gamma_against_mpmath(self):
        # gamma = 40: Gamma(-39, p**s T) alone overflows a double while the
        # terms, (p**s)**39 Gamma(-39, p**s T), stay finite
        import mpmath
        for x in (1e-12, 0.03, 0.5, 2.0, 30.0):
            exact = float(mpmath.mpf(x) ** 39
                          * mpmath.gammainc(-39, x, mpmath.inf))
            assert cf._scaled_upper_gamma(-39.0, x) == pytest.approx(
                exact, rel=1e-10)
        for pa in (PA_2_QUARTER, PA_4_HALF):
            q = mpmath.mpf(pa.p) ** 39 / pa.nu
            with mpmath.workdps(30):
                exact = (1 - mpmath.mpf(1) / pa.nu) * mpmath.nsum(
                    lambda s: q**s * mpmath.gammainc(
                        -39, mpmath.mpf(pa.p) ** s * 0.5, mpmath.inf),
                    [0, mpmath.inf])
            assert cf.green_tail_integral(pa, 0.5, 40.0) == pytest.approx(
                float(exact), rel=1e-12)

    def test_gamma_next_to_pole_against_mpmath(self):
        # gamma = 1 + eps and 2 + eps put a = 1 - gamma next to a pole of
        # Gamma(a); the tail must still meet its tolerance 1e-12
        import mpmath
        pa = PA_2_HALF
        for gamma in (1.0 + 1e-6, 2.0 + 1e-6):
            a = mpmath.mpf(1.0 - gamma)
            q = mpmath.mpf(pa.p) ** (gamma - 1.0) / pa.nu
            with mpmath.workdps(30):
                exact = (1 - mpmath.mpf(1) / pa.nu) * mpmath.nsum(
                    lambda s: q**s * mpmath.gammainc(
                        a, mpmath.mpf(pa.p) ** s * 0.7, mpmath.inf),
                    [0, mpmath.inf])
            assert cf.green_tail_integral(pa, 0.7, gamma) == pytest.approx(
                float(exact), abs=1e-12)

    @pytest.mark.parametrize("T", [0.3, 2.0, 50.0])
    def test_next_to_divergence_where_atoms_underflow(self, T):
        # gamma = 0.52 at (2, 1/4): q = p**(gamma-1)/nu = 2**-0.04, so the
        # certified sum runs to s = 1123, and p**s is 0.0 from s = 538 on.
        # Oracle: the terms q**s Gamma(a, p**s T) in mpmath while
        # p**s T >= 1e-20, the rest from Gamma(a, x) = Gamma(a) - x**a/a
        # + O(x**(a+1)) in closed form (q p**a = 1/nu)
        import mpmath
        gamma, bound = 0.52, 1e-12
        with mpmath.workdps(30):
            nu, p = mpmath.mpf(PA_2_QUARTER.nu), mpmath.mpf(PA_2_QUARTER.p)
            a = 1 - mpmath.mpf(gamma)
            q = p ** (gamma - 1) / nu
            total, s = mpmath.mpf(0), 0
            while p**s * T >= mpmath.mpf("1e-20"):
                total += q**s * mpmath.gammainc(a, p**s * T, mpmath.inf)
                s += 1
            total += (mpmath.gamma(a) * q**s / (1 - q)
                      - T**a / a * nu**-s / (1 - 1 / nu))
            exact = float((1 - 1 / nu) * total)
        value = cf.green_tail_integral(PA_2_QUARTER, T, gamma)
        assert abs(value - exact) <= bound + 1e-14 * exact
        partial = cf.green_tail_partial_sum(PA_2_QUARTER, T, gamma, 1200)
        assert abs(partial - value) <= bound + 1e-14 * exact

    @pytest.mark.parametrize("gamma", [1.0, 1.001, 1.5])
    def test_gamma_at_least_one_where_atoms_underflow(self, gamma):
        # at p = 1e-9, p**s T is 0.0 from s = 36 on, while nu**-s still
        # weighs 1e-11; those atoms are read through ln x = s ln p + ln T
        # (for gamma near 1 the x -> 0 limit 1/(-a) is far off)
        import mpmath
        pa = LatticeParams(2, 1e-9)
        with mpmath.workdps(30):
            p, a = mpmath.mpf(pa.p), 1 - mpmath.mpf(gamma)
            exact = float(mpmath.fsum(
                2 ** -mpmath.mpf(s + 1) * p ** (-a * s)
                * mpmath.gammainc(a, p**s, mpmath.inf) for s in range(64)))
        value = cf.green_tail_integral(pa, 1.0, gamma)
        assert abs(value - exact) <= 1e-12 + 1e-14 * exact

    @pytest.mark.parametrize("pa", [PA_2_QUARTER, PA_4_HALF])
    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.5, 3.0])
    def test_gamma_at_least_one_against_explicit_sum(self, pa, gamma):
        # gamma >= 1 is where the left-out rule cuts the series shortest.
        # Oracle, at 30 digits: the terms q**s Gamma(a, x), x = p**s T,
        # q = p**(gamma-1)/nu, in mpmath while x >= 1e-20; past them the
        # small-x expansion of Gamma(a, x) in closed form.  Its powers
        # x**(a+n) < 1 are summed geometrically (q**s x**(a+n) =
        # nu**-s p**(n s) T**(a+n)); at integer a = -m the x**0 order is
        # (-1)**m/m! (psi(m+1) - ln x), else Gamma(a).  What is left out,
        # |q**s x**(a+n)| / (n! |a+n|) with n >= 1, |a+n| >= 1/2 at these
        # gamma, adds up to at most 2e nu**-S T**a 1e-20 / (1 - p/nu)
        # < 1e-18 over s >= S.
        import mpmath
        with mpmath.workdps(30):
            nu, p = mpmath.mpf(pa.nu), mpmath.mpf(pa.p)
            a = 1 - mpmath.mpf(gamma)
            q = p ** (gamma - 1) / nu
            m = int(mpmath.ceil(-a))  # the powers x**(a+n) < 1: n < m
            for T in (0.7, 30.0, 300.0, 1e4):
                total, s = mpmath.mpf(0), 0
                while p**s * T >= mpmath.mpf("1e-20"):
                    total += q**s * mpmath.gammainc(a, p**s * T, mpmath.inf)
                    s += 1

                def geo(ratio, times_j=False):  # sum_{j >= s} (j) ratio**j
                    return ratio**s * (s / (1 - ratio) + ratio / (1 - ratio)**2
                                       if times_j else 1 / (1 - ratio))
                total -= mpmath.fsum((-1) ** n * T ** (a + n) * geo(p**n / nu)
                                     / (mpmath.factorial(n) * (a + n))
                                     for n in range(m))
                if a == -m:
                    total += (-1) ** m / mpmath.factorial(m) * (
                        (mpmath.digamma(m + 1) - mpmath.log(T)) * geo(q)
                        - mpmath.log(p) * geo(q, times_j=True))
                else:
                    total += mpmath.gamma(a) * geo(q)
                exact = float((1 - 1 / nu) * total)
                value = cf.green_tail_integral(pa, T, gamma)
                assert abs(value - exact) <= 1e-12 + 1e-14 * exact

    def test_divergence_signals(self):
        with pytest.raises(DivergentIntegralError):
            cf.green_tail_integral(PA_2_QUARTER, 1.0, 0.0)  # p*nu < 1
        with pytest.raises(DivergentIntegralError):
            cf.green_tail_integral(PA_2_HALF, 0.0, 1.2)  # not integrable at 0
        with pytest.raises(DivergentIntegralError):
            cf.green_tail_integral(PA_2_QUARTER, 1.0, 0.4)  # gamma + s_h/2 <= 1

    def test_negative_lower_limit_rejected(self):
        # _moment checks T for every gamma branch and the partial sums too
        for gamma in (0.0, 0.5, 1.0, 1.5):
            with pytest.raises(DomainError, match="nonnegative"):
                cf.green_tail_integral(PA_4_HALF, -1.0, gamma)
        with pytest.raises(DomainError, match="nonnegative"):
            cf.green_tail_partial_sum(PA_4_HALF, -1.0, 0.0, 5)

    def test_partial_sums_grow_without_bound(self):
        pa = LatticeParams(2, 0.3)  # p*nu = 0.6 < 1
        sums = [cf.green_tail_partial_sum(pa, 1.0, 0.0, n)
                for n in (10, 20, 40, 80)]
        assert all(b > a for a, b in zip(sums, sums[1:]))
        assert sums[-1] > 1e15
