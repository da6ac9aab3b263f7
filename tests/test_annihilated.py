"""Annihilated walk: rank-one resolvent algebra, kernel, tail integrals.

Oracles: dense resolvents/exponentials of the row/column-deleted
operator on finite volumes, and 30-digit mpmath sums and Laplace
inversions of the closed forms.  Agreement tolerances account for the
finite-volume boundary leak where it applies.
"""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import hierspec.annihilated as ann
import hierspec.closedform as cf
from hierspec.cli import main
from hierspec.errors import (CertificationError, DivergentIntegralError,
                             DomainError, SpectrumProximityError)
from hierspec.hierops import VolumeGrid, assemble_dense, expm_action
from hierspec.lattice import LatticeParams, rho_of_distance

PA_2_HALF = LatticeParams(2, 0.5)
PA_2_QUARTER = LatticeParams(2, 0.25)
PA_4_HALF = LatticeParams(4, 0.5)


def deleted_dense(pa, depth):
    """Volume Laplacian with the x0 = 0 row and column removed."""
    g = VolumeGrid(pa, depth)
    return assemble_dense(g)[1:, 1:]


def spectral_tail(weights, ev, T, gamma):
    """int_T^inf t**-gamma sum_j w_j e**(ev_j t) dt for eigenpairs ev_j < 0."""
    mu = -ev
    if gamma == 0.0:
        return float(np.sum(weights * np.exp(-mu * T) / mu))
    a = 1.0 - gamma
    return T**a * float(np.sum(weights * cf._scaled_upper_gamma(a, mu * T)))


def r1_mp(pa, lam, r, terms=200):
    """Closed-form R1 = -2 Rt - Rt**2 / R at complex lam in mpmath, with
    R cut after ``terms`` atoms (the rest weigh nu**-terms in all)."""
    import mpmath
    nu, p = mpmath.mpf(pa.nu), mpmath.mpf(pa.p)
    w = [(1 - 1 / nu) * nu**-s for s in range(terms)]
    free = mpmath.fsum(w[s] / (lam + p**s) for s in range(terms))
    tilde = (-1 / ((lam + p ** (r - 1)) * nu**r)
             - mpmath.fsum(w[s] / (lam + p**s) for s in range(r)))
    return -2 * tilde - tilde**2 / free


class TestTilde:
    def test_r1_collapses(self):
        # the r=1 sum telescopes to -1/(lam+1) for any parameters
        for pa in (PA_2_HALF, PA_2_QUARTER, LatticeParams(5, 0.37)):
            for lam in (0.0, 0.3, 1.0, complex(0.2, 0.6)):
                assert ann.resolvent_tilde(pa, lam, 1) == pytest.approx(
                    -1.0 / (lam + 1.0), abs=1e-14)
        assert ann.resolvent_tilde(PA_2_HALF, 1.0, 1).real == pytest.approx(-0.5)

    def test_difference_of_resolvents(self):
        # Rt = R(x0,x) - R(x,x), checked against the series resolvent
        pa = PA_2_HALF
        for lam in (0.4, complex(0.3, 0.5)):
            for r in (1, 2, 4):
                lhs = cf.resolvent(pa, lam, r) - cf.resolvent(pa, lam, 0)
                assert ann.resolvent_tilde(pa, lam, r) == pytest.approx(
                    lhs, abs=1e-12)

    def test_uniform_bound_on_sector(self):
        # |Rt| <= c/(p nu)**r with c independent of lam on the sector
        pa = PA_2_QUARTER
        pnu = pa.p * pa.nu
        c = math.sqrt(2.0) * abs(ann.resolvent_tilde(pa, 0.0, 1)) * 4
        for r in range(1, 8):
            for mag in (1e-4, 0.1, 1.0, 30.0):
                for ang in (0.0, 2.0, -2.3):
                    lam = mag * cmath.exp(1j * ang)
                    assert abs(ann.resolvent_tilde(pa, lam, r)) <= c / pnu**r

    def test_requires_positive_distance(self):
        with pytest.raises(DomainError):
            ann.resolvent_tilde(PA_2_HALF, 0.5, 0)

    def test_scalar_calls_round_as_array_calls(self):
        # at nu = 3 a real scalar divided as a Python complex used to round
        # the head differently from numpy
        pa = LatticeParams(3, 0.3)
        lams = np.geomspace(1e-3, 1e3, 400)
        assert np.array_equal(
            [ann.resolvent_tilde(pa, lam, 5) for lam in lams.tolist()],
            ann.resolvent_tilde(pa, lams, 5))


class TestAnnihilatedResolvent:
    def test_zero_limit_weak_case(self):
        assert ann.a_coefficient(PA_2_QUARTER, 1) == pytest.approx(2.0)
        # 2/(p**(r-1) nu**r) + 2(1-1/nu) sum (p nu)**-s telescopes to 11
        assert ann.a_coefficient(PA_2_QUARTER, 3) == pytest.approx(11.0)
        # a(r) = 3 2**(r-1) - 1; the atom -p**22 lies within 1e-13 of lam = 0
        assert ann.a_coefficient(PA_2_QUARTER, 23) == 3 * 2**22 - 1
        lam_small = ann.resolvent_annihilated(PA_2_QUARTER, 1e-9, 1).real
        assert lam_small == pytest.approx(2.0, abs=1e-4)

    def test_zero_limit_transient_keeps_correction(self):
        pa = LatticeParams(4, 0.5)
        tilde0 = ann.resolvent_tilde(pa, 0.0, 2).real
        expected = -2 * tilde0 - tilde0**2 / cf.resolvent_zero(pa, 0)
        assert ann.annihilated_resolvent_zero(pa, 2) == pytest.approx(expected)

    def test_against_deleted_dense_small_lambda(self):
        pa = PA_2_QUARTER
        deleted = deleted_dense(pa, 10)
        lam = 1e-3
        inv = np.linalg.inv(lam * np.eye(deleted.shape[0]) - deleted)
        allowed = pa.p**10 / lam + 1e-8
        assert abs(ann.resolvent_annihilated(pa, lam, 1).real - inv[0, 0]) \
            <= allowed

    def test_against_deleted_dense_sector_grid(self):
        pa = PA_2_HALF
        deleted = deleted_dense(pa, 10)
        eye = np.eye(deleted.shape[0])
        for mag in (0.3, 1.0, 5.0):
            for ang in (-2.0, 0.0, 1.3):
                lam = mag * cmath.exp(1j * ang)
                inv = np.linalg.inv(lam * eye - deleted)
                for r, x in [(1, 1), (2, 2), (3, 4)]:
                    assert abs(ann.resolvent_annihilated(pa, lam, r)
                               - inv[x - 1, x - 1]) < 1e-8

    def test_kills_at_origin_conceptually(self):
        # the annihilated kernel is identically zero at x0, so distance
        # zero is rejected rather than evaluated
        with pytest.raises(DomainError):
            ann.resolvent_annihilated(PA_2_HALF, 0.5, 0)


class TestP1:
    def test_initial_condition_via_oracle_path(self):
        assert ann.p1_diag(PA_2_HALF, 1e-9, 2) == pytest.approx(1.0, abs=1e-6)

    def test_against_deleted_matrix_exponential(self):
        pa = PA_2_HALF
        deleted = deleted_dense(pa, 8)
        for t in (0.1, 1.0, 5.0, 20.0):
            e_t = scipy.linalg.expm(t * deleted)
            for r, x in [(1, 1), (2, 2), (3, 4)]:
                allowed = pa.p**8 * t + 1e-8
                assert abs(ann.p1_diag(pa, t, r) - e_t[x - 1, x - 1]) <= allowed

    @pytest.mark.parametrize("pa, r, t", [
        (PA_2_QUARTER, 1, 1.0), (PA_2_QUARTER, 1, 1e3),
        (PA_4_HALF, 3, 1.0), (PA_4_HALF, 3, 30.0)])
    def test_against_talbot_inversion(self, pa, r, t):
        # 30-digit Talbot inversion of the closed-form R1: independent of
        # the spectral measure that p1_diag sums for t >= 1
        import mpmath
        with mpmath.workdps(30):
            exact = mpmath.invertlaplace(lambda lam: r1_mp(pa, lam, r), t,
                                         method="talbot")
        assert ann.p1_diag(pa, t, r) == pytest.approx(float(exact),
                                                      abs=1e-14, rel=1e-12)

    def test_certification_failure(self, monkeypatch):
        # the rounding allowance alone exceeds a tolerance of 1e-20
        monkeypatch.setattr(ann, "_TOL", 1e-20)
        with pytest.raises(CertificationError):
            ann.p1_diag(PA_2_QUARTER, 2.0, 1)

    def test_dominated_by_free_kernel(self):
        for t in (0.5, 2.0, 50.0):
            for r in (1, 3):
                p1 = ann.p1_diag(PA_2_QUARTER, t, r)
                p0 = cf.heat_kernel(PA_2_QUARTER, t, 0)
                assert 0.0 <= p1 <= p0 + 1e-9

    @pytest.mark.parametrize("pa, r", [(PA_2_QUARTER, 23), (PA_2_QUARTER, 464),
                                       (LatticeParams(2, 0.01), 8)])
    def test_far_from_x0_is_the_free_kernel(self, pa, r):
        # lam = 0 lies within 1e-13 of atoms -p**s, s < r, where Rt_0 is
        # still finite; the killed site is too far away to change p1 here
        for t in (2.0, 700.0):
            p0 = cf.heat_kernel(pa, t, 0)
            assert p0 - 1e-12 <= ann.p1_diag(pa, t, r) <= p0

    def test_measure_floor_refused(self):
        # p**(r+1) <= 4**-466 is below the measure's floor 1e-280; a T = 1
        # tail never asks for lam = 0, so the refusal names the measure
        for r in (465, 500):
            floor = re.escape(f"r = {r}: p**(r+1) is below the measure's "
                              "float floor 1e-280")
            with pytest.raises(DomainError, match=floor):
                ann.p1_diag(PA_2_QUARTER, 2.0, r)
            with pytest.raises(DomainError, match=floor):
                ann.p1_tail_integral(PA_2_QUARTER, 1.0, r)

    @pytest.mark.parametrize("pa, r", [(LatticeParams(2, 1e-3), 110),
                                       (LatticeParams(2, 1e-20), 17)])
    def test_lam_zero_floor_refused(self, pa, r):
        # p**(r-1) is 0 or subnormal: Rt_0(r) would divide by 0, overflow
        # or keep two digits
        for zero_limit in (ann.a_coefficient, ann.annihilated_resolvent_zero,
                           lambda pa, r: ann.p1_tail_integral(pa, 0.0, r)):
            with pytest.raises(DomainError):
                zero_limit(pa, r)
        assert math.isfinite(ann.a_coefficient(LatticeParams(2, 1e-20), 12))

    @pytest.mark.parametrize("pa, r", [(LatticeParams(7, 0.95), 400),
                                       (LatticeParams(2, 0.99), 1100)])
    def test_measure_past_the_table_refused(self, pa, r):
        # the gaps past the atoms of nonzero weight (383 at nu = 7, 1074
        # at nu = 2) would get roots of weight 0/0
        with pytest.raises(DomainError):
            ann.p1_diag(pa, 2.0, r)
        assert ann.p1_diag(pa, 2.0, len(cf._atom_table(pa)) - 1) > 0.0

    def test_power_law_decay(self):
        pa = PA_2_QUARTER
        ts = 10.0 ** np.arange(2.0, 6.01, 0.5)
        vals = np.array([ann.p1_diag(pa, t, 1) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert slope == pytest.approx(-(1.0 + pa.alpha), abs=0.05)

    def test_envelope_identity(self):
        # p nu = p**alpha exactly; (p nu)**-r and (rho**2+1)**alpha then
        # agree up to the (1 - p**(r/2))**2 factor, which tends to 1
        for pa in (PA_2_QUARTER, LatticeParams(2, 0.35)):
            assert pa.p * pa.nu == pytest.approx(pa.p**pa.alpha, rel=1e-14)
            ratios = []
            for r in (1, 4, 9, 30):
                rho2 = rho_of_distance(r, pa) ** 2
                ratio = (pa.p * pa.nu) ** -r / (rho2 + 1) ** pa.alpha
                predicted = ((1 - pa.p ** (r / 2)) ** 2 + pa.p**r) ** -pa.alpha
                assert ratio == pytest.approx(predicted, rel=1e-12)
                ratios.append(ratio)
            assert ratios[-1] == pytest.approx(1.0, abs=1e-6)

    def test_small_t_keeps_no_volume(self):
        # each Krylov call builds its deleted operator and drops it
        tracemalloc.start()
        try:
            for p in (0.25, 0.3, 0.35):
                for r in (12, 13, 14):
                    ann.p1_diag(LatticeParams(2, p), np.array([0.3, 0.9]), r)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.5 * 2**20


class TestArrayCalls:
    """An array call gives the bits of one scalar call per point."""

    @pytest.mark.parametrize("pa, r", [(PA_2_QUARTER, 1), (PA_2_QUARTER, 2),
                                       (PA_2_QUARTER, 3), (PA_4_HALF, 2)])
    def test_p1_diag_across_t_one(self, pa, r):
        ts = np.array([0.0, 1e-3, 0.5, 1.0, 2.0, 700.0])
        got = ann.p1_diag(pa, ts, r)
        assert np.array_equal(got, [ann.p1_diag(pa, t, r) for t in ts])
        assert isinstance(ann.p1_diag(pa, 0.5, r), float)

    @pytest.mark.parametrize("pa, r", [(PA_2_QUARTER, 2), (PA_4_HALF, 3)])
    def test_resolvent_annihilated(self, pa, r):
        real = np.geomspace(1e-3, 50.0, 40)
        rng = np.random.default_rng(5)
        inside = (10.0 ** rng.uniform(-3.0, 2.0, 40)
                  * np.exp(1j * rng.uniform(-2.3, 2.3, 40)))
        for lam, kind in ((real, float), (inside, complex)):
            got = ann.resolvent_annihilated(pa, lam, r)
            want = [ann.resolvent_annihilated(pa, kind(x), r) for x in lam]
            assert np.array_equal(got, want)
        assert np.all(ann.resolvent_annihilated(pa, real, r).imag == 0.0)

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            ann.p1_diag(PA_2_QUARTER, np.array([2.0, 0.5, -0.1, 3.0]), 1)

    def test_first_lambda_outside_sector_named(self):
        lam = np.array([0.5, 1j, -1.0 + 0.5j, -2.0 + 0.1j])
        with pytest.raises(DomainError, match=r"lam = \(-1\+0\.5j\) outside"):
            ann.resolvent_annihilated(PA_2_QUARTER, lam, 2)

    def test_lambda_near_atom_rejected(self):
        # at r = 25 the atoms -p**s, s < r, reach into the sector's tip
        with pytest.raises(SpectrumProximityError, match="lam = 5e-14 within"):
            ann.resolvent_annihilated(PA_2_QUARTER, np.array([0.5, 5e-14]), 25)

    def test_one_krylov_basis_per_cli_grid(self, monkeypatch, tmp_path):
        calls = []

        def counted(*args):
            calls.append(args)
            return expm_action(*args)

        monkeypatch.setattr(ann, "expm_action", counted)
        assert main(["annihilated", "--nu", "2", "--p", "0.25", "--mode",
                     "p1", "--r", "1", "--t", "0.05,0.1,0.2,0.4,0.6,0.9",
                     "--output", str(tmp_path / "p1.csv")]) == 0
        assert len(calls) == 1

    def test_krylov_value_outside_unit_interval(self, monkeypatch):
        def constant(value):
            return lambda matvec, v, ts: np.full((len(ts), len(v)), value)

        monkeypatch.setattr(ann, "expm_action", constant(1.0 + 1e-9))
        with pytest.raises(CertificationError, match="outside"):
            ann.p1_small_t(PA_2_QUARTER, 0.5, 1)
        # within the Krylov tolerance the value is returned as computed
        monkeypatch.setattr(ann, "expm_action", constant(1.0 + 1e-12))
        assert ann.p1_small_t(PA_2_QUARTER, 0.5, 1) == 1.0 + 1e-12


class TestTailIntegrals:
    def test_closed_form_values(self):
        assert ann.p1_tail_integral(PA_2_QUARTER, 0.0, 1) == pytest.approx(2.0)
        assert ann.p1_tail_integral(PA_2_QUARTER, 0.0, 3) == pytest.approx(11.0)

    def test_monotone_nonincreasing(self):
        vals = [ann.p1_tail_integral(PA_2_QUARTER, T, 2)
                for T in (0.0, 0.5, 2.0, 10.0, 1e3)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[-1] >= 0.0

    def test_against_deleted_spectral_oracle(self):
        # int_T^inf p1 dt = sum_j w_j exp(ev_j T)/(-ev_j) on the finite
        # volume; its boundary gap to the infinite-lattice value is the
        # same finite-size effect seen at T=0
        pa = PA_2_QUARTER
        deleted = deleted_dense(pa, 8)
        ev, q = np.linalg.eigh(deleted)
        w = q[0, :] ** 2  # x at distance 1
        gap0 = ann.p1_tail_integral(pa, 0.0, 1) - float(np.sum(w / -ev))
        for T in (0.5, 2.0, 20.0):
            oracle = float(np.sum(w * np.exp(ev * T) / -ev))
            value = ann.p1_tail_integral(pa, T, 1)
            assert value - oracle == pytest.approx(gap0, abs=1e-7)

    def test_weighted_tail_against_time_quadrature(self):
        from scipy.integrate import quad
        pa = PA_2_QUARTER
        gamma = 0.8
        full = ann.p1_weighted_tail_integral(pa, 0.0, gamma, 1)
        # head from the depth-10 volume: the walk leaves it at rate at most
        # p**10, so its p1 is low by at most p**10 t, and the head by at
        # most p**10 / (2 - gamma) = 7.9e-7
        ev, q = np.linalg.eigh(deleted_dense(pa, 10))
        w = q[0, :] ** 2  # x at distance 1
        head, _ = quad(lambda t: t**-gamma * float(w @ np.exp(ev * t)),
                       0.0, 1.0, limit=100)
        tail, _ = quad(lambda y: math.exp(y * (1 - gamma))
                       * ann.p1_diag(pa, math.exp(y), 1),
                       0.0, 14.0, limit=100)
        assert full == pytest.approx(head + tail, abs=1e-5)

    def test_weighted_tail_gamma_above_one(self):
        value = ann.p1_weighted_tail_integral(PA_2_QUARTER, 0.5, 1.4, 2)
        assert value > 0.0
        with pytest.raises(DomainError):
            ann.p1_weighted_tail_integral(PA_2_QUARTER, 0.0, 1.4, 2)

    def test_weighted_tail_divergence_error_type(self):
        # the error type of the free walk's green_tail_integral
        with pytest.raises(DivergentIntegralError):
            ann.p1_weighted_tail_integral(PA_2_QUARTER, 0.0, 1.0, 2)

    def test_tail_certification_failure(self, monkeypatch):
        # roots left out weighing 1e-3 break every branch of the left-out
        # rule: gamma = 0 (missing mass), below, at and above gamma = 1
        real = ann._measure
        monkeypatch.setattr(ann, "_measure",
                            lambda *args: (real(*args)[0], 1e-3))
        ann.p1_tail_integral.cache_clear()
        ann.p1_weighted_tail_integral.cache_clear()
        with pytest.raises(CertificationError, match="exceeds"):
            ann.p1_tail_integral(PA_2_QUARTER, 2.0, 2)
        for gamma in (0.5, 1.0, 1.5):
            with pytest.raises(CertificationError, match="exceeds"):
                ann.p1_weighted_tail_integral(PA_2_QUARTER, 2.0, gamma, 2)

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            ann.p1_tail_integral(PA_2_HALF, -1.0, 1)

    def test_nan_is_not_certified(self, monkeypatch):
        # NaN <= tol is False, so a NaN bound fails as a large one does
        with pytest.raises(CertificationError, match="bound nan exceeds"):
            ann._certify("x at T", 2.0, float("nan"), 1e-10)
        rows = ann._measure(PA_2_QUARTER, 1)[0].copy()
        rows[-1, 1] = np.nan
        monkeypatch.setattr(ann, "_measure", lambda *args: (rows, 0.0))
        with pytest.raises(CertificationError, match="at t=2.0: bound nan"):
            ann.p1_diag(PA_2_QUARTER, np.array([2.0, 700.0]), 1)
        # at gamma = 0 the missing mass R1(0) - sum c/mu is added to the
        # value, and the bound holds the value, so its nan fails too
        ann.p1_tail_integral.cache_clear()
        with pytest.raises(CertificationError, match="T=2.0: bound nan"):
            ann.p1_tail_integral(PA_2_QUARTER, 2.0, 1)


class TestSpectralMeasure:
    """The killed walk's measure: atoms p**s, s < r, and one root of the
    free resolvent R(-mu) per gap (p**(j+1), p**j)."""

    @pytest.mark.parametrize("pa", [PA_2_QUARTER, PA_2_HALF, PA_4_HALF])
    def test_identities(self, pa):
        # sum c = p1(0) = 1; sum c/mu = R1(0) up to the roots left out,
        # whose share decays slowly only near s_h = 2
        for r in (1, 2, 3):
            rows, tail = ann._measure(pa, r)
            mu, c = rows.T
            assert float(np.sum(c)) == pytest.approx(1.0, abs=1e-15)
            assert tail <= 1e-40
            short = (ann.annihilated_resolvent_zero(pa, r)
                     - float(np.sum(c / mu)))
            assert -1e-14 <= short <= (0.1 if pa is PA_2_HALF else 1e-3)

    @pytest.mark.parametrize("pa", [PA_2_QUARTER, PA_2_HALF, PA_4_HALF])
    def test_resolvent(self, pa):
        for r in (1, 2, 3):
            mu, c = ann._measure(pa, r)[0].T
            for lam in (0.01, 0.3, 2.0, 50.0):
                assert float(np.sum(c / (lam + mu))) == pytest.approx(
                    ann.resolvent_annihilated(pa, lam, r).real, abs=1e-13)

    def test_weighted_tail_exact_values(self):
        # 30-digit Stieltjes integrals (sin(pi g)/pi) Gamma(1-g)
        # int_0^inf lam**(g-1) R1(lam) dlam at g = 0.8
        assert ann.p1_weighted_tail_integral(
            PA_2_QUARTER, 0.0, 0.8, 1) == pytest.approx(5.168592327705341,
                                                        abs=1e-12)
        assert ann.p1_weighted_tail_integral(
            PA_2_QUARTER, 0.0, 0.8, 2) == pytest.approx(5.7531066973980005,
                                                        abs=1e-12)

    def test_tail_exact_value_far_from_x0(self):
        # sum (c/mu) e**(-mu T) with the roots and weights solved in
        # 30-digit arithmetic (110 roots, 260 atoms per resolvent sum)
        assert ann.p1_tail_integral(PA_2_QUARTER, 163840.0, 6) == \
            pytest.approx(2.7895325824073086292, abs=1e-12)
        assert ann.p1_tail_integral(PA_2_QUARTER, 0.5, 6) == \
            pytest.approx(94.561867882804779311, abs=1e-10)

    @pytest.mark.parametrize("pa, depth", [(PA_2_HALF, 8), (PA_4_HALF, 5)])
    def test_against_deleted_spectral_oracle(self, pa, depth):
        # as in TestTailIntegrals: the finite volume moves only the slow
        # modes, so over T <= 1 the gap to the spectral sum of the deleted
        # operator stays at its T = 0 value (J_0) or its T = 1/4 value
        ev, q = np.linalg.eigh(deleted_dense(pa, depth))
        for r, x in [(1, 1), (2, pa.nu)]:
            w = q[x - 1, :] ** 2
            gap0 = ann.p1_tail_integral(pa, 0.0, r) - float(np.sum(w / -ev))
            for T in (0.25, 0.5, 1.0):
                assert ann.p1_tail_integral(pa, T, r) - spectral_tail(
                    w, ev, T, 0.0) == pytest.approx(gap0, abs=1e-7)
            # gamma = 0.1 needs the deeper measure near s_h = 2
            for gamma in (0.1, 1.4):
                gaps = [ann.p1_weighted_tail_integral(pa, T, gamma, r)
                        - spectral_tail(w, ev, T, gamma)
                        for T in (0.25, 0.5, 1.0)]
                assert gaps == pytest.approx([gaps[0]] * 3, abs=1e-7)

    @pytest.mark.parametrize("pa", [PA_2_QUARTER, PA_2_HALF, PA_4_HALF])
    def test_monotone_in_T(self, pa):
        lower = [0.0] + [0.1 * 2.0**k for k in range(20)]
        for gamma in (0.0, 0.1, 0.8, 1.0, 1.4):
            vals = [ann.p1_tail_integral(pa, T, 2) if gamma == 0.0
                    else ann.p1_weighted_tail_integral(pa, T, gamma, 2)
                    for T in lower[gamma >= 1.0:]]
            assert all(a >= b for a, b in zip(vals, vals[1:])), gamma
            assert vals[-1] > 0.0

    @pytest.mark.parametrize("pa", [PA_2_QUARTER, PA_4_HALF])
    def test_large_gamma_against_mpmath(self, pa):
        # sum c mu**39 Gamma(-39, mu T): each Gamma alone overflows
        import mpmath
        mu, c = ann._measure(pa, 2)[0].T
        with mpmath.workdps(30):
            exact = mpmath.fsum(
                mpmath.mpf(cj) * mpmath.mpf(m) ** 39
                * mpmath.gammainc(-39, mpmath.mpf(m) * 0.5, mpmath.inf)
                for m, cj in zip(mu, c))
        assert ann.p1_weighted_tail_integral(pa, 0.5, 40.0, 2) == \
            pytest.approx(float(exact), rel=1e-12)
