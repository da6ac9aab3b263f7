"""Acceptance criteria: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9a checks
the depth-6 dense coupling threshold at (nu=4, p=1/2) against its exact
finite-volume value 1/G_6(0,0) = 192/287, not against the
infinite-lattice value 2/3: the finite-volume correction 1/G_N - 2/3 is
2.3e-3 at N=6 and 1.2e-3 at N=7, so the 1e-3 agreement with 2/3 is
asserted at depths 8 to 10, where it holds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import hierspec.annihilated as ann
import hierspec.closedform as cf
import hierspec.hierops as hierops
from hierspec.bounds import bound_report, fitted_constant_range
from hierspec.errors import DivergentIntegralError
from hierspec.hierops import (HaarBasis, VolumeGrid, apply_laplacian,
                              assemble_dense, dirichlet_spectrum)
from hierspec.lattice import LatticeParams, hier_distance, rho_of_distance, \
    sample_end_sites
from hierspec.schrodinger import (delta_potential, positive_spectrum,
                                  powerlaw_potential,
                                  secular_coupling_threshold,
                                  volume_coupling_threshold)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException as exc:
        print(f"[FAIL] {label}: {exc}")
        raise
    print(f"[PASS] {label}")


def test_criterion_01_spectrum_exactness(monkeypatch):
    # the grid reaches n = 3**8 = 6561, above the library's dense cap
    monkeypatch.setattr(hierops, "DENSE_CAP_DEFAULT", 6561)
    with criterion("criterion 1: closed-form spectrum = dense eigendecomposition"):
        start = time.monotonic()
        for nu in (2, 3):
            for depth in range(4, 9):
                if nu**depth > 6561:
                    continue
                for p in (0.3, 0.5, 0.7):
                    grid = VolumeGrid(LatticeParams(nu, p), depth)
                    # one n x n array: m.T is m in Fortran order, so
                    # LAPACK overwrites it in place, as in dense_spectrum;
                    # it is freed before the next volume is assembled
                    m = assemble_dense(grid)
                    np.negative(m, out=m)
                    dense = np.sort(scipy.linalg.eigvalsh(m.T,
                                                          overwrite_a=True))
                    del m
                    closed = np.sort(dirichlet_spectrum(grid).expand())
                    assert len(dense) == len(closed)
                    worst = np.max(np.abs(dense - closed))
                    assert worst <= 1e-10, \
                        f"nu={nu} p={p} N={depth}: deviation {worst:.2e}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f} s exceeds 60 s"


def test_criterion_02_fast_apply_equivalence():
    with criterion("criterion 2: fast apply = naive apply, near-linear cost"):
        start = time.monotonic()
        rng = np.random.default_rng(202)
        for nu in (2, 3, 4):
            for p in (0.2, 0.5, 0.8):
                for depth in range(1, 9):
                    grid = VolumeGrid(LatticeParams(nu, p), depth)
                    fields = rng.standard_normal((grid.n_sites, 100))
                    fast = apply_laplacian(fields, grid, "fast")
                    naive = apply_laplacian(fields, grid, "naive")
                    scale = np.max(np.abs(naive))
                    assert np.max(np.abs(fast - naive)) <= 1e-12 * scale, \
                        f"nu={nu} p={p} N={depth}"
        # cost model ~ C nu^N N with factor-2 slack, up to 2^20 sites
        grid_times = {}
        for depth in (16, 18, 20):
            grid = VolumeGrid(LatticeParams(2, 0.5), depth)
            x = rng.standard_normal(grid.n_sites)
            apply_laplacian(x, grid, "fast")  # warm up
            reps = [0.0] * 5
            for i in range(5):
                t0 = time.perf_counter()
                apply_laplacian(x, grid, "fast")
                reps[i] = time.perf_counter() - t0
            grid_times[depth] = sorted(reps)[2]
        for n1, n2 in ((16, 18), (18, 20)):
            model = (2**n2 * n2) / (2**n1 * n1)
            measured = grid_times[n2] / grid_times[n1]
            assert measured <= 2.0 * model, \
                f"cost ratio {measured:.1f} vs model {model:.1f} (2x slack)"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f} s exceeds 120 s"


def test_criterion_03_haar_diagonalization():
    with criterion("criterion 3: hierarchical eigenbasis round trip and action"):
        rng = np.random.default_rng(303)
        for nu, p, depth in [(2, 0.5, 8), (3, 0.4, 5), (2, 0.7, 6)]:
            grid = VolumeGrid(LatticeParams(nu, p), depth)
            basis = HaarBasis(grid)
            x = rng.standard_normal(grid.n_sites)
            assert np.max(np.abs(basis.inverse(basis.forward(x)) - x)) <= 1e-12
            closed = np.sort(dirichlet_spectrum(grid).expand())
            assert np.sort(-basis.eigenvalues) == pytest.approx(closed,
                                                                abs=1e-14)
            dense_action = assemble_dense(grid) @ x
            assert np.max(np.abs(basis.apply_operator(x) - dense_action)) \
                <= 1e-10


def test_criterion_04_heat_kernel_oracle():
    with criterion("criterion 4: heat kernel vs matrix exponential + identities"):
        pa = LatticeParams(2, 0.5)
        grid = VolumeGrid(pa, 8)
        m = assemble_dense(grid)
        sites = {0: 0, 1: 1, 2: 2, 3: 4}
        for t in (0.1, 1.0, 5.0, 20.0):
            e_t = scipy.linalg.expm(t * m)
            for r, site in sites.items():
                allowed = pa.p**8 * t + 1e-9
                got = cf.heat_kernel(pa, t, r)
                assert abs(got - e_t[0, site]) <= allowed, f"t={t} r={r}"
        # stochasticity over a rank-12 volume plus closed-form exterior
        t, rank = 2.4, 12
        mass = cf.heat_kernel(pa, t, 0, tol=1e-16)
        mass += sum(2 ** (r - 1) * cf.heat_kernel(pa, t, r, tol=1e-15 / 2**r)
                    for r in range(1, rank + 1))
        mass += cf.heat_exterior_mass(pa, t, rank)
        assert abs(mass - 1.0) <= 1e-9
        # semigroup over a rank-16 volume (remainder < 1e-9 there)
        t1, t2, rank = 1.3, 0.9, 16
        x, z = 3, 9
        dist_x = np.zeros(2**rank, dtype=np.int64)
        dist_z = np.zeros(2**rank, dtype=np.int64)
        qx, qz, q = x, z, np.arange(2**rank)
        for _ in range(rank):
            dist_x += q != qx
            dist_z += q != qz
            q = q // 2
            qx //= 2
            qz //= 2
        k1 = np.array([cf.heat_kernel(pa, t1, r) for r in range(rank + 1)])
        k2 = np.array([cf.heat_kernel(pa, t2, r) for r in range(rank + 1)])
        total = float(k1[dist_x] @ k2[dist_z])
        expected = cf.heat_kernel(pa, t1 + t2, hier_distance(x, z, 2))
        assert abs(total - expected) <= 1e-9


def test_criterion_05_log_periodicity():
    with criterion("criterion 5: log-periodic heat profile"):
        pa4 = LatticeParams(4, 0.5)
        ts = 10.0 ** np.arange(2.0, 6.001, 0.3)
        residuals = [abs(cf.heat_profile(pa4, t) - cf.heat_profile(pa4, t / pa4.p))
                     for t in ts]
        assert max(residuals) <= 1e-4
        assert residuals[-1] <= residuals[0]
        pa2 = LatticeParams(2, 0.5)
        profile = [cf.heat_profile(pa2, t) for t in ts]
        assert min(profile) > 0.0
        assert max(profile) / min(profile) < 2.0


def test_criterion_06_resolvent_identities():
    with criterion("criterion 6: resolvent identities and small-lam expansion"):
        # functional equation on a 20-point sector grid
        pa = LatticeParams(2, 0.5)
        for mag in (0.05, 0.3, 1.0, 4.0):
            for ang in (-2.0, -0.9, 0.0, 0.9, 2.0):
                lam = mag * complex(math.cos(ang), math.sin(ang))
                resid = (cf.resolvent(pa, pa.p * lam, 0)
                         - cf.resolvent(pa, lam, 0) / (pa.p * pa.nu)
                         - (pa.nu - 1) / (pa.nu * (pa.p * lam + 1)))
                assert abs(resid) <= 1e-12
        # Green function diagonal at (4, 1/2)
        pa4 = LatticeParams(4, 0.5)
        assert abs(cf.resolvent_zero(pa4, 0) - 1.5) <= 1e-10
        # off-diagonal decay ratio settles to 1 by r = 30 (transient
        # parameters where the (1 - p^{r/2})^{s_h-2} correction is
        # below the stated tolerance)
        pa_t = LatticeParams(4, 0.26)
        c = cf.resolvent_zero_constant(pa_t)
        ratio = (cf.resolvent_zero(pa_t, 30)
                 * rho_of_distance(30, pa_t) ** (pa_t.s_h - 2.0) / c)
        assert abs(ratio - 1.0) <= 1e-8
        # small-lam drift bound with slack 2 at (2, 1/4)
        pa_r = LatticeParams(2, 0.25)
        for lam in (0.5, 0.1, 0.02, 0.004):
            _, u1, _ = cf.resolvent_expansion(pa_r, lam)
            _, u2, _ = cf.resolvent_expansion(pa_r, pa_r.p * lam)
            bound = pa_r.p**2 * (pa_r.nu - 1) * lam ** (1.0 + pa_r.alpha)
            assert abs(u1 - u2) <= 2.0 * bound


def test_criterion_07_annihilated_suite():
    with criterion("criterion 7: annihilated resolvent, kernel, decay law"):
        pa = LatticeParams(2, 0.5)
        # resolvent vs deleted dense operator, sector grid above the
        # finite-volume floor 10 p^N
        grid10 = VolumeGrid(pa, 10)
        deleted = assemble_dense(grid10)[1:, 1:]
        eye = np.eye(deleted.shape[0])
        floor = 10.0 * pa.p**10
        for mag in (0.3, 1.0, 5.0):
            assert mag >= floor
            for ang in (-2.0, 0.0, 1.3):
                lam = mag * complex(math.cos(ang), math.sin(ang))
                inv = np.linalg.inv(lam * eye - deleted)
                for r, x in [(1, 1), (2, 2), (4, 8)]:
                    got = ann.resolvent_annihilated(pa, lam, r)
                    assert abs(got - inv[x - 1, x - 1]) <= 1e-8
        # kernel vs deleted matrix exponential at N = 8
        deleted8 = assemble_dense(VolumeGrid(pa, 8))[1:, 1:]
        for t in (1.0, 5.0, 20.0, 0.25):
            e_t = scipy.linalg.expm(t * deleted8)
            for r, x in [(1, 1), (2, 2), (3, 4)]:
                allowed = pa.p**8 * t + 1e-8
                assert abs(ann.p1_diag(pa, t, r) - e_t[x - 1, x - 1]) <= allowed
        # long-time decay exponent -(1 + alpha)
        for p_val in (0.25, 0.35):
            pa_s = LatticeParams(2, p_val)
            ts = 10.0 ** np.arange(2.0, 6.001, 0.25)
            vals = np.array([ann.p1_diag(pa_s, t, 1) for t in ts])
            slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
            assert abs(slope + 1.0 + pa_s.alpha) <= 0.05, \
                f"p={p_val}: slope {slope:.4f}"
        # envelope sup over t, r finite
        pa_q = LatticeParams(2, 0.25)
        sup = 0.0
        for r in range(1, 11):
            weight = (rho_of_distance(r, pa_q) ** 2 + 1.0) ** (2 * pa_q.alpha)
            for t in (1e2, 1e3, 1e4, 1e5, 1e6):
                ratio = t ** (1 + pa_q.alpha) * ann.p1_diag(pa_q, t, r) / weight
                sup = max(sup, ratio)
        assert math.isfinite(sup) and sup > 0.0
        print(f"  (envelope supremum over t in [1e2,1e6], r <= 10: {sup:.6f})")


def test_criterion_08_transience_dichotomy():
    with criterion("criterion 8: transient/recurrent dichotomy of the Green integral"):
        for nu in (2, 4):
            for p in (0.2, 0.26, 1.0 / nu, 0.3):
                pa = LatticeParams(nu, p)
                if p * nu > 1.0:
                    value = cf.green_tail_integral(pa, 1.0, 0.0)
                    assert math.isfinite(value) and value > 0.0
                else:
                    with pytest.raises(DivergentIntegralError):
                        cf.green_tail_integral(pa, 1.0, 0.0)
                    sums = [cf.green_tail_partial_sum(pa, 1.0, 0.0, n)
                            for n in (25, 50, 100, 200)]
                    assert all(b > a for a, b in zip(sums, sums[1:]))
                    if p * nu < 1.0:
                        assert sums[-1] > 1e6  # grows without bound


def test_criterion_09a_rank_one_threshold():
    with criterion("criterion 9a: rank-one coupling threshold, depth-6 dense "
                   "= 1/G_6, -> 2/3"):
        pa = LatticeParams(4, 0.5)
        nu, p = pa.nu, pa.p

        def green_origin(depth):
            # G_N(0,0) from the spectral decomposition of the volume
            # operator: delta_0 puts weight nu^(1-k) - nu^(-k) on the rank-k
            # details (eigenvalue -p^(k-1)) and nu^(-N) on the constant
            # vector (eigenvalue -p^N (nu-1)/(nu-p)).
            details = sum((nu ** (1 - k) - nu ** -k) / p ** (k - 1)
                          for k in range(1, depth + 1))
            return details + nu ** -depth * (nu - p) / (p**depth * (nu - 1))

        # at (4, 1/2) the sum reduces to 3/2 - 2^(-N)/3: 1/G_6 = 192/287
        exact6 = 1.0 / green_origin(6)
        assert abs(exact6 - 192.0 / 287.0) <= 1e-15

        # dense brute force at depth 6, independent of the Haar basis:
        # L + c delta_0 has an eigenvalue above 1e-12 exactly when
        # 1e-12 I - L - c delta_0 is not positive definite
        grid = VolumeGrid(pa, 6)
        m = assemble_dense(grid)
        shifted = -m
        shifted[np.diag_indices_from(shifted)] += 1e-12

        def has_positive(c):
            a = shifted.copy()
            a[0, 0] -= c
            try:
                scipy.linalg.cholesky(a, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError:
                return True
            return False

        lo, hi = 0.6, 0.75
        assert not has_positive(lo)
        at_hi = m.copy()
        at_hi[0, 0] += hi
        assert np.sum(scipy.linalg.eigvalsh(at_hi, overwrite_a=True)
                      > 1e-12) == 1
        for _ in range(18):
            mid = 0.5 * (lo + hi)
            if has_positive(mid):
                hi = mid
            else:
                lo = mid
        assert lo <= exact6 <= hi, (
            f"dense bracket [{lo:.9f}, {hi:.9f}] misses the exact depth-6 "
            f"threshold 1/G_6 = {exact6:.9f}")

        # the threshold read from dirichlet_spectrum against the closed
        # form, N = 6..10
        depths = range(6, 11)
        c = {n: volume_coupling_threshold(VolumeGrid(pa, n)) for n in depths}
        for n in depths:
            assert abs(c[n] - 1.0 / green_origin(n)) <= 1e-12, \
                f"N={n}: {c[n]!r} vs 1/G_N = {1.0 / green_origin(n)!r}"

        # c_N decreases strictly to the infinite-lattice value 2/3; the
        # correction 1/G_N - 2/3 is 2.3e-3 at N=6 and 1.2e-3 at N=7, so
        # the 1e-3 agreement is asserted from N=8 on
        secular = secular_coupling_threshold(pa)
        assert secular == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert all(c[n] > c[n + 1] > secular for n in range(6, 10))
        for n in (8, 9, 10):
            assert abs(c[n] - secular) <= 1e-3, \
                f"N={n}: threshold {c[n]:.7f} vs 2/3 off by " \
                f"{abs(c[n] - secular):.2e}"
        print(f"  (dense bracket [{lo:.9f}, {hi:.9f}] holds 1/G_6 = "
              f"{exact6:.9f}; 1/G_N - 2/3 = "
              + ", ".join(f"{c[n] - secular:.2e}" for n in depths)
              + " for N = 6..10)")


def test_criterion_09b_weak_coupling_binds():
    with criterion("criterion 9b: arbitrarily weak coupling binds when s_h < 2"):
        pa = LatticeParams(2, 0.25)
        grid = VolumeGrid(pa, 12)
        report = positive_spectrum(grid, delta_potential(0, 0.05))
        assert report.count == 1
        assert report.method == "dense"


def test_criterion_10_bounds_harness():
    with criterion("criterion 10: bound functionals across the power-law sweep"):
        start = time.monotonic()
        thetas = [0.1 * 2**k for k in range(9)]
        all_theorems = ("clr", "lt", "lt-weighted", "clr-general",
                        "lt-general", "lt-general-weighted", "bargmann",
                        "bargmann-uniform", "bargmann-refined")
        pa = LatticeParams(2, 0.25)
        grid = VolumeGrid(pa, 9)
        pots = [powerlaw_potential(pa, 0, th, 3.0, 6) for th in thetas]
        recurrent_tags = {"clr", "lt"}  # p*nu < 1: correctly inapplicable
        for sigma in (0.0, 1.0):
            rows = bound_report(grid, pots, theorems=all_theorems, a=1.0,
                                sigma=sigma, gamma=0.8, thetas=thetas,
                                betas=[3.0] * 9)
            for tag in all_theorems:
                tagged = [r for r in rows if r["theorem"] == tag]
                if tag in recurrent_tags:
                    assert all("divergent" in r["flags"] for r in tagged)
                    continue
                assert all(r["functional"] is not None
                           and math.isfinite(r["functional"]) for r in tagged)
                lo, hi = fitted_constant_range(rows, tag)
                assert hi is not None and math.isfinite(hi), tag
            if sigma == 0.0:
                lo, hi = fitted_constant_range(rows, "bargmann-refined")
                assert hi / lo < 50.0, f"refined sweep ratio {hi / lo:.1f}"
        # classic constant grows toward s_h = 2 while the uniform stays
        # put; the potential family is held fixed so that only the
        # geometry parameter moves (building V from each p's own rho
        # would conflate potential changes with the constant trend)
        classic_sup, uniform_sup = [], []
        for p_val in (0.24, 0.25, 0.26):
            pa_p = LatticeParams(2, p_val)
            grid_p = VolumeGrid(pa_p, 9)
            rows = bound_report(grid_p, pots,
                                theorems=("bargmann", "bargmann-uniform"),
                                sigma=0.0, gamma=1.0, thetas=thetas,
                                betas=[3.0] * 9)
            classic_sup.append(fitted_constant_range(rows, "bargmann")[1])
            uniform_sup.append(fitted_constant_range(rows, "bargmann-uniform")[1])
        assert classic_sup[0] < classic_sup[1] < classic_sup[2], classic_sup
        assert max(uniform_sup) / min(uniform_sup) < 3.0, uniform_sup
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"runtime {elapsed:.0f} s exceeds 10 min"
        print(f"  (classic fitted sup over p=0.24,0.25,0.26: "
              f"{[round(v, 4) for v in classic_sup]}; "
              f"harness time {elapsed:.0f} s)")


def test_criterion_11_monte_carlo():
    with criterion("criterion 11: walk end-site and jump-rank laws"):
        pa = LatticeParams(2, 0.5)
        horizon = 5.0
        n_samples = 100_000
        ends, ranks = sample_end_sites(pa, 0, horizon, n_samples, seed=1905)
        # end-site distance distribution vs the exact kernel
        dists = np.array([hier_distance(0, int(e), 2) for e in ends])
        kernel = [cf.heat_kernel(pa, horizon, 0)]
        r_max = 24
        kernel += [2 ** (r - 1) * cf.heat_kernel(pa, horizon, r)
                   for r in range(1, r_max + 1)]
        probs = np.array(kernel)
        observed = np.bincount(np.minimum(dists, r_max + 1),
                               minlength=r_max + 2).astype(float)
        expected = np.append(probs, 1.0 - probs.sum()) * n_samples
        # merge bins with expected counts below 10 into the tail
        keep = expected >= 10.0
        obs_m = np.append(observed[keep], observed[~keep].sum())
        exp_m = np.append(expected[keep], expected[~keep].sum())
        _, pvalue = scipy.stats.chisquare(obs_m, exp_m)
        assert pvalue > 0.01, f"end-site chi-square p={pvalue:.4f}"
        # jump ranks vs the geometric law a_r
        kmax = 16
        rank_obs = np.bincount(np.minimum(ranks, kmax), minlength=kmax + 1)[1:]
        rank_probs = np.array(
            [(1 - pa.p) * pa.p ** (k - 1) for k in range(1, kmax)]
            + [pa.p ** (kmax - 1)])
        _, pvalue2 = scipy.stats.chisquare(rank_obs,
                                           rank_probs * rank_obs.sum())
        assert pvalue2 > 0.01, f"jump-rank chi-square p={pvalue2:.4f}"
        print(f"  (chi-square p-values: end-site {pvalue:.3f}, "
              f"jump-rank {pvalue2:.3f})")
