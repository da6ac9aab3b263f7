"""Fast oracle-equivalence battery behind `hierspec selftest`.

Each check recomputes a library quantity by an independent route
(brute-force search, dense linear algebra, matrix exponentials) and
compares at tight tolerance.  Runs in a few seconds; the full pytest
suite is the authoritative version of these comparisons.
"""

import math

import numpy as np
import scipy.linalg

from . import annihilated as ann
from . import closedform as cf
from .bounds import functional
from .errors import DivergentIntegralError
from .hierops import HaarBasis, VolumeGrid, apply_laplacian, assemble_dense, \
    dirichlet_spectrum
from .lattice import LatticeParams, hier_distance, sample_end_sites
from .schrodinger import POSITIVITY_THRESHOLD, Potential, _delta_spectrum, \
    count_above_threshold, positive_spectrum


def _brute_distance(x, y, nu, max_rank=64):
    for r in range(max_rank):
        if x // nu**r == y // nu**r:
            return r
    raise AssertionError("no common cube found")


def _within_standard_errors(counts, probs, sigmas=5.0):
    """Every bin expecting at least 25 hits lies within ``sigmas`` SE."""
    mean = counts.sum() * probs
    se = np.sqrt(mean * (1.0 - probs))
    return bool(np.all((np.abs(counts - mean) <= sigmas * se)[mean >= 25.0]))


def run_selftest(verbose: bool = False) -> int:
    """Run all checks; returns the number of failures."""
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")

    rng = np.random.default_rng(20240817)

    # hierarchical distance vs brute-force minimal-cube search
    ok = all(hier_distance(x, y, nu) == _brute_distance(x, y, nu)
             for nu in (2, 3) for x in range(20) for y in range(20))
    check("hier_distance matches brute-force cube search", ok)

    # fast vs naive apply, and both vs the dense matrix
    pa = LatticeParams(2, 0.5)
    grid = VolumeGrid(pa, 6)
    psi = rng.standard_normal(grid.n_sites)
    fast = apply_laplacian(psi, grid, "fast")
    naive = apply_laplacian(psi, grid, "naive")
    dense = assemble_dense(grid) @ psi
    check("fast apply = naive apply", np.max(np.abs(fast - naive)) < 1e-12)
    check("apply = dense matvec", np.max(np.abs(fast - dense)) < 1e-12)

    # closed-form spectrum vs dense eigendecomposition
    for nu, p, depth in [(2, 0.5, 5), (3, 0.3, 4)]:
        g = VolumeGrid(LatticeParams(nu, p), depth)
        vals = np.sort(scipy.linalg.eigvalsh(-assemble_dense(g)))
        closed = np.sort(dirichlet_spectrum(g).expand())
        check(f"dense spectrum = closed form (nu={nu}, p={p}, N={depth})",
              np.max(np.abs(vals - closed)) < 1e-10)

    # Haar transform round trip and diagonal action
    basis = HaarBasis(grid)
    x = rng.standard_normal(grid.n_sites)
    check("haar round trip",
          np.max(np.abs(basis.inverse(basis.forward(x)) - x)) < 1e-12)
    check("haar diagonal action = dense",
          np.max(np.abs(basis.apply_operator(x) - assemble_dense(grid) @ x))
          < 1e-12)

    # heat kernel vs dense matrix exponential
    e_t = scipy.linalg.expm(1.0 * assemble_dense(grid))
    ok = all(abs(cf.heat_kernel(pa, 1.0, r) - e_t[0, [0, 1, 2, 4][r]])
             <= pa.p**grid.depth * 1.0 + 1e-9 for r in range(4))
    check("heat kernel = matrix exponential (N=6)", ok)
    check("heat kernel normalization at t=0",
          abs(cf.heat_kernel(pa, 0.0, 0) - 1.0) < 1e-13)

    # walk sampler vs the heat kernel's shell law and the rank law a_r;
    # the seed is fixed, so the check is deterministic
    ends, ranks = sample_end_sites(pa, 0, 5.0, 20_000, seed=1905)
    shells = np.bincount([e.bit_length() for e in ends])  # = d(0, e) at nu=2
    shell_law = np.array([cf.heat_kernel(pa, 5.0, r) * max(1, 2 ** (r - 1))
                          for r in range(len(shells))])
    rank_counts = np.bincount(ranks)
    rank_law = np.append(0.0, pa.jump_weights(len(rank_counts) - 1))
    check("walk end-site shells within 5 SE of the heat kernel (2, 1/2)",
          _within_standard_errors(shells, shell_law))
    check("walk jump ranks within 5 SE of a_r (2, 1/2)",
          _within_standard_errors(rank_counts, rank_law))

    # resolvent functional equation and transient Green values
    lam = 0.37
    resid = abs(cf.resolvent(pa, pa.p * lam, 0)
                - cf.resolvent(pa, lam, 0) / (pa.p * pa.nu)
                - (pa.nu - 1) / (pa.nu * (pa.p * lam + 1)))
    check("resolvent functional equation", resid < 1e-12)
    pa4 = LatticeParams(4, 0.5)
    check("Green function diagonal value",
          abs(cf.resolvent_zero(pa4, 0) - 1.5) < 1e-14)
    try:
        cf.green_tail_integral(LatticeParams(2, 0.3), 1.0, 0.0)
        check("recurrent divergence flagged", False)
    except DivergentIntegralError:
        check("recurrent divergence flagged", True)

    # annihilated resolvent vs deleted dense operator
    g8 = VolumeGrid(pa, 8)
    deleted = assemble_dense(g8)[1:, 1:]
    lam = 0.8
    oracle = np.linalg.inv(lam * np.eye(g8.n_sites - 1) - deleted)[1, 1]
    check("annihilated resolvent vs deleted dense solve",
          abs(ann.resolvent_annihilated(pa, lam, 2) - oracle) < 1e-6)
    check("a(1) = 2", abs(ann.a_coefficient(pa, 1) - 2.0) < 1e-14)
    check("a(3) closed form at p*nu = 1/2",
          abs(ann.a_coefficient(LatticeParams(2, 0.25), 3) - 11.0) < 1e-12)

    # p1 as a sum over the spectral measure vs deleted-operator expm
    p1 = ann.p1_diag(pa, 3.0, 2)
    oracle = scipy.linalg.expm(3.0 * deleted)[1, 1]
    check("p1 measure sum vs deleted matrix exponential",
          abs(p1 - oracle) <= pa.p**g8.depth * 3.0 + 1e-8)

    # J_0(T) vs the deleted spectral sum: for T <= 1 the gap stays at T = 0's
    ev, vecs = np.linalg.eigh(deleted)
    gaps = [ann.p1_tail_integral(pa, T, 2)
            - float(np.sum(vecs[1, :] ** 2 * np.exp(ev * T) / -ev))
            for T in (0.0, 0.5, 1.0)]
    check("p1 tail integral vs deleted spectral sum (N=8)",
          max(abs(g - gaps[0]) for g in gaps) < 1e-7)

    # CLR functional at sigma = 0: its weight is R_0(x,x) = 1.5 at (4, 1/2),
    # certified to 1e-12 per site of V <= a
    pot = Potential({0: 2.0, 1: 0.25, 5: 0.75, 17: 1.0}, origin=0)
    rep = functional(VolumeGrid(pa4, 3), pot, "clr", a=1.0, sigma=0.0)
    check("CLR functional = #{V > a} + 1.5 sum_{V<=a} V at (4, 1/2)",
          abs(rep.functional - (1.0 + 1.5 * (0.25 + 0.75 + 1.0))) < 1e-11)

    # distance-indexed Green table vs a dense solve, and the
    # Birman-Schwinger count on it vs the dense count above the
    # positivity threshold; the 5 sites share a rank-3 cube, so the
    # off-diagonal entries of the table decide the count
    table = HaarBasis(g8).green_by_distance(0.3)
    dense_green = np.linalg.solve(0.3 * np.eye(g8.n_sites)
                                  - assemble_dense(g8), np.eye(g8.n_sites)[0])
    check("Green table by distance = dense solve (2, 1/2, N=8)",
          np.max(np.abs(table - dense_green[np.r_[0, 2 ** np.arange(8)]]))
          < 1e-12)
    sites = 8 * int(rng.integers(32)) + rng.choice(8, size=5, replace=False)
    pot = Potential(dict(zip((int(s) for s in sites),
                             rng.uniform(0.0, 1.0, size=5))))
    vals = scipy.linalg.eigvalsh(assemble_dense(g8, pot.diagonal(g8)))[::-1]
    dense = vals[vals > POSITIVITY_THRESHOLD]
    check("Birman-Schwinger count = dense count (2, 1/2, N=8)",
          count_above_threshold(g8, pot) == len(dense))
    # the same potential on its support cube plus one vector per shell
    report = positive_spectrum(g8, pot)
    check("positive spectrum = volume eigensolve (2, 1/2, N=8)",
          report.count == len(dense) and np.all(
              np.abs(report.eigenvalues - dense)
              <= 1e-13 * np.maximum(1.0, np.abs(dense))))

    closed = np.sort(np.repeat(*_delta_spectrum(g8, 0.3)))  # L + 0.3 delta_x
    dense = assemble_dense(g8, Potential({5: 0.3}).diagonal(g8))
    check("delta spectrum = dense spectrum (2, 1/2, N=8)",
          np.max(np.abs(closed - scipy.linalg.eigvalsh(dense))) < 1e-13)

    failures = sum(1 for _, ok in checks if not ok)
    if verbose:
        print(f"{len(checks) - failures}/{len(checks)} selftest checks passed")
    return failures
