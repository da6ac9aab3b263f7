"""Perturbed operator L + V: positive spectrum and bound-state counting.

Potentials are nonnegative with finite support, so the positive
spectrum of L + V is a finite set of eigenvalues above the (strictly
negative) spectrum of the volume Laplacian.  Counting uses the strict
positivity threshold ``POSITIVITY_THRESHOLD = 1e-12``: the Dirichlet
volume has no exact zero modes, so any eigenvalue above it is a
genuine bound state at working precision.

The volume Green function G_tau = (tau - L)^(-1) depends only on the
distance of its two sites; :meth:`HaarBasis.green_by_distance` gives
the table G_tau(d), d = 0..N, from one solve.  The Birman-Schwinger
count, the rank-one threshold 1/G_0(0) and the secular equation
c G_lam(0) = 1 all read it.  Two solver paths:

* dense (volume within the cap): full symmetric eigendecomposition;
* iterative (large volumes): the count above the threshold is first
  obtained *exactly* from the Birman-Schwinger reduction -- for V >= 0
  and tau above sup Sp(L), the number of eigenvalues of L + V above
  tau equals the number of eigenvalues > 1 of the s x s matrix
  K_tau = V^(1/2) G_tau V^(1/2) on the s support sites of V -- and
  Lanczos with full reorthogonalization then computes exactly that
  many eigenpairs.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError
from .hierops import (DENSE_CAP_DEFAULT, HaarBasis, VolumeGrid,
                      apply_laplacian, assemble_dense, hier_distance_matrix,
                      lanczos_extreme, potential_diagonal)
from .lattice import LatticeParams, Site, cube_of, cube_sites, hier_distance, \
    rho_of_distance

POSITIVITY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class Potential:
    """Nonnegative potential with finite support.

    ``support`` maps site -> value (values >= 0); ``origin`` is the
    reference site for distance-weighted families and the annihilation
    point of the general counting bounds.
    """

    support: dict
    origin: Site = 0

    def __post_init__(self):
        for site, value in self.support.items():
            if site < 0:
                raise DomainError("potential sites must be nonnegative ints")
            if value < 0:
                raise DomainError(f"potential must be >= 0, got V({site})={value}")

    def value(self, site: Site) -> float:
        return self.support.get(site, 0.0)

    def max_value(self) -> float:
        return max(self.support.values(), default=0.0)

    def scaled(self, factor: float) -> "Potential":
        if factor < 0:
            raise DomainError("scaling factor must be >= 0")
        return Potential({s: factor * v for s, v in self.support.items()},
                         origin=self.origin)


def delta_potential(site: Site, value: float, origin: Site = None) -> Potential:
    """Single-site potential value * delta_site."""
    return Potential({site: value},
                     origin=site if origin is None else origin)


def powerlaw_potential(params: LatticeParams, x0: Site, theta: float,
                       beta: float, radius: int) -> Potential:
    """V(x) = theta (1 + rho(x0, x))**(-beta) on the rank-``radius`` cube at x0."""
    if theta < 0 or beta <= 0:
        raise DomainError("need theta >= 0 and beta > 0")
    support = {}
    for x in cube_sites(cube_of(x0, radius, params.nu), params.nu):
        r = hier_distance(x0, x, params.nu)
        support[x] = theta * (1.0 + rho_of_distance(r, params)) ** (-beta)
    return Potential(support, origin=x0)


def potential_to_json(potential: Potential) -> str:
    """Serialize as {"sites": [[index, value], ...], "origin": index}."""
    sites = [[int(s), float(v)] for s, v in sorted(potential.support.items())]
    return json.dumps({"sites": sites, "origin": int(potential.origin)},
                      sort_keys=True)


def potential_from_json(text: str) -> Potential:
    """Parse the JSON potential format; values may be numbers or exact
    decimal strings."""
    try:
        data = json.loads(text)
        support = {int(s): float(v) for s, v in data["sites"]}
        origin = int(data.get("origin", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed potential JSON: {exc}") from exc
    return Potential(support, origin=origin)


@dataclass
class EigenReport:
    """Positive spectrum of L + V with counting and power sums.

    ``eigenvalues`` are sorted descending and all exceed
    ``POSITIVITY_THRESHOLD``; ``count`` is their number (with
    multiplicity) and ``sum_gamma(gamma) = sum(eigenvalues**gamma)``.
    """

    eigenvalues: np.ndarray
    method: str
    depth: int
    residual_norms: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    @property
    def largest(self) -> float:
        return float(self.eigenvalues[0]) if self.count else 0.0

    def sum_gamma(self, gamma: float) -> float:
        return float(np.sum(self.eigenvalues**gamma)) if self.count else 0.0


def _support_inside(grid: VolumeGrid, potential: Potential):
    for site in potential.support:
        if site >= grid.n_sites:
            raise DomainError(
                f"potential site {site} outside the depth-{grid.depth} volume")


def count_above_threshold(grid: VolumeGrid, potential: Potential,
                          tau: float = POSITIVITY_THRESHOLD) -> int:
    """Exact number of eigenvalues of L + V above tau (tau > sup Sp(L)).

    Birman-Schwinger reduction: the count becomes the number of
    eigenvalues > 1 of K_tau = V^(1/2) G_tau V^(1/2) on the s support
    sites, G_tau gathered from the distance-indexed Green table.  Costs
    one fast volume solve and an s x s eigenvalue problem.
    """
    _support_inside(grid, potential)
    if tau <= -grid.bottom_eigenvalue():
        raise DomainError("threshold must exceed sup Sp(L)")
    sites = sorted(s for s, v in potential.support.items() if v > 0)
    if not sites:
        return 0
    green = HaarBasis(grid).green_by_distance(tau)[
        hier_distance_matrix(grid, sites)]
    sqrt_v = np.sqrt([potential.support[s] for s in sites])
    bs_matrix = sqrt_v[:, None] * green * sqrt_v[None, :]
    mu = scipy.linalg.eigvalsh(bs_matrix)
    return int(np.sum(mu > 1.0))


def positive_spectrum(grid: VolumeGrid, potential: Potential,
                      method: str = "auto") -> EigenReport:
    """Eigenvalues of L + V above ``POSITIVITY_THRESHOLD``, with
    multiplicity.

    ``method``: "dense" | "iterative" | "auto" (dense up to
    ``DENSE_CAP_DEFAULT`` sites).
    The iterative path certifies completeness against the exact
    Birman-Schwinger count before returning.
    """
    _support_inside(grid, potential)
    if method == "auto":
        method = "dense" if grid.n_sites <= DENSE_CAP_DEFAULT else "iterative"
    if method == "dense":
        m = assemble_dense(grid, potential)
        # m.T is m in Fortran order, so LAPACK overwrites it with no copy
        vals = scipy.linalg.eigvalsh(m.T, overwrite_a=True)[::-1]
        pos = vals[vals > POSITIVITY_THRESHOLD]
        return EigenReport(eigenvalues=np.asarray(pos), method="dense",
                           depth=grid.depth)
    if method != "iterative":
        raise DomainError(f"unknown method {method!r}")
    n_expected = count_above_threshold(grid, potential)
    if n_expected == 0:
        return EigenReport(eigenvalues=np.array([]), method="iterative",
                           depth=grid.depth)
    diag = potential_diagonal(grid, potential)

    def matvec(v):
        return apply_laplacian(v, grid, mode="fast") + diag * v

    vals, vecs = lanczos_extreme(matvec, grid.n_sites, n_expected)
    resid = np.array([np.linalg.norm(matvec(vecs[:, i]) - vals[i] * vecs[:, i])
                      for i in range(n_expected)])
    pos = vals[vals > POSITIVITY_THRESHOLD]
    if len(pos) != n_expected:
        raise DomainError(
            f"Lanczos found {len(pos)} positive eigenvalues but the "
            f"Birman-Schwinger count certifies {n_expected}")
    return EigenReport(eigenvalues=pos, method="iterative", depth=grid.depth,
                       residual_norms=resid)


def secular_coupling_threshold(params: LatticeParams) -> float:
    """Critical coupling for V = c * delta on the infinite lattice.

    A bound state exists iff c R_0(x,x) > 1; in the transient regime
    this gives c* = (p nu - 1)/(p (nu - 1)).  For s_h <= 2 the
    resolvent diverges at 0 and the threshold is 0 (any coupling
    binds).
    """
    if params.p * params.nu <= 1.0:
        return 0.0
    return (params.p * params.nu - 1.0) / (params.p * (params.nu - 1.0))


def volume_coupling_threshold(grid: VolumeGrid) -> float:
    """Finite-volume critical coupling 1 / G_0(0) for V = c * delta_x.

    G_0(0) is the diagonal of the volume Green function at zero, the
    same at every site x; exact through the hierarchical eigenbasis.
    Converges to :func:`secular_coupling_threshold` as the depth grows
    (transient case) or to 0 (recurrent case).
    """
    return 1.0 / float(HaarBasis(grid).green_by_distance(0.0)[0])


def secular_eigenvalue(grid: VolumeGrid, site: Site, coupling: float) -> float:
    """Positive eigenvalue of L + c*delta_site from the secular equation
    c G_lam(0) = 1 on the finite volume (exact, by root finding).

    The diagonal G_lam(0) of the volume Green function does not depend
    on the site, so ``site`` is only checked to lie in the volume.
    """
    from scipy.optimize import brentq
    if not 0 <= site < grid.n_sites:
        raise DomainError(f"site {site} outside the volume")
    basis = HaarBasis(grid)

    def green(lam):
        return float(basis.green_by_distance(lam)[0])

    if coupling <= 1.0 / green(0.0):
        raise DomainError("coupling below the finite-volume threshold")
    return brentq(lambda lam: coupling * green(lam) - 1.0, 1e-300,
                  coupling + 1.0, xtol=1e-15, rtol=8.881784197001252e-16)
