"""Perturbed operator L + V: positive spectrum and bound-state counting.

Potentials are nonnegative with finite support, so the positive
spectrum of L + V is a finite set of eigenvalues above the (strictly
negative) spectrum of the volume Laplacian.  Counting uses the strict
positivity threshold ``POSITIVITY_THRESHOLD = 1e-12``: the Dirichlet
volume has no exact zero modes, so any eigenvalue above it is a
genuine bound state at working precision.

Every site carries the same spectral measure of -L, the N + 1 entries
loc of :func:`dirichlet_spectrum` of weight w = multiplicity / nu**N
(the automorphisms act transitively), so G_lam(x,x) = sum w/(lam + loc).
The rank-one threshold 1/G_0(0) sums over it, and the secular equation
c G_lam(0) = 1 has one root per gap and one above the spectrum
(:func:`closedform._secular_roots`); with each -loc of multiplicity one
less, they are the spectrum of L + c delta_x.  The Birman-Schwinger
count reads the distance table G_tau(d), d = 0..N, of
:meth:`HaarBasis.green_by_distance`.
:meth:`Potential.diagonal` is the one place where a potential becomes
the volume diagonal of L + V, behind the one check that its sites lie
in the volume.  Two solver paths:

* dense (volume within the cap): symmetric eigendecomposition of L + V
  on the span V touches, the sites of the smallest cube holding V's
  support plus one vector per outer shell (:func:`_support_cube_matrix`);
  the rest of the volume carries L alone, all below -b_N < 0;
* iterative (large volumes): Lanczos with full reorthogonalization
  computes exactly as many eigenpairs as the Birman-Schwinger count
  (:func:`count_above_threshold`) certifies.
"""

import json
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .closedform import _secular_roots
from .errors import DomainError
from .hierops import (DENSE_CAP_DEFAULT, FAST_CAP_DEFAULT, HaarBasis,
                      VolumeGrid, apply_laplacian, assemble_dense,
                      dirichlet_spectrum, distance_entries,
                      hier_distance_matrix, lanczos_extreme)
from .lattice import LatticeParams, Site, cube_of, cube_sites, hier_distance, \
    rho_of_distance

POSITIVITY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class Potential:
    """Nonnegative potential with finite support.

    ``support`` maps site -> value (finite values >= 0); ``origin`` is
    the reference site for distance-weighted families and the
    annihilation point of the general counting bounds.
    """

    support: dict
    origin: Site = 0

    def __post_init__(self):
        for site, value in self.support.items():
            if not isinstance(site, (int, np.integer)) or site < 0:
                raise DomainError(
                    f"potential sites must be nonnegative ints, got {site!r}")
            if not 0 <= value < math.inf:
                raise DomainError(f"potential must be finite and >= 0, got "
                                  f"V({site})={value}")

    def value(self, site: Site) -> float:
        return self.support.get(site, 0.0)

    def max_value(self) -> float:
        return max(self.support.values(), default=0.0)

    def diagonal(self, grid: VolumeGrid) -> np.ndarray:
        """V as the length-n diagonal on the volume; every support site
        must lie in it."""
        _support_inside(grid, self)
        diag = np.zeros(grid.n_sites)
        diag[list(self.support)] = list(self.support.values())
        return diag

    def scaled(self, factor: float) -> "Potential":
        if factor < 0:
            raise DomainError("scaling factor must be >= 0")
        return Potential({s: factor * v for s, v in self.support.items()},
                         origin=self.origin)


def delta_potential(site: Site, value: float) -> Potential:
    """Single-site potential value * delta_site, with origin at the site."""
    return Potential({site: value}, origin=site)


def powerlaw_potential(params: LatticeParams, x0: Site, theta: float,
                       beta: float, radius: int) -> Potential:
    """V(x) = theta (1 + rho(x0, x))**(-beta) on the rank-``radius`` cube at x0."""
    if theta < 0 or beta <= 0:
        raise DomainError("need theta >= 0 and beta > 0")
    if params.nu**radius > FAST_CAP_DEFAULT:
        raise DomainError(f"power-law radius {radius}: {params.nu}**{radius} "
                          f"sites exceed every volume ({FAST_CAP_DEFAULT})")
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
    """Parse the JSON potential format; sites are JSON integers, values
    may be numbers or exact decimal strings."""
    try:
        data = json.loads(text)
        support = {operator.index(s): float(v) for s, v in data["sites"]}
        origin = operator.index(data.get("origin", 0))
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


def count_above_threshold(grid: VolumeGrid, potential: Potential) -> int:
    """Exact number of eigenvalues of L + V above tau =
    ``POSITIVITY_THRESHOLD`` (> 0 > sup Sp(L)).

    Birman-Schwinger reduction: for V >= 0 the count is the number of
    eigenvalues > 1 of K_tau = V^(1/2) G_tau V^(1/2) on the s support
    sites.  G_tau(d), d >= 1, comes from one Haar solve
    (:meth:`HaarBasis.green_by_distance`) until ROADMAP item 9's
    closed-form table replaces it, once item 1a unpins the Haar spans.
    """
    _support_inside(grid, potential)
    sites = sorted(s for s, v in potential.support.items() if v > 0)
    if not sites:
        return 0
    green = HaarBasis(grid).green_by_distance(POSITIVITY_THRESHOLD)[
        hier_distance_matrix(grid, sites)]
    sqrt_v = np.sqrt([potential.support[s] for s in sites])
    bs_matrix = sqrt_v[:, None] * green * sqrt_v[None, :]
    mu = scipy.linalg.eigvalsh(bs_matrix)
    return int(np.sum(mu > 1.0))


def _support_cube_matrix(grid: VolumeGrid, potential: Potential):
    """L + V on the span that V touches, or None where V vanishes.

    The basis is the sites of the smallest cube C, of rank R >= 1, that
    holds every site with V > 0, then e_k = 1_{S_k} / sqrt|S_k| for each
    outer shell S_k = C_k minus C_{k-1}, k = R+1..N, with C_k the rank-k
    cube about C and |S_k| = (nu-1) nu**(k-1): an m x m matrix,
    m = nu**R + N - R.  The C x C block is the depth-R matrix, as its
    entries depend on d <= R only; at R = N it is the whole matrix.  With
    a_r the entry of L at distance r (:func:`distance_entries`) and d_0
    its diagonal,

        <delta_x, L e_k> = a_k sqrt|S_k|,
        <e_j, L e_k> = a_max(j,k) sqrt(|S_j| |S_k|),  j != k,
        <e_k, L e_k> = d_0 + sum_{r<k} a_r (nu-1) nu**(r-1)
                       + a_k (nu-2) nu**(k-1).

    The tree automorphisms that fix C pointwise commute with L + V, and
    this span is their fixed space.  Its complement vanishes on C, so
    there L + V = L <= -b_N < 0: no eigenvalue above tau is left out.
    """
    _support_inside(grid, potential)
    pairs = sorted((s, v) for s, v in potential.support.items() if v > 0)
    if not pairs:
        return None
    nu, p, N = grid.params.nu, grid.params.p, grid.depth
    sites = np.array([s for s, _ in pairs], dtype=np.int64)
    rank, q = 1, sites // nu
    while q[0] != q[-1]:  # sorted, so all equal iff the ends are
        rank, q = rank + 1, q // nu
    if nu**rank > DENSE_CAP_DEFAULT:
        raise DomainError(f"the support of V spans a rank-{rank} cube of "
                          f"{nu**rank} sites, above the dense cap "
                          f"{DENSE_CAP_DEFAULT}")
    cube = VolumeGrid(grid.params, rank)
    diag = np.zeros(cube.n_sites)
    diag[sites - q[0] * cube.n_sites] = [v for _, v in pairs]
    block = assemble_dense(cube, diag)
    if rank == N:
        return block
    a = distance_entries(grid)
    k = np.arange(rank + 1, N + 1)
    power = np.float64(nu) ** np.arange(N)  # nu**(r-1), r = 1..N
    inner = np.cumsum(a[1:] * (nu - 1.0) * power)[k - 2]  # sum over r < k
    root = np.sqrt((nu - 1.0) * power[k - 1])  # sqrt|S_k|
    edge = a[k] * root
    c = cube.n_sites
    m = np.empty((c + len(k),) * 2)
    m[:c, :c] = block
    m[:c, c:], m[c:, :c] = edge, edge[:, None]
    shells = m[c:, c:]
    shells[...] = a[np.maximum.outer(k, k)] * np.outer(root, root)
    np.fill_diagonal(shells, (1.0 - p) / (nu - p) - 1.0 + inner
                     + a[k] * (nu - 2.0) * power[k - 1])
    return m


def positive_spectrum(grid: VolumeGrid, potential: Potential,
                      method: str = "auto") -> EigenReport:
    """Eigenvalues of L + V above ``POSITIVITY_THRESHOLD``, with
    multiplicity.

    ``method``: "dense" | "iterative" | "auto" (dense up to
    ``DENSE_CAP_DEFAULT`` sites).
    The dense path diagonalises L + V on the support cube of V plus one
    vector per outer shell (:func:`_support_cube_matrix`), m = nu**R + N - R
    rows for a support in a rank-R cube; the whole volume's matrix is
    never built, and the cap bounds the cube, nu**R, not the volume.  The
    iterative path certifies completeness against the
    exact Birman-Schwinger count before returning.  Every support site of
    V must lie in the volume.
    """
    if method == "auto":
        method = "dense" if grid.n_sites <= DENSE_CAP_DEFAULT else "iterative"
    if method == "dense":
        m = _support_cube_matrix(grid, potential)
        if m is None:
            return EigenReport(eigenvalues=np.array([]), method="dense")
        # m.T is m in Fortran order, so LAPACK overwrites it with no copy
        vals = scipy.linalg.eigvalsh(m.T, overwrite_a=True)[::-1]
        pos = vals[vals > POSITIVITY_THRESHOLD]
        return EigenReport(eigenvalues=np.asarray(pos), method="dense")
    if method != "iterative":
        raise DomainError(f"unknown method {method!r}")
    n_expected = count_above_threshold(grid, potential)
    if n_expected == 0:
        return EigenReport(eigenvalues=np.array([]), method="iterative")
    diag = potential.diagonal(grid)

    def matvec(v):
        return apply_laplacian(v, grid, mode="fast") + diag * v

    vals, vecs = lanczos_extreme(matvec, grid.n_sites, n_expected)
    resid = np.linalg.norm(apply_laplacian(vecs, grid, mode="fast")
                           + diag[:, None] * vecs - vals * vecs, axis=0)
    pos = vals[vals > POSITIVITY_THRESHOLD]
    if len(pos) != n_expected:
        raise DomainError(
            f"Lanczos found {len(pos)} positive eigenvalues but the "
            f"Birman-Schwinger count certifies {n_expected}")
    return EigenReport(eigenvalues=pos, method="iterative",
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
    """Finite-volume critical coupling 1 / G_0(0) for V = c * delta_x, the
    same at every site x; converges to :func:`secular_coupling_threshold`
    as the depth grows (transient case) or to 0 (recurrent case)."""
    loc, mult = np.array(dirichlet_spectrum(grid).entries).T
    return 1.0 / float(np.sum(mult / grid.n_sites / loc))


def _delta_spectrum(grid: VolumeGrid, coupling: float):
    """(values, multiplicities) of L + c delta_x, c > 0, at any site x:
    each -loc with mult - 1, and the simple -mu, mu the roots of
    sum w / (loc - mu) = 1/c, one in each gap below an entry loc and one
    below the lowest, in [loc_min - c, loc_min) as sum w = 1; that open
    bracket ends at 2c, or at the largest float where 2c overflows."""
    loc, mult = np.array(dirichlet_spectrum(grid).entries).T
    side = np.append(np.full(len(loc) - 1, -1.0), 1.0)
    base = np.append(loc[1:], loc[-1])
    top = 2.0 * min(coupling, np.finfo(float).max / 2.0)
    gap = np.append(-np.diff(loc), top)
    rows = np.column_stack([loc, mult / grid.n_sites])
    mu = base - side * _secular_roots(rows, base, gap, len(loc) - 1,
                                      1.0 / coupling, side)
    return np.append(-mu, -loc), np.r_[[1] * len(mu), mult - 1].astype(int)


def secular_eigenvalue(grid: VolumeGrid, site: Site, coupling: float) -> float:
    """Positive eigenvalue of L + c*delta_site, the top of
    :func:`_delta_spectrum`: positive iff c exceeds
    :func:`volume_coupling_threshold`, else DomainError.  It does not
    depend on the site, so ``site`` is only checked to lie in the volume."""
    if not 0 <= site < grid.n_sites:
        raise DomainError(f"site {site} outside the volume")
    if not coupling > volume_coupling_threshold(grid):  # or nan
        raise DomainError("coupling below the finite-volume threshold")
    return float(np.max(_delta_spectrum(grid, coupling)[0]))
