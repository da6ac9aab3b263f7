"""Finite-volume hierarchical Laplacian: apply, assemble, diagonalize.

The finite volume of depth N is the rank-N cube around the origin
(``nu**N`` sites).  The operator used everywhere is the restriction of
the *infinite-lattice* Laplacian to fields vanishing outside the
volume (a Dirichlet condition), with the rank > N tail of the defining
series summed in closed form:

    L psi(x) = sum_{r=1..N} a_r * (S_r(x)/nu**r - psi(x))
               + A_N * S_N - p**N * psi(x),

where S_r(x) is the field sum over the rank-r cube containing x,
S_N is the total sum, a_r = (1-p) p**(r-1), and

    A_N = (1-p) p**N / (nu**N (nu - p))

is the exact value of sum_{r>N} a_r / nu**r.  Consequences used below:

* detail vectors (constant on rank-(k-1) sub-cubes, zero sum on their
  rank-k cube) are eigenvectors with eigenvalue -p**(k-1);
* the constant vector is an eigenvector with eigenvalue
  -p**N (nu-1)/(nu-p).  Direct evaluation gives this value rather than
  -p**N; the discrepancy with the usually quoted bottom value is
  documented in the README and flagged in
  :func:`dirichlet_spectrum`'s docstring.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CertificationError, DomainError
from .lattice import LatticeParams

DENSE_CAP_DEFAULT = 4096
FAST_CAP_DEFAULT = 2**22


@dataclass(frozen=True)
class VolumeGrid:
    """Depth-N finite volume (the rank-N cube at the origin)."""

    params: LatticeParams
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise DomainError("volume depth must be >= 1")
        if self.n_sites > FAST_CAP_DEFAULT:
            raise DomainError(
                f"volume of {self.n_sites} sites exceeds the fast-path cap "
                f"{FAST_CAP_DEFAULT}")

    @property
    def n_sites(self) -> int:
        return self.params.nu**self.depth

    def tail_weight(self) -> float:
        """A_N: closed form of sum_{r>N} a_r / nu**r."""
        nu, p, N = self.params.nu, self.params.p, self.depth
        return (1.0 - p) * p**N / (nu**N * (nu - p))

    def bottom_eigenvalue(self) -> float:
        """|eigenvalue| of -L on the constant vector: p**N (nu-1)/(nu-p)."""
        nu, p, N = self.params.nu, self.params.p, self.depth
        return p**N * (nu - 1.0) / (nu - p)


def _check_field(field: np.ndarray, grid: VolumeGrid) -> np.ndarray:
    arr = np.asarray(field, dtype=float)
    if arr.shape[0] != grid.n_sites:
        raise DomainError(
            f"field length {arr.shape[0]} != volume size {grid.n_sites}")
    return arr


def apply_laplacian(field, grid: VolumeGrid, mode: str = "fast") -> np.ndarray:
    """Apply the Dirichlet-volume Laplacian to a field.

    ``field`` may be a single vector of length ``nu**N`` or a matrix of
    column vectors of shape ``(nu**N, m)``.

    ``mode="fast"`` computes every cube sum once by an upward sweep and
    redistributes the per-cube coefficients by a downward sweep; total
    cost is O(nu**N) per field.  ``mode="naive"`` evaluates the
    defining series rank by rank.  Both agree to ~1e-12 relative.
    """
    arr = _check_field(field, grid)
    single = arr.ndim == 1
    cols = arr.reshape(grid.n_sites, -1)
    if mode == "fast":
        out = _apply_fast(cols, grid)
    elif mode == "naive":
        out = _apply_naive(cols, grid)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return out[:, 0] if single else out.reshape(arr.shape)


def _apply_fast(cols: np.ndarray, grid: VolumeGrid) -> np.ndarray:
    nu, p, N = grid.params.nu, grid.params.p, grid.depth
    m = cols.shape[1]
    # upward sweep: sums over cubes of every rank, each cube's nu children
    # added in order (numpy's pairwise order for nu >= 8 would differ)
    sums = [cols]  # sums[r] has shape (nu**(N-r), m)
    for _ in range(N):
        child = sums[-1].reshape(-1, nu, m)
        s = child[:, 0] + child[:, 1]
        for k in range(2, nu):
            s += child[:, k]
        sums.append(s)
    # downward sweep: accumulate a_r * S_r / nu**r from coarse to fine, in
    # place of the sums (fresh pages of large temporaries cost more than
    # the arithmetic), each cube's value broadcast over its nu children
    acc = grid.tail_weight() * sums[N]  # shape (1, m)
    for r in range(N, 0, -1):
        a_r = (1.0 - p) * p ** (r - 1)
        cubes = sums[r].reshape(len(acc), -1, m)  # grouped by parent cube
        cubes *= a_r / nu**r
        cubes += acc[:, None]
        acc = sums[r]
    return (acc[:, None] - cols.reshape(len(acc), nu, m)).reshape(-1, m)


def _apply_naive(cols: np.ndarray, grid: VolumeGrid) -> np.ndarray:
    nu, p, N = grid.params.nu, grid.params.p, grid.depth
    n = grid.n_sites
    out = np.zeros_like(cols)
    for r in range(1, N + 1):
        block = nu**r
        a_r = (1.0 - p) * p ** (r - 1)
        cube_sums = np.add.reduceat(cols, np.arange(0, n, block), axis=0)
        out += a_r * (np.repeat(cube_sums, block, axis=0) / block - cols)
    total = cols.sum(axis=0, keepdims=True)
    out += grid.tail_weight() * total - p**N * cols
    return out


def hier_distance_matrix(grid: VolumeGrid, sites) -> np.ndarray:
    """Pairwise hierarchical distances of ``sites``, as an int16 matrix.

    d(x,y) counts the ranks r in 0..N-1 at which the base-nu quotients
    of x and y still differ (they agree from some rank on, and once
    equal stay equal).
    """
    q = np.asarray(sites, dtype=np.int64)
    d = np.zeros((len(q), len(q)), dtype=np.int16)
    for _ in range(grid.depth):
        d += q[:, None] != q[None, :]
        q = q // grid.params.nu
    return d


def distance_entries(grid: VolumeGrid) -> np.ndarray:
    """a_r, r = 0..N: the off-diagonal entry of L at distance r >= 1,
    (1-p) p**(r-1) / (nu**(r-1) (nu-p)) (entry 0 is unused)."""
    nu, p = grid.params.nu, grid.params.p
    r = np.arange(grid.depth + 1, dtype=float)
    with np.errstate(over="ignore"):
        return (1.0 - p) * p ** (r - 1.0) / (np.float64(nu) ** (r - 1.0)
                                             * (nu - p))


def assemble_dense(grid: VolumeGrid, diagonal=None) -> np.ndarray:
    """Dense symmetric matrix of L + V on the volume.

    Entries follow from summing the defining series per site pair:
    for r = d(x,y) >= 1,

        M[x,y] = (1-p) p**(r-1) / (nu**(r-1) (nu-p)),

    and M[x,x] = (1-p)/(nu-p) - 1 + V(x), with V the length-n array
    ``diagonal`` (``None`` for V = 0).  The volume may hold at most
    ``DENSE_CAP_DEFAULT`` sites.

    d(x,y) <= r on the diagonal blocks of the rank-r cubes, so M is filled
    block by block for r = N..1: one n x n array, n**2 * 8 bytes.
    """
    nu, p, N, n = grid.params.nu, grid.params.p, grid.depth, grid.n_sites
    if n > DENSE_CAP_DEFAULT:
        raise DomainError(
            f"dense path needs nu**depth <= {DENSE_CAP_DEFAULT}, got {n}")
    if diagonal is not None and np.shape(diagonal) != (n,):
        raise DomainError("potential diagonal has wrong length")
    table = distance_entries(grid)
    m = np.empty((n, n))
    for rank in range(N, 0, -1):
        block = nu**rank
        for start in range(0, n, block):
            m[start:start + block, start:start + block] = table[rank]
    np.fill_diagonal(m, (1.0 - p) / (nu - p) - 1.0)
    if diagonal is not None:
        m[np.diag_indices_from(m)] += diagonal
    return m


# ---------------------------------------------------------------------------
# hierarchical Haar basis


def _helmert(nu: int) -> np.ndarray:
    """Orthonormal nu x nu matrix; row 0 = constant, rows 1.. zero-sum."""
    h = np.zeros((nu, nu))
    h[0] = 1.0 / math.sqrt(nu)
    for k in range(1, nu):
        h[k, :k] = 1.0 / math.sqrt(k * (k + 1))
        h[k, k] = -k / math.sqrt(k * (k + 1))
    return h


class HaarBasis:
    """Orthonormal eigenbasis of the volume Laplacian, with fast transforms.

    Per rank-k cube the basis holds nu-1 "detail" vectors (constant on
    the cube's rank-(k-1) sub-cubes, zero sum over the cube), plus one
    normalized constant vector for the whole volume.  The Laplacian is
    diagonal here: detail vectors of rank k carry eigenvalue -p**(k-1),
    the constant carries -p**N (nu-1)/(nu-p).

    Coefficient layout: index 0 is the constant coefficient, followed by
    detail blocks of rank N, N-1, ..., 1 (coarse to fine), each block in
    cube order with nu-1 entries per cube.  This is the order of
    :func:`dirichlet_spectrum` reversed, so ``eigenvalues`` is read from
    it, the one place the volume spectrum is stated.  Both transforms
    cost O(nu**N * N); ``forward`` and ``inverse`` round-trip to ~1e-12.
    """

    def __init__(self, grid: VolumeGrid):
        self.grid = grid
        self._h = _helmert(grid.params.nu)
        #: eigenvalue of the Laplacian for each coefficient index
        self.eigenvalues = -dirichlet_spectrum(grid).expand()[::-1]

    def forward(self, field) -> np.ndarray:
        """Coefficients of a field (or matrix of column fields)."""
        arr = _check_field(field, self.grid)
        single = arr.ndim == 1
        work = arr.reshape(self.grid.n_sites, -1)
        nu = self.grid.params.nu
        m = work.shape[1]
        blocks = []
        s = work
        for _ in range(self.grid.depth):
            mixed = np.einsum("ij,cjm->cim", self._h, s.reshape(-1, nu, m))
            s = mixed[:, 0, :]
            blocks.append(mixed[:, 1:, :].reshape(-1, m))
        out = np.concatenate([s] + blocks[::-1], axis=0)
        return out[:, 0] if single else out.reshape(arr.shape)

    def inverse(self, coeffs) -> np.ndarray:
        """Field from coefficients; exact inverse of :meth:`forward`."""
        arr = _check_field(coeffs, self.grid)
        single = arr.ndim == 1
        work = arr.reshape(self.grid.n_sites, -1)
        nu, N = self.grid.params.nu, self.grid.depth
        m = work.shape[1]
        s = work[:1]
        pos = 1
        for k in range(N, 0, -1):
            count = nu ** (N - k) * (nu - 1)
            details = work[pos:pos + count].reshape(-1, nu - 1, m)
            pos += count
            mixed = np.concatenate([s.reshape(-1, 1, m), details], axis=1)
            s = np.einsum("ji,cjm->cim", self._h, mixed).reshape(-1, m)
        return s[:, 0] if single else s.reshape(arr.shape)

    def apply_operator(self, field) -> np.ndarray:
        """Laplacian action via the diagonalization (for cross-checks)."""
        coeffs = self.forward(field)
        return self.inverse((coeffs.T * self.eigenvalues).T)

    def green_by_distance(self, shift: float) -> np.ndarray:
        """Green function (shift - L)^(-1)(x, y) as a table over the
        distance d = d(x, y) = 0..N, solved exactly through the eigenbasis;
        a shift on an eigenvalue raises :class:`DomainError`.

        L's entries depend only on d(x,y) and the volume's automorphisms
        act transitively on its sites, so one solve against delta_0, read
        at the sites 0, 1, nu, ..., nu**(N-1) (distance 0..N from the
        origin), gives every entry.
        """
        nu, N = self.grid.params.nu, self.grid.depth
        denom = shift - self.eigenvalues
        if np.any(np.abs(denom) < 1e-300):
            raise DomainError("shift coincides with an eigenvalue")
        delta0 = np.zeros(self.grid.n_sites)
        delta0[0] = 1.0
        column = self.inverse(self.forward(delta0) / denom)
        return column[np.r_[0, nu ** np.arange(N)]]


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumSummary:
    """Sorted (eigenvalue, multiplicity) pairs with provenance.

    ``entries`` are strictly decreasing in eigenvalue; multiplicities
    sum to the volume size.  ``provenance`` is ``closed-form``
    (:func:`dirichlet_spectrum`) or ``dense`` (:func:`dense_spectrum`).
    """

    entries: tuple
    provenance: str

    def __post_init__(self):
        values = [e[0] for e in self.entries]
        if any(b >= a for a, b in zip(values, values[1:])):
            raise DomainError("eigenvalues must be strictly decreasing")

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def expand(self) -> np.ndarray:
        """All eigenvalues with multiplicity, descending."""
        return np.concatenate(
            [np.full(m, v) for v, m in self.entries]) if self.entries else np.array([])


def dirichlet_spectrum(grid: VolumeGrid) -> SpectrumSummary:
    """Closed-form spectrum of -L on the depth-N volume.

    Eigenvalue p**k with multiplicity nu**(N-1-k) (nu-1) for
    k = 0..N-1, plus the single bottom eigenvalue p**N (nu-1)/(nu-p)
    (the direct evaluation on the constant vector; the often-quoted
    bottom value p**N does not match the Dirichlet restriction used
    here -- see the README).
    """
    nu, p, N = grid.params.nu, grid.params.p, grid.depth
    entries = [(p**k, nu ** (N - 1 - k) * (nu - 1)) for k in range(N)]
    entries.append((grid.bottom_eigenvalue(), 1))
    return SpectrumSummary(entries=tuple(entries), provenance="closed-form")


def dense_spectrum(grid: VolumeGrid) -> SpectrumSummary:
    """Spectrum of -L by dense symmetric eigendecomposition (volume
    within the dense cap).  Eigenvalues in descending order split into
    groups where consecutive ones differ by more than 2 n u max|lam|,
    u the unit roundoff: Weyl's scale for LAPACK's error, as ||-L||_2 is
    its top eigenvalue.  Each group is one entry at its mean.  The one
    n x n array, n**2 * 8 bytes, is negated in place and overwritten by
    LAPACK."""
    m = assemble_dense(grid)
    np.negative(m, out=m)
    # m is exactly symmetric, so m.T is m in Fortran order: no f2py copy
    vals = scipy.linalg.eigvalsh(m.T, overwrite_a=True)[::-1]
    scale = len(vals) * np.finfo(float).eps * np.max(np.abs(vals))  # 2 n u
    groups = np.split(vals, np.flatnonzero(-np.diff(vals) > scale) + 1)
    return SpectrumSummary(
        entries=tuple((float(np.mean(g)), len(g)) for g in groups),
        provenance="dense")


# ---------------------------------------------------------------------------
# iterative machinery (large volumes): Lanczos and Krylov matrix exponential


def _lanczos_step(matvec, basis: np.ndarray, j: int, alphas: list,
                  betas: list) -> float:
    """Lanczos step j, fully reorthogonalized (twice) against rows 0..j of
    the preallocated ``basis``: appends alpha_j to ``alphas``, writes row
    j+1 unless beta_j < 1e-14 or no row is left, and returns beta_j."""
    q = basis[j]
    w = matvec(q)
    alphas.append(float(q @ w))
    w = w - alphas[-1] * q - (betas[-1] * basis[j - 1] if j else 0.0)
    done = basis[:j + 1]
    for _ in range(2):
        w -= done.T @ (done @ w)
    b = float(np.linalg.norm(w))
    if b >= 1e-14 and j + 1 < len(basis):
        basis[j + 1] = w / b
    return b


def lanczos_extreme(matvec, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric operator.

    Plain Lanczos with full reorthogonalization from a fixed random
    start (seed 7); adequate at the sizes used here (<= 2**22) because
    the hierarchical spectra are well separated.  Returns (eigenvalues
    descending, ritz vectors).

    Raises :class:`CertificationError` if the residuals do not reach
    1e-10 within min(n, max(6k + 40, 80)) steps.
    """
    if k < 1:
        raise DomainError("need k >= 1 eigenpairs")
    max_iter = min(n, max(6 * k + 40, 80))
    rng = np.random.default_rng(7)
    basis = np.empty((max_iter, n))
    basis[0] = rng.standard_normal(n)
    basis[0] /= np.linalg.norm(basis[0])
    alphas, betas = [], []
    for j in range(max_iter):
        b = _lanczos_step(matvec, basis, j, alphas, betas)
        if j + 1 >= k:
            theta, s = scipy.linalg.eigh_tridiagonal(alphas, betas)
            order = np.argsort(theta)[::-1]
            resid = abs(b * s[-1, order[:k]])
            if np.all(resid <= 1e-10) or b < 1e-14:
                return theta[order[:k]], basis[:j + 1].T @ s[:, order[:k]]
        if b < 1e-14:
            break
        betas.append(b)
    raise CertificationError(
        f"Lanczos did not converge {k} eigenpairs in {max_iter} iterations")


def expm_action(matvec, v: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(t A) v for every t of the 1-d array ``ts``, A symmetric.

    Returns an array of shape (len(ts), len(v)).  Lanczos steps run until
    the Krylov space of v is exhausted, where the projection is exact (at
    most 41 steps on the volumes of
    :func:`hierspec.annihilated.p1_small_t`); a space not exhausted in 240
    steps raises :class:`CertificationError`.  The basis starts at 30 rows
    and doubles when full.  All t share the basis; each t is then formed
    on its own, with the bits of a call for that t alone.
    """
    beta = float(np.linalg.norm(v))
    if beta == 0.0:
        return np.zeros((len(ts), len(v)))
    basis = np.empty((30, len(v)))
    basis[0] = v / beta
    alphas, betas = [], []
    for j in range(240):
        if j + 1 == len(basis) < 240:
            basis = np.concatenate([basis, np.empty_like(basis)])
        betas.append(_lanczos_step(matvec, basis, j, alphas, betas))
        if betas[-1] < 1e-14:
            break
    else:
        raise CertificationError(
            f"Krylov space not exhausted in {len(basis)} Lanczos steps")
    theta, s = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1])
    # exp(t T) e1 through the tridiagonal eigendecomposition, as (1, steps)
    # rows: one (len(ts), steps) product would round differently
    weights = s * s[0]  # row 0 of S scaled into columns
    out = np.empty((len(ts), len(v)))
    for row, t in zip(out, ts):
        row[:] = beta * (np.exp(np.outer(t, theta)) @ weights.T
                         @ basis[:len(alphas)])[0]
    return out
