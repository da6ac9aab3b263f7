"""Hierarchical lattice: sites, cubes, ultrametric distances, random walk.

The lattice is realized as the nonnegative integers with base-``nu``
digits.  A cube of rank ``r`` is a block of ``nu**r`` consecutive
integers aligned to a multiple of ``nu**r``; nesting of cubes is then
ordinary integer division.  Any realization of the nested-partition
axioms is isomorphic to this one, so nothing computed downstream
depends on the choice.

Sites are plain Python ints.  Arbitrary precision matters: the random
walk jumps to cubes of unbounded rank, so positions may leave any
fixed-width integer range.
"""

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError

#: A lattice point: its nonnegative integer index (base-``nu`` digit address).
Site = int


@dataclass(frozen=True)
class LatticeParams:
    """The model parameters: branching factor ``nu`` and jump decay ``p``.

    Derived quantities:

    * jump weights ``a_r = (1-p) * p**(r-1)``, summing to 1 over r >= 1,
    * spectral dimension ``s_h = 2 ln(nu) / ln(1/p)``,
    * exponent ``alpha = 1 - s_h/2`` governing small-spectral-parameter
      asymptotics (note the identity ``p**alpha == p*nu``).
    """

    nu: int
    p: float

    def __post_init__(self):
        if not isinstance(self.nu, (int, np.integer)) or self.nu < 2:
            raise DomainError(f"nu must be an integer >= 2, got {self.nu!r}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie in (0, 1), got {self.p!r}")

    @property
    def s_h(self) -> float:
        return 2.0 * math.log(self.nu) / math.log(1.0 / self.p)

    @property
    def alpha(self) -> float:
        return 1.0 - self.s_h / 2.0

    def jump_weights(self, count: int) -> np.ndarray:
        """First ``count`` jump weights a_1..a_count as an array."""
        r = np.arange(1, count + 1)
        return (1.0 - self.p) * self.p ** (r - 1)


class CubeRef(NamedTuple):
    """Cube ``Q_index^(rank)``: the ``index``-th block of ``nu**rank`` sites."""

    rank: int
    index: int


def site_digits(x: Site, nu: int) -> list[int]:
    """Base-``nu`` digits of a site, least significant first, no trailing zeros."""
    if x < 0:
        raise DomainError("sites are nonnegative integers")
    digits = []
    while x:
        x, d = divmod(x, nu)
        digits.append(d)
    return digits


def site_from_digits(digits, nu: int) -> Site:
    """Inverse of :func:`site_digits`."""
    x = 0
    for d in reversed(list(digits)):
        if not 0 <= d < nu:
            raise DomainError(f"digit {d} out of range for base {nu}")
        x = x * nu + d
    return x


def hier_distance(x: Site, y: Site, nu: int) -> int:
    """Hierarchical distance: minimal rank of a cube containing both sites.

    Equals 0 iff ``x == y``, else 1 + the position of the most
    significant base-``nu`` digit where the two sites differ.  It is a
    super-metric: d(x,y) <= max(d(x,z), d(z,y)).
    """
    if x < 0 or y < 0:
        raise DomainError("sites are nonnegative integers")
    r = 0
    while x != y:
        x //= nu
        y //= nu
        r += 1
    return r


def rho(x: Site, y: Site, params: LatticeParams) -> float:
    """The metric (1/sqrt(p)) ** d_h(x, y) - 1 induced by the ultrametric."""
    return rho_of_distance(hier_distance(x, y, params.nu), params)


def rho_of_distance(r: int, params: LatticeParams) -> float:
    """rho as a function of the hierarchical distance r alone."""
    if r < 0:
        raise DomainError("distances are nonnegative")
    return (1.0 / math.sqrt(params.p)) ** r - 1.0


def cube_of(x: Site, r: int, nu: int) -> CubeRef:
    """The unique rank-``r`` cube containing site ``x``."""
    if r < 0:
        raise DomainError("cube ranks are nonnegative")
    return CubeRef(r, x // nu**r)


def cube_sites(cube: CubeRef, nu: int) -> Iterator[Site]:
    """The ``nu**rank`` member sites of a cube, in increasing index order."""
    base = cube.index * nu**cube.rank
    return iter(range(base, base + nu**cube.rank))


#: Identity of the pseudo-random generator used by the walk sampler;
#: recorded in sampler output so runs are attributable and repeatable.
RNG_ALGORITHM = "numpy.random.PCG64"


@dataclass
class WalkTrajectory:
    """One realization of the continuous-time hierarchical random walk.

    ``times[0] == 0.0`` and ``sites[0]`` is the start site; subsequent
    entries are the jump epochs within the horizon and the landing
    sites.  ``jump_ranks`` records the cube rank drawn at each jump.
    """

    params: LatticeParams
    horizon: float
    seed: int
    times: list[float] = field(default_factory=list)
    sites: list[Site] = field(default_factory=list)
    jump_ranks: list[int] = field(default_factory=list)
    generator: str = RNG_ALGORITHM

    @property
    def end_site(self) -> Site:
        return self.sites[-1]


#: Most jumps a sampler call may expect (horizon x walks); sample_walk
#: takes about 1 s and 8 MB per 1e5 jumps on a 2-vCPU Xeon.
_MAX_JUMPS = 10**7


def _check_horizon(horizon: float, n_samples: int):
    if not (math.isfinite(horizon) and horizon * n_samples <= _MAX_JUMPS):
        raise DomainError(
            f"horizon must be finite, with at most {_MAX_JUMPS:g} expected "
            f"jumps in all; got {horizon:g} over {n_samples} walk(s)")


def _uniform_below(rng: np.random.Generator, nu: int, k: int) -> int:
    """Uniform integer below nu**k, digit by digit: exact at any size."""
    offset = 0
    for d in rng.integers(0, nu, size=k):
        offset = offset * nu + int(d)
    return offset


def sample_walk(params: LatticeParams, x0: Site, horizon: float,
                seed: int) -> WalkTrajectory:
    """Simulate the walk: Exp(1) holding times, rank law P{k=r} = a_r,
    uniform landing on the chosen cube.  Deterministic for a fixed seed.
    """
    if x0 < 0 or horizon < 0:
        raise DomainError("x0 and horizon must be nonnegative")
    _check_horizon(horizon, 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    nu, t, x = params.nu, 0.0, int(x0)
    walk = WalkTrajectory(params=params, horizon=horizon, seed=seed,
                          times=[t], sites=[x])
    while True:
        t += rng.exponential(1.0)
        if t > horizon:
            return walk
        # jump rank is geometric on {1,2,...} with success prob 1-p
        k = int(rng.geometric(1.0 - params.p))
        x = (x // nu**k) * nu**k + _uniform_below(rng, nu, k)
        walk.times.append(t)
        walk.sites.append(x)
        walk.jump_ranks.append(k)


def sample_end_sites(params: LatticeParams, x0: Site, horizon: float,
                     n_samples: int, seed: int):
    """End sites and pooled jump ranks of ``n_samples`` independent walks.

    A jump of rank k redraws the k lowest base-``nu`` digits uniformly,
    so an end site keeps the digits of ``x0`` at positions >= R and has
    uniform digits below R, R being the largest rank among the walk's
    Poisson(horizon) jumps (0 if none).  One generator draws, as arrays,
    the jump counts, all ranks (walk-major) and one offset below nu**R
    per walk (digit by digit where nu**R >= 2**62).  The output is
    fixed by ``(seed, n_samples)``; it matches :func:`sample_walk` in
    law, not draw for draw.

    Returns
    -------
    end_sites : list[int]
    jump_ranks : np.ndarray of int
    """
    if x0 < 0 or horizon < 0 or n_samples < 0:
        raise DomainError("x0, horizon and n_samples must be nonnegative")
    _check_horizon(horizon, n_samples)
    nu = params.nu
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.poisson(horizon, n_samples)
    ranks = rng.geometric(1.0 - params.p, counts.sum())
    r_max = np.zeros(n_samples, dtype=np.int64)
    np.maximum.at(r_max, np.repeat(np.arange(n_samples), counts), ranks)
    small = r_max * math.log2(nu) < 62
    offsets = np.zeros(n_samples, dtype=object)
    offsets[small] = rng.integers(0, nu ** r_max[small])
    for i in np.flatnonzero(~small):
        offsets[i] = _uniform_below(rng, nu, int(r_max[i]))
    scale = np.array([nu**r for r in range(r_max.max(initial=0) + 1)],
                     dtype=object)[r_max]
    ends = (int(x0) // scale) * scale + offsets
    return ends.tolist(), ranks
