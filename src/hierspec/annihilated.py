"""The walk annihilated at a marked site: resolvent, kernel, time integrals.

Killing the walk at a single site x0 is a rank-one modification of the
resolvent.  With r = d(x0, x) >= 1 and the finite sum

    Rt_lam(r) = -1/((lam + p**(r-1)) nu**r)
                - (1-1/nu) sum_{s=0}^{r-1} 1/((lam + p**s) nu**s)

(= R_lam(x0,x) - R_lam(x,x)), the annihilated diagonal resolvent is
R1_lam(x,x) = -2 Rt_lam(r) - Rt_lam(r)**2 / R_lam(x,x); at x0 the kernel
vanishes.  As lam -> 0, R1 tends to a(r) = -2 Rt_0(r) when R_lam(x,x)
diverges (p*nu <= 1); in the transient regime -Rt_0**2/R_0 stays.

R1 is a Stieltjes function, R1(lam) = sum c/(lam + mu), over atoms at
mu = p**s (s <= r-2) of weight (1-1/nu) nu**-s, one at p**(r-1) of
weight nu**(1-r) (nu-2)/(nu-1), and in each gap (p**(j+1), p**j) the
zero mu_j of the free resolvent R(-mu), of weight Rt(-mu_j)**2/-R'(-mu_j);
sum c = 1 and sum c/mu = R1(0).  For t >= 1 the kernel diagonal
p1(t,x,x) is the certified sum of c e**(-mu t) over it, and
int_T^inf t**-gamma p1 dt that of c mu**(gamma-1) Gamma(1-gamma, mu T).
For t < 1, p1 is a Krylov exponential of the x0-deleted operator on a
finite volume (boundary leak ~ p**depth * t).
"""

import math
from functools import lru_cache
from itertools import count

import numpy as np

from .errors import CertificationError, DomainError, SpectrumProximityError
from .closedform import (SECTOR_ANGLE, _MIN_DIST, _atom, _first, _last_index,
                         _left_out, _moment, _points, _result, _sum_atoms,
                         resolvent, resolvent_zero)
from .hierops import VolumeGrid, apply_laplacian, expm_action
from .lattice import LatticeParams


def _check_r(r: int):
    if r < 1:
        raise DomainError("annihilated-walk quantities need r = d(x0,x) >= 1; "
                          "at x0 they vanish identically")


def _certify(what: str, points, bound, tol: float):
    """Raise CertificationError where ``bound`` exceeds ``tol``, naming
    the first of ``points`` concerned."""
    failed = bound > tol
    if np.any(failed):
        raise CertificationError(f"{what}={_first(points, failed)}: bound "
                                 f"{_first(bound, failed):.3g} exceeds "
                                 f"{tol:.3g}")


def _require_sector_off_atoms(params: LatticeParams, lam, r: int):
    """Reject lam outside the sector and lam within _MIN_DIST of -p**s,
    s < r, naming the first such point; ``lam`` as from ``_points``."""
    outside = ((abs(np.arctan2(lam.imag, lam.real)) > SECTOR_ANGLE + 1e-12)
               & (lam != 0))
    if np.any(outside):
        raise DomainError(f"lam = {_first(lam, outside)} outside the sector "
                          "|arg| <= 3*pi/4")
    for s in range(r):
        close = abs(lam + params.p**s) < _MIN_DIST
        if np.any(close):
            raise SpectrumProximityError(
                f"lam = {_first(lam, close)} within {_MIN_DIST} of -p**{s}")


def _pole_sum(params: LatticeParams, den, last, head=0.0):
    """head + sum_{s <= last} w_s / den(p**s), element by element."""
    return _sum_atoms(params, lambda s, loc, w: w / den(loc), 0, last, head)


def _tilde(params: LatticeParams, den, r: int):
    """Rt_lam(r) for den(loc) = lam + loc."""
    return -_pole_sum(params, den, r - 1,
                      params.nu ** -r / den(params.p ** (r - 1)))


def resolvent_tilde(params: LatticeParams, lam, r: int):
    """Rt_lam(r) = R_lam(x0, x) - R_lam(x, x); a finite sum, lam=0 allowed.
    ``lam`` may be an array; it divides in complex arithmetic, and adding
    0.0 turns the -0.0 imaginary part of a real lam into +0.0."""
    _check_r(r)
    lam = _points(lam)
    _require_sector_off_atoms(params, lam, r)
    return _result(_tilde(params, lambda loc: lam + 0j + loc, r) + 0.0,
                   complex)


def a_coefficient(params: LatticeParams, r: int) -> float:
    """a(r) = -2 Rt_0(r), the lam -> 0 limit of R1 when R_lam blows up."""
    return -2.0 * resolvent_tilde(params, 0.0, r).real


def annihilated_resolvent_zero(params: LatticeParams, r: int) -> float:
    """lam -> 0 limit of the annihilated diagonal resolvent.

    Equals a(r) for p*nu <= 1; in the transient regime the finite
    Green function keeps the rank-one correction alive:
    a(r) - Rt_0(r)**2 / R_0(x,x).
    """
    _check_r(r)
    tilde0 = resolvent_tilde(params, 0.0, r).real
    value = -2.0 * tilde0
    if params.p * params.nu > 1.0:
        value -= tilde0**2 / resolvent_zero(params, 0)
    return value


def resolvent_annihilated(params: LatticeParams, lam, r: int):
    """Diagonal resolvent of the x0-killed walk at distance r from x0
    (R_lam(x,x) certified to 1e-14); ``lam`` may be an array.  Real
    lam > 0 finishes -2 Rt - Rt**2/R in real arithmetic, as Python's
    complex division does; numpy's rounds differently."""
    _check_r(r)
    lam = _points(lam)
    tilde = np.asarray(resolvent_tilde(params, lam, r))
    diag = np.asarray(resolvent(params, lam, 0))
    a, d = tilde.real, diag.real
    real = (lam.imag == 0.0) & (lam.real > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # branch not taken
        value = np.where(real, -2.0 * a - a * a / d,
                         -2.0 * tilde - tilde * tilde / diag)
    return _result(value[()], complex)


# ---------------------------------------------------------------------------
# small-t path: Krylov exponential of the deleted operator on a finite volume


def _default_depth(params: LatticeParams, r: int) -> int:
    by_size = max(2, round(math.log(16384) / math.log(params.nu)))
    return max(r + 2, by_size)


@lru_cache(maxsize=64)
def _deleted_expm_setup(nu: int, p: float, r: int, depth: int):
    params = LatticeParams(nu, p)
    grid = VolumeGrid(params, depth)
    x = nu ** (r - 1)  # first site at distance exactly r from x0 = 0

    def matvec(v):
        w = v.copy()
        w[0] = 0.0
        out = apply_laplacian(w, grid, mode="fast")
        out[0] = 0.0
        return out

    v0 = np.zeros(grid.n_sites)
    v0[x] = 1.0
    return matvec, v0, x


KRYLOV_TOL = 1e-11  # rounding allowed a Krylov p1 value outside [0, 1]


def p1_small_t(params: LatticeParams, ts, r: int) -> np.ndarray:
    """p1(t,x,x) from the deleted operator on the finite volume of depth
    max(r + 2, about log_nu 16384), vectorized in t.

    Accuracy is limited by the boundary leak ~ p**depth * t, which is
    why this path serves only small t.  All t share one Krylov basis.
    A value outside [0, 1] by more than the rounding allowance
    ``KRYLOV_TOL`` raises :class:`CertificationError`; within it the
    value is returned as computed.
    """
    _check_r(r)
    matvec, v0, x = _deleted_expm_setup(params.nu, params.p, r,
                                        _default_depth(params, r))
    ts_arr = np.atleast_1d(np.asarray(ts, dtype=float))
    vals = expm_action(matvec, v0, ts_arr)[:, x]
    _certify("p1 outside [0, 1] at t", ts_arr, np.maximum(vals - 1.0, -vals),
             KRYLOV_TOL)
    return vals if np.ndim(ts) else float(vals[0])


# ---------------------------------------------------------------------------
# the kernel and its time integrals: certified sums over the spectral measure

_ROUNDING = 1e-14  # relative rounding allowance of a sum over the measure
_TOL = 1e-10  # certified absolute error of p1_diag and p1_tail_integral


@lru_cache(maxsize=64)
def _measure(params: LatticeParams, r: int, tail_weight: float = 1e-40):
    """(mu, c, tail): the measure's atoms and roots mu_j, j < J, weights, and
    tail >= sum_{j >= J} c_j, below tail_weight unless p**(J+2) < 1e-280.

    For j >= r, |Rt(-mu_j)| <= |Rt(0)| / (1 - p**(j-r+1)); as R(-mu_j) = 0,
    Cauchy-Schwarz over the atoms s > j gives -R'(-mu_j) >= nu**(j+1) P_j**2,
    P_j = sum_{s <= j} w_s / p**s.  These bounds b_j on c_j shrink by 1/nu
    per step, so sum_{j >= J} c_j <= b_J nu/(nu-1).  A root is solved for
    y = mu_j - p**(j+1) (atom j+1 then gives -y exactly; y/mu_j falls like
    (p nu)**-j when transient) by bisecting all gaps at once, geometrically
    while a bracket spans a factor 4, with one array pass per step.  Atoms
    past j+1+K add < 2**-60 of atom j+1's share at the end of the gap.
    """
    nu, p = params.nu, params.p
    coeff = 1.0 - 1.0 / nu
    tilde0 = -resolvent_tilde(params, 0.0, r).real
    big_p = 0.0
    for n_roots in count():
        loc, w = _atom(params, n_roots)
        big_p += w / loc
        tail = ((tilde0 / ((1.0 - p ** (n_roots - r + 1)) * big_p)) ** 2
                * float(nu) ** -n_roots / (nu - 1.0)) if n_roots >= r else 1.0
        if tail <= tail_weight or p ** (n_roots + 2) < 1e-280:
            break
    locs = np.array([_atom(params, s)[0] for s in range(n_roots + 1)])
    base, hi = locs[1:], -np.diff(locs)
    lo = np.full(n_roots, np.finfo(float).tiny)
    last = np.arange(n_roots) + 1 + _last_index(
        0, (1.0 / (p * coeff), 1.0 / nu, 2.0**-60))
    with np.errstate(divide="ignore"):  # a midpoint may round onto the gap end
        while True:  # every open bracket shrinks, down to adjacent floats
            mid = np.where(hi > 4.0 * lo, np.sqrt(lo) * np.sqrt(hi),
                           (lo + hi) / 2.0)
            if np.all((mid <= lo) | (mid >= hi)):
                break
            up = _pole_sum(params, lambda loc: (loc - base) - mid, last) > 0.0
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    y = (lo + hi) / 2.0
    with np.errstate(over="ignore"):  # far atoms' (d/y)**2 may overflow to inf
        slope = _pole_sum(params, lambda loc: (((loc - base) - y) / y) ** 2,
                          last)  # y**2 * -R'(-mu), which does not underflow
    mu = np.concatenate([locs[:r], base + y])
    c = np.concatenate([coeff * float(nu) ** -np.arange(r - 1),
                        [nu ** (1.0 - r) * (nu - 2.0) / (nu - 1.0)],
                        (_tilde(params, lambda loc: (loc - base) - y, r) * y)
                        ** 2 / slope])
    mu.flags.writeable = c.flags.writeable = False
    return mu, c, tail


def p1_diag(params: LatticeParams, t, r: int):
    """Annihilated-kernel diagonal p1(t, x, x) at distance r from x0.

    ``t`` may be an array (the result is then an array, else a float).
    t >= 1 sums c e**(-mu t) over the spectral measure, one row of
    (points x roots) per t; the roots left out add at most their weight
    tail, so the error is <= tail + rounding and CertificationError,
    naming the first t concerned, is raised when that exceeds ``_TOL``
    = 1e-10.  All t < 1 go to one :func:`p1_small_t` call (error
    ~ p**depth * t).
    """
    _check_r(r)
    ts = np.atleast_1d(_points(t))
    if np.any(ts < 0):
        raise DomainError("time must be nonnegative")
    small = ts < 1.0
    value = np.empty(ts.shape)
    if small.any():
        value[small] = p1_small_t(params, ts[small], r)
    if not small.all():
        mu, c, tail = _measure(params, r, 1e-40)  # _measure_integral's key
        big = ts[~small]
        value[~small] = np.sum(c * np.exp(-np.multiply.outer(big, mu)),
                               axis=-1)  # pairwise, as a 1-d np.sum
        _certify("p1 at t", big, tail + _ROUNDING * value[~small], _TOL)
    return value if np.ndim(t) else float(value[0])


def _measure_integral(params: LatticeParams, T: float, gamma: float, r: int,
                      tol: float) -> float:
    """int_T^inf t**-gamma p1 dt over the measure, certified to ``tol``
    (relative for gamma > 0).  The roots left out weigh <= tail and hold
    <= tail_mu of sum c/mu = R1(0), so by Hoelder M(e) = tail**(1+e)
    tail_mu**-e in :func:`_left_out`'s k M(e) (tail is kept
    <= 1e-16**(1/gamma) for gamma < 1).  For gamma = 0 their part is
    taken at T = 0, the missing mass R1(0) - sum c/mu, error <= T tail.
    """
    deep = 1e-16 ** (1.0 / gamma) if 0.0 < gamma < 1.0 else 1.0
    mu, c, tail = _measure(params, r, min(1e-40, max(deep, 1e-300)))
    value = _moment(mu, c, c / mu if gamma == 0.0 else c * mu ** (gamma - 1.0),
                    T, gamma)
    full = annihilated_resolvent_zero(params, r)
    missing = full - float(np.sum(c / mu))
    if gamma == 0.0:
        value += missing
        bound = T * tail + _ROUNDING * full
    else:
        e, k = _left_out(T, gamma, params.s_h)
        tail_mu = abs(missing) + _ROUNDING * full
        bound = _ROUNDING * value + k * tail ** (1.0 + e) * tail_mu**-e
        tol *= value
    _certify(f"int_T^inf t**-{gamma} p1 dt at T", T, bound, tol)
    return value


@lru_cache(maxsize=65536)
def p1_tail_integral(params: LatticeParams, T: float, r: int) -> float:
    """int_T^inf p1(t, x, x) dt, certified to ``_TOL`` = 1e-10.

    T = 0 is the exact lam -> 0 resolvent limit (equal to
    a(r) = -2 Rt_0(r) when s_h < 2); T > 0 sums (c/mu) e**(-mu T) over
    the spectral measure.  Results are memoized: potential sweeps hit the
    same (T, r) pair once per shell of equal V.
    """
    _check_r(r)
    if T == 0.0:
        return annihilated_resolvent_zero(params, r)
    return _measure_integral(params, T, 0.0, r, _TOL)


@lru_cache(maxsize=65536)
def p1_weighted_tail_integral(params: LatticeParams, T: float, gamma: float,
                              r: int) -> float:
    """int_T^inf t**(-gamma) p1(t, x, x) dt for gamma > 0.

    The sum of c mu**(gamma-1) Gamma(1-gamma, mu T) over the spectral
    measure, certified to 1e-12 relative.  gamma >= 1 needs T > 0: at
    T = 0 the integrand is not integrable and
    :class:`DivergentIntegralError` is raised, as for the free walk.
    """
    _check_r(r)
    if gamma <= 0:
        raise DomainError("gamma must be positive; use p1_tail_integral")
    return _measure_integral(params, T, gamma, r, 1e-12)
