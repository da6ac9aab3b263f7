"""Closed-form spectral functions of the infinite hierarchical lattice.

Everything here is an explicit series over the pure-point spectrum
{-p**k} with geometric weights, evaluated with certified tails:

* integrated density of states  N(lam) = nu**(-k0(lam)),
  k0(lam) = min{k >= 0 : p**k < lam};
* heat kernel
  p(t, r=0)  = (1-1/nu) sum_s exp(-p**s t) nu**(-s),
  p(t, r>=1) = -exp(-p**(r-1) t) nu**(-r)
               + (1-1/nu) sum_{s>=r} exp(-p**s t) nu**(-s);
* resolvent (Laplace transform of the heat kernel), same structure with
  1/(lam + p**s) in place of exp(-p**s t), valid on the sector
  |arg lam| <= 3*pi/4 away from the spectrum;
* Green function at lam=0 (transient case p*nu > 1 only);
* theta function and spectral zeta
  zeta(z) = (1 - 1/nu) p**z nu / (p**z nu - 1),
  poles where p**z nu = 1, i.e. z = s_h/2 + 2*pi*i*k/ln(1/p);
* tail integrals int_T^inf t**(-gamma) p(t,x,x) dt, the weights of the
  bound-state counting functionals.

Heat-kernel and resolvent series are summed by :func:`_sum_atoms` over a
measure's (location, weight) rows, here :func:`_atom_table`, tail
integrals by :func:`_moment`, up to the last index at which a geometric
tail bound is below the requested tolerance (:class:`CertificationError`
past ``_MAX_TERMS`` terms); both walks bound what a tail integral leaves
out by one rule, :func:`_left_out`.  Functions of t or lam also take an
ndarray; an array call equals scalar calls element by element, bit for
bit: both add the rows by one running sum in order.
"""

import cmath
import math
from functools import lru_cache, reduce
from itertools import count, takewhile

import numpy as np
from scipy.special import gammaincc

from .errors import (CertificationError, DivergentIntegralError, DomainError,
                     SpectrumProximityError)
from .lattice import LatticeParams

SECTOR_ANGLE = 3.0 * math.pi / 4.0
_MIN_DIST = 1e-13  # least distance of a resolvent's lam from an atom -p**s
_MAX_TERMS = 100_000
_MAX_ROWS = 10**6  # most points a grid, or poles a list, may hold


@lru_cache(maxsize=16)
def _atom_table(params: LatticeParams) -> np.ndarray:
    """Rows (p**s, (1-1/nu) nu**(-s)) of every atom s of nonzero weight,
    cached per lattice; the atoms past them add exact zeros to any sum."""
    rows = ((params.p**s, (1.0 - 1.0 / params.nu) * float(params.nu) ** -s)
            for s in count())
    return np.array(list(takewhile(lambda row: row[1] > 0.0, rows)))


def _head_weight(nu: int, r: int) -> float:
    """nu**-r, the weight of a distance-r series' head atom p**(r-1),
    rounded from the exact nu**r (libm pow may round it differently
    between builds); 0.0 once nu**r passes the float range."""
    return 1.0 / float(nu**r) if r * math.log2(nu) < 1024 else 0.0


def _points(x):
    """Points as a float or complex ndarray or scalar.  Complex scalars
    become numpy complex: numpy divides complex numbers unlike Python,
    and scalar calls must round as array calls do."""
    if isinstance(x, np.ndarray):
        return x.astype(np.result_type(x.dtype, np.float64), copy=False)
    if isinstance(x, (complex, np.complexfloating)):
        return np.complex128(x)
    return float(x)


def _result(value, kind=float):
    """``value`` as a Python scalar when it is one, else the array."""
    return value if isinstance(value, np.ndarray) else kind(value)


def _last_index(first, *bounds):
    """Least s >= first with scale * ratio**(s+1) <= tol for one of the
    (scale, ratio, tol) ``bounds``, 0 < ratio < 1, element by element;
    CertificationError if s - first exceeds _MAX_TERMS.  A scale / tol
    that overflows certifies nothing, and the 1e-9 slack can only add one
    term, where rounding could leave the bound a hair above tol."""
    with np.errstate(over="ignore"):
        n = reduce(np.minimum, [
            np.floor(np.log(scale / tol + 1e-300) / -math.log(ratio) + 1e-9)
            for scale, ratio, tol in bounds])
    if np.any(~(n - first <= _MAX_TERMS)):
        raise CertificationError(
            f"series needs more than {_MAX_TERMS} terms to certify")
    return np.maximum(n, first).astype(int)


def _sum_atoms(atoms, term, first: int, last, total=0.0):
    """total + sum over rows s = first..last of ``atoms``, a measure's
    (location, weight) rows up to their end, of term(location, weight).

    ``last`` is an int, or an int array giving each point its own last
    index; ``last`` or ``total`` has the points' shape.  Terms come in
    (rows, points) blocks of at most 2**13 elements (or one row), zero
    past a point's last index, and a running sum adds them in order of s:
    an array call gives the bits of scalar calls, point by point.
    """
    points = np.broadcast(last, total)
    atoms = atoms[first:int(np.max(last, initial=first - 1)) + 1]
    s, loc, w = (v.reshape((-1,) + (1,) * points.ndim)
                 for v in (np.arange(first, first + len(atoms)), *atoms.T))
    rows = max(1, 2**13 // max(1, points.size))
    for b in (slice(i, i + rows) for i in range(0, len(atoms), rows)):
        terms = term(loc[b], w[b]) * (s[b] <= last)
        terms[0] += total  # accumulate strides across rows: short rows only
        total = (np.add.accumulate(terms)[-1] if rows > points.size
                 else reduce(np.add, terms))
    return total


def _secular_roots(atoms, base, gap, last, rho: float, side):
    """Per bracket, the y in (0, gap) where -side (f(y) - rho) turns
    positive, f(y) = sum_{s <= last} w_s / ((loc_s - base) + side y) over
    the rows ``atoms``: a root mu = base - side y of sum w/(loc - mu) = rho,
    side -1 in a gap above the pole at base, +1 below the lowest pole
    (``gap`` past the root).  The value rounds monotonically in y, so the
    search ends on the adjacent floats across its sign change, and the
    midpoint lo/2 + hi/2 rounds onto one of them (as (lo + hi)/2 does,
    but with no overflow near the largest float).  Newton steps in 1/y
    (the pole at base is linear there) start at the midpoints; a step
    moves at least one float, and one that leaves its open bracket becomes
    the bracket's midpoint, geometric while it spans a factor 4."""
    side, last = (np.broadcast_to(v, np.shape(base)) for v in (side, last))
    lo, hi = np.full(len(base), np.finfo(float).tiny), np.array(gap)
    i, x = np.arange(len(base)), lo / 2.0 + hi / 2.0
    # far atoms' (d/x)**2 may overflow to inf; 1 + y f/(y**2 f') may be 0
    with np.errstate(over="ignore", divide="ignore"):
        while i.size:
            b, s, x1 = base[None, i], side[None, i], x[None]  # f, slope

            def term(loc, w):
                d = (loc - b) + s * x1
                return np.concatenate([w / d, w / (d / x1) ** 2], axis=-2)

            f, slope = _sum_atoms(atoms, term, 0, last[i],
                                  np.zeros((2, len(i))))
            value = -s[0] * (f - rho)
            up = value > 0.0  # narrow the brackets at x by the sign
            hi[i[up]], lo[i[~up]] = x[up], x[~up]
            z = x / (1.0 + value * x / slope)
            z = np.where(z == x, np.nextafter(x, np.where(up, -1.0, 1.0)), z)
            low, high = lo[i], hi[i]
            mid = np.where(high > 4.0 * low, np.sqrt(low) * np.sqrt(high),
                           low / 2.0 + high / 2.0)
            z = np.where((low < z) & (z < high), z, mid)
            open_ = (low < z) & (z < high)
            i, x = i[open_], z[open_]
    return lo / 2.0 + hi / 2.0


def _k0(params: LatticeParams, lam: float) -> int:
    """min{k >= 0 : p**k < lam}, robust at the atom boundaries: it is
    floor(ln lam / ln p) + 1, up to one step of rounding undone here."""
    if lam > 1.0:
        return 0
    p = params.p
    k = max(0, math.floor(math.log(lam) / math.log(p)) + 1)
    if p**k >= lam:
        k += 1
    elif k > 0 and p ** (k - 1) < lam:
        k -= 1
    return k


def ids(params: LatticeParams, lam: float) -> float:
    """Integrated density of states N(lam) = nu**(-k0(lam)); 1 for lam > 1.

    A pure-point staircase with jumps at lam = p**k (the inequality in
    k0 is strict, so the value at an atom is the limit from below).
    """
    if lam <= 0:
        raise DomainError("ids needs lam > 0")
    return float(params.nu) ** (-_k0(params, lam))


def ids_profile(params: LatticeParams, lam: float) -> float:
    """Scaling profile F(lam) = N(lam) * lam**(-s_h/2).

    Bounded and multiplicatively periodic in lam with period p; equals
    nu**(z - k0(lam)) at z = ln(lam)/ln(p), the form taken where
    lam**(-s_h/2) overflows or N(lam) underflows to 0.
    """
    value = ids(params, lam)
    if value > 0.0:
        try:
            return value * lam ** (-params.s_h / 2.0)
        except OverflowError:
            pass
    z = math.log(lam) / math.log(params.p)
    return float(params.nu) ** (z - _k0(params, lam))


# ---------------------------------------------------------------------------
# heat kernel


def _heat_term(t):
    return lambda loc, w: w * np.exp(-loc * t)


def heat_kernel(params: LatticeParams, t, r: int = 0, tol: float = 1e-14):
    """Return probability p(t, x, y) for d(x,y) = r, certified to ``tol``.

    The series is truncated with a first-order tail: for s > S every
    exp(-p**s t) lies in [1 - p**s t, 1], so the remaining mass lies in
    [A - B, A] with the geometric sums A, B known exactly; adding
    A - min(A, B)/2 leaves a certified error min(A, B)/2 (and makes
    small-t values, t = 0 in particular, exact).  S is the least index
    where A <= tol or B <= 2 tol: at large t, where B grows with t, the
    sum stops on A.  ``t`` may be an array.
    """
    t = _points(t)
    if np.any(t < 0):
        raise DomainError("time must be nonnegative")
    if r < 0:
        raise DomainError("distance must be nonnegative")
    nu, p = params.nu, params.p
    head = -np.exp(-p ** (r - 1) * t) * _head_weight(nu, r) if r else 0.0
    # past atom S: A = nu**-(S+1), B = gap_scale (p/nu)**(S+1)
    gap_scale = (1.0 - 1.0 / nu) * t * nu / (nu - p)
    last = _last_index(r, (1.0, 1.0 / nu, tol),
                       (gap_scale, p / nu, 2.0 * tol))
    value = _sum_atoms(_atom_table(params), _heat_term(t), r, last, head)
    tail_hi = np.power(float(nu), -(last + 1.0))
    tail_gap = gap_scale * np.power(p / nu, last + 1.0)
    value = value + (tail_hi - np.minimum(tail_gap, tail_hi) / 2.0)
    if np.any(value < -10.0 * tol):
        raise CertificationError("heat kernel evaluated negative")
    return _result(value)


def heat_profile(params: LatticeParams, t, tol: float = 1e-12):
    """F(t) = t**(s_h/2) p(t, x, x); log-periodic for large t (period 1/p).

    The kernel itself decays like t**(-s_h/2), so its series tolerance
    is scaled down by that factor to keep the *profile* accurate to
    ``tol``.  Where that tolerance falls below 1e-300, or t**(s_h/2)
    overflows, the profile is refused with :class:`CertificationError`
    naming the first such t.  ``t`` may be an array.
    """
    t = _points(t)
    if np.any(t <= 0):
        raise DomainError("heat profile needs t > 0")
    with np.errstate(over="ignore"):
        scale = np.power(t, params.s_h / 2.0)
    kernel_tol = tol / scale
    refused = ~(kernel_tol >= 1e-300)
    if np.any(refused):
        raise CertificationError(
            f"heat profile at t = {_first(t, refused)}: tol / t**(s_h/2) "
            "is below 1e-300")
    return _result(scale * heat_kernel(params, t, 0, tol=kernel_tol))


def heat_exterior_mass(params: LatticeParams, t, volume_rank: int):
    """Probability the walk sits outside the rank-R cube of its start,
    certified to 1e-14.

    Closed form obtained by summing p(t, r) over the shells r > R
    (nu**(r-1) (nu-1) sites per shell):

        1 - (1-1/nu) sum_{j>=0} nu**(-j) exp(-p**(R+j) t).
    """
    if volume_rank < 0:
        raise DomainError("volume rank must be nonnegative")
    t = _points(t)
    if np.any(t < 0):
        raise DomainError("time must be nonnegative")
    nu, p = params.nu, params.p
    # the terms past shell j weigh nu**-(j+1) in all
    last = _last_index(0, (1.0, 1.0 / nu, 1e-14))
    shells = np.column_stack([p ** (volume_rank + np.arange(last + 1)),
                              _atom_table(params)[:last + 1, 1]])
    inside = _sum_atoms(shells, _heat_term(t), 0, last, np.zeros(np.shape(t)))
    return _result(1.0 - inside)


# ---------------------------------------------------------------------------
# resolvent


def _first(x, mask):
    """The first element of ``x`` where ``mask`` holds (scalars too)."""
    return np.asarray(x)[np.asarray(mask)][0]


def _require_resolvent_domain(params: LatticeParams, lam):
    """Reject lam = 0, lam outside the sector and lam within _MIN_DIST of
    an atom -p**k.  On the sector every atom is at least |lam|/sqrt(2)
    away; their infimum distance is |lam| (they accumulate at 0) and
    only the two atoms around -Re lam can be nearer."""
    if np.any(lam == 0):
        raise DomainError("lam = 0 is the spectral accumulation point; "
                          "use resolvent_zero for the transient Green function")
    outside = abs(np.arctan2(lam.imag, lam.real)) > SECTOR_ANGLE + 1e-12
    if np.any(outside):
        raise DomainError(f"lam = {_first(lam, outside)} outside the sector "
                          "|arg| <= 3*pi/4")
    if not np.any(abs(lam) < math.sqrt(2.0) * _MIN_DIST):
        return
    depth = np.log(np.maximum(-lam.real, 1e-300)) / math.log(params.p)
    k = np.maximum(np.floor(depth), 0.0)
    close = np.minimum.reduce([abs(lam), abs(lam + params.p**k),
                               abs(lam + params.p ** (k + 1))]) < _MIN_DIST
    if np.any(close):
        raise SpectrumProximityError(
            f"lam = {_first(lam, close)} within {_MIN_DIST} of the spectrum")


def resolvent(params: LatticeParams, lam, r: int = 0, tol: float = 1e-14):
    """Resolvent kernel R_lam(x, y) for d(x,y) = r, certified to ``tol``.

    Valid on the sector |arg lam| <= 3*pi/4 excluding the spectrum
    {-p**k} and 0.  Real lam (> 0) is summed in real arithmetic and
    gives a zero imaginary part.
    """
    if r < 0:
        raise DomainError("distance must be nonnegative")
    lam = _points(lam)
    _require_resolvent_domain(params, lam)
    nu, p = params.nu, params.p
    # on the sector |lam + p**s| >= |lam| / sqrt(2), so the terms past
    # atom S add up to at most sqrt(2)/|lam| nu**-(S+1)
    head = -_head_weight(nu, r) / (lam + p ** (r - 1)) if r else 0.0
    last = _last_index(r, (math.sqrt(2.0) / abs(lam), 1.0 / nu, tol))
    value = _sum_atoms(_atom_table(params), lambda loc, w: w / (lam + loc), r,
                       last, head)
    return _result(value + 0j, complex)


def resolvent_zero(params: LatticeParams, r: int = 0) -> float:
    """Green function R_0(x, y) in the transient regime p*nu > 1.

    Diagonal (r=0): p (nu-1) / (p nu - 1).  Off-diagonal:
    (1-p) / ((p nu)**(r-1) (p nu - 1)), which decays like
    c / rho**(s_h - 2) with c = p nu (1-p) / (p nu - 1).
    """
    pnu = params.p * params.nu
    if pnu <= 1.0:
        raise DivergentIntegralError(
            f"p*nu = {pnu} <= 1: recurrent walk, no finite Green function")
    if r < 0:
        raise DomainError("distance must be nonnegative")
    if r == 0:
        return params.p * (params.nu - 1.0) / (pnu - 1.0)
    return (1.0 - params.p) / (pnu - 1.0) * pnu ** (1 - r)


def resolvent_zero_constant(params: LatticeParams) -> float:
    """c = p nu (1-p)/(p nu - 1) in R_0 ~ c / rho**(s_h-2)."""
    pnu = params.p * params.nu
    if pnu <= 1.0:
        raise DivergentIntegralError("asymptotic constant needs p*nu > 1")
    return pnu * (1.0 - params.p) / (pnu - 1.0)


def resolvent_expansion(params: LatticeParams,
                        lam: float) -> tuple[float, float, float]:
    """Small-lam structure of the diagonal resolvent when s_h < 2.

    R_lam(x,x) = lam**(-alpha) u(ln lam / ln p) + c0 + O(lam) with
    c0 = p (nu-1)/(p nu - 1) (negative here since p*nu < 1) and u
    positive, periodic with period one.  Returns

        (c0, u_est, drift_bound)

    where u_est = lam**alpha (R_lam - c0) estimates the profile (R_lam
    certified to 1e-14) and
    drift_bound = p**2 (nu-1) lam**(1+alpha) bounds
    |u_est(p lam) - u_est(lam)| exactly (the functional equation
    R_{p lam} - R_lam/(p nu) = (nu-1)/(nu (p lam + 1)) makes the drift
    equal to p**2 (1-nu) lam**(1+alpha) / (p lam + 1)).
    """
    if params.s_h >= 2.0:
        raise DomainError("expansion requires s_h < 2 (p*nu < 1)")
    if not (0.0 < lam < 1.0):
        raise DomainError("expansion point must satisfy 0 < lam < 1")
    nu, p = params.nu, params.p
    c0 = p * (nu - 1.0) / (p * nu - 1.0)
    alpha = params.alpha
    r_diag = resolvent(params, lam, 0).real
    u_est = lam**alpha * (r_diag - c0)
    bound = p**2 * (nu - 1.0) * lam ** (1.0 + alpha)
    return c0, u_est, bound


# ---------------------------------------------------------------------------
# theta and spectral zeta


def theta(params: LatticeParams, t):
    """theta(t) = integral of exp(-lam t) against the density of states.

    Coincides with the diagonal heat kernel p(t, x, x), certified to 1e-14.
    """
    return heat_kernel(params, t, 0)


def zeta_spectral(params: LatticeParams, z: complex) -> complex:
    """zeta(z) = (1-1/nu) p**z nu/(p**z nu - 1), by analytic continuation.

    Rejected within 1e-13 of a pole (p**z nu = 1).  Where p**z nu
    overflows, zeta = (1-1/nu)/(1 - p**-z/nu), which tends to 1 - 1/nu.
    """
    nu, p = params.nu, params.p
    log_pz = complex(z) * math.log(p)
    try:
        w = nu * cmath.exp(log_pz)
    except OverflowError:
        w = math.inf
    if cmath.isinf(w):
        return (1.0 - 1.0 / nu) / (1.0 - cmath.exp(-log_pz) / nu)
    if abs(w - 1.0) < 1e-13:
        raise SpectrumProximityError(f"z = {z} is (numerically) a zeta pole")
    return (1.0 - 1.0 / nu) * w / (w - 1.0)


def zeta_poles(params: LatticeParams, count: int) -> list[complex]:
    """First ``count`` poles of the zeta function: solutions of p**z nu = 1.

    z_k = s_h/2 + 2*pi*i*k/ln(1/p), k = 0, 1, ...  (spacing 2*pi, as
    forced by the defining equation).  At most ``_MAX_ROWS`` poles.
    """
    if not 0 <= count <= _MAX_ROWS:
        raise DomainError(f"count must lie in [0, {_MAX_ROWS:g}], got {count}")
    step = 2.0 * math.pi / math.log(1.0 / params.p)
    return [complex(params.s_h / 2.0, step * k) for k in range(count)]


# ---------------------------------------------------------------------------
# heat-kernel tail integrals


def _scaled_upper_gamma(a: float, x, log_x=None):
    """g = x**-a Gamma(a, x), a < 1, x > 0 (or an array), to ~1e-13: an atom
    mu adds T**(1-gamma) g(1-gamma, mu T) to int_T^inf t**-gamma e**-mu t dt
    and g <= 1/(-a) for a < 0.  Legendre's fraction for x >= 1, or
    x**-a (Gamma(a, 1) + int_x^1 t**(a-1) e**-t dt) termwise, which stay
    accurate next to a = 0, -1, ... as well; there ``log_x`` gives ln x
    where x = mu T underflows.  :func:`_moment` takes a > 0 to gammaincc."""
    if isinstance(x, np.ndarray):
        return np.vectorize(_scaled_upper_gamma, otypes=[float])(a, x, log_x)
    if x < 1.0:
        # term n of -x**-a int_x^1 is x**min(n,-a) expm1(e ln x)/e, e = |n+a|
        log_x = math.log(x) if log_x is None or x >= 2**-1022 else log_x
        rest = sum((-1) ** n / math.factorial(n)
                   * math.exp(min(n, -a) * log_x)
                   * (math.expm1(abs(a + n) * log_x) / abs(a + n) if a + n
                      else log_x)
                   for n in range(int(-a) + 25))
        return math.exp(-a * log_x) * _upper_gamma_at_one(a) - rest
    # e**x g(a, x) = 1/(x+1-a - 1(1-a)/(x+3-a - 2(2-a)/...)) by the
    # modified Lentz method; the denominators stay positive for a < 1
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b
    value = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        value *= c * d
        if abs(c * d - 1.0) < 3e-16:
            return math.exp(-x) * value
    raise CertificationError(f"Gamma({a}, {x}): fraction did not converge")


@lru_cache(maxsize=64)
def _upper_gamma_at_one(a: float) -> float:
    return _scaled_upper_gamma(a, 1.0)


def _moment(mu, c, c_mu, T: float, gamma: float, log_mu=None) -> float:
    """int_T^inf t**-gamma sum c e**(-mu t) dt for atoms mu of weight c,
    either walk's; c_mu = c mu**(gamma-1) and log_mu = ln mu (np.log(mu)
    if None) stay finite where mu underflows.  Rejects T < 0, and T = 0
    at gamma >= 1."""
    if T < 0:
        raise DomainError("lower limit must be nonnegative")
    if T == 0.0 and gamma >= 1.0:
        raise DivergentIntegralError(
            "t**(-gamma) p(t,x,x) is not integrable at t=0 for gamma >= 1")
    a = 1.0 - gamma
    if a <= 0:
        log_x = (np.log(mu) if log_mu is None else log_mu) + math.log(T)
        return T**a * float(np.sum(c * _scaled_upper_gamma(a, mu * T, log_x)))
    if gamma == 0.0:
        return float(np.sum(c_mu * np.exp(-mu * T)))
    return math.gamma(a) * float(np.sum(c_mu * gammaincc(a, mu * T)))


def _left_out(T: float, gamma: float, s_h: float) -> tuple[float, float]:
    """(e, k): atoms a measure leaves out add at most k M(e) to
    int_T^inf t**-gamma sum c e**(-mu t) dt, M(e) >= sum c mu**e over them,
    as t**-gamma <= t**-g T**(g-gamma) for t >= T, g <= gamma, and
    int_0^inf t**-g e**(-mu t) dt = Gamma(1-g) mu**(g-1) for g < 1: g is
    gamma below 1 and max(1/2, 1 - s_h/4) at 1; above 1, e**(-mu t) <= 1."""
    if gamma > 1.0:
        return 0.0, T ** (1.0 - gamma) / (gamma - 1.0)
    g = gamma if gamma < 1.0 else max(0.5, 1.0 - s_h / 4.0)
    return g - 1.0, math.gamma(1.0 - g) * T ** (g - gamma)


def green_tail_divergent(params: LatticeParams, gamma: float) -> bool:
    """True when int_T^inf t**(-gamma) p(t,x,x) dt diverges for T > 0."""
    if gamma == 0.0:
        return params.p * params.nu <= 1.0
    return gamma + params.s_h / 2.0 <= 1.0


@lru_cache(maxsize=65536)
def green_tail_integral(params: LatticeParams, T: float,
                        gamma: float = 0.0) -> float:
    """int_T^inf t**(-gamma) p(t, x, x) dt, termwise with its tail
    certified to 1e-12.

    gamma = 0 requires the transient regime p*nu > 1 and evaluates

        (1-1/nu) sum_s exp(-p**s T) / (p nu)**s

    (equal to the Green function R_0(x,x) at T=0).  gamma > 0 requires
    gamma + s_h/2 > 1, and T = 0 also gamma < 1; the terms are those of
    :func:`_moment`.  Divergent combinations raise
    :class:`DivergentIntegralError`.  The atoms s > S leave out
    M(e) = (1-1/nu) q**(S+1)/(1-q), q = p**e/nu; the sum stops at the
    least S where :func:`_left_out`'s k M(e) <= 1e-12.
    """
    if gamma < 0:
        raise DomainError("gamma must be nonnegative")
    nu, p = params.nu, params.p
    coeff = 1.0 - 1.0 / nu
    if green_tail_divergent(params, gamma):
        raise DivergentIntegralError(
            f"divergent integral: gamma={gamma}, s_h={params.s_h:.6g} "
            f"(p*nu={p * nu:.6g})")
    if T <= 0.0 and gamma > 0.0:
        # T = 0: term s is atom 0's moment times q**s, q = p**(gamma-1)/nu,
        # as Gamma(1-gamma, 0) = Gamma(1-gamma); _moment rejects the rest
        return _moment(0.0, coeff, coeff, T, gamma) / (
            1.0 - p ** (gamma - 1.0) / nu)
    e, k = _left_out(T, gamma, params.s_h)
    q = p**e / nu
    last = _last_index(0, (k * coeff / (1.0 - q), q, 1e-12))
    return green_tail_partial_sum(params, T, gamma, last + 1)


def green_tail_partial_sum(params: LatticeParams, T: float, gamma: float,
                           n_terms: int) -> float:
    """Partial sum of the tail-integral series, no convergence required.

    Used to exhibit divergence in the recurrent regime: for
    p*nu <= 1, gamma = 0 the partial sums grow without bound.
    """
    s = np.arange(n_terms)
    coeff = 1.0 - 1.0 / params.nu
    q = params.p ** (gamma - 1.0) / params.nu  # q**s stays finite past p**s
    return _moment(params.p**s, coeff * float(params.nu) ** -s, coeff * q**s,
                   T, gamma, s * math.log(params.p))
