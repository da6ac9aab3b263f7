"""Bound-state counting functionals and the comparison harness.

Each functional is the explicit sum/integral from one of the counting
estimates, evaluated *without* its unspecified constant; the harness
compares it to the exact count N0 (or power sum S_gamma) and reports
the fitted constant actual/functional.  Theorems only prove such a
constant exists, so finiteness and stability of the fitted constants
across potential sweeps is the testable content.

:func:`functional` evaluates one theorem tag.  Six tags are tail
forms, a head plus a sum over the support of V of a power of V times
a walk's time integral W_g(T) = int_T^inf t**(-g) p(t,x,x) dt at
T = sigma/V(x):

    free walk    killed walk          head (free | killed)  summand
    clr          clr-general          #{V>a} | 1 + #{V>a}   V W_0, V <= a only
    lt           lt-general           0 | Lam**gamma        V**(1+gamma) W_0
    lt-weighted  lt-general-weighted  0 | Lam**gamma        c V W_gamma

with c = 2 gamma Gamma(gamma), W = I for the free walk and W = J for
the walk killed at x0.  I_0 needs the transient regime p*nu > 1 and
I_g (g > 0) needs g + s_h/2 > 1; J_g is finite for every s_h > 0, and
its sums skip x0, where the kernel vanishes.  T = 0 needs g < 1.  Lam
is the largest eigenvalue of L + V.  Divergent weights flag the report
instead of producing a number.

Three tags are Bargmann forms, 1 + #{V >= 1} + sum_{V<1} w(V(x), rho)
with rho = rho(x0, x):

* classic (``bargmann``, s_h < 2):  w = V rho**(2-s_h)
* uniform (``bargmann-uniform``, any s_h):
      w = V ([1+rho]**(2-s_h) - 1)/((1/sqrt(p))**(2-s_h) - 1)
      (the s_h = 2 limit replaces the ratio by ln(1+rho)/ln(1/sqrt(p)))
* refined (``bargmann-refined``, s_h < 2):
      w = V**(2-s_h/2) [1+rho**2]**(2-s_h)
"""

import math
from dataclasses import dataclass, field as dataclass_field

from scipy.special import gamma as gamma_fn

from .annihilated import p1_tail_integral, p1_weighted_tail_integral
from .closedform import green_tail_integral
from .errors import DivergentIntegralError, DomainError
from .hierops import VolumeGrid
from .lattice import LatticeParams, Site, hier_distance, rho_of_distance
from .schrodinger import Potential, positive_spectrum

THEOREM_TAGS = ("clr", "lt", "lt-weighted", "clr-general", "lt-general",
                "lt-general-weighted", "bargmann", "bargmann-uniform",
                "bargmann-refined")


@dataclass
class BoundReport:
    """One functional evaluated against one potential.

    ``functional`` is the full right-hand side with the unspecified
    constant set to one (``None`` when divergent); ``actual`` is the
    exact N0 or S_gamma; ``fitted_constant = actual / functional`` when
    the functional is finite and positive.  ``flags`` carries
    divergence and applicability notes rather than silent zeros.
    """

    theorem: str
    params: LatticeParams
    a: float | None = None
    sigma: float | None = None
    gamma: float | None = None
    functional: float | None = None
    components: dict = dataclass_field(default_factory=dict)
    actual: float | None = None
    fitted_constant: float | None = None
    flags: list = dataclass_field(default_factory=list)

    def finalize(self, actual: float) -> "BoundReport":
        self.actual = actual
        if self.functional is not None and self.functional > 0:
            self.fitted_constant = actual / self.functional
        return self


#: tail forms, theorem -> (walk killed at the origin?, form)
_TAIL_FORMS = {"clr": (False, "clr"), "lt": (False, "lt"),
               "lt-weighted": (False, "lt-weighted"),
               "clr-general": (True, "clr"), "lt-general": (True, "lt"),
               "lt-general-weighted": (True, "lt-weighted")}
_BARGMANN_TAGS = ("bargmann", "bargmann-uniform", "bargmann-refined")
#: the Bargmann forms that need s_h < 2
_SUBCRITICAL_TAGS = ("bargmann", "bargmann-refined")


def _check_request(theorems, sigma: float, gamma: float):
    """Reject bad arguments before any eigensolve is paid for."""
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    for tag in theorems:
        if tag not in _TAIL_FORMS and tag not in _BARGMANN_TAGS:
            raise DomainError(f"unknown theorem tag {tag!r}")
        if tag in _TAIL_FORMS and _TAIL_FORMS[tag][1] != "clr" and gamma <= 0:
            raise DomainError("gamma must be positive")


def _bargmann_term(params: LatticeParams, theorem: str):
    """(V(x), rho(x0,x)) -> summand of one Bargmann form."""
    s_h = params.s_h
    e = 2.0 - s_h
    if theorem in _SUBCRITICAL_TAGS and s_h >= 2.0:
        raise DomainError(f"{theorem} needs s_h < 2 (s_h={s_h:.6g})")
    if theorem == "bargmann":
        return lambda v, rho: v * rho**e
    if theorem == "bargmann-refined":
        return lambda v, rho: v ** (2.0 - s_h / 2.0) * (1.0 + rho**2) ** e
    sqrtp_inv = 1.0 / math.sqrt(params.p)
    if s_h == 2.0:
        return lambda v, rho: v * math.log(1.0 + rho) / math.log(sqrtp_inv)
    denom = sqrtp_inv**e - 1.0
    return lambda v, rho: v * ((1.0 + rho) ** e - 1.0) / denom


def _tail_weight(params: LatticeParams, killed: bool, g: float, x0: Site):
    """(T, x) -> int_T^inf t**(-g) p(t,x,x) dt of the free or killed walk."""
    if not killed:
        return lambda T, site: green_tail_integral(params, T, g)

    def weight(T, site):
        r = hier_distance(x0, site, params.nu)
        if g == 0.0:
            return p1_tail_integral(params, T, r)
        return p1_weighted_tail_integral(params, T, g, r)
    return weight


def functional(grid: VolumeGrid, potential: Potential, theorem: str,
               a: float = 1.0, sigma: float = 0.0, gamma: float = 1.0,
               largest_eigenvalue: float | None = None) -> BoundReport:
    """Evaluate the functional tagged ``theorem`` (see the module table).

    Counting forms use ``a`` (tail forms) and ignore ``gamma``;
    power-sum forms need ``gamma > 0``.  The killed walk is killed at
    ``potential.origin``.  ``largest_eigenvalue`` (Lam) is computed from
    the exact positive spectrum when a general LT form needs it and it
    is not supplied.  A divergent weight flags the report.
    """
    _check_request((theorem,), sigma, gamma)
    params, x0 = grid.params, potential.origin
    sites = {s: v for s, v in potential.support.items() if v > 0.0}
    if theorem in _BARGMANN_TAGS:
        term = _bargmann_term(params, theorem)
        head = 1.0 + sum(1 for v in sites.values() if v >= 1.0)
        total = sum(term(v, rho_of_distance(hier_distance(x0, s, params.nu),
                                            params))
                    for s, v in sites.items() if v < 1.0)
        report = BoundReport(theorem, params, functional=head + total)
        report.components = {"head": head, "weighted_sum": total}
        return report
    killed, form = _TAIL_FORMS[theorem]
    if form == "clr":
        report = BoundReport(theorem, params, a=a, sigma=sigma)
        cardinality = sum(1 for v in sites.values() if v > a)
        report.components["cardinality"] = float(cardinality)
        head = 1.0 + cardinality if killed else cardinality
        sites = {s: v for s, v in sites.items() if v <= a}
    else:
        report = BoundReport(theorem, params, sigma=sigma, gamma=gamma)
        head = 0
        if killed:
            if largest_eigenvalue is None:
                largest_eigenvalue = positive_spectrum(grid, potential).largest
            head = largest_eigenvalue**gamma if largest_eigenvalue > 0 else 0.0
            report.components["lambda_term"] = head
    if killed:
        sites.pop(x0, None)  # the killed walk's kernel vanishes at x0
    power = 1.0 + gamma if form == "lt" else 1.0
    weight = _tail_weight(params, killed,
                          gamma if form == "lt-weighted" else 0.0, x0)
    try:
        total = sum(v**power * weight(sigma / v, s) for s, v in sites.items())
    except DivergentIntegralError as exc:
        report.flags.append(f"divergent: {exc}")
        return report
    if form == "lt-weighted":
        total *= 2.0 * gamma * gamma_fn(gamma)
    report.components["weighted_sum"] = total
    report.functional = head + total
    return report


def evaluate_functionals(grid: VolumeGrid, potential: Potential,
                         theorems=THEOREM_TAGS, a: float = 1.0,
                         sigma: float = 0.0,
                         gamma: float = 1.0) -> list[BoundReport]:
    """All requested functionals vs the exact counts for one potential.

    Counting functionals compare to N0, power-sum functionals (the ones
    carrying a ``gamma``) to S_gamma.  The classic and refined Bargmann
    forms are left out when s_h >= 2.
    """
    _check_request(theorems, sigma, gamma)
    exact = positive_spectrum(grid, potential)
    n0 = float(exact.count)
    s_gamma = exact.sum_gamma(float(gamma)) if gamma else 0.0
    reports = []
    for tag in theorems:
        if tag in _SUBCRITICAL_TAGS and grid.params.s_h >= 2.0:
            continue
        rep = functional(grid, potential, tag, a=a, sigma=sigma, gamma=gamma,
                         largest_eigenvalue=exact.largest)
        reports.append(rep.finalize(n0 if rep.gamma is None else s_gamma))
    return reports


def bound_report(grid: VolumeGrid, potentials, thetas, betas,
                 theorems=THEOREM_TAGS, a: float = 1.0, sigma: float = 0.0,
                 gamma: float = 1.0) -> list[dict]:
    """Sweep a potential family; one row per (potential, theorem).

    ``thetas``/``betas`` label each potential in its rows.  Rows are
    emitted in deterministic order: lexicographic in (theta, beta,
    theorem).  The CLI writes them as CSV or JSON.
    """
    rows = []
    for pot, theta, beta in zip(potentials, thetas, betas):
        for rep in evaluate_functionals(grid, pot, theorems=theorems, a=a,
                                        sigma=sigma, gamma=gamma):
            rows.append({
                "theorem": rep.theorem,
                "a": rep.a,
                "sigma": rep.sigma,
                "gamma": rep.gamma,
                "theta": theta,
                "beta": beta,
                "functional": rep.functional,
                "actual": rep.actual,
                "fitted_constant": rep.fitted_constant,
                "flags": ";".join(rep.flags),
            })
    rows.sort(key=lambda row: (row["theta"], row["beta"], row["theorem"]))
    return rows


REPORT_COLUMNS = ("theorem", "a", "sigma", "gamma", "theta", "beta",
                  "functional", "actual", "fitted_constant", "flags")


def fitted_constant_range(rows, theorem: str):
    """(min, max) fitted constant over the sweep for one theorem tag."""
    values = [r["fitted_constant"] for r in rows
              if r["theorem"] == theorem and r["fitted_constant"] is not None
              and r["actual"] and r["actual"] > 0]
    if not values:
        return None, None
    return min(values), max(values)
