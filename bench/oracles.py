"""Correctness oracles for benchmark jobs, run outside the timed region.

``check(job, output)`` returns ``None`` when the output is right and a
one-line reason otherwise.  The references are written here from the
model's definitions and do not call the code under test, except where
a check is stated as agreement between two library paths:

* free heat kernel and resolvent: their defining series summed far past
  double precision;
* heat kernel and the killed-walk kernel ``p1``: matrix exponentials of
  the depth-8 dense and x0-deleted dense matrices, within the boundary
  leak ``p**8 t + 1e-8``; the killed-walk resolvent: the depth-10
  deleted matrix;
* the resolvent functional equation
  ``R(p lam) - R(lam)/(p nu) = (nu-1)/(nu (p lam + 1))``;
* heat tail integrals: the termwise incomplete-gamma series through
  ``scipy.special``;
* killed-walk tails: ``J(0) = a(r)`` and non-increasing in T;
* dense spectra: the closed-form Dirichlet spectrum within 1e-10;
* bound states: Birman-Schwinger counts and eigenvalue equations from
  the distance-indexed Green table, and dense counts against the
  library's ``count_above_threshold``;
* secular eigenvalues: the top eigenvalue of the dense matrix;
* rank-one thresholds: ``1 / G_0(x, x)`` summed over the eigenvalue
  weights (``workloads.critical_coupling``);
* Monte Carlo walks: shell and jump-rank frequencies within 5 standard
  errors of their exact laws.

``corrupt(job, output)`` returns a copy with one value changed; the
self-check in ``run.py`` uses it to show that the checks catch it.
"""

import csv
import io
import math

import numpy as np
import scipy.linalg
import scipy.special

from workloads import critical_coupling

_TERMS = 240  # series terms; nu**-240 is far below double precision


# --- parsing -------------------------------------------------------------


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _table(text):
    """(header, rows) of a hierspec CSV output, '#' metadata dropped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _columns(text, *names):
    header, rows = _table(text)
    idx = [header.index(n) for n in names]
    return [np.array([float(row[i]) for row in rows]) for i in idx]


def _float_grid(spec):
    """The CLI's grid rule: 'a,b' lists or 'lo:hi:n' (geometric if lo>0)."""
    if ":" in spec:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        return np.geomspace(lo, hi, n) if lo > 0 else np.linspace(lo, hi, n)
    return np.array([float(x) for x in spec.split(",")])


# --- references from the definitions --------------------------------------


def heat_series(nu, p, t, r):
    """p(t, x, y) at d(x,y) = r from its defining series."""
    t = np.asarray(t, dtype=float)[:, None]
    s = np.arange(r, r + _TERMS)[None, :]
    value = (1.0 - 1.0 / nu) * np.sum(np.exp(-(p**s) * t) * float(nu) ** -s,
                                      axis=1)
    if r >= 1:
        value -= np.exp(-(p ** (r - 1)) * t[:, 0]) * float(nu) ** -r
    return value


def resolvent_series(nu, p, lam, r=0):
    lam = np.asarray(lam, dtype=float)[:, None]
    s = np.arange(r, r + _TERMS)[None, :]
    value = (1.0 - 1.0 / nu) * np.sum(1.0 / ((lam + p**s) * float(nu) ** s),
                                      axis=1)
    if r >= 1:
        value -= 1.0 / ((lam[:, 0] + p ** (r - 1)) * float(nu) ** r)
    return value


def _upper_gamma(a, x):
    """Gamma(a, x) for a < 1, x > 0: scipy for a > 0, exp1 for a = 0,
    one downward recurrence step for -1 < a < 0."""
    if a > 0:
        return scipy.special.gamma(a) * scipy.special.gammaincc(a, x)
    if a == 0:
        return scipy.special.exp1(x)
    return (_upper_gamma(a + 1.0, x) - x**a * np.exp(-x)) / a


def green_tail_series(nu, p, T, gamma):
    """int_T^inf t**-gamma p(t,x,x) dt, summed term by term."""
    s = np.arange(_TERMS)
    coeff = 1.0 - 1.0 / nu
    if gamma == 0.0:
        return coeff * math.fsum(np.exp(-(p**s) * T) * (p * nu) ** -s)
    terms = (float(nu) ** -s * p ** (s * (gamma - 1.0))
             * _upper_gamma(1.0 - gamma, p**s * T))
    return coeff * math.fsum(terms)


def a_coefficient(nu, p, r):
    """a(r) = -2 Rt_0(r), the lam -> 0 killed-walk resolvent limit."""
    tilde = -1.0 / (p ** (r - 1) * nu**r)
    tilde -= (1.0 - 1.0 / nu) * math.fsum(1.0 / (p * nu) ** s for s in range(r))
    return -2.0 * tilde


def dense_matrix(nu, p, depth):
    """L on the depth-N volume from M[x,y] = (1-p) p**(d-1)/(nu**(d-1)(nu-p))."""
    n = nu**depth
    dist = np.zeros((n, n), dtype=np.int64)
    q = np.arange(n)
    for _ in range(depth):
        dist += q[:, None] != q[None, :]
        q = q // nu
    m = (1.0 - p) * (p / nu) ** (dist - 1.0) / (nu - p)
    np.fill_diagonal(m, (1.0 - p) / (nu - p) - 1.0)
    return m


def closed_spectrum(nu, p, depth):
    """Eigenvalues of -L with multiplicity, descending."""
    values = [np.full(nu ** (depth - 1 - k) * (nu - 1), p**k)
              for k in range(depth)]
    values.append([p**depth * (nu - 1.0) / (nu - p)])
    return np.concatenate(values)


def powerlaw(nu, p, theta, beta, radius):
    """Sites 0..nu**radius-1 and V = theta (1 + rho(0, x))**-beta."""
    sites = np.arange(nu**radius)
    dist = np.array([_distance(int(x), nu) for x in sites])
    return sites, theta * (p ** (-dist / 2.0)) ** (-beta)


def _distance(x, nu):
    """Hierarchical distance from the origin: the number of base-nu digits."""
    d = 0
    while x:
        x //= nu
        d += 1
    return d


def green_table(nu, p, depth, tau):
    """(tau - L)^-1 (x, y) as a function of d(x, y) = 0..N on the volume."""
    d = np.arange(depth + 1)
    table = np.full(depth + 1,
                    nu ** -float(depth) / (tau + p**depth * (nu - 1.0) / (nu - p)))
    for k in range(1, depth + 1):
        weight = ((d <= k - 1) * nu ** -(k - 1.0) - (d <= k) * nu ** -float(k))
        table += weight / (tau + p ** (k - 1))
    return table


def _pairwise_distance(sites, nu):
    a, b = sites[:, None].copy(), sites[None, :].copy()
    dist = np.zeros((len(sites), len(sites)), dtype=np.int64)
    while np.any(a != b):
        dist += a != b
        a, b = a // nu, b // nu
    return dist


def birman_schwinger(nu, p, depth, sites, values, tau):
    """Eigenvalues of V^1/2 (tau - L)^-1 V^1/2 on the support of V."""
    root = np.sqrt(values)
    k = green_table(nu, p, depth, tau)[_pairwise_distance(sites, nu)]
    return np.linalg.eigvalsh(root[:, None] * k * root[None, :])


# --- checks ----------------------------------------------------------------


def _close(got, want, atol, rtol=0.0):
    """Reason string for the worst violation of |got - want| <= atol + rtol|want|."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(np.isfinite(got)) or np.any(excess > 0):
        i = int(np.nanargmax(np.where(np.isfinite(got), excess, np.inf)))
        return f"entry {i}: got {got.flat[i]!r}, want {want.flat[i]!r}"
    return None


def _expm_entry(matrix, index, ts):
    """exp(t M)[i, i] for every t, by the eigendecomposition of M."""
    w, q = np.linalg.eigh(matrix)
    return np.exp(np.outer(ts, w)) @ (q[index] ** 2)


def _check_heat(argv, text):
    nu, p = int(_option(argv, "--nu")), float(_option(argv, "--p"))
    grid = _float_grid(_option(argv, "--t"))
    if "--profile" in argv:
        t, profile = _columns(text, "t", "profile")
        if len(t) != len(grid):
            return f"{len(t)} rows for {len(grid)} grid points"
        s_h = 2.0 * math.log(nu) / math.log(1.0 / p)
        return _close(profile, t ** (s_h / 2.0) * heat_series(nu, p, t, 0),
                      1e-10)
    r = int(_option(argv, "--r", 0))
    t, kernel = _columns(text, "t", "kernel")
    if len(t) != len(grid):
        return f"{len(t)} rows for {len(grid)} grid points"
    reason = _close(kernel, heat_series(nu, p, t, r), 1e-12)
    if reason or nu != 2:
        return reason
    site = 0 if r == 0 else nu ** (r - 1)
    w, q = np.linalg.eigh(dense_matrix(nu, p, 8))
    exact = np.exp(np.outer(t, w)) @ (q[0] * q[site])
    bad = np.abs(kernel - exact) > p**8 * t + 1e-8
    return f"expm oracle fails at t={t[bad][0]!r}" if bad.any() else None


def _check_resolvent(argv, text):
    nu, p = int(_option(argv, "--nu")), float(_option(argv, "--p"))
    lam, value = _columns(text, "lambda", "value")
    if len(lam) != len(_float_grid(_option(argv, "--lam"))):
        return "row count differs from the grid"
    reason = _close(value, resolvent_series(nu, p, lam), 1e-11, 1e-12)
    if reason:
        return reason
    shifted = resolvent_series(nu, p, p * lam)
    residual = shifted - value / (p * nu) - (nu - 1.0) / (nu * (p * lam + 1.0))
    return _close(residual, np.zeros_like(residual), 1e-11, 0.0)


def _check_annihilated(argv, text):
    nu, p = int(_option(argv, "--nu")), float(_option(argv, "--p"))
    r, mode = int(_option(argv, "--r")), _option(argv, "--mode", "p1")
    site = nu ** (r - 1)  # first site at distance r from x0 = 0
    if mode == "p1":
        t, p1 = _columns(text, "t", "p1")
        if np.any((p1 < 0) | (p1 > 1)):
            return "p1 outside [0, 1]"
        exact = _expm_entry(dense_matrix(nu, p, 8)[1:, 1:], site - 1, t)
        bad = np.abs(p1 - exact) > p**8 * t + 1e-8
        if bad.any():
            return f"deleted-expm oracle fails at t={t[bad][0]!r}"
        if np.any(p1 > heat_series(nu, p, t, 0) + 1e-12):
            return "killed kernel exceeds the free kernel"
        return None
    if mode == "tail":
        lower, tail = _columns(text, "T", "tail_integral")
        if lower[0] != 0.0:
            return "grid does not start at T = 0"
        reason = _close(tail[0], a_coefficient(nu, p, r), 1e-13, 1e-12)
        if reason:
            return f"J(0) != a(r): {reason}"
        if np.any(tail < 0) or np.any(np.diff(tail) > 1e-12 * tail[0]):
            return "tail integral negative or increasing in T"
        return None
    lam, value = _columns(text, "lambda", "value")
    w, q = np.linalg.eigh(dense_matrix(nu, p, 10)[1:, 1:])
    exact = (q[site - 1] ** 2) @ (1.0 / (lam[None, :] - w[:, None]))
    return _close(value, exact, 1e-8)


def _check_spectrum(argv, text):
    nu, p = int(_option(argv, "--nu")), float(_option(argv, "--p"))
    depth = int(_option(argv, "--depth"))
    value, mult = _columns(text, "eigenvalue", "multiplicity")
    if np.any(mult != np.round(mult)) or np.any(mult < 1):
        return "multiplicities are not positive integers"
    expanded = np.repeat(value, mult.astype(np.int64))
    want = np.sort(closed_spectrum(nu, p, depth))[::-1]
    if len(expanded) != len(want):
        return f"{len(expanded)} eigenvalues, want {len(want)}"
    return _close(expanded, want, 1e-10)


def _check_schrodinger(argv, text):
    nu, p = int(_option(argv, "--nu")), float(_option(argv, "--p"))
    depth = int(_option(argv, "--depth"))
    theta, beta, radius = _option(argv, "--powerlaw").split(",")
    header, rows = _table(text)
    values = {name: float(v) for name, v in rows}
    n0 = values["N0"]
    lams = np.array([values[f"lambda_{i}"] for i in range(len(rows))
                     if f"lambda_{i}" in values])
    if n0 != len(lams):
        return f"N0 = {n0!r} but {len(lams)} eigenvalues listed"
    sites, pot = powerlaw(nu, p, float(theta), float(beta), int(radius))
    threshold = 1e-12
    count = int(np.sum(birman_schwinger(nu, p, depth, sites, pot,
                                        threshold) > 1.0))
    if count != n0:
        return f"N0 = {n0!r}, Birman-Schwinger count {count}"
    for lam in lams:
        mu = birman_schwinger(nu, p, depth, sites, pot, lam)
        if np.min(np.abs(mu - 1.0)) > 1e-7:
            return f"lambda = {lam!r} does not solve the eigenvalue equation"
    for gamma in (0.5, 1.0):
        reason = _close(values[f"S_{gamma:g}"], np.sum(lams**gamma), 1e-14,
                        1e-12)
        if reason:
            return f"S_{gamma:g}: {reason}"
    if _option(argv, "--method") == "dense":
        import hierspec
        params = hierspec.LatticeParams(nu, p)
        library = hierspec.count_above_threshold(
            hierspec.VolumeGrid(params, depth),
            hierspec.powerlaw_potential(params, 0, float(theta), float(beta),
                                        int(radius)))
        if library != n0:
            return f"dense N0 = {n0!r}, count_above_threshold {library}"
    return None


_COUNTING = ("clr", "clr-general", "bargmann", "bargmann-uniform",
             "bargmann-refined")
_DIVERGENT_WHEN_RECURRENT = ("clr", "lt")


def _check_bounds(argv, text):
    nu, p = int(_option(argv, "--nu")), float(_option(argv, "--p"))
    depth, radius = int(_option(argv, "--depth")), int(_option(argv, "--radius"))
    beta, gamma = float(_option(argv, "--beta")), float(_option(argv, "--gamma"))
    thetas = _float_grid(_option(argv, "--thetas"))
    header, rows = _table(text)
    rows = [dict(zip(header, row)) for row in rows]
    if len(rows) != 9 * len(thetas):
        return f"{len(rows)} rows for {len(thetas)} potentials"
    matrix = dense_matrix(nu, p, depth)
    recurrent = p * nu <= 1.0
    for theta in thetas:
        sites, pot = powerlaw(nu, p, theta, beta, radius)
        h = matrix.copy()
        h[sites, sites] += pot
        lams = scipy.linalg.eigvalsh(h)
        lams = lams[lams > 1e-12]
        mine = [row for row in rows if float(row["theta"]) == theta]
        if len(mine) != 9:
            return f"theta {theta!r}: {len(mine)} rows"
        for row in mine:
            tag, actual = row["theorem"], float(row["actual"])
            want = len(lams) if tag in _COUNTING else np.sum(lams**gamma)
            if _close(actual, want, 1e-12, 1e-9):
                return f"{tag} at theta {theta!r}: actual {actual!r}, want {want!r}"
            if recurrent and tag in _DIVERGENT_WHEN_RECURRENT:
                if "divergent" not in row["flags"] or row["functional"]:
                    return f"{tag} should be flagged divergent"
                continue
            functional = float(row["functional"])
            if not (math.isfinite(functional) and functional > 0):
                return f"{tag} functional {functional!r}"
            if _close(float(row["fitted_constant"]), actual / functional,
                      0.0, 1e-12):
                return f"{tag} fitted constant != actual / functional"
    return None


def _check_cli(job, text):
    argv = job["argv"]
    command = argv[0]
    return {"heat": _check_heat, "resolvent": _check_resolvent,
            "annihilated": _check_annihilated, "spectrum": _check_spectrum,
            "schrodinger": _check_schrodinger,
            "bounds": _check_bounds}[command](argv, text)


def _within_standard_errors(counts, probs, label, sigmas=5.0):
    """Bins with at least 25 expected hits lie within ``sigmas`` SE."""
    total = counts.sum()
    for i, (count, prob) in enumerate(zip(counts, probs)):
        if total * prob < 25.0:
            continue
        se = math.sqrt(total * prob * (1.0 - prob))
        if abs(count - total * prob) > sigmas * se:
            return (f"{label} {i}: {int(count)} hits, "
                    f"expected {total * prob:.1f} +- {se:.1f}")
    return None


def _check_end_sites(job, output):
    nu, p = job["nu"], job["p"]
    ends = output["ends"]
    if len(ends) != job["n"]:
        return f"{len(ends)} walks, want {job['n']}"
    dist = np.array([_distance(x, nu) for x in ends])
    shells = np.arange(dist.max() + 1)
    probs = np.array([heat_series(nu, p, [job["horizon"]], r)[0]
                      for r in shells])
    probs[1:] *= (nu - 1.0) * float(nu) ** (shells[1:] - 1)
    reason = _within_standard_errors(np.bincount(dist), probs, "shell")
    if reason:
        return reason
    ranks = np.array(output["rank_counts"], dtype=float)
    k = np.arange(len(ranks))
    rank_probs = np.where(k >= 1, (1.0 - p) * p ** (k - 1.0), 0.0)
    return _within_standard_errors(ranks, rank_probs, "jump rank")


def check(job, output):
    """None if ``output`` of ``job`` is correct, else the reason."""
    kind = job["kind"]
    if kind == "cli":
        return _check_cli(job, output)
    if kind == "green_tail":
        want = [green_tail_series(job["nu"], job["p"], t, job["gamma"])
                for t in job["T"]]
        reason = _close(output, want, 1e-12, 1e-9)
        if reason is None and np.any(np.diff(output) > 0):
            reason = "tail integral increases in T"
        return reason
    if kind == "end_sites":
        return _check_end_sites(job, output)
    if kind == "threshold":
        return _close(output, critical_coupling(job["nu"], job["p"],
                                                job["depth"]), 0.0, 1e-10)
    if kind == "secular":
        nu, depth, site = job["nu"], job["depth"], job["site"]
        h = dense_matrix(nu, job["p"], depth)
        h[site, site] += job["coupling"]
        top = scipy.linalg.eigvalsh(h, subset_by_index=[nu**depth - 1] * 2)[0]
        return _close(output, top, 1e-12, 1e-9)
    raise ValueError(f"no oracle for job kind {kind!r}")


def corrupt(job, output):
    """A copy of ``output`` with one checked value changed."""
    if job["kind"] == "cli":
        meta = [ln for ln in output.splitlines() if ln.startswith("#")]
        header, rows = _table(output)
        col = header.index(job["column"])
        rows[0][col] = repr(float(rows[0][col]) * (1.0 + 1e-3) + 1e-9)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows([header] + rows)
        return "".join(ln + "\r\n" for ln in meta) + buf.getvalue()
    if job["kind"] == "green_tail":
        return [output[0] * (1.0 + 1e-3)] + output[1:]
    if job["kind"] == "end_sites":
        return dict(output, ends=[0] * len(output["ends"]))
    return output * (1.0 + 1e-3)
