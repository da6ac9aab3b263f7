"""Seeded job lists for the three benchmark workloads.

A job is a plain dict: ``{"name", "kind", ...}``.  ``kind == "cli"``
jobs carry an ``argv`` for ``hierspec.cli.main`` (the worker appends
``--output``); the other kinds name a library call that has no CLI
entry.  The seed only jitters values (grid end points, couplings,
potential heights, sample seeds) inside narrow ranges, so every seed
asks for the same amount of work and the same code paths.  Every input
is chosen so that no job is expected to fail.
"""

import math
import random

WORKLOADS = ("free-walk", "killed-walk", "finite-volume")

#: Spans that must record calls on each workload; a traced run that
#: sees zero calls on one of them fails instead of reporting zeros.
EXPECTED_SPANS = {
    "free-walk": (
        "cli.main", "closedform.heat_kernel", "closedform.heat_profile",
        "closedform.resolvent", "closedform.green_tail_integral",
        "lattice.sample_end_sites"),
    "killed-walk": (
        "cli.main", "bounds.bound_report", "annihilated.p1_diag",
        "annihilated.p1_small_t", "annihilated.p1_tail_integral",
        "annihilated.p1_weighted_tail_integral",
        "annihilated.resolvent_annihilated", "closedform.resolvent",
        "closedform.green_tail_integral", "hierops.expm_action",
        "hierops.apply_laplacian", "hierops.assemble_dense",
        "schrodinger.positive_spectrum", "linalg.eigvalsh"),
    "finite-volume": (
        "cli.main", "hierops.assemble_dense", "hierops.dense_spectrum",
        "hierops.lanczos_extreme", "hierops.apply_laplacian",
        "hierops.HaarBasis.forward", "hierops.HaarBasis.inverse",
        "linalg.eigvalsh", "schrodinger.positive_spectrum",
        "schrodinger.count_above_threshold",
        "schrodinger.secular_eigenvalue",
        "schrodinger.volume_coupling_threshold"),
}


def _jitter(rng: random.Random, value: float, share: float = 0.05) -> float:
    """``value`` scaled by a uniform factor in [1 - share, 1 + share].

    The shares are small on purpose: a seed must not change how much
    work a job list asks for, only the values it is asked about.
    """
    return value * (1.0 + share * (2.0 * rng.random() - 1.0))


def _grid(lo: float, hi: float, count: int) -> str:
    """A CLI grid spec; geometric between the two positive end points."""
    return f"{lo!r}:{hi!r}:{count}"


def _points(lo: float, hi: float, count: int) -> list:
    """The same geometric grid as explicit values."""
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**k for k in range(count)]


def _cli(name: str, argv: list, column: str) -> dict:
    """CLI job; ``column`` names the value column the self-check corrupts."""
    return {"name": name, "kind": "cli", "argv": [str(a) for a in argv],
            "column": column}


def _free_walk(rng: random.Random) -> list:
    transient, recurrent = (4, 0.5), (2, 0.25)
    jobs = [_cli("heat-profile", [
        "heat", "--nu", 4, "--p", 0.5, "--profile",
        "--t", _grid(_jitter(rng, 1.5), _jitter(rng, 1e5), 20000)],
        "profile")]
    for nu, p in (transient, recurrent):
        r = rng.randrange(0, 4)
        jobs.append(_cli(f"heat-{nu}-r{r}", [
            "heat", "--nu", nu, "--p", p, "--r", r,
            "--t", _grid(_jitter(rng, 0.015), _jitter(rng, 1e3), 10000)],
            "kernel"))
        # r = 0 so the output can be checked by the functional equation
        jobs.append(_cli(f"resolvent-{nu}", [
            "resolvent", "--nu", nu, "--p", p, "--r", 0,
            "--lam", _grid(_jitter(rng, 2e-3), _jitter(rng, 80.0), 10000)],
            "value"))
    for (nu, p), gammas in ((transient, (0.0, 0.8, 1.5)),
                            (recurrent, (0.8, 1.5))):
        for gamma in gammas:
            jobs.append({"name": f"green-tail-{nu}-g{gamma}",
                         "kind": "green_tail", "nu": nu, "p": p,
                         "gamma": gamma,
                         "T": _points(_jitter(rng, 0.2), _jitter(rng, 500.0),
                                      6)})
    for nu, p in (transient, recurrent):
        jobs.append({"name": f"walks-{nu}", "kind": "end_sites", "nu": nu,
                     "p": p, "horizon": _jitter(rng, 5.0, 0.02),
                     "n": 8000, "seed": rng.randrange(2**31)})
    return jobs


def _killed_walk(rng: random.Random) -> list:
    common = ["--nu", 2, "--p", 0.25]
    # the first potential fills the quadrature caches up to T = sigma / min V,
    # so its height sets the cost: it moves by 2% at most.  Radius 4 (not
    # the 6 of the acceptance sweep) keeps a job list near 8 s, so that a
    # run holds enough workers for a steady median.  Heights up to 3.2 keep
    # every T = sigma / V above 1, where all T share one cached [0, 1] head.
    thetas = [_jitter(rng, th, 0.02) for th in (0.8, 1.6, 3.2)]
    jobs = [_cli("bounds", [
        "bounds", *common, "--depth", 9, "--radius", 4, "--beta", 3.0,
        "--a", 1.0, "--sigma", 1.0, "--gamma", 0.8,
        "--thetas", ",".join(repr(t) for t in thetas)], "actual")]
    r = rng.randrange(1, 4)
    jobs.append(_cli(f"p1-contour-r{r}", [
        "annihilated", *common, "--mode", "p1", "--r", r,
        "--t", _grid(_jitter(rng, 1.2), _jitter(rng, 700.0), 150)], "p1"))
    small_t = _points(_jitter(rng, 0.05), _jitter(rng, 0.9), 6)
    jobs.append(_cli("p1-krylov-r1", [
        "annihilated", *common, "--mode", "p1", "--r", 1,
        "--t", ",".join(repr(t) for t in small_t)], "p1"))
    r = rng.randrange(1, 4)
    lower = _points(_jitter(rng, 0.3), _jitter(rng, 300.0), 30)
    jobs.append(_cli(f"tail-r{r}", [
        "annihilated", *common, "--mode", "tail", "--r", r,
        "--t", ",".join(["0"] + [repr(t) for t in lower])], "tail_integral"))
    jobs.append(_cli("resolvent-killed-r2", [
        "annihilated", *common, "--mode", "resolvent", "--r", 2,
        "--lam", _grid(_jitter(rng, 0.25), _jitter(rng, 20.0), 200)],
        "value"))
    return jobs


def _finite_volume(rng: random.Random) -> list:
    jobs = []
    for nu, depth in ((2, 12), (3, 7), (4, 5)):
        jobs.append(_cli(f"spectrum-dense-{nu}^{depth}", [
            "spectrum", "--nu", nu, "--p", round(_jitter(rng, 0.45), 6),
            "--depth", depth, "--method", "dense"], "eigenvalue"))
    jobs.append(_cli("positive-dense-2^11", [
        "schrodinger", "--nu", 2, "--p", 0.25, "--depth", 11,
        "--powerlaw", f"{_jitter(rng, 3.0)!r},3,6", "--gammas", "0.5,1",
        "--method", "dense"], "value"))
    # heights stay 3% from values whose bound-state count is stable, so the
    # number of Lanczos pairs asked for does not depend on the seed
    for p, depth, theta, beta in ((0.5, 16, 5.0, 2), (0.25, 17, 3.0, 3),
                                  (0.25, 18, 3.0, 3)):
        jobs.append(_cli(f"positive-iterative-2^{depth}", [
            "schrodinger", "--nu", 2, "--p", p, "--depth", depth,
            "--powerlaw", f"{_jitter(rng, theta, 0.03)!r},{beta},6",
            "--gammas", "0.5,1"], "value"))
    for nu, p, depth in ((2, round(_jitter(rng, 0.45), 6), 14), (4, 0.5, 8)):
        jobs.append({"name": f"threshold-{nu}^{depth}", "kind": "threshold",
                     "nu": nu, "p": p, "depth": depth})
    for nu, p, depth in ((2, round(_jitter(rng, 0.4), 6), 10), (4, 0.5, 5)):
        coupling = _jitter(rng, 2.0, 0.25) * critical_coupling(nu, p, depth)
        jobs.append({"name": f"secular-{nu}^{depth}", "kind": "secular",
                     "nu": nu, "p": p, "depth": depth,
                     "site": rng.randrange(nu**depth), "coupling": coupling})
    return jobs


def job_list(workload: str, seed: int) -> list:
    """The seeded job list of one workload, in the order it runs."""
    build = {"free-walk": _free_walk, "killed-walk": _killed_walk,
             "finite-volume": _finite_volume}[workload]
    return build(random.Random(f"{workload}:{seed}"))


def critical_coupling(nu: int, p: float, depth: int) -> float:
    """1 / G_0(x, x) on the depth-N volume, from the eigenvalue weights:
    rank-k detail vectors carry weight nu**-(k-1) - nu**-k at a site and
    eigenvalue -p**(k-1); the constant vector nu**-N and -b_N."""
    b_n = p**depth * (nu - 1.0) / (nu - p)
    green = nu ** (-depth) / b_n
    green += math.fsum((nu ** (-(k - 1)) - nu ** (-k)) / p ** (k - 1)
                       for k in range(1, depth + 1))
    return 1.0 / green
