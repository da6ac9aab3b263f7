"""Command-line front end: evaluate library quantities over grids and
emit bit-stable CSV/JSON tables.

Subcommands: spectrum, ids, heat, resolvent, zeta, annihilated,
schrodinger, bounds, walk, selftest.  Output is CSV (RFC-4180, '.'
decimals, 17 significant digits, CRLF, fixed column order; metadata as
leading '#' comment lines) or JSON (sorted keys, shortest round-trip
float repr, metadata under "meta"), both written by :func:`format_table`.
Identical invocations produce byte-identical files.  Exit codes: 0
success, 1 domain/usage error (one "error:" line on stderr), 2
certification or convergence failure.
"""

import argparse
import csv
import io
import json
import math
import sys
from functools import cache

import numpy as np

from . import __version__
from . import annihilated as ann
from . import closedform as cf
from .bounds import REPORT_COLUMNS, bound_report
from .errors import CertificationError, DomainError
from .hierops import VolumeGrid, dense_spectrum, dirichlet_spectrum
from .lattice import LatticeParams, sample_walk
from .schrodinger import (POSITIVITY_THRESHOLD, Potential, delta_potential,
                          positive_spectrum, potential_from_json,
                          powerlaw_potential)

EXIT_OK, EXIT_DOMAIN, EXIT_CERTIFICATION = 0, 1, 2


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def format_table(columns, rows, meta, fmt) -> str:
    """The table as CSV or JSON text (see the module docstring).

    CSV writes ``meta`` as sorted ``# key=value`` lines, then the header
    and the rows; a ``None`` cell is empty in CSV and ``null`` in JSON.
    """
    if fmt == "json":
        payload = {"meta": meta, "columns": list(columns), "rows": list(rows)}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}={_format_cell(meta[key])}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _emit(args, columns, rows, meta):
    text = format_table(columns, rows, dict(meta, version=__version__),
                        args.format)
    if args.output:
        with open(args.output, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _finite_float(text: str) -> float:
    """The argparse type of every float option: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"want a finite number, got {text!r}")
    return value


def _float_grid(spec: str):
    """Parse 'a,b,c' or 'lo:hi:n' (geometric when lo>0) into finite floats."""
    try:
        if ":" not in spec:
            return [_finite_float(x) for x in spec.split(",")]
        lo, hi, count = spec.split(":")
        lo, hi, count = _finite_float(lo), _finite_float(hi), int(count)
    except (ValueError, argparse.ArgumentTypeError):
        raise DomainError(f"malformed grid {spec!r}: want 'a,b,c' or "
                          f"'lo:hi:n' of finite numbers") from None
    if count < 1:
        raise DomainError("grid needs at least one point")
    if count == 1:
        return [lo]
    if lo > 0 and hi > lo:
        return list(np.geomspace(lo, hi, count))
    return list(np.linspace(lo, hi, count))


#: loosest certified series tolerance a user may request (tighter than
#: this is allowed down to the double-precision floor)
TOL_LOOSEST = 1e-10
TOL_TIGHTEST = 1e-15


def _series_tol(args) -> float:
    tol = getattr(args, "tol", None)
    if tol is None:
        return 1e-14
    if not TOL_TIGHTEST <= tol <= TOL_LOOSEST:
        raise DomainError(
            f"--tol must lie in [{TOL_TIGHTEST:g}, {TOL_LOOSEST:g}]; "
            f"certified tails are not loosened beyond {TOL_LOOSEST:g}")
    return tol


def _params(args) -> LatticeParams:
    return LatticeParams(args.nu, args.p)


def _meta(args, **extra):
    meta = {"nu": args.nu, "p": args.p}
    meta.update(extra)
    return meta


# --- subcommand handlers ---------------------------------------------------


def _cmd_spectrum(args):
    grid = VolumeGrid(_params(args), args.depth)
    summary = (dense_spectrum if args.method == "dense"
               else dirichlet_spectrum)(grid)
    rows = [(val, mult) for val, mult in summary.entries]
    _emit(args, ("eigenvalue", "multiplicity"), rows,
          _meta(args, depth=args.depth, method=args.method,
                provenance=summary.provenance))


def _cmd_ids(args):
    params = _params(args)
    lams = _float_grid(args.lam)
    rows = [(lam, cf.ids(params, lam), cf.ids_profile(params, lam))
            for lam in lams]
    _emit(args, ("lambda", "ids", "profile"), rows, _meta(args))


def _cmd_heat(args):
    params = _params(args)
    ts = _float_grid(args.t)
    tol = _series_tol(args)
    if args.profile:
        values = cf.heat_profile(params, np.array(ts), tol=tol).tolist()
        log_inv_p = math.log(1.0 / params.p)
        rows = [(t, math.log(t) / log_inv_p % 1.0, v)
                for t, v in zip(ts, values)]
        _emit(args, ("t", "log_phase", "profile"), rows,
              _meta(args, mode="profile", tol=tol))
    else:
        values = cf.heat_kernel(params, np.array(ts), args.r, tol=tol).tolist()
        rows = [(t, args.r, v) for t, v in zip(ts, values)]
        _emit(args, ("t", "r", "kernel"), rows, _meta(args, r=args.r, tol=tol))


def _cmd_resolvent(args):
    params = _params(args)
    lams = _float_grid(args.lam)
    tol = _series_tol(args)
    values = cf.resolvent(params, np.array(lams), args.r, tol=tol).real
    rows = [(lam, args.r, v) for lam, v in zip(lams, values.tolist())]
    _emit(args, ("lambda", "r", "value"), rows, _meta(args, r=args.r, tol=tol))


def _cmd_zeta(args):
    params = _params(args)
    if args.mode == "theta":
        if args.t is None:
            raise DomainError("--mode theta needs --t")
        ts = _float_grid(args.t)
        rows = list(zip(ts, cf.theta(params, np.array(ts)).tolist()))
        _emit(args, ("t", "theta"), rows, _meta(args, mode="theta"))
    elif args.mode == "poles":
        rows = [(k, z.real, z.imag)
                for k, z in enumerate(cf.zeta_poles(params, args.count))]
        _emit(args, ("k", "re", "im"), rows, _meta(args, mode="poles"))
    else:
        z = complex(args.z_re, args.z_im)
        value = cf.zeta_spectral(params, z)
        _emit(args, ("z_re", "z_im", "value_re", "value_im"),
              [(z.real, z.imag, value.real, value.imag)],
              _meta(args, mode="zeta"))


def _cmd_annihilated(args):
    params = _params(args)
    # one array call per grid; the tail point by point, as
    # p1_tail_integral memoizes each (T, r)
    fn, option, columns = {
        "p1": (lambda xs: ann.p1_diag(params, np.array(xs), args.r).tolist(),
               "t", ("t", "r", "p1")),
        "resolvent": (lambda xs: ann.resolvent_annihilated(
                          params, np.array(xs), args.r).real.tolist(),
                      "lam", ("lambda", "r", "value")),
        "tail": (lambda xs: [ann.p1_tail_integral(params, x, args.r)
                             for x in xs],
                 "t", ("T", "r", "tail_integral")),
    }[args.mode]
    grid = getattr(args, option)
    if grid is None:
        raise DomainError(f"--mode {args.mode} needs --{option}")
    xs = _float_grid(grid)
    rows = [(x, args.r, v) for x, v in zip(xs, fn(xs))]
    _emit(args, columns, rows, _meta(args, r=args.r, mode=args.mode))


def _load_potential(args, params) -> Potential:
    sources = [s for s in (args.potential, args.delta, args.powerlaw) if s]
    if len(sources) != 1:
        raise DomainError("specify exactly one of --potential/--delta/--powerlaw")
    if args.potential:
        try:
            with open(args.potential) as handle:
                text = handle.read()
        except OSError as exc:
            raise DomainError(f"cannot read --potential: {exc}") from None
        return potential_from_json(text)
    try:
        if args.delta:
            coupling, site = args.delta.split("@")
            coupling, site = float(coupling), int(site)
        else:
            theta, beta, radius = args.powerlaw.split(",")
            theta, beta, radius = float(theta), float(beta), int(radius)
    except ValueError:
        raise DomainError("--delta takes 'c@site' and --powerlaw "
                          "'theta,beta,radius'") from None
    if args.delta:
        return delta_potential(site, coupling)
    _require_radius_within_depth(radius, args.depth)
    return powerlaw_potential(params, 0, theta, beta, radius)


def _require_radius_within_depth(radius: int, depth: int):
    """Refuse a radius past the volume before its nu**radius sites exist."""
    if radius > depth:
        raise DomainError(f"power-law radius {radius} exceeds --depth "
                          f"{depth}: its cube would leave the volume")


def _cmd_schrodinger(args):
    params = _params(args)
    grid = VolumeGrid(params, args.depth)
    potential = _load_potential(args, params)
    gammas = args.gammas.split(",") if args.gammas else []
    try:
        gammas = sorted({float(g) for g in gammas})
    except ValueError:
        raise DomainError(f"--gammas takes a comma list of numbers, got "
                          f"{args.gammas!r}") from None
    report = positive_spectrum(grid, potential, method=args.method)
    rows = [("N0", float(report.count))]
    rows += [(f"S_{g:g}", report.sum_gamma(g)) for g in gammas]
    rows += [(f"lambda_{i}", float(v))
             for i, v in enumerate(report.eigenvalues)]
    _emit(args, ("quantity", "value"), rows,
          _meta(args, depth=args.depth, method=report.method,
                threshold=POSITIVITY_THRESHOLD))


def _cmd_bounds(args):
    params = _params(args)
    grid = VolumeGrid(params, args.depth)
    thetas = _float_grid(args.thetas)
    _require_radius_within_depth(args.radius, args.depth)
    potentials = [powerlaw_potential(params, 0, th, args.beta, args.radius)
                  for th in thetas]
    theorems = tuple(args.theorems.split(","))
    rows = bound_report(grid, potentials, thetas, [args.beta] * len(thetas),
                        theorems=theorems, a=args.a, sigma=args.sigma,
                        gamma=args.gamma)
    table = [[row[c] for c in REPORT_COLUMNS] for row in rows]
    _emit(args, REPORT_COLUMNS, table,
          _meta(args, depth=args.depth, beta=args.beta, radius=args.radius,
                a=args.a, sigma=args.sigma, gamma=args.gamma))


def _cmd_walk(args):
    params = _params(args)
    trajectory = sample_walk(params, args.x0, args.horizon, args.seed)
    rows = list(zip(trajectory.times, [str(s) for s in trajectory.sites]))
    _emit(args, ("time", "site"), rows,
          _meta(args, x0=args.x0, horizon=args.horizon, seed=args.seed,
                generator=trajectory.generator))


def _cmd_selftest(args):
    from .selftest import run_selftest
    failures = run_selftest(verbose=True)
    if failures:
        raise CertificationError(f"{failures} selftest check(s) failed")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as DomainError (subparsers inherit the class)."""

    def error(self, message):
        raise DomainError(message)


@cache  # built on the first main() call, then shared by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hierspec",
        description="Hierarchical-Laplacian spectral toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, depth=False):
        p.add_argument("--nu", type=int, required=True, help="branching factor")
        p.add_argument("--p", type=_finite_float, required=True,
                       help="jump decay in (0,1)")
        if depth:
            p.add_argument("--depth", type=int, required=True,
                           help="finite-volume depth N")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="output path (stdout when omitted)")

    p = sub.add_parser("spectrum", help="finite-volume spectrum of -L")
    common(p, depth=True)
    p.add_argument("--method", choices=("closed", "dense"), default="closed")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("ids", help="integrated density of states")
    common(p)
    p.add_argument("--lam", required=True, help="grid: 'a,b,c' or 'lo:hi:n'")
    p.set_defaults(handler=_cmd_ids)

    p = sub.add_parser("heat", help="heat kernel / log-periodic profile")
    common(p)
    p.add_argument("--t", required=True, help="time grid")
    p.add_argument("--r", type=int, default=0, help="hierarchical distance")
    p.add_argument("--profile", action="store_true",
                   help="emit (t, ln t mod period, t^{s_h/2} p(t)) rows")
    p.add_argument("--tol", type=_finite_float,
                   help="series tolerance override")
    p.set_defaults(handler=_cmd_heat)

    p = sub.add_parser("resolvent", help="resolvent kernel on the real axis")
    common(p)
    p.add_argument("--lam", required=True, help="lambda grid (positive reals)")
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--tol", type=_finite_float,
                   help="series tolerance override")
    p.set_defaults(handler=_cmd_resolvent)

    p = sub.add_parser("zeta", help="theta function, spectral zeta, poles")
    common(p)
    p.add_argument("--mode", choices=("theta", "zeta", "poles"),
                   default="poles")
    p.add_argument("--t", help="time grid for --mode theta")
    p.add_argument("--z-re", type=_finite_float, default=0.0)
    p.add_argument("--z-im", type=_finite_float, default=0.0)
    p.add_argument("--count", type=int, default=5, help="poles to list")
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("annihilated", help="killed-walk kernel and resolvent")
    common(p)
    p.add_argument("--mode", choices=("p1", "resolvent", "tail"), default="p1")
    p.add_argument("--r", type=int, required=True,
                   help="distance from the annihilation site (>= 1)")
    p.add_argument("--t", help="time grid (p1) or lower limits (tail)")
    p.add_argument("--lam", help="lambda grid (resolvent mode)")
    p.set_defaults(handler=_cmd_annihilated)

    p = sub.add_parser("schrodinger", help="positive spectrum of L + V")
    common(p, depth=True)
    p.add_argument("--potential", help="potential JSON file")
    p.add_argument("--delta", help="rank-one potential 'c@site'")
    p.add_argument("--powerlaw", help="'theta,beta,radius' family")
    p.add_argument("--gammas", help="comma list of gamma for S_gamma")
    p.add_argument("--method", choices=("auto", "dense", "iterative"),
                   default="auto")
    p.set_defaults(handler=_cmd_schrodinger)

    p = sub.add_parser("bounds", help="bound functionals vs exact counts")
    common(p, depth=True)
    p.add_argument("--thetas", default="0.1:25.6:9", help="theta sweep grid")
    p.add_argument("--beta", type=_finite_float, default=3.0)
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--a", type=_finite_float, default=1.0)
    p.add_argument("--sigma", type=_finite_float, default=0.0)
    p.add_argument("--gamma", type=_finite_float, default=1.0)
    p.add_argument("--theorems",
                   default="clr,lt,lt-weighted,clr-general,lt-general,"
                           "lt-general-weighted,bargmann,bargmann-uniform,"
                           "bargmann-refined")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("walk", help="sample one walk trajectory")
    common(p)
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--horizon", type=_finite_float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_walk)

    p = sub.add_parser("selftest", help="run the oracle-equivalence suite")
    p.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except SystemExit:  # --help printed its text; errors raise DomainError
        return EXIT_OK
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
