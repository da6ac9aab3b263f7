"""Killed-walk CLI outputs, byte for byte, against tests/data/golden.

A change meant to leave the numbers alone (a faster sum, a refactor)
has to leave these bytes alone: all 17 digits of every cell, the
comment header and the CRLF line ends.  Rewrite a file only for an
intended change of output:

    python -m hierspec.cli ARGV... --output tests/data/golden/NAME

The ``actual`` power sums of bounds.csv are also checked against a
40-digit eigendecomposition, so a rewrite cannot pin a wrong value.
"""

import csv
from pathlib import Path

import pytest

from hierspec.cli import main
from hierspec.lattice import hier_distance

GOLDEN = Path(__file__).parent / "data" / "golden"
KILLED = ["--nu", "2", "--p", "0.25"]
CASES = {
    "bounds.csv": ["bounds", *KILLED, "--depth", "6", "--radius", "3",
                   "--beta", "3.0", "--a", "1.0", "--sigma", "1.0",
                   "--gamma", "0.8", "--thetas", "0.8,1.6,3.2"],
    "p1_small_t.csv": ["annihilated", *KILLED, "--mode", "p1", "--r", "1",
                       "--t", "0.05,0.2,0.5,0.9"],
    # small t on a Krylov space of 31 Lanczos steps, the most pinned here
    "p1_r15.csv": ["annihilated", *KILLED, "--mode", "p1", "--r", "15",
                   "--t", "0.05,0.5,0.9"],
    "p1.csv": ["annihilated", *KILLED, "--mode", "p1", "--r", "2",
               "--t", "1:700:40"],
    # one grid on both sides of t = 1: Krylov and spectral-measure paths
    "p1_straddle.csv": ["annihilated", *KILLED, "--mode", "p1", "--r", "1",
                        "--t", "0,0.05,0.5,1,2,700"],
    "tail.csv": ["annihilated", *KILLED, "--mode", "tail", "--r", "3",
                 "--t", "0,0.3,1,3,10,30,100,300"],
    "tail_transient.csv": ["annihilated", "--nu", "4", "--p", "0.5",
                           "--mode", "tail", "--r", "2",
                           "--t", "0,0.5,5,50"],
    "resolvent.csv": ["annihilated", *KILLED, "--mode", "resolvent",
                      "--r", "2", "--lam", "0.25:20:40"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_bounds_actual_cells_against_mpmath():
    # S_0.8 of L + theta (1+rho)**-3 on the rank-3 cube at 0, (2, 1/4, 6):
    # a 40-digit eigendecomposition of the whole 64 x 64 matrix, built
    # from the exact binary inputs of the CLI case
    mpmath = pytest.importorskip("mpmath")
    with (GOLDEN / "bounds.csv").open(newline="") as f:
        rows = [r for r in csv.DictReader(line for line in f
                                          if not line.startswith("#"))
                if r["theorem"].startswith("lt")]
    assert len(rows) == 12
    nu, depth, radius = 2, 6, 3
    n = nu**depth
    with mpmath.workdps(40):
        p = mpmath.mpf(0.25)
        a = [(1 - p) * p ** (r - 1) / (nu ** (r - 1) * (nu - p))
             for r in range(depth + 1)]
        dist = [[hier_distance(x, y, nu) for y in range(n)] for x in range(n)]
        actual = {}
        for theta in (0.8, 1.6, 3.2):
            m = mpmath.matrix(n, n)
            for x in range(n):
                for y in range(n):
                    m[x, y] = a[dist[x][y]]
                m[x, x] = (1 - p) / (nu - p) - 1
                if x < nu**radius:
                    m[x, x] += mpmath.mpf(theta) * p ** (1.5 * dist[0][x])
            lam = mpmath.eigsy(m, eigvals_only=True)
            actual[theta] = float(mpmath.fsum(
                v ** mpmath.mpf(0.8) for v in lam if v > 0))
    for row in rows:
        exact = actual[float(row["theta"])]
        assert float(row["actual"]) == pytest.approx(exact, rel=1e-15)
