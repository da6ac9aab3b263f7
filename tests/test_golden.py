"""Killed-walk CLI outputs, byte for byte, against tests/data/golden.

A change meant to leave the numbers alone (a faster sum, a refactor)
has to leave these bytes alone: all 17 digits of every cell, the
comment header and the CRLF line ends.  Rewrite a file only for an
intended change of output:

    python -m hierspec.cli ARGV... --output tests/data/golden/NAME
"""

from pathlib import Path

import pytest

from hierspec.cli import main

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
