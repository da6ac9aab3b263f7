#!/usr/bin/env python3
"""Bound states of L + V and the counting functionals.

In the transient phase a point potential needs a minimum coupling to
bind; in the recurrent phase any coupling binds.  Exact counts N0(V)
from dense/iterative eigensolvers are then compared against every
counting functional: the transient-only forms, the annihilated-walk
forms that survive recurrence, and the distance-weighted forms.
The unspecified theorem constants are reported as fitted ratios.
"""

from hierspec import (LatticeParams, VolumeGrid, bound_report,
                      delta_potential, fitted_constant_range,
                      positive_spectrum, powerlaw_potential,
                      secular_coupling_threshold, volume_coupling_threshold)
from hierspec.bounds import REPORT_COLUMNS
from hierspec.cli import format_table

print("== coupling threshold for a point potential ==")
pa_t = LatticeParams(4, 0.5)
print(f"transient (nu=4, p=1/2): infinite-lattice threshold "
      f"c* = {secular_coupling_threshold(pa_t):.6f}")
for depth in (5, 6, 8):
    grid = VolumeGrid(pa_t, depth)
    print(f"  depth-{depth} volume threshold: "
          f"{volume_coupling_threshold(grid):.6f}")

pa_r = LatticeParams(2, 0.25)
grid_r = VolumeGrid(pa_r, 10)
weak = positive_spectrum(grid_r, delta_potential(0, 0.05))
print(f"\nrecurrent (nu=2, p=1/4): coupling 0.05 already binds: "
      f"N0 = {weak.count}, eigenvalue {weak.largest:.3e}")

print("\n== counting functionals on a power-law family ==")
thetas = [0.1 * 4**k for k in range(4)]
potentials = [powerlaw_potential(pa_r, 0, th, 3.0, 5) for th in thetas]
grid = VolumeGrid(pa_r, 8)
rows = bound_report(
    grid, potentials, thetas, [3.0] * len(thetas),
    theorems=("clr", "clr-general", "bargmann", "bargmann-uniform",
              "bargmann-refined"),
    a=1.0, sigma=0.0, gamma=1.0)

print(format_table(REPORT_COLUMNS,
                   [[row[c] for c in REPORT_COLUMNS] for row in rows], {},
                   "csv"))
print("notes: the transient-only form is flagged divergent here "
      "(p nu = 1/2 < 1);")
print("the annihilated and distance-weighted forms stay finite, and the")
print("fitted constant = actual/functional is the empirical theorem "
      "constant:")
for tag in ("clr-general", "bargmann", "bargmann-refined"):
    lo, hi = fitted_constant_range(rows, tag)
    print(f"  {tag:18s} fitted constants span [{lo:.4f}, {hi:.4f}]")
