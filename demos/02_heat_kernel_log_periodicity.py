#!/usr/bin/env python3
"""Heat-kernel decay t**(-s_h/2) with log-periodic modulation.

The return probability decays like t**(-s_h/2), but the prefactor is
not constant: it oscillates periodically in ln t with period ln(1/p).
The rescaled profile F(t) = t**(s_h/2) p(t,x,x) exposes the
oscillation; sampling it against the log-phase collapses all decades
onto one periodic curve (the data a plot of the phenomenon would use).
"""

import math

import numpy as np

from hierspec import LatticeParams, heat_kernel, heat_profile, ids_profile

params = LatticeParams(nu=4, p=0.5)
print(f"nu={params.nu}, p={params.p}: s_h = {params.s_h:.3f}, "
      f"kernel decay t^-{params.s_h / 2:.3f}\n")

print("profile F(t) = t^(s_h/2) p(t,x,x) over five decades:")
print(f"{'t':>12} {'log-phase':>10} {'F(t)':>14} {'F(t) - F(t/p)':>14}")
period = math.log(1.0 / params.p)
ts = 10.0 ** np.arange(2.0, 6.01, 0.3)
profile = heat_profile(params, ts)
drift = profile - heat_profile(params, ts / params.p)
for t, value, shift in zip(ts, profile, drift):
    phase = math.log(t) / period % 1.0
    print(f"{t:12.4g} {phase:10.4f} {value:14.10f} {shift:14.3e}")

print("\nthe same phase always reproduces the same profile value:")
for phase_t in (1e3, 1e3 / params.p**4):
    print(f"  F({phase_t:9.4g}) = {heat_profile(params, phase_t):.12f}")

# the integrated density of states carries the matching staircase
# profile in the spectral variable
print("\ndensity-of-states profile N(lam) lam^(-s_h/2) at matched phases:")
for lam in (0.3, 0.3 * params.p**3):
    print(f"  lam={lam:10.6g}: {ids_profile(params, lam):.12f}")

print("\nshort-time kernel values (exact series, certified tails):")
ts = np.array([0.0, 0.5, 2.0])
kernels = [heat_kernel(params, ts, r) for r in range(3)]
for i, t in enumerate(ts):
    row = ", ".join(f"r={r}: {kernels[r][i]:.8f}" for r in range(3))
    print(f"  t={t:4.1f}  {row}")
