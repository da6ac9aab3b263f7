#!/usr/bin/env python3
"""The walk killed at a marked site: rank-one resolvent and kernel decay.

Killing the walk at x0 subtracts a rank-one term from the resolvent;
everything about the killed kernel p1 follows from two finite objects:
the difference Rt = R(x0,x) - R(x,x) and the free diagonal resolvent.
The payoff is the decay law p1(t,x,x) ~ t**-(1+alpha) -- faster than
the free kernel's t**-(s_h/2) -- and time integrals that stay finite
even in the recurrent phase, where the free-walk integrals blow up.
"""

import numpy as np

from hierspec import (LatticeParams, a_coefficient, heat_kernel, p1_diag,
                      p1_tail_integral, resolvent_annihilated, rho_of_distance)

params = LatticeParams(2, 0.25)  # recurrent: s_h = 1, alpha = 1/2
print(f"nu={params.nu}, p={params.p}: s_h={params.s_h}, alpha={params.alpha}\n")

print("closed-form integrals a(r) = int_0^inf p1(t,x,x) dt:")
for r in (1, 2, 3, 4):
    print(f"  d(x0,x)={r}: a(r) = {a_coefficient(params, r):.10g}")

print("\nkilled vs free kernel (killing only removes return paths):")
print(f"{'t':>8} {'p1(t) at r=1':>16} {'free p(t)':>16}")
for t in (1.0, 10.0, 100.0, 1000.0):
    print(f"{t:8.0f} {p1_diag(params, t, 1):16.10f} "
          f"{heat_kernel(params, t, 0):16.10f}")

print("\ndecay exponents by log-log fit over t in [1e2, 1e6]:")
ts = 10.0 ** np.arange(2.0, 6.01, 0.5)
p1_slope = np.polyfit(np.log(ts), np.log(p1_diag(params, ts, 1)), 1)[0]
p_slope = np.polyfit(np.log(ts), np.log(heat_kernel(params, ts, 0)), 1)[0]
print(f"  killed kernel: {p1_slope:7.4f}   (theory -(1+alpha) = "
      f"{-(1 + params.alpha)})")
print(f"  free kernel:   {p_slope:7.4f}   (theory -s_h/2 = "
      f"{-params.s_h / 2})")

print("\nenvelope t^(1+alpha) p1 / (rho^2+1)^(2 alpha) stays bounded:")
for r in (1, 3, 6):
    weight = (rho_of_distance(r, params) ** 2 + 1.0) ** (2 * params.alpha)
    decades = np.array([1e2, 1e4, 1e6])
    ratios = (decades ** (1 + params.alpha) * p1_diag(params, decades, r)
              / weight)
    print(f"  r={r}: ratios over three decades "
          f"{', '.join(f'{v:.4f}' for v in ratios)}")

print("\ntail integrals int_T^inf p1 dt (sums over the spectral measure):")
for T in (0.0, 1.0, 10.0, 100.0):
    print(f"  T={T:5.1f}: {p1_tail_integral(params, T, 2):.8f}")

lam = 0.05
print(f"\nannihilated diagonal resolvent at lam={lam}: "
      f"{resolvent_annihilated(params, lam, 2).real:.8f} "
      f"(lam->0 limit a(2) = {a_coefficient(params, 2)})")
