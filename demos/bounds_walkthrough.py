"""Walk through the boundedness analysis for a 3-agent path graph.

Everything downstream (cell size, sampling period, reachability margins)
hangs off a handful of spectral constants, so this script prints each one
and shows what happens when the relative-state bound is overridden with a
value that is too small to be sound.
"""

import numpy as np

from mas.bounds import deviation_remainder, discretization_range, \
    theorem1_constants
from mas.graph import build_graph, relative_state, spectral

np.set_printoptions(precision=4, suppress=True)

# three agents in a line: 1 -- 2 -- 3, one-dimensional workspace
g = build_graph(3, [(1, 2), (2, 3)])
spec = spectral(g)

print("== graph ==")
print("laplacian:\n", g.laplacian)
print(f"lambda_2 = {spec.lambda2:.6g} (connectivity)")
print(f"lambda_max = {spec.lambda_max:.6g}")
print(f"||D^T|| = {spec.incidence_transpose_norm:.6g}")

x = np.array([[0.0], [1.0], [3.0]])
print("relative state for x =", x.ravel(), "->", relative_state(g, x))

# the invariance bound: with inputs no larger than v_max, the relative
# state is eventually trapped in a ball of radius R_bar = safety*K2*v_max
v_max = 1.0
report = theorem1_constants(spec, g, v_max, safety=1.05)
print("\n== invariance bound ==")
print(f"K2 = {report.k2:.6g}")
print(f"R_bar = {report.r_bar:.6g} (= 1.05 * K2 * v_max)")
print(f"M (drift bound inside the ball) = {report.m_bound:.6g}")
print(f"L1 = {report.l1:.6g}, L2 = {report.l2:.6g}, "
      f"L = 3*L2 + 4*L1^2 = {report.l_total:.6g}")
print("hypothesis (R_bar >= K2*v_max):", report.hypothesis_satisfied)

# admissible cell diameters and sampling periods for the abstraction
disc = discretization_range(report)
print("\n== discretization ==")
print(f"cell diameter supremum = {disc.d_max_sup:.6g}")
print(f"chosen diameter (default: half the sup) = {disc.chosen_d_max:.6g}")
print(f"admissible dt interval = [{disc.dt_lo:.6g}, {disc.dt_hi:.6g}]")
print(f"chosen dt (default: the midpoint) = {disc.chosen_dt:.6g}")

# the abstraction keeps a transition only when the integration remainder
# rho(dt) fits inside the target cell's inradius, so rho decides how much
# of the admissible interval is actually usable
inradius = 0.5 * disc.chosen_d_max  # cubical 1-D cell: side == diameter
print(f"\nremainder rho(dt) vs. cell inradius {inradius:.6g}:")
for frac in (0.0, 0.25, 0.5, 1.0):
    dt = disc.dt_lo + frac * (disc.dt_hi - disc.dt_lo)
    rho = deviation_remainder(report, dt)
    verdict = "ok" if rho <= inradius else "too coarse"
    print(f"  dt = {dt:.6g}: rho = {rho:.6g}  ({verdict})")

# an override below K2*v_max produces a report that refuses synthesis
print("\n== unsound override ==")
bad = theorem1_constants(spec, g, v_max, safety=1.05,
                         r_bar_override=0.5 * report.k2 * v_max)
print(f"override R_bar = {bad.r_bar:.6g}, hypothesis satisfied:",
      bad.hypothesis_satisfied)
print("the synthesis stage rejects such a configuration outright")
