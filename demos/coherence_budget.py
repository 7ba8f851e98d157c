"""From noise spectrum to transmission window, duty cycle and QBER.

Solves the largest uninterrupted transmission time for each built-in
scenario, shows the clipping behaviour, and extracts a threshold isoline
over the (mismatch, integration time) plane.

Run:  python demos/coherence_budget.py
"""

import os
from pathlib import Path

import numpy as np

from tfqkd import (
    builtin_scenarios,
    qber_from_variance,
    qber_small_angle,
    sigma_map,
    solve_scenario,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

print("== QBER from phase variance ==")
for sigma in (0.06, 0.1, 0.2, 0.5):
    print(f"  sigma = {sigma:4.2f} rad -> exact {qber_from_variance(sigma**2):.5f},"
          f" small-angle {qber_small_angle(sigma**2):.5f}")

print("\n== built-in scenarios: solved transmission windows ==")
print("  id  tau_q      sigma   duty    e_phi    status")
for preset in builtin_scenarios():
    res = solve_scenario(preset)
    status = "clipped" if res.clipped else ("floored" if res.floored else "solved")
    print(f"  {preset.id}   {res.tau_q:9.3e}  {res.sigma_phi:.4f}  "
          f"{res.duty_cycle:.4f}  {res.e_phi:.5f}  {status:8s} ({preset.label})")

print("\n== mismatch map: common free-running laser, free fibers ==")
topo = builtin_scenarios()[0].topology
dl = np.geomspace(0.005, 10.0, 12)
taus = np.geomspace(1e-6, 0.1, 16)
m = sigma_map(topo, dl, taus)
path = os.path.join(OUT, "sigma_map.csv")
Path(path).write_text(m.csv_text(), encoding="utf-8", newline="\n")
print(f"  wrote {path}")
iso = m.isoline(0.2)
print("  0.2 rad isoline (tau_q vs mismatch):")
for d, t in zip(dl, iso):
    bar = "*" * max(0, int(34 + 2.8 * np.log10(t))) if np.isfinite(t) else ""
    print(f"    dL = {d:7.3f} km -> tau_q = {t:9.3e} s  {bar}")
print("  The window collapses once the self-delayed laser noise from the")
print("  mismatch overtakes the fiber noise floor.")
