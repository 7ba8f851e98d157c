"""Key rates of the three protocols against the repeaterless bound.

Sweeps scenario 2 (everything relevant stabilized) and scenario 3 (worst
mismatch) for both detector classes, reports where the twin-field
protocols cross the realistic repeaterless bound, and where decoy BB84
stops being competitive.

Run:  python demos/keyrate_sweeps.py
"""

import os
from pathlib import Path

import numpy as np

from tfqkd import SweepSpec, builtin_scenarios, format_csv, run_sweep

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

labels = {p.id: p.label for p in builtin_scenarios()}

for sid, detector in ((2, "snspd"), (2, "spad"), (3, "snspd")):
    spec = SweepSpec(start=0.0, stop=100.0, step=1.0, detector=detector)
    table = run_sweep(sid, spec)
    path = os.path.join(OUT, f"keyrates_scenario{sid}_{detector}.csv")
    Path(path).write_text(format_csv(table), encoding="utf-8", newline="\n")
    print(f"== scenario {sid} ({labels[sid]}), {detector} ==")
    print(f"   wrote {path}")

    x, rates = table.x, table.rates
    for name, proto in (("odd-parity pairing", "sns_aopp"), ("phase encoding", "cal")):
        beats = x[rates[proto] > rates["plob_realistic"]]
        if beats.size:
            print(f"   {name} beats realistic bound on "
                  f"[{beats[0]:.0f}, {beats[-1]:.0f}] dB")
    cross = x[(x >= 5) & (np.maximum(rates["sns_aopp"], rates["cal"]) > rates["bb84"])]
    print(f"   direct-link BB84 overtaken at {cross[0]:.0f} dB" if cross.size
          else "   BB84 never overtaken in range")
    for proto in ("bb84", "sns_aopp", "cal"):
        print(f"   {proto:9s} positive up to {x[rates[proto] > 0].max():.0f} dB")
    print()

print("The twin-field advantage shows up past ~40 dB: both protocols decay")
print("with the square root of the channel loss, while the direct link and")
print("the repeaterless bound fall linearly in it.")
