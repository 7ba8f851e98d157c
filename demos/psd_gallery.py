"""Walk through the phase-noise models and how topologies compose them.

Prints characteristic values of every PSD model and writes the composite
interference spectra of the four stabilization combinations to CSV.

Run:  python demos/psd_gallery.py
"""

import os
from pathlib import Path

import numpy as np

from tfqkd import (
    CavityParams,
    FiberParams,
    LaserFreeParams,
    LaserSpec,
    LoopParams,
    TopologyConfig,
    TopologyKind,
    csv_text,
    interference_spectrum,
    loop_gain,
    psd_cavity,
    psd_fiber,
    psd_laser_free,
    psd_laser_stabilized,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

laser = LaserFreeParams()
cavity = CavityParams()
loop = LoopParams()
fiber = FiberParams()
laser_spec = LaserSpec(free=laser, cavity=cavity, loop=loop)

print("== single noise sources (rad^2/Hz) ==")
for f in (1.0, 1e2, 1e4, 1e6):
    print(f"  f = {f:8.0f} Hz | free laser {psd_laser_free(f, laser):10.3e}"
          f" | stabilized {psd_laser_stabilized(f, laser, cavity, loop):10.3e}"
          f" | cavity {psd_cavity(f, cavity):10.3e}"
          f" | fiber 114 km {psd_fiber(f, 114.0, fiber, False):10.3e}")

print("\n== servo suppression |1/(1+G)|^2 ==")
for f in (1e2, 1e4, 3e5, 3e6, 3e7):
    s = abs(1.0 / (1.0 + loop_gain(f, loop))) ** 2
    print(f"  f = {f:9.0f} Hz: {s:.3e}")

print("\n== dual-band fiber stabilization ==")
print(f"  wavelength-mismatch suppression: {fiber.stabilization_suppression:.3e}")
print(f"  free vs stabilized at 100 Hz, 114 km: "
      f"{psd_fiber(100.0, 114.0, fiber, False):.3e} -> "
      f"{psd_fiber(100.0, 114.0, fiber, True):.3e}")

print("\n== composite interference spectra (114 km arms) ==")
freqs = np.geomspace(1.0, 3e7, 600)
combos = {
    "common_free_free": TopologyConfig(l_a=114.0, l_b=113.98),
    "common_free_stabfiber": TopologyConfig(l_a=114.0, l_b=113.98,
                                            fiber_stabilized=True),
    "common_stab_stabfiber": TopologyConfig(l_a=114.0, l_b=111.5,
                                            laser_stabilized=True,
                                            fiber_stabilized=True),
    "independent_ultrastable": TopologyConfig(
        kind=TopologyKind.INDEPENDENT_LASERS, laser_stabilized=True,
        l_a=114.0, l_b=113.98),
}
table = {name: interference_spectrum(topo, laser_spec, fiber)(freqs)
         for name, topo in combos.items()}
path = os.path.join(OUT, "interference_psd.csv")
Path(path).write_text(csv_text(["f_hz", *table], [freqs, *table.values()]),
                      encoding="utf-8", newline="\n")
print(f"  wrote {path}")
for name, s in table.items():
    print(f"  {name:26s} S(1 Hz) = {s[0]:.3e}  S(10 kHz) = "
          f"{s[np.searchsorted(freqs, 1e4)]:.3e}")

print("\nNote how the km-scale mismatch keeps periodic self-delay minima in")
print("the common-laser spectrum, and how fiber stabilization trades the")
print("1/f^2 wall for the sensing detection floor at high frequency.")
