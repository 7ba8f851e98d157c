"""The committed demo outputs, rebuilt in memory, match byte for byte."""

from pathlib import Path

import numpy as np
import pytest

from tfqkd import (
    FiberParams,
    LaserSpec,
    SweepSpec,
    TopologyConfig,
    TopologyKind,
    builtin_scenarios,
    format_csv,
    interference_spectrum,
    run_sweep,
    sigma_map,
)

OUT = Path(__file__).resolve().parent.parent / "demos" / "out"


@pytest.mark.parametrize("sid, detector", [(2, "snspd"), (2, "spad"), (3, "snspd")])
def test_keyrate_sweep_matches_demo_output(sid, detector):
    # the sweeps of demos/keyrate_sweeps.py
    rows = run_sweep(sid, SweepSpec(start=0.0, stop=100.0, step=1.0, detector=detector))
    golden = (OUT / f"keyrates_scenario{sid}_{detector}.csv").read_bytes()
    assert format_csv(rows).encode() == golden


def test_interference_psd_matches_demo_output():
    # the table of demos/psd_gallery.py
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
    table = {name: interference_spectrum(topo, LaserSpec(), FiberParams())(freqs)
             for name, topo in combos.items()}
    lines = ["f_hz," + ",".join(table)]
    lines += [f"{f:.6e}," + ",".join(f"{table[n][i]:.6e}" for n in table)
              for i, f in enumerate(freqs)]
    golden = (OUT / "interference_psd.csv").read_bytes()
    assert ("\n".join(lines) + "\n").encode() == golden


def test_sigma_map_matches_demo_output():
    # the mismatch map of demos/coherence_budget.py
    topo = builtin_scenarios()[0].topology
    m = sigma_map(topo, np.geomspace(0.005, 10.0, 12), np.geomspace(1e-6, 0.1, 16))
    golden = (OUT / "sigma_map.csv").read_bytes()
    assert m.csv_text().encode() == golden
