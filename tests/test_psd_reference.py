"""The PSD models against the 40-digit mpmath reference.

Each single-term model is held to 9e-16 relative (about 4 ulp) from 1 mHz
to 1 GHz, on the parameters of the built-in presets and on a cavity with
all three terms.  The composite of each preset is held, from 1 Hz to
30 MHz, to reference_psd.composite_bound: 2e-15 of the value, plus, for a
common laser, the error of sin^2 when its argument x is off by 2^-52
relative.  Near the zeros of sin^2 that second term is the larger one:
on a 1,500-point grid the composite of presets 3 and 4 is off by up to
3.6e-11 relative there, the rounding of x, and the bound covers every
point of that grid with 14 % to spare (16 % on the 400 points here).
"""

import mpmath
import numpy as np
import pytest
import reference_psd as ref

from tfqkd import (
    CavityParams,
    FiberParams,
    LaserFreeParams,
    LaserSpec,
    LoopParams,
    builtin_scenarios,
    interference_spectrum,
    loop_gain,
    psd_cavity,
    psd_detection_floor,
    psd_fiber,
    psd_fiber_linear,
    psd_laser_free,
    psd_laser_stabilized,
)

SINGLE_RTOL = 9e-16
F_SINGLE = np.geomspace(1e-3, 1e9, 241)
F_COMPOSITE = np.geomspace(1.0, 3e7, 400)
LASER, CAVITY, LOOP, FIBER = LaserFreeParams(), CavityParams(), LoopParams(), FiberParams()
ALL_TERMS = CavityParams(c4=0.3, c3=7e-3, c2=1e-4)

# name: (library model on an array, reference model at one frequency)
SINGLE = {
    "laser_free": (lambda f: psd_laser_free(f, LASER), lambda f: ref.laser_free(f, LASER)),
    "cavity": (lambda f: psd_cavity(f, CAVITY), lambda f: ref.cavity(f, CAVITY)),
    "cavity_all_terms": (lambda f: psd_cavity(f, ALL_TERMS), lambda f: ref.cavity(f, ALL_TERMS)),
    "loop_gain": (lambda f: loop_gain(f, LOOP), lambda f: ref.loop_gain(f, LOOP)),
    "laser_stabilized": (lambda f: psd_laser_stabilized(f, LASER, CAVITY, LOOP),
                         lambda f: ref.laser_stabilized(f, LASER, CAVITY, LOOP)),
    "fiber_free": (lambda f: psd_fiber(f, 114.0, FIBER, False),
                   lambda f: ref.fiber(f, 114.0, FIBER, False)),
    "fiber_stabilized": (lambda f: psd_fiber(f, 113.98, FIBER, True),
                         lambda f: ref.fiber(f, 113.98, FIBER, True)),
    "fiber_linear_stabilized": (lambda f: psd_fiber_linear(f, 111.5, FIBER, True),
                                lambda f: ref.fiber_linear(f, 111.5, FIBER, True)),
    "detection_floor": (lambda f: psd_detection_floor(f, FIBER),
                        lambda f: ref.detection_floor(f, FIBER)),
}


@pytest.mark.parametrize("name", SINGLE)
def test_single_term_model(name):
    model, reference = SINGLE[name]
    values = model(F_SINGLE)
    with mpmath.workdps(ref.DPS):
        errors = [abs(mpmath.mpmathify(complex(v) if np.iscomplexobj(v) else float(v)) - r)
                  / abs(r) for v, r in zip(values, map(reference, F_SINGLE))]
    worst = max(errors)
    assert worst <= SINGLE_RTOL, (name, float(worst), F_SINGLE[errors.index(worst)])


@pytest.mark.parametrize("preset", builtin_scenarios(), ids=lambda p: f"preset{p.id}")
def test_composite(preset):
    topo, laser, fiber = preset.topology, LaserSpec(), FiberParams()
    values = interference_spectrum(topo, laser, fiber)(F_COMPOSITE)
    with mpmath.workdps(ref.DPS):
        ratios = []
        for f, v in zip(F_COMPOSITE, values):
            r, bound = ref.composite_bound(f, topo, laser, fiber)
            ratios.append(abs(mpmath.mpf(float(v)) - r) / bound)
    worst = max(ratios)
    assert worst <= 1, (preset.id, float(worst), F_COMPOSITE[ratios.index(worst)])

