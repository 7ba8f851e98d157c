"""Independent mpmath reference for the accumulated phase variance.

sigma^2(tau) is the integral of the PSD from 1/tau to a finite f_max,
with the library's own model: spec.func below the switch frequency
f_switch and spec.averaged_func from it on.  mpmath.quad (Gauss-Legendre,
at 20 digits) integrates each piece between consecutive split points: the
sin^2 zeros below f_switch, f_switch itself (capped at f_max), the knees
and every 1/8 decade.  A second pass splits twice as finely (1/16 decade,
half periods) and the two must agree, so the reference certifies itself
and checks nothing but the integrator.  reference_tau_q solves
sigma(tau) = threshold on it.

Run as a script, it certifies a re-baselined demo map value by value:
    PYTHONPATH=src python tests/reference.py OLD_SIGMA_MAP.csv NEW_SIGMA_MAP.csv
"""

import mpmath
import numpy as np

from tfqkd.coherence import OSC_PERIODS
from tfqkd.spectra import Spectrum

SELF_RTOL = 1e-9


def _split_points(spec: Spectrum, f_lo: float, f_hi: float, f_switch, fine: bool):
    per_decade = 16 if fine else 8
    n = int(np.ceil(np.log10(f_hi / f_lo) * per_decade)) + 1
    points = {f_lo, f_hi, *np.geomspace(f_lo, f_hi, n)}
    points |= {k for k in spec.knees if f_lo < k < f_hi}
    if f_switch is not None:
        step = spec.oscillation_period / (2 if fine else 1)
        top = min(f_switch, f_hi)
        points |= {k * step for k in range(int(np.ceil(f_lo / step)), int(top / step) + 1)}
        points.add(top)
    return sorted(p for p in points if f_lo <= p <= f_hi)


def _integrate(spec: Spectrum, f_lo: float, f_max: float, f_switch, fine: bool):
    def exact(x):
        return mpmath.mpf(float(spec.func(np.array([float(x)]))[0]))

    def averaged(x):
        return mpmath.mpf(float(spec.averaged_func(np.array([float(x)]))[0]))

    points = _split_points(spec, f_lo, f_max, f_switch, fine)
    total = mpmath.mpf(0)
    for a, b in zip(points[:-1], points[1:]):
        form = exact if f_switch is None or b <= f_switch else averaged
        total += mpmath.quad(form, [a, b], method="gauss-legendre")
    return total


def reference_variance(spec: Spectrum, tau: float, f_max=None) -> float:
    """sigma^2(tau) of the library's PSD model to about 1e-9 relative."""
    if f_max is None:
        f_max = spec.default_f_max()
    f_lo = 1.0 / tau
    if f_lo >= f_max:
        return 0.0
    f_switch = None
    if spec.oscillation_period is not None:  # and with it spec.averaged_func
        f_switch = OSC_PERIODS * spec.oscillation_period
    with mpmath.workdps(20):
        coarse = _integrate(spec, f_lo, f_max, f_switch, fine=False)
        fine = _integrate(spec, f_lo, f_max, f_switch, fine=True)
    if abs(coarse - fine) > SELF_RTOL * abs(fine):
        raise AssertionError(f"reference not converged: {coarse} vs {fine}")
    return float(fine)


def reference_sigma(spec: Spectrum, tau: float, f_max=None) -> float:
    """sqrt of reference_variance."""
    return float(np.sqrt(reference_variance(spec, tau, f_max)))


def reference_tau_q(spec: Spectrum, sigma: float, tau_guess: float, f_max=None) -> float:
    """The window tau at which reference_sigma is sigma: the secant in
    ln tau on reference_variance, from tau_guess and a point 1e-4 above
    it, until a step moves ln tau by less than 1e-12."""
    level = sigma * sigma
    x0, x1 = np.log(tau_guess), np.log(tau_guess * (1 + 1e-4))
    g0 = reference_variance(spec, np.exp(x0), f_max) - level
    for _ in range(30):
        g1 = reference_variance(spec, np.exp(x1), f_max) - level
        if g1 == 0.0:
            return float(np.exp(x1))
        x0, x1, g0 = x1, x1 - g1 * (x1 - x0) / (g1 - g0), g1
        if abs(x1 - x0) < 1e-12:
            return float(np.exp(x1))
    raise AssertionError(f"reference window not converged near {tau_guess}")


def certify_sigma_map(old_csv, new_csv):
    """Compare two versions of demos/out/sigma_map.csv value by value with
    the reference: print each cell and return how many moved values did
    not end up closer to it."""
    from tfqkd import builtin_scenarios, interference_spectrum

    topo = builtin_scenarios()[0].topology
    old = np.loadtxt(old_csv, delimiter=",", skiprows=1)
    new = np.loadtxt(new_csv, delimiter=",", skiprows=1)
    if not np.array_equal(old[:, :2], new[:, :2]):
        raise ValueError("the two maps have different grids")
    worse = 0
    print("delta_l_km,tau_q_s,rel_err_old,rel_err_new,moved_closer")
    for (dl, tau, s_old), s_new in zip(old, new[:, 2]):
        ref = reference_sigma(interference_spectrum(topo, delta_l_km=dl), tau)
        err_old, err_new = abs(s_old / ref - 1), abs(s_new / ref - 1)
        closer = s_new == s_old or err_new < err_old
        worse += not closer
        print(f"{dl:.6g},{tau:.6g},{err_old:.3e},{err_new:.3e},{int(closer)}")
    return worse


if __name__ == "__main__":
    import sys

    sys.exit(certify_sigma_map(sys.argv[1], sys.argv[2]) > 0)
