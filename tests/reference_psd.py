"""Independent mpmath reference for the phase-noise PSD models.

Each function takes the same float inputs as the library model it checks
and evaluates the formula of that model's docstring at 40 digits: the
free-running laser r3/f^3 + (r2/f^2) (f_c/(f+f_c))^2, the cavity
C4/f^4 + C3/f^3 + C2/f^2, the servo's open-loop gain G as a complex
number and its suppression |1/(1+G)|^2 from it (the library evaluates a
real form of the same quotient), the stabilized laser, the free and
dual-band-stabilized fiber with its detection floor, and each topology's
composite with mpmath.sin.  The inputs are the floats the library reads,
so what the reference checks is the library's arithmetic, not its
parameters.

The composite of a common-laser topology carries 4 sin^2(x) with
x = 2 pi f n dL / c.  The library rounds x once per float operation that
forms it, and near a zero of sin^2 that rounding is most of its error:
sin^2 moves by |sin 2x| times the error of x.  composite_bound gives the
error the tests allow: COMPOSITE_RTOL (2e-15) of the value plus
4 S_laser |sin 2x| |x| 2^-52, that is, x off by 2^-52 relative.

Run as a script, it certifies a re-baselined demos/out/interference_psd.csv
value by value:
    PYTHONPATH=src python tests/reference_psd.py OLD.csv NEW.csv
The topologies, laser, fiber and frequency grid come from the globals of
a copy of demos/psd_gallery.py run in a temporary directory, so the
script restates no demo input.  Every value that moved is printed with
its old and new error, and the exit status is 1 unless each moved value
is closer to the reference than the old one or is a print tie.  A print
tie is a value whose new error exceeds its old one by no more than its
composite_bound: a float within the library's certified error of the
reference may print either way.  A value whose two prints are equal
numbers (the grid ends 1 and 3e7 print exactly both ways) is a tie.
"""

import mpmath
from mpmath import mpf

from tfqkd import TopologyKind

DPS = 40
SPEED_OF_LIGHT = 299_792_458  # m/s, exact by the SI definition of the metre
# relative error of the composite away from the zeros of sin^2
COMPOSITE_RTOL = 2e-15


def _rolloff(f, f_c):
    f_c = mpf(f_c)
    return (f_c / (f + f_c)) ** 2


def laser_free(f, p):
    """r3/f^3 + (r2/f^2) (f_c/(f+f_c))^2."""
    with mpmath.workdps(DPS):
        f = mpf(f)
        return mpf(p.r3) / f**3 + mpf(p.r2) / f**2 * _rolloff(f, p.f_c)


def cavity(f, p):
    """C4/f^4 + C3/f^3 + C2/f^2."""
    with mpmath.workdps(DPS):
        f = mpf(f)
        return mpf(p.c4) / f**4 + mpf(p.c3) / f**3 + mpf(p.c2) / f**2


def loop_gain(f, p):
    """G(f) = g0 / w^2 (i f + B gamma) / (i f + B delta), w = 2 pi f, with
    g0 = (2 pi B)^2 (1 + delta) / (1 + gamma)."""
    with mpmath.workdps(DPS):
        f, b = mpf(f), mpf(p.bandwidth)
        gamma, delta = mpf(p.gamma), mpf(p.delta)
        g0 = (2 * mpmath.pi * b) ** 2 * (1 + delta) / (1 + gamma)
        w = 2 * mpmath.pi * f
        return g0 / w**2 * mpmath.mpc(b * gamma, f) / mpmath.mpc(b * delta, f)


def suppression(f, p):
    """|1/(1+G)|^2, through the complex G of loop_gain."""
    with mpmath.workdps(DPS):
        return abs(1 / (1 + loop_gain(f, p))) ** 2


def laser_stabilized(f, laser, cav, loop):
    """Cavity floor plus the servo-suppressed free-running noise."""
    with mpmath.workdps(DPS):
        return cavity(f, cav) + suppression(f, loop) * laser_free(f, laser)


def fiber_linear(f, length_km, p, stabilized):
    """noise_per_km L / f^2, times the roll-off at f_c_free when free and
    times ((lambda_s - lambda_q)/lambda_s)^2 when stabilized."""
    with mpmath.workdps(DPS):
        f = mpf(f)
        s = mpf(p.noise_per_km) * mpf(length_km) / f**2
        if stabilized:
            lam_s = mpf(p.lambda_s_nm)
            return s * ((lam_s - mpf(p.lambda_q_nm)) / lam_s) ** 2
        return s * _rolloff(f, p.f_c_free)


def detection_floor(f, p):
    """s0 (f_c_floor/(f+f_c_floor))^2."""
    with mpmath.workdps(DPS):
        return mpf(p.s0) * _rolloff(mpf(f), p.f_c_floor)


def fiber(f, length_km, p, stabilized):
    """The linear fiber noise, plus the detection floor when stabilized."""
    with mpmath.workdps(DPS):
        out = fiber_linear(f, length_km, p, stabilized)
        return out + detection_floor(f, p) if stabilized else out


def composite(f, topo, laser, fib):
    """(S, S_laser, x): the interference PSD S of interference_spectrum's
    docstring at f, its laser term and, for a common laser, the sin^2
    argument x (None for independent lasers).  Common laser:
    4 sin^2(2 pi f n dL / c) S_laser + K [S_F,A + S_F,B]; independent
    lasers: 2 S_laser + S_F,A + S_F,B; with fiber stabilization the
    detection floor is added once."""
    with mpmath.workdps(DPS):
        if topo.laser_stabilized:
            s_laser = laser_stabilized(f, laser.free, laser.cavity, laser.loop)
        else:
            s_laser = laser_free(f, laser.free)
        fibers = (fiber_linear(f, topo.l_a, fib, topo.fiber_stabilized)
                  + fiber_linear(f, topo.l_b, fib, topo.fiber_stabilized))
        x = None
        if topo.kind is TopologyKind.COMMON_LASER:
            dl = mpf(topo.l_a) - mpf(topo.l_b)
            x = 2 * mpmath.pi * mpf(f) * mpf(topo.refractive_index) * dl * 1000 / SPEED_OF_LIGHT
            total = 4 * mpmath.sin(x) ** 2 * s_laser + mpf(topo.fiber_roundtrip_factor) * fibers
        else:
            total = 2 * s_laser + fibers
        if topo.fiber_stabilized:
            total += detection_floor(f, fib)
        return total, s_laser, x


def composite_bound(f, topo, laser, fib):
    """(reference, absolute error allowed) of the composite at f:
    COMPOSITE_RTOL of the value, plus 4 S_laser |sin 2x| |x| 2^-52 for the
    sin^2 argument x of a common laser."""
    with mpmath.workdps(DPS):
        total, s_laser, x = composite(f, topo, laser, fib)
        bound = COMPOSITE_RTOL * total
        if x is not None:
            bound += 4 * s_laser * abs(mpmath.sin(2 * x)) * x * mpf(2) ** -52
        return total, bound


def demo_inputs():
    """{column: (topology, laser, fiber)} and the frequency grid of
    demos/psd_gallery.py, read from the globals of a copy of it run in a
    temporary directory (its printout is discarded)."""
    import contextlib
    import io
    import runpy
    import shutil
    import tempfile
    from pathlib import Path

    demo = Path(__file__).resolve().parent.parent / "demos" / "psd_gallery.py"
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        g = runpy.run_path(shutil.copy(demo, tmp))
    return ({name: (topo, g["laser_spec"], g["fiber"]) for name, topo in g["combos"].items()},
            g["freqs"])


def certify_psd(old_csv, new_csv) -> int:
    """Compare two versions of interference_psd.csv value by value with the
    reference: print every moved value and return how many ended up
    farther from it (print ties apart)."""
    import csv

    with open(old_csv, newline="") as fh:
        old = list(csv.reader(fh))
    with open(new_csv, newline="") as fh:
        new = list(csv.reader(fh))
    columns, freqs = demo_inputs()
    if old[0] != new[0] or new[0] != ["f_hz", *columns] \
            or not len(old) == len(new) == len(freqs) + 1:
        raise ValueError("the two files do not hold the demo's columns and grid")
    worse = 0
    print("f_hz,column,old,new,rel_err_old,rel_err_new,verdict")
    for f, row_old, row_new in zip(freqs, old[1:], new[1:]):
        for name, a, b in zip(new[0], row_old, row_new):
            if a == b:
                continue
            with mpmath.workdps(DPS):
                if name == "f_hz":
                    ref, bound = mpf(f), mpf(0)
                else:
                    ref, bound = composite_bound(f, *columns[name])
                err_a = abs(mpf(float(a)) - ref) / ref
                err_b = abs(mpf(float(b)) - ref) / ref
                verdict = "closer" if err_b < err_a \
                    else "tie" if err_b - err_a <= bound / ref else "farther"
            worse += verdict == "farther"
            print(f"{float(f)!r},{name},{a},{b},{float(err_a):.3e},{float(err_b):.3e},{verdict}")
    return worse


if __name__ == "__main__":
    import sys

    sys.exit(certify_psd(sys.argv[1], sys.argv[2]) > 0)
