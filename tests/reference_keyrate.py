"""Independent mpmath reference for the key-rate kernels.

Each function takes the same float inputs as the library kernel it checks
and evaluates the textbook form of its formula at 40 digits: the PLOB
bound -log2(1 - eta); the decoy gains 1 - (1 - p) exp(-mu eta) and the
three-intensity bounds; the phase-averaged click probability
2 (1-p) e^{-S} I0(x) - 2 (1-p)^2 e^{-2S} (or, for a cross-check, the
phase average itself by quadrature); the sending-or-not-sending window
statistics and odd-parity pairing; and the CAL gain, bit error and
phase-error bound, whose photon-pair yields come from an integer expansion
of the splitter output, not from the library's table.  At 40 digits none
of the cancellations that the float kernels avoid costs any accuracy that
matters.

Key rates are differences of two terms, so near a cut-off their relative
error says nothing; each rate function also returns the larger term as the
scale to measure the error against.

Run as a script, it certifies a re-baselined key-rate golden value by
value:
    PYTHONPATH=src python tests/reference_keyrate.py OLD.csv NEW.csv
The file names must contain scenario<id>_<detector> as the committed
demos/out/keyrates_scenario<id>_<detector>.csv do; every value that moved
is printed with its old and new error, and the exit status is 1 unless
each moved value is closer to the reference than the old one or is a
print tie.  A print tie is a value whose reference lies within
PRINT_TIE_RTOL / 2 of the midpoint between the old and the new 13-digit
print: a float within the kernels' certified error of the reference may
print either way there, and even the correctly rounded float can print
the farther of the two.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mpf

DPS = 40
# about the kernels' certified relative error (tests/test_keyrate_reference.py)
PRINT_TIE_RTOL = 4e-15


def _h2(p):
    if p <= 0 or p >= 1:
        return mpf(0)
    return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)


def _clip(x, lo=0, hi=1):
    return min(max(x, mpf(lo)), mpf(hi))


def plob(eta):
    """-log2(1 - eta); log1p keeps it exact to the working precision for an
    eta below 1e-40 too."""
    with mpmath.workdps(DPS):
        return -mpmath.log1p(-mpf(eta)) / mpmath.log(2)


def decoy(s, eta_hat, p_dc: float, e_theta: float, e_phi: float) -> dict:
    """Gains, bounds and signal QBER of the three-intensity decoy method."""
    with mpmath.workdps(DPS):
        eta, p, e_tot = mpf(eta_hat), mpf(p_dc), mpf(e_theta) + mpf(e_phi)
        u, v, w = mpf(s.u), mpf(s.v), mpf(s.w)

        def q(mu):
            return 1 - (1 - p) * mpmath.exp(-mu * eta)

        def eq(mu):
            return p / 2 + (e_tot - p / 2) * (1 - mpmath.exp(-mu * eta))

        y0 = _clip((v * q(w) * mpmath.exp(w) - w * q(v) * mpmath.exp(v)) / (v - w))
        y1 = (u**2 * (q(v) * mpmath.exp(v) - q(w) * mpmath.exp(w))
              - (v**2 - w**2) * (q(u) * mpmath.exp(u) - y0)) / (u * (u - v - w) * (v - w))
        out = {"q_u": q(u), "e_u": _clip(eq(u) / q(u)) if q(u) > 0 else mpf(0),
               "y0": y0, "ok": y1 > 0}
        if y1 > 0:
            y1 = min(y1, mpf(1))
            e1 = _clip((eq(v) * mpmath.exp(v) - eq(w) * mpmath.exp(w)) / ((v - w) * y1))
        else:
            y1, e1 = mpf(0), mpf(1)
        out.update(y1=y1, q1=_clip(y1 * u * mpmath.exp(-u)), e1=e1)
        return out


def bb84_key(d: dict, f_ec: float) -> tuple:
    """(key per signal, scale) of decoy BB84 from decoy()."""
    with mpmath.workdps(DPS):
        if not d["ok"]:
            return mpf(0), mpf(0)
        plus = d["q1"] * (1 - _h2(min(d["e1"], mpf(0.5))))
        minus = mpf(f_ec) * d["q_u"] * _h2(d["e_u"])
        return max(mpf(0), plus - minus), max(plus, minus)


def click(mu_a: float, mu_b: float, t: float, p_dc: float):
    """Exactly-one-click probability, phase averaged, from the Bessel form."""
    with mpmath.workdps(DPS):
        mu_a, mu_b, t, p = mpf(mu_a), mpf(mu_b), mpf(t), mpf(p_dc)
        s = t * (mu_a + mu_b) / 2
        x = t * mpmath.sqrt(mu_a * mu_b)
        return 2 * (1 - p) * mpmath.exp(-s) * mpmath.besseli(0, x) \
            - 2 * (1 - p) ** 2 * mpmath.exp(-2 * s)


def click_quadrature(mu_a: float, mu_b: float, t: float, p_dc: float):
    """The same probability as the phase average itself, by quadrature."""
    with mpmath.workdps(DPS):
        mu_a, mu_b, t, p = mpf(mu_a), mpf(mu_b), mpf(t), mpf(p_dc)
        cross = 2 * mpmath.sqrt(mu_a * mu_b)

        def single(delta):
            p_c = 1 - (1 - p) * mpmath.exp(-t * (mu_a + mu_b + cross * mpmath.cos(delta)) / 2)
            p_d = 1 - (1 - p) * mpmath.exp(-t * (mu_a + mu_b - cross * mpmath.cos(delta)) / 2)
            return p_c * (1 - p_d) + p_d * (1 - p_c)

        return mpmath.quad(single, [0, mpmath.pi / 2, mpmath.pi]) / mpmath.pi


def sns(p, decoys, t, p_dc: float, e_phi: float, e_theta: float, f_ec: float) -> dict:
    """Window statistics, odd-parity pairing and both key rates (with scales)."""
    with mpmath.workdps(DPS):
        eps = mpf(p.epsilon)
        n_ss = eps**2 * click(p.mu_z, p.mu_z, t, p_dc)
        n_sn = eps * (1 - eps) * click(p.mu_z, p.mu_0, t, p_dc)
        n_nn = (1 - eps) ** 2 * click(p.mu_0, p.mu_0, t, p_dc)
        n_t = n_ss + 2 * n_sn + n_nn
        d = decoy(decoys, t, p_dc, e_theta, e_phi)
        n1 = 2 * eps * (1 - eps) * mpf(p.mu_z) * mpmath.exp(-mpf(p.mu_z)) * d["y1"]
        out = {"n_t": n_t, "e_z": (n_nn + n_ss) / n_t, "n1": n1, "e1": d["e1"], "ok": d["ok"]}
        n0, n1_bits = n_ss + n_sn, n_sn + n_nn
        e0, e1 = n_ss / n0, n_nn / n1_bits
        keep = (1 - e0) * (1 - e1) + e0 * e1
        n_t_prime = min(n0, n1_bits) * keep
        out.update(aopp_e_z=e0 * e1 / keep, aopp_n_t=n_t_prime, aopp_n1=n1 * n_t_prime / n_t)

        def rate(n1_, e1ph, n_t_, e_z):
            if n1_ <= 0:
                return mpf(0), mpf(0)
            plus = n1_ * (1 - _h2(min(e1ph, mpf(0.5))))
            minus = mpf(f_ec) * n_t_ * _h2(_clip(e_z))
            return mpf(p.p_z) ** 2 * max(mpf(0), plus - minus), mpf(p.p_z) ** 2 * max(plus, minus)

        out["rate"] = rate(n1 if d["ok"] else mpf(0), d["e1"], n_t, out["e_z"])
        out["aopp_rate"] = rate(out["aopp_n1"], d["e1"], n_t_prime, out["aopp_e_z"])
        return out


def cal_gain(gamma, sigma_phi: float, theta: float, p_d: float):
    with mpmath.workdps(DPS):
        g, p = mpf(gamma), mpf(p_d)
        om = mpmath.cos(mpf(sigma_phi)) * mpmath.cos(mpf(theta))
        return (1 - p) * (mpmath.exp(-g * om) + mpmath.exp(g * om)) * mpmath.exp(-g) / 2 \
            - (1 - p) ** 2 * mpmath.exp(-2 * g)


def cal_bit_error(gamma, sigma_phi: float, theta: float, p_d: float):
    with mpmath.workdps(DPS):
        g, p = mpf(gamma), mpf(p_d)
        om = mpmath.cos(mpf(sigma_phi)) * mpmath.cos(mpf(theta))
        num = mpmath.exp(-g * om) - (1 - p) * mpmath.exp(-g)
        return num / (mpmath.exp(-g * om) + mpmath.exp(g * om) - 2 * (1 - p) * mpmath.exp(-g))


@lru_cache(maxsize=None)
def _splitter(n_a: int, n_b: int) -> tuple:
    """Output distribution of |n_a, n_b> on a balanced splitter: expand
    (x + y)^n_a (x - y)^n_b in integers; coefficient k of x^m y^(n-m)
    gives k^2 m! (n-m)! / (2^n n_a! n_b!)."""
    poly = [1]
    for sign in (1,) * n_a + (-1,) * n_b:
        poly = [(poly[m - 1] if m > 0 else 0) + sign * (poly[m] if m < len(poly) else 0)
                for m in range(len(poly) + 1)]
    n = n_a + n_b
    norm = 2**n * math.factorial(n_a) * math.factorial(n_b)
    return tuple(Fraction(k * k * math.factorial(m) * math.factorial(n - m), norm)
                 for m, k in enumerate(poly))


def pair_c_only(n_a: int, n_b: int, t, p_d):
    """Probability that only detector c clicks for |n_a, n_b> through loss t."""
    c_only = mpf(0)
    for k_a in range(n_a + 1):
        for k_b in range(n_b + 1):
            w = (math.comb(n_a, k_a) * math.comb(n_b, k_b) * t ** (k_a + k_b)
                 * (1 - t) ** (n_a + n_b - k_a - k_b))
            dist = _splitter(k_a, k_b)
            tot = k_a + k_b
            click_c = 1 if tot > 0 else p_d  # only m_c = tot leaves d dark
            all_at_c = mpf(dist[tot].numerator) / dist[tot].denominator
            c_only += w * all_at_c * click_c * (1 - p_d)
    return c_only


def cal_phase_error(cp, gamma, theta: float, p_d: float):
    """Phase-error bound: per parity, coherent amplitudes times the square
    roots of the pair yields over the library's cat-sum sets, every other
    yield bounded by 1, a geometric tail bound beyond its last amplitude
    index, squared and over the aligned gain."""
    from tfqkd.cal import _M_MAX, _SETS

    with mpmath.workdps(DPS):
        mu, p = mpf(cp.mu_zeta), mpf(p_d)
        t = min(mpf(gamma) / mu, mpf(1))
        total = mpf(0)
        for j, sset in _SETS.items():
            amp = [mpmath.exp(-mu / 2) * mpmath.sqrt(mu ** (2 * m + j)
                                                     / mpmath.factorial(2 * m + j))
                   for m in range(_M_MAX + 1)]
            n = 2 * _M_MAX + j
            q = mu / mpmath.sqrt((n + 2) * (n + 1))
            amp_sum = mpmath.fsum(amp) + amp[-1] * q / (1 - q)
            explicit = overlap = mpf(0)
            for m_a, m_b in sset:
                y = pair_c_only(2 * m_a + j, 2 * m_b + j, t, p)
                explicit += amp[m_a] * amp[m_b] * mpmath.sqrt(y)
                overlap += amp[m_a] * amp[m_b]
            total += (explicit + amp_sum**2 - overlap) ** 2
        return total / cal_gain(gamma, 0.0, theta, p_d)


def cal_key(p_xx, e_x, e_z, f_ec: float) -> tuple:
    """(key per signal, scale) of the CAL protocol."""
    with mpmath.workdps(DPS):
        plus = 2 * p_xx
        minus = 2 * p_xx * (mpf(f_ec) * _h2(_clip(e_x)) + _h2(min(mpf(0.5), e_z)))
        return max(mpf(0), plus - minus), max(plus, minus)


def sweep_row(sid: int, detector: str, att_db: float) -> dict:
    """Reference value of every numeric column of a run_sweep row, keyed by
    its format_csv header name, for the default protocol parameters."""
    from tfqkd import DETECTORS, ProtocolParams
    from tfqkd.scenarios import builtin_scenario

    det, op, prot = DETECTORS[detector], builtin_scenario(sid).operating_point, ProtocolParams()
    eta = 10.0 ** (-att_db / 10.0)  # the sweep's own float transmittance
    with mpmath.workdps(DPS):
        eta_hat = mpf(eta) * mpf(det.eta_d)
        t = mpmath.sqrt(eta_hat)
        nu = mpf(det.clock_rate)
        duty = mpf(op.tau_q) / (mpf(op.tau_q) + mpf(op.tau_ps))
        e_theta = prot.misalignment.e_theta
        b = decoy(prot.decoys, eta_hat, det.p_dc, e_theta, op.e_phi)
        s = sns(prot.sns, prot.decoys, t, det.p_dc, op.e_phi, e_theta, prot.f_ec)
        gamma = t * mpf(prot.cal.mu_zeta)
        p_xx = cal_gain(gamma, op.sigma_phi, prot.misalignment.theta, det.p_dc)
        e_x = cal_bit_error(gamma, op.sigma_phi, prot.misalignment.theta, det.p_dc)
        e_z = cal_phase_error(prot.cal, gamma, prot.misalignment.theta, det.p_dc)
        inf = mpmath.inf
        return {
            "total_attenuation_db": mpf(att_db),
            "rate_bb84_bits_per_s": bb84_key(b, prot.f_ec)[0] * nu,
            "rate_sns_bits_per_s": s["rate"][0] * duty * nu,
            "rate_sns_aopp_bits_per_s": s["aopp_rate"][0] * duty * nu,
            "rate_cal_bits_per_s": cal_key(p_xx, e_x, e_z, prot.f_ec)[0] * duty * nu,
            "rate_plob_bits_per_s": plob(eta) * nu if eta < 1 else inf,
            "rate_plob_realistic_bits_per_s": plob(eta_hat) * nu if eta_hat < 1 else inf,
            "duty_cycle": duty, "sigma_phi_rad": mpf(op.sigma_phi), "e_phi": mpf(op.e_phi),
            "bb84_gain_u": b["q_u"], "bb84_qber_u": b["e_u"],
            "cal_e_x": e_x, "cal_e_z_bound": e_z, "cal_gain": p_xx,
            "sns_aopp_e_z": s["aopp_e_z"], "sns_e1ph_up": s["e1"], "sns_e_z": s["e_z"],
            "sns_n1_low": s["n1"], "sns_n_t": s["n_t"],
        }


def certify_keyrates(old_csv, new_csv) -> int:
    """Compare two versions of a key-rate golden value by value with the
    reference: print every moved value and return how many ended up
    farther from it (print ties apart)."""
    import csv

    found = re.search(r"scenario(\d+)_(snspd|spad)", str(new_csv))
    if found is None:
        raise ValueError("file name must contain scenario<id>_<snspd|spad>")
    sid, detector = int(found.group(1)), found.group(2)
    with open(old_csv, newline="") as fh:
        old = list(csv.reader(fh))
    with open(new_csv, newline="") as fh:
        new = list(csv.reader(fh))
    if old[0] != new[0] or [r[0] for r in old] != [r[0] for r in new]:
        raise ValueError("the two files have different columns or grids")
    header, worse = new[0], 0
    print("x,column,old,new,rel_err_old,rel_err_new,verdict")
    for row_old, row_new in zip(old[1:], new[1:]):
        moved = [(name, a, b) for name, a, b in zip(header, row_old, row_new) if a != b]
        ref = sweep_row(sid, detector, float(row_new[0])) if moved else {}
        for name, a, b in moved:
            if name not in ref:  # the flags column
                verdict, err_a, err_b = "farther", math.nan, math.nan
            else:
                with mpmath.workdps(DPS):
                    scale = abs(ref[name]) if ref[name] != 0 else mpf(1)
                    err_a = float(abs(mpf(float(a)) - ref[name]) / scale)
                    err_b = float(abs(mpf(float(b)) - ref[name]) / scale)
                verdict = "closer" if err_b < err_a \
                    else "tie" if err_b - err_a <= PRINT_TIE_RTOL else "farther"
            worse += verdict == "farther"
            print(f"{row_new[0]},{name},{a},{b},{err_a:.3e},{err_b:.3e},{verdict}")
    return worse


if __name__ == "__main__":
    import sys

    sys.exit(certify_keyrates(sys.argv[1], sys.argv[2]) > 0)
