"""Channel budget, detector figures of merit and the repeaterless key-capacity bound."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fields import Checked, _checker, spec
from .decoy import ChannelErrorModel, _scalars
from .errors import DomainError

__all__ = [
    "DetectorParams",
    "MisalignmentParams",
    "SNSPD",
    "SPAD",
    "balanced_link",
    "link_from_attenuation",
    "effective_transmittance",
    "arm_transmittance",
    "plob_bound",
]


@dataclass(frozen=True)
class DetectorParams(Checked):
    """Single-photon detector: efficiency, dark rate (Hz) and source clock (Hz)."""

    eta_d: float = field(metadata=spec(float, gt=0, le=1))
    dark_rate: float = field(metadata=spec(float, ge=0))
    clock_rate: float = field(default=1e9, metadata=spec(float, gt=0))

    def __post_init__(self):
        super().__post_init__()
        if not self.p_dc < 1.0:
            raise DomainError("dark counts per signal must lie in [0, 1)")

    @property
    def p_dc(self) -> float:
        """Dark counts per transmitted signal."""
        return self.dark_rate / self.clock_rate


# the field contract's checkers of the link functions' arguments
_TOTAL_DB = _checker(spec(float, ge=0, finite=False, array=True), "total_db")
_ETA = _checker(spec(float, ge=0, le=1, array=True), "eta")
_ETA_HAT = _checker(spec(float, ge=0, le=1, array=True), "eta_hat")
_PLOB_ETA = _checker(spec(float, ge=0, lt=1, array=True), "eta")
_L_A = _checker(spec(float, ge=0, array=True), "l_a")
_ALPHA, _A_PLUS = (_checker(spec(float, ge=0), name) for name in ("alpha", "a_plus"))
_DETECTOR = _checker(spec(DetectorParams), "det")


def _sequence_as_array(x):
    """x, or the array numpy makes of it where it is a list or tuple."""
    return np.asarray(x) if isinstance(x, (list, tuple)) else x


SNSPD = DetectorParams(eta_d=0.9, dark_rate=10.0)
SPAD = DetectorParams(eta_d=0.25, dark_rate=50.0)


@dataclass(frozen=True)
class MisalignmentParams(Checked):
    """Polarization misalignment expressed as the error it induces."""

    e_theta: float = field(default=ChannelErrorModel.e_theta, metadata=spec(float, ge=0, le=0.5))

    @property
    def theta(self) -> float:
        """Misalignment angle in rad, from e = sin(theta/2)^2."""
        return 2.0 * np.arcsin(np.sqrt(self.e_theta))


def balanced_link(l_a, alpha, a_plus):
    """Total transmittance of a link balanced at the middle node.

    The lossier arm (length l_a in km, an array in the sweeps, plus the
    instrumentation loss a_plus in dB) sets the pace; the other arm is
    padded to match, so the total loss is 2 (alpha l_a + a_plus) dB.
    """
    l_a, alpha, a_plus = _L_A(_sequence_as_array(l_a)), _ALPHA(alpha), _A_PLUS(a_plus)
    return link_from_attenuation(2.0 * (alpha * l_a + a_plus))


def link_from_attenuation(total_db):
    """Total transmittance 10^(-dB/10) of each end-to-end loss in dB, each
    a Python float power: numpy's array power differs from it in the last
    bit on some inputs."""
    db = np.asarray(_TOTAL_DB(_sequence_as_array(total_db)), dtype=float)
    eta = [10.0 ** (-a / 10.0) for a in db.ravel().tolist()]
    return _scalars(np.array(eta).reshape(db.shape))


def effective_transmittance(eta, det: DetectorParams):
    """Total transmittance including detector efficiency; eta may be an array."""
    return _ETA(eta) * _DETECTOR(det).eta_d


def arm_transmittance(eta_hat):
    """Per-arm effective transmittance used by the twin-field protocols.

    The detector efficiency is shared evenly between the arms: from the
    full effective transmittance eta_hat = eta * eta_d (see
    effective_transmittance), t = sqrt(eta_hat), so the product of the two
    arms equals eta_hat.  eta_hat may be an array.
    """
    return np.sqrt(_ETA_HAT(_sequence_as_array(eta_hat)))


def plob_bound(eta):
    """Repeaterless secret-key capacity -log2(1 - eta) in bits per signal,
    as -log1p(-eta)/ln 2, which keeps its digits at small eta where
    1 - eta rounds to 1."""
    eta = _PLOB_ETA(eta)
    return _scalars(-np.log1p(-eta) / math.log(2.0))
