"""Channel budget, detector figures of merit and the repeaterless key-capacity bound."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .decoy import _scalars
from .errors import DomainError

__all__ = [
    "ChannelParams",
    "DetectorParams",
    "MisalignmentParams",
    "LinkBudget",
    "SNSPD",
    "SPAD",
    "balanced_link",
    "link_from_attenuation",
    "effective_transmittance",
    "arm_transmittance",
    "plob_bound",
]


@dataclass(frozen=True)
class ChannelParams:
    """Fiber channel: attenuation coefficient alpha (dB/km), instrumentation
    loss a_plus (dB) charged to the longer arm, and arm lengths in km."""

    alpha: float = 0.2
    a_plus: float = 0.0
    l_a: float = 114.0
    l_b: float = 114.0

    def __post_init__(self):
        if self.alpha < 0 or self.a_plus < 0:
            raise DomainError("attenuation terms must be >= 0")
        if not (self.l_a >= self.l_b >= 0):
            raise DomainError("arm lengths must satisfy l_a >= l_b >= 0")


@dataclass(frozen=True)
class DetectorParams:
    """Single-photon detector: efficiency, dark rate (Hz) and source clock (Hz)."""

    eta_d: float
    dark_rate: float
    clock_rate: float = 1e9

    def __post_init__(self):
        if not 0.0 < self.eta_d <= 1.0:
            raise DomainError("detector efficiency must lie in (0, 1]")
        if self.dark_rate < 0 or not 0 < self.clock_rate < np.inf:
            raise DomainError("dark rate must be >= 0 and clock rate finite and > 0")
        if not 0.0 <= self.p_dc < 1.0:
            raise DomainError("dark counts per signal must lie in [0, 1)")

    @property
    def p_dc(self) -> float:
        """Dark counts per transmitted signal."""
        return self.dark_rate / self.clock_rate


SNSPD = DetectorParams(eta_d=0.9, dark_rate=10.0, clock_rate=1e9)
SPAD = DetectorParams(eta_d=0.25, dark_rate=50.0, clock_rate=1e9)


@dataclass(frozen=True)
class MisalignmentParams:
    """Polarization misalignment expressed as the error it induces."""

    e_theta: float = 0.02

    def __post_init__(self):
        if not 0.0 <= self.e_theta <= 0.5:
            raise DomainError("misalignment error must lie in [0, 0.5]")

    @property
    def theta(self) -> float:
        """Misalignment angle in rad, from e = sin(theta/2)^2."""
        return 2.0 * np.arcsin(np.sqrt(self.e_theta))


@dataclass(frozen=True)
class LinkBudget:
    """Balanced-link transmittances: total eta, per-arm eta_arm, effective length."""

    eta: float
    eta_arm: float
    l_eff_km: float


def balanced_link(ch: ChannelParams) -> LinkBudget:
    """Transmittance budget after balancing the arms at the middle node.

    The lossier arm (length l_a plus instrumentation loss) sets the pace;
    the other arm is padded to match, so the total loss is twice that
    arm's and the effective length is 2 l_a.
    """
    budget = link_from_attenuation(_balanced_db(ch.alpha, ch.a_plus, ch.l_a))
    return replace(budget, l_eff_km=2.0 * ch.l_a)


def _balanced_db(alpha, a_plus, l_a):
    """Total loss in dB of a balanced link whose lossier arm has length
    l_a (an array in the sweeps): 2 (alpha l_a + a_plus)."""
    return 2.0 * (alpha * l_a + a_plus)


def link_from_attenuation(total_db: float) -> LinkBudget:
    """Budget for a given total (end-to-end) attenuation in dB, arms balanced."""
    if total_db < 0:
        raise DomainError("attenuation must be >= 0 dB")
    eta = _transmittance([total_db]).item()
    return LinkBudget(eta=eta, eta_arm=math.sqrt(eta), l_eff_km=float("nan"))


def _transmittance(total_db) -> np.ndarray:
    """10^(-dB/10) of each loss, each a Python float power: numpy's array
    power differs from it in the last bit on some inputs."""
    return np.array([10.0 ** (-a / 10.0) for a in np.asarray(total_db, dtype=float).tolist()])


def effective_transmittance(eta, det: DetectorParams):
    """Total transmittance including detector efficiency; eta may be an array."""
    if not np.all((0.0 <= eta) & (eta <= 1.0)):
        raise DomainError("transmittance must lie in [0, 1]")
    return eta * det.eta_d


def arm_transmittance(eta_hat):
    """Per-arm effective transmittance used by the twin-field protocols.

    The detector efficiency is shared evenly between the arms: from the
    full effective transmittance eta_hat = eta * eta_d (see
    effective_transmittance), t = sqrt(eta_hat), so the product of the two
    arms equals eta_hat.  eta_hat may be an array.
    """
    if not np.all((0.0 <= eta_hat) & (eta_hat <= 1.0)):
        raise DomainError("effective transmittance must lie in [0, 1]")
    return np.sqrt(eta_hat)


def plob_bound(eta):
    """Repeaterless secret-key capacity -log2(1 - eta) in bits per signal,
    as -log1p(-eta)/ln 2, which keeps its digits at small eta where
    1 - eta rounds to 1."""
    if not np.all((0.0 <= eta) & (eta < 1.0)):
        raise DomainError("plob_bound requires eta in [0, 1)")
    return _scalars(-np.log1p(-eta) / math.log(2.0))
