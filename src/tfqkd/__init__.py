"""Twin-field QKD phase-noise and key-rate simulator.

Models the phase-noise budget of a twin-field link (lasers, cavities,
servo loops, fibers, topologies), converts noise spectra into phase
variance, transmission duty cycle and QBER, and evaluates asymptotic
secure key rates of decoy BB84, sending-or-not-sending (with odd-parity
pairing) and coherent-state phase-encoding protocols against the
repeaterless capacity bound.
"""

from .cal import (
    CalChannel,
    CalParams,
    FockYield,
    cal_bit_error,
    cal_gain,
    cal_phase_error,
    cal_rate,
    cat_coefficients,
    fock_pair_yield,
    make_cal_channel,
)
from .coherence import (
    CoherenceBudget,
    CoherenceResult,
    SigmaMap,
    duty_cycle,
    phase_variance,
    qber_from_variance,
    qber_small_angle,
    sigma_map,
    solve_tau_q,
)
from .config import FullConfig, dump_config, load_config, loads_config
from .decoy import (
    ChannelErrorModel,
    DecoyBounds,
    DecoySet,
    bb84_rate,
    binary_entropy,
    decoy_bounds,
    error_gain,
    gain,
    qber,
)
from .errors import ConfigError, DivergentIntegralError, DomainError, TfqkdError
from .link import (
    SNSPD,
    SPAD,
    ChannelParams,
    DetectorParams,
    LinkBudget,
    MisalignmentParams,
    arm_transmittance,
    balanced_link,
    effective_transmittance,
    link_from_attenuation,
    plob_bound,
)
from .oracle import (
    FixedDelta,
    GaussianSigma,
    McClickStats,
    McConfig,
    UniformRandomized,
    fock_bs_distribution,
    mc_click_stats,
    poisson_true_yields,
    poisson_yield_gain,
)
from .scenarios import (
    DETECTORS,
    PROTOCOL_NAMES,
    OperatingPoint,
    ProtocolParams,
    ScenarioPreset,
    SweepRow,
    SweepSpec,
    builtin_scenarios,
    canonical_operating_point,
    emit_csv,
    format_csv,
    run_sweep,
    solve_scenario,
)
from .sns import (
    AoppStats,
    SnsParams,
    SnsWindowStats,
    aopp_transform,
    effective_click_probability,
    sns_aopp_rate,
    sns_rate,
    sns_window_stats,
)
from .spectra import (
    CavityParams,
    FiberParams,
    LaserFreeParams,
    LaserSpec,
    LoopParams,
    Spectrum,
    TopologyConfig,
    TopologyKind,
    interference_spectrum,
    loop_gain,
    psd_cavity,
    psd_detection_floor,
    psd_fiber,
    psd_interference,
    psd_laser_free,
    psd_laser_stabilized,
)

__version__ = "0.1.0"
