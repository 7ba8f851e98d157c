"""Twin-field QKD phase-noise and key-rate simulator.

Models the phase-noise budget of a twin-field link (lasers, cavities,
servo loops, fibers, topologies), converts noise spectra into phase
variance, transmission duty cycle and QBER, and evaluates asymptotic
secure key rates of decoy BB84, sending-or-not-sending (with odd-parity
pairing) and coherent-state phase-encoding protocols against the
repeaterless capacity bound.  The package exports each module's __all__.
"""

from .cal import *
from .coherence import *
from .config import *
from .csvtext import *
from .decoy import *
from .errors import *
from .link import *
from .oracle import *
from .scenarios import *
from .sns import *
from .spectra import *

__version__ = "0.1.0"
