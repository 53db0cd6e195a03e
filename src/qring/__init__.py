"""Quantum states on a circle: circular position observables, uncertainty
relations, and von Mises minimum wave packets.

Names not exported here live in their submodules.
"""

from .errors import (
    DegenerateStateError,
    QringError,
    ResolutionError,
    UnsupportedStateError,
)
from .mwp import mwp_x, mwp_y, verify_packet
from .observables import sigma_lz, sigma_total
from .state import (
    CircleState,
    Config,
    dump_state,
    from_fourier,
    load_state,
    random_state,
)
from .uncertainty import (
    check_fujikawa,
    check_total_ur,
    check_ur_x,
    check_ur_y,
    detect_fold_symmetry,
)

__version__ = "0.1.0"

__all__ = [
    "CircleState",
    "Config",
    "DegenerateStateError",
    "QringError",
    "ResolutionError",
    "UnsupportedStateError",
    "check_fujikawa",
    "check_total_ur",
    "check_ur_x",
    "check_ur_y",
    "detect_fold_symmetry",
    "dump_state",
    "from_fourier",
    "load_state",
    "mwp_x",
    "mwp_y",
    "random_state",
    "sigma_lz",
    "sigma_total",
    "verify_packet",
]
