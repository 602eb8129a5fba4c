"""Numerical cheating analysis for bit commitment protocols given as Kraus pairs.

A protocol is a labelled pair of Kraus families over the same spaces, one
family per bit value. The package brackets how well Bob can distinguish the
two channels, estimates how well Alice can reopen a commitment as the other
bit, checks the inequalities tying the two together, and scans protocol
families to trace the trade-off curve.
"""

__version__ = "0.1.0"

from .errors import (
    BracketInversionError,
    CommitmentError,
    ProtocolFileError,
    ProtocolValidationError,
    SpectralDecompositionError,
)
from .protocol import (
    Dilation,
    KrausFamily,
    ProtocolSpec,
    SecretStructure,
    ValidationReport,
    align_families,
    apply_channel,
    apply_cheat_unitary,
    apply_extended_channel,
    choi,
    choi_distance,
    dilate,
    require_valid,
    validate,
)
from .families import (
    FAMILY_REGISTRY,
    concealing_pair,
    decoy_protocol,
    dephasing_protocol,
    identity_protocol,
    phase_flip_pair,
    random_kraus_family,
    random_protocol,
)
from .concealment import (
    ConcealmentReport,
    analyze_concealment,
    cb_lower_bound,
    cb_upper_bound,
    helstrom_prob,
)
from .binding import (
    BindingReport,
    alice_cheat_prob,
    min_over_states,
    minimax_cheat,
)
from .bounds import (
    BoundCheck,
    EpsilonDeltaPoint,
    GapResult,
    ScanBudgets,
    ScanResult,
    bounds_report,
    check_bounds,
    epsilon_delta_scan,
    kraus_gap,
    kraus_gap_operator,
    minimize_kraus_gap,
    payoff_floor,
    scan_to_csv,
)
from .fileio import (
    dump_json,
    jsonable,
    load_protocol,
    load_scan_config,
    parse_protocol,
    serialize_protocol,
    write_protocol_file,
)

__all__ = [
    "__version__",
    "BindingReport",
    "BoundCheck",
    "BracketInversionError",
    "CommitmentError",
    "ConcealmentReport",
    "Dilation",
    "EpsilonDeltaPoint",
    "FAMILY_REGISTRY",
    "GapResult",
    "KrausFamily",
    "ProtocolFileError",
    "ProtocolSpec",
    "ProtocolValidationError",
    "ScanBudgets",
    "ScanResult",
    "SecretStructure",
    "SpectralDecompositionError",
    "ValidationReport",
    "alice_cheat_prob",
    "align_families",
    "analyze_concealment",
    "apply_channel",
    "apply_cheat_unitary",
    "apply_extended_channel",
    "bounds_report",
    "cb_lower_bound",
    "cb_upper_bound",
    "check_bounds",
    "choi",
    "choi_distance",
    "concealing_pair",
    "decoy_protocol",
    "dephasing_protocol",
    "dilate",
    "dump_json",
    "epsilon_delta_scan",
    "helstrom_prob",
    "identity_protocol",
    "jsonable",
    "kraus_gap",
    "kraus_gap_operator",
    "load_protocol",
    "load_scan_config",
    "min_over_states",
    "minimax_cheat",
    "minimize_kraus_gap",
    "parse_protocol",
    "payoff_floor",
    "phase_flip_pair",
    "random_kraus_family",
    "random_protocol",
    "require_valid",
    "scan_to_csv",
    "serialize_protocol",
    "validate",
    "write_protocol_file",
]
