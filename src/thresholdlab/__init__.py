"""Threshold graphs: construction, recognition, spectra, and gap verification."""

from .graphs import (
    CreationSequence,
    NotThreshold,
    NsgForm,
    WeightRealization,
    anti_regular,
    build_adjacency,
    count_threshold,
    creation_to_nsg,
    enumerate_threshold,
    nsg_to_creation,
    parse_creation_sequence,
    recognize,
    sequence_at,
    sequence_edges,
    weight_realization,
)
from .spectra import (
    TrivialMults,
    assemble_spectrum,
    count_eigs_leq,
    eta_extremes,
    quotient_stack,
    trivial_multiplicities,
)
from .verify import (
    GAP_LOWER,
    GAP_UPPER,
    BoundsReport,
    GapReport,
    ReductionCase,
    ReductionStep,
    ScanReport,
    ScanRows,
    check_antiregular_bounds,
    check_gap,
    check_interlacing,
    check_reduction,
    reducing_vertex,
    reduction_chain,
    scan_conjecture,
    scan_gap,
)

__version__ = "0.1.0"
