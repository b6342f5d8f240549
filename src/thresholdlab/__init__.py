"""Threshold graphs: construction, recognition, spectra, and gap verification."""

from .graphs import (
    CreationSequence,
    DenseGraph,
    NotThreshold,
    NsgForm,
    WeightRealization,
    adjacency_from_edges,
    anti_regular,
    build_adjacency,
    complement,
    count_threshold,
    creation_to_nsg,
    enumerate_threshold,
    nsg_to_creation,
    nsg_to_graph,
    parse_creation_sequence,
    partition_classes,
    recognize,
    sequence_at,
    weight_realization,
)
from .spectra import (
    QuotientPair,
    Spectrum,
    TrivialMults,
    assemble_spectrum,
    count_eigs_leq,
    dense_spectrum,
    eta_extremes,
    quotient_matrix,
    symmetric_eigenvalues,
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
