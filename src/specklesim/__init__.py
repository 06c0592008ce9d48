"""Desk-scale simulator of programmable two-photon interference in
multiple-scattering media.

A random transmission matrix stands in for the medium, phase-only
wavefront shaping programs a 2x2 splitter with a chosen relative phase
into it, and the two-photon output statistics (a closed form behind the
delay scans and Monte Carlo counting, with unitary completion and
permanents as its oracle) reproduce the interference laws of that circuit.
"""

__version__ = "0.15.0"

from .medium import (
    MatrixKind,
    TransmissionMatrix,
    gaussian_transmission_matrix,
    haar_unitary,
    load_matrix,
    save_matrix,
)
from .shaping import (
    ClassicalScan,
    DegenerateFitError,
    PhasePattern,
    ProgrammedCircuit,
    classical_scan,
    combine_patterns,
    effective_circuit,
    fit_sine,
    ideal_circuit,
    mode_templates,
    optimize_pattern,
    phase_distance,
)
from .twophoton import (
    OUTCOME_LABELS,
    SOURCE_PRESETS,
    CoincidenceScan,
    EmbeddabilityError,
    PhotonPairSource,
    UndefinedVisibilityError,
    VisibilityResult,
    embeddability_bound,
    hom_scan,
    montecarlo_counts,
    outcome_probabilities,
    overlap_from_delay,
    pair_outcome_components,
    permanent,
    source_preset,
    visibility,
)
from .oracles import outcome_distribution, shaped_input, transmit, two_photon_coincidence, unitary_completion
from .experiments import (
    AlphaScanResult,
    EnhancementRow,
    ScenarioConfig,
    fit_visibility_cosine,
    run_alpha_scan,
    run_enhancement_study,
)
