"""Cat states of superfluid flow on a phase-twisted three-site ring.

The package builds Bose-Hubbard ring Hamiltonians in the site and flow-mode
bases, extracts the effective two-level physics at the flow-state crossing
(elimination of intermediate states, coupling paths, analytic ratio of cat
amplitudes), and provides a continuum loop-with-barrier comparison model.
"""

from .basis import (
    FockBasis,
    Occupation,
    embed_single_flow,
    enumerate_fock,
    mode_transform_matrix,
    quasimomentum_labels,
    quasimomentum_sector,
)
from .catmetrics import (
    CatMetrics,
    CatScanTable,
    cat_amplitudes,
    catscan,
    crossing_pair_state,
    ground_cat_metrics,
)
from .effective import (
    CouplingGraph,
    EffectiveTable,
    LowdinResult,
    TwoLevelModel,
    build_coupling_graph,
    default_flow_targets,
    effective_point,
    effective_report,
    epsilon_of_phi,
    lowdin_coupling,
    path_coupling,
    path_normalisation,
    two_level_predict,
)
from .errors import (
    ConfigError,
    InvalidModeError,
    InvalidOccupationError,
    NearResonantIntermediateError,
    NumericalContractError,
    RingcatError,
    UnsupportedConfigurationError,
)
from .hamiltonians import (
    HermitianOperator,
    ModelParams,
    PhaseSweep,
    build_flow_hamiltonian,
    build_site_hamiltonian,
    flow_hamiltonian_by_conjugation,
    flow_sweep,
    site_sweep,
)
from .loopmodel import (
    LoopCouplingResult,
    LoopParams,
    LoopTable,
    applied_phase_velocity,
    delta_interaction_expectation,
    loop_coupling_v01,
    loop_single_energy,
    loop_spectrum_with_barrier,
    loop_sweep,
    single_flow_energy,
)
from .solver import EigenResult, SpectrumTable, eigensolve, spectrum_sweep

__version__ = "0.1.0"
