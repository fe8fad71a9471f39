"""Community detection in non-uniform hypergraphs.

Bethe Hessian spectral clustering, belief propagation under the symmetric
hypergraph stochastic block model, detectability calculators (spectral and
message-passing signal-to-noise ratios with their critical thresholds), and
an experiment harness for phase-transition and order/shape trade-off sweeps.
scipy is imported inside the functions that build or solve an operator, so
BP, the generators and file I/O run without loading it.
"""

from .bp import BpConfig, BpResult, BpState, bp_init, bp_run, bp_sweep, external_field, hyperedge_message
from .detectability import (
    SnrReport,
    coarse_snr,
    competing_snrs,
    critical_epsilon,
    degrees_from_rates,
    pair_rate_matrix,
    snr_bh,
    snr_bp,
    snr_report,
    switching_rho,
    uniform_critical_epsilon,
)
from .experiments import (
    ExperimentConfig,
    crossing_points,
    run,
    run_eps_sweep,
    run_order_sweep,
    run_shape_sweep,
    run_spectrum,
    transition_point,
)
from .hsbm import (
    PlantedPattern,
    PlantedPatternSpec,
    SymmetricHsbmSpec,
    order_experiment_spec,
    rates_from_mean_degree,
    sample_planted,
    sample_symmetric,
    shape_experiment_spec,
    spec_from_json,
)
from .hypergraph import (
    DegreeStats,
    Hypergraph,
    HypergraphError,
    Partition,
    load_hyperedge_list,
    load_partition,
    save_hyperedge_list,
    save_partition,
)
from .metrics import ami, confusion, contingency, expected_mutual_information, hyperedge_composition, mutual_information
from .nonbacktracking import (
    CostReport,
    NonBacktracking,
    bethe_singularity,
    nonbacktracking_matrix,
    operator_cost,
    real_eigenvalues_outside_bulk,
)
from .sparsesym import SparseSymMatrix
from .spectral import (
    BetheHessian,
    SpectralConfig,
    SpectralError,
    SpectralResult,
    bethe_hessian,
    bulk_radius,
    count_negative_eigenvalues,
    kmeans,
    lowest_eigenpairs,
    spectral_cluster,
)

__version__ = "0.1.0"
