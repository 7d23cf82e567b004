"""Sector-decomposed state spaces, coherence projectors, and search bounds.

The package splits into four layers:

* `hoisearch.subsets` - exact integer combinatorics on the slit-subset
  lattice (decomposition coefficients, inclusion-exclusion expansions,
  signed pairing counts);
* `hoisearch.models` - concrete classical / quantum / synthetic models with
  their projector algebra, search oracles, and verification helpers;
* `hoisearch.search` - search trajectories, progress measures, query-count
  bounds, and scaling sweeps;
* `hoisearch.cli` - the ``hoisearch`` command with the verify / search /
  bound / sweep subcommands.
"""

from ._version import __version__
from .subsets import (
    EnumerationLimitError,
    SignedSubsetCombination,
    SlitSet,
    coherence_expansion,
    decomposition_coefficient,
    enumerate_sectors,
    identity_decomposition,
    signed_pairing_count,
    signed_pairing_counts,
    signed_pairing_count_closed,
)
from .models import (
    DEFAULT_TOL,
    Model,
    NumericError,
    OracleCheck,
    SectorSpace,
    StateVector,
    build_model,
    build_sector_space,
    classical_model,
    coherence_from_slit_projectors,
    coherence_projector,
    embed_density,
    inner,
    interference_order,
    lift_superoperator,
    lift_unitary_conjugation,
    model_from_descriptor,
    quantum_model,
    sign_flip_oracle,
    slit_projector,
    synthetic_model,
    unembed_density,
    verify_coherence_completeness,
    verify_coherence_orthogonality,
    verify_oracle,
)
from .search import (
    LowerBoundCheck,
    ProgressReport,
    Schedule,
    SweepResult,
    TrajectoryPair,
    UpperBoundCheck,
    analytic_crossing_floor,
    check_lower_bound,
    check_upper_bound,
    default_k_max,
    grover_schedule,
    make_schedule,
    oracle_displacement,
    progress_measures,
    quantum_grover_report,
    random_schedule,
    reflection_schedule,
    run_experiment,
    run_search,
    scaling_sweep,
    success_probability,
    uniform_start,
)

__all__ = [name for name in dir() if not name.startswith("_")]
