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

from types import ModuleType as _ModuleType

from ._version import __version__
from .subsets import (
    EnumerationLimitError,
    SlitSet,
    coherence_expansion,
    decomposition_coefficient,
    enumerate_sectors,
    identity_decomposition,
    signed_pairing_counts,
    signed_pairing_count_closed,
)
from .models import (
    DEFAULT_TOL,
    Model,
    NumericError,
    interference_order,
    sign_flip_oracle,
)
from .search import (
    LowerBoundCheck,
    ProgressReport,
    Schedule,
    SweepResult,
    UpperBoundCheck,
    analytic_crossing_floor,
    check_lower_bound,
    check_upper_bound,
    default_k_max,
    oracle_displacement,
    quantum_grover_report,
    random_schedule,
    reflection_report,
    run_experiment,
    run_search,
    scaling_sweep,
)

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
