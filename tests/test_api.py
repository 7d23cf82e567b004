"""The public names: every exported name resolves, and the package's surface
is pinned, so that any addition or removal shows up as a reviewed diff."""

import dataclasses
import importlib

import pytest

import hoisearch
from hoisearch.search import ProgressReport

MODULES = ["hoisearch", "hoisearch.subsets", "hoisearch.models", "hoisearch.search"]

PUBLIC_NAMES = [
    "DEFAULT_TOL",
    "EnumerationLimitError",
    "LowerBoundCheck",
    "Model",
    "NumericError",
    "ProgressReport",
    "Schedule",
    "SlitSet",
    "SweepResult",
    "UpperBoundCheck",
    "analytic_crossing_floor",
    "check_lower_bound",
    "check_upper_bound",
    "coherence_expansion",
    "decomposition_coefficient",
    "default_k_max",
    "enumerate_sectors",
    "identity_decomposition",
    "interference_order",
    "oracle_displacement",
    "quantum_grover_report",
    "random_schedule",
    "reflection_report",
    "run_experiment",
    "run_search",
    "scaling_sweep",
    "sign_flip_oracle",
    "signed_pairing_count_closed",
    "signed_pairing_counts",
]

# the surface of each layer, sorted; `SectorSpace`, the type of `Model.space`,
# is built by `Model` alone and is public in none of them
MODULE_NAMES = {
    "hoisearch.models": [
        "DEFAULT_TOL",
        "Model",
        "NumericError",
        "coherence_completeness_defect",
        "coherence_layout_defect",
        "haar_orthogonal",
        "interference_order",
        "sign_flip_oracle",
    ],
    "hoisearch.search": [
        "LOWER_BOUND_CONSTANT",
        "LowerBoundCheck",
        "MAX_DENSE_ENTRIES",
        "ProgressReport",
        "REPORT_CSV_COLUMNS",
        "SWEEP_CSV_COLUMNS",
        "Schedule",
        "SweepResult",
        "SweepRow",
        "UpperBoundCheck",
        "analytic_crossing_floor",
        "check_lower_bound",
        "check_upper_bound",
        "default_k_max",
        "oracle_displacement",
        "quantum_grover_report",
        "random_schedule",
        "reflection_report",
        "reports_to_json",
        "run_experiment",
        "run_search",
        "scaling_sweep",
        "sweep_to_json",
        "write_report_csv",
        "write_sweep_csv",
    ],
    "hoisearch.subsets": [
        "EnumerationLimitError",
        "MAX_PAIR_ENUMERATION",
        "MAX_UNIVERSE",
        "SlitSet",
        "coherence_expansion",
        "decomposition_coefficient",
        "enumerate_sectors",
        "identity_decomposition",
        "signed_pairing_count_closed",
        "signed_pairing_counts",
    ],
}

# deleted, or moved into the tests' reference module
REMOVED_NAMES = [
    "make_schedule",
    "diffusion_unitary",
    "model_from_descriptor",
    "verify_coherence_completeness",
    "verify_coherence_orthogonality",
    "signed_pairing_count",
    "grover_schedule",
    "reflection_schedule",
    "conjugate_rows",
    "lift_superoperator",
    "lift_unitary_conjugation",
    "coherence_from_slit_projectors",
    "SignedSubsetCombination",
    "build_sector_space",
    "layout_dim",
    "uniform_block_weights",
    "descriptor_from_spec",
    "verify_oracle",
    "OracleCheck",
    "coherence_orthogonality_defects",
    "coherence_projector",
    "embed_density",
    "unembed_density",
    "build_model",
    "classical_model",
    "quantum_model",
    "synthetic_model",
    "model_order",
    "default_dims_per_size",
    "slit_projector",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_public_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_surface_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert hoisearch.__all__ == PUBLIC_NAMES
    assert not hasattr(hoisearch, "SectorSpace")


@pytest.mark.parametrize("module_name", sorted(MODULE_NAMES))
def test_module_surface_is_pinned(module_name):
    names = MODULE_NAMES[module_name]
    assert names == sorted(names)
    assert sorted(importlib.import_module(module_name).__all__) == names


@pytest.mark.parametrize("module_name", MODULES)
def test_removed_names_do_not_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []


def test_report_fields_are_pinned():
    # per-k arrays and the run's spec only: no per-item array
    assert [f.name for f in dataclasses.fields(ProgressReport)] == [
        "descriptor",
        "strategy",
        "seed",
        "n_slits",
        "order",
        "marked",
        "k",
        "divergence",
        "upper_bound",
        "gap_with_oracle",
        "gap_without_oracle",
        "pair_lower_bound",
        "success_mean",
        "success_min",
    ]
