"""The public names: every exported name resolves, and the package's surface
is pinned, so that any addition or removal shows up as a reviewed diff."""

import importlib

import pytest

import hoisearch

MODULES = ["hoisearch", "hoisearch.subsets", "hoisearch.models", "hoisearch.search"]

PUBLIC_NAMES = [
    "DEFAULT_TOL",
    "EnumerationLimitError",
    "LowerBoundCheck",
    "Model",
    "NumericError",
    "ProgressReport",
    "Schedule",
    "SectorSpace",
    "SlitSet",
    "SweepResult",
    "UpperBoundCheck",
    "analytic_crossing_floor",
    "build_model",
    "check_lower_bound",
    "check_upper_bound",
    "classical_model",
    "coherence_expansion",
    "coherence_projector",
    "decomposition_coefficient",
    "default_k_max",
    "embed_density",
    "enumerate_sectors",
    "identity_decomposition",
    "interference_order",
    "oracle_displacement",
    "quantum_grover_report",
    "quantum_model",
    "random_schedule",
    "reflection_report",
    "run_experiment",
    "run_search",
    "scaling_sweep",
    "sign_flip_oracle",
    "signed_pairing_count_closed",
    "signed_pairing_counts",
    "slit_projector",
    "synthetic_model",
    "unembed_density",
]

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


@pytest.mark.parametrize("module_name", MODULES)
def test_removed_names_do_not_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []
