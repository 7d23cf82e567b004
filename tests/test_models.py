"""Model, projector, and embedding tests.

The quantum expectations are checked against brute-force density-matrix
computations (Hilbert-Schmidt traces, explicit sandwiches); the projector
algebra is checked as matrix identities, not assumed from the construction.
"""

import json

import numpy as np
import pytest

from hoisearch.models import (
    LinearMap,
    StateVector,
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
    coherence_orthogonality_defects,
)
from hoisearch.search import random_schedule
from hoisearch.subsets import SlitSet


def s(members, universe):
    return SlitSet(tuple(members), universe)


def random_density(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Sector spaces
# ---------------------------------------------------------------------------

def test_build_sector_space_dimensions():
    assert build_sector_space(3, 2, {1: 1, 2: 2}).total_dim == 9
    assert build_sector_space(4, 1, {1: 1}).total_dim == 4
    assert build_sector_space(4, 3, {1: 1, 2: 1, 3: 1}).total_dim == 14


def test_build_sector_space_offsets_partition():
    space = build_sector_space(4, 2, {1: 1, 2: 3})
    seen = np.zeros(space.total_dim, dtype=int)
    for sector in space.sectors:
        sl = space.sector_slice(sector)
        seen[sl] += 1
    assert np.all(seen == 1)


def test_build_sector_space_validation():
    with pytest.raises(ValueError):
        build_sector_space(3, 2, {1: 1})  # missing size-2 dimension
    with pytest.raises(ValueError):
        build_sector_space(3, 2, {1: 1, 2: 0})
    with pytest.raises(ValueError):
        build_sector_space(3, 4, {1: 1, 2: 1, 3: 1, 4: 1})


def test_state_vector_validation_and_views():
    model = quantum_model(3)
    state = model.uniform_state
    block = state.sector_component(s([0, 1], 3))
    assert block.shape == (2,)
    with pytest.raises(ValueError):
        StateVector(model.space, np.zeros(5))


def test_linear_map_representations():
    space = build_sector_space(3, 1, {1: 1})
    with pytest.raises(ValueError):
        LinearMap(space)
    diag = LinearMap(space, diag=np.array([1.0, -1.0, 1.0]))
    dense = LinearMap(space, np.eye(3))
    assert np.allclose(diag.matrix, np.diag([1.0, -1.0, 1.0]))
    assert (diag @ diag).diagonal is not None
    assert (diag @ dense).diagonal is None
    assert diag.orthogonality_defect() == 0.0
    rows = np.arange(6.0).reshape(2, 3)
    assert np.allclose(diag.apply_rows(rows), rows * diag.diagonal)


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------

def test_classical_model_basics():
    model = classical_model(4)
    for i, basis in enumerate(model.basis_states):
        expected = np.zeros(4)
        expected[i] = 1.0
        assert np.array_equal(basis.coords, expected)
    assert model.uniform_state.norm() == pytest.approx(0.5, abs=1e-12)
    assert interference_order(model) == 1


def test_quantum_model_basics():
    model = quantum_model(3)
    assert np.array_equal(
        model.basis_states[0].coords, np.array([1, 0, 0, 0, 0, 0, 0, 0, 0.0])
    )
    assert model.uniform_state.norm() == pytest.approx(1.0, abs=1e-12)
    model4 = quantum_model(4)
    assert inner(model4.basis_states[2], model4.uniform_state) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        quantum_model(1)


def test_quantum_embedding_round_trip_and_hs_inner():
    model = quantum_model(4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho, sigma = random_density(4, rng), random_density(4, rng)
        assert np.max(np.abs(unembed_density(model, embed_density(model, rho)) - rho)) < 1e-12
        hs = np.trace(rho @ sigma).real  # brute-force Hilbert-Schmidt pairing
        assert inner(embed_density(model, rho), embed_density(model, sigma)) == pytest.approx(
            hs, abs=1e-12
        )


def test_quantum_pure_states_have_unit_norm():
    model = quantum_model(5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        vec = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        vec /= np.linalg.norm(vec)
        state = embed_density(model, np.outer(vec, vec.conj()))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_synthetic_model_uniform_state():
    model = synthetic_model(4, 2)
    higher = model.uniform_state.coords[4:]
    assert np.allclose(higher, 0.35355339059327373)
    assert model.uniform_state.norm() == pytest.approx(1.0, abs=1e-12)
    for n, h in [(4, 2), (5, 3), (4, 4), (6, 1)]:
        m = synthetic_model(n, h)
        for x in range(n):
            assert inner(m.basis_states[x], m.uniform_state) == pytest.approx(1.0 / n)


def test_synthetic_model_full_order_has_full_sector_weight():
    model = synthetic_model(3, 3)
    full = model.uniform_state.sector_component(s([0, 1, 2], 3))
    assert full[0] > 0


def test_synthetic_model_order_one_is_classically_mixed():
    model = synthetic_model(4, 1)
    assert model.uniform_state.norm() == pytest.approx(0.5, abs=1e-12)


def test_basis_states_are_orthonormal_everywhere():
    for model in (classical_model(5), quantum_model(4), synthetic_model(5, 3)):
        for i, a in enumerate(model.basis_states):
            for j, b in enumerate(model.basis_states):
                assert inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_inner_rejects_space_mismatch():
    with pytest.raises(ValueError):
        inner(classical_model(3).uniform_state, classical_model(4).uniform_state)


def test_model_descriptor_round_trip():
    for model in (classical_model(3), quantum_model(4), synthetic_model(5, 3)):
        clone = model_from_descriptor(json.loads(model.descriptor_json()))
        assert clone.kind == model.kind
        assert clone.space == model.space
        assert np.array_equal(clone.uniform_state.coords, model.uniform_state.coords)


# ---------------------------------------------------------------------------
# Projector algebra
# ---------------------------------------------------------------------------

MODELS = [classical_model(5), quantum_model(4), synthetic_model(5, 3)]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_slit_projector_laws(model):
    n = model.n_slits
    rng = np.random.default_rng(3)
    subsets = [s(rng.choice(n, size=rng.integers(0, n + 1), replace=False), n) for _ in range(12)]
    subsets += [s(range(n), n), s([], n), s([0], n)]
    for left in subsets:
        p_left = slit_projector(model, left).diagonal
        assert np.array_equal(p_left * p_left, p_left)  # idempotent, exactly
        for right in subsets:
            p_right = slit_projector(model, right).diagonal
            p_meet = slit_projector(model, left.intersection(right)).diagonal
            assert np.array_equal(p_left * p_right, p_meet), (left, right)
    full = slit_projector(model, s(range(n), n)).diagonal
    assert np.array_equal(full, np.ones(model.space.total_dim))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_coherence_projector_matches_formal_expansion(model):
    for sector in model.space.sectors:
        direct = coherence_projector(model, sector).diagonal
        expanded = coherence_from_slit_projectors(model, sector).diagonal
        assert np.array_equal(direct, expanded), sector


def test_qutrit_slit_projector_zeroes_blocked_row_and_column():
    model = quantum_model(3)
    rng = np.random.default_rng(5)
    rho = random_density(3, rng)
    projected = unembed_density(
        model, slit_projector(model, s([0, 1], 3)).apply(embed_density(model, rho))
    )
    expected = rho.copy()
    expected[2, :] = 0.0
    expected[:, 2] = 0.0
    assert np.max(np.abs(projected - expected)) < 1e-12


def test_qutrit_coherence_projector_keeps_only_the_pair_coherence():
    model = quantum_model(3)
    rng = np.random.default_rng(6)
    rho = random_density(3, rng)
    kept = unembed_density(
        model, coherence_projector(model, s([0, 1], 3)).apply(embed_density(model, rho))
    )
    expected = np.zeros_like(rho)
    expected[0, 1] = rho[0, 1]
    expected[1, 0] = rho[1, 0]
    assert np.max(np.abs(kept - expected)) < 1e-12


def test_quantum_slit_projectors_match_true_sandwich():
    # the block construction must coincide with the lifted rho -> P rho P
    for n in (3, 4):
        model = quantum_model(n)
        base = s(range(n), n)
        for subset in base.subsets(include_empty=True):
            mask = np.zeros((n, n), dtype=complex)
            for i in subset:
                mask[i, i] = 1.0
            lifted = lift_superoperator(model, lambda r, m=mask: m @ r @ m)
            direct = slit_projector(model, subset)
            assert np.max(np.abs(lifted.matrix - direct.matrix)) < 1e-12, subset


def test_quantum_triple_coherence_vanishes():
    # at order 2 the inclusion-exclusion block of any triple is the zero map,
    # here assembled from the true lifted projectors rather than the blocks
    model = quantum_model(3)
    total = np.zeros((9, 9))
    triple = s([0, 1, 2], 3)
    from hoisearch.subsets import coherence_expansion

    for subset, coeff in coherence_expansion(triple).items():
        mask = np.zeros((3, 3), dtype=complex)
        for i in subset:
            mask[i, i] = 1.0
        total += coeff * lift_superoperator(model, lambda r, m=mask: m @ r @ m).matrix
    assert np.max(np.abs(total)) < 1e-12


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_coherence_completeness_and_orthogonality(model):
    assert verify_coherence_completeness(model)
    assert verify_coherence_orthogonality(model)


def test_pythagoras_over_random_vectors():
    model = synthetic_model(6, 3)
    rng = np.random.default_rng(8)
    for _ in range(100):
        state = StateVector(model.space, rng.standard_normal(model.space.total_dim))
        total = sum(
            float(np.sum(state.sector_component(sec) ** 2)) for sec in model.space.sectors
        )
        assert total == pytest.approx(state.norm() ** 2, abs=1e-9)


def test_corrupted_projectors_fail_verification():
    model = quantum_model(3)
    family = [coherence_projector(model, sec) for sec in model.space.sectors]
    bad = family[0].matrix.copy()
    bad[0, 3] = 1e-3
    family[0] = LinearMap(model.space, bad)
    assert not verify_coherence_completeness(model, projectors=family)
    pair, _ = coherence_orthogonality_defects(model, family)
    assert pair > 1e-9
    assert not verify_coherence_orthogonality(model, projectors=family)


def test_interference_order_detection():
    assert interference_order(classical_model(6)) == 1
    assert interference_order(quantum_model(5)) == 2
    assert interference_order(synthetic_model(5, 3)) == 3
    assert interference_order(synthetic_model(4, 4)) == 4


# ---------------------------------------------------------------------------
# Lifts and random reversibles
# ---------------------------------------------------------------------------

def test_lift_identity_is_identity():
    model = quantum_model(3)
    lifted = lift_unitary_conjugation(model, np.eye(3))
    assert np.max(np.abs(lifted.matrix - np.eye(9))) < 1e-12


def test_lift_diffusion_is_orthogonal_and_fixes_uniform():
    model = quantum_model(4)
    n = 4
    diffusion = np.full((n, n), 2.0 / n) - np.eye(n)
    lifted = lift_unitary_conjugation(model, diffusion)
    assert lifted.orthogonality_defect() < 1e-12
    moved = lifted.apply(model.uniform_state)
    assert np.max(np.abs(moved.coords - model.uniform_state.coords)) < 1e-12


def test_lift_rejects_non_unitary():
    model = quantum_model(3)
    with pytest.raises(ValueError):
        lift_unitary_conjugation(model, np.ones((3, 3)))


def test_random_reversible_is_seeded_and_orthogonal():
    model = synthetic_model(4, 3)
    a = random_schedule(model, 123).step(1)
    b = random_schedule(model, 123).step(1)
    c = random_schedule(model, 124).step(1)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)
    assert a.orthogonality_defect() < 1e-10
    rng = np.random.default_rng(0)
    for _ in range(10):
        state = StateVector(model.space, rng.standard_normal(model.space.total_dim))
        assert a.apply(state).norm() == pytest.approx(state.norm(), abs=1e-10)
