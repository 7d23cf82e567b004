"""Model, projector, and embedding tests.

The quantum expectations are checked against brute-force density-matrix
computations (Hilbert-Schmidt traces, explicit sandwiches); the projector
algebra is checked as matrix identities, not assumed from the construction.
"""

import json

import numpy as np
import pytest

from hoisearch.models import (
    StateVector,
    build_sector_space,
    classical_model,
    coherence_from_slit_projectors,
    coherence_projector,
    embed_density,
    haar_orthogonal,
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
    coherence_completeness_defect,
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


def orthogonality_defect(x):
    """max |X^T X - I|: zero iff the matrix preserves the norm."""
    return float(np.max(np.abs(x.T @ x - np.eye(len(x)))))


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


def test_quantum_embedding_matches_per_entry_reference():
    # the index-array embedding against the per-entry loop over sectors;
    # the arithmetic per entry is the same, so the results are equal
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        model = quantum_model(n)
        space = model.space
        rho = random_density(n, rng)
        coords = np.zeros(space.total_dim)
        for sector in space.sectors:
            off = space.offsets[sector]
            if len(sector) == 1:
                i = sector.members[0]
                coords[off] = rho[i, i].real
            else:
                i, j = sector.members
                coords[off] = np.sqrt(2.0) * rho[i, j].real
                coords[off + 1] = np.sqrt(2.0) * rho[i, j].imag
        assert np.array_equal(embed_density(model, rho).coords, coords), n
        back = np.zeros((n, n), dtype=complex)
        for sector in space.sectors:
            off = space.offsets[sector]
            if len(sector) == 1:
                back[sector.members[0], sector.members[0]] = coords[off]
            else:
                i, j = sector.members
                back[i, j] = (coords[off] + 1j * coords[off + 1]) * (1.0 / np.sqrt(2.0))
                back[j, i] = back[i, j].conjugate()
        assert np.array_equal(unembed_density(model, StateVector(space, coords)), back), n


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
        p_left = slit_projector(model, left)
        assert np.array_equal(p_left * p_left, p_left)  # idempotent, exactly
        for right in subsets:
            p_right = slit_projector(model, right)
            p_meet = slit_projector(model, left.intersection(right))
            assert np.array_equal(p_left * p_right, p_meet), (left, right)
    full = slit_projector(model, s(range(n), n))
    assert np.array_equal(full, np.ones(model.space.total_dim))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_coherence_projector_matches_formal_expansion(model):
    for sector in model.space.sectors:
        direct = coherence_projector(model, sector)
        expanded = coherence_from_slit_projectors(model, sector)
        assert np.array_equal(direct, expanded), sector


def test_qutrit_slit_projector_zeroes_blocked_row_and_column():
    model = quantum_model(3)
    rng = np.random.default_rng(5)
    rho = random_density(3, rng)
    coords = slit_projector(model, s([0, 1], 3)) * embed_density(model, rho).coords
    projected = unembed_density(model, StateVector(model.space, coords))
    expected = rho.copy()
    expected[2, :] = 0.0
    expected[:, 2] = 0.0
    assert np.max(np.abs(projected - expected)) < 1e-12


def test_qutrit_coherence_projector_keeps_only_the_pair_coherence():
    model = quantum_model(3)
    rng = np.random.default_rng(6)
    rho = random_density(3, rng)
    coords = coherence_projector(model, s([0, 1], 3)) * embed_density(model, rho).coords
    kept = unembed_density(model, StateVector(model.space, coords))
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
            assert np.max(np.abs(lifted - np.diag(direct))) < 1e-12, subset


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
        total += coeff * lift_superoperator(model, lambda r, m=mask: m @ r @ m)
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
    # block 0 leaks onto coordinate 3, which belongs to another block
    family = np.stack([coherence_projector(model, sec) for sec in model.space.sectors])
    family[0, 3] = 1e-3
    assert not verify_coherence_completeness(model, projectors=family)
    pair, _ = coherence_orthogonality_defects(model, family)
    assert pair > 1e-9
    assert not verify_coherence_orthogonality(model, projectors=family)


def test_projector_family_of_the_wrong_shape_is_rejected():
    model = quantum_model(3)
    family = np.stack([coherence_projector(model, sec) for sec in model.space.sectors])
    for bad in (family[:-1], family[:, :-1], family[0]):
        with pytest.raises(ValueError, match="projectors of 9 coordinates"):
            coherence_completeness_defect(model, bad)
        with pytest.raises(ValueError, match="projectors of 9 coordinates"):
            coherence_orthogonality_defects(model, bad)


def product_tensor_orthogonality_defects(model, family, n_vectors=100, seed=20240):
    """Reference `coherence_orthogonality_defects` for a diagonal family,
    through the (S, S, M) tensor of every product w_i w_j, against which the
    O(S M) version must be exact."""
    m = model.space.total_dim
    diags = np.asarray(family)
    prod = diags[:, None, :] * diags[None, :, :]
    prod[np.arange(len(family)), np.arange(len(family)), :] -= diags
    pair_defect = float(np.max(np.abs(prod)))
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n_vectors, m))
    block_sq = (vecs**2) @ (diags**2).T
    pyth_defect = float(np.max(np.abs(block_sq.sum(axis=1) - (vecs**2).sum(axis=1))))
    return pair_defect, pyth_defect


ORTHOGONALITY_MODELS = (
    [classical_model(n) for n in range(1, 7)]
    + [quantum_model(n) for n in range(2, 7)]
    + [synthetic_model(n, h) for n in range(3, 7) for h in (3, 4) if h <= n]
)


@pytest.mark.parametrize(
    "model", ORTHOGONALITY_MODELS, ids=lambda m: f"{m.kind}{m.n_slits}-h{m.order}"
)
def test_orthogonality_defects_equal_the_product_tensor(model):
    family = [coherence_projector(model, sec) for sec in model.space.sectors]
    assert coherence_orthogonality_defects(model) == (
        product_tensor_orthogonality_defects(model, family)
    )


def test_orthogonality_defects_equal_the_product_tensor_off_projectors():
    model = synthetic_model(5, 3)
    rng = np.random.default_rng(11)
    m = model.space.total_dim
    for scale in (1.0, 1e-3, 1e3):
        family = np.stack([scale * rng.standard_normal(m) for _ in model.space.sectors])
        got = coherence_orthogonality_defects(model, family)
        assert got == product_tensor_orthogonality_defects(model, family)
        assert got[0] > 0
    # entries just below 1: w_i^2 - w_i is small, so the product of two
    # different blocks sets the defect
    diags = rng.uniform(0.9, 1.0, size=(len(model.space.sectors), m))
    family = diags
    got = coherence_orthogonality_defects(model, family)
    assert got == product_tensor_orthogonality_defects(model, family)
    assert got[0] > np.max(np.abs(diags * diags - diags))
    # two blocks that are the same projector overlap by exactly 1
    family = np.stack([coherence_projector(model, sec) for sec in model.space.sectors])
    family[1] = family[0]
    got = coherence_orthogonality_defects(model, family)
    assert got == product_tensor_orthogonality_defects(model, family)
    assert got[0] == 1.0
    assert not verify_coherence_orthogonality(model, projectors=family)
    # a single sector: the diagonal term alone
    single = classical_model(1)
    family = np.array([[-0.5]])
    got = coherence_orthogonality_defects(single, family)
    assert got == product_tensor_orthogonality_defects(single, family)
    assert got[0] == 0.75


def test_orthogonality_defect_with_a_nan_fails():
    model = quantum_model(3)
    family = np.stack([coherence_projector(model, sec) for sec in model.space.sectors])
    family[2, 1] = np.nan
    pair, _ = coherence_orthogonality_defects(model, family)
    assert np.isnan(pair)
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
    assert np.max(np.abs(lifted - np.eye(9))) < 1e-12


def test_lift_diffusion_is_orthogonal_and_fixes_uniform():
    model = quantum_model(4)
    n = 4
    diffusion = np.full((n, n), 2.0 / n) - np.eye(n)
    lifted = lift_unitary_conjugation(model, diffusion)
    assert orthogonality_defect(lifted) < 1e-12
    moved = lifted @ model.uniform_state.coords
    assert np.max(np.abs(moved - model.uniform_state.coords)) < 1e-12


def test_lift_rejects_non_unitary():
    model = quantum_model(3)
    with pytest.raises(ValueError):
        lift_unitary_conjugation(model, np.ones((3, 3)))


def test_random_reversible_is_seeded_and_orthogonal():
    # a random step on the identity batch is an M x M matrix
    model = synthetic_model(4, 3)
    eye = np.eye(model.space.total_dim)
    a = random_schedule(model, 123).apply(1, eye).T
    b = random_schedule(model, 123).apply(1, eye).T
    c = random_schedule(model, 124).apply(1, eye).T
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert orthogonality_defect(a) < 1e-10
    rng = np.random.default_rng(0)
    for _ in range(10):
        state = StateVector(model.space, rng.standard_normal(model.space.total_dim))
        assert np.linalg.norm(a @ state.coords) == pytest.approx(state.norm(), abs=1e-10)


def test_haar_frame_is_the_leading_block_of_the_full_draw():
    # cols = dim reproduces the full Haar matrix bit for bit; a narrower
    # frame is orthonormal
    full = haar_orthogonal(6, np.random.default_rng(4))
    a = np.random.default_rng(4).standard_normal((6, 6))
    q, r = np.linalg.qr(a)
    assert np.array_equal(full, q * np.where(np.diag(r) < 0, -1.0, 1.0))
    assert np.array_equal(haar_orthogonal(6, np.random.default_rng(4), 6), full)
    frame = haar_orthogonal(6, np.random.default_rng(4), 2)
    assert frame.shape == (6, 2)
    assert np.max(np.abs(frame.T @ frame - np.eye(2))) < 1e-12
