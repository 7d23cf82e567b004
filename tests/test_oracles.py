"""Oracle axioms, the quantum phase-conjugation equivalence, and the
per-query displacement bound."""

import numpy as np
import pytest

from hoisearch.models import (
    classical_model,
    quantum_model,
    sign_flip_oracle,
    synthetic_model,
)
from hoisearch.search import oracle_displacement
from hoisearch.subsets import SlitSet, enumerate_sectors

from reference import coherence_projector, lift_unitary_conjugation, verify_oracle


def s(members, universe):
    return SlitSet(tuple(members), universe)


def test_classical_oracle_is_identity():
    model = classical_model(5)
    for x in range(5):
        assert np.array_equal(sign_flip_oracle(model, x), np.ones(5))


def test_oracle_rejects_out_of_range_items():
    with pytest.raises(ValueError):
        sign_flip_oracle(classical_model(3), 3)


@pytest.mark.parametrize(
    "items, bad", [([0, 3, 1], 3), ((1, -1), -1), (np.array([2, 5, -2]), 5)]
)
def test_batched_oracle_rejects_any_out_of_range_item(items, bad):
    # the first item out of range is named, with the single-item message
    with pytest.raises(ValueError, match=rf"^marked item {bad} out of range 0\.\.2$"):
        sign_flip_oracle(quantum_model(3), items)


@pytest.mark.parametrize("items", [1.0, [0, 2.5], [True, False], True, []])
def test_oracle_rejects_items_that_are_not_integers(items):
    with pytest.raises(ValueError, match="marked items must be integers"):
        sign_flip_oracle(quantum_model(3), items)


@pytest.mark.parametrize("bad", [3, 7, -1])
def test_verify_oracle_rejects_out_of_range_items(bad):
    # the identity fixes everything, so an unchecked item would pass
    with pytest.raises(ValueError, match=rf"^marked item {bad} out of range 0\.\.2$"):
        verify_oracle(quantum_model(3), np.eye(9), bad)


@pytest.mark.parametrize("n", range(2, 9))
def test_quantum_oracle_equals_phase_conjugation(n):
    # brute-force route: conjugation by the diagonal phase unitary that flags
    # the marked basis state, lifted to sector coordinates
    model = quantum_model(n)
    for x in range(n):
        phase = np.eye(n, dtype=complex)
        phase[x, x] = -1.0
        lifted = lift_unitary_conjugation(model, phase)
        direct = sign_flip_oracle(model, x)
        assert np.max(np.abs(lifted - np.diag(direct))) < 1e-12


def test_synthetic_oracle_sign_pattern():
    model = synthetic_model(4, 3)
    diag = sign_flip_oracle(model, 0)
    flipped = {
        sector for b, sector in enumerate(enumerate_sectors(model.n_slits, model.order))
        if diag[model.space.owner == b][0] < 0
    }
    expected = {
        s([0, 1], 4), s([0, 2], 4), s([0, 3], 4),
        s([0, 1, 2], 4), s([0, 1, 3], 4), s([0, 2, 3], 4),
    }
    assert flipped == expected


# the only layout whose singleton blocks are wider than one coordinate
WIDE = synthetic_model(4, 3, {1: 2, 2: 3, 3: 1})
IDS = ["classical", "quantum", "synthetic", "synthetic-wide"]


@pytest.mark.parametrize(
    "model", [classical_model(4), quantum_model(4), synthetic_model(4, 3), WIDE], ids=IDS
)
def test_oracle_is_an_orthogonal_involution(model):
    for x in range(model.n_slits):
        oracle = sign_flip_oracle(model, x)
        # a diagonal map is orthogonal iff every entry squares to 1
        assert float(np.max(np.abs(oracle**2 - 1.0))) == 0.0
        assert np.array_equal(oracle * oracle, np.ones(model.space.total_dim))


@pytest.mark.parametrize(
    "model", [classical_model(4), quantum_model(4), synthetic_model(4, 3), WIDE], ids=IDS
)
def test_batched_oracle_stacks_the_single_item_oracles(model):
    for items in ([3, 0, 0, 2, 1], (2,), np.arange(model.n_slits)):
        batched = sign_flip_oracle(model, items)
        assert batched.shape == (len(items), model.space.total_dim)
        assert np.array_equal(batched, np.stack([sign_flip_oracle(model, x) for x in items]))


@pytest.mark.parametrize(
    "model", [classical_model(4), quantum_model(4), synthetic_model(4, 4), WIDE], ids=IDS
)
def test_sign_flip_oracle_passes_verification_exactly(model):
    for x in range(model.n_slits):
        check = verify_oracle(model, np.diag(sign_flip_oracle(model, x)), x)
        assert check.passed
        assert check.fixed_sector_defect == 0.0
        assert check.commutation_defect == 0.0
        assert check.orthogonality_defect == 0.0


def test_identity_map_is_a_valid_oracle_for_every_item():
    model = quantum_model(3)
    identity = np.eye(model.space.total_dim)
    for x in range(3):
        assert verify_oracle(model, identity, x).passed


def test_block_permuting_map_fails_commutation():
    # swap the {0,1} pair block with the {0,2} pair block; orthogonal, but it
    # moves coherence between sectors, which the oracle axioms forbid
    model = quantum_model(3)
    m = np.eye(9)
    a = np.flatnonzero(coherence_projector(model, s([0, 1], 3)))
    b = np.flatnonzero(coherence_projector(model, s([0, 2], 3)))
    m[:, np.r_[a, b]] = m[:, np.r_[b, a]]
    check = verify_oracle(model, m, 0)
    assert check.orthogonality_defect < 1e-12
    assert check.commutation_defect > 0.5
    assert not check.passed


def test_fix_condition_catches_action_on_unmarked_sectors():
    # flipping a sector that does not contain the marked item violates the
    # fixed-sector condition even though everything commutes
    model = quantum_model(3)
    diag = 1.0 - 2.0 * coherence_projector(model, s([1, 2], 3))
    check = verify_oracle(model, np.diag(diag), 0)
    assert check.commutation_defect == 0.0
    assert check.fixed_sector_defect == 2.0
    assert not check.passed


@pytest.mark.parametrize(
    "entry, field, other",
    [
        # joins the singleton block {0} to the pair block {0, 2}
        ((0, 5), "commutation_defect", "fixed_sector_defect"),
        # inside the singleton block {1}, which every oracle fixes
        ((1, 1), "fixed_sector_defect", "commutation_defect"),
    ],
    ids=["cross-block", "fixed-block"],
)
def test_verify_oracle_reports_a_nan_entry(entry, field, other):
    model = quantum_model(3)
    mat = np.diag(sign_flip_oracle(model, 0))
    mat[entry] = np.nan
    check = verify_oracle(model, mat, 0)
    assert np.isnan(getattr(check, field))
    assert getattr(check, other) == 0.0
    assert not check.passed


@pytest.mark.parametrize(
    "model", [quantum_model(3), synthetic_model(4, 3)], ids=lambda m: m.kind
)
def test_verify_oracle_rejects_a_candidate_that_is_not_m_by_m(model):
    m = model.space.total_dim
    for candidate in (
        sign_flip_oracle(model, 0),  # the diagonal alone
        np.eye(m - 1),
        np.eye(m + 1),
        np.eye(m)[:, :-1],
    ):
        with pytest.raises(ValueError, match="candidate has shape"):
            verify_oracle(model, candidate, 0)


# ---------------------------------------------------------------------------
# Displacement
# ---------------------------------------------------------------------------

def literal_displacement(model, state):
    total = 0.0
    for x in range(model.n_slits):
        moved = sign_flip_oracle(model, x) * state
        total += float(np.sum((state - moved) ** 2))
    return total


@pytest.mark.parametrize("n", range(2, 9))
def test_quantum_uniform_displacement_closed_form(n):
    # hand computation: each of the N-1 pairs through the marked slit holds
    # coordinate sqrt(2)/N, doubling it costs 8/N^2, summed over pairs and
    # marked items: 8 (N-1) / N
    model = quantum_model(n)
    expected = 8.0 * (n - 1) / n
    assert oracle_displacement(model, model.uniform_state) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected <= 4 * model.order


def test_diagonal_only_states_are_not_displaced():
    model = quantum_model(4)
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.ones(4))
    state = np.zeros(model.space.total_dim)
    state[model.basis_index] = probs
    assert oracle_displacement(model, state) == 0.0


@pytest.mark.parametrize(
    "model", [classical_model(6), quantum_model(4), synthetic_model(5, 3), WIDE], ids=IDS
)
def test_displacement_bound_and_literal_agreement(model):
    rng = np.random.default_rng(42)
    bound = 4.0 * model.order
    for _ in range(100):
        coords = rng.standard_normal(model.space.total_dim)
        coords /= np.linalg.norm(coords)
        value = oracle_displacement(model, coords)
        assert value <= bound + 1e-9
        assert value == pytest.approx(literal_displacement(model, coords), abs=1e-9)


def test_oracle_acts_only_on_marked_multislit_sectors():
    # the query moves nothing on singleton blocks or blocks missing the item
    model = synthetic_model(5, 3)
    rng = np.random.default_rng(9)
    state = rng.standard_normal(model.space.total_dim)
    for x in range(5):
        delta = state - sign_flip_oracle(model, x) * state
        for sector in enumerate_sectors(model.n_slits, model.order):
            block = delta[coherence_projector(model, sector) == 1.0]
            if x not in sector or len(sector) == 1:
                assert np.all(block == 0.0), (x, sector)
