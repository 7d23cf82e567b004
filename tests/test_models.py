"""Model, projector, and embedding tests.

The quantum expectations are checked against brute-force density-matrix
computations (Hilbert-Schmidt traces, explicit sandwiches); the projector
algebra is checked as matrix identities, not assumed from the construction.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hoisearch import models
from hoisearch.models import (
    DEFAULT_TOL,
    SectorSpace,
    Model,
    build_model,
    classical_model,
    haar_orthogonal,
    interference_order,
    quantum_model,
    sign_flip_oracle,
    slit_projector,
    synthetic_model,
    coherence_completeness_defect,
    coherence_layout_defect,
    NumericError,
)
from hoisearch.search import (
    check_upper_bound,
    oracle_displacement,
    random_schedule,
    run_experiment,
    run_search,
)
from hoisearch.subsets import SlitSet, enumerate_sectors

from reference import (
    block_offsets,
    coherence_from_slit_projectors,
    coherence_projector,
    density_index,
    dense_completeness_defect,
    dense_orthogonality_defects,
    embed_density,
    lift_superoperator,
    lift_unitary_conjugation,
    projector_family,
    quantum_index,
    reflection_schedule,
    sector_tables,
    slit_projector_from_subsets,
    unembed_density,
)


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
    assert SectorSpace(3, 2, {1: 1, 2: 2}).total_dim == 9
    assert SectorSpace(4, 1, {1: 1}).total_dim == 4
    assert SectorSpace(4, 3, {1: 1, 2: 1, 3: 1}).total_dim == 14


def test_build_sector_space_offsets_partition():
    space = SectorSpace(4, 2, {1: 1, 2: 3})
    offsets = block_offsets(space)
    seen = np.zeros(space.total_dim, dtype=int)
    owner = np.empty(space.total_dim, dtype=int)
    for position, sector in enumerate(enumerate_sectors(space.n_slits, space.order)):
        sl = slice(offsets[sector], offsets[sector] + space.dims_per_size[len(sector)])
        seen[sl] += 1
        owner[sl] = position
    assert np.all(seen == 1)
    assert np.array_equal(space.owner, owner)


def test_build_sector_space_validation():
    with pytest.raises(ValueError):
        SectorSpace(3, 2, {1: 1})  # missing size-2 dimension
    with pytest.raises(ValueError):
        SectorSpace(3, 2, {1: 1, 2: 0})
    with pytest.raises(ValueError):
        SectorSpace(3, 4, {1: 1, 2: 1, 3: 1, 4: 1})
    # N and h are checked before the block dimensions
    with pytest.raises(ValueError, match="order must satisfy 1 <= order <= 3, got 4"):
        SectorSpace(3, 4, {1: 1})
    with pytest.raises(ValueError, match="need at least one slit, got 0"):
        SectorSpace(0, 1, {})
    # a block dimension is an integer, never truncated or parsed
    with pytest.raises(ValueError, match="size 2 must be an integer, got 1.5"):
        synthetic_model(3, 2, {1: 1, 2: 1.5})
    with pytest.raises(ValueError, match="size 1 must be an integer, got '2'"):
        SectorSpace(3, 1, {1: "2"})
    with pytest.raises(ValueError, match="size 2 must be an integer, got 2.0"):
        SectorSpace(3, 2, {1: 1, 2: 2.0})
    space = SectorSpace(3, 2, {1: np.int64(2), 2: np.uint8(3)})
    assert space.dims_per_size == {1: 2, 2: 3}
    assert all(type(d) is int for d in space.dims_per_size.values())
    assert space.total_dim == 2 * 3 + 3 * 3


def test_sector_space_stores_only_n_h_and_block_dims():
    # everything else is derived, so a hand-built space is checked as a
    # built one is and cannot carry a layout that disagrees with its sectors
    assert [f.name for f in dataclasses.fields(SectorSpace)] == [
        "n_slits", "order", "dims_per_size"
    ]
    space = SectorSpace(4, 3, {1: 2, 2: 3, 3: 1, 4: 9})
    assert space.dims_per_size == {1: 2, 2: 3, 3: 1}
    assert space.total_dim == 2 * 4 + 3 * 6 + 1 * 4
    with pytest.raises(ValueError, match="missing an entry for sector size 2"):
        SectorSpace(3, 2, {1: 1})


@pytest.mark.parametrize("kind, n, h", [("classical", 4, 1), ("quantum", 4, 2), ("synthetic", 5, 3)])
def test_a_model_build_enumerates_the_sectors_once(kind, n, h, monkeypatch):
    calls = []
    combinations = itertools.combinations

    def counted(pool, size):
        calls.append(size)
        return combinations(pool, size)

    monkeypatch.setattr(itertools, "combinations", counted)
    space = build_model(kind, n, h).space
    assert calls == []  # construction counts, it does not enumerate
    # the members table reads one enumeration per sector size, and owner
    # counts its blocks without one
    assert space.total_dim == space.owner.size
    assert calls == []
    assert space.members.shape == (sum(math.comb(n, t) for t in range(1, h + 1)), n)
    assert space.members is space.members
    assert calls == list(range(1, h + 1))


TABLE_SPECS = (
    [("classical", n, 1, None) for n in range(1, 11)]
    + [("quantum", n, 2, None) for n in range(2, 11)]
    + [("synthetic", n, h, None) for n in range(1, 11) for h in range(1, n + 1)]
    + [("synthetic", n, 3, {1: 2, 2: 3, 3: 1}) for n in (3, 6, 10)]
)


def test_sector_tables_equal_the_slit_set_route():
    for kind, n, h, dims in TABLE_SPECS:
        model = build_model(kind, n, h, dims)
        space = model.space
        members, owner = sector_tables(space)
        assert np.array_equal(space.members, members), (kind, n, h, dims)
        assert np.array_equal(space.owner, owner), (kind, n, h, dims)
        if kind == "quantum":
            for got, want in zip(quantum_index(model), density_index(space), strict=True):
                assert np.array_equal(got, want), (n, got, want)


def test_sector_tables_build_no_slit_set(monkeypatch):
    def refuse(self):
        raise AssertionError("a SlitSet was built")

    monkeypatch.setattr(SlitSet, "__post_init__", refuse)
    for kind, n, h, dims in (("quantum", 8, 2, None), ("synthetic", 9, 4, {1: 2, 2: 1, 3: 3, 4: 1})):
        space = build_model(kind, n, h, dims).space
        assert space.members.sum() == sum(t * math.comb(n, t) for t in range(1, h + 1))
        assert coherence_completeness_defect(Model(kind, space)) == 0.0
        assert coherence_layout_defect(Model(kind, space)) == 0
    report = run_experiment("quantum", 8, "random")
    assert check_upper_bound(report).holds


def test_no_model_construction_enumerates_a_sector():
    model = build_model("synthetic", 40, 4)  # 102,340 sectors
    assert model.space.total_dim == 40 + 780 + 9880 + 91390
    assert model.block_weights[4] == pytest.approx((1 - 1 / 40) / (780 + 9880 + 91390))
    assert model.descriptor()["dims_per_size"] == {"1": 1, "2": 1, "3": 1, "4": 1}
    assert not {"members", "owner"} & set(model.space.__dict__)
    # C(10^9, 4) = 4.2e34 sectors, each one coordinate
    wide = build_model("synthetic", 10**9, 4)
    assert wide.space.total_dim == sum(math.comb(10**9, t) for t in range(1, 5))
    assert wide.block_weights[1] == 1e-18
    assert not {"members", "owner"} & set(wide.space.__dict__)


def test_state_vector_validation_and_views():
    # a state is a plain (M,) array: a block is the coordinates its coherence
    # projector keeps, and every library function taking a state checks its shape
    model = quantum_model(3)
    state = model.uniform_state
    block = state[coherence_projector(model, s([0, 1], 3)) == 1.0]
    assert block.shape == (2,)
    for bad in (np.zeros(5), np.zeros((1, 9)), np.zeros(16)):
        with pytest.raises(ValueError, match="state has shape"):
            oracle_displacement(model, bad)
        with pytest.raises(ValueError, match="state has shape"):
            run_search(model, reflection_schedule(model), 1, start=bad)


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------

def basis_vectors(model):
    """The (N, M) stack of basis unit vectors that `Model.basis_index` selects."""
    return np.eye(model.space.total_dim)[model.basis_index]


def test_classical_model_basics():
    model = classical_model(4)
    assert np.array_equal(basis_vectors(model), np.eye(4))
    assert np.linalg.norm(model.uniform_state) == pytest.approx(0.5, abs=1e-12)
    assert interference_order(model) == 1


def test_quantum_model_basics():
    model = quantum_model(3)
    assert np.array_equal(basis_vectors(model)[0], np.array([1, 0, 0, 0, 0, 0, 0, 0, 0.0]))
    assert np.linalg.norm(model.uniform_state) == pytest.approx(1.0, abs=1e-12)
    model4 = quantum_model(4)
    assert model4.uniform_state[model4.basis_index[2]] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        quantum_model(1)


# the last is the only layout whose singleton blocks are wider than one
# coordinate
MODELS = [
    classical_model(5),
    quantum_model(4),
    synthetic_model(5, 3),
    synthetic_model(4, 3, {1: 2, 2: 3, 3: 1}),
]
MODEL_IDS = ["classical", "quantum", "synthetic", "synthetic-wide"]


def test_model_stores_only_its_family_and_layout():
    assert [f.name for f in dataclasses.fields(Model)] == ["kind", "space"]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_descriptor_rebuilds_the_model(model):
    # the recipe README's break table gives for the removed model_from_descriptor
    d = model.descriptor()
    dims = {int(t): m for t, m in d["dims_per_size"].items()}
    rebuilt = build_model(d["kind"], d["n_slits"], d["order"], dims)
    assert rebuilt.kind == model.kind
    assert np.array_equal(rebuilt.space.owner, model.space.owner)
    assert np.array_equal(rebuilt.space.members, model.space.members)
    assert rebuilt.uniform_state.tobytes() == model.uniform_state.tobytes()


def test_a_model_whose_family_and_layout_disagree_is_refused():
    with pytest.raises(ValueError, match=r"quantum layout has block dimensions \{1: 1, 2: 2\}"):
        Model("quantum", SectorSpace(3, 2, {1: 1, 2: 1}))
    with pytest.raises(ValueError, match="the classical model has order 1"):
        Model("classical", SectorSpace(4, 3, {1: 1, 2: 1, 3: 1}))
    with pytest.raises(ValueError, match="unknown model kind 'bogus'"):
        Model("bogus", SectorSpace(3, 1, {1: 1}))
    with pytest.raises(ValueError, match="the quantum model has order 2"):
        Model("quantum", SectorSpace(2, 1, {1: 1}))
    # build_model takes the family's own layout only, never drops a given one
    with pytest.raises(ValueError, match="quantum layout has block dimensions"):
        build_model("quantum", 4, dims_per_size={1: 1, 2: 1})
    with pytest.raises(ValueError, match="classical layout has block dimensions"):
        build_model("classical", 4, dims_per_size={1: 2})
    assert build_model("quantum", 4, dims_per_size={1: 1, 2: 2}).space.total_dim == 16


def test_a_fixed_order_refusal_names_the_order_not_a_flag():
    # the library is called without flags, so its message says what is wrong
    with pytest.raises(ValueError) as excinfo:
        build_model("classical", 4, 3)
    assert str(excinfo.value) == "the classical model has order 1, got order 3"
    with pytest.raises(ValueError) as excinfo:
        Model("quantum", SectorSpace(4, 3, {1: 1, 2: 2, 3: 1}))
    assert str(excinfo.value) == "the quantum model has order 2, got order 3"


def test_uniform_state_is_read_only():
    model = quantum_model(3)
    # one cached array is handed to every caller, as `SectorSpace.members` is
    with pytest.raises(ValueError, match="read-only"):
        model.uniform_state[0] = 1.0
    assert model.uniform_state is model.uniform_state


def test_uniform_state_rules_cover_every_family():
    # the classical state is the order-1 case of the synthetic rule, and the
    # quantum one, placed by the layout alone with no sector table built, is
    # the embedded all-1/N matrix
    for n in (1, 2, 5, 12):
        classical = classical_model(n).uniform_state
        assert classical.tobytes() == np.full(n, 1.0 / n).tobytes()
        assert classical.tobytes() == synthetic_model(n, 1).uniform_state.tobytes()
    for n in [*range(2, 301), 1024, 2047]:
        model = quantum_model(n)
        state = model.uniform_state
        assert not {"members", "owner"} & set(model.space.__dict__), n
        embedded = embed_density(model, np.full((n, n), 1.0 / n))
        assert state.tobytes() == embedded.tobytes(), n


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_basis_index_selects_the_unit_basis_states(model):
    # each family's basis state i, built the way the family defines it: a
    # probability vector, the embedded projector |i><i|, and the unit vector
    # on the first coordinate of singleton block i
    n, m = model.n_slits, model.space.total_dim
    if model.kind == "quantum":
        expected = np.stack([embed_density(model, np.diag(row)) for row in np.eye(n)])
    else:
        expected = np.zeros((n, m))
        offsets = block_offsets(model.space)
        for i in range(n):
            expected[i, offsets[s([i], n)]] = 1.0
    assert model.basis_index.shape == (n,)
    assert model.basis_index.dtype == np.intp
    assert np.array_equal(basis_vectors(model), expected)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_members_table_lists_the_slits_of_each_block(model):
    space = model.space
    sectors = enumerate_sectors(model.n_slits, model.order)
    expected = [[i in sector for i in range(model.n_slits)] for sector in sectors]
    assert space.members.dtype == bool
    assert not space.members.flags.writeable
    assert np.array_equal(space.members, np.array(expected))


def test_model_holds_no_dense_basis():
    # N dense (M,) basis vectors would be 8 MB at N = 1024; the model keeps
    # the layout and one (M,) state
    classical_model(4)  # warm every first-call cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = classical_model(1024)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert model.space.total_dim == 1024
    assert retained < 1_000_000, retained


def test_quantum_embedding_round_trip_and_hs_inner():
    model = quantum_model(4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho, sigma = random_density(4, rng), random_density(4, rng)
        assert np.max(np.abs(unembed_density(model, embed_density(model, rho)) - rho)) < 1e-12
        hs = np.trace(rho @ sigma).real  # brute-force Hilbert-Schmidt pairing
        assert np.dot(embed_density(model, rho), embed_density(model, sigma)) == pytest.approx(
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
        offsets = block_offsets(space)
        coords = np.zeros(space.total_dim)
        for sector in enumerate_sectors(space.n_slits, space.order):
            off = offsets[sector]
            if len(sector) == 1:
                i = sector.members[0]
                coords[off] = rho[i, i].real
            else:
                i, j = sector.members
                coords[off] = np.sqrt(2.0) * rho[i, j].real
                coords[off + 1] = np.sqrt(2.0) * rho[i, j].imag
        assert np.array_equal(embed_density(model, rho), coords), n
        back = np.zeros((n, n), dtype=complex)
        for sector in enumerate_sectors(space.n_slits, space.order):
            off = offsets[sector]
            if len(sector) == 1:
                back[sector.members[0], sector.members[0]] = coords[off]
            else:
                i, j = sector.members
                back[i, j] = (coords[off] + 1j * coords[off + 1]) * (1.0 / np.sqrt(2.0))
                back[j, i] = back[i, j].conjugate()
        assert np.array_equal(unembed_density(model, coords), back), n


def test_quantum_pure_states_have_unit_norm():
    model = quantum_model(5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        vec = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        vec /= np.linalg.norm(vec)
        state = embed_density(model, np.outer(vec, vec.conj()))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_synthetic_model_uniform_state():
    model = synthetic_model(4, 2)
    higher = model.uniform_state[4:]
    assert np.allclose(higher, 0.35355339059327373)
    assert np.linalg.norm(model.uniform_state) == pytest.approx(1.0, abs=1e-12)
    for n, h, dims in [(4, 2, None), (5, 3, None), (4, 4, None), (6, 1, None),
                       (4, 3, {1: 2, 2: 3, 3: 1})]:
        m = synthetic_model(n, h, dims)
        assert basis_vectors(m) @ m.uniform_state == pytest.approx(np.full(n, 1.0 / n))
        assert np.linalg.norm(m.uniform_state) == pytest.approx(1.0 if h > 1 else n**-0.5)


def test_synthetic_model_full_order_has_full_sector_weight():
    model = synthetic_model(3, 3)
    full = model.uniform_state[coherence_projector(model, s([0, 1, 2], 3)) == 1.0]
    assert full[0] > 0


def test_total_dim_counts_the_built_coordinates():
    specs = [("classical", n, 1, None) for n in range(1, 10)]
    specs += [("quantum", n, 2, None) for n in range(2, 10)]
    specs += [("synthetic", n, h, None) for n in range(1, 10) for h in range(1, n + 1)]
    specs += [("synthetic", 4, 3, {1: 2, 2: 3, 3: 1}), ("synthetic", 6, 2, {1: 3, 2: 5})]
    for kind, n, h, dims in specs:
        space = build_model(kind, n, h, dims).space
        # the count is taken before the sectors are enumerated
        assert space.total_dim == space.owner.size, (kind, n, h, dims)


def test_synthetic_model_order_one_is_classically_mixed():
    model = synthetic_model(4, 1)
    assert np.linalg.norm(model.uniform_state) == pytest.approx(0.5, abs=1e-12)


def test_basis_states_are_orthonormal_everywhere():
    for model in (classical_model(5), quantum_model(4), synthetic_model(5, 3)):
        basis = basis_vectors(model)
        assert np.array_equal(basis @ basis.T, np.eye(model.n_slits))


def test_block_weights_and_descriptors_match_the_built_models():
    # the closed-form reports describe and weigh the uniform state without
    # enumerating a sector; both must agree with the model's dense layout
    specs = [("classical", n, 1, None) for n in (1, 2, 5)]
    specs += [("quantum", n, 2, None) for n in (2, 3, 6)]
    specs += [("synthetic", n, h, None) for n in (1, 2, 5, 6) for h in range(1, min(n, 4) + 1)]
    specs += [("synthetic", 4, 3, {1: 2, 2: 3, 3: 1})]
    for kind, n, h, dims in specs:
        model = build_model(kind, n, h, dims)
        assert model.descriptor() == {
            "kind": kind,
            "n_slits": n,
            "order": h,
            "dims_per_size": {str(t): d for t, d in sorted(model.space.dims_per_size.items())},
        }, (kind, n, h)
        weights = model.block_weights
        assert sorted(weights) == list(range(1, h + 1)), (kind, n, h)
        with pytest.raises(TypeError):
            weights[1] = 0.0  # one cached mapping is handed to every caller
        for b, sector in enumerate(enumerate_sectors(model.n_slits, model.order)):
            block = model.uniform_state[model.space.owner == b]
            assert float(block @ block) == pytest.approx(weights[len(sector)], rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# Projector algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
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


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_slit_projector_matches_the_sum_over_subsets(model):
    n = model.n_slits
    for open_slits in s(range(n), n).subsets(include_empty=True):
        direct = slit_projector(model, open_slits)
        assert np.array_equal(direct, slit_projector_from_subsets(model, open_slits)), open_slits


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_slit_projector_rejects_a_set_from_another_universe(model):
    n = model.n_slits
    for other in (s([0], n + 1), s([], n - 1)):
        with pytest.raises(ValueError, match=f"does not match the model's {n} slits"):
            slit_projector(model, other)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_coherence_projector_rejects_a_sector_outside_the_layout(model):
    n, h = model.n_slits, model.order
    for other in (s(range(h + 1), n), s([0], n + 1)):  # above the order; another universe
        with pytest.raises(ValueError, match="unknown sector"):
            coherence_projector(model, other)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_coherence_projector_matches_formal_expansion(model):
    for sector in enumerate_sectors(model.n_slits, model.order):
        direct = coherence_projector(model, sector)
        expanded = coherence_from_slit_projectors(model, sector)
        assert np.array_equal(direct, expanded), sector


def test_qutrit_slit_projector_zeroes_blocked_row_and_column():
    model = quantum_model(3)
    rng = np.random.default_rng(5)
    rho = random_density(3, rng)
    coords = slit_projector(model, s([0, 1], 3)) * embed_density(model, rho)
    projected = unembed_density(model, coords)
    expected = rho.copy()
    expected[2, :] = 0.0
    expected[:, 2] = 0.0
    assert np.max(np.abs(projected - expected)) < 1e-12


def test_qutrit_coherence_projector_keeps_only_the_pair_coherence():
    model = quantum_model(3)
    rng = np.random.default_rng(6)
    rho = random_density(3, rng)
    coords = coherence_projector(model, s([0, 1], 3)) * embed_density(model, rho)
    kept = unembed_density(model, coords)
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


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_coherence_completeness_and_orthogonality(model):
    assert coherence_completeness_defect(model) < DEFAULT_TOL
    assert coherence_layout_defect(model) == 0
    family = projector_family(model)
    pair, pyth = dense_orthogonality_defects(model, family)
    assert pair == 0.0 and pyth < DEFAULT_TOL


SECTOR_ORDER_LAYOUT = SectorSpace.__dict__["owner"].func


def _relaid(monkeypatch, rearrange):
    """Patch `SectorSpace.owner` to ``rearrange`` of the sector-order layout."""
    owner = property(lambda space: rearrange(SECTOR_ORDER_LAYOUT(space)))
    monkeypatch.setattr(SectorSpace, "owner", owner)


def test_layout_defect_counts_block_runs_out_of_sector_order(monkeypatch):
    # reversed, every run is out of order, yet each block keeps its width:
    # completeness holds and the blocks are still orthogonal indicators
    _relaid(monkeypatch, lambda owner: owner[::-1].copy())
    model = synthetic_model(5, 3)
    assert coherence_layout_defect(model) == len(enumerate_sectors(model.n_slits, model.order)) == 25
    assert coherence_completeness_defect(model) == 0.0
    # blocks 0 and 1 swapped: neither follows its predecessor, nor does block
    # 2, which now follows block 0
    _relaid(monkeypatch, lambda owner: np.where(owner < 2, 1 - owner, owner))
    assert coherence_layout_defect(synthetic_model(5, 3)) == 3
    # blocks 0 and 1, two coordinates wide, interleaved: four runs of one
    # coordinate, all short of their width (and block 0's second run out of order)
    wide = synthetic_model(4, 3, {1: 2, 2: 3, 3: 1})
    _relaid(monkeypatch, lambda owner: owner[[0, 2, 1, 3, *range(4, owner.size)]])
    assert coherence_layout_defect(wide) == 4
    # block 0's last coordinate moved into block 1: two runs off their widths
    _relaid(monkeypatch, lambda owner: np.where(np.arange(owner.size) == 1, 1, owner))
    assert coherence_layout_defect(wide) == 2
    # coordinate 0 in no block (-1): a run of no block, and block 0 short of
    # its width; the sum of the blocks is 0 there
    _relaid(monkeypatch, lambda owner: np.where(np.arange(owner.size) == 0, -1, owner))
    assert coherence_layout_defect(wide) == 2
    assert coherence_completeness_defect(wide) == 1.0


def test_pythagoras_over_random_vectors():
    model = synthetic_model(6, 3)
    rng = np.random.default_rng(8)
    for _ in range(100):
        state = rng.standard_normal(model.space.total_dim)
        total = sum(
            float(np.sum(state[coherence_projector(model, sec) == 1.0] ** 2))
            for sec in enumerate_sectors(model.n_slits, model.order)
        )
        assert total == pytest.approx(np.linalg.norm(state) ** 2, abs=1e-9)


def test_corrupted_projectors_fail_verification():
    model = quantum_model(3)
    # block 0 leaks onto coordinate 3, which belongs to another block
    family = projector_family(model)
    family[0, 3] = 1e-3
    assert not dense_completeness_defect(model, family) < DEFAULT_TOL
    pair, pyth = dense_orthogonality_defects(model, family)
    assert pair > 1e-9
    assert not (pair < DEFAULT_TOL and pyth < DEFAULT_TOL)


def test_projector_family_of_the_wrong_shape_is_rejected():
    model = quantum_model(3)
    family = projector_family(model)
    for bad in (family[:-1], family[:, :-1], family[0]):
        with pytest.raises(ValueError, match="projectors of 9 coordinates"):
            dense_completeness_defect(model, bad)
        with pytest.raises(ValueError, match="projectors of 9 coordinates"):
            dense_orthogonality_defects(model, bad)


def product_tensor_orthogonality_defects(model, family, n_vectors=100, seed=20240):
    """Orthogonality defects of a diagonal family through the (S, S, M)
    tensor of every product w_i w_j, against which the O(S M) reference
    `dense_orthogonality_defects` must be exact."""
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
    family = projector_family(model)
    assert dense_orthogonality_defects(model, family) == (
        product_tensor_orthogonality_defects(model, family)
    )


def test_orthogonality_defects_equal_the_product_tensor_off_projectors():
    model = synthetic_model(5, 3)
    rng = np.random.default_rng(11)
    m = model.space.total_dim
    for scale in (1.0, 1e-3, 1e3):
        family = np.stack([scale * rng.standard_normal(m) for _ in model.space.members])
        got = dense_orthogonality_defects(model, family)
        assert got == product_tensor_orthogonality_defects(model, family)
        assert got[0] > 0
    # entries just below 1: w_i^2 - w_i is small, so the product of two
    # different blocks sets the defect
    diags = rng.uniform(0.9, 1.0, size=(len(model.space.members), m))
    family = diags
    got = dense_orthogonality_defects(model, family)
    assert got == product_tensor_orthogonality_defects(model, family)
    assert got[0] > np.max(np.abs(diags * diags - diags))
    # two blocks that are the same projector overlap by exactly 1
    family = projector_family(model)
    family[1] = family[0]
    got = dense_orthogonality_defects(model, family)
    assert got == product_tensor_orthogonality_defects(model, family)
    assert got[0] == 1.0
    assert not (got[0] < DEFAULT_TOL and got[1] < DEFAULT_TOL)
    # a single sector: the diagonal term alone
    single = classical_model(1)
    family = np.array([[-0.5]])
    got = dense_orthogonality_defects(single, family)
    assert got == product_tensor_orthogonality_defects(single, family)
    assert got[0] == 0.75


def test_orthogonality_defect_with_a_nan_fails():
    model = quantum_model(3)
    family = projector_family(model)
    family[2, 1] = np.nan
    pair, pyth = dense_orthogonality_defects(model, family)
    assert np.isnan(pair)
    assert not (pair < DEFAULT_TOL and pyth < DEFAULT_TOL)


def test_interference_order_detection():
    specs = [("classical", n, 1) for n in range(1, 8)]
    specs += [("quantum", n, 2) for n in range(2, 8)]
    specs += [("synthetic", n, h) for n in range(1, 8) for h in range(1, n + 1)]
    for kind, n, h in specs:
        assert interference_order(build_model(kind, n, h)) == h, (kind, n, h)
    assert interference_order(synthetic_model(4, 3, {1: 2, 2: 3, 3: 1})) == 3


def test_interference_order_that_never_closes_is_a_numeric_error(monkeypatch):
    right = models.slit_projector
    monkeypatch.setattr(models, "slit_projector", lambda model, subset: 0.5 * right(model, subset))
    with pytest.raises(NumericError, match="never closes"):
        interference_order(quantum_model(4))


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
    moved = lifted @ model.uniform_state
    assert np.max(np.abs(moved - model.uniform_state)) < 1e-12


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
        state = rng.standard_normal(model.space.total_dim)
        assert np.linalg.norm(a @ state) == pytest.approx(np.linalg.norm(state), abs=1e-10)


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


def test_haar_frame_wider_than_the_space_is_refused():
    # R^3 holds at most 3 orthonormal columns; a shorter frame is no answer
    with pytest.raises(ValueError, match="at most 3 columns, got 5"):
        haar_orthogonal(3, np.random.default_rng(4), 5)
