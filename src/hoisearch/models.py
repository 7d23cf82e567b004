"""Concrete sector-decomposed state spaces and their operator algebra.

A model fixes a number of distinguishable states N, an interference order h,
and one real coordinate block per slit subset of size at most h. Coordinates
are chosen orthonormal for the self-dualising inner product, so the inner
product is the plain Euclidean dot product, reversible dynamics are exactly
the orthogonal matrices, and every coherence projector is an axis-aligned
block indicator. States are plain ``(M,)`` coordinate arrays, and a model's
N distinguished basis states are unit vectors given by their coordinate
index (`Model.basis_index`), not stored. Projectors and sign-flip oracles
are diagonal in these coordinates and are returned as their diagonals, also
``(M,)`` arrays; only `verify_oracle` takes an ``(M, M)`` matrix. Three
families are provided:

* classical (h = 1): probability vectors over N outcomes;
* quantum (h = 2): N x N density matrices embedded as real vectors, with the
  off-diagonal pairs scaled by sqrt(2) so the Euclidean norm equals the
  Hilbert-Schmidt norm (pure states then have norm exactly 1);
* synthetic (any h): an abstract carrier with one dimension per sector by
  default. No claim is made that a complete physical theory with h > 2
  exists; these are bound-testing carriers only.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .subsets import (
    EnumerationLimitError,
    SlitSet,
    enumerate_sectors,
    identity_decomposition,
)

__all__ = [
    "SectorSpace",
    "OracleCheck",
    "Model",
    "build_sector_space",
    "classical_model",
    "quantum_model",
    "synthetic_model",
    "build_model",
    "model_order",
    "default_dims_per_size",
    "layout_dim",
    "descriptor_from_spec",
    "uniform_block_weights",
    "coherence_projector",
    "slit_projector",
    "sign_flip_oracle",
    "verify_oracle",
    "embed_density",
    "unembed_density",
    "haar_orthogonal",
    "coherence_completeness_defect",
    "coherence_orthogonality_defects",
    "interference_order",
    "DEFAULT_TOL",
    "NumericError",
]

DEFAULT_TOL = 1e-9


class NumericError(ValueError):
    """A numeric check failed on valid input (a schedule step that is not reversible).

    Subclasses ValueError so that callers catching ValueError keep working.
    """


@dataclass(frozen=True, eq=False)
class SectorSpace:
    """Coordinate layout of a sector-decomposed state space, fixed by N, the
    order h and the block dimension ``d_t`` of each sector size t <= h. The
    sectors, each block's coordinates and M are derived from these, so none
    can disagree with them; construction checks N, h and every ``d_t >= 1``."""

    n_slits: int
    order: int
    dims_per_size: Mapping[int, int]

    def __post_init__(self) -> None:
        self.sectors  # the one enumeration, cached; checks N and h
        dims: dict[int, int] = {}
        for size in range(1, self.order + 1):
            if size not in self.dims_per_size:
                raise ValueError(f"dims_per_size is missing an entry for sector size {size}")
            dims[size] = int(self.dims_per_size[size])
            if dims[size] < 1:
                raise ValueError(f"sector dimension for size {size} must be >= 1, got {dims[size]}")
        object.__setattr__(self, "dims_per_size", dims)

    @functools.cached_property
    def sectors(self) -> tuple[SlitSet, ...]:
        """Every slit set of size at most h, in canonical order (`enumerate_sectors`)."""
        return tuple(enumerate_sectors(self.n_slits, self.order))

    @functools.cached_property
    def total_dim(self) -> int:
        """M, the number of coordinates."""
        return self.owner.size

    @functools.cached_property
    def owner(self) -> np.ndarray:
        """Position in `sectors` of the block holding each coordinate, ``(M,)``.

        Every block-constant diagonal is an ``(S,)`` per-sector vector indexed
        by it; the blocks are laid out in sector order, each `dims_per_size` wide.
        """
        widths = [self.dims_per_size[len(s)] for s in self.sectors]
        return np.repeat(np.arange(len(self.sectors)), widths)

    @functools.cached_property
    def members(self) -> np.ndarray:
        """``(S, N)`` bool: ``members[b, i]`` is whether block b involves slit
        i. The oracles, the slit projectors, `oracle_displacement` and the
        quantum embedding read the blocks' slits from this table alone."""
        blocks, slits = zip(*((b, i) for b, s in enumerate(self.sectors) for i in s.members))
        table = np.zeros((len(self.sectors), self.n_slits), dtype=bool)
        table[blocks, slits] = True
        table.flags.writeable = False  # shared by every caller of the cached table
        return table

    @functools.cached_property
    def _density_index(self) -> tuple[np.ndarray, ...]:
        """``(diag, rows, cols, pair)`` of a quantum layout: rho_ii sits at
        coordinate ``diag[i]``; for the p-th pair ``rows[p] < cols[p]`` the
        sqrt(2)-scaled Re and Im parts sit at ``pair[p]`` and ``pair[p] + 1``.
        Sectors come singletons first, in slit order (`enumerate_sectors`).
        """
        n = self.n_slits
        starts = np.searchsorted(self.owner, np.arange(len(self.sectors)))
        rows, cols = np.nonzero(self.members[n:])[1].reshape(-1, 2).T
        return starts[:n], rows, cols, starts[n:]


@dataclass(frozen=True, eq=False)
class Model:
    """A concrete theory carrier: a space and its uniform state, ``(M,)``."""

    kind: str
    space: SectorSpace
    uniform_state: np.ndarray

    @property
    def n_slits(self) -> int:
        return self.space.n_slits

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def basis_index(self) -> np.ndarray:
        """Coordinate of each distinguished basis state, shape ``(N,)``.

        Basis state i is the unit vector on the first coordinate of singleton
        block i; the singleton blocks lead the layout (`enumerate_sectors`),
        each ``dims_per_size[1]`` coordinates wide.
        """
        return np.arange(self.n_slits, dtype=np.intp) * self.space.dims_per_size[1]

    def descriptor(self) -> dict:
        """JSON-serialisable description sufficient to rebuild the model."""
        return descriptor_from_spec(self.kind, self.n_slits, self.order, self.space.dims_per_size)


@dataclass(frozen=True)
class OracleCheck:
    """Per-condition deviations of a candidate oracle map.

    ``fixed_sector_defect`` covers the sectors the map must leave untouched
    (marked slit absent, or singleton); ``commutation_defect`` covers
    commutation with every sector projector; ``orthogonality_defect`` is the
    norm-preservation proxy.
    """

    marked: int
    fixed_sector_defect: float
    commutation_defect: float
    orthogonality_defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.fixed_sector_defect < self.tol
            and self.commutation_defect < self.tol
            and self.orthogonality_defect < self.tol
        )


# ---------------------------------------------------------------------------
# Space and model construction
# ---------------------------------------------------------------------------

def build_sector_space(n_slits: int, order: int, dims_per_size: Mapping[int, int]) -> SectorSpace:
    """One coordinate block per sector, in canonical order; ``dims_per_size``
    must give every sector size 1..`order` a dimension >= 1."""
    return SectorSpace(n_slits, order, dims_per_size)


def classical_model(n_slits: int) -> Model:
    """Order-1 theory: states are probability vectors over the slits.

    The uniform state is the uniform distribution, a mixed state of norm
    ``1/sqrt(N)``; search experiments on this model therefore start from a
    mixed state.
    """
    space = build_sector_space(n_slits, 1, default_dims_per_size("classical", 1))
    return Model("classical", space, np.full(space.total_dim, 1.0 / n_slits))


def quantum_model(n_slits: int) -> Model:
    """Order-2 theory: N x N density matrices in real sector coordinates.

    Each singleton block holds a diagonal entry; each pair block holds
    ``(sqrt(2) Re rho_ij, sqrt(2) Im rho_ij)``, making the embedding a
    Hilbert-Schmidt isometry. Basis states embed the projectors onto the
    computational basis; the uniform state embeds the maximal-superposition
    pure state (all matrix entries 1/N).
    """
    model_order("quantum", n_slits)
    space = build_sector_space(n_slits, 2, default_dims_per_size("quantum", 2))
    uniform = _embed(space, np.full((n_slits, n_slits), 1.0 / n_slits))
    return Model("quantum", space, uniform)


def synthetic_model(
    n_slits: int, order: int, dims_per_size: Mapping[int, int] | None = None
) -> Model:
    """Abstract order-h carrier, one dimension per sector unless configured.

    Basis state i is the unit vector on the first coordinate of singleton
    block i. The uniform state puts 1/N on each of those coordinates and
    spreads the remaining weight evenly over all higher-sector coordinates so
    that its norm is exactly 1 and its overlap with every basis state is 1/N,
    mimicking the quantum uniform state (`uniform_block_weights`). With no
    higher sectors (order 1) the leftover weight has nowhere to go and the
    uniform state is the classical mixed one of norm ``1/sqrt(N)``.
    """
    if dims_per_size is None:
        dims_per_size = default_dims_per_size("synthetic", order)
    space = build_sector_space(n_slits, order, dims_per_size)
    # the singleton blocks lead the layout (see `Model.basis_index`), so every
    # coordinate past them belongs to a higher sector, and all of them carry
    # the same weight
    width = space.dims_per_size[1]
    coords = np.zeros(space.total_dim)
    coords[: n_slits * width : width] = 1.0 / n_slits
    n_higher = space.total_dim - n_slits * width
    if n_higher > 0:
        weights = uniform_block_weights("synthetic", n_slits, order, space.dims_per_size)
        coords[-n_higher:] = np.sqrt(weights[2] / space.dims_per_size[2])
    return Model("synthetic", space, coords)


def model_order(kind: str, n_slits: int, order: int | None = None) -> int:
    """The order of a model spec, after checking the family, order and N.

    Classical and quantum models have a fixed order (1 and 2), so ``order``
    may be omitted or must equal it; synthetic models need an explicit
    ``order`` of at most ``n_slits``. Nothing is built, so this is also the
    check of the closed-form routes that never build a model. N is capped
    at the largest array index, the length of a report's success rows.
    """
    if n_slits > np.iinfo(np.intp).max:
        raise ValueError(f"N={n_slits} is past the largest array index {np.iinfo(np.intp).max}")
    if kind == "classical":
        if order not in (None, 1):
            raise ValueError("the classical model has order 1; omit --h")
        order = 1
    elif kind == "quantum":
        if order not in (None, 2):
            raise ValueError("the quantum model has order 2; omit --h")
        if n_slits < 2:
            raise ValueError(f"the quantum model needs at least 2 slits, got {n_slits}")
        return 2
    elif kind == "synthetic":
        if order is None:
            raise ValueError("synthetic models need an explicit order")
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    if n_slits < 1:
        raise ValueError(f"need at least one slit, got {n_slits}")
    if order > n_slits:
        raise ValueError(f"h exceeds N: h={order}, N={n_slits}")
    if order < 1:
        raise ValueError(f"order must satisfy 1 <= order <= {n_slits}, got {order}")
    return order


def build_model(
    kind: str,
    n_slits: int,
    order: int | None = None,
    dims_per_size: Mapping[int, int] | None = None,
) -> Model:
    """Build a model of one family, checking the spec with `model_order`.

    ``dims_per_size`` sets the synthetic block dimensions; the classical and
    quantum layouts are fixed.
    """
    order = model_order(kind, n_slits, order)
    if kind == "classical":
        return classical_model(n_slits)
    if kind == "quantum":
        return quantum_model(n_slits)
    return synthetic_model(n_slits, order, dims_per_size)


def default_dims_per_size(kind: str, order: int) -> dict[int, int]:
    """Block dimension per sector size of a family's standard layout.

    One coordinate per sector, except the quantum pairs, which hold the Re
    and Im parts of an off-diagonal entry.
    """
    if kind == "quantum":
        return {1: 1, 2: 2}
    return {size: 1 for size in range(1, order + 1)}


def layout_dim(
    kind: str, n_slits: int, order: int, dims_per_size: Mapping[int, int] | None = None
) -> int:
    """Coordinates M of a layout, ``sum_t d_t C(N, t)`` over the sector sizes
    t <= h, counted from the spec without enumerating a sector.

    ``dims_per_size`` defaults to the family's standard layout.
    """
    if dims_per_size is None:
        dims_per_size = default_dims_per_size(kind, order)
    return sum(dims_per_size[size] * comb(n_slits, size) for size in range(1, order + 1))


def uniform_block_weights(
    kind: str, n_slits: int, order: int, dims_per_size: Mapping[int, int] | None = None
) -> dict[int, float]:
    """Squared norm ``w_t`` of the uniform state on one sector of each size t.

    The uniform state weighs every sector of one size alike, so these
    numbers and the counts ``C(N, t)`` give its norm and its weight on any
    union of sectors:

    * classical: ``w_1 = 1/N^2``, the uniform distribution;
    * quantum: ``w_1 = 1/N^2`` and ``w_2 = 2/N^2``, an off-diagonal entry
      1/N scaled by sqrt(2);
    * synthetic: ``w_1 = 1/N^2``, and the leftover ``1 - 1/N`` spread evenly
      over the higher-sector coordinates, ``dims_per_size`` (one per sector
      by default) of them per sector.
    """
    start = 1.0 / n_slits
    weights = {1: start**2}
    if kind == "quantum":
        weights[2] = 2.0 * start**2
    elif kind == "synthetic" and order > 1:
        dims = default_dims_per_size(kind, order) if dims_per_size is None else dims_per_size
        n_higher = layout_dim(kind, n_slits, order, dims) - n_slits * dims[1]
        if n_higher > sys.float_info.max:
            raise EnumerationLimitError(
                f"synthetic N={n_slits} h={order} has more higher-sector coordinates "
                "than a float can count"
            )
        per_coordinate = (1.0 - n_slits * weights[1]) / n_higher
        weights.update({size: dims[size] * per_coordinate for size in range(2, order + 1)})
    return weights


def descriptor_from_spec(
    kind: str, n_slits: int, order: int, dims_per_size: Mapping[int, int] | None = None
) -> dict:
    """``Model.descriptor()`` of a spec, without building the model.

    ``dims_per_size`` defaults to the family's standard layout.
    """
    if dims_per_size is None:
        dims_per_size = default_dims_per_size(kind, order)
    return {
        "kind": kind,
        "n_slits": n_slits,
        "order": order,
        "dims_per_size": {str(k): v for k, v in sorted(dims_per_size.items())},
    }


# ---------------------------------------------------------------------------
# Projectors and oracles
# ---------------------------------------------------------------------------

def coherence_projector(model: Model, sector: SlitSet) -> np.ndarray:
    """Orthogonal projector onto one coherence block: 1 on the block, 0 elsewhere."""
    space = model.space
    if sector not in space.sectors:
        raise ValueError(f"unknown sector {sector!r} for this space")
    return (space.owner == space.sectors.index(sector)).astype(float)


def slit_projector(model: Model, open_slits: SlitSet) -> np.ndarray:
    """Projector implementing "block every slit outside this subset".

    Sum of the coherence blocks that involve no closed slit, read from
    `SectorSpace.members`. The empty subset gives the zero map.
    """
    space = model.space
    if open_slits.universe != space.n_slits:
        raise ValueError(
            f"subset universe {open_slits.universe} does not match the "
            f"model's {space.n_slits} slits"
        )
    is_open = np.zeros(space.n_slits, dtype=bool)
    is_open[list(open_slits.members)] = True
    inside = ~space.members[:, ~is_open].any(axis=1)
    return inside[space.owner].astype(float)


def sign_flip_oracle(model: Model, marked: int | Sequence[int]) -> np.ndarray:
    """The canonical search oracle: flip the sign of every coherence block
    that involves the marked slit together with at least one other slit.

    Diagonal in sector coordinates, hence orthogonal and an involution; the
    ±1 diagonal is returned, ``(M,)`` for one marked item and ``(r, M)``, a
    row per item, for a sequence of r. In the quantum model this reproduces
    conjugation by the phase unitary that flags the marked basis state; in
    the classical model no block qualifies and the oracle is the identity.
    """
    space = model.space
    items = np.asarray(marked)
    if items.dtype.kind not in "iu":  # a bool array would index as a mask
        raise ValueError(f"marked items must be integers, got dtype {items.dtype}")
    outside = (items < 0) | (items >= space.n_slits)
    if np.any(outside):
        raise ValueError(f"marked item {items[outside][0]} out of range 0..{space.n_slits - 1}")
    multi = space.members.sum(axis=1) > 1
    flips = space.members.T[items] & multi  # (S,) or (r, S)
    return np.where(flips[..., space.owner], -1.0, 1.0)


def verify_oracle(
    model: Model, candidate: np.ndarray, marked: int, *, tol: float = DEFAULT_TOL
) -> OracleCheck:
    """Check a map, given as its (M, M) matrix in sector coordinates, against
    the search-oracle conditions for one marked item.

    Conditions are checked on the coherence blocks, which span every slit
    projector: (a) blocks not involving the marked slit, and singleton
    blocks, must be fixed; (b) the map must commute with every block
    projector; (c) the map must preserve the norm (orthogonality).
    """
    space = model.space
    m = space.total_dim
    mat = np.asarray(candidate, dtype=float)
    if mat.shape != (m, m):
        raise ValueError(f"candidate has shape {mat.shape}, expected ({m}, {m})")
    fixed = np.flatnonzero(sign_flip_oracle(model, marked) > 0)
    owner = space.owner
    # the commutator with a block projector is exactly the entries that join
    # that block to another, so the worst block's is the largest such entry
    commute_defect = np.max(np.abs(mat), where=owner[:, None] != owner[None, :], initial=0.0)
    moved = mat[:, fixed]
    moved[fixed, np.arange(fixed.size)] -= 1.0
    fix_defect = np.max(np.abs(moved), initial=0.0)
    gram = mat.T @ mat
    gram.flat[:: m + 1] -= 1.0
    return OracleCheck(
        marked=marked,
        fixed_sector_defect=float(fix_defect),
        commutation_defect=float(commute_defect),
        orthogonality_defect=float(np.max(np.abs(gram))),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Quantum embedding
# ---------------------------------------------------------------------------

def _embed(space: SectorSpace, rho: np.ndarray) -> np.ndarray:
    """Sector coordinates of Hermitian matrices, shape (..., N, N) -> (..., M)."""
    diag, rows, cols, pair = space._density_index
    n = space.n_slits
    coords = np.empty(rho.shape[:-2] + (space.total_dim,))
    coords[..., diag] = rho[..., np.arange(n), np.arange(n)].real
    upper = rho[..., rows, cols]
    coords[..., pair] = np.sqrt(2.0) * upper.real
    coords[..., pair + 1] = np.sqrt(2.0) * upper.imag
    return coords


def _unembed(space: SectorSpace, coords: np.ndarray) -> np.ndarray:
    """Inverse of `_embed`: Hermitian matrices, shape (..., M) -> (..., N, N)."""
    diag, rows, cols, pair = space._density_index
    n = space.n_slits
    rho = np.zeros(coords.shape[:-1] + (n, n), dtype=complex)
    rho[..., np.arange(n), np.arange(n)] = coords[..., diag]
    upper = (coords[..., pair] + 1j * coords[..., pair + 1]) * (1.0 / np.sqrt(2.0))
    rho[..., rows, cols] = upper
    rho[..., cols, rows] = upper.conj()
    return rho


def embed_density(model: Model, rho: np.ndarray) -> np.ndarray:
    """Embed a Hermitian N x N matrix into the quantum model's coordinates."""
    _require_quantum(model)
    rho = np.asarray(rho, dtype=complex)
    n = model.space.n_slits
    if rho.shape != (n, n):
        raise ValueError(f"matrix has shape {rho.shape}, expected ({n}, {n})")
    return _embed(model.space, rho)


def unembed_density(model: Model, state: np.ndarray) -> np.ndarray:
    """Invert `embed_density`; always returns a Hermitian matrix."""
    _require_quantum(model)
    return _unembed(model.space, _check_state(model, state))


def _require_quantum(model: Model) -> None:
    if model.kind != "quantum":
        raise ValueError(f"operation requires the quantum model, got {model.kind!r}")


# ---------------------------------------------------------------------------
# States, randomness, verification
# ---------------------------------------------------------------------------

def _check_state(model: Model, state: np.ndarray) -> np.ndarray:
    """A state of the model as a float array, after checking its shape ``(M,)``."""
    coords = np.asarray(state, dtype=float)
    if coords.shape != (model.space.total_dim,):
        raise ValueError(
            f"state has shape {coords.shape}, expected ({model.space.total_dim},)"
        )
    return coords


def haar_orthogonal(dim: int, rng: np.random.Generator, cols: int | None = None) -> np.ndarray:
    """Haar-distributed orthonormal frame of ``cols`` columns in R^dim.

    QR of a dim x cols Gaussian, sign-fixed, which has the law of the first
    ``cols`` columns of a Haar-uniform orthogonal matrix (Mezzadri 2007,
    arXiv math-ph/0609050); the default ``cols = dim`` is such a matrix.
    """
    a = rng.standard_normal((dim, dim if cols is None else cols))
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _projector_family(model: Model, projectors: np.ndarray | None) -> np.ndarray:
    """The (S, M) stack of block diagonals, one row per sector."""
    if projectors is None:
        space = model.space
        return (space.owner == np.arange(len(space.sectors))[:, None]).astype(float)
    family = np.asarray(projectors, dtype=float)
    expected = (len(model.space.sectors), model.space.total_dim)
    if family.shape != expected:
        raise ValueError(
            f"expected {expected[0]} projectors of {expected[1]} coordinates, "
            f"got shape {family.shape}"
        )
    return family


def coherence_completeness_defect(
    model: Model, projectors: np.ndarray | None = None
) -> float:
    """Max-abs deviation of the summed coherence blocks from the identity.

    ``projectors`` is an (S, M) array of block diagonals, one row per sector;
    the model's own coherence projectors by default.
    """
    family = _projector_family(model, projectors)
    return float(np.max(np.abs(family.sum(axis=0) - 1.0)))


def coherence_orthogonality_defects(
    model: Model, projectors: np.ndarray | None = None
) -> tuple[float, float]:
    """(pairwise product defect, Pythagoras defect) of the coherence blocks.

    ``projectors`` is as in `coherence_completeness_defect`. The first number
    is the largest entry of ``w_i w_j - delta_ij w_i`` over all block pairs;
    the second is the largest deviation of the blockwise norm-squared sum
    from the total, over 100 seeded random vectors.
    """
    diags = _projector_family(model, projectors)
    vecs = np.random.default_rng(20240).standard_normal((100, model.space.total_dim))
    # max |w_i w_j - delta_ij w_i| without the (S, S, M) products: off the
    # diagonal it is the two largest |w| at a coordinate multiplied, the same
    # float as the largest rounded product since |a b| = |a| |b| and rounding
    # is monotone; a NaN entry makes both terms NaN
    pair_defect = np.max(np.abs(diags * diags - diags))
    if len(diags) > 1:
        top = np.partition(np.abs(diags), -2, axis=0)[-2:]
        pair_defect = np.maximum(pair_defect, np.max(top[0] * top[1]))
    block_sq = (vecs**2) @ (diags**2).T  # (vectors, S)
    pyth_defect = float(np.max(np.abs(block_sq.sum(axis=1) - (vecs**2).sum(axis=1))))
    return float(pair_defect), pyth_defect


def interference_order(model: Model, *, tol: float = DEFAULT_TOL) -> int:
    """Smallest order at which the identity decomposition over the model's
    slit projectors closes; equals the construction order for healthy models.
    """
    space = model.space
    n = space.n_slits
    for candidate in range(1, n + 1):
        diag = np.zeros(space.total_dim)
        for subset, coeff in identity_decomposition(candidate, n).items():
            diag += coeff * slit_projector(model, subset)
        if float(np.max(np.abs(diag - 1.0))) < tol:
            return candidate
    raise ValueError("the identity decomposition never closes; corrupt model?")
