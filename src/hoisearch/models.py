"""Concrete sector-decomposed state spaces and their operator algebra.

A model fixes a number of distinguishable states N, an interference order h,
and one real coordinate block per slit subset of size at most h. Coordinates
are chosen orthonormal for the self-dualising inner product, so the inner
product is the plain Euclidean dot product, reversible dynamics are exactly
the orthogonal matrices, and every coherence projector is an axis-aligned
block indicator. Three families are provided:

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
import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .subsets import (
    SlitSet,
    coherence_expansion,
    decomposition_coefficient,
    enumerate_sectors,
)

__all__ = [
    "SectorSpace",
    "StateVector",
    "LinearMap",
    "Oracle",
    "OracleCheck",
    "Model",
    "build_sector_space",
    "classical_model",
    "quantum_model",
    "synthetic_model",
    "build_model",
    "model_from_descriptor",
    "quantum_descriptor",
    "coherence_projector",
    "slit_projector",
    "sign_flip_oracle",
    "verify_oracle",
    "embed_density",
    "unembed_density",
    "lift_superoperator",
    "lift_unitary_conjugation",
    "conjugate_rows",
    "haar_orthogonal",
    "inner",
    "coherence_completeness_defect",
    "verify_coherence_completeness",
    "coherence_orthogonality_defects",
    "verify_coherence_orthogonality",
    "coherence_from_slit_projectors",
    "interference_order",
    "DEFAULT_TOL",
    "NumericError",
]

DEFAULT_TOL = 1e-9

# quantum block dimensions: a diagonal entry per singleton, (Re, Im) of the
# off-diagonal entry per pair
QUANTUM_DIMS_PER_SIZE = {1: 1, 2: 2}


class NumericError(ValueError):
    """A numeric check failed on valid input (a schedule step that is not reversible).

    Subclasses ValueError so that callers catching ValueError keep working.
    """


@dataclass(frozen=True, eq=False)
class SectorSpace:
    """Coordinate layout of a sector-decomposed state space."""

    n_slits: int
    order: int
    sectors: tuple[SlitSet, ...]
    dims: Mapping[SlitSet, int]
    offsets: Mapping[SlitSet, int]
    dims_per_size: Mapping[int, int]
    total_dim: int

    def sector_slice(self, sector: SlitSet) -> slice:
        if sector not in self.offsets:
            raise ValueError(f"unknown sector {sector!r} for this space")
        start = self.offsets[sector]
        return slice(start, start + self.dims[sector])

    @functools.cached_property
    def _density_index(self) -> tuple[np.ndarray, ...]:
        """``(diag, rows, cols, pair)`` of a quantum layout: rho_ii sits at
        coordinate ``diag[i]``; for the p-th pair ``rows[p] < cols[p]`` the
        sqrt(2)-scaled Re and Im parts sit at ``pair[p]`` and ``pair[p] + 1``.
        Sectors come singletons first, in slit order (`enumerate_sectors`).
        """
        n = self.n_slits
        offsets = np.array([self.offsets[s] for s in self.sectors], dtype=np.intp)
        pairs = np.array([s.members for s in self.sectors[n:]], dtype=np.intp)
        rows, cols = pairs.reshape(-1, 2).T
        return offsets[:n], rows, cols, offsets[n:]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SectorSpace):
            return NotImplemented
        return (
            self.n_slits == other.n_slits
            and self.order == other.order
            and dict(self.dims_per_size) == dict(other.dims_per_size)
        )


@dataclass
class StateVector:
    """A real coordinate vector partitioned across the sectors of a space."""

    space: SectorSpace
    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.space.total_dim,):
            raise ValueError(
                f"coordinate vector has shape {coords.shape}, "
                f"expected ({self.space.total_dim},)"
            )
        self.coords = coords

    def sector_component(self, sector: SlitSet) -> np.ndarray:
        """The coordinates living on one coherence block."""
        return self.coords[self.space.sector_slice(sector)]

    def copy(self) -> "StateVector":
        return StateVector(self.space, self.coords.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


class LinearMap:
    """A real linear map on a sector space.

    Backed either by a dense matrix or, for maps that are diagonal in the
    sector coordinates (projectors, sign-flip oracles, the identity), by the
    diagonal alone. The dense form is materialised on demand.
    """

    __slots__ = ("space", "_matrix", "_diag")

    def __init__(
        self,
        space: SectorSpace,
        matrix: np.ndarray | None = None,
        *,
        diag: np.ndarray | None = None,
    ) -> None:
        if (matrix is None) == (diag is None):
            raise ValueError("provide exactly one of matrix= or diag=")
        self.space = space
        m = space.total_dim
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (m, m):
                raise ValueError(f"matrix has shape {matrix.shape}, expected ({m}, {m})")
            self._matrix: np.ndarray | None = matrix
            self._diag: np.ndarray | None = None
        else:
            diag = np.asarray(diag, dtype=float)
            if diag.shape != (m,):
                raise ValueError(f"diagonal has shape {diag.shape}, expected ({m},)")
            self._matrix = None
            self._diag = diag

    @classmethod
    def identity(cls, space: SectorSpace) -> "LinearMap":
        return cls(space, diag=np.ones(space.total_dim))

    @property
    def diagonal(self) -> np.ndarray | None:
        """The diagonal if the map is stored diagonally, else None."""
        return self._diag

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        return np.diag(self._diag)

    def apply(self, state: StateVector) -> StateVector:
        _check_same_space(self.space, state.space)
        if self._diag is not None:
            return StateVector(state.space, self._diag * state.coords)
        return StateVector(state.space, self._matrix @ state.coords)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        _check_same_space(self.space, other.space)
        if self._diag is not None and other._diag is not None:
            return LinearMap(self.space, diag=self._diag * other._diag)
        return LinearMap(self.space, self.matrix @ other.matrix)

    def orthogonality_defect(self) -> float:
        """Max-abs deviation of T^t T from the identity (0 iff norm preserving)."""
        if self._diag is not None:
            return float(np.max(np.abs(self._diag**2 - 1.0)))
        m = self._matrix
        gram = m.T @ m
        gram.flat[:: m.shape[0] + 1] -= 1.0
        return float(np.max(np.abs(gram, out=gram)))

    def __repr__(self) -> str:
        kind = "diag" if self._diag is not None else "dense"
        return f"LinearMap({kind}, dim={self.space.total_dim})"


@dataclass(frozen=True, eq=False)
class Model:
    """A concrete theory carrier: space, distinguished basis, uniform state."""

    kind: str
    space: SectorSpace
    basis_states: tuple[StateVector, ...]
    uniform_state: StateVector

    @property
    def n_slits(self) -> int:
        return self.space.n_slits

    @property
    def order(self) -> int:
        return self.space.order

    def descriptor(self) -> dict:
        """JSON-serialisable description sufficient to rebuild the model."""
        return _descriptor(self.kind, self.n_slits, self.order, self.space.dims_per_size)

    def descriptor_json(self) -> str:
        return json.dumps(self.descriptor(), sort_keys=True)


@dataclass(frozen=True)
class Oracle:
    """A reversible marked-item query: trivial off the marked slit's coherences."""

    marked: int
    map: LinearMap
    model: Model


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

def build_sector_space(
    n_slits: int, order: int, dims_per_size: Mapping[int, int]
) -> SectorSpace:
    """Lay out one coordinate block per sector, in canonical order.

    ``dims_per_size`` assigns a block dimension to every sector size from 1
    to `order`; missing or non-positive entries are rejected.
    """
    sectors = tuple(enumerate_sectors(n_slits, order))
    dims: dict[SlitSet, int] = {}
    per_size: dict[int, int] = {}
    for size in range(1, order + 1):
        if size not in dims_per_size:
            raise ValueError(f"dims_per_size is missing an entry for sector size {size}")
        dim = int(dims_per_size[size])
        if dim < 1:
            raise ValueError(f"sector dimension for size {size} must be >= 1, got {dim}")
        per_size[size] = dim
    offsets: dict[SlitSet, int] = {}
    total = 0
    for sector in sectors:
        dim = per_size[len(sector)]
        dims[sector] = dim
        offsets[sector] = total
        total += dim
    return SectorSpace(
        n_slits=n_slits,
        order=order,
        sectors=sectors,
        dims=dims,
        offsets=offsets,
        dims_per_size=per_size,
        total_dim=total,
    )


def classical_model(n_slits: int) -> Model:
    """Order-1 theory: states are probability vectors over the slits.

    The uniform state is the uniform distribution, a mixed state of norm
    ``1/sqrt(N)``; search experiments on this model therefore start from a
    mixed state.
    """
    space = build_sector_space(n_slits, 1, {1: 1})
    basis = tuple(
        StateVector(space, _unit_vector(space.total_dim, i)) for i in range(n_slits)
    )
    uniform = StateVector(space, np.full(space.total_dim, 1.0 / n_slits))
    return Model("classical", space, basis, uniform)


def quantum_model(n_slits: int) -> Model:
    """Order-2 theory: N x N density matrices in real sector coordinates.

    Each singleton block holds a diagonal entry; each pair block holds
    ``(sqrt(2) Re rho_ij, sqrt(2) Im rho_ij)``, making the embedding a
    Hilbert-Schmidt isometry. Basis states embed the projectors onto the
    computational basis; the uniform state embeds the maximal-superposition
    pure state (all matrix entries 1/N).
    """
    if n_slits < 2:
        raise ValueError(f"the quantum model needs at least 2 slits, got {n_slits}")
    space = build_sector_space(n_slits, 2, QUANTUM_DIMS_PER_SIZE)
    basis = tuple(StateVector(space, _embed(space, np.diag(row))) for row in np.eye(n_slits))
    uniform = StateVector(space, _embed(space, np.full((n_slits, n_slits), 1.0 / n_slits)))
    return Model("quantum", space, basis, uniform)


def synthetic_model(
    n_slits: int, order: int, dims_per_size: Mapping[int, int] | None = None
) -> Model:
    """Abstract order-h carrier, one dimension per sector unless configured.

    Basis state i is the unit vector on the first coordinate of singleton
    block i. The uniform state puts 1/N on each of those coordinates and
    spreads the remaining weight evenly over all higher-sector coordinates so
    that its norm is exactly 1 and its overlap with every basis state is 1/N,
    mimicking the quantum uniform state. With no higher sectors (order 1) the
    leftover weight has nowhere to go and the uniform state is the classical
    mixed one of norm ``1/sqrt(N)``.
    """
    if dims_per_size is None:
        dims_per_size = {size: 1 for size in range(1, order + 1)}
    space = build_sector_space(n_slits, order, dims_per_size)
    basis = []
    singleton_index = np.zeros(space.total_dim, dtype=bool)
    for i in range(n_slits):
        sector = SlitSet((i,), n_slits)
        off = space.offsets[sector]
        basis.append(StateVector(space, _unit_vector(space.total_dim, off)))
        singleton_index[space.sector_slice(sector)] = True

    coords = np.zeros(space.total_dim)
    for i in range(n_slits):
        coords[space.offsets[SlitSet((i,), n_slits)]] = 1.0 / n_slits
    higher = ~singleton_index
    n_higher = int(higher.sum())
    if n_higher > 0:
        residual = 1.0 - n_slits * (1.0 / n_slits) ** 2
        coords[higher] = np.sqrt(residual / n_higher)
    uniform = StateVector(space, coords)
    return Model("synthetic", space, tuple(basis), uniform)


def build_model(
    kind: str,
    n_slits: int,
    order: int | None = None,
    dims_per_size: Mapping[int, int] | None = None,
) -> Model:
    """Build a model of one family, checking the family/order pair.

    Classical and quantum models have a fixed order (1 and 2), so ``order``
    may be omitted or must equal it; synthetic models need an explicit
    ``order`` of at most ``n_slits``. ``dims_per_size`` sets the synthetic
    block dimensions; the classical and quantum layouts are fixed.
    """
    if kind == "classical":
        if order not in (None, 1):
            raise ValueError("the classical model has order 1; omit --h")
        return classical_model(n_slits)
    if kind == "quantum":
        if order not in (None, 2):
            raise ValueError("the quantum model has order 2; omit --h")
        return quantum_model(n_slits)
    if kind == "synthetic":
        if order is None:
            raise ValueError("synthetic models need an explicit order")
        if order > n_slits:
            raise ValueError(f"h exceeds N: h={order}, N={n_slits}")
        return synthetic_model(n_slits, order, dims_per_size)
    raise ValueError(f"unknown model kind {kind!r}")


def model_from_descriptor(descriptor: Mapping | str) -> Model:
    """Rebuild a model from `Model.descriptor` output (dict or JSON text)."""
    if isinstance(descriptor, str):
        descriptor = json.loads(descriptor)
    dims = {int(k): int(v) for k, v in descriptor["dims_per_size"].items()}
    return build_model(
        descriptor["kind"], int(descriptor["n_slits"]), int(descriptor["order"]), dims
    )


def quantum_descriptor(n_slits: int) -> dict:
    """``quantum_model(n_slits).descriptor()``, without building the model."""
    return _descriptor("quantum", n_slits, 2, QUANTUM_DIMS_PER_SIZE)


def _descriptor(kind: str, n_slits: int, order: int, dims_per_size: Mapping[int, int]) -> dict:
    return {
        "kind": kind,
        "n_slits": n_slits,
        "order": order,
        "dims_per_size": {str(k): v for k, v in sorted(dims_per_size.items())},
    }


# ---------------------------------------------------------------------------
# Projectors and oracles
# ---------------------------------------------------------------------------

def coherence_projector(model: Model, sector: SlitSet) -> LinearMap:
    """Orthogonal projector onto one coherence block (zero elsewhere)."""
    space = model.space
    diag = np.zeros(space.total_dim)
    diag[space.sector_slice(sector)] = 1.0
    return LinearMap(space, diag=diag)


def slit_projector(model: Model, open_slits: SlitSet) -> LinearMap:
    """Projector implementing "block every slit outside this subset".

    Sum of the coherence blocks of all nonempty subsets of the open slits
    with size up to the model order. The empty subset gives the zero map.
    """
    space = model.space
    if open_slits.universe != space.n_slits:
        raise ValueError(
            f"subset universe {open_slits.universe} does not match the "
            f"model's {space.n_slits} slits"
        )
    diag = np.zeros(space.total_dim)
    for sub in open_slits.subsets(max_size=space.order):
        diag[space.sector_slice(sub)] = 1.0
    return LinearMap(space, diag=diag)


def sign_flip_oracle(model: Model, marked: int) -> Oracle:
    """The canonical search oracle: flip the sign of every coherence block
    that involves the marked slit together with at least one other slit.

    Diagonal in sector coordinates, hence orthogonal and an involution. In the
    quantum model this reproduces conjugation by the phase unitary that flags
    the marked basis state; in the classical model no block qualifies and the
    oracle is the identity.
    """
    space = model.space
    if not 0 <= marked < space.n_slits:
        raise ValueError(f"marked item {marked} out of range 0..{space.n_slits - 1}")
    diag = np.ones(space.total_dim)
    for sector in space.sectors:
        if len(sector) > 1 and marked in sector:
            diag[space.sector_slice(sector)] = -1.0
    return Oracle(marked, LinearMap(space, diag=diag), model)


def verify_oracle(
    model: Model, candidate: LinearMap, marked: int, *, tol: float = DEFAULT_TOL
) -> OracleCheck:
    """Check a map against the search-oracle conditions for one marked item.

    Conditions are checked on the coherence blocks, which span every slit
    projector: (a) blocks not involving the marked slit, and singleton
    blocks, must be fixed; (b) the map must commute with every block
    projector; (c) the map must preserve the norm (orthogonality).
    """
    _check_same_space(model.space, candidate.space)
    space = model.space
    mat = candidate.matrix
    eye = np.eye(space.total_dim)
    fix_defect = 0.0
    commute_defect = 0.0
    for sector in space.sectors:
        sl = space.sector_slice(sector)
        # the commutator with a block projector is exactly the two cross-block
        # strips of the matrix: rows in the block against columns outside, and
        # vice versa
        col_strip = mat[:, sl].copy()
        col_strip[sl, :] = 0.0
        row_strip = mat[sl, :].copy()
        row_strip[:, sl] = 0.0
        commute_defect = max(
            commute_defect,
            float(np.max(np.abs(col_strip))) if col_strip.size else 0.0,
            float(np.max(np.abs(row_strip))) if row_strip.size else 0.0,
        )
        if marked not in sector or len(sector) == 1:
            fix_defect = max(
                fix_defect, float(np.max(np.abs(mat[:, sl] - eye[:, sl])))
            )
    return OracleCheck(
        marked=marked,
        fixed_sector_defect=fix_defect,
        commutation_defect=commute_defect,
        orthogonality_defect=candidate.orthogonality_defect(),
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


def embed_density(model: Model, rho: np.ndarray) -> StateVector:
    """Embed a Hermitian N x N matrix into the quantum model's coordinates."""
    _require_quantum(model)
    rho = np.asarray(rho, dtype=complex)
    n = model.space.n_slits
    if rho.shape != (n, n):
        raise ValueError(f"matrix has shape {rho.shape}, expected ({n}, {n})")
    return StateVector(model.space, _embed(model.space, rho))


def unembed_density(model: Model, state: StateVector) -> np.ndarray:
    """Invert `embed_density`; always returns a Hermitian matrix."""
    _require_quantum(model)
    _check_same_space(model.space, state.space)
    return _unembed(model.space, state.coords)


def lift_superoperator(model: Model, fn: Callable[[np.ndarray], np.ndarray]) -> LinearMap:
    """Lift a Hermitian-matrix map to the quantum model's real coordinates.

    ``fn`` must send Hermitian matrices to Hermitian matrices (projection
    sandwiches and unitary conjugations both qualify); the lift is assembled
    from the images of the coordinate basis, one ``fn`` call per coordinate.
    """
    _require_quantum(model)
    space = model.space
    images = np.stack([fn(rho) for rho in _unembed(space, np.eye(space.total_dim))])
    return LinearMap(space, _embed(space, images).T)


def lift_unitary_conjugation(model: Model, unitary: np.ndarray) -> LinearMap:
    """The real sector-coordinate form of ``rho -> U rho U^dagger``."""
    _require_quantum(model)
    u = np.asarray(unitary, dtype=complex)
    n = model.space.n_slits
    if u.shape != (n, n):
        raise ValueError(f"unitary has shape {u.shape}, expected ({n}, {n})")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if defect > 1e-9:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    u_dag = u.conj().T
    return lift_superoperator(model, lambda rho: u @ rho @ u_dag)


def conjugate_rows(model: Model, unitary: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rho -> U rho U^dagger`` on quantum states stored as rows of shape (r, M).

    The batch form of `lift_unitary_conjugation`, with no M x M matrix. The
    unitary is not checked; `run_search` checks every step for reversibility.
    """
    _require_quantum(model)
    u = np.asarray(unitary)
    return _embed(model.space, u @ _unembed(model.space, rows) @ u.conj().T)


def _require_quantum(model: Model) -> None:
    if model.kind != "quantum":
        raise ValueError(f"operation requires the quantum model, got {model.kind!r}")


# ---------------------------------------------------------------------------
# Inner product, randomness, verification
# ---------------------------------------------------------------------------

def inner(left: StateVector, right: StateVector) -> float:
    """Self-dualising inner product; Euclidean in these coordinates."""
    _check_same_space(left.space, right.space)
    return float(np.dot(left.coords, right.coords))


def haar_orthogonal(dim: int, rng: np.random.Generator, cols: int | None = None) -> np.ndarray:
    """Haar-distributed orthonormal frame of ``cols`` columns in R^dim.

    QR of a dim x cols Gaussian, sign-fixed, which has the law of the first
    ``cols`` columns of a Haar-uniform orthogonal matrix (Mezzadri 2007,
    arXiv math-ph/0609050); the default ``cols = dim`` is such a matrix.
    """
    a = rng.standard_normal((dim, dim if cols is None else cols))
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _projector_family(
    model: Model, projectors: Sequence[LinearMap] | None
) -> list[LinearMap]:
    if projectors is None:
        return [coherence_projector(model, s) for s in model.space.sectors]
    family = list(projectors)
    if len(family) != len(model.space.sectors):
        raise ValueError(
            f"expected {len(model.space.sectors)} projectors, got {len(family)}"
        )
    return family


def coherence_completeness_defect(
    model: Model, projectors: Sequence[LinearMap] | None = None
) -> float:
    """Max-abs deviation of the summed coherence blocks from the identity."""
    family = _projector_family(model, projectors)
    m = model.space.total_dim
    if all(p.diagonal is not None for p in family):
        total = np.zeros(m)
        for p in family:
            total += p.diagonal
        return float(np.max(np.abs(total - 1.0)))
    total = np.zeros((m, m))
    for p in family:
        total += p.matrix
    return float(np.max(np.abs(total - np.eye(m))))


def verify_coherence_completeness(
    model: Model,
    *,
    tol: float = DEFAULT_TOL,
    projectors: Sequence[LinearMap] | None = None,
) -> bool:
    return coherence_completeness_defect(model, projectors) < tol


def coherence_orthogonality_defects(
    model: Model, projectors: Sequence[LinearMap] | None = None
) -> tuple[float, float]:
    """(pairwise product defect, Pythagoras defect) of the coherence blocks.

    The first number is the largest entry of ``w_i w_j - delta_ij w_i`` over
    all block pairs; the second is the largest deviation of the blockwise
    norm-squared sum from the total, over 100 seeded random vectors.
    """
    family = _projector_family(model, projectors)
    vecs = np.random.default_rng(20240).standard_normal((100, model.space.total_dim))
    if all(p.diagonal is not None for p in family):
        diags = np.stack([p.diagonal for p in family])  # (S, M)
        # max |w_i w_j - delta_ij w_i| without the (S, S, M) products: off the
        # diagonal it is the two largest |w| at a coordinate multiplied, the
        # same float as the largest rounded product since |a b| = |a| |b| and
        # rounding is monotone; a NaN entry makes both terms NaN
        pair_defect = np.max(np.abs(diags * diags - diags))
        if len(family) > 1:
            top = np.partition(np.abs(diags), -2, axis=0)[-2:]
            pair_defect = np.maximum(pair_defect, np.max(top[0] * top[1]))
        pair_defect = float(pair_defect)
        block_sq = (vecs**2) @ (diags**2).T  # (vectors, S)
        pyth_defect = float(
            np.max(np.abs(block_sq.sum(axis=1) - (vecs**2).sum(axis=1)))
        )
        return pair_defect, pyth_defect

    mats = [p.matrix for p in family]
    pair_defect = 0.0
    for i, wi in enumerate(mats):
        for j, wj in enumerate(mats):
            prod = wi @ wj
            if i == j:
                prod = prod - wi
            pair_defect = max(pair_defect, float(np.max(np.abs(prod))))
    total = np.zeros(len(vecs))
    for w in mats:
        total += ((vecs @ w.T) ** 2).sum(axis=1)
    pyth_defect = float(np.max(np.abs(total - (vecs**2).sum(axis=1))))
    return pair_defect, pyth_defect


def verify_coherence_orthogonality(
    model: Model,
    *,
    tol: float = DEFAULT_TOL,
    projectors: Sequence[LinearMap] | None = None,
) -> bool:
    pair, pyth = coherence_orthogonality_defects(model, projectors)
    return pair < tol and pyth < tol


def interference_order(model: Model, *, tol: float = DEFAULT_TOL) -> int:
    """Smallest order at which the identity decomposition over the model's
    slit projectors closes; equals the construction order for healthy models.
    """
    space = model.space
    n = space.n_slits
    for candidate in range(1, n + 1):
        diag = np.zeros(space.total_dim)
        for subset in enumerate_sectors(n, candidate):
            coeff = decomposition_coefficient(candidate, len(subset), n)
            if coeff == 0:
                continue
            diag += coeff * slit_projector(model, subset).diagonal
        if float(np.max(np.abs(diag - 1.0))) < tol:
            return candidate
    raise ValueError("the identity decomposition never closes; corrupt model?")


def coherence_from_slit_projectors(model: Model, sector: SlitSet) -> LinearMap:
    """Instantiate a coherence block from its formal slit-projector expansion.

    This is the inclusion-exclusion route; it must agree with
    `coherence_projector` on every sector and is tested as an invariant
    rather than assumed.
    """
    expansion = coherence_expansion(sector)
    diag = np.zeros(model.space.total_dim)
    for subset, coeff in expansion.items():
        diag += coeff * slit_projector(model, subset).diagonal
    return LinearMap(model.space, diag=diag)


def _unit_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def _check_same_space(a: SectorSpace, b: SectorSpace) -> None:
    if a is b:
        return
    if a != b:
        raise ValueError("objects live on different sector spaces")
