"""Concrete sector-decomposed state spaces and their operator algebra.

A model is a family and a layout: N distinguishable states, an interference
order h, and one real coordinate block per slit subset of size at most h.
`build_model` builds every model, and all else a model has is derived: the
block weights of its uniform state and its coordinate count M without
enumerating a sector, the sector tables on first dense use. Coordinates
are chosen orthonormal for the self-dualising inner product, so the inner
product is the plain Euclidean dot product, reversible dynamics are exactly
the orthogonal matrices, and every coherence projector is an axis-aligned
block indicator. States are plain ``(M,)`` coordinate arrays, and a model's
N distinguished basis states are unit vectors given by their coordinate
index (`Model.basis_index`), not stored. Projectors and sign-flip oracles
are diagonal in these coordinates and are returned as their diagonals, also
``(M,)`` arrays. The block checks read the layout tables in O(M) and build
no ``(M, M)`` or ``(S, M)`` array; their dense forms, which take any
candidate matrix or block family, are test references (``tests/reference.py``).
Three families are provided:

* classical (h = 1): probability vectors over N outcomes;
* quantum (h = 2): N x N density matrices as real vectors, an entry rho_ii
  per singleton block and the Re and Im parts of rho_ij per pair block,
  scaled by sqrt(2) so the Euclidean norm equals the Hilbert-Schmidt norm
  (pure states then have norm exactly 1). The library holds the states in
  these coordinates only; the map to and from matrices is a test reference;
* synthetic (any h): an abstract carrier with one dimension per sector by
  default. No claim is made that a complete physical theory with h > 2
  exists; these are bound-testing carriers only.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
import types
from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .subsets import EnumerationLimitError, SlitSet, identity_decomposition

__all__ = [
    "SectorSpace",
    "Model",
    "classical_model",
    "quantum_model",
    "synthetic_model",
    "build_model",
    "model_order",
    "default_dims_per_size",
    "slit_projector",
    "sign_flip_oracle",
    "haar_orthogonal",
    "coherence_completeness_defect",
    "coherence_layout_defect",
    "interference_order",
    "DEFAULT_TOL",
    "NumericError",
]

DEFAULT_TOL = 1e-9


class NumericError(ValueError):
    """A numeric check failed on valid input (a schedule step that is not
    reversible, an identity decomposition that never closes).

    Subclasses ValueError so that callers catching ValueError keep working.
    """


@dataclass(frozen=True, eq=False)
class SectorSpace:
    """Coordinate layout of a sector-decomposed state space, fixed by N, the
    order h and the block dimension ``d_t`` of each sector size t <= h. The
    sector tables and M are derived from these, so none can disagree with
    them. Construction checks N, h and that every ``d_t`` is an integer >= 1
    without enumerating a sector; M is a count, and the tables are built on
    first use."""

    n_slits: int
    order: int
    dims_per_size: Mapping[int, int]

    def __post_init__(self) -> None:
        # integers, as the sector enumeration needs them
        n, order = operator.index(self.n_slits), operator.index(self.order)
        if n < 1:
            raise ValueError(f"need at least one slit, got {n}")
        if not 1 <= order <= n:
            raise ValueError(f"order must satisfy 1 <= order <= {n}, got {order}")
        dims: dict[int, int] = {}
        for size in range(1, order + 1):
            if size not in self.dims_per_size:
                raise ValueError(f"dims_per_size is missing an entry for sector size {size}")
            value = self.dims_per_size[size]
            try:
                dims[size] = operator.index(value)
            except TypeError:
                raise ValueError(
                    f"sector dimension for size {size} must be an integer, got {value!r}"
                ) from None
            if dims[size] < 1:
                raise ValueError(f"sector dimension for size {size} must be >= 1, got {dims[size]}")
        object.__setattr__(self, "dims_per_size", dims)

    @functools.cached_property
    def total_dim(self) -> int:
        """M, the number of coordinates: ``sum_t d_t C(N, t)`` over the sector
        sizes t <= h, counted without enumerating a sector."""
        return sum(d * comb(self.n_slits, size) for size, d in self.dims_per_size.items())

    @functools.cached_property
    def owner(self) -> np.ndarray:
        """Block holding each coordinate, as a row of `members`, ``(M,)``.

        Every block-constant diagonal is an ``(S,)`` per-sector vector indexed
        by it; the blocks are laid out in sector order, the ``C(N, t)`` of size t
        ``d_t`` wide apiece."""
        sizes = range(1, self.order + 1)
        widths = np.repeat([self.dims_per_size[t] for t in sizes], [comb(self.n_slits, t) for t in sizes])
        return np.repeat(np.arange(widths.size), widths)

    @functools.cached_property
    def members(self) -> np.ndarray:
        """``(S, N)`` bool: ``members[b, i]`` is whether block b involves slit
        i, one size at a time from `itertools.combinations` index arrays, in
        the sector order of `enumerate_sectors`. The oracles, the slit
        projectors and `oracle_displacement` read the blocks' slits from this
        table alone."""
        n = self.n_slits
        counts = [comb(n, size) for size in range(1, self.order + 1)]
        table = np.zeros((sum(counts), n), dtype=bool)
        start = 0
        for size, count in enumerate(counts, 1):
            combos = itertools.chain.from_iterable(itertools.combinations(range(n), size))
            slits = np.fromiter(combos, dtype=np.intp, count=count * size)
            table[np.arange(start, start + count).repeat(size), slits] = True
            start += count
        table.flags.writeable = False  # shared by every caller of the cached table
        return table


@dataclass(frozen=True, eq=False)
class Model:
    """A concrete theory carrier, built by `build_model`: a family and a layout
    that agree, as construction checks (`model_order` accepts the kind, N and
    h; a classical or quantum layout has `default_dims_per_size`)."""

    kind: str
    space: SectorSpace

    def __post_init__(self) -> None:
        dims = self.space.dims_per_size
        model_order(self.kind, self.space.n_slits, self.space.order)
        expected = dims if self.kind == "synthetic" else default_dims_per_size(self.kind, self.space.order)
        if dims != expected:
            raise ValueError(f"the {self.kind} layout has block dimensions {expected}, got {dims}")

    @functools.cached_property
    def block_weights(self) -> Mapping[int, float]:
        """Squared norm ``w_t`` of the uniform state on one sector of each size t,
        read-only.

        The uniform state weighs every sector of one size alike, so these
        numbers and the counts ``C(N, t)`` give its norm and its weight on any
        union of sectors, without enumerating a sector:

        * classical: ``w_1 = 1/N^2``, the uniform distribution;
        * quantum: ``w_1 = 1/N^2`` and ``w_2 = 2/N^2``, an off-diagonal entry
          1/N scaled by sqrt(2);
        * synthetic: ``w_1 = 1/N^2``, and the leftover ``1 - 1/N`` spread evenly
          over the higher-sector coordinates, ``dims_per_size`` of them per sector.
        """
        n, dims = self.n_slits, self.space.dims_per_size
        start = 1.0 / n
        weights = {1: start**2}
        if self.kind == "quantum":
            weights[2] = 2.0 * start**2
        elif self.order > 1:
            # every coordinate past the leading singleton blocks is a higher sector's
            n_higher = self.space.total_dim - n * dims[1]
            if n_higher > sys.float_info.max:
                raise EnumerationLimitError(
                    f"synthetic N={n} h={self.order} has more higher-sector coordinates "
                    "than a float can count"
                )
            per_coordinate = (1.0 - n * weights[1]) / n_higher
            weights.update({size: dims[size] * per_coordinate for size in range(2, self.order + 1)})
        return types.MappingProxyType(weights)  # shared by every caller of the cached weights

    @functools.cached_property
    def uniform_state(self) -> np.ndarray:
        """The start state of a search, ``(M,)``, read-only.

        1/N on each basis coordinate. Quantum: the pure state with every
        matrix entry 1/N, so each pair block holds ``(sqrt(2)/N, 0)``, its
        Re and Im parts. Otherwise the leftover weight spread evenly over the
        higher-sector coordinates, for norm 1 and overlap 1/N with each basis
        state as in the quantum state (`block_weights`); at order 1 it is the
        classical uniform distribution, of norm 1/sqrt(N).
        """
        space, n = self.space, self.n_slits
        coords = np.zeros(space.total_dim)
        coords[self.basis_index] = 1.0 / n
        if self.kind == "quantum":
            # the pair blocks follow the N singletons, 2 coordinates wide
            coords[n::2] = np.sqrt(2.0) * (1.0 / n)
        elif self.order > 1:
            # the higher sectors follow the leading singleton blocks
            higher = np.sqrt(self.block_weights[2] / space.dims_per_size[2])
            coords[n * space.dims_per_size[1]:] = higher
        coords.flags.writeable = False  # shared by every caller of the cached state
        return coords

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
        return {
            "kind": self.kind,
            "n_slits": self.n_slits,
            "order": self.order,
            "dims_per_size": {str(k): v for k, v in sorted(self.space.dims_per_size.items())},
        }


# ---------------------------------------------------------------------------
# Space and model construction
# ---------------------------------------------------------------------------

def classical_model(n_slits: int) -> Model:
    """Order-1 theory: states are probability vectors over the slits."""
    return build_model("classical", n_slits)


def quantum_model(n_slits: int) -> Model:
    """Order-2 theory: N x N density matrices in real sector coordinates, a
    diagonal entry per singleton block and ``(sqrt(2) Re rho_ij, sqrt(2) Im
    rho_ij)`` per pair block ``{i, j}``, i < j, which makes the coordinates a
    Hilbert-Schmidt isometry. The map between the two forms is a test
    reference (``tests/reference.py``)."""
    return build_model("quantum", n_slits)


def synthetic_model(
    n_slits: int, order: int, dims_per_size: Mapping[int, int] | None = None
) -> Model:
    """Abstract order-h carrier, one dimension per sector unless configured."""
    return build_model("synthetic", n_slits, order, dims_per_size)


def model_order(kind: str, n_slits: int, order: int | None = None) -> int:
    """The order of a model spec, after checking the family, order and N.

    Classical and quantum models have a fixed order (1 and 2), so ``order``
    may be omitted or must equal it; synthetic models need an explicit
    ``order`` of at most ``n_slits``. `build_model` and `Model` check every
    spec with it. N is capped at the largest array index, the length of a
    report's success rows.
    """
    if n_slits > np.iinfo(np.intp).max:
        raise ValueError(f"N={n_slits} is past the largest array index {np.iinfo(np.intp).max}")
    if kind == "classical":
        if order not in (None, 1):
            raise ValueError(f"the classical model has order 1, got order {order}")
        order = 1
    elif kind == "quantum":
        if order not in (None, 2):
            raise ValueError(f"the quantum model has order 2, got order {order}")
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
    """The one constructor of a model, after `model_order` checks the spec.
    ``dims_per_size`` defaults to the family's layout, and only the synthetic
    one can differ from it."""
    order = model_order(kind, n_slits, order)
    if dims_per_size is None:
        dims_per_size = default_dims_per_size(kind, order)
    return Model(kind, SectorSpace(n_slits, order, dims_per_size))


def default_dims_per_size(kind: str, order: int) -> dict[int, int]:
    """Block dimension per sector size of a family's standard layout.

    One coordinate per sector, except the quantum pairs, which hold the Re
    and Im parts of an off-diagonal entry.
    """
    if kind == "quantum":
        return {1: 1, 2: 2}
    return {size: 1 for size in range(1, order + 1)}


# ---------------------------------------------------------------------------
# Projectors and oracles
# ---------------------------------------------------------------------------

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
    if cols is not None and cols > dim:
        raise ValueError(f"a frame in R^{dim} has at most {dim} columns, got {cols}")
    a = rng.standard_normal((dim, dim if cols is None else cols))
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _block_widths(space: SectorSpace) -> np.ndarray:
    """``(S,)`` width ``dims_per_size[t]`` of each block, its sector size t
    read from `SectorSpace.members`; 0 for a row of no sector size (none, or
    more than h slits)."""
    widths = np.zeros(space.n_slits + 1, dtype=np.intp)
    widths[1:space.order + 1] = [space.dims_per_size[t] for t in range(1, space.order + 1)]
    return widths[space.members.sum(axis=1)]


def coherence_completeness_defect(model: Model) -> float:
    """Largest gap between a coherence block's coordinate count, read from
    `SectorSpace.owner`, and the width its sector size sets.

    The blocks sum to the identity exactly when every coordinate has one
    block and every block its width, so 0 means complete. A coordinate whose
    ``owner`` entry is outside ``0..S-1`` is in no block, where the sum is 0:
    a gap of 1.
    """
    widths, owner = _block_widths(model.space), model.space.owner
    known = (owner >= 0) & (owner < widths.size)
    counts = np.bincount(owner[known], minlength=widths.size)
    return float(max(np.max(np.abs(counts - widths)), not known.all()))


def coherence_layout_defect(model: Model) -> int:
    """Number of runs of `SectorSpace.owner` out of the sector-order layout.

    Blocks given by ``owner`` are orthogonal by construction, each the 0/1
    indicator of its coordinates. What the layout's readers assume
    (`Model.basis_index`, `Model.uniform_state`) is that every block is one
    contiguous run of its width, in sector order, singletons first: a run is
    counted when its block does not follow the previous run's, is not one of
    the S blocks, or its length is not its block's width. O(M), 0 means in
    order.
    """
    widths, owner = _block_widths(model.space), model.space.owner
    starts = np.flatnonzero(np.r_[True, np.diff(owner) != 0])
    blocks = owner[starts]
    lengths = np.diff(starts, append=owner.size)
    misplaced = np.diff(blocks, prepend=-1) != 1
    unknown = (blocks < 0) | (blocks >= widths.size)
    return int(np.count_nonzero(misplaced | unknown | (lengths != widths.take(blocks, mode="clip"))))


def interference_order(model: Model, *, tol: float = DEFAULT_TOL) -> int:
    """Smallest order at which the identity decomposition over the model's
    slit projectors closes; equals the construction order for healthy models.
    A decomposition that closes at no order up to N raises `NumericError`.
    """
    space = model.space
    n = space.n_slits
    for candidate in range(1, n + 1):
        diag = np.zeros(space.total_dim)
        for subset, coeff in identity_decomposition(candidate, n).items():
            diag += coeff * slit_projector(model, subset)
        if float(np.max(np.abs(diag - 1.0))) < tol:
            return candidate
    raise NumericError("the identity decomposition never closes; corrupt model?")
