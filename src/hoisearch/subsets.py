"""Exact combinatorics on the lattice of slit subsets.

Everything in this module is model independent and uses integer arithmetic
only: subsets of ``{0, .., N-1}`` indexing open slits, the signed
coefficients that rebuild the identity from slit projectors in a theory
whose interference terminates at a given order, and the signed pairing
counts that make coherence blocks mutually orthogonal. No floating point
enters anywhere here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator

__all__ = [
    "EnumerationLimitError",
    "SlitSet",
    "enumerate_sectors",
    "decomposition_coefficient",
    "identity_decomposition",
    "coherence_expansion",
    "signed_pairing_counts",
    "signed_pairing_count_closed",
    "MAX_UNIVERSE",
    "MAX_PAIR_ENUMERATION",
]

# Guards keeping the exact enumeration honest instead of silently exploding.
MAX_UNIVERSE = 30
MAX_PAIR_ENUMERATION = 40


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the size guards."""


@dataclass(frozen=True)
class SlitSet:
    """An ordered subset of the slits ``{0, .., universe-1}``.

    The empty set is allowed (it indexes the block-everything projector,
    which is the zero map by convention); member tuples are normalised to
    strictly increasing order so equality and hashing are structural.
    """

    members: tuple[int, ...]
    universe: int

    def __post_init__(self) -> None:
        members = tuple(sorted(set(int(m) for m in self.members)))
        object.__setattr__(self, "members", members)
        if self.universe < 1:
            raise ValueError(f"universe size must be positive, got {self.universe}")
        if members and (members[0] < 0 or members[-1] >= self.universe):
            raise ValueError(
                f"slit indices {members} out of range for universe {self.universe}"
            )

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, slit: int) -> bool:
        return slit in self.members

    def __repr__(self) -> str:
        inner = ",".join(str(m) for m in self.members)
        return f"{{{inner}}}/{self.universe}"

    @functools.cached_property
    def mask(self) -> int:
        """Bitmask form, used by the exhaustive pairing enumeration."""
        m = 0
        for i in self.members:
            m |= 1 << i
        return m

    def intersection(self, other: "SlitSet") -> "SlitSet":
        self._check_universe(other)
        return SlitSet(tuple(set(self.members) & set(other.members)), self.universe)

    def subsets(self, *, include_empty: bool = False, max_size: int | None = None) -> Iterator["SlitSet"]:
        """Yield subsets in canonical (size, then lexicographic) order."""
        lo = 0 if include_empty else 1
        hi = len(self.members) if max_size is None else min(max_size, len(self.members))
        for size in range(lo, hi + 1):
            for combo in itertools.combinations(self.members, size):
                yield SlitSet(combo, self.universe)

    def _check_universe(self, other: "SlitSet") -> None:
        if self.universe != other.universe:
            raise ValueError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )


def enumerate_sectors(n_slits: int, order: int) -> list[SlitSet]:
    """All nonempty subsets of ``{0..n_slits-1}`` up to the given size.

    The list is deterministic: subsets appear by size, then lexicographically,
    which fixes the coordinate layout of every sector space built on top.
    """
    if n_slits < 1:
        raise ValueError(f"need at least one slit, got {n_slits}")
    if not 1 <= order <= n_slits:
        raise ValueError(f"order must satisfy 1 <= order <= {n_slits}, got {order}")
    return list(SlitSet(tuple(range(n_slits)), n_slits).subsets(max_size=order))


def decomposition_coefficient(order: int, subset_size: int, n_slits: int) -> int:
    """Signed overlap-correction coefficient in the identity decomposition.

    For a theory whose interference terminates at `order`, the identity on
    ``n_slits`` distinguishable states expands over slit projectors with this
    coefficient attached to every subset of the given size:
    ``(-1)**(order - size) * binom(n_slits - size - 1, order - size)``.

    Conventions: ``binom(n, 0) = 1`` for every integer n including ``n = -1``
    (so the all-slits-open case collapses to the single full projector), and
    ``binom(n, j) = 0`` for ``0 <= n < j``.
    """
    _check_coefficient_args(order, subset_size, n_slits)
    deficit = order - subset_size
    if deficit == 0:
        return 1
    pool = n_slits - subset_size - 1
    # pool == -1 forces subset_size == n_slits and hence deficit == 0 above.
    if pool < deficit:
        return 0
    return (-1 if deficit % 2 else 1) * comb(pool, deficit)


def identity_decomposition(order: int, n_slits: int) -> dict[SlitSet, int]:
    """Identity expanded over slit projectors, as subset -> coefficient.

    Covers every nonempty subset of size up to `order`, in canonical sector
    order, with one `decomposition_coefficient` per size; zero coefficients
    are omitted. They are exactly the proper subsets when ``order ==
    n_slits``, so there the full set is the whole expansion and nothing is
    enumerated.
    """
    by_size = [0] + [decomposition_coefficient(order, size, n_slits) for size in range(1, order + 1)]
    if order == n_slits:
        sectors = [SlitSet(tuple(range(n_slits)), n_slits)]
    else:
        sectors = enumerate_sectors(n_slits, order)
    return {s: by_size[len(s)] for s in sectors if by_size[len(s)]}


def coherence_expansion(subset: SlitSet) -> dict[SlitSet, int]:
    """Coherence block of a subset as a signed combination of slit projectors,
    as subset -> coefficient.

    Inclusion-exclusion over the nonempty subsets: the coefficient of each
    sub-subset is ``(-1)**(|subset| - |sub|)``. The empty-set term vanishes
    under the blocked-everything-is-zero convention, so for a singleton the
    expansion is the slit projector itself.
    """
    if len(subset) == 0:
        raise ValueError("coherence expansion requires a nonempty subset")
    size = len(subset)
    return {sub: (-1 if (size - len(sub)) % 2 else 1) for sub in subset.subsets()}


def signed_pairing_counts(left: SlitSet, right: SlitSet) -> dict[int, int]:
    """Exhaustive signed counts of sub-pairs, for every intersection at once.

    One pass over every pair ``(A <= left, B <= right)``: each pair adds +1
    (``|A| + |B|`` even) or -1 (odd) to the tally of the bitmask of
    ``A & B``. The result maps each ``meet.mask``, for every ``meet`` contained
    in ``left & right``, to the signed count of the sub-pairs with
    ``A & B == meet``: the even-parity pairs minus the odd-parity ones. So
    checking all the meets of one pair of subsets costs
    ``2**(|left| + |right|)`` steps instead of that many per meet. This is
    the brute-force route that `signed_pairing_count_closed` is tested
    against.
    """
    left._check_universe(right)
    if len(left) + len(right) > MAX_PAIR_ENUMERATION:
        raise EnumerationLimitError(
            f"|left| + |right| = {len(left) + len(right)} exceeds the "
            f"enumeration guard {MAX_PAIR_ENUMERATION}"
        )
    lm, rm = left.mask, right.mask
    right_subs = []  # (B, parity of |B|) for every B <= right
    b = rm
    while True:
        right_subs.append((b, b.bit_count() & 1))
        if b == 0:
            break
        b = (b - 1) & rm
    counts: dict[int, int] = {}
    a = lm
    while True:
        pa = a.bit_count() & 1
        for b, pb in right_subs:
            key = a & b
            counts[key] = counts.get(key, 0) + (-1 if pa ^ pb else 1)
        if a == 0:
            break
        a = (a - 1) & lm
    return counts


def signed_pairing_count_closed(left: SlitSet, right: SlitSet, meet: SlitSet) -> int:
    """Closed form of ``signed_pairing_counts(left, right)[meet.mask]``: 0
    unless the two subsets coincide, in which case the count is
    ``(-1)**(|left| + |meet|)``. The meet must lie in ``left & right``."""
    _check_pairing_args(left, right, meet)
    if left != right:
        return 0
    return -1 if (len(left) + len(meet)) % 2 else 1


def _check_coefficient_args(order: int, subset_size: int, n_slits: int) -> None:
    if n_slits < 1:
        raise ValueError(f"need at least one slit, got {n_slits}")
    if n_slits > MAX_UNIVERSE:
        raise EnumerationLimitError(
            f"{n_slits} slits exceeds the exact-arithmetic guard {MAX_UNIVERSE}"
        )
    if not 1 <= order <= n_slits:
        raise ValueError(f"order must satisfy 1 <= order <= {n_slits}, got {order}")
    if not 1 <= subset_size <= order:
        raise ValueError(
            f"subset size must satisfy 1 <= size <= {order}, got {subset_size}"
        )


def _check_pairing_args(left: SlitSet, right: SlitSet, meet: SlitSet) -> None:
    left._check_universe(right)
    meet._check_universe(left)
    if meet.mask & ~(left.mask & right.mask):
        raise ValueError(
            f"prescribed intersection {meet!r} is not contained in "
            f"{left!r} & {right!r} = {left.intersection(right)!r}"
        )
