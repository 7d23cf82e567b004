"""Exact-combinatorics tests: every expected value is either trivial or
computed by an independent brute-force route before being frozen here."""

import itertools
from math import comb

import pytest

from hoisearch.subsets import (
    EnumerationLimitError,
    SlitSet,
    coherence_expansion,
    decomposition_coefficient,
    enumerate_sectors,
    identity_decomposition,
    signed_pairing_count_closed,
    signed_pairing_counts,
)

from reference import formal_sum


def s(members, universe):
    return SlitSet(tuple(members), universe)


# ---------------------------------------------------------------------------
# SlitSet
# ---------------------------------------------------------------------------

def test_slitset_normalises_members():
    assert s([2, 0, 2, 1], 4).members == (0, 1, 2)


def test_slitset_rejects_out_of_range():
    with pytest.raises(ValueError):
        s([0, 5], 4)
    with pytest.raises(ValueError):
        s([-1], 4)
    with pytest.raises(ValueError):
        s([], 0)


def test_slitset_empty_is_allowed():
    empty = s([], 3)
    assert len(empty) == 0
    assert empty.mask == 0


def test_slitset_mask_and_membership():
    subset = s([0, 2], 4)
    assert subset.mask == 0b101
    assert 0 in subset and 2 in subset and 1 not in subset


def test_slitset_set_operations():
    a, b = s([0, 1], 4), s([1, 2], 4)
    assert a.intersection(b) == s([1], 4)
    with pytest.raises(ValueError):
        a.intersection(s([1], 5))


def test_slitset_subsets_canonical_order():
    subs = list(s([0, 1, 2], 3).subsets())
    sizes = [len(x) for x in subs]
    assert sizes == sorted(sizes)
    assert len(subs) == 7
    assert len(list(s([0, 1, 2], 3).subsets(include_empty=True))) == 8
    assert len(list(s([0, 1, 2], 3).subsets(max_size=2))) == 6


# ---------------------------------------------------------------------------
# enumerate_sectors
# ---------------------------------------------------------------------------

def test_enumerate_sectors_singletons_only():
    assert enumerate_sectors(2, 1) == [s([0], 2), s([1], 2)]


def test_enumerate_sectors_three_slits_order_two():
    expected = [s([0], 3), s([1], 3), s([2], 3),
                s([0, 1], 3), s([0, 2], 3), s([1, 2], 3)]
    assert enumerate_sectors(3, 2) == expected


def test_enumerate_sectors_count_matches_binomial_sum():
    # independent count by direct summation
    assert len(enumerate_sectors(5, 3)) == sum(comb(5, k) for k in range(1, 4)) == 25


@pytest.mark.parametrize("n, order", [(0, 1), (3, 0), (3, 4)])
def test_enumerate_sectors_rejects_bad_parameters(n, order):
    with pytest.raises(ValueError):
        enumerate_sectors(n, order)


# ---------------------------------------------------------------------------
# decomposition coefficients
# ---------------------------------------------------------------------------

def test_decomposition_coefficient_known_values():
    assert decomposition_coefficient(2, 1, 3) == -1
    assert decomposition_coefficient(2, 2, 3) == 1
    assert decomposition_coefficient(3, 3, 3) == 1
    assert decomposition_coefficient(3, 2, 3) == 0
    assert decomposition_coefficient(2, 1, 4) == -2


def test_decomposition_coefficient_matches_alternating_sum():
    # Independent route: the coefficient must equal the alternating count of
    # supersets, sum over a of (-1)**(a-k) * binom(N-k, a-k) for a = k..h.
    for n in range(1, 11):
        for h in range(1, n + 1):
            for k in range(1, h + 1):
                expected = sum(
                    (-1) ** (a - k) * comb(n - k, a - k) for a in range(k, h + 1)
                )
                assert decomposition_coefficient(h, k, n) == expected


def test_decomposition_coefficient_sign_alternates():
    for n in range(2, 9):
        for h in range(1, n):
            for k in range(1, h + 1):
                value = decomposition_coefficient(h, k, n)
                if value != 0:
                    assert value > 0 if (h - k) % 2 == 0 else value < 0


def test_decomposition_coefficient_all_slits_open_case():
    # N == h collapses to the single full projector
    for n in range(1, 9):
        assert decomposition_coefficient(n, n, n) == 1
        for k in range(1, n):
            assert decomposition_coefficient(n, k, n) == 0


def test_decomposition_coefficient_validation():
    with pytest.raises(ValueError):
        decomposition_coefficient(2, 0, 3)
    with pytest.raises(ValueError):
        decomposition_coefficient(2, 3, 3)
    with pytest.raises(ValueError):
        decomposition_coefficient(4, 1, 3)
    with pytest.raises(EnumerationLimitError):
        decomposition_coefficient(2, 1, 31)


def test_identity_decomposition_examples():
    assert identity_decomposition(3, 3) == {s([0, 1, 2], 3): 1}
    dec = identity_decomposition(2, 3)
    assert all(c == 1 for sub, c in dec.items() if len(sub) == 2)
    assert all(c == -1 for sub, c in dec.items() if len(sub) == 1)
    assert len(dec) == 6
    assert identity_decomposition(1, 3) == {s([0], 3): 1, s([1], 3): 1, s([2], 3): 1}


# ---------------------------------------------------------------------------
# coherence expansions and their sums
# ---------------------------------------------------------------------------

def test_coherence_expansion_singleton():
    assert coherence_expansion(s([0], 2)) == {s([0], 2): 1}


def test_coherence_expansion_pair():
    got = coherence_expansion(s([0, 1], 3))
    assert got == {s([0, 1], 3): 1, s([0], 3): -1, s([1], 3): -1}


def test_coherence_expansion_triple_sign_pattern():
    got = coherence_expansion(s([0, 1, 2], 3))
    assert len(got) == 7
    for subset, coeff in got.items():
        assert coeff == (1 if len(subset) % 2 == 1 else -1)


def test_coherence_expansion_rejects_empty():
    with pytest.raises(ValueError):
        coherence_expansion(s([], 3))


def test_expansion_sum_equals_identity_decomposition():
    # summing every coherence block's formal expansion must reproduce the
    # signed identity decomposition term for term, exactly
    for n in range(1, 9):
        for h in range(1, n + 1):
            total = formal_sum(coherence_expansion(sector) for sector in enumerate_sectors(n, h))
            assert total == identity_decomposition(h, n), (n, h)


def test_mobius_recovery():
    # expanding the coherence blocks of all nonempty subsets of I and summing
    # recovers the bare projector on I
    universe = 6
    base = s(range(universe), universe)
    for subset in base.subsets():
        total = formal_sum(coherence_expansion(sub) for sub in subset.subsets())
        assert total == {subset: 1}, subset


# ---------------------------------------------------------------------------
# signed pairing counts
# ---------------------------------------------------------------------------

def test_pairing_disjoint_singletons_cancel():
    # 4 sub-pairs, 2 even - 2 odd
    assert signed_pairing_counts(s([0], 2), s([1], 2))[s([], 2).mask] == 0


def test_pairing_equal_singletons():
    assert signed_pairing_counts(s([0], 1), s([0], 1))[s([0], 1).mask] == 1


def test_pairing_equal_pairs_empty_meet():
    # exhaustive enumeration gives 5 even - 4 odd sub-pairs
    assert signed_pairing_counts(s([0, 1], 2), s([0, 1], 2))[s([], 2).mask] == 1


def test_pairing_closed_form_values():
    assert signed_pairing_count_closed(s([0, 1], 3), s([0, 2], 3), s([0], 3)) == 0
    assert signed_pairing_count_closed(s([0, 1, 2], 3), s([0, 1, 2], 3), s([0], 3)) == 1
    assert signed_pairing_count_closed(s([0], 1), s([0], 1), s([0], 1)) == 1


def test_pairing_brute_equals_closed_exhaustively():
    universe = 5
    subsets = [
        s(combo, universe)
        for size in range(universe + 1)
        for combo in itertools.combinations(range(universe), size)
    ]
    for left in subsets:
        for right in subsets:
            counts = signed_pairing_counts(left, right)
            for meet in left.intersection(right).subsets(include_empty=True):
                assert counts[meet.mask] == (
                    signed_pairing_count_closed(left, right, meet)
                ), (left, right, meet)


def test_pairing_validation():
    with pytest.raises(ValueError):
        signed_pairing_count_closed(s([0], 3), s([1], 3), s([2], 3))
    big = s(range(25), 25)
    with pytest.raises(EnumerationLimitError):
        signed_pairing_counts(big, big)


def per_triple_pairing_reference(left, right, meet):
    """Reference count for one meet: a full pass over every
    (A <= left, B <= right), keeping the pairs with A & B == meet."""
    lm, rm, km = left.mask, right.mask, meet.mask
    count = 0
    a = lm
    while True:
        pa = a.bit_count()
        b = rm
        while True:
            if a & b == km:
                count += -1 if (pa + b.bit_count()) % 2 else 1
            if b == 0:
                break
            b = (b - 1) & rm
        if a == 0:
            break
        a = (a - 1) & lm
    return count


def test_pairing_counts_match_per_triple_enumeration():
    universe = 4
    subsets = [
        s(combo, universe)
        for size in range(universe + 1)
        for combo in itertools.combinations(range(universe), size)
    ]
    for left in subsets:
        for right in subsets:
            counts = signed_pairing_counts(left, right)
            meets = list(left.intersection(right).subsets(include_empty=True))
            # one entry per meet contained in left & right, and no other
            assert sorted(counts) == sorted(m.mask for m in meets), (left, right)
            for meet in meets:
                expected = per_triple_pairing_reference(left, right, meet)
                assert counts[meet.mask] == expected, (left, right, meet)


def test_pairing_counts_validation():
    with pytest.raises(ValueError, match="universe mismatch"):
        signed_pairing_counts(s([0], 3), s([0], 4))
    with pytest.raises(ValueError, match="universe mismatch"):
        signed_pairing_count_closed(s([0], 3), s([0], 3), s([0], 4))
    big = s(range(25), 25)
    with pytest.raises(EnumerationLimitError):
        signed_pairing_counts(big, big)
