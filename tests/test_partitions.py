"""Partition layer: enumeration, parsing, residues, dimensions.

The counting oracles are independent of the enumerator: Euler's pentagonal
recurrence for p(n), a parts-coprime-to-p counter for the regular counts
(they agree by Glaisher's bijection), and a corner-peeling recursion for
standard tableaux. Order and content are checked against a plain uncapped
walk over all partitions, filtered by counting each part's copies.
"""

import time
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import modpart
from modpart import (
    EMPTY,
    Partition,
    addable_nodes,
    conjugate,
    enumerate_js,
    enumerate_partitions,
    exponent_form,
    format_partition,
    is_p_regular,
    parse_partition,
    removable_nodes,
    residue,
    specht_dimension,
    validate_prime,
)
from modpart.errors import (
    EmptyPartition,
    InternalInconsistency,
    MalformedPartition,
    NonPositivePart,
    NotWeaklyDecreasing,
    OddPrimeRequired,
)
from modpart.partitions import _descending_lex


@lru_cache(maxsize=None)
def _pentagonal_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 else -1
        total += sign * (_pentagonal_count(n - g1) + _pentagonal_count(n - g2))
        k += 1
    return total


def _coprime_parts_count(n: int, p: int) -> int:
    """Partitions of n into parts not divisible by p (== p-regular count)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        if part % p == 0:
            continue
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


def _filtered_walk(n: int):
    """All partitions of n in descending lex order, by the plain uncapped
    walk: find the rightmost part > 1 by stepping over the tail of 1s, lower
    it by one, refill greedily under it."""
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        k, rem = len(parts) - 1, 1
        while k >= 0 and parts[k] == 1:
            k, rem = k - 1, rem + 1
        if k < 0:
            return
        parts[k] -= 1
        del parts[k + 1 :]
        while rem:
            take = min(parts[k], rem)
            parts.append(take)
            rem -= take


def _no_run_of(parts: tuple[int, ...], p: int) -> bool:
    """No part repeated p or more times, by counting each part's copies."""
    return all(parts.count(x) < p for x in set(parts))


@lru_cache(maxsize=None)
def _syt_count(parts: tuple[int, ...]) -> int:
    """Standard tableaux counted by peeling one removable corner at a time."""
    if not parts:
        return 1
    total = 0
    for i in range(len(parts)):
        if i + 1 < len(parts) and parts[i] == parts[i + 1]:
            continue
        smaller = list(parts)
        smaller[i] -= 1
        if smaller[i] == 0:
            smaller.pop()
        total += _syt_count(tuple(smaller))
    return total


partitions_st = st.lists(st.integers(1, 12), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestPartitionType:
    def test_basic_properties(self):
        lam = Partition((8, 2))
        assert lam.size == 10
        assert lam.height == 2
        assert lam.row(1) == 8 and lam.row(2) == 2 and lam.row(3) == 0
        assert list(lam) == [8, 2]
        assert lam[0] == 8

    def test_validation(self):
        with pytest.raises(NonPositivePart):
            Partition((3, 0))
        with pytest.raises(NonPositivePart):
            Partition((3, -1))
        with pytest.raises(NotWeaklyDecreasing):
            Partition((2, 3))
        with pytest.raises(MalformedPartition):
            Partition((3, 2.5))

    def test_immutable(self):
        lam = Partition((2, 1))
        with pytest.raises(AttributeError):
            lam.parts = (3,)
        with pytest.raises(AttributeError):
            lam.extra = 1

    def test_is_the_tuple_of_its_parts(self):
        lam = Partition((3, 1, 1))
        assert isinstance(lam, tuple)
        assert lam == (3, 1, 1) and (3, 1, 1) == lam
        assert hash(lam) == hash((3, 1, 1))
        assert {(3, 1, 1): "x"}[lam] == "x"
        assert lam.parts == lam and lam.parts is lam
        assert Partition._trusted(lam) is lam
        assert type(Partition._trusted((2, 1))) is Partition

    def test_adds_only_what_a_tuple_lacks(self):
        # Counting validated constructions wraps Partition.__init__, so it
        # stays in the class dict; the tuple protocol is the tuple's own.
        assert "__init__" in Partition.__dict__
        inherited = {"__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__",
                     "__len__", "__iter__", "__getitem__", "__bool__", "__setattr__"}
        assert not inherited & set(Partition.__dict__)
        assert Partition.__slots__ == ()

    def test_generator_argument_is_validated(self):
        assert Partition(x for x in (4, 2, 2)) == Partition((4, 2, 2))
        with pytest.raises(NotWeaklyDecreasing, match=r"got \(1, 2\)"):
            Partition(x for x in (1, 2))
        with pytest.raises(NonPositivePart):
            Partition(x for x in (2, 0))

    def test_ordering_is_lex(self):
        assert Partition((3, 1)) > Partition((2, 2))
        assert Partition((2, 2)) > Partition((2, 1, 1))
        assert Partition((4,)) >= Partition((4,))

    def test_remove_add_nodes(self):
        lam = Partition((3, 2))
        assert lam.remove((2, 2)) == Partition((3, 1))
        assert lam.add((1, 4)) == Partition((4, 2))
        assert lam.add((3, 1)) == Partition((3, 2, 1))
        with pytest.raises(ValueError):
            lam.remove((1, 2))  # not the end of its row
        with pytest.raises(ValueError):
            lam.add((3, 2))

    def test_remove_last_part(self):
        assert Partition((1,)).remove((1, 1)) == EMPTY

    def test_derived_partitions_pass_the_checks(self):
        # remove, add and the enumerators skip Partition's validation; each
        # result must equal what the checked constructor builds from its parts
        for n in range(0, 11):
            for lam in enumerate_partitions(n, 3):
                assert lam == Partition(list(lam))
                removable, addable = set(removable_nodes(lam)), set(addable_nodes(lam))
                for r in range(-1, len(lam) + 3):
                    for c in range(-1, lam.row(1) + 3):
                        node = (r, c)
                        if node in removable:
                            want = [x for x in lam[: r - 1] + (c - 1,) + lam[r:] if x]
                            got = lam.remove(node)
                            assert got == Partition(want) == Partition(list(got))
                        else:
                            with pytest.raises(ValueError):
                                lam.remove(node)
                        if node in addable:
                            want = list(lam[: r - 1]) + [c] + list(lam[r:])
                            got = lam.add(node)
                            assert got == Partition(want) == Partition(list(got))
                        else:
                            with pytest.raises(ValueError):
                                lam.add(node)
            for lam in enumerate_js(n, 5):
                assert lam == Partition(list(lam))

    def test_unchecked_constructor_is_private(self):
        assert hasattr(Partition, "_trusted")
        assert not any("trusted" in name for name in modpart.__all__)


class TestParseFormat:
    def test_plain(self):
        assert parse_partition("8,2") == Partition((8, 2))
        assert parse_partition(" 4, 3 ,1 ") == Partition((4, 3, 1))

    def test_exponent(self):
        assert parse_partition("4^3,1^2") == Partition((4, 4, 4, 1, 1))
        assert parse_partition("2^2") == Partition((2, 2))

    def test_empty(self):
        assert parse_partition("[]") == EMPTY
        assert format_partition(EMPTY) == "[]"

    def test_rejects(self):
        for bad in ["", "a", "3,", "3,,2", "2^0", "-1", "3 2", "\n"]:
            with pytest.raises(MalformedPartition):
                parse_partition(bad)
        with pytest.raises(NotWeaklyDecreasing):
            parse_partition("2,3")

    def test_format_exponent_form(self):
        assert format_partition(Partition((4, 4, 4, 1, 1)), exponents=True) == "4^3,1^2"
        assert format_partition(Partition((3, 2)), exponents=True) == "3,2"

    @given(partitions_st)
    def test_roundtrip_plain(self, lam):
        assert parse_partition(format_partition(lam)) == lam

    @given(partitions_st)
    def test_roundtrip_exponents(self, lam):
        assert parse_partition(format_partition(lam, exponents=True)) == lam

    def test_exponent_form_runs(self):
        assert exponent_form(Partition((4, 4, 4, 1, 1))) == ((4, 3), (1, 2))
        assert exponent_form(EMPTY) == ()


class TestResidues:
    def test_node_residues_p5(self):
        assert residue((1, 2), 5) == 1
        assert residue((2, 1), 5) == 4
        assert residue((3, 1), 5) == 3
        assert residue((1, 1), 5) == 0


class TestPrimeValidation:
    def test_accepts_odd_primes(self):
        for p in (3, 5, 7, 11, 13):
            assert validate_prime(p) == p

    def test_rejects(self):
        for bad in (2, 4, 9, 15, 1, 0, -3, True):
            with pytest.raises(OddPrimeRequired):
                validate_prime(bad)

    def test_huge_prime_rejected_at_once(self):
        # trial division up to sqrt(2**61 - 1) would not end for minutes
        start = time.perf_counter()
        with pytest.raises(OddPrimeRequired, match="p must be at most 65536"):
            validate_prime(2**61 - 1)
        assert time.perf_counter() - start < 0.1


class TestEnumeration:
    def test_descending_lex_order_n5(self):
        got = [tuple(x) for x in enumerate_partitions(5, 5)]
        assert got == [
            (5,),
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]

    def test_regular_only_excludes_singular(self):
        full = set(enumerate_partitions(5, 5))
        reg = set(enumerate_partitions(5, 5, regular_only=True))
        assert full - reg == {Partition((1, 1, 1, 1, 1))}

    def test_n_zero(self):
        assert list(enumerate_partitions(0, 5)) == [EMPTY]
        assert list(enumerate_partitions(0, 5, regular_only=True)) == [EMPTY]

    @pytest.mark.parametrize("q", [0, 2, 4])
    def test_generator_yields_one_empty_partition_at_n_zero(self, q):
        # enumerate_partitions has no n = 0 branch of its own: the generator's
        # empty working list is the one partition of 0
        got = list(_descending_lex(0, q))
        assert got == [()]
        assert type(got[0]) is Partition

    def test_negative_n(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1, 5))

    @pytest.mark.parametrize("n", range(0, 41))
    def test_counts_match_pentagonal_oracle(self, n):
        for p in (3, 5, 7):
            assert sum(1 for _ in enumerate_partitions(n, p)) == _pentagonal_count(n)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", range(0, 41))
    def test_regular_counts_match_coprime_oracle(self, n, p):
        got = sum(1 for _ in enumerate_partitions(n, p, regular_only=True))
        assert got == (_coprime_parts_count(n, p) if n else 1)

    def test_every_item_is_regular_and_sums(self):
        for lam in enumerate_partitions(9, 3, regular_only=True):
            assert lam.size == 9
            assert is_p_regular(lam, 3)

    def test_strictly_descending_lex(self):
        items = list(enumerate_partitions(8, 5))
        assert all(a > b for a, b in zip(items, items[1:]))

    @pytest.mark.parametrize("n", range(0, 31))
    def test_matches_filtered_walk(self, n):
        # order and content, all partitions and the p-regular ones
        walk = list(_filtered_walk(n))
        assert [tuple(lam) for lam in enumerate_partitions(n, 3)] == walk
        for p in (3, 5, 7, 11):
            got = [tuple(lam) for lam in enumerate_partitions(n, p, regular_only=True)]
            assert got == [parts for parts in walk if _no_run_of(parts, p)]

    def test_matches_filtered_walk_at_40(self):
        got = [tuple(lam) for lam in enumerate_partitions(40, 5, regular_only=True)]
        assert got == [parts for parts in _filtered_walk(40) if _no_run_of(parts, 5)]
        assert len(got) == 17034


class TestRegularity:
    def test_examples(self):
        assert is_p_regular(Partition((4, 4, 1)), 3)
        assert not is_p_regular(Partition((4, 4, 4, 1)), 3)
        assert is_p_regular(Partition((2, 2, 2, 2)), 5)
        assert not is_p_regular(Partition((1, 1, 1, 1, 1)), 5)
        assert is_p_regular(EMPTY, 3)


class TestConjugate:
    def test_examples(self):
        assert conjugate(Partition((8, 2))) == Partition((2, 2, 1, 1, 1, 1, 1, 1))
        assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
        assert conjugate(EMPTY) == EMPTY

    @given(partitions_st)
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(partitions_st)
    def test_preserves_size(self, lam):
        assert conjugate(lam).size == lam.size


class TestSpechtDimension:
    def test_hand_values(self):
        assert specht_dimension(Partition((1,))) == 1
        assert specht_dimension(Partition((2, 1))) == 2
        assert specht_dimension(Partition((3, 2))) == 5
        assert specht_dimension(Partition((2, 2))) == 2
        assert specht_dimension(Partition((4, 1))) == 4
        assert specht_dimension(Partition((6,))) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            specht_dimension(EMPTY)

    def test_hook_product_that_does_not_divide_is_named(self, monkeypatch):
        # a raised error, not an assert, so that python -O keeps the check;
        # with the conjugate faked as (3,3,3), (3,1) has the hook 5 in (1,1)
        monkeypatch.setattr(modpart.partitions, "conjugate", lambda lam: (3, 3, 3))
        with pytest.raises(InternalInconsistency, match="does not divide 4!"):
            specht_dimension(Partition((3, 1)))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_corner_peeling_oracle(self, n):
        for lam in enumerate_partitions(n, 3):
            assert specht_dimension(lam) == _syt_count(tuple(lam))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dimension_squares_sum_to_factorial(self, n):
        from math import factorial

        total = sum(specht_dimension(lam) ** 2 for lam in enumerate_partitions(n, 3))
        assert total == factorial(n)
