"""JS-partitions: the two definitions, enumeration, fixed ones.

is_js counts normal nodes; is_js_arith checks run congruences on the
exponent form. They share no code, so their agreement on sweeps is evidence
for both.
"""

import pytest

from modpart import (
    EMPTY,
    Partition,
    enumerate_js,
    enumerate_partitions,
    is_js,
    is_js_arith,
    is_mullineux_fixed,
    parse_partition,
)
from modpart.errors import EmptyPartition, NotPRegular, OddPrimeRequired


class TestArithmetic:
    def test_hooks_and_rows(self):
        assert is_js_arith(parse_partition("9,1"), 5)
        assert is_js_arith(parse_partition("6"), 5)
        assert is_js_arith(parse_partition("2,2,1,1"), 5)
        assert not is_js_arith(parse_partition("8,2"), 5)

    def test_single_run_is_always_js(self):
        # one run makes the congruence condition vacuous
        assert is_js_arith(Partition((3, 3)), 5)
        assert is_js_arith(Partition((2, 2, 2, 2)), 5)

    def test_4_1_1_at_3(self):
        # runs (4,1),(1,2): 4 - 1 + 1 + 2 = 6 == 0 mod 3
        assert is_js_arith(parse_partition("4,1,1"), 3)

    def test_guards(self):
        with pytest.raises(EmptyPartition):
            is_js_arith(EMPTY, 5)
        with pytest.raises(NotPRegular):
            is_js_arith(Partition((1, 1, 1)), 3)


class TestEquivalence:
    @pytest.mark.parametrize("p", [3, 5])
    def test_sweep(self, p):
        for n in range(1, 13):
            for lam in enumerate_partitions(n, p, regular_only=True):
                assert is_js(lam, p) == is_js_arith(lam, p), lam


class TestEnumeration:
    def test_js_of_6_at_5(self):
        got = [str(x) for x in enumerate_js(6, 5)]
        assert got == ["6", "3,3", "2,2,2", "2,2,1,1"]

    def test_no_fixed_js_of_6_at_5(self):
        assert list(enumerate_js(6, 5, fixed_only=True)) == []

    def test_fixed_js_of_6_at_3(self):
        assert [str(x) for x in enumerate_js(6, 3, fixed_only=True)] == ["4,1,1"]

    def test_fixed_js_at_5_small_n(self):
        # frozen landscape: the only n <= 12 admitting fixed JS at p=5
        landscape = {
            n: [str(x) for x in enumerate_js(n, 5, fixed_only=True)] for n in range(1, 13)
        }
        assert {n: v for n, v in landscape.items() if v} == {
            1: ["1"],
            4: ["2,2"],
            10: ["6,1,1,1,1"],
            11: ["6,3,1,1"],
        }

    def test_fixed_subset_of_js(self):
        for n in range(1, 14):
            js = set(enumerate_js(n, 5))
            fixed = set(enumerate_js(n, 5, fixed_only=True))
            assert fixed <= js
            for lam in fixed:
                assert is_mullineux_fixed(lam, 5)

    def test_descending_lex(self):
        items = list(enumerate_js(12, 5))
        assert all(a > b for a, b in zip(items, items[1:]))


class TestGenerator:
    """enumerate_js walks exponent forms under the congruence; filters over
    all p-regular partitions are its oracles."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_equals_signature_filter(self, p):
        # L23's range: its counts rest on generation finding every JS partition
        for n in range(0, 31):
            want = [
                lam for lam in enumerate_partitions(n, p, regular_only=True) if lam and is_js(lam, p)
            ]
            assert list(enumerate_js(n, p)) == want, n

    def test_ceiling_equals_arithmetic_filter(self):
        want = [lam for lam in enumerate_partitions(40, 5, regular_only=True) if is_js_arith(lam, 5)]
        assert len(want) == 209
        assert list(enumerate_js(40, 5)) == want

    def test_edges(self):
        assert list(enumerate_js(0, 5)) == []
        with pytest.raises(ValueError):
            list(enumerate_js(-1, 5))
        with pytest.raises(OddPrimeRequired):
            list(enumerate_js(6, 4))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_large_n_is_js_both_ways(self, p):
        items = list(enumerate_js(100, p))
        assert items
        assert all(a > b for a, b in zip(items, items[1:]))
        for lam in items:
            assert lam.size == 100
            assert is_js(lam, p), lam
            assert is_js_arith(lam, p), lam
