"""Labels for the index-two subgroup's irreducibles and the tensor classifier."""

from itertools import islice

import pytest

from modpart import (
    EMPTY,
    AnIrreducible,
    ClassificationOutcome,
    LabelKind,
    Partition,
    ReasonCode,
    Verdict,
    classify_tensor,
    enumerate_partitions,
    is_dimension_one,
    is_mullineux_fixed,
    make_label,
    mullineux_image,
    nu_of,
    parse_partition,
)
from modpart.errors import (
    DimensionOneFactor,
    EmptyPartition,
    InternalInconsistency,
    LabelMismatch,
    SignOnNonFixed,
    SignRequired,
    UnsupportedCharacteristic,
)


def _lab(text, p=5, sign=None):
    return make_label(parse_partition(text), p, sign=sign)


class TestMakeLabel:
    def test_split_needs_sign(self):
        with pytest.raises(SignRequired):
            _lab("6,3,1,1")

    def test_sign_forms(self):
        assert _lab("6,3,1,1", sign="+").sign == 1
        assert _lab("6,3,1,1", sign="-").sign == -1
        assert _lab("6,3,1,1", sign=-1).sign == -1

    def test_sign_on_nonfixed_rejected(self):
        with pytest.raises(SignOnNonFixed):
            _lab("10,1", sign="+")

    def test_bad_sign_value(self):
        with pytest.raises(ValueError):
            _lab("6,3,1,1", sign=2)
        with pytest.raises(ValueError):
            _lab("6,3,1,1", sign="plus")

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            make_label(EMPTY, 5)

    def test_nonsplit_stores_canonical_member(self):
        # both members of a pair name the same label
        a = _lab("9,2")
        b = _lab("3,2,2,2,1,1")
        assert a == b
        assert a.partition == Partition((9, 2))
        assert a.kind is LabelKind.NONSPLIT

    def test_pair_property(self):
        lab = _lab("10,1")
        assert lab.pair == frozenset({Partition((10, 1)), Partition((3, 3, 2, 2, 1))})

    def test_str_forms(self):
        assert str(_lab("6,3,1,1", sign="+")) == "split(6,3,1,1, +)"
        assert str(_lab("10,1")) == "nonsplit(10,1)"


class TestDimensionOne:
    def test_natural_one_dim_pair(self):
        assert is_dimension_one(_lab("5"))
        assert is_dimension_one(_lab("2,1,1,1"))  # the partner names the same label

    def test_small_split_labels(self):
        assert is_dimension_one(_lab("2,2", sign="+"))
        assert is_dimension_one(_lab("1", sign="-"))

    def test_big_labels_are_not(self):
        assert not is_dimension_one(_lab("6,3,1,1", sign="+"))
        assert not is_dimension_one(_lab("10,1"))
        assert not is_dimension_one(_lab("3,1"))

    def test_one_row_label_past_the_recursion_depth(self):
        # Built directly, since make_label would itself compute M((2000)): the
        # test must not follow a Mullineux chain of 2000 levels.
        assert is_dimension_one(AnIrreducible(LabelKind.NONSPLIT, Partition((2000,)), None, 2000, 5))
        assert not is_dimension_one(
            AnIrreducible(LabelKind.NONSPLIT, Partition((1999, 1)), None, 2000, 5)
        )

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_agrees_with_the_canonical_label_of_one_row(self, p):
        # The former definition compared a nonsplit label with the larger of
        # (n) and M((n)). Every nonsplit label of n <= 20, and for n <= 30 the
        # labels of M((n)) and of the ten lex-largest p-regular partitions of n.
        for n in range(1, 31):
            row = Partition((n,))
            old = max(row, mullineux_image(row, p))
            lams = list(islice(enumerate_partitions(n, p, regular_only=True), None if n <= 20 else 10))
            for lam in lams + [mullineux_image(Partition((n,)), p)]:
                if not is_mullineux_fixed(lam, p):
                    label = make_label(lam, p)
                    assert is_dimension_one(label) == (label.partition == old), (n, p, lam)


class TestNuOf:
    def test_values(self):
        assert nu_of(parse_partition("6,3,1,1")) == parse_partition("5,3,1,1,1")
        assert nu_of(parse_partition("4,1,1")) == parse_partition("3,1,1,1")
        assert nu_of(parse_partition("2")) == parse_partition("1,1")

    def test_degenerate_shapes_rejected(self):
        for text in ["2,2", "1", "3,3"]:
            with pytest.raises(InternalInconsistency):
                nu_of(parse_partition(text))
        with pytest.raises(EmptyPartition):
            nu_of(EMPTY)


class TestClassifier:
    def test_irreducible_natural_family(self):
        out = classify_tensor(_lab("6,3,1,1", sign="+"), _lab("10,1"))
        assert out == ClassificationOutcome(
            Verdict.IRREDUCIBLE, nu=parse_partition("5,3,1,1,1")
        )
        assert out.to_json_dict() == {"verdict": "Irreducible", "nu": "5,3,1,1,1"}

    def test_symmetric(self):
        a, b = _lab("6,3,1,1", sign="-"), _lab("10,1")
        assert classify_tensor(a, b) == classify_tensor(b, a)

    def test_both_nonsplit(self):
        out = classify_tensor(_lab("10,1"), _lab("9,2"))
        assert out.verdict is Verdict.NOT_IRREDUCIBLE
        assert out.reason is ReasonCode.BOTH_NONSPLIT

    def test_double_split(self):
        out = classify_tensor(_lab("6,3,1,1", sign="+"), _lab("6,3,1,1", sign="-"))
        assert out.reason is ReasonCode.DOUBLE_SPLIT

    def test_n_divisible_by_p(self):
        # n = 10: the split factor is JS and the partner is natural, but 5 | n
        out = classify_tensor(_lab("6,1,1,1,1", sign="+"), _lab("9,1"))
        assert out.reason is ReasonCode.N_DIVISIBLE_BY_P

    def test_split_not_js(self):
        # (6,2,1,1,1) is its own image at p=5 but has several normal nodes
        out = classify_tensor(_lab("6,2,1,1,1", sign="+"), _lab("10,1"))
        assert out.reason is ReasonCode.SPLIT_NOT_JS

    def test_partner_not_natural(self):
        out = classify_tensor(_lab("6,3,1,1", sign="+"), _lab("9,2"))
        assert out.reason is ReasonCode.PARTNER_NOT_NATURAL_LABEL

    def test_reason_priority_kinds_before_divisibility(self):
        # at n = 10 two nonsplit labels report BothNonSplit, not the 5 | n reason
        out = classify_tensor(_lab("9,1"), _lab("8,2"))
        assert out.reason is ReasonCode.BOTH_NONSPLIT

    def test_dimension_one_rejected(self):
        with pytest.raises(DimensionOneFactor):
            classify_tensor(_lab("2,2", sign="+"), _lab("3,1"))

    def test_mismatched_n(self):
        with pytest.raises(LabelMismatch):
            classify_tensor(_lab("6,3,1,1", sign="+"), _lab("9,1"))

    def test_wrong_characteristic(self):
        a = _lab("4,1,1", p=3, sign="+")
        b = _lab("4,1,1", p=3, sign="-")
        with pytest.raises(UnsupportedCharacteristic):
            classify_tensor(a, b)

    def test_outcome_json_reason(self):
        out = classify_tensor(_lab("10,1"), _lab("9,2"))
        assert out.to_json_dict() == {"verdict": "NotIrreducible", "reason": "BothNonSplit"}
