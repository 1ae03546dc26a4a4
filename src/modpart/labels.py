"""Irreducible labels for the alternating group and the tensor classifier.

A p-regular partition lam labels either one irreducible that is shared with
its Mullineux partner (lam != M(lam): a "nonsplit" label, stored by the
lexicographically larger member of the pair) or a pair of sign-twisted
irreducibles (lam == M(lam): "split" labels, one per sign).

classify_tensor decides, for p = 5 only, whether the tensor product of two
such irreducibles (both of dimension > 1) is again irreducible: that happens
exactly when n is not divisible by 5 and, up to swapping the factors, one
label is split with a JS partition and the other is the nonsplit label whose
pair contains (n-1, 1). The irreducible product is then labelled by
nu = (lam_1 - 1, lam_2, ..., lam_h, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .branching import is_js
from .errors import (
    ArgumentError,
    DimensionOneFactor,
    EmptyPartition,
    InternalInconsistency,
    LabelMismatch,
    SignOnNonFixed,
    SignRequired,
    UnsupportedCharacteristic,
)
from .mullineux import mullineux_image
from .partitions import Partition, _check_partition


class LabelKind(Enum):
    NONSPLIT = "nonsplit"
    SPLIT = "split"


class Verdict(Enum):
    IRREDUCIBLE = "Irreducible"
    NOT_IRREDUCIBLE = "NotIrreducible"


class ReasonCode(Enum):
    """Why a product is reducible; listed in decision priority order."""

    BOTH_NONSPLIT = "BothNonSplit"
    DOUBLE_SPLIT = "DoubleSplit"
    N_DIVISIBLE_BY_P = "NDivisibleByP"
    SPLIT_NOT_JS = "SplitNotJS"
    PARTNER_NOT_NATURAL_LABEL = "PartnerNotNaturalLabel"


@dataclass(frozen=True)
class AnIrreducible:
    """One irreducible label: canonical partition, kind, sign (split only)."""

    kind: LabelKind
    partition: Partition
    sign: int | None
    n: int
    p: int

    def __str__(self) -> str:
        if self.kind is LabelKind.SPLIT:
            return f"split({self.partition}, {'+' if self.sign > 0 else '-'})"
        return f"nonsplit({self.partition})"

    @property
    def pair(self) -> frozenset[Partition]:
        """The {lam, M(lam)} pair this label names."""
        return frozenset({self.partition, mullineux_image(self.partition, self.p)})


def make_label(lam: Partition, p: int, sign: int | str | None = None) -> AnIrreducible:
    """Build a validated label from a p-regular partition and optional sign."""
    _check_partition(lam)
    if not lam:
        raise EmptyPartition("labels need a nonempty partition")
    if isinstance(sign, str):
        if sign not in ("+", "-"):
            raise ArgumentError(f"sign must be '+' or '-', got {sign!r}")
        sign = 1 if sign == "+" else -1
    if sign is not None and (type(sign) is not int or abs(sign) != 1):
        raise ArgumentError(f"sign must be +1, -1 or None, got {sign!r}")
    image = mullineux_image(lam, p)
    if image == lam:
        if sign is None:
            raise SignRequired(f"{lam} is its own Mullineux image at p={p}; a sign is required")
        return AnIrreducible(LabelKind.SPLIT, lam, sign, lam.size, p)
    if sign is not None:
        raise SignOnNonFixed(f"{lam} is not its own Mullineux image at p={p}; no sign applies")
    return AnIrreducible(LabelKind.NONSPLIT, max(lam, image), None, lam.size, p)


def _check_label(label: object) -> None:
    """The type check of every public function that takes a label."""
    if not isinstance(label, AnIrreducible):
        raise ArgumentError(
            f"expected an AnIrreducible label, got {type(label).__name__} {label!r}; build one with make_label(...)"
        )


def is_dimension_one(label: AnIrreducible) -> bool:
    """Whether the label names a one-dimensional module.

    Nonsplit labels: exactly the {(n), M((n))} pair (the two one-dimensional
    modules of the ambient group restrict to the same module). A nonsplit
    label stores the lexicographically larger member of its pair, and (n) is
    the largest partition of n, so that pair's label is (n) itself: the test
    compares with (n) and never computes M((n)), a chain of n recursion
    levels. Split labels: exactly n <= 4, where the split halves are
    one-dimensional.
    """
    _check_label(label)
    if label.kind is LabelKind.NONSPLIT:
        return label.partition == (label.n,)
    return label.n <= 4


def nu_of(lam: Partition) -> Partition:
    """(lam_1 - 1, lam_2, ..., lam_h, 1): top removable node moved to the bottom.

    Raises InternalInconsistency when the result would not be a partition
    (lam_1 - 1 < lam_2, or a vanishing first part); the classifier's inputs
    never hit this, and the harness checks that they do not.
    """
    _check_partition(lam)
    if not lam:
        raise EmptyPartition("nu_of needs a nonempty partition")
    parts = (lam[0] - 1,) + lam[1:] + (1,)
    if parts[0] == 0 or (len(lam) > 1 and parts[0] < parts[1]):
        raise InternalInconsistency(
            f"moving the top removable node of {lam} to the bottom does not yield a partition"
        )
    return Partition._trusted(parts)


@dataclass(frozen=True)
class ClassificationOutcome:
    verdict: Verdict
    nu: Partition | None = None
    reason: ReasonCode | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict.value}
        if self.nu is not None:
            out["nu"] = str(self.nu)
        if self.reason is not None:
            out["reason"] = self.reason.value
        return out


def classify_tensor(d1: AnIrreducible, d2: AnIrreducible) -> ClassificationOutcome:
    """Decide irreducibility of the tensor product of two labels at p = 5.

    Reducible outcomes carry the first matching reason in the order
    BothNonSplit, DoubleSplit, NDivisibleByP, SplitNotJS,
    PartnerNotNaturalLabel. Factors of dimension one are out of contract.
    """
    _check_label(d1)
    _check_label(d2)
    if d1.p != d2.p or d1.n != d2.n:
        raise LabelMismatch(
            f"labels live on different groups: (n={d1.n}, p={d1.p}) vs (n={d2.n}, p={d2.p})"
        )
    if d1.p != 5:
        raise UnsupportedCharacteristic(f"classification is only available at p=5, got p={d1.p}")
    if is_dimension_one(d1) or is_dimension_one(d2):
        raise DimensionOneFactor("tensor factors must have dimension > 1")
    kinds = (d1.kind, d2.kind)
    if kinds == (LabelKind.NONSPLIT, LabelKind.NONSPLIT):
        return ClassificationOutcome(Verdict.NOT_IRREDUCIBLE, reason=ReasonCode.BOTH_NONSPLIT)
    if kinds == (LabelKind.SPLIT, LabelKind.SPLIT):
        return ClassificationOutcome(Verdict.NOT_IRREDUCIBLE, reason=ReasonCode.DOUBLE_SPLIT)
    split, nonsplit = (d1, d2) if d1.kind is LabelKind.SPLIT else (d2, d1)
    n = split.n
    if n % 5 == 0:
        return ClassificationOutcome(Verdict.NOT_IRREDUCIBLE, reason=ReasonCode.N_DIVISIBLE_BY_P)
    if not is_js(split.partition, 5):
        return ClassificationOutcome(Verdict.NOT_IRREDUCIBLE, reason=ReasonCode.SPLIT_NOT_JS)
    if (n - 1, 1) not in nonsplit.pair:
        return ClassificationOutcome(
            Verdict.NOT_IRREDUCIBLE, reason=ReasonCode.PARTNER_NOT_NATURAL_LABEL
        )
    return ClassificationOutcome(Verdict.IRREDUCIBLE, nu=nu_of(split.partition))
