"""JS-partitions: exactly one normal node, recognised arithmetically.

Writing lam in exponent form (a_1^{b_1}, ..., a_h^{b_h}) with a_1 > ... > a_h,
lam is JS exactly when

    a_k - a_{k+1} + b_k + b_{k+1} == 0  (mod p)   for every 1 <= k < h.

A single run (h = 1) satisfies this vacuously. The branching module offers the
signature-side definition (is_js: one normal node); the two are cross-checked
exhaustively by the harness and must never be merged into one code path.
"""

from __future__ import annotations

from typing import Iterator

from .errors import EmptyPartition, NotPRegular
from .mullineux import is_mullineux_fixed
from .partitions import Partition, enumerate_partitions, exponent_form, is_p_regular, validate_prime


def is_js_arith(lam: Partition, p: int) -> bool:
    """Arithmetic JS test on the exponent form; no node bookkeeping at all."""
    validate_prime(p)
    if not lam:
        raise EmptyPartition("is_js_arith needs a nonempty partition")
    if not is_p_regular(lam, p):
        raise NotPRegular(f"is_js_arith needs a p-regular partition, got {lam} at p={p}")
    runs = exponent_form(lam)
    return all(
        (runs[k][0] - runs[k + 1][0] + runs[k][1] + runs[k + 1][1]) % p == 0
        for k in range(len(runs) - 1)
    )


def enumerate_js(n: int, p: int, fixed_only: bool = False) -> Iterator[Partition]:
    """All p-regular JS partitions of n, descending lex; optionally only the
    Mullineux-fixed ones."""
    validate_prime(p)
    for lam in enumerate_partitions(n, p, regular_only=True):
        if not lam:
            continue
        if is_js_arith(lam, p) and (not fixed_only or is_mullineux_fixed(lam, p)):
            yield lam
