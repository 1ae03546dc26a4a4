"""JS-partitions: exactly one normal node, recognised arithmetically.

Writing lam in exponent form (a_1^{b_1}, ..., a_h^{b_h}) with a_1 > ... > a_h,
lam is JS exactly when

    a_k - a_{k+1} + b_k + b_{k+1} == 0  (mod p)   for every 1 <= k < h.

A single run (h = 1) satisfies this vacuously. The branching module offers the
signature-side definition (is_js: one normal node); the two are cross-checked
exhaustively by the harness and must never be merged into one code path.

enumerate_js generates the exponent forms directly under this congruence,
run by run, instead of filtering all partitions of n: its cost follows the
number of JS partitions rather than p(n). Callers that need the signature
side (the L23 check) apply is_js to each generated partition themselves.
"""

from __future__ import annotations

from typing import Iterator

from .errors import EmptyPartition, NotPRegular
from .mullineux import is_mullineux_fixed
from .partitions import Partition, _check_non_negative, _check_partition, _regular, validate_prime


def is_js_arith(lam: Partition, p: int) -> bool:
    """Arithmetic JS test by the congruence; no node bookkeeping at all.

    One pass over the runs a^b of lam, building no exponent form: prev
    holds a_k + b_k of the run before the current one, and the end of each
    later run checks the congruence against it.
    """
    _check_partition(lam)
    validate_prime(p)
    if not lam:
        raise EmptyPartition("is_js_arith needs a nonempty partition")
    if not _regular(lam, p):
        raise NotPRegular(f"is_js_arith needs a p-regular partition, got {lam} at p={p}")
    prev = None
    a, b = lam[0], 0
    for x in lam:
        if x == a:
            b += 1
            continue
        if prev is not None and (prev - a + b) % p:
            return False
        prev, a, b = a + b, x, 1
    return prev is None or (prev - a + b) % p == 0


def enumerate_js(n: int, p: int, fixed_only: bool = False) -> Iterator[Partition]:
    """All p-regular JS partitions of n, descending lex; optionally only the
    Mullineux-fixed ones.

    Generated from the congruence, top run first: a_1 descends and, for each,
    b_1 descends from min(p - 1, n // a_1); every later run takes the next
    smaller part a_{k+1} whose multiplicity the congruence fixes in 1..p-1. A
    branch stops once runs of parts <= a, each at most p - 1 long, can no
    longer fill the rest. This order is descending lex, and the work grows
    with the output, not with the number of partitions of n. n = 0 yields
    nothing.
    """
    validate_prime(p)
    _check_non_negative(n, "n")
    for a in range(n, 0, -1):
        if (p - 1) * a * (a + 1) // 2 < n:
            break
        for b in range(min(p - 1, n // a), 0, -1):
            for lam in _later_runs([a] * b, n - a * b, a, b, p):
                if not fixed_only or is_mullineux_fixed(lam, p):
                    yield lam


def _later_runs(parts: list[int], rest: int, a: int, b: int, p: int) -> Iterator[Partition]:
    """Complete parts, whose last run is a^b, to every JS partition of size
    sum(parts) + rest, in descending lex order."""
    if rest == 0:
        yield Partition._trusted(parts)
        return
    for c in range(min(a - 1, rest), 0, -1):
        if (p - 1) * c * (c + 1) // 2 < rest:
            break
        m = (c - a - b) % p
        if m == 0 or m * c > rest:
            continue
        parts.extend([c] * m)
        yield from _later_runs(parts, rest - m * c, c, m, p)
        del parts[-m:]
