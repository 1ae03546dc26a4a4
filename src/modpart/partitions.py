"""Integer partitions and their p-modular bookkeeping.

A partition is a Partition: a weakly decreasing tuple of positive integers,
checked when built from input and passed as itself through every layer.
Nodes of the Young diagram are 1-based (row, col) pairs; the residue of a
node is (col - row) mod p. All operations here are exact integer
combinatorics.

Partitions of n are enumerated in descending lex order by one successor-step
generator with a cap on every part's multiplicity: p - 1 for the p-regular
partitions, none for all of them. Its work follows the number of partitions
it yields, so a p-regular sweep does not pay for the singular ones.
"""

from __future__ import annotations

import re
from math import factorial
from typing import Iterable, Iterator

from .errors import (
    EmptyPartition,
    MalformedPartition,
    NonPositivePart,
    NotWeaklyDecreasing,
    OddPrimeRequired,
)

Node = tuple[int, int]

_PLAIN_TOKEN = re.compile(r"^\d+$")
_EXP_TOKEN = re.compile(r"^(\d+)\^(\d+)$")


def validate_prime(p: int) -> int:
    """Check that p is an odd prime (>= 3) and return it.

    p = 2 is rejected up front: none of the machinery in this package is
    defined for even characteristic.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise OddPrimeRequired(f"p must be an integer, got {p!r}")
    if p < 3 or p % 2 == 0:
        raise OddPrimeRequired(f"p must be an odd prime >= 3, got {p}")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise OddPrimeRequired(f"p must be prime, got {p} = {d} * {p // d}")
        d += 2
    return p


def _check_int(value: object, name: str, error: type[Exception] = ValueError) -> None:
    """The type check of an integer argument other than p: an int, not a bool.

    Runs just before the argument's range check and raises that check's
    error class, so a float or a bool gets a named error, never a TypeError
    from the arithmetic or a silent answer.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")


def _check_non_negative(value: object, name: str) -> None:
    """The check of a count argument: an int >= 0, else a ValueError."""
    _check_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


class Partition(tuple):
    """A tuple of weakly decreasing positive parts, validated on construction.

    Length, iteration, indexing, hashing and comparison are the tuple's:
    order is lexicographic, the enumeration order used throughout, and a
    partition equals the plain tuple of its parts, Partition((2, 1)) ==
    (2, 1). A plain tuple is still not a Partition: the public functions
    reject it (_check_partition), so only checked parts reach the kernels.
    """

    __slots__ = ()

    def __init__(self, parts: Iterable[int] = ()):
        # tuple.__new__ has consumed parts, which may be an iterator
        for x in self:
            if not isinstance(x, int) or isinstance(x, bool):
                raise MalformedPartition(f"parts must be integers, got {x!r}")
            if x <= 0:
                raise NonPositivePart(f"parts must be positive, got {x}")
        if any(self[i] < self[i + 1] for i in range(len(self) - 1)):
            raise NotWeaklyDecreasing(f"parts must be weakly decreasing, got {tuple(self)}")

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """parts as a Partition, unchecked; a Partition comes back as it is.

        Only for tuples derived from a partition already validated; every
        user-facing entry point builds Partition(...).
        """
        return parts if isinstance(parts, cls) else tuple.__new__(cls, parts)

    @property
    def parts(self) -> "Partition":
        """The partition itself: the parts as a tuple."""
        return self

    @property
    def size(self) -> int:
        """Number of nodes, |lambda|."""
        return sum(self)

    @property
    def height(self) -> int:
        """Number of parts, h(lambda)."""
        return len(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return format_partition(self)

    def row(self, i: int) -> int:
        """Length of row i (1-based), 0 beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def remove(self, node: Node) -> "Partition":
        """Partition with one removable node deleted."""
        r, c = node
        if self.row(r) != c or self.row(r + 1) >= c:
            raise ValueError(f"{node} is not a removable node of {self}")
        x = self[r - 1] - 1
        return Partition._trusted(self[: r - 1] + ((x,) if x else ()) + self[r:])

    def add(self, node: Node) -> "Partition":
        """Partition with one addable node appended."""
        r, c = node
        if not (self.row(r) + 1 == c and (r == 1 or self.row(r - 1) >= c)):
            raise ValueError(f"{node} is not an addable node of {self}")
        return Partition._trusted(self[: r - 1] + (c,) + self[r:])


def _check_partition(lam: object) -> None:
    """The type check of every public function that takes a partition."""
    if not isinstance(lam, Partition):
        raise MalformedPartition(
            f"expected a Partition, got {type(lam).__name__} {lam!r}; build one with Partition(...)"
        )


EMPTY = Partition()


def parse_partition(text: str) -> Partition:
    """Parse "8,2", exponent form "4^3,1^2", or "[]" for the empty partition."""
    s = text.strip()
    if s == "[]":
        return EMPTY
    if not s:
        raise MalformedPartition('empty input (use "[]" for the empty partition)')
    parts: list[int] = []
    for token in s.split(","):
        token = token.strip()
        m = _EXP_TOKEN.match(token)
        if m:
            base, exp = int(m.group(1)), int(m.group(2))
            if exp == 0:
                raise MalformedPartition(f"exponent must be >= 1 in {token!r}")
            parts.extend([base] * exp)
        elif _PLAIN_TOKEN.match(token):
            parts.append(int(token))
        else:
            raise MalformedPartition(f"bad partition token {token!r}")
    return Partition(parts)


def format_partition(lam: Partition, exponents: bool = False) -> str:
    """Render a partition as text; inverse of parse_partition.

    Plain comma form by default ("8,2"); exponent form on request
    ("4^3,1^2", multiplicity-1 parts stay plain). Empty renders as "[]".
    """
    _check_partition(lam)
    if not lam:
        return "[]"
    if not exponents:
        return ",".join(map(str, lam))
    out = []
    for part, mult in exponent_form(lam):
        out.append(f"{part}^{mult}" if mult > 1 else str(part))
    return ",".join(out)


def exponent_form(lam: Partition) -> tuple[tuple[int, int], ...]:
    """Multiplicity encoding ((a_1, b_1), ..., (a_h, b_h)), a_1 > a_2 > ... ."""
    _check_partition(lam)
    runs: list[tuple[int, int]] = []
    for x in lam:
        if runs and runs[-1][0] == x:
            runs[-1] = (x, runs[-1][1] + 1)
        else:
            runs.append((x, 1))
    return tuple(runs)


def is_p_regular(lam: Partition, p: int) -> bool:
    """True when no part repeats p or more times."""
    _check_partition(lam)
    validate_prime(p)
    return _regular(lam, p)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    _check_partition(lam)
    if not lam:
        return EMPTY
    return Partition._trusted(tuple(sum(1 for x in lam if x >= c) for c in range(1, lam[0] + 1)))


def residue(node: Node, p: int) -> int:
    """Residue (col - row) mod p of a 1-based node."""
    validate_prime(p)
    r, c = node
    return (c - r) % p


def enumerate_partitions(
    n: int, p: int, regular_only: bool = False
) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order.

    With regular_only, only the p-regular ones are yielded: they are
    generated directly, with every multiplicity capped at p - 1, not filtered
    from all partitions of n. Streaming generator whose work per item is
    constant on average, so it follows the number of partitions yielded;
    n = 0 yields exactly the empty partition. n must be an int >= 0.
    """
    validate_prime(p)
    _check_non_negative(n, "n")
    yield from _descending_lex(n, p - 1 if regular_only else n)


def _regular(parts: tuple[int, ...], p: int) -> bool:
    """is_p_regular for a valid p, on a part tuple: the package's one rule."""
    run = 1
    for i in range(1, len(parts)):
        run = run + 1 if parts[i] == parts[i - 1] else 1
        if run >= p:
            return False
    return True


def _descending_lex(n: int, q: int) -> Iterator[Partition]:
    """Partitions of n >= 0 with no part repeated more than q times, in
    descending lex order; q >= 2 for n >= 2, and q >= n caps nothing. n = 0
    yields exactly the empty partition.

    Each step goes straight to the successor. The rightmost part a > 1 that
    can shrink is the one whose suffix sum rest (a included) still fits into
    parts <= v = a - 1, each at most q times: 2 * rest <= q * v * (v + 1).
    That part becomes v, and the rest of rest is refilled greedily: v up to
    q - 1 more times, then v - 1, v - 2, ... up to q times each. As in
    Zoghbi and Stojmenovic's ZS1 (1998), the tail of 1s is never walked: h
    marks the last part > 1, and a last part 2 that may split into 1, 1 does
    so in one step. On average a step reads fewer than two parts (counted for
    n <= 90 and 2 <= q <= 12), so the work follows the output.
    """
    parts = [n] if n else []
    h = 0 if n > 1 else -1  # index of the last part > 1; parts[h + 1:] are 1s
    while True:
        yield tuple.__new__(Partition, parts)
        if h < 0:
            return
        ones = len(parts) - h - 1
        if parts[h] == 2 and ones < q - 1:
            parts[h] = 1
            parts.append(1)
            h -= 1
            continue
        j, rest = h, ones
        while True:
            a = parts[j]
            rest += a
            if 2 * rest <= q * a * (a - 1):
                break
            j -= 1
            if j < 0:
                return
        # Only parts[h] can be a 2 that shrinks, and the split above takes it:
        # here v >= 2, so parts[h] below is the last part > 1.
        v = a - 1
        rest -= v
        del parts[j + 1 :]
        parts[j] = v
        c, cap = v, q - 1
        while rest > 1 and c > 1:
            if c > rest:
                c, cap = rest, q
            k = min(cap, rest // c)
            parts += [c] * k
            rest -= k * c
            c, cap = c - 1, q
        h = len(parts) - 1
        parts += [1] * rest


def specht_dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of this shape (hook length formula)."""
    _check_partition(lam)
    if not lam:
        raise EmptyPartition("specht_dimension needs a nonempty partition")
    conj = conjugate(lam)
    prod = 1
    for r, length in enumerate(lam, start=1):
        for c in range(1, length + 1):
            prod *= (length - c) + (conj[c - 1] - r) + 1
    num = factorial(lam.size)
    assert num % prod == 0
    return num // prod
