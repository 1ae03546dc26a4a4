"""The Mullineux involution on p-regular partitions, computed two ways.

Primary route: the operator recursion. For nonempty lam pick the smallest
residue i with eps_i(lam) > 0; then

    M(lam) = f_tilde_{(-i) mod p}( M( e_tilde_i(lam) ) ),   M(empty) = empty.

Oracle route: the rim symbol. Peel p-rims off lam, recording for each layer
the pair (a_k = nodes removed, r_k = rows met). The image is the unique
p-regular partition whose symbol keeps the a_k but has second entries
s_k = a_k - r_k + [p does not divide a_k]; it is rebuilt by inverse p-rim
attachment from the innermost layer outward.

The two routes share no code beyond the partitions layer (the Partition type
and its p-regularity rule), which is what makes their agreement a meaningful
check. For p > |lam| both degenerate to diagram conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branching import (
    CALIBRATED_ORIENTATION,
    NodeClassification,
    Orientation,
    _tilde_e,
    _tilde_f,
    classify_nodes,
)
from .errors import EmptyPartition, InternalInconsistency, NotPRegular, ReconstructionFailure
from .partitions import EMPTY, Partition, _check_int, _check_partition, _regular, validate_prime

ResidueChoice = str  # "smallest" | "largest"


@dataclass(frozen=True)
class MullineuxResult:
    """Image plus the good-node residue sequence the recursion followed."""

    image: Partition
    trace: tuple[int, ...]


def _check_input(lam: Partition, p: int) -> None:
    _check_partition(lam)
    validate_prime(p)
    if not _regular(lam, p):
        raise NotPRegular(f"the Mullineux map is defined on p-regular partitions, got {lam} at p={p}")


# (p, residue choice, orientation) -> {partition: image}, seeded with
# M(empty) = empty. One link per partition keeps a chain of n steps at O(n)
# memory. Links hold images only: mullineux() rebuilds the residue trace on
# demand by one descent. The memo is read inline, never through a cache
# wrapper, so each level of the recursion costs one recursion-limit frame (a C
# cache wrapper costs two). Failures are not stored.
_MULL_LINKS: dict[tuple, dict[Partition, Partition]] = {}


def _good_residue(nc: NodeClassification, choice: ResidueChoice) -> int:
    """The normal residue the recursion removes from the nonempty partition
    that nc classifies: the smallest or largest i with eps_i > 0."""
    candidates = [i for i in range(nc.p) if nc.epsilon[i] > 0]
    if not candidates:
        raise InternalInconsistency(
            f"nonempty p-regular partition {nc.partition} has no normal node at p={nc.p} "
            f"({nc.orientation.value} scan)"
        )
    return candidates[0] if choice == "smallest" else candidates[-1]


def _mull(nc: NodeClassification, choice: ResidueChoice, links: dict) -> Partition:
    """Image of the nonempty partition that nc classifies and links lacks.

    Each level classifies its child before descending to it, so a
    classification that misses the signature cache spends its frames beside
    the child's level, not below it: the deepest level then needs no more
    frames than its own operators.
    """
    lam, p, orientation = nc.partition, nc.p, nc.orientation
    i = _good_residue(nc, choice)
    child = _tilde_e(nc, i)
    assert child is not None
    child_image = links.get(child)
    if child_image is None:
        child_image = _mull(classify_nodes(child, p, orientation), choice, links)
    image = _tilde_f(child_image, (p - i) % p, p, orientation)
    if image is None:
        raise InternalInconsistency(
            f"no conormal node of residue {(p - i) % p} on {child_image} "
            f"while lifting {lam} at p={p} ({orientation.value} scan)"
        )
    links[lam] = image
    return image


def mullineux(
    lam: Partition,
    p: int,
    residue_choice: ResidueChoice = "smallest",
    orientation: Orientation = CALIBRATED_ORIENTATION,
) -> MullineuxResult:
    """Mullineux image of lam via the operator recursion, with its trace.

    residue_choice picks which normal residue drives each recursion step;
    the image is independent of it (cross-checked by the harness), so only
    "smallest" (default) and "largest" are offered. orientation is the
    signature scan; only the calibration experiment passes the flipped one.
    The memo holds images only, so the trace is rebuilt here by descending
    from lam with the recursion's residue rule; callers that need only the
    image use mullineux_image.
    """
    image = mullineux_image(lam, p, residue_choice, orientation)
    trace = []
    cur = lam
    while cur:
        nc = classify_nodes(cur, p, orientation)
        i = _good_residue(nc, residue_choice)
        trace.append(i)
        cur = _tilde_e(nc, i)
    return MullineuxResult(image=image, trace=tuple(trace))


def mullineux_image(
    lam: Partition,
    p: int,
    residue_choice: ResidueChoice = "smallest",
    orientation: Orientation = CALIBRATED_ORIENTATION,
) -> Partition:
    """Mullineux image of lam via the operator recursion, without the trace.

    Takes the same arguments as mullineux and returns its image.
    """
    _check_input(lam, p)
    if residue_choice not in ("smallest", "largest"):
        raise ValueError(f"residue_choice must be 'smallest' or 'largest', got {residue_choice!r}")
    if not isinstance(orientation, Orientation):
        raise ValueError(f"orientation must be an Orientation, got {orientation!r}")
    links = _MULL_LINKS.setdefault((p, residue_choice, orientation), {EMPTY: EMPTY})
    image = links.get(lam)
    if image is None:
        image = _mull(classify_nodes(lam, p, orientation), residue_choice, links)
    return image


def _remove_p_rim(parts: tuple[int, ...], p: int) -> tuple[tuple[int, ...], int, int]:
    """remove_p_rim on a nonempty part tuple, p already validated; returns the rest as parts."""
    out = list(parts)
    budget = p
    for idx in range(len(parts)):
        below = parts[idx + 1] if idx + 1 < len(parts) else 0
        stretch = parts[idx] - below + 1 if below >= 1 else parts[idx]
        take = min(budget, stretch)
        out[idx] -= take
        budget -= take
        if budget == 0:
            budget = p
    rest = tuple(x for x in out if x > 0)
    if any(rest[i] < rest[i + 1] for i in range(len(rest) - 1)) or any(
        out[i] > 0 and out[i - 1] == 0 for i in range(1, len(out))
    ):
        raise InternalInconsistency(f"p-rim removal broke {Partition._trusted(parts)} at p={p}: {out}")
    return rest, sum(parts) - sum(rest), len(parts)


def remove_p_rim(lam: Partition, p: int) -> tuple[Partition, int, int]:
    """Strip one p-rim layer; returns (rest, nodes removed, rows met).

    The rim of lam is walked from the top-right corner in segments of p
    consecutive rim nodes; after a full segment the next one starts on the
    row below the row where the previous segment stopped, at that row's
    rightmost rim node. The final segment may be shorter. Every row loses at
    least one node, so rows met = height of lam.
    """
    _check_partition(lam)
    if not lam:
        raise EmptyPartition("cannot remove a p-rim from the empty partition")
    validate_prime(p)
    rest, a, r = _remove_p_rim(lam, p)
    return Partition._trusted(rest), a, r


def mullineux_symbol(lam: Partition, p: int) -> tuple[tuple[int, int], ...]:
    """Rim symbol ((a_1, r_1), ..., (a_k, r_k)); empty for the empty partition."""
    _check_input(lam, p)
    rows = []
    parts = lam
    while parts:
        parts, a, r = _remove_p_rim(parts, p)
        rows.append((a, r))
    return tuple(rows)


def attach_p_rim(mu: Partition, a: int, r: int, p: int) -> Partition:
    """Inverse of remove_p_rim: the unique nu with remove_p_rim(nu) = (mu, a, r).

    A p-rim of a nodes over r rows is m = ceil(a/p) segments of consecutive
    rows s..e, of sizes z_1 = ... = z_{m-1} = p and z_m = a - p(m - 1). With
    mu padded by zeros to r rows, the forward walk pins each segment by its
    rows: every non-final row sheds its whole rim stretch, so
    nu_{i+1} = mu_i + 1 for s <= i < e, and the size pins the top row,
    nu_s = z_k + mu_e - (e - s). The segment is valid exactly when
    - nu_s >= mu_s + 1 if e > s (row s sheds at least one node, so nu_s >= 1
      always holds and e - s < z_k);
    - nu_s <= mu_{s-1} + 1 if k > 1 (row s - 1 ends the previous segment: it
      sheds its remaining budget without passing its rim stretch);
    - e = r and (z_m = p or mu_r = 0) for the last segment (a short last
      segment must empty row r).
    Validity depends only on (k, s, e), so a dynamic program over (segment,
    start row) counts the boundary sets that pass, from the last segment back
    to the first, in O(m * r * p) <= O(m * r^2) steps, and rebuilds nu from
    the unique one; none or several raise ReconstructionFailure. One forward
    removal checks the result.
    """
    _check_partition(mu)
    validate_prime(p)
    _check_int(a, "a", ReconstructionFailure)
    _check_int(r, "r", ReconstructionFailure)
    if a < r or r < len(mu) or r < 1:
        raise ReconstructionFailure(f"no partition adds a {p}-rim of {a} nodes over {r} rows onto {mu}")
    m = -(-a // p)  # ceil
    if m > r:
        raise ReconstructionFailure(f"a {p}-rim of {a} nodes needs at most {a // p} segment rows, got r={r}")
    mu_pad = mu + (0,) * (r - len(mu))
    last = a - p * (m - 1)
    # ways[s]: boundary sets for segments k..m when segment k starts at row s
    # (rows and segments 0-based). Past row r there is one way to place no
    # segment, if the last segment may end on row r. found[k, s]: segment k's
    # end row and top part on such a set.
    ways = [0] * r + [1 if last == p or mu_pad[-1] == 0 else 0]
    found: dict[tuple[int, int], tuple[int, int]] = {}
    for k in range(m - 1, -1, -1):
        z = p if k < m - 1 else last
        rows_left = r - (m - 1 - k)  # the later segments need a row each
        later, ways = ways, [0] * (r + 1)
        for s in range(k, 1 if k == 0 else rows_left):
            for e in range(s, min(s + z, rows_left)):
                if later[e + 1]:
                    top = z + mu_pad[e] - (e - s)
                    if (e == s or top > mu_pad[s]) and (k == 0 or top <= mu_pad[s - 1] + 1):
                        ways[s] += later[e + 1]
                        found[k, s] = (e, top)
    if ways[0] != 1:
        raise ReconstructionFailure(
            f"inverse p-rim attachment onto {mu} with (a, r)=({a}, {r}) at p={p} "
            f"found {ways[0]} candidates"
        )
    nu = [0] + [x + 1 for x in mu_pad[:-1]]
    s = 0
    for k in range(m):
        e, nu[s] = found[k, s]
        s = e + 1
    image = Partition._trusted(nu)
    if _remove_p_rim(image, p) != (mu, a, r):
        raise InternalInconsistency(
            f"inverse p-rim attachment onto {mu} with (a, r)=({a}, {r}) at p={p} built {nu}"
        )
    return image


def mullineux_via_symbol(lam: Partition, p: int) -> Partition:
    """Mullineux image via the rim symbol (independent oracle route)."""
    image = EMPTY
    for a, r in reversed(mullineux_symbol(lam, p)):
        s = a - r + (1 if a % p else 0)
        image = attach_p_rim(image, a, s, p)
    if not _regular(image, p):
        raise InternalInconsistency(f"symbol route produced a p-singular image {image} for {lam} at p={p}")
    return image


def is_mullineux_fixed(lam: Partition, p: int) -> bool:
    """True when lam is its own Mullineux image."""
    return mullineux_image(lam, p) == lam
