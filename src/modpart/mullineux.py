"""The Mullineux involution on p-regular partitions, computed two ways.

Primary route: the operator recursion. For nonempty lam pick the smallest
residue i with eps_i(lam) > 0; then

    M(lam) = f_tilde_{(-i) mod p}( M( e_tilde_i(lam) ) ),   M(empty) = empty.

The public functions always descend this way under the calibrated scan.
Below the root, each level reads eps from the normal counts and finds the
bottom normal i-node by one bracket pass over residue i, without a
NodeClassification. The verification harness reaches the same recursion
through _mullineux_image: it descends through its run's Classifier, under
the scan that run was built with, and it can pick the largest normal
residue, which MULLX's residue-choice check needs.

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
from functools import partial
from typing import Callable

from .branching import (
    CALIBRATED_ORIENTATION,
    Classifier,
    Orientation,
    _bottom_normal,
    _check_regular,
    _node_counts,
    _tilde_e,
    _tilde_f,
    classify_nodes,
)
from .errors import EmptyPartition, InternalInconsistency, NotPRegular, ReconstructionFailure
from .partitions import EMPTY, Partition, _check_int, _check_partition, _regular, validate_prime

ResidueChoice = str  # "smallest" | "largest"
# The end of the ascending list of normal residues that each choice takes;
# any other choice is a KeyError, never silently one of the two.
_PICK = {"smallest": 0, "largest": -1}


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
# demand by one descent. Public calls all read the calibrated key
# (p, "smallest", CALIBRATED_ORIENTATION), which the harness's calibrated
# chains share; only the harness varies the other two entries. The memo is
# read inline, never through a wrapper function, so each level of the
# recursion costs one recursion-limit frame. Failures are not stored.
_MULL_LINKS: dict[tuple, dict[Partition, Partition]] = {}

# One level of a descent: descend(mu, p) = (lam, i, e_tilde_i(lam)) for the
# normal residue i that the recursion removes from the nonempty mu. lam == mu
# is the object the links store: on the harness path the run's cache's own
# copy, so that the run's links and its classifications share partitions.
# The harness binds _classified_step to its run and residue rule.
Descent = Callable[[Partition, int], tuple[Partition, int, Partition]]


def _good_residue(
    lam: Partition, p: int, epsilon: tuple[int, ...], choice: ResidueChoice, orientation: Orientation
) -> int:
    """The normal residue the recursion removes from the nonempty lam with
    normal counts epsilon: the smallest or largest i with eps_i > 0."""
    candidates = [i for i in range(p) if epsilon[i] > 0]
    if not candidates:
        raise InternalInconsistency(
            f"nonempty p-regular partition {lam} has no normal node at p={p} ({orientation.value} scan)"
        )
    return candidates[_PICK[choice]]


def _classified_step(run: Classifier, choice: ResidueChoice, mu: Partition, p: int) -> tuple[Partition, int, Partition]:
    """One level of the harness's descent, read off run's classification of mu."""
    nc = run.classify(mu, p)
    i = _good_residue(nc.partition, p, nc.epsilon, choice, run.orientation)
    return nc.partition, i, _tilde_e(nc, i)


def _count_step(lam: Partition, p: int) -> tuple[Partition, int, Partition]:
    """One level of the public descent (calibrated scan, smallest normal
    residue) from the normal counts and one bracket pass over residue i."""
    i = _good_residue(lam, p, _node_counts(lam, p)[0], "smallest", CALIBRATED_ORIENTATION)
    _check_regular(lam, p, "tilde_e")
    return lam, i, lam.remove(_bottom_normal(lam, i, p))


def _mull(
    lam: Partition, i: int, child: Partition, descend: Descent, links: dict, p: int, orientation: Orientation
) -> Partition:
    """Image of the nonempty lam that links lacks, given its step
    (lam, i, child = e_tilde_i(lam)); descend(mu, p) takes each step below
    it, and the lifts run under orientation.

    Each level takes its child's step before descending to it, so the frames
    of that step sit beside the child's level, not below it: the deepest
    level then needs no more frames than its own lift.
    """
    child_image = links.get(child)
    if child_image is None:
        child_image = _mull(*descend(child, p), descend, links, p, orientation)
    image = _tilde_f(child_image, (p - i) % p, p, orientation)
    if image is None:
        raise InternalInconsistency(
            f"no conormal node of residue {(p - i) % p} on {child_image} "
            f"while lifting {lam} at p={p} ({orientation.value} scan)"
        )
    links[lam] = image
    return image


def mullineux(lam: Partition, p: int) -> MullineuxResult:
    """Mullineux image of lam via the operator recursion, with its trace.

    The memo holds images only, so the trace is rebuilt here by descending
    from lam with the recursion's step; callers that need only the image
    use mullineux_image.
    """
    image = mullineux_image(lam, p)
    trace = []
    cur = lam
    while cur:
        _, i, cur = _count_step(cur, p)
        trace.append(i)
    return MullineuxResult(image=image, trace=tuple(trace))


def mullineux_image(lam: Partition, p: int) -> Partition:
    """Mullineux image of lam via the operator recursion, without the trace."""
    _check_input(lam, p)
    # The memo is read here, not through _mullineux_image: one more frame
    # under every cold chain would turn queries just under the recursion
    # limit into RecursionErrors. The root is classified through the public
    # classify_nodes, whose span perfbench's tracer test expects under this
    # call; the levels below it are counted.
    links = _MULL_LINKS.setdefault((p, "smallest", CALIBRATED_ORIENTATION), {EMPTY: EMPTY})
    image = links.get(lam)
    if image is None:
        nc = classify_nodes(lam, p)
        i = _good_residue(lam, p, nc.epsilon, "smallest", CALIBRATED_ORIENTATION)
        image = _mull(lam, i, _tilde_e(nc, i), _count_step, links, p, CALIBRATED_ORIENTATION)
    return image


def _mullineux_image(lam: Partition, p: int, run: Classifier, residue_choice: ResidueChoice = "smallest") -> Partition:
    """mullineux_image for checked arguments, descending through run, a
    verification run's Classifier, so that the run's later checks read what
    the recursion classified. Every step and lift takes run's scan;
    residue_choice ("smallest" or "largest") picks the normal residue of
    each step."""
    links = _MULL_LINKS.setdefault((p, residue_choice, run.orientation), {EMPTY: EMPTY})
    image = links.get(lam)
    if image is None:
        descend = partial(_classified_step, run, residue_choice)
        image = _mull(*descend(lam, p), descend, links, p, run.orientation)
    return image


def _remove_p_rim(parts: tuple[int, ...], p: int) -> tuple[tuple[int, ...], int, int]:
    """remove_p_rim on a nonempty part tuple, p already validated; returns the rest as parts."""
    out = []
    budget, removed = p, 0
    for x, below in zip(parts, parts[1:] + (0,)):
        take = x - below + 1 if below else x  # the row's rim stretch
        if take > budget:
            take = budget
        budget -= take
        if not budget:
            budget = p
        removed += take
        out.append(x - take)
    # A row never loses more than its stretch, which is at most its length,
    # so every remainder is >= 0. The remainders are then weakly decreasing
    # exactly when the positive ones are weakly decreasing and no positive
    # one follows a zero: when the rest is a partition and no emptied row
    # sits above a row that kept nodes.
    if out != sorted(out, reverse=True):
        raise InternalInconsistency(f"p-rim removal broke {Partition._trusted(parts)} at p={p}: {out}")
    return tuple(filter(None, out)), removed, len(parts)


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
    start row) counts the boundary sets that pass. It runs forward from
    segment 0 at row 0 over the start rows that passing segments reach, in
    O(m * r * p) <= O(m * r^2) steps, and keeps for each reached end the
    segment that reached it, so that nu is rebuilt from the last row back
    along the unique set; none or several raise ReconstructionFailure. One
    forward removal checks the result.
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
    # starts[s]: boundary sets of segments 0..k-1 that pass and leave row s
    # for segment k to start on (rows and segments 0-based). back[k][s]:
    # segment k's start row and top part on the last set seen that ends
    # segment k on row s - 1. When exactly one whole set passes, no other
    # set reaches an end on it, so the entries read back are that set's.
    starts = {0: 1}
    back: list[dict[int, tuple[int, int]]] = []
    for k in range(m):
        z = p if k < m - 1 else last
        rows_left = r - (m - 1 - k)  # the later segments need a row each
        ends: dict[int, int] = {}
        step: dict[int, tuple[int, int]] = {}
        for s, w in starts.items():
            for e in range(s, min(s + z, rows_left)):
                top = z + mu_pad[e] - (e - s)
                if (e == s or top > mu_pad[s]) and (k == 0 or top <= mu_pad[s - 1] + 1):
                    ends[e + 1] = ends.get(e + 1, 0) + w
                    step[e + 1] = (s, top)
        back.append(step)
        starts = ends
    ways = starts.get(r, 0) if last == p or mu_pad[-1] == 0 else 0
    if ways != 1:
        raise ReconstructionFailure(
            f"inverse p-rim attachment onto {mu} with (a, r)=({a}, {r}) at p={p} "
            f"found {ways} candidates"
        )
    nu = [0] + [x + 1 for x in mu_pad[:-1]]
    s = r
    for step in reversed(back):
        s, top = step[s]
        nu[s] = top
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
