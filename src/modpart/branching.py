"""Residue signatures, normal/conormal nodes, and the operators built on them.

For a residue i, the addable and removable i-nodes of a partition are read in
a fixed scan order and reduced by iterated nearest-neighbour cancellation of
(removable, addable) pairs: a removable node cancels against the nearest
surviving addable node later in the scan. Surviving removable nodes are the
normal i-nodes (count eps_i), surviving addable nodes the conormal i-nodes
(count phi_i).

The reduction is one pass over the rows in scan order, read straight from the
part tuple, with one bracket stack per residue (Kleshchev's signature rule):
a removable node is pushed, an addable node pops the nearest pushed node of
its residue or else survives as conormal; what stays on a stack is normal.
Row r holds at most the removable node (r, x) and the addable node
(r, x + 1), whose residues differ by one, so no sorting or merging is needed.
A NodeClassification holds only what this pass computes: the normal and
conormal lists and their counts. Its addable and removable lists are derived
on read from addable_nodes and removable_nodes.

Two scan orders exist in the wild, so both are implemented and the shipped
one is fixed by calibration against the Mullineux cross-checks (see
harness.calibration_report): BOTTOM_UP, i.e. the scan runs from the last row
up to row 1, so a removable node cancels against the nearest surviving
addable node strictly above it. Every public function scans calibrated. A
verification run fixes its scan once, in the Classifier it is built with
(harness._new_classifier); only the calibration experiment builds one with
the flipped orientation, to demonstrate that it fails.

e_tilde removes the bottom (largest-row) normal i-node; f_tilde adds the top
(smallest-row) conormal i-node. Both return None when the operator is absent
(eps_i = 0 resp. phi_i = 0); absence is a value, not an error.

The module caches nothing: every public call runs the pass from scratch, and
a verification run (see harness) wraps _classify in its own bounded cache,
dropped when the run returns. _tilde_e takes the classification its caller
already holds, and _tilde_f runs the bracket pass over residue i alone,
because the images it builds are seldom classified again.

The readers that want only the counts, is_js, the harness's L52 and the
public Mullineux recursion below its root, take a run walk under the
calibrated scan and never read a run's cache. A run of the part x over rows
s..r holds exactly one removable node, (r, x), and one addable node,
(s, x + 1); the rows strictly between hold no node, and the only other node
is the addable (h + 1, 1). So the bottom-up word of the row pass is read off
the runs alone: (h + 1, 1) first, then each run's removable node and its
addable node, from the last run up. At the sweep ceiling every partition is
counted once, so a cached classification would only be built, evicted and
never read again. The public recursion reads only which eps_i is the smallest
nonzero one, then finds the node it removes by _bottom_normal, a bracket pass
over residue i alone, as _tilde_f finds its node by _top_conormal.

Public functions validate their inputs once: the partition's type, p and i.
The Mullineux recursion calls the private cores _tilde_f, _bottom_normal and,
on the harness path, _tilde_e, which take the scan (_tilde_e as part of its
classification, _bottom_normal only the calibrated one) and skip the checks
that its entry point has already made.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .errors import ArgumentError, EmptyPartition, NotPRegular
from .partitions import Node, Partition, _check_int, _check_partition, _regular, validate_prime


class Orientation(Enum):
    """Scan order of the addable/removable word used in signature reduction."""

    TOP_DOWN = "top-down"
    BOTTOM_UP = "bottom-up"


# Frozen by the calibration experiment; see the module docstring.
CALIBRATED_ORIENTATION = Orientation.BOTTOM_UP


def active_orientation() -> Orientation:
    """Orientation used when none is passed explicitly (always the calibrated one)."""
    return CALIBRATED_ORIENTATION


@dataclass(frozen=True)
class NodeClassification:
    """Addable/removable/normal/conormal nodes of one partition, by residue.

    Node lists are top-to-bottom (ascending row). epsilon[i] and phi[i] are
    the normal and conormal counts for residue i. It stores only what the
    bracket pass computes (normal and conormal lists, counts); addable and
    removable are derived on read from addable_nodes and removable_nodes.
    """

    partition: Partition
    p: int
    orientation: Orientation
    normal: tuple[tuple[Node, ...], ...]
    conormal: tuple[tuple[Node, ...], ...]
    epsilon: tuple[int, ...]
    phi: tuple[int, ...]

    @property
    def addable(self) -> tuple[tuple[Node, ...], ...]:
        return _by_residue(addable_nodes(self.partition), self.p)

    @property
    def removable(self) -> tuple[tuple[Node, ...], ...]:
        return _by_residue(removable_nodes(self.partition), self.p)

    def to_json_dict(self) -> dict:
        grid = lambda rows: [[list(n) for n in row] for row in rows]
        return {
            "partition": str(self.partition),
            "p": self.p,
            "orientation": self.orientation.value,
            "addable": grid(self.addable),
            "removable": grid(self.removable),
            "normal": grid(self.normal),
            "conormal": grid(self.conormal),
            "epsilon": list(self.epsilon),
            "phi": list(self.phi),
        }


def addable_nodes(lam: Partition) -> tuple[Node, ...]:
    """All addable nodes, top to bottom."""
    _check_partition(lam)
    out = []
    for r in range(1, lam.height + 1):
        if r == 1 or lam.row(r - 1) > lam.row(r):
            out.append((r, lam.row(r) + 1))
    out.append((lam.height + 1, 1))
    return tuple(out)


def removable_nodes(lam: Partition) -> tuple[Node, ...]:
    """All removable nodes, top to bottom."""
    _check_partition(lam)
    h = len(lam)
    return tuple((r, x) for r, x in enumerate(lam, 1) if r == h or x > lam[r])


def _by_residue(nodes: tuple[Node, ...], p: int) -> tuple[tuple[Node, ...], ...]:
    """nodes split into one tuple per residue (c - r) mod p, order kept."""
    out: list[list[Node]] = [[] for _ in range(p)]
    for node in nodes:
        out[(node[1] - node[0]) % p].append(node)
    return tuple(map(tuple, out))


class Classifier(NamedTuple):
    """What a verification run and its Mullineux recursion classify with:
    classify(lam, p), the run's cache of _classify under the scan
    orientation, which is fixed when the run is built."""

    classify: Callable[[Partition, int], NodeClassification]
    orientation: Orientation


def _classify(lam: Partition, p: int, orientation: Orientation) -> NodeClassification:
    # The single pass of the module docstring, over rows 1..h+1. It meets
    # every addable and removable node but keeps only the survivors.
    h = len(lam)
    stack: list[list[Node]] = [[] for _ in range(p)]
    conormal: list[list[Node]] = [[] for _ in range(p)]
    bottom_up = orientation is Orientation.BOTTOM_UP
    for r in range(h + 1, 0, -1) if bottom_up else range(1, h + 2):
        x = lam[r - 1] if r <= h else 0
        if x > (lam[r] if r < h else 0):
            stack[(x - r) % p].append((r, x))
        if r == 1 or lam[r - 2] > x:
            i = (x + 1 - r) % p
            if stack[i]:
                stack[i].pop()
            else:
                conormal[i].append((r, x + 1))

    if bottom_up:
        # Node lists are top-to-bottom; this scan built them bottom first.
        for nodes in (*stack, *conormal):
            nodes.reverse()
    return NodeClassification(
        partition=lam,
        p=p,
        orientation=orientation,
        normal=tuple(map(tuple, stack)),
        conormal=tuple(map(tuple, conormal)),
        epsilon=tuple(map(len, stack)),
        phi=tuple(map(len, conormal)),
    )


def classify_nodes(lam: Partition, p: int) -> NodeClassification:
    """Classify every addable/removable node of lam by residue, under the
    calibrated scan.

    Defined for any partition, p-regular or not.
    """
    _check_partition(lam)
    validate_prime(p)
    return _classify(lam, p, CALIBRATED_ORIENTATION)


def _node_counts(lam: Partition, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(epsilon, phi) of _classify(lam, p, BOTTOM_UP), by the run walk of the
    module docstring: one bracket count per residue, no node lists.

    Within a run the removable and addable nodes share a residue only when
    the run is a multiple of p long, so on singular partitions their order
    in the word matters and follows the row pass.
    """
    h = len(lam)
    eps, phi = [0] * p, [0] * p
    phi[-h % p] = 1  # (h + 1, 1) comes first, with nothing open
    r = h
    while r:
        x = lam[r - 1]
        eps[(x - r) % p] += 1
        s = r
        while s > 1 and lam[s - 2] == x:
            s -= 1
        i = (x + 1 - s) % p
        if eps[i]:
            eps[i] -= 1
        else:
            phi[i] += 1
        r = s - 1
    return tuple(eps), tuple(phi)


def _check_regular(lam: Partition, p: int, what: str) -> None:
    if not _regular(lam, p):
        raise NotPRegular(f"{what} needs a p-regular partition, got {lam} at p={p}")


def _check_residue(i: int, p: int) -> None:
    _check_int(i, "residue i")
    if not (0 <= i < p):
        raise ArgumentError(f"residue must satisfy 0 <= i < p, got i={i}, p={p}")


def _tilde_e(nc: NodeClassification, i: int) -> Partition | None:
    """tilde_e of the partition that nc classifies, for a valid residue i,
    under nc's scan."""
    _check_regular(nc.partition, nc.p, "tilde_e")
    normal = nc.normal[i]
    return nc.partition.remove(normal[-1]) if normal else None


def _top_conormal(lam: Partition, i: int, p: int, orientation: Orientation) -> Node | None:
    """classify_nodes(...).conormal[i][0], or None when phi_i = 0, by a bracket
    pass over residue i alone that caches nothing.

    An addable i-node that finds no open removable i-node survives for good,
    so the top survivor is the last one met bottom-up, the first one top-down.
    """
    h = len(lam)
    bottom_up = orientation is Orientation.BOTTOM_UP
    open_removable = 0
    top = None
    for r in range(h + 1, 0, -1) if bottom_up else range(1, h + 2):
        x = lam[r - 1] if r <= h else 0
        if (x - r) % p == i:
            if x > (lam[r] if r < h else 0):
                open_removable += 1
        elif (x + 1 - r) % p == i and (r == 1 or lam[r - 2] > x):
            if open_removable:
                open_removable -= 1
            else:
                top = (r, x + 1)
                if not bottom_up:
                    break
    return top


def _bottom_normal(lam: Partition, i: int, p: int) -> Node | None:
    """_classify(lam, p, BOTTOM_UP).normal[i][-1], or None when eps_i = 0, by
    a bottom-up bracket pass over residue i alone.

    Bottom-up, the bottom normal i-node is the first removable i-node met
    that no addable i-node above it cancels: the bottom of the bracket stack
    at the end of the pass. The addable (h + 1, 1) comes first, with nothing
    open, so the pass starts at row h.
    """
    h = len(lam)
    open_removable = 0
    bottom = None
    for r in range(h, 0, -1):
        x = lam[r - 1]
        if (x - r) % p == i:
            if x > (lam[r] if r < h else 0):
                if not open_removable:
                    bottom = (r, x)
                open_removable += 1
        elif open_removable and (x + 1 - r) % p == i and (r == 1 or lam[r - 2] > x):
            open_removable -= 1
    return bottom if open_removable else None


def _tilde_f(lam: Partition, i: int, p: int, orientation: Orientation) -> Partition | None:
    """tilde_f for a valid p and residue i, under the given scan."""
    _check_regular(lam, p, "tilde_f")
    node = _top_conormal(lam, i, p, orientation)
    return lam.add(node) if node else None


def tilde_e(lam: Partition, i: int, p: int) -> Partition | None:
    """Remove the bottom normal i-node of a p-regular lam under the calibrated
    scan; None when there is none."""
    _check_partition(lam)
    validate_prime(p)
    _check_residue(i, p)
    return _tilde_e(_classify(lam, p, CALIBRATED_ORIENTATION), i)


def tilde_f(lam: Partition, i: int, p: int) -> Partition | None:
    """Add the top conormal i-node of a p-regular lam under the calibrated
    scan; None when there is none."""
    _check_partition(lam)
    validate_prime(p)
    _check_residue(i, p)
    return _tilde_f(lam, i, p, CALIBRATED_ORIENTATION)


def is_js(lam: Partition, p: int) -> bool:
    """True when lam has exactly one normal node (signature definition)."""
    _check_partition(lam)
    if not lam:
        raise EmptyPartition("is_js needs a nonempty partition")
    validate_prime(p)
    _check_regular(lam, p, "is_js")
    return sum(_node_counts(lam, p)[0]) == 1
