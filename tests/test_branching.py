"""Signature reduction, normal/conormal nodes, and the e/f operators.

The confluence oracle reduces the addable/removable word by cancelling one
random matched pair at a time until none is left; the survivors must match
the stack-based reduction regardless of cancellation order, for both scan
orientations. The public classify_nodes always scans calibrated, so the
tests that need a given scan classify through the private core _classify.
"""

import hashlib
import inspect
import json
import random

import pytest

from modpart import (
    CALIBRATED_ORIENTATION,
    EMPTY,
    Orientation,
    Partition,
    addable_nodes,
    classify_nodes,
    enumerate_partitions,
    is_js,
    is_p_regular,
    parse_partition,
    removable_nodes,
    residue,
    tilde_e,
    tilde_f,
)
from modpart.branching import _bottom_normal, _classify, _node_counts, _tilde_f, _top_conormal
from modpart.errors import EmptyPartition, NotPRegular


def _random_cancellation(lam, p, i, orientation, rng):
    """Survivors of the i-word under randomly ordered pair cancellation.

    A matched pair is a removable node followed (in scan order) by an addable
    node with only already-cancelled entries in between.
    """
    word = [(node, "R") for node in removable_nodes(lam) if residue(node, p) == i]
    word += [(node, "A") for node in addable_nodes(lam) if residue(node, p) == i]
    word.sort(key=lambda t: t[0][0], reverse=(orientation is Orientation.BOTTOM_UP))
    alive: list[tuple | None] = list(word)
    while True:
        pairs = [
            (a, b)
            for a in range(len(alive))
            if alive[a] is not None and alive[a][1] == "R"
            for b in range(a + 1, len(alive))
            if alive[b] is not None
            and alive[b][1] == "A"
            and all(x is None for x in alive[a + 1 : b])
        ]
        if not pairs:
            break
        a, b = rng.choice(pairs)
        alive[a] = alive[b] = None
    normals = sorted(entry[0] for entry in alive if entry is not None and entry[1] == "R")
    conormals = sorted(entry[0] for entry in alive if entry is not None and entry[1] == "A")
    return tuple(normals), tuple(conormals)


# to_json_dict() of fixed partitions, pinned from the sort-and-merge reduction
# that the one-pass kernel replaced.
PINNED_JSON = [
    ("5,2", 3, Orientation.TOP_DOWN, {
        "partition": "5,2", "p": 3, "orientation": "top-down",
        "addable": [[], [[2, 3], [3, 1]], [[1, 6]]], "removable": [[[2, 2]], [[1, 5]], []],
        "normal": [[[2, 2]], [], []], "conormal": [[], [[3, 1]], [[1, 6]]],
        "epsilon": [1, 0, 0], "phi": [0, 1, 1],
    }),
    ("5,2", 3, Orientation.BOTTOM_UP, {
        "partition": "5,2", "p": 3, "orientation": "bottom-up",
        "addable": [[], [[2, 3], [3, 1]], [[1, 6]]], "removable": [[[2, 2]], [[1, 5]], []],
        "normal": [[[2, 2]], [[1, 5]], []], "conormal": [[], [[2, 3], [3, 1]], [[1, 6]]],
        "epsilon": [1, 1, 0], "phi": [0, 2, 1],
    }),
    ("5,2", 5, Orientation.TOP_DOWN, {
        "partition": "5,2", "p": 5, "orientation": "top-down",
        "addable": [[[1, 6]], [[2, 3]], [], [[3, 1]], []], "removable": [[[2, 2]], [], [], [], [[1, 5]]],
        "normal": [[[2, 2]], [], [], [], [[1, 5]]], "conormal": [[[1, 6]], [[2, 3]], [], [[3, 1]], []],
        "epsilon": [1, 0, 0, 0, 1], "phi": [1, 1, 0, 1, 0],
    }),
    ("5,2", 5, Orientation.BOTTOM_UP, {
        "partition": "5,2", "p": 5, "orientation": "bottom-up",
        "addable": [[[1, 6]], [[2, 3]], [], [[3, 1]], []], "removable": [[[2, 2]], [], [], [], [[1, 5]]],
        "normal": [[], [], [], [], [[1, 5]]], "conormal": [[], [[2, 3]], [], [[3, 1]], []],
        "epsilon": [0, 0, 0, 0, 1], "phi": [0, 1, 0, 1, 0],
    }),
    ("8,2", 3, Orientation.TOP_DOWN, {
        "partition": "8,2", "p": 3, "orientation": "top-down",
        "addable": [[], [[2, 3], [3, 1]], [[1, 9]]], "removable": [[[2, 2]], [[1, 8]], []],
        "normal": [[[2, 2]], [], []], "conormal": [[], [[3, 1]], [[1, 9]]],
        "epsilon": [1, 0, 0], "phi": [0, 1, 1],
    }),
    ("8,2", 3, Orientation.BOTTOM_UP, {
        "partition": "8,2", "p": 3, "orientation": "bottom-up",
        "addable": [[], [[2, 3], [3, 1]], [[1, 9]]], "removable": [[[2, 2]], [[1, 8]], []],
        "normal": [[[2, 2]], [[1, 8]], []], "conormal": [[], [[2, 3], [3, 1]], [[1, 9]]],
        "epsilon": [1, 1, 0], "phi": [0, 2, 1],
    }),
    ("8,2", 5, Orientation.TOP_DOWN, {
        "partition": "8,2", "p": 5, "orientation": "top-down",
        "addable": [[], [[2, 3]], [], [[1, 9], [3, 1]], []], "removable": [[[2, 2]], [], [[1, 8]], [], []],
        "normal": [[[2, 2]], [], [[1, 8]], [], []], "conormal": [[], [[2, 3]], [], [[1, 9], [3, 1]], []],
        "epsilon": [1, 0, 1, 0, 0], "phi": [0, 1, 0, 2, 0],
    }),
    ("8,2", 5, Orientation.BOTTOM_UP, {
        "partition": "8,2", "p": 5, "orientation": "bottom-up",
        "addable": [[], [[2, 3]], [], [[1, 9], [3, 1]], []], "removable": [[[2, 2]], [], [[1, 8]], [], []],
        "normal": [[[2, 2]], [], [[1, 8]], [], []], "conormal": [[], [[2, 3]], [], [[1, 9], [3, 1]], []],
        "epsilon": [1, 0, 1, 0, 0], "phi": [0, 1, 0, 2, 0],
    }),
    ("2,1", 3, Orientation.TOP_DOWN, {
        "partition": "2,1", "p": 3, "orientation": "top-down",
        "addable": [[[2, 2]], [[3, 1]], [[1, 3]]], "removable": [[], [[1, 2]], [[2, 1]]],
        "normal": [[], [], [[2, 1]]], "conormal": [[[2, 2]], [], [[1, 3]]],
        "epsilon": [0, 0, 1], "phi": [1, 0, 1],
    }),
    ("2,1", 3, Orientation.BOTTOM_UP, {
        "partition": "2,1", "p": 3, "orientation": "bottom-up",
        "addable": [[[2, 2]], [[3, 1]], [[1, 3]]], "removable": [[], [[1, 2]], [[2, 1]]],
        "normal": [[], [[1, 2]], []], "conormal": [[[2, 2]], [[3, 1]], []],
        "epsilon": [0, 1, 0], "phi": [1, 1, 0],
    }),
    ("2,1", 5, Orientation.TOP_DOWN, {
        "partition": "2,1", "p": 5, "orientation": "top-down",
        "addable": [[[2, 2]], [], [[1, 3]], [[3, 1]], []], "removable": [[], [[1, 2]], [], [], [[2, 1]]],
        "normal": [[], [[1, 2]], [], [], [[2, 1]]], "conormal": [[[2, 2]], [], [[1, 3]], [[3, 1]], []],
        "epsilon": [0, 1, 0, 0, 1], "phi": [1, 0, 1, 1, 0],
    }),
    ("2,1", 5, Orientation.BOTTOM_UP, {
        "partition": "2,1", "p": 5, "orientation": "bottom-up",
        "addable": [[[2, 2]], [], [[1, 3]], [[3, 1]], []], "removable": [[], [[1, 2]], [], [], [[2, 1]]],
        "normal": [[], [[1, 2]], [], [], [[2, 1]]], "conormal": [[[2, 2]], [], [[1, 3]], [[3, 1]], []],
        "epsilon": [0, 1, 0, 0, 1], "phi": [1, 0, 1, 1, 0],
    }),
]

# p = 5 up to n = 8 (bare-n ids, so those test ids stay stable), p = 3 and 7 up to n = 10.
ORACLE_CASES = [pytest.param(5, n, id=str(n)) for n in range(0, 9)] + [
    pytest.param(p, n, id=f"p{p}-{n}") for p in (3, 7) for n in range(0, 11)
]


class TestNodeLists:
    def test_addable_removable_82(self):
        lam = Partition((8, 2))
        assert addable_nodes(lam) == ((1, 9), (2, 3), (3, 1))
        assert removable_nodes(lam) == ((1, 8), (2, 2))

    def test_empty(self):
        assert addable_nodes(EMPTY) == ((1, 1),)
        assert removable_nodes(EMPTY) == ()


class TestClassification:
    def test_8_2_at_5(self):
        nc = classify_nodes(parse_partition("8,2"), 5)
        assert nc.epsilon == (1, 0, 1, 0, 0)
        assert nc.phi == (0, 1, 0, 2, 0)
        assert nc.normal[0] == ((2, 2),)
        assert nc.normal[2] == ((1, 8),)
        assert nc.conormal[3] == ((1, 9), (3, 1))

    def test_8_1_at_5(self):
        nc = classify_nodes(parse_partition("8,1"), 5)
        assert nc.epsilon == (0, 0, 1, 0, 1)
        assert nc.phi == (1, 0, 0, 2, 0)

    def test_6_at_5(self):
        nc = classify_nodes(parse_partition("6"), 5)
        assert nc.epsilon == (1, 0, 0, 0, 0)
        assert nc.phi == (0, 1, 0, 0, 1)

    def test_5_2_at_5_has_cancellation(self):
        # the removable (2,2) cancels against the addable (1,6), both residue 0
        nc = classify_nodes(parse_partition("5,2"), 5)
        assert nc.epsilon == (0, 0, 0, 0, 1)
        assert nc.phi == (0, 1, 0, 1, 0)
        assert nc.normal[0] == ()
        assert nc.conormal[0] == ()

    def test_2_1_at_3_sign_restriction(self):
        # the two-row hook at p=3 must restrict to the column, not the row
        nc = classify_nodes(parse_partition("2,1"), 3)
        assert nc.epsilon == (0, 1, 0)
        assert nc.normal[1] == ((1, 2),)
        assert tilde_e(parse_partition("2,1"), 1, 3) == Partition((1, 1))

    def test_singular_partition_allowed(self):
        nc = classify_nodes(Partition((1, 1, 1, 1, 1)), 3)
        assert sum(nc.phi) == sum(nc.epsilon) + 1

    def test_empty_partition(self):
        nc = classify_nodes(EMPTY, 5)
        assert nc.epsilon == (0, 0, 0, 0, 0)
        assert nc.phi == (1, 0, 0, 0, 0)

    def test_json_dict_shape(self):
        d = classify_nodes(parse_partition("8,2"), 5).to_json_dict()
        assert d["partition"] == "8,2"
        assert d["epsilon"] == [1, 0, 1, 0, 0]
        assert d["orientation"] == "bottom-up"
        assert d["normal"][0] == [[2, 2]]

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p,n", ORACLE_CASES)
    def test_matches_random_cancellation_oracle(self, p, n, orientation):
        rng = random.Random(20260819 + n)
        for lam in enumerate_partitions(n, p):
            nc = _classify(lam, p, orientation)
            for i in range(p):
                normals, conormals = _random_cancellation(lam, p, i, orientation, rng)
                assert normals == nc.normal[i]
                assert conormals == nc.conormal[i]

    @pytest.mark.parametrize("text,p,orientation,want", PINNED_JSON)
    def test_json_dict_pinned(self, text, p, orientation, want):
        assert _classify(parse_partition(text), p, orientation).to_json_dict() == want

    def test_json_dicts_digest_pinned(self):
        # one JSON line per classification: n = 0..16, then p, then the scan,
        # then enumeration order (7,320 lines)
        digest = hashlib.sha256()
        for n in range(17):
            for p in (3, 5, 7, 11):
                for orientation in Orientation:
                    for lam in enumerate_partitions(n, p):
                        line = json.dumps(_classify(lam, p, orientation).to_json_dict()) + "\n"
                        digest.update(line.encode())
        assert digest.hexdigest() == "82f88aefb07588b3481836a15339d785c36ea9342173f39fb281ce9b238c3141"

    def test_totals_balance_small_sweep(self):
        for n in range(0, 10):
            for lam in enumerate_partitions(n, 3):
                nc = classify_nodes(lam, 3)
                assert sum(nc.phi) == sum(nc.epsilon) + 1


class TestOperators:
    def test_tilde_e_examples(self):
        assert tilde_e(parse_partition("6"), 0, 5) == Partition((5,))
        assert tilde_e(parse_partition("6"), 1, 5) is None

    def test_tilde_f_examples(self):
        assert tilde_f(parse_partition("8,1"), 3, 5) == Partition((9, 1))
        assert tilde_f(EMPTY, 0, 5) == Partition((1,))
        assert tilde_f(EMPTY, 1, 5) is None

    def test_residue_range_checked(self):
        with pytest.raises(ValueError):
            tilde_e(parse_partition("3,1"), 5, 5)

    def test_singular_rejected(self):
        with pytest.raises(NotPRegular):
            tilde_e(Partition((1, 1, 1)), 0, 3)

    def test_e_then_f_roundtrip_sweep(self):
        for n in range(1, 10):
            for lam in enumerate_partitions(n, 5, regular_only=True):
                nc = classify_nodes(lam, 5)
                for i in range(5):
                    if nc.epsilon[i]:
                        assert tilde_f(tilde_e(lam, i, 5), i, 5) == lam
                    if nc.phi[i]:
                        assert tilde_e(tilde_f(lam, i, 5), i, 5) == lam


class TestLiftingScan:
    # tilde_f finds its node by a bracket pass over one residue, without the
    # cached classification; the classification's top conormal node is the
    # oracle, on every partition of n <= 18 (singular ones included), both
    # scans, every residue: 1,597 partitions x 2 scans x 26 residues.
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_top_conormal_matches_classification(self, p):
        cases = 0
        for n in range(19):
            for lam in enumerate_partitions(n, p):
                regular = is_p_regular(lam, p)
                for orientation in Orientation:
                    conormal = _classify(lam, p, orientation).conormal
                    for i in range(p):
                        want = conormal[i][0] if conormal[i] else None
                        assert _top_conormal(lam, i, p, orientation) == want, (lam, i, orientation)
                        if regular:
                            lifted = _tilde_f(lam, i, p, orientation)
                            assert lifted == (lam.add(want) if want else None), (lam, i, orientation)
                            if orientation is CALIBRATED_ORIENTATION:
                                assert tilde_f(lam, i, p) == lifted
                        cases += 1
        assert cases == 1597 * 2 * p

    # The public Mullineux recursion finds the node it removes by a bracket
    # pass over one residue, bottom-up; the classification's bottom normal
    # node is the oracle, on every partition of n <= 16 (singular ones
    # included), every residue: 915 partitions x p residues.
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_bottom_normal_matches_classification(self, p):
        cases = singular = 0
        for n in range(17):
            for lam in enumerate_partitions(n, p):
                singular += not is_p_regular(lam, p)
                normal = _classify(lam, p, Orientation.BOTTOM_UP).normal
                for i in range(p):
                    want = normal[i][-1] if normal[i] else None
                    assert _bottom_normal(lam, i, p) == want, (lam, i)
                    cases += 1
        assert cases == 915 * p
        assert singular > 0


class TestNodeCounts:
    # The run walk against the cached classification's counts under the
    # calibrated scan, on every partition of n <= 22, singular ones included:
    # 4,508 partitions per p. Only this check sees a walk that puts a run's
    # addable node before its removable node: the two share a residue only
    # in a run a multiple of p long, and there both counts move by one, so
    # the sweeps' totals still balance.
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_walk_matches_classification(self, p):
        cases = singular = 0
        for n in range(23):
            for lam in enumerate_partitions(n, p):
                singular += not is_p_regular(lam, p)
                nc = classify_nodes(lam, p)
                assert _node_counts(lam, p) == (nc.epsilon, nc.phi), lam
                cases += 1
        assert cases == 4508
        assert singular > 0

    def test_empty_and_a_run_of_p_rows(self):
        assert _node_counts(EMPTY, 5) == ((0, 0, 0, 0, 0), (1, 0, 0, 0, 0))
        # (3,1) and (1,2) are both 1-nodes: bottom-up the removable one comes
        # first and the addable one cancels it
        assert _node_counts(Partition((1, 1, 1)), 3) == ((0, 0, 0), (1, 0, 0))


class TestJsSignature:
    def test_fixtures(self):
        assert is_js(parse_partition("9,1"), 5)
        assert is_js(parse_partition("4,1,1"), 3)
        assert not is_js(parse_partition("8,2"), 5)
        assert is_js(Partition((1,)), 5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            is_js(EMPTY, 5)

    def test_singular_rejected(self):
        with pytest.raises(NotPRegular):
            is_js(Partition((2, 2, 2)), 3)


class TestOrientationContext:
    def test_override_and_restore(self):
        # the flipped scan of the private core leaves the public call untouched
        lam = parse_partition("2,1")
        assert classify_nodes(lam, 3).epsilon == (0, 1, 0)
        flipped = _classify(lam, 3, Orientation.TOP_DOWN)
        assert flipped.orientation is Orientation.TOP_DOWN
        assert flipped.epsilon != (0, 1, 0)
        assert classify_nodes(lam, 3).epsilon == (0, 1, 0)

    def test_orientations_mirror_counts(self):
        # totals agree between scans even where the node sets differ
        for lam in enumerate_partitions(7, 3):
            up = _classify(lam, 3, Orientation.BOTTOM_UP)
            down = _classify(lam, 3, Orientation.TOP_DOWN)
            assert sum(up.epsilon) + 1 == sum(up.phi)
            assert sum(down.epsilon) + 1 == sum(down.phi)

    def test_public_classification_takes_no_scan(self):
        # the scan is fixed where a verification run is built; the public
        # entry always scans calibrated
        assert list(inspect.signature(classify_nodes).parameters) == ["lam", "p"]
        assert classify_nodes(parse_partition("2,1"), 3).orientation is CALIBRATED_ORIENTATION
