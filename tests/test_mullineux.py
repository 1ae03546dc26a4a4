"""Mullineux map: frozen vectors, the two independent routes, rim symbols.

Expected images below were computed by hand from the rim-symbol algorithm
before the code existed and are frozen here; the recursion route must
reproduce them, and the two routes must agree on sweeps.
"""

import importlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import modpart.harness as harness
from modpart import (
    EMPTY,
    MullineuxResult,
    Orientation,
    Partition,
    attach_p_rim,
    conjugate,
    enumerate_partitions,
    classify_nodes,
    is_mullineux_fixed,
    make_label,
    mullineux,
    mullineux_image,
    mullineux_symbol,
    mullineux_via_symbol,
    parse_partition,
    remove_p_rim,
    run_check,
    tilde_e,
    tilde_f,
)
from modpart.branching import _classify
from modpart.errors import (
    InternalInconsistency,
    NotPRegular,
    OddPrimeRequired,
    ReconstructionFailure,
)
from modpart.partitions import validate_prime

# The package attribute modpart.mullineux is the function of that name.
MULLINEUX_MODULE = importlib.import_module("modpart.mullineux")
SRC = Path(__file__).resolve().parent.parent / "src"

# (partition text, p, expected image text), all verified by hand
FROZEN_VECTORS = [
    ("7", 5, "2,2,2,1"),
    ("10,2", 5, "3,3,2,2,1,1"),
    ("2,1", 3, "3"),
    ("2,2", 3, "4"),
    # (3,3,2) at p=3: symbol ((5,3),(3,2)), dual seconds (3,1); the unique
    # partition with symbol ((5,3),(3,1)) is (6,1,1)
    ("3,3,2", 3, "6,1,1"),
    ("4,1,1", 3, "4,1,1"),
    ("1", 3, "1"),
    ("6,3,1,1", 5, "6,3,1,1"),
    ("4", 5, "1^4"),
    ("5", 5, "2,1,1,1"),
    ("3,1", 5, "2,1,1"),
]


class TestFrozenVectors:
    @pytest.mark.parametrize("text,p,want", FROZEN_VECTORS)
    def test_recursion_route(self, text, p, want):
        assert mullineux_image(parse_partition(text), p) == parse_partition(want)

    @pytest.mark.parametrize("text,p,want", FROZEN_VECTORS)
    def test_symbol_route(self, text, p, want):
        assert mullineux_via_symbol(parse_partition(text), p) == parse_partition(want)

    def test_empty(self):
        assert mullineux_image(EMPTY, 5) == EMPTY
        assert mullineux(EMPTY, 5) == MullineuxResult(EMPTY, ())


class TestSymbols:
    def test_symbol_of_7_at_5(self):
        assert mullineux_symbol(parse_partition("7"), 5) == ((5, 1), (2, 1))

    def test_symbol_of_10_2_at_5(self):
        assert mullineux_symbol(parse_partition("10,2"), 5) == ((7, 2), (5, 1))

    def test_symbol_column_sums(self):
        # first entries of the symbol partition |lam|
        for n in range(1, 13):
            for lam in enumerate_partitions(n, 5, regular_only=True):
                sym = mullineux_symbol(lam, 5)
                assert sum(a for a, _ in sym) == n

    def test_rim_removal_example(self):
        rest, a, r = remove_p_rim(parse_partition("3,3,2"), 3)
        assert (rest, a, r) == (Partition((2, 1)), 5, 3)

    def test_rim_removal_one_row(self):
        assert remove_p_rim(parse_partition("7"), 5) == (Partition((2,)), 5, 1)
        assert remove_p_rim(parse_partition("2"), 5) == (EMPTY, 2, 1)

    def test_rim_removal_empty_rejected(self):
        with pytest.raises(ValueError):
            remove_p_rim(EMPTY, 5)

    def test_attach_inverts_removal(self):
        for n in range(1, 12):
            for p in (3, 5):
                for lam in enumerate_partitions(n, p):
                    rest, a, r = remove_p_rim(lam, p)
                    assert attach_p_rim(rest, a, r, p) == lam

    def test_attach_rejects_impossible(self):
        with pytest.raises(ReconstructionFailure):
            attach_p_rim(Partition((2, 1)), 2, 3, 5)  # fewer nodes than rows
        with pytest.raises(ReconstructionFailure):
            attach_p_rim(Partition((4,)), 3, 2, 5)  # cannot cover row 1's rim


def _attach_by_search(mu, a, r, p):
    """The exhaustive inverse p-rim attachment that the segment-boundary DP
    replaced, kept as the test oracle: build nu from every set of segment
    boundary rows and keep the candidates that the forward removal maps back
    to (mu, a, r)."""
    validate_prime(p)
    if a < r or r < len(mu) or r < 1:
        raise ReconstructionFailure(f"no partition adds a {p}-rim of {a} nodes over {r} rows onto {mu}")
    m = -(-a // p)  # ceil
    if m > r:
        raise ReconstructionFailure(f"a {p}-rim of {a} nodes needs at most {a // p} segment rows, got r={r}")
    mu_pad = [mu.row(i) for i in range(1, r + 1)]
    sizes = [p] * (m - 1) + [a - p * (m - 1)]
    found: list[Partition] = []
    for ends in combinations(range(1, r), m - 1):
        bounds = list(ends) + [r]
        nu = [0] * (r + 1)  # 1-based
        ok = True
        start = 1
        for size, end in zip(sizes, bounds):
            for i in range(start, end):
                nu[i + 1] = mu_pad[i - 1] + 1
            nu[start] = size + sum(mu_pad[start - 1 : end]) - sum(nu[start + 1 : end + 1])
            start = end + 1
        cand = nu[1:]
        if any(x < 1 for x in cand) or any(
            cand[i] < cand[i + 1] for i in range(len(cand) - 1)
        ):
            ok = False
        if ok:
            candidate = Partition._trusted(tuple(cand))
            if remove_p_rim(candidate, p) == (mu, a, r):
                found.append(candidate)
    uniq = sorted(set(found))
    if len(uniq) != 1:
        raise ReconstructionFailure(
            f"inverse p-rim attachment onto {mu} with (a, r)=({a}, {r}) at p={p} "
            f"found {len(uniq)} candidates {uniq}"
        )
    return uniq[0]


def _attach_outcome(attach, mu, a, r, p):
    try:
        return attach(mu, a, r, p)
    except ReconstructionFailure:
        return ReconstructionFailure


class TestAttachAgainstSearch:
    # the boundary DP must build the same partition as the exhaustive search,
    # and fail on exactly the same triples
    def test_every_triple_the_symbol_route_reaches(self, monkeypatch):
        triples = set()
        real = MULLINEUX_MODULE.attach_p_rim

        def record(mu, a, r, p):
            triples.add((mu, a, r, p))
            return real(mu, a, r, p)

        monkeypatch.setattr(MULLINEUX_MODULE, "attach_p_rim", record)
        for p in (3, 5, 7):
            for n in range(21):
                for lam in enumerate_partitions(n, p, regular_only=True):
                    mullineux_via_symbol(lam, p)
        monkeypatch.undo()
        assert len(triples) == 5212
        for mu, a, r, p in triples:
            assert attach_p_rim(mu, a, r, p) == _attach_by_search(mu, a, r, p), (mu, a, r, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_grid_of_valid_and_invalid_triples(self, p):
        attached = 0
        for n in range(9):
            for mu in enumerate_partitions(n, p):
                for r in range(11):
                    for a in range(3 * p + 4):
                        want = _attach_outcome(_attach_by_search, mu, a, r, p)
                        assert _attach_outcome(attach_p_rim, mu, a, r, p) == want, (mu, a, r)
                        attached += want is not ReconstructionFailure
        assert attached == {3: 1189, 5: 2322, 7: 3237}[p]  # 6,748 of 42,009


class TestInvolutionAndFriends:
    @pytest.mark.parametrize("p", [3, 5])
    def test_involution_sweep(self, p):
        for n in range(0, 11):
            for lam in enumerate_partitions(n, p, regular_only=True):
                img = mullineux_image(lam, p)
                assert img.size == n
                assert mullineux_image(img, p) == lam

    def test_conjugation_degeneration(self):
        # p exceeding |lam| turns the map into diagram transposition
        for n in range(0, 7):
            for lam in enumerate_partitions(n, 7, regular_only=True):
                assert mullineux_image(lam, 7) == conjugate(lam)

    @pytest.mark.parametrize("p", [3, 5])
    def test_routes_agree_sweep(self, p):
        for n in range(1, 11):
            for lam in enumerate_partitions(n, p, regular_only=True):
                assert mullineux_via_symbol(lam, p) == mullineux_image(lam, p)

    def test_residue_choice_irrelevant(self):
        for n in range(1, 10):
            for lam in enumerate_partitions(n, 5, regular_only=True):
                a = mullineux(lam, 5, residue_choice="smallest")
                b = mullineux(lam, 5, residue_choice="largest")
                assert a.image == b.image

    def test_f_compatibility(self):
        # the recursion is built on e-tilde; check the f-tilde side independently
        for n in range(0, 9):
            for lam in enumerate_partitions(n, 5, regular_only=True):
                img = mullineux_image(lam, 5)
                phi = classify_nodes(lam, 5).phi
                for i in range(5):
                    if phi[i]:
                        lifted = tilde_f(lam, i, 5)
                        assert mullineux_image(lifted, 5) == tilde_f(img, (5 - i) % 5, 5)

    def test_trace_is_reproducible(self):
        lam = parse_partition("10,2")
        first = mullineux(lam, 5)
        second = mullineux(lam, 5)
        assert first == second
        assert len(first.trace) == lam.size


class TestFixedAndCanonical:
    def test_fixed_examples(self):
        assert is_mullineux_fixed(parse_partition("4,1,1"), 3)
        assert is_mullineux_fixed(parse_partition("6,3,1,1"), 5)
        assert not is_mullineux_fixed(parse_partition("7"), 5)
        assert not is_mullineux_fixed(parse_partition("2,2,1,1"), 5)

    def test_canonical_label(self):
        # a label stores the lexicographically larger member of {lam, M(lam)}
        assert make_label(parse_partition("7"), 5).partition == parse_partition("7")
        assert make_label(parse_partition("2,2,2,1"), 5).partition == parse_partition("7")
        assert make_label(parse_partition("4,1,1"), 3, "+").partition == parse_partition("4,1,1")


def _distinct_odd_prime_to_p(n_max, p):
    """Coefficients of prod (1 + q^k) over odd k with p not dividing k, up to q^n_max."""
    coeff = [1] + [0] * n_max
    for k in range(1, n_max + 1, 2):
        if k % p:
            for m in range(n_max, k - 1, -1):
                coeff[m] += coeff[m - k]
    return coeff


class TestFixedPointCount:
    # Andrews-Olsson and Bessenrodt (1991) with Ford-Kleshchev (1997): the
    # Mullineux map fixes as many p-regular partitions of n as there are
    # partitions of n into distinct odd parts prime to p. The count comes from
    # outside the code, so it also guards the layer both routes share.
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_fixed_points_on_both_routes(self, p):
        want = _distinct_odd_prime_to_p(24, p)
        for n in range(25):
            regular = list(enumerate_partitions(n, p, regular_only=True))
            assert sum(is_mullineux_fixed(lam, p) for lam in regular) == want[n], n
            assert sum(mullineux_via_symbol(lam, p) == lam for lam in regular) == want[n], n

    def test_fixed_points_on_the_symbol_route_to_30(self):
        # the symbol route alone at p = 5, from where the test above stops to
        # n = 30; going on to n = 40 would take about 13 s
        want = _distinct_odd_prime_to_p(30, 5)
        for n in range(25, 31):
            regular = enumerate_partitions(n, 5, regular_only=True)
            assert sum(mullineux_via_symbol(lam, 5) == lam for lam in regular) == want[n], n


class TestContracts:
    def test_even_characteristic_rejected(self):
        with pytest.raises(OddPrimeRequired):
            mullineux_image(parse_partition("3,2"), 2)

    def test_singular_rejected(self):
        with pytest.raises(NotPRegular):
            mullineux_image(Partition((2, 2, 2)), 3)
        with pytest.raises(NotPRegular):
            mullineux_symbol(Partition((1, 1, 1, 1, 1)), 5)

    def test_bad_residue_choice(self):
        with pytest.raises(ValueError):
            mullineux(parse_partition("3,1"), 5, residue_choice="middle")

    def test_flipped_orientation_breaks_the_map(self):
        # under the wrong scan the recursion cannot even get started on (3) at p=3
        with pytest.raises(InternalInconsistency):
            mullineux(parse_partition("3"), 3, orientation=Orientation.TOP_DOWN)


class TestMemo:
    def test_trace_does_not_depend_on_memo_state(self, monkeypatch):
        regular = [lam for n in range(0, 13) for lam in enumerate_partitions(n, 5, regular_only=True)]
        choices = {"smallest": min, "largest": max}
        cold = {}
        for lam in regular:
            for choice in choices:
                monkeypatch.setattr(MULLINEUX_MODULE, "_MULL_LINKS", {})
                cold[lam, choice] = mullineux(lam, 5, residue_choice=choice)
        monkeypatch.setattr(MULLINEUX_MODULE, "_MULL_LINKS", {})
        assert run_check("L17", n_min=1, n_max=12, primes=(5,)).passed
        for lam in regular:
            for choice, pick in choices.items():
                warm = mullineux(lam, 5, residue_choice=choice)
                assert warm == cold[lam, choice]
                # each step removes the good node of the chosen normal residue
                cur = lam
                for i in warm.trace:
                    eps = classify_nodes(cur, 5).epsilon
                    assert i == pick(j for j in range(5) if eps[j])
                    cur = tilde_e(cur, i, 5)
                assert cur == EMPTY

    @pytest.mark.parametrize("choice", ["smallest", "largest"])
    def test_empty_partition_on_a_fresh_memo(self, monkeypatch, choice):
        # the memo's seed link M(empty) = empty is the only base case
        monkeypatch.setattr(MULLINEUX_MODULE, "_MULL_LINKS", {})
        assert mullineux_image(EMPTY, 5, residue_choice=choice) == EMPTY
        monkeypatch.setattr(MULLINEUX_MODULE, "_MULL_LINKS", {})
        assert mullineux(EMPTY, 5, residue_choice=choice) == MullineuxResult(image=EMPTY, trace=())
        assert mullineux_image(Partition((1,)), 5, residue_choice=choice) == Partition((1,))

    @pytest.mark.parametrize(
        "parts,p", [((200,), 3), ((200,), 5), ((200,), 7)] + [((200 - i, i), 5) for i in range(1, 5)]
    )
    def test_cold_chain_spends_one_frame_per_level(self, monkeypatch, parts, p):
        # a cold chain of n levels needs n frames plus a fixed few for the
        # entry and the operators at the bottom; one more frame per level, or
        # at the bottom, turns queries just under the recursion limit into
        # RecursionErrors
        links = {}
        monkeypatch.setattr(MULLINEUX_MODULE, "_MULL_LINKS", links)
        lam = Partition(parts)

        def cold():
            links.clear()
            _classify.cache_clear()
            return mullineux_image(lam, p)

        depth = deepest = 0

        def profile(frame, event, arg):
            nonlocal depth, deepest
            if event == "call":
                depth += 1
                deepest = max(deepest, depth)
            elif event == "return":
                depth -= 1

        sys.setprofile(profile)
        try:
            image = cold()
        finally:
            sys.setprofile(None)
        assert image == mullineux_via_symbol(lam, p)
        assert deepest <= 1 + lam.size + 4  # cold(), then n + 4 under mullineux_image
        # The limit also counts C calls, such as the signature cache's wrapper
        # on a miss, which the profile does not see: measure it against a
        # chain of as many plain calls.
        assert _least_recursion_limit(cold) - _least_recursion_limit(lambda: _calls(lam.size)) <= 5

    def test_links_outlive_the_call_that_stored_them(self):
        # a fresh interpreter, so nothing but the first call fills the memo:
        # from a cold start (1400) and (1398, 2) are deeper than the default
        # recursion limit, but their chains end on links that (500) and
        # (498, 2) left behind
        code = (
            "import json\n"
            "from modpart import Partition, mullineux_image\n"
            "print(json.dumps([list(mullineux_image(Partition(lam), 5)) for lam in\n"
            "    [(500,), (1400,), (498, 2), (1398, 2)]][1::2]))\n"
        )
        one_row, two_row = json.loads(_run_fresh(code))
        assert one_row == list(harness._one_row_closed(1400, 5))
        assert two_row == list(harness._two_row_closed(1400, 2))


def _calls(k):
    """A chain of k + 1 plain Python calls."""
    return _calls(k - 1) if k else None


def _least_recursion_limit(call):
    """The smallest recursion limit under which call() returns."""
    saved = sys.getrecursionlimit()
    lo, hi = 1, saved
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                sys.setrecursionlimit(mid)  # raises below the current depth
                call()
                hi = mid
            except RecursionError:
                lo = mid + 1
    finally:
        sys.setrecursionlimit(saved)
    return lo


def _run_fresh(code):
    """stdout of code run in a fresh interpreter on this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _one_row_closed(n, p):
    a, b = divmod(n, p - 1)
    return [x for x in [a + 1] * b + [a] * (p - 1 - b) if x > 0]


def _two_row_closed_at_5(n, i):
    """Image of (n - i, i) at p = 5 for n >= 12 and 1 <= i <= 4: the image of
    the row (n - i) with i rows of one node below it."""
    return _one_row_closed(n - i, 5) + [1] * i


class TestLargeN:
    @pytest.mark.parametrize("n", [900, 903, 980])
    def test_one_row_from_a_cold_start_on_both_routes(self, n):
        # a fresh interpreter, so the recursion descends all n levels on an
        # empty memo; each prime has its own memo. n = 980 pins the frame
        # budget: _mull spends one recursion-limit frame per level, so a cold
        # chain of 980 levels fits under the default limit of 1000
        code = (
            "import json\n"
            "from modpart import Partition, mullineux_image, mullineux_via_symbol\n"
            f"lam = Partition(({n},))\n"
            "print(json.dumps([[list(mullineux_image(lam, p)), list(mullineux_via_symbol(lam, p))]"
            " for p in (3, 5, 7)]))\n"
        )
        for p, (recursion, symbol) in zip((3, 5, 7), json.loads(_run_fresh(code))):
            assert recursion == symbol == _one_row_closed(n, p)

    @pytest.mark.parametrize("n", [3000, 5000])
    def test_closed_forms_on_the_symbol_route(self, n):
        # the symbol route is not recursive, so it runs in process at any n
        for p in (3, 5, 7):
            assert list(mullineux_via_symbol(Partition((n,)), p)) == _one_row_closed(n, p), p
        for i in range(1, 5):
            assert list(mullineux_via_symbol(Partition((n - i, i)), 5)) == _two_row_closed_at_5(n, i), i
