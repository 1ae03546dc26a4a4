"""Acceptance gate: thirteen criteria, one printed verdict line each.

Each test prints "ACn: PASS - detail" or "ACn: FAIL - detail" straight to the
real stdout (bypassing capture so the lines always appear in the pytest
transcript), then asserts. Bounds are the published defaults; two criteria
run on a corrected lower bound whose necessity is demonstrated in-test by an
explicit boundary counterexample (see AC3 and AC10).
"""

import sys
import time

import conftest

from modpart import (
    LabelKind,
    Partition,
    Verdict,
    calibration_report,
    classify_tensor,
    enumerate_js,
    enumerate_partitions,
    is_dimension_one,
    is_js_arith,
    is_mullineux_fixed,
    is_p_regular,
    make_label,
    mullineux_image,
    run_check,
)
from modpart.errors import ModpartError


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.AC_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _one_row_closed(n: int, p: int) -> Partition:
    a, b = divmod(n, p - 1)
    return Partition([x for x in [a + 1] * b + [a] * (p - 1 - b) if x > 0])


def _two_row_closed(n: int, i: int) -> Partition:
    a, b = divmod(n - i, 4)
    return Partition([x for x in [a + 1] * b + [a] * (4 - b) if x > 0] + [1] * i)


def test_ac01_mullineux_triple_agreement():
    start = time.perf_counter()
    rep = run_check("MULLX")
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.n_max == 18 and rep.primes == (3, 5, 7) and elapsed < 60
    _report(
        "AC1",
        ok,
        f"recursion = symbol oracle (and conjugation for p > n) on {rep.instances} "
        f"partitions, n <= 18, p in {{3,5,7}}; {rep.counterexamples_total} disagreements; "
        f"{elapsed:.1f}s",
    )


def test_ac02_involution_and_size():
    failures = 0
    count = 0
    for p in (3, 5, 7):
        for n in range(0, 19):
            for lam in enumerate_partitions(n, p, regular_only=True):
                count += 1
                img = mullineux_image(lam, p)
                if img.size != n or mullineux_image(img, p) != lam:
                    failures += 1
    _report("AC2", failures == 0, f"(lam^M)^M = lam and |lam^M| = |lam| on {count} partitions; {failures} failures")


def test_ac03_closed_forms():
    bad = []
    one_row = 0
    for p in (3, 5, 7):
        for n in range(1, 31):
            one_row += 1
            if mullineux_image(Partition((n,)), p) != _one_row_closed(n, p):
                bad.append(("one-row", n, p))
    two_row = 0
    for i in range(1, 5):
        for n in range(max(2 * i, 12), 31):
            two_row += 1
            if mullineux_image(Partition((n - i, i)), 5) != _two_row_closed(n, i):
                bad.append(("two-row", n, i))
    # The two-row form cannot extend below n = 12: already at n = 4 the map
    # degenerates to conjugation (p = 5 > 4), so (2,2)^M = (2,2), while the
    # formula would demand (1,1,1,1). The sweep therefore starts at 12.
    boundary = mullineux_image(Partition((2, 2)), 5)
    ok = not bad and boundary == Partition((2, 2)) and _two_row_closed(4, 2) == Partition((1, 1, 1, 1))
    _report(
        "AC3",
        ok,
        f"one-row form exact on {one_row} vectors (n <= 30, p in {{3,5,7}}); two-row form "
        f"exact on {two_row} vectors (p = 5, 1 <= i <= 4, 12 <= n <= 30; below 12 the "
        f"conjugation degeneration contradicts the formula, e.g. (2,2)); {len(bad)} mismatches",
    )


def test_ac04_normal_conormal_balance():
    rep = run_check("L52")
    _report(
        "AC4",
        rep.passed and rep.n_max == 18,
        f"phi-total = eps-total + 1 on {rep.instances} partitions incl. p-singular, "
        f"n <= 18, p in {{3,5,7}}; {rep.counterexamples_total} counterexamples",
    )


def test_ac05_mullineux_negates_residues():
    rep = run_check("L17")
    _report(
        "AC5",
        rep.passed and rep.n_max == 16 and rep.primes == (3, 5),
        f"eps/phi negation and e-tilde intertwining on {rep.instances} partitions, "
        f"n <= 16, p in {{3,5}}; {rep.counterexamples_total} counterexamples",
    )


def test_ac06_f_undoes_e():
    rep = run_check("L47")
    _report(
        "AC6",
        rep.passed and rep.n_max == 14 and rep.primes == (5,),
        f"f_i(e_i(lam)) = lam with eps/phi bookkeeping on {rep.instances} operator "
        f"applications, n <= 14, p = 5; {rep.counterexamples_total} counterexamples",
    )


def test_ac07_js_equivalence():
    rep = run_check("JSEQ")
    _report(
        "AC7",
        rep.passed and rep.n_max == 20,
        f"signature JS test == arithmetic JS test on {rep.instances} partitions, "
        f"n <= 20, p in {{3,5,7}}; {rep.counterexamples_total} counterexamples",
    )


def test_ac08_fixed_js_height_congruence():
    rep = run_check("L23")
    _report(
        "AC8",
        rep.passed and rep.n_max == 30,
        f"n == h^2 (mod p), and h >= 4 at p = 5 for n >= 5, on {rep.instances} "
        f"self-Mullineux JS partitions, n <= 30, p in {{3,5,7}}; "
        f"{rep.counterexamples_total} counterexamples",
    )


def test_ac09_fixed_js_layer_structure():
    rep = run_check("L29")
    dist = (rep.details or {}).get("i_distribution", {})
    _report(
        "AC9",
        rep.passed and rep.n_max == 30,
        f"residue-0 normal node, layer supports and commutation on {rep.instances} "
        f"self-Mullineux JS partitions, p = 5, 5 <= n <= 30; observed i-distribution "
        f"{dist}; {rep.counterexamples_total} counterexamples",
    )


def test_ac10_two_normal_children_not_js():
    rep = run_check("L18")
    # n = 3 must stay excluded: (2,1) at p = 5 is its own image with two normal
    # nodes in distinct residues, yet both children (2) and (1,1) are JS.
    lam = Partition((2, 1))
    children = [Partition((2,)), Partition((1, 1))]
    boundary = (
        is_mullineux_fixed(lam, 5)
        and all(is_js_arith(c, 5) for c in children)
    )
    _report(
        "AC10",
        rep.passed and rep.n_min == 4 and rep.n_max == 16 and boundary,
        f"both e-tilde children non-JS on {rep.instances} qualifying partitions, "
        f"4 <= n <= 16, p in {{3,5,7}} (n = 3 excluded: (2,1) at p = 5 is a genuine "
        f"boundary counterexample); {rep.counterexamples_total} counterexamples",
    )


def test_ac11_eps_statistic_bounds():
    rep = run_check("L20A")
    _report(
        "AC11",
        rep.passed and rep.n_max == 16,
        f"sum eps_i(eps_i - 3 + m) >= 2 (>= 3 if self-Mullineux) on {rep.instances} "
        f"partitions with eps-total >= 3, n <= 16, p = 5; "
        f"{rep.counterexamples_total} counterexamples",
    )


def _valid_labels(n: int) -> list:
    labels = []
    seen = set()
    for lam in enumerate_partitions(n, 5, regular_only=True):
        if not lam:
            continue
        if is_mullineux_fixed(lam, 5):
            labels.append(make_label(lam, 5, "+"))
            labels.append(make_label(lam, 5, "-"))
        else:
            can = max(lam, mullineux_image(lam, 5))
            if can not in seen:
                seen.add(can)
                labels.append(make_label(lam, 5))
    return [lab for lab in labels if not is_dimension_one(lab)]


def _predicted_irreducible(a, b) -> bool:
    """Theorem predicate, recomputed from scratch for the acceptance gate."""
    if a.kind is b.kind:
        return False
    split, nonsplit = (a, b) if a.kind is LabelKind.SPLIT else (b, a)
    return (
        a.n % 5 != 0
        and is_js_arith(split.partition, 5)
        and Partition((a.n - 1, 1)) in nonsplit.pair
    )


def test_ac12_classification_totality():
    start = time.perf_counter()
    mismatches = []
    pairs = 0
    irreducible = 0
    for n in range(1, 15):
        labels = _valid_labels(n)
        for i, a in enumerate(labels):
            for b in labels[i:]:
                pairs += 1
                try:
                    out = classify_tensor(a, b)
                    swapped = classify_tensor(b, a)
                except ModpartError as e:
                    mismatches.append((n, str(a), str(b), f"raised {type(e).__name__}"))
                    continue
                problems = []
                if out != swapped:
                    problems.append("asymmetric")
                got = out.verdict is Verdict.IRREDUCIBLE
                if got != _predicted_irreducible(a, b):
                    problems.append(f"verdict {out.to_json_dict()}")
                if got and not problems:
                    nu = out.nu
                    if nu.size != n or not is_p_regular(nu, 5) or is_mullineux_fixed(nu, 5):
                        problems.append(f"ill-formed nu {nu}")
                    irreducible += 1
                if problems:
                    mismatches.append((n, str(a), str(b), "; ".join(problems)))
    elapsed = time.perf_counter() - start
    # the derived witness: the least n with an irreducible product, and its labels
    witness_ok = True
    fixed_js_11 = [str(x) for x in enumerate_js(11, 5, fixed_only=True)]
    if fixed_js_11 != ["6,3,1,1"]:
        witness_ok = False
    else:
        out = classify_tensor(
            make_label(Partition((6, 3, 1, 1)), 5, "+"), make_label(Partition((10, 1)), 5)
        )
        witness_ok = out.verdict is Verdict.IRREDUCIBLE and out.nu == Partition((5, 3, 1, 1, 1))
    ok = not mismatches and witness_ok and elapsed < 300
    _report(
        "AC12",
        ok,
        f"total, symmetric, predicate-exact on {pairs} label pairs (n <= 14, p = 5), "
        f"{irreducible} irreducible products, witness split(6,3,1,1,+) x nonsplit(10,1) "
        f"-> nu = 5,3,1,1,1 at n = 11; {len(mismatches)} mismatches; {elapsed:.1f}s",
    )


def test_ac13_calibration_uniqueness():
    rep = calibration_report(n_max=12)
    down = rep["orientations"]["top-down"]
    up = rep["orientations"]["bottom-up"]
    ok = (
        rep["unique"] is True
        and rep["passing"] == ["bottom-up"]
        and up["MULLX"]["pass"]
        and up["CLOSED"]["pass"]
        and down["CLOSED"]["counterexamples_total"] > 0
    )
    first = down["CLOSED"]["first_counterexample"]
    _report(
        "AC13",
        ok,
        f"exactly one scan orientation passes the Mullineux cross-checks on n <= 12 "
        f"(bottom-up); the flipped scan fails {down['CLOSED']['counterexamples_total']} "
        f"closed-form vectors, first at {first['partition']} p={first['p']}",
    )
