"""Exhaustive verification sweeps over bounded ranges of n and p.

Every check has a stable id, a default sweep (n range and primes), and a pure
check function per (n, p) cell; run_check turns each cell into a LemmaReport
and folds the cells through merge_reports, the same fold that recombines
shards, and run_all runs the whole registry in canonical order. The two
Mullineux cross-validation checks (MULLX, CLOSED) act as a calibration gate:
they are the checks that distinguish the two signature-scan orientations, so
run_all executes them first and aborts the suite if either fails, since every
later check would be meaningless under a miscalibrated scan.

Reports serialize to JSON lines with a fixed field order, so two runs of the
same configuration are byte-identical except for the elapsed field. Sweeps
may be sharded by n and merged (merge_reports); iteration order inside a
check is deterministic (n ascending, primes ascending, partitions in
descending lex), and a sweep is itself the merge of its cells, so a sharded
run reproduces the unsharded report apart from elapsed.

Each run owns one signature cache under one scan (_new_classifier): run_all,
a lone run_check and calibration_report build a calibrated one, `modpart
report` shares one between the calibration and run_all, and only
calibration_report builds a flipped one. _sweep passes the run to every cell
function, which reads classifications through it and calls the private
operator cores under its scan; MULLX and CLOSED reach the Mullineux recursion
through its private core with the same run, so the later checks read what
the recursion classified. The cache goes when the call returns, so no
classification outlives its run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

from .branching import (
    CALIBRATED_ORIENTATION,
    Classifier,
    Orientation,
    _classify,
    _node_counts,
    _tilde_e,
    _tilde_f,
    is_js,
    removable_nodes,
)
from .errors import ArgumentError, ModpartError, SweepTooLarge
from .js import enumerate_js, is_js_arith
from .labels import (
    ReasonCode,
    Verdict,
    classify_tensor,
    make_label,
    nu_of,
)
from .mullineux import (
    _mullineux_image,
    is_mullineux_fixed,
    mullineux_image,
    mullineux_via_symbol,
)
from .partitions import (
    Partition,
    _check_int,
    _check_non_negative,
    conjugate,
    enumerate_partitions,
    is_p_regular,
    residue,
    validate_prime,
)

DEFAULT_CAP = 25
DEFAULT_CEILING = 40

CheckFn = Callable[[int, int, Classifier], tuple[int, list[dict], dict | None]]


def _new_classifier(orientation: Orientation = CALIBRATED_ORIENTATION) -> Classifier:
    """One run's signature cache: _classify under one scan, behind an LRU bound.

    The bound holds the whole working set of `modpart report` (3,494
    classifications and 11,553 hits in the calibrated cache that the
    calibration hands on to run_all, 621 and 1,970 in the flipped one) and of
    MULLX at n = 30, p = 5 (11,669 and 5,224), so nothing there is evicted;
    at the sweep ceiling it keeps the cache from filling memory.
    """
    return Classifier(lru_cache(maxsize=16384)(partial(_classify, orientation=orientation)), orientation)


def _cx(p: int, n: int, lam: Partition | str, observed, expected) -> dict:
    return {
        "p": p,
        "n": n,
        "partition": str(lam),
        "observed": observed,
        "expected": expected,
    }


# --- check functions: fn(n, p, run) -> (instances, counterexamples, details)
# run is the run's Classifier: run.classify(lam, p) reads its signature cache,
# under the scan run.orientation.


def _check_l52(n: int, p: int, run: Classifier):
    """Every partition has one more conormal node than normal nodes."""
    inst, cxs = 0, []
    for lam in enumerate_partitions(n, p):
        inst += 1
        # the counts core: lam comes from the enumeration and p is checked
        eps, phi = _node_counts(lam, p)
        se, sp = sum(eps), sum(phi)
        if sp != se + 1:
            cxs.append(_cx(p, n, lam, f"eps_total={se}, phi_total={sp}", "phi_total == eps_total + 1"))
    return inst, cxs, None


def _check_l47(n: int, p: int, run: Classifier):
    """tilde_f_i inverts tilde_e_i, with eps_i down one and phi_i up one."""
    inst, cxs = 0, []
    for lam in enumerate_partitions(n, p, regular_only=True):
        nc = run.classify(lam, p)
        for i in range(p):
            if nc.epsilon[i] == 0:
                continue
            inst += 1
            child = _tilde_e(nc, i)
            ncc = run.classify(child, p)
            back = _tilde_f(child, i, p, run.orientation)
            if back != lam or ncc.epsilon[i] != nc.epsilon[i] - 1 or ncc.phi[i] != nc.phi[i] + 1:
                cxs.append(
                    _cx(
                        p, n, lam,
                        f"i={i}, f(e(lam))={back}, eps: {nc.epsilon[i]}->{ncc.epsilon[i]}, "
                        f"phi: {nc.phi[i]}->{ncc.phi[i]}",
                        "f(e(lam))=lam, eps down 1, phi up 1",
                    )
                )
    return inst, cxs, None


def _check_l12(n: int, p: int, run: Classifier):
    """Removing a j-node: normal i-nodes persist, conormal i-nodes pull back (i != j)."""
    inst, cxs = 0, []
    for beta in enumerate_partitions(n, p):
        ncb = run.classify(beta, p)
        for node in removable_nodes(beta):
            inst += 1
            alpha = beta.remove(node)
            j = residue(node, p)
            nca = run.classify(alpha, p)
            for i in range(p):
                if i == j:
                    continue
                # An empty list is a subset of anything, so it needs no set.
                if (ncb.normal[i] and not set(ncb.normal[i]) <= set(nca.normal[i])) or (
                    nca.conormal[i] and not set(nca.conormal[i]) <= set(ncb.conormal[i])
                ):
                    cxs.append(
                        _cx(
                            p, n, beta,
                            f"removed {node} (residue {j}); residue {i}: "
                            f"normal {ncb.normal[i]}->{nca.normal[i]}, "
                            f"conormal {nca.conormal[i]} vs {ncb.conormal[i]}",
                            "normal_i(beta) within normal_i(alpha); conormal_i(alpha) within conormal_i(beta)",
                        )
                    )
                    break
    return inst, cxs, None


def _check_l17(n: int, p: int, run: Classifier):
    """eps/phi negate under the Mullineux map, which intertwines tilde_e_i and tilde_e_{-i}."""
    inst, cxs = 0, []
    for lam in enumerate_partitions(n, p, regular_only=True):
        inst += 1
        try:
            img = mullineux_image(lam, p)
            nc, nci = run.classify(lam, p), run.classify(img, p)
            bad = None
            for i in range(p):
                k = (p - i) % p
                if nc.epsilon[i] != nci.epsilon[k] or nc.phi[i] != nci.phi[k]:
                    bad = (
                        f"residue {i}: eps/phi=({nc.epsilon[i]},{nc.phi[i]}) on lam but "
                        f"({nci.epsilon[k]},{nci.phi[k]}) at residue {k} on M(lam)={img}"
                    )
                    break
            if bad is None:
                for i in range(p):
                    if nc.epsilon[i] == 0:
                        continue
                    lhs = mullineux_image(_tilde_e(nc, i), p)
                    rhs = _tilde_e(nci, (p - i) % p)
                    if lhs != rhs:
                        bad = f"M(e_{i}(lam))={lhs} but e_{(p - i) % p}(M(lam))={rhs}"
                        break
            if bad:
                cxs.append(_cx(p, n, lam, bad, "eps_i(lam)=eps_{-i}(M lam), phi likewise, M e_i = e_{-i} M"))
        except ModpartError as e:
            cxs.append(_cx(p, n, lam, f"{type(e).__name__}: {e}", "no exception"))
    return inst, cxs, None


def _check_l23(n: int, p: int, run: Classifier):
    """Self-Mullineux JS partitions: n == h^2 (mod p); at p=5 and n>=5 also h>=4.

    Visits only the partitions enumerate_js generates from the arithmetic
    congruence, so the cost follows the number of JS partitions, and re-checks
    each with the signature test is_js: a generated partition that is not JS
    by its normal nodes is a counterexample.
    """
    inst, cxs = 0, []
    for lam in enumerate_js(n, p):
        if not is_js(lam, p):
            cxs.append(_cx(p, n, lam, "arithmetic JS, signature not JS", "exactly one normal node"))
            continue
        if not is_mullineux_fixed(lam, p):
            continue
        inst += 1
        h = lam.height
        if (n - h * h) % p != 0:
            cxs.append(_cx(p, n, lam, f"n={n}, h={h}, n-h^2={n - h * h}", "n == h^2 (mod p)"))
        elif p == 5 and n >= 5 and h < 4:
            cxs.append(_cx(p, n, lam, f"h={h}", "h >= 4 for p=5, n>=5"))
    return inst, cxs, None


def _check_l29(n: int, p: int, run: Classifier):
    """Layer structure under e-tilde for self-Mullineux JS partitions at p=5."""
    if p != 5:
        return 0, [], None
    inst, cxs = 0, []
    dist = {"1": 0, "4": 0}
    for lam in enumerate_js(n, 5, fixed_only=True):
        inst += 1
        nc = run.classify(lam, 5)
        if sum(nc.epsilon) != 1 or nc.epsilon[0] != 1:
            cxs.append(_cx(5, n, lam, f"eps={nc.epsilon}", "exactly one normal node, residue 0"))
            continue
        ncmu = run.classify(_tilde_e(nc, 0), 5)
        eps_mu = ncmu.epsilon
        if tuple(eps_mu) != (0, 1, 0, 0, 1):
            cxs.append(_cx(5, n, lam, f"eps(e_0 lam)={eps_mu}", "support {1,4}, both 1"))
            continue
        ncxi = {i: run.classify(_tilde_e(ncmu, i), 5) for i in (1, 4)}
        eps_xi = {i: ncxi[i].epsilon for i in (1, 4)}
        good = []
        for i in (1, 4):
            want = {(5 - i) % 5, (2 * i) % 5}
            if all(eps_xi[i][j] == (1 if j in want else 0) for j in range(5)):
                good.append(i)
        if not good:
            cxs.append(
                _cx(
                    5, n, lam,
                    f"eps(e_1 e_0 lam)={eps_xi[1]}, eps(e_4 e_0 lam)={eps_xi[4]}",
                    "for some i in {1,4}: support {-i, 2i}, both 1",
                )
            )
            continue
        for i in good:
            dist[str(i)] += 1
        a = _tilde_e(ncxi[1], 4)
        b = _tilde_e(ncxi[4], 1)
        if a is None or b is None or a != b:
            cxs.append(_cx(5, n, lam, f"e_4 e_1(mu)={a}, e_1 e_4(mu)={b}", "equal and defined"))
    return inst, cxs, {"i_distribution": dist}


def _check_l18(n: int, p: int, run: Classifier):
    """Self-Mullineux, two normal nodes in distinct residues: both children non-JS (n >= 4)."""
    if n < 4:
        return 0, [], None
    inst, cxs = 0, []
    for lam in enumerate_partitions(n, p, regular_only=True):
        nc = run.classify(lam, p)
        eps = nc.epsilon
        if sum(eps) != 2 or sum(1 for e in eps if e) != 2:
            continue
        if not is_mullineux_fixed(lam, p):
            continue
        inst += 1
        for i in range(p):
            if eps[i] == 0:
                continue
            child = _tilde_e(nc, i)
            if is_js(child, p):
                cxs.append(_cx(p, n, lam, f"e_{i}(lam)={child} is JS", "both children non-JS"))
    return inst, cxs, None


def _check_l20a(n: int, p: int, run: Classifier):
    """S = sum_i eps_i(eps_i - 3 + m) is >= 2 when eps-total >= 3, >= 3 if self-Mullineux."""
    if p != 5:
        return 0, [], None
    inst, cxs = 0, []
    for lam in enumerate_partitions(n, 5, regular_only=True):
        eps = run.classify(lam, 5).epsilon
        if sum(eps) < 3:
            continue
        inst += 1
        m = sum(1 for e in eps if e)
        s = sum(e * (e - 3 + m) for e in eps)
        bound = 3 if is_mullineux_fixed(lam, 5) else 2
        if s < bound:
            cxs.append(_cx(5, n, lam, f"S={s}, m={m}, eps={eps}", f"S >= {bound}"))
    return inst, cxs, None


def _check_jseq(n: int, p: int, run: Classifier):
    """The signature JS test and the arithmetic JS test agree."""
    inst, cxs = 0, []
    for lam in enumerate_partitions(n, p, regular_only=True):
        if not lam:
            continue
        inst += 1
        sig, arith = is_js(lam, p), is_js_arith(lam, p)
        if sig != arith:
            cxs.append(_cx(p, n, lam, f"signature={sig}, arithmetic={arith}", "equal"))
    return inst, cxs, None


def _check_mullx(n: int, p: int, run: Classifier):
    """Recursion route == symbol route; involution; conjugation for p > n; choice-free."""
    inst, cxs = 0, []
    for lam in enumerate_partitions(n, p, regular_only=True):
        inst += 1
        try:
            img = _mullineux_image(lam, p, run)
            problems = []
            sym = mullineux_via_symbol(lam, p)
            if img != sym:
                problems.append(f"recursion {img} != symbol {sym}")
            if img.size != n:
                problems.append(f"|M(lam)|={img.size}")
            if not is_p_regular(img, p):
                problems.append(f"M(lam)={img} is p-singular")
            back = _mullineux_image(img, p, run)
            if back != lam:
                problems.append(f"M(M(lam))={back}")
            if p > n and img != conjugate(lam):
                problems.append(f"p>n but M(lam)={img} != conjugate {conjugate(lam)}")
            if _mullineux_image(lam, p, run, "largest") != img:
                problems.append("depends on the residue choice")
            if problems:
                cxs.append(_cx(p, n, lam, "; ".join(problems), "all Mullineux cross-checks"))
        except ModpartError as e:
            cxs.append(_cx(p, n, lam, f"{type(e).__name__}: {e}", "no exception"))
    return inst, cxs, None


def _one_row_closed(n: int, p: int) -> Partition:
    a, b = divmod(n, p - 1)
    return Partition([x for x in [a + 1] * b + [a] * (p - 1 - b) if x > 0])


def _two_row_closed(n: int, i: int) -> Partition:
    return Partition(_one_row_closed(n - i, 5) + (1,) * i)


def _check_closed(n: int, p: int, run: Classifier):
    """Mullineux images of (n) and, at p=5 for n>=12, of (n-i,i) match closed forms."""
    cases = [(Partition((n,)), _one_row_closed(n, p))] if n >= 1 else []
    if p == 5 and n >= 12:
        cases += [(Partition((n - i, i)), _two_row_closed(n, i)) for i in range(1, 5)]
    cxs = []
    for lam, want in cases:
        try:
            img = _mullineux_image(lam, p, run)
            if img != want:
                cxs.append(_cx(p, n, lam, str(img), str(want)))
        except ModpartError as e:
            cxs.append(_cx(p, n, lam, f"{type(e).__name__}: {e}", str(want)))
    return len(cases), cxs, None


def _check_nuwf(n: int, p: int, run: Classifier):
    """Natural-family classification: verdicts match the predicate, nu well-formed."""
    if p != 5 or n < 5:
        return 0, [], None
    inst, cxs = 0, []
    natural = Partition((n - 1, 1))
    if is_mullineux_fixed(natural, 5):
        return 0, [], None  # no nonsplit natural label at this n
    for lam in enumerate_js(n, 5, fixed_only=True):
        inst += 1
        try:
            d1 = make_label(lam, 5, sign=1)
            d2 = make_label(natural, 5)
            out = classify_tensor(d1, d2)
            problems = []
            if classify_tensor(d2, d1) != out:
                problems.append("verdict changes when the factors swap")
            if n % 5 == 0:
                if out.verdict is not Verdict.NOT_IRREDUCIBLE or out.reason is not ReasonCode.N_DIVISIBLE_BY_P:
                    problems.append(f"got {out.to_json_dict()}, wanted NDivisibleByP")
            elif out.verdict is not Verdict.IRREDUCIBLE:
                problems.append(f"got {out.to_json_dict()}, wanted Irreducible")
            else:
                nu = out.nu
                if nu != nu_of(lam):
                    problems.append(f"nu={nu} != formula {nu_of(lam)}")
                if nu.size != n:
                    problems.append(f"|nu|={nu.size}")
                if not is_p_regular(nu, 5):
                    problems.append(f"nu={nu} is 5-singular")
                if is_mullineux_fixed(nu, 5):
                    problems.append(f"nu={nu} is its own Mullineux image")
            if problems:
                cxs.append(_cx(5, n, lam, "; ".join(problems), "predicate verdict and well-formed nu"))
        except ModpartError as e:
            cxs.append(_cx(5, n, lam, f"{type(e).__name__}: {e}", "no exception"))
    return inst, cxs, None


# --- registry and runners ---------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    id: str
    statement: str
    n_min: int
    n_max: int
    primes: tuple[int, ...]
    fn: CheckFn


_CHECK_LIST = [
    CheckDef("MULLX", "recursion, rim symbol and conjugation (p>n) agree; involution, size, regularity, residue-choice independence", 0, 18, (3, 5, 7), _check_mullx),
    CheckDef("CLOSED", "closed forms of the Mullineux image: one-row all p, two-row at p=5 for n>=12", 1, 30, (3, 5, 7), _check_closed),
    CheckDef("L52", "every partition has one more conormal node than normal nodes", 0, 18, (3, 5, 7), _check_l52),
    CheckDef("L47", "tilde_f_i undoes tilde_e_i; eps_i drops by one, phi_i grows by one", 1, 14, (5,), _check_l47),
    CheckDef("L12", "removing a j-node keeps normal i-nodes normal and pulls conormal i-nodes back, i != j", 1, 12, (3, 5, 7), _check_l12),
    CheckDef("L17", "eps/phi negate under Mullineux; M intertwines tilde_e_i with tilde_e_{-i}", 1, 16, (3, 5), _check_l17),
    CheckDef("JSEQ", "signature JS test == arithmetic JS test", 1, 20, (3, 5, 7), _check_jseq),
    CheckDef("L23", "self-Mullineux JS: n == h^2 (mod p); at p=5, n>=5 forces h>=4", 1, 30, (3, 5, 7), _check_l23),
    CheckDef("L29", "self-Mullineux JS at p=5: normal residue 0, layer supports {1,4} then {-i,2i}, commutation", 5, 30, (5,), _check_l29),
    CheckDef("L18", "self-Mullineux with two normal nodes in distinct residues: both children non-JS (n>=4)", 4, 16, (3, 5, 7), _check_l18),
    CheckDef("L20A", "sum_i eps_i(eps_i-3+m) >= 2 when eps-total >= 3; >= 3 when self-Mullineux (p=5)", 1, 16, (5,), _check_l20a),
    CheckDef("NUWF", "natural-family verdicts match the predicate; every Irreducible nu is well-formed", 5, 30, (5,), _check_nuwf),
]

CHECKS = {c.id: c for c in _CHECK_LIST}
CHECK_ORDER = tuple(c.id for c in _CHECK_LIST)


@dataclass
class LemmaReport:
    id: str
    n_min: int
    n_max: int
    primes: tuple[int, ...]
    instances: int
    counterexamples: list[dict]
    counterexamples_total: int
    elapsed: float
    details: dict | None = None

    @property
    def passed(self) -> bool:
        return self.counterexamples_total == 0

    def to_json_dict(self) -> dict:
        out = {
            "id": self.id,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "primes": list(self.primes),
            "instances": self.instances,
            "counterexamples": self.counterexamples,
            "counterexamples_total": self.counterexamples_total,
            "pass": self.passed,
            "elapsed": self.elapsed,
        }
        if self.details is not None:
            out["details"] = self.details
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _sweep(
    check_id: str, fn: CheckFn, lo: int, hi: int, primes: tuple[int, ...], cap: int, run: Classifier
) -> LemmaReport:
    """Fold fn's cells n in [lo, hi], p in primes through merge_reports; every
    cell classifies through run.

    The leading empty report carries the sweep's bounds and primes, so an
    empty sweep reports them too.
    """
    start = time.perf_counter()
    cells = [LemmaReport(check_id, lo, hi, primes, 0, [], 0, 0.0)]
    for n in range(lo, hi + 1):
        for p in primes:
            inst, bad, det = fn(n, p, run)
            cells.append(LemmaReport(check_id, n, n, (p,), inst, bad[:cap], len(bad), 0.0, det))
    report = merge_reports(cells, cap)
    report.elapsed = round(time.perf_counter() - start, 3)
    return report


def run_check(
    check_id: str,
    *,
    n_min: int | None = None,
    n_max: int | None = None,
    primes: tuple[int, ...] | None = None,
    cap: int = DEFAULT_CAP,
    _classifier: Classifier | None = None,
) -> LemmaReport:
    """Run one check over its sweep (defaults from the registry).

    Bounds are validated against DEFAULT_CEILING; unknown ids and bad sweeps
    are configuration errors. An empty n range passes vacuously with 0
    instances; an explicitly empty primes would sweep nothing and is rejected.
    The check classifies through a signature cache of its own, dropped when
    it returns; run_all passes its run's cache as _classifier instead.
    """
    if not isinstance(check_id, str):
        raise ArgumentError(f"check id must be a string, got {check_id!r}")
    if check_id not in CHECKS:
        raise ArgumentError(f"unknown check id {check_id!r}; known ids: {', '.join(CHECK_ORDER)}")
    if primes is not None and not isinstance(primes, (tuple, list)):
        raise ArgumentError(f"primes must be a tuple of odd primes, got {primes!r}")
    if primes is not None and not primes:
        raise ArgumentError("empty primes; omit primes to sweep the check's default primes")
    check = CHECKS[check_id]
    lo = check.n_min if n_min is None else n_min
    hi = check.n_max if n_max is None else n_max
    ps = check.primes if primes is None else tuple(sorted({validate_prime(p) for p in primes}))
    _check_non_negative(lo, "n_min")
    _check_non_negative(hi, "n_max")
    if hi > DEFAULT_CEILING:
        raise SweepTooLarge(f"n_max={hi} exceeds the sweep ceiling {DEFAULT_CEILING}")
    _check_non_negative(cap, "counterexample cap")
    return _sweep(check_id, check.fn, lo, hi, ps, cap, _classifier or _new_classifier())


def run_all(
    *,
    max_n: int | None = None,
    checks: tuple[str, ...] | None = None,
    cap: int = DEFAULT_CAP,
    _classifier: Classifier | None = None,
) -> list[LemmaReport]:
    """Run the registry in canonical order; returns one report per check run.

    max_n caps every sweep at min(default, max_n). If a calibration-gate
    check (MULLX, CLOSED) fails, the remaining checks are skipped and the
    reports so far are returned. A negative max_n or an empty checks
    selection would run nothing and is rejected.

    The checks share one signature cache, dropped when the run returns, so a
    later check reads what MULLX, CLOSED and the checks before it
    classified; `modpart report` passes the calibration's cache as
    _classifier.
    """
    if max_n is not None:
        _check_non_negative(max_n, "max_n")
    if checks is not None and not (isinstance(checks, (tuple, list)) and all(isinstance(c, str) for c in checks)):
        raise ArgumentError(f"checks must be a tuple of check ids, got {checks!r}")
    if checks is not None and not checks:
        raise ArgumentError("empty check selection; omit checks to run them all")
    wanted = set(CHECK_ORDER if checks is None else checks)
    unknown = wanted - set(CHECK_ORDER)
    if unknown:
        raise ArgumentError(f"unknown check ids: {sorted(unknown)}")
    run = _classifier or _new_classifier()
    reports = []
    for cid in CHECK_ORDER:
        if cid not in wanted:
            continue
        hi = CHECKS[cid].n_max if max_n is None else min(CHECKS[cid].n_max, max_n)
        rep = run_check(cid, n_max=hi, cap=cap, _classifier=run)
        reports.append(rep)
        if cid in ("MULLX", "CLOSED") and not rep.passed:
            break
    return reports


def merge_reports(reports: list[LemmaReport], cap: int = DEFAULT_CAP) -> LemmaReport:
    """Merge reports of one check (its (n, p) cells, or shards by n) into one.

    This is the fold every sweep ends in. Counterexamples concatenate in
    input order, so feeding shards in ascending sweep order reproduces the
    unsharded report. Details are counters (name -> key -> count), summed
    key by key in first-seen order.
    """
    _check_non_negative(cap, "counterexample cap")
    if not (isinstance(reports, (tuple, list)) and all(isinstance(r, LemmaReport) for r in reports)):
        raise ArgumentError(f"reports must be a list of LemmaReport, got {reports!r}")
    if not reports:
        raise ArgumentError("nothing to merge")
    ids = {r.id for r in reports}
    if len(ids) != 1:
        raise ArgumentError(f"cannot merge reports of different checks: {sorted(ids)}")
    tallies = [r.details for r in reports if r.details is not None]
    details = {} if tallies else None
    for tally in tallies:
        for name, counts in tally.items():
            merged = details.setdefault(name, {})
            for key, count in counts.items():
                merged[key] = merged.get(key, 0) + count
    return LemmaReport(
        id=reports[0].id,
        n_min=min(r.n_min for r in reports),
        n_max=max(r.n_max for r in reports),
        primes=tuple(sorted({p for r in reports for p in r.primes})),
        instances=sum(r.instances for r in reports),
        counterexamples=[b for r in reports for b in r.counterexamples][:cap],
        counterexamples_total=sum(r.counterexamples_total for r in reports),
        elapsed=round(sum(r.elapsed for r in reports), 3),
        details=details,
    )


def calibration_report(n_max: int = 12, *, _classifier: Classifier | None = None) -> dict:
    """Run the orientation experiment: MULLX and CLOSED under both scans.

    Exactly one orientation must pass both; it must be the calibrated one.
    This is the only code that builds a run under the flipped scan. Below
    n = 3 both scans pass, so the experiment cannot decide; an n_max below 3
    is rejected. Each scan's sweeps share one signature cache, dropped when
    the experiment returns; `modpart report` passes its calibrated one as
    _classifier, to hand on to run_all.
    """
    _check_int(n_max, "n_max")
    if n_max < 3:
        raise ArgumentError(f"calibration needs n_max >= 3 (both scans pass below n = 3), got {n_max}")
    per_orientation: dict[str, dict] = {}
    for run in (_classifier or _new_classifier(), _new_classifier(Orientation.TOP_DOWN)):
        entry = {}
        for cid in ("MULLX", "CLOSED"):
            check = CHECKS[cid]
            rep = _sweep(cid, check.fn, check.n_min, min(n_max, check.n_max), check.primes, 3, run)
            entry[cid] = {
                "pass": rep.passed,
                "instances": rep.instances,
                "counterexamples_total": rep.counterexamples_total,
                "first_counterexample": rep.counterexamples[0] if rep.counterexamples else None,
            }
        per_orientation[run.orientation.value] = entry
    passing = [
        name
        for name in (Orientation.BOTTOM_UP.value, Orientation.TOP_DOWN.value)
        if per_orientation[name]["MULLX"]["pass"] and per_orientation[name]["CLOSED"]["pass"]
    ]
    return {
        "id": "CALIBRATION",
        "n_max": n_max,
        "orientations": per_orientation,
        "passing": passing,
        "calibrated": CALIBRATED_ORIENTATION.value,
        "unique": passing == [CALIBRATED_ORIENTATION.value],
    }
