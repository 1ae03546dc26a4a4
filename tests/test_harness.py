"""Verification harness: registry, sweeps, reports, sharding, calibration."""

import hashlib
import inspect
import json
from dataclasses import replace

import pytest

import modpart.harness as harness
from modpart import (
    CHECK_ORDER,
    CHECKS,
    EMPTY,
    Orientation,
    Partition,
    calibration_report,
    conjugate,
    enumerate_js,
    merge_reports,
    run_all,
    run_check,
)
from modpart.errors import InternalInconsistency, SweepTooLarge
from modpart.labels import ClassificationOutcome, ReasonCode, Verdict
from test_mullineux import _run_fresh


def _no_elapsed(d: dict) -> dict:
    out = {k: v for k, v in d.items() if k != "elapsed"}
    return out


class TestRegistry:
    def test_every_check_takes_only_its_run(self):
        # the scan comes with the run a check is handed, never as an argument
        for check in CHECKS.values():
            assert list(inspect.signature(check.fn).parameters) == ["n", "p", "run"], check.id

    def test_ids(self):
        assert CHECK_ORDER == (
            "MULLX",
            "CLOSED",
            "L52",
            "L47",
            "L12",
            "L17",
            "JSEQ",
            "L23",
            "L29",
            "L18",
            "L20A",
            "NUWF",
        )
        assert set(CHECKS) == set(CHECK_ORDER)

    def test_default_sweeps_frozen(self):
        expected = {
            "MULLX": (0, 18, (3, 5, 7)),
            "CLOSED": (1, 30, (3, 5, 7)),
            "L52": (0, 18, (3, 5, 7)),
            "L47": (1, 14, (5,)),
            "L12": (1, 12, (3, 5, 7)),
            "L17": (1, 16, (3, 5)),
            "JSEQ": (1, 20, (3, 5, 7)),
            "L23": (1, 30, (3, 5, 7)),
            "L29": (5, 30, (5,)),
            "L18": (4, 16, (3, 5, 7)),
            "L20A": (1, 16, (5,)),
            "NUWF": (5, 30, (5,)),
        }
        got = {c.id: (c.n_min, c.n_max, c.primes) for c in CHECKS.values()}
        assert got == expected

    def test_every_check_has_statement(self):
        assert all(c.statement for c in CHECKS.values())


class TestRunCheck:
    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown check id"):
            run_check("L99")

    def test_ceiling(self):
        with pytest.raises(SweepTooLarge):
            run_check("L52", n_max=41)

    def test_empty_sweep_passes_vacuously(self):
        rep = run_check("L47", n_min=5, n_max=4)
        assert rep.passed and rep.instances == 0 and rep.counterexamples == []

    def test_small_green_run(self):
        rep = run_check("L52", n_max=6)
        assert rep.passed
        assert rep.counterexamples_total == 0
        assert rep.id == "L52" and rep.primes == (3, 5, 7)
        assert rep.instances > 0

    def test_cap_truncates_but_counts_all(self, flipped_scan):
        rep = run_check("MULLX", n_max=6, cap=3)
        assert not rep.passed
        assert len(rep.counterexamples) == 3
        assert rep.counterexamples_total > 3

    def test_l23_rechecks_generated_partitions_by_signature(self, monkeypatch):
        # L23 takes its candidates from the arithmetic generator; one that is
        # not JS by its normal nodes is a counterexample, not a skip
        monkeypatch.setattr(harness, "enumerate_js", lambda n, p: iter([Partition((8, 2))]))
        rep = run_check("L23", n_min=10, n_max=10, primes=(5,))
        assert not rep.passed
        assert rep.instances == 0
        assert rep.counterexamples == [
            {
                "p": 5,
                "n": 10,
                "partition": "8,2",
                "observed": "arithmetic JS, signature not JS",
                "expected": "exactly one normal node",
            }
        ]

    def test_bad_primes_rejected(self):
        from modpart.errors import OddPrimeRequired

        with pytest.raises(OddPrimeRequired):
            run_check("L52", n_max=4, primes=(4,))

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            run_check("L52", n_min=-1, n_max=4)
        with pytest.raises(ValueError):
            run_check("L52", n_max=4, cap=-1)
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            run_check("L52", n_max=-1)

    def test_empty_primes_rejected(self):
        # no cell would run and the check would report green on nothing
        with pytest.raises(ValueError, match="empty primes"):
            run_check("L52", n_max=4, primes=())


class TestReports:
    def test_json_line_field_order(self):
        rep = run_check("L47", n_max=6)
        keys = list(json.loads(rep.to_json_line()).keys())
        assert keys == [
            "id",
            "n_min",
            "n_max",
            "primes",
            "instances",
            "counterexamples",
            "counterexamples_total",
            "pass",
            "elapsed",
        ]

    def test_details_key_present_for_l29(self):
        rep = run_check("L29", n_max=12)
        d = rep.to_json_dict()
        assert list(d)[-1] == "details"
        assert set(d["details"]["i_distribution"]) == {"1", "4"}

    def test_deterministic_modulo_elapsed(self, flipped_scan):
        a = run_check("MULLX", n_max=7, cap=4)
        b = run_check("MULLX", n_max=7, cap=4)
        assert _no_elapsed(a.to_json_dict()) == _no_elapsed(b.to_json_dict())

    def test_counterexample_payload_shape(self, flipped_scan):
        rep = run_check("CLOSED", n_max=5)
        assert not rep.passed
        cx = rep.counterexamples[0]
        assert set(cx) == {"p", "n", "partition", "observed", "expected"}


class TestSharding:
    def test_merge_equals_unsharded_green(self):
        whole = run_check("L52", n_min=0, n_max=8)
        parts = [
            run_check("L52", n_min=0, n_max=4),
            run_check("L52", n_min=5, n_max=8),
        ]
        merged = merge_reports(parts)
        assert _no_elapsed(merged.to_json_dict()) == _no_elapsed(whole.to_json_dict())

    def test_merge_equals_unsharded_with_counterexamples(self, flipped_scan):
        kw = dict(cap=25)
        whole = run_check("MULLX", n_min=0, n_max=6, **kw)
        merged = merge_reports(
            [
                run_check("MULLX", n_min=0, n_max=3, **kw),
                run_check("MULLX", n_min=4, n_max=6, **kw),
            ]
        )
        assert _no_elapsed(merged.to_json_dict()) == _no_elapsed(whole.to_json_dict())

    def test_merge_mixed_ids_rejected(self):
        with pytest.raises(ValueError):
            merge_reports([run_check("L52", n_max=3), run_check("L47", n_max=3)])
        with pytest.raises(ValueError):
            merge_reports([])

    def test_merge_primes_union(self):
        merged = merge_reports(
            [
                run_check("L52", n_max=4, primes=(3,)),
                run_check("L52", n_max=4, primes=(7, 5)),
            ]
        )
        assert merged.primes == (3, 5, 7)

    @pytest.mark.parametrize("cid", CHECK_ORDER)
    def test_one_n_shards_equal_the_whole_sweep(self, cid):
        # L29's shards also carry details, which merge key by key
        hi = min(12, CHECKS[cid].n_max)
        shards = [run_check(cid, n_min=n, n_max=n) for n in range(CHECKS[cid].n_min, hi + 1)]
        whole = run_check(cid, n_max=hi)
        assert _no_elapsed(merge_reports(shards).to_json_dict()) == _no_elapsed(whole.to_json_dict())


class TestRunAll:
    def test_canonical_order_and_all_green(self):
        reports = run_all(max_n=8)
        assert [r.id for r in reports] == list(CHECK_ORDER)
        assert all(r.passed for r in reports)

    def test_subset(self):
        reports = run_all(max_n=6, checks=("JSEQ", "L52"))
        assert [r.id for r in reports] == ["L52", "JSEQ"]

    def test_unknown_subset_rejected(self):
        with pytest.raises(ValueError):
            run_all(max_n=4, checks=("L52", "BOGUS"))

    def test_gate_aborts_on_miscalibration(self, flipped_scan):
        reports = run_all(max_n=6)
        assert [r.id for r in reports] == ["MULLX"]
        assert not reports[0].passed

    def test_max_n_caps_each_sweep(self):
        reports = run_all(max_n=5)
        assert all(r.n_max <= 5 for r in reports)

    def test_negative_max_n_rejected(self):
        # every sweep would be empty and the run would report green
        with pytest.raises(ValueError, match="max_n must be >= 0"):
            run_all(max_n=-1)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="empty check selection"):
            run_all(max_n=4, checks=())

    def test_zero_max_n_still_runs(self):
        reports = run_all(max_n=0, checks=("L52",))
        assert [r.id for r in reports] == ["L52"] and reports[0].passed


def _raise(*args, **kwargs):
    raise InternalInconsistency("injected fault")


def _shifted_fixed_flags(real, n, p):
    # is_mullineux_fixed answering for the next JS partition of n: as many
    # partitions are fixed as before, but not the right ones
    js = list(enumerate_js(n, p))
    flags = [real(lam, p) for lam in js]
    shifted = dict(zip(js, flags[1:] + flags[:1]))
    return lambda lam, q: shifted[lam]


def _rotated_epsilon(real, n, p):
    # classifications whose eps is shifted by one residue
    def classify(lam, q, orientation):
        nc = real(lam, q, orientation)
        return replace(nc, epsilon=nc.epsilon[1:] + nc.epsilon[:1])

    return classify


def _outcome(verdict, nu=None, reason=None):
    return lambda d1, d2: ClassificationOutcome(verdict, nu, reason)


# (row id, check id, n, p, the name harness binds a kernel under, the fault
# built from the real kernel, n and p). Each fault makes the check report the
# counterexample lines its row names, without changing what it counts.
FAULTS = [
    ("L52", "L52", 6, 5, "_node_counts", lambda real, n, p: lambda lam, q: (real(lam, q)[0], real(lam, q)[1] + (1,))),
    ("L47", "L47", 6, 5, "_tilde_f", lambda real, n, p: lambda lam, i, q, o: None),
    ("L12", "L12", 6, 5, "residue", lambda real, n, p: lambda node, q: (real(node, q) + 1) % q),
    ("L17-counts", "L17", 6, 5, "mullineux_image", lambda real, n, p: lambda lam, q: lam),
    ("L17-intertwining", "L17", 6, 5, "mullineux_image",
     lambda real, n, p: lambda lam, q: real(lam, q) if lam.size == n else conjugate(lam)),
    ("L17-exception", "L17", 6, 5, "mullineux_image", lambda real, n, p: _raise),
    ("L23-congruence", "L23", 6, 3, "is_mullineux_fixed", _shifted_fixed_flags),
    ("L23-height", "L23", 24, 5, "is_mullineux_fixed", _shifted_fixed_flags),
    ("L29-root", "L29", 11, 5, "_classify", _rotated_epsilon),
    ("L29-first-layer", "L29", 11, 5, "_tilde_e", lambda real, n, p: lambda nc, i: nc.partition),
    ("L29-second-layer", "L29", 11, 5, "_tilde_e",
     lambda real, n, p: lambda nc, i: real(nc, i) if nc.partition.size == n else nc.partition),
    ("L29-commutation", "L29", 11, 5, "_tilde_e",
     lambda real, n, p: lambda nc, i: None if nc.partition.size == n - 2 else real(nc, i)),
    ("L18", "L18", 7, 5, "is_js", lambda real, n, p: lambda lam, q: True),
    ("L20A", "L20A", 7, 5, "is_mullineux_fixed", lambda real, n, p: lambda lam, q: True),
    ("JSEQ", "JSEQ", 6, 5, "is_js_arith", lambda real, n, p: lambda lam, q: not real(lam, q)),
    ("MULLX", "MULLX", 2, 3, "_mullineux_image", lambda real, n, p: lambda lam, q, run, choice="smallest": (
        Partition((1,) * max(q, lam.size + 1)) if choice == "smallest" else EMPTY)),
    ("CLOSED", "CLOSED", 6, 5, "_mullineux_image", lambda real, n, p: lambda lam, q, run, choice="smallest": lam),
    ("NUWF-swap-and-nu", "NUWF", 11, 5, "classify_tensor", lambda real, n, p: lambda d1, d2: ClassificationOutcome(
        Verdict.IRREDUCIBLE, Partition((1,) if d1.sign else (2,)))),
    ("NUWF-singular-nu", "NUWF", 11, 5, "classify_tensor",
     lambda real, n, p: _outcome(Verdict.IRREDUCIBLE, Partition((1,) * 5))),
    ("NUWF-n-divisible", "NUWF", 10, 5, "classify_tensor",
     lambda real, n, p: _outcome(Verdict.NOT_IRREDUCIBLE, reason=ReasonCode.BOTH_NONSPLIT)),
    ("NUWF-reducible", "NUWF", 11, 5, "classify_tensor",
     lambda real, n, p: _outcome(Verdict.NOT_IRREDUCIBLE, reason=ReasonCode.BOTH_NONSPLIT)),
]

# (row id, check id, n, p, fault or None): cells that a check's scope guard
# turns away, with no instance. The natural label (n - 1, 1) is never its own
# Mullineux image at p = 5, so NUWF's guard for it runs only under a fault.
GUARDS = [
    ("L29-p3", "L29", 11, 3, None),
    ("L18-n3", "L18", 3, 5, None),
    ("L20A-p3", "L20A", 7, 3, None),
    ("JSEQ-empty", "JSEQ", 0, 5, None),
    ("NUWF-p3", "NUWF", 11, 3, None),
    ("NUWF-n4", "NUWF", 4, 5, None),
    ("NUWF-natural-fixed", "NUWF", 11, 5, ("is_mullineux_fixed", lambda real, n, p: lambda lam, q: True)),
]


class TestInjectedFaults:
    # one fault per row, injected into a kernel as harness binds it, so that
    # every counterexample line of every check runs at least once
    @pytest.mark.parametrize("cid,n,p,name,fault", [r[1:] for r in FAULTS], ids=[r[0] for r in FAULTS])
    def test_fault_is_reported(self, monkeypatch, cid, n, p, name, fault):
        clean = run_check(cid, n_min=n, n_max=n, primes=(p,))
        assert clean.passed and clean.instances > 0
        monkeypatch.setattr(harness, name, fault(getattr(harness, name), n, p))
        rep = run_check(cid, n_min=n, n_max=n, primes=(p,))
        assert rep.counterexamples_total > 0
        assert rep.instances == clean.instances
        for cx in rep.counterexamples:
            assert set(cx) == {"p", "n", "partition", "observed", "expected"}

    @pytest.mark.parametrize("cid,n,p,fault", [r[1:] for r in GUARDS], ids=[r[0] for r in GUARDS])
    def test_guard_counts_nothing(self, monkeypatch, cid, n, p, fault):
        if fault:
            name, make = fault
            monkeypatch.setattr(harness, name, make(getattr(harness, name), n, p))
        rep = run_check(cid, n_min=n, n_max=n, primes=(p,))
        assert rep.passed and rep.instances == 0


class TestClosedCells:
    def test_flipped_scan_cells_digest_pinned(self):
        # the reference report keeps only the first counterexample of the
        # flipped scan; this pins the order and the text of every one, at the
        # cells where the two-row cases join the one-row case
        cells = [
            harness.CHECKS["CLOSED"].fn(n, 5, harness._new_classifier(Orientation.TOP_DOWN))
            for n in (12, 13, 14)
        ]
        for n, (inst, cxs, details) in zip((12, 13, 14), cells):
            assert (inst, len(cxs), details) == (5, 5, None)
            assert cxs[0]["partition"] == str(n)
        text = json.dumps(cells, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == "c2b5e204fbb3528d1a1c021c7a8b1f5154b8a0fbcae43631ca79965f69a73cf8"


class TestCalibration:
    def test_negative_n_max_rejected(self):
        # below n = 3 both scans pass, so the record could not single one out
        for n_max in (-5, 0, 2):
            with pytest.raises(ValueError, match="calibration needs n_max >= 3"):
                calibration_report(n_max=n_max)

    def test_unique_passing_orientation(self):
        rep = calibration_report(n_max=8)
        assert rep["unique"] is True
        assert rep["passing"] == ["bottom-up"]
        assert rep["calibrated"] == "bottom-up"

    def test_flipped_scan_fails_closed_forms(self):
        rep = calibration_report(n_max=8)
        down = rep["orientations"]["top-down"]
        assert down["CLOSED"]["counterexamples_total"] > 0
        assert down["CLOSED"]["first_counterexample"]["partition"] == "3"

    def test_json_serializable(self):
        line = json.dumps(calibration_report(n_max=6))
        assert json.loads(line)["id"] == "CALIBRATION"

    def test_full_record_at_12(self):
        flipped_scan_error = (
            "InternalInconsistency: nonempty p-regular partition 3 has no normal "
            "node at p=3 (top-down scan)"
        )
        assert calibration_report(n_max=12) == {
            "id": "CALIBRATION",
            "n_max": 12,
            "orientations": {
                "bottom-up": {
                    "MULLX": {"pass": True, "instances": 621, "counterexamples_total": 0, "first_counterexample": None},
                    "CLOSED": {"pass": True, "instances": 40, "counterexamples_total": 0, "first_counterexample": None},
                },
                "top-down": {
                    "MULLX": {
                        "pass": False,
                        "instances": 621,
                        "counterexamples_total": 478,
                        "first_counterexample": {
                            "p": 3,
                            "n": 3,
                            "partition": "3",
                            "observed": flipped_scan_error,
                            "expected": "no exception",
                        },
                    },
                    "CLOSED": {
                        "pass": False,
                        "instances": 40,
                        "counterexamples_total": 28,
                        "first_counterexample": {
                            "p": 3,
                            "n": 3,
                            "partition": "3",
                            "observed": flipped_scan_error,
                            "expected": "2,1",
                        },
                    },
                },
            },
            "passing": ["bottom-up"],
            "calibrated": "bottom-up",
            "unique": True,
        }


class TestRunState:
    def test_no_classification_outlives_its_run(self):
        # a fresh interpreter, so that nothing this suite holds is counted:
        # each run owns its signature cache, and the public functions keep
        # no classification once they return
        code = (
            "import gc\n"
            "from modpart import Partition, calibration_report, classify_nodes, mullineux, run_all, run_check, tilde_e\n"
            "from modpart.branching import NodeClassification\n"
            "run_all(max_n=8)\n"
            "run_check('L12', n_min=9, n_max=10, primes=(5,))\n"
            "calibration_report(3)\n"
            "lam = Partition((6, 3, 1))\n"
            "classify_nodes(lam, 5), tilde_e(lam, 0, 5), mullineux(lam, 5)\n"
            "gc.collect()\n"
            "print(sum(isinstance(o, NodeClassification) for o in gc.get_objects()))\n"
        )
        assert _run_fresh(code).strip() == "0"

    def test_repeated_run_gives_the_same_lines(self):
        runs = [[json.dumps(_no_elapsed(r.to_json_dict())) for r in run_all(max_n=10)] for _ in range(2)]
        assert runs[0] == runs[1]
