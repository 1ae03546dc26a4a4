"""Command line interface.

mull, nodes, js, classify and enumerate take --p and --json. verify and
report sweep the primes each check declares, so they take no --p; verify
has --json, and report always prints JSON lines. Their --max-n and --cap
must be >= 0 and --checks must name a check, so that no sweep that runs
nothing reports green; report also needs --max-n >= 3, since below n = 3
both scans pass and the calibration cannot decide.

Exit codes: 0 success (and, for verify/report, no counterexamples), 1 a check
found counterexamples, 2 a usage or contract error (bad partition syntax,
singular label, wrong prime, dimension-one factor, oversized sweep, ...) or an
input too large for the recursive Mullineux map (RecursionError). A reader
that closes stdout early (`modpart enumerate --n 40 | head -1`) ends the
command quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .branching import classify_nodes
from .errors import ArgumentError, ModpartError
from .harness import CHECK_ORDER, DEFAULT_CAP, _new_classifier, calibration_report, run_all
from .js import enumerate_js
from .labels import classify_tensor, make_label
from .mullineux import is_mullineux_fixed, mullineux, mullineux_image, mullineux_symbol
from .partitions import (
    enumerate_partitions,
    format_partition,
    parse_partition,
    specht_dimension,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=5, help="odd prime characteristic (default 5)")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _non_negative(text: str) -> int:
    # rejected while parsing, so that nothing is printed: a negative --max-n
    # would sweep nothing and still report green
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modpart",
        description="partition combinatorics: residue signatures, the Mullineux map, "
        "JS partitions, tensor-product classification, verification sweeps",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("mull", help="Mullineux image of a p-regular partition")
    s.add_argument("partition", help='partition, e.g. "8,2" or "4^2,1^3" or []')
    _add_common(s)

    s = subs.add_parser("nodes", help="addable/removable node classification by residue")
    s.add_argument("partition")
    _add_common(s)

    s = subs.add_parser("js", help="list JS partitions of n")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--fixed-only", action="store_true", help="only those equal to their Mullineux image")
    _add_common(s)

    s = subs.add_parser("classify", help="classify a tensor product of two labels (p=5)")
    s.add_argument("--split", action="append", default=[], metavar="PART", help="split label (repeatable; needs a matching --sign)")
    s.add_argument("--sign", action="append", default=[], choices=["+", "-"], help="sign for the i-th --split")
    s.add_argument("--nonsplit", action="append", default=[], metavar="PART", help="non-split label (repeatable)")
    _add_common(s)

    s = subs.add_parser("enumerate", help="list partitions of n in descending lex order")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--regular-only", action="store_true", help="p-regular partitions only")
    s.add_argument("--dims", action="store_true", help="append the ordinary irreducible dimension")
    _add_common(s)

    s = subs.add_parser("verify", help="run verification checks and summarize")
    s.add_argument("--checks", help=f"comma-separated ids (default: all of {','.join(CHECK_ORDER)})")
    s.add_argument("--max-n", type=_non_negative, help="cap every sweep at this n")
    s.add_argument("--cap", type=_non_negative, default=DEFAULT_CAP, help="max counterexamples kept per check")
    s.add_argument("--json", action="store_true", help="emit JSON lines instead of text")

    s = subs.add_parser("report", help="run everything and print JSON lines (calibration record first)")
    s.add_argument("--max-n", type=_non_negative, help="cap every sweep at this n (>= 3, so the calibration can decide)")
    s.add_argument("--cap", type=_non_negative, default=DEFAULT_CAP, help="max counterexamples kept per check")

    return parser


def _cmd_mull(args) -> int:
    lam = parse_partition(args.partition)
    if args.json:
        res = mullineux(lam, args.p)
        print(
            json.dumps(
                {
                    "partition": str(lam),
                    "p": args.p,
                    "image": str(res.image),
                    "fixed": res.image == lam,
                    "trace": list(res.trace),
                    "symbol": [list(pair) for pair in mullineux_symbol(lam, args.p)],
                }
            )
        )
    else:
        print(mullineux_image(lam, args.p))
    return 0


def _cmd_nodes(args) -> int:
    lam = parse_partition(args.partition)
    nc = classify_nodes(lam, args.p)
    if args.json:
        print(json.dumps(nc.to_json_dict()))
        return 0
    def fmt(nodes):
        return " ".join(f"({r},{c})" for r, c in nodes) or "-"

    print(f"partition {lam}  p={nc.p}  orientation={nc.orientation.value}")
    for i in range(nc.p):
        print(
            f"  residue {i}: eps={nc.epsilon[i]} phi={nc.phi[i]}  "
            f"addable {fmt(nc.addable[i])}  removable {fmt(nc.removable[i])}  "
            f"normal {fmt(nc.normal[i])}  conormal {fmt(nc.conormal[i])}"
        )
    print(f"  totals: eps={sum(nc.epsilon)} phi={sum(nc.phi)}")
    return 0


def _cmd_js(args) -> int:
    rows = []
    for lam in enumerate_js(args.n, args.p, fixed_only=args.fixed_only):
        if args.json:
            rows.append(
                {
                    "partition": str(lam),
                    "exponent_form": format_partition(lam, exponents=True),
                    "fixed": args.fixed_only or is_mullineux_fixed(lam, args.p),
                }
            )
        else:
            print(lam)
    if args.json:
        print(json.dumps({"n": args.n, "p": args.p, "fixed_only": args.fixed_only, "partitions": rows}))
    return 0


def _cmd_classify(args) -> int:
    if len(args.sign) != len(args.split):
        raise ModpartError(
            f"need exactly one --sign per --split (got {len(args.split)} split, {len(args.sign)} sign)"
        )
    labels = [
        make_label(parse_partition(text), args.p, sign=sign)
        for text, sign in zip(args.split, args.sign)
    ] + [make_label(parse_partition(text), args.p) for text in args.nonsplit]
    if len(labels) != 2:
        raise ModpartError(f"classify needs exactly two labels, got {len(labels)}")
    outcome = classify_tensor(labels[0], labels[1])
    if args.json:
        print(
            json.dumps(
                {
                    "factors": [str(label) for label in labels],
                    "n": labels[0].n,
                    "p": args.p,
                    **outcome.to_json_dict(),
                }
            )
        )
    elif outcome.nu is not None:
        print(f"{outcome.verdict.value}: nu = {outcome.nu}")
    else:
        print(f"{outcome.verdict.value}: {outcome.reason.value}")
    return 0


def _cmd_enumerate(args) -> int:
    rows = []
    for lam in enumerate_partitions(args.n, args.p, regular_only=args.regular_only):
        if args.json:
            row = {"partition": str(lam)}
            if args.dims:
                row["dim"] = specht_dimension(lam) if lam else None
            rows.append(row)
        elif args.dims and lam:
            print(f"{lam}\t{specht_dimension(lam)}")
        else:
            print(lam)
    if args.json:
        print(json.dumps({"n": args.n, "p": args.p, "regular_only": args.regular_only, "partitions": rows}))
    return 0


def _cmd_verify(args) -> int:
    checks = None if args.checks is None else tuple(t.strip() for t in args.checks.split(",") if t.strip())
    reports = run_all(max_n=args.max_n, checks=checks, cap=args.cap)
    if args.json:
        for rep in reports:
            print(rep.to_json_line())
    else:
        for rep in reports:
            status = "pass" if rep.passed else "FAIL"
            line = (
                f"{rep.id:<6} {status}  n in [{rep.n_min},{rep.n_max}] "
                f"p in {{{','.join(map(str, rep.primes))}}}  instances={rep.instances}  "
                f"elapsed={rep.elapsed}s"
            )
            if not rep.passed:
                line += f"  counterexamples={rep.counterexamples_total} first={json.dumps(rep.counterexamples[0])}"
            print(line)
    expected = len(set(checks)) if checks else len(CHECK_ORDER)
    failed = [rep.id for rep in reports if not rep.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        if len(reports) < expected:
            print("calibration gate failed; remaining checks skipped", file=sys.stderr)
        return 1
    if not args.json:
        print(f"all {len(reports)} checks passed")
    return 0


def _cmd_report(args) -> int:
    # one signature cache for the calibration and the run, so that run_all's
    # checks read what the calibration's MULLX and CLOSED classified
    run = _new_classifier()
    calib = calibration_report(n_max=min(12, args.max_n) if args.max_n is not None else 12, _classifier=run)
    print(json.dumps(calib, separators=(",", ":")))
    reports = run_all(max_n=args.max_n, cap=args.cap, _classifier=run)
    for rep in reports:
        print(rep.to_json_line())
    bad = (not calib["unique"]) or any(not rep.passed for rep in reports)
    return 1 if bad else 0


_COMMANDS = {
    "mull": _cmd_mull,
    "nodes": _cmd_nodes,
    "js": _cmd_js,
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ModpartError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except RecursionError as e:
        print(f"error: RecursionError: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe on purpose; send the interpreter's exit
        # flush of what is still buffered to /dev/null instead of the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
