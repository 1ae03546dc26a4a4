"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, so modpart's caches start
cold, as they do for every modpart command a user runs. It prints one JSON
object: set-up and timed-phase seconds, operation latencies and counts,
correctness errors, peak RSS and CPU time, and, when traced, the per-layer
metrics.

    python3 perfbench/rep.py --workload NAME --seed N --rep K --trace 0|1 --launched T

T is time.monotonic() just before the launch (the clock is system-wide on
Linux), so set-up time includes interpreter start-up and the imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / "perfbench" / "out"


def import_modpart():
    """Import modpart from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import modpart

    if not Path(modpart.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"modpart was imported from {modpart.__file__}, not from {src}")
    return modpart


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args()

    import_modpart()
    from tracer import Tracer
    from workloads import WORKLOADS

    run = WORKLOADS[args.workload](args.seed, args.rep)
    setup_s = time.monotonic() - args.launched

    tracer = Tracer() if args.trace else None
    if tracer is None:
        outcome = run()
    else:
        with tracer.installed():
            outcome = run()
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "latencies_s": outcome.latencies_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "peak_rss_mb": usage[0].ru_maxrss / 1024,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(SPANS_DIR / f"{args.workload}.spans.tsv")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
