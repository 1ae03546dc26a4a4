"""modpart benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload report-default --seed 1 --seconds 40 --trace 0

Run from the root of a checkout, on Linux; modpart is imported from its src/.
Every repetition runs in a fresh interpreter (rep.py), one after another,
pinned to the CPU that is quickest just before it starts, until the next one
would end past --seconds; at least MIN_REPS run. Repetition k of
large-queries draws its query stream from (seed, k); the sweep workloads have
no random inputs.

With --trace 0 the last line of stdout holds the end-to-end metrics, each the
median over repetitions. With --trace 1 untraced and traced repetitions
alternate, each pair on the same inputs, and the last line holds the
per-layer metrics: medians over the traced repetitions, plus fail_ratio and
process.cpu_s from the untraced ones and trace.overhead_s, the median over
pairs of traced minus untraced timed-phase seconds. Traced repetitions write
their spans to perfbench/out/<workload>.spans.tsv.

Exit code 0 when every repetition gave correct output, 1 when one did not
(the result line still prints, with "correct": false), 2 when a repetition
could not run; then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_REPS = 3
REP_TIMEOUT_S = 120
# Start no repetition after this much of a run, whatever --seconds says, so a
# run ends well inside three minutes.
LAST_START_S = 100

# (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
)


class RepFailed(Exception):
    pass


def quickest_cpu() -> int:
    """The allowed CPU on which a 5 ms pure-Python loop runs fastest right now.

    On the 2-vCPU virtual machine this benchmark was tuned on, each vCPU
    switches on its own between a fast state and one 1.3 to 1.6 times slower,
    for seconds to minutes at a time, and the scheduler keeps new processes
    on the first vCPU. In ten interleaved pairs of ceiling-cells runs, starting each
    repetition on the vCPU that was fast at that moment lowered the median
    wall_s by 9 % and its interquartile spread from 0.19 to 0.16 of the
    median. Only the benchmark's own processes are pinned.
    """
    cpus = os.sched_getaffinity(0)
    speed = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            total = 0
            for i in range(60000):
                total += i * i % 7
            speed[cpu] = time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, cpus)
    return min(speed, key=speed.get)


def run_rep(workload: str, seed: int, rep: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), "--trace", str(trace)]
    cpu = quickest_cpu()
    launched = time.monotonic()
    try:
        # run.py starts no thread, so preexec_fn is safe here.
        proc = subprocess.run(cmd + ["--launched", repr(launched)], capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, cwd=HERE.parent,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired as e:
        raise RepFailed(f"repetition {rep} of {workload} ran past {REP_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise RepFailed(f"repetition {rep} of {workload} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def op_metrics(rep: dict) -> dict[str, float]:
    """End-to-end metrics of one repetition. The latency quantiles are over
    its successful operations; the inclusive method never extrapolates past
    the slowest one, which matters for the sweeps' 4 and 13 operations."""
    lat = rep["latencies_s"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    return {
        "wall_s": rep["wall_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "goodput_qps": len(lat) / rep["wall_s"],
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p90_ms": 1000 * deciles[8],
    }


def median_of(values) -> float:
    return statistics.median(list(values))


def summarize(reps: list[dict], traced: list[dict]) -> dict:
    """The result object; reps are the untraced repetitions, traced the traced
    ones (empty with --trace 0), pairwise on the same inputs."""
    attempted = sum(r["attempted"] for r in reps + traced)
    failed = sum(r["failed"] for r in reps + traced)
    correct = all(not r["errors"] for r in reps + traced)
    if traced:
        values = {name: median_of(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
        values["fail_ratio"] = sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps)
        values["process.cpu_s"] = median_of(r["cpu_s"] for r in reps)
        values["trace.overhead_s"] = median_of(t["wall_s"] - r["wall_s"] for r, t in zip(reps, traced))
        units = [(name, unit) for name, unit, _ in LAYER_METRICS]
    else:
        per_rep = [op_metrics(r) for r in reps]
        values = {name: median_of(m[name] for m in per_rep) for name, _ in END_TO_END}
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    reps: list[dict] = []
    traced: list[dict] = []
    k = 0
    try:
        while True:
            reps.append(run_rep(args.workload, args.seed, k, 0))
            if args.trace:
                traced.append(run_rep(args.workload, args.seed, k, 1))
            k += 1
            elapsed = time.monotonic() - start
            if k >= MIN_REPS and (elapsed * (k + 1) / k > args.seconds or elapsed > LAST_START_S):
                break
    except RepFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    result = summarize(reps, traced)
    for r in reps + traced:
        for err in r["errors"]:
            print(f"perfbench: wrong answer: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
