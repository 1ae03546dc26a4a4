"""The three benchmark workloads: their inputs, timed phase and correctness gates.

Each workload is a function (seed, rep) -> run, where building the inputs is
set-up and run() is the timed phase. run() returns an Outcome. An operation
is one check run for the sweep workloads and one query for large-queries; an
operation that raises (RecursionError included) counts as failed. A wrong
answer is not a failed operation: it lands in Outcome.errors and invalidates
the whole run.

modpart must be importable when a workload is set up; the runner puts the
checkout's src/ first on sys.path.
"""

from __future__ import annotations

import io
import random
import re
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

from tracer import rebind, unbind

REFERENCE_REPORT = Path(__file__).resolve().parent / "reference" / "report-default.jsonl"

DEFAULT_SEED = 1
# Kept out of tuning: a claim made on DEFAULT_SEED is checked again on this one.
HOLDOUT_SEED = 2


@dataclass
class Outcome:
    wall_s: float
    latencies_s: list[float]  # successful operations only
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


def strip_elapsed(text: str) -> str:
    """Drop the timing fields, which sit outside the determinism contract."""
    return re.sub(r',"elapsed":[-+.0-9eE]+', "", text)


@contextmanager
def timed_calls(fns, latencies: list[float], failures: list[int]):
    """Time the outermost calls of fns (the operations) wherever modpart binds them."""
    depth = [0]
    restore = []

    def timer(fn):
        def timed(*args, **kwargs):
            depth[0] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if depth[0] == 1:
                    failures[0] += 1
                raise
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                latencies.append(time.perf_counter() - start)
            return result

        return timed

    try:
        for fn in fns:
            restore.append((rebind(fn, timer(fn)), fn))
        yield
    finally:
        for changed, fn in reversed(restore):
            unbind(changed, fn)


def report_default(seed: int, rep: int):
    """`modpart report`: the calibration record, then run_all() at default sweeps."""
    from modpart import cli, harness

    reference = REFERENCE_REPORT.read_text()

    def run() -> Outcome:
        out, latencies, failures = io.StringIO(), [], [0]
        # Looked up at call time, so a tracer's wrappers are what gets timed.
        with timed_calls([cli.calibration_report, harness.run_check], latencies, failures):
            with redirect_stdout(out):
                start = time.perf_counter()
                code = cli.main(["report"])
                wall = time.perf_counter() - start
        errors = []
        if code != 0:
            errors.append(f"modpart report exited with {code}")
        if strip_elapsed(out.getvalue()) != reference:
            errors.append("report output differs from the committed reference")
        return Outcome(wall, latencies, len(latencies) + failures[0], failures[0], errors)

    return run


# (check id, n, instances): single top cells at p = 5.
CEILING_CELLS = (("L52", 40, 37338), ("JSEQ", 40, 17034), ("L23", 40, 3), ("MULLX", 30, 3026))


def ceiling_cells(seed: int, rep: int):
    """L52, JSEQ and L23 at the sweep ceiling n = 40, MULLX at n = 30, all at p = 5."""
    from modpart import harness

    def run() -> Outcome:
        latencies, failed, errors = [], 0, []
        wall_start = time.perf_counter()
        for cid, n, instances in CEILING_CELLS:
            start = time.perf_counter()
            try:
                report = harness.run_check(cid, n_min=n, n_max=n, primes=(5,))
            except Exception:
                failed += 1
                continue
            latencies.append(time.perf_counter() - start)
            if not report.passed or report.instances != instances:
                errors.append(
                    f"{cid} at n={n}: pass={report.passed}, instances={report.instances} (want {instances})"
                )
        wall = time.perf_counter() - wall_start
        return Outcome(wall, latencies, len(CEILING_CELLS), failed, errors)

    return run


# --- large-queries -------------------------------------------------------------

RANDOM_QUERIES = 120
RANDOM_N = (60, 140)
CLOSED_FORM_N = (100, 1000)
PRIMES = (3, 5, 7)


def _regular_counts(n_max: int, p: int) -> list[list[int]]:
    """counts[k][n]: p-regular partitions of n (no part repeated p times) with parts <= k."""
    counts = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    counts[0][0] = 1
    for k in range(1, n_max + 1):
        below, row = counts[k - 1], counts[k]
        for n in range(n_max + 1):
            row[n] = sum(below[n - m * k] for m in range(p) if m * k <= n)
    return counts


def _uniform_regular(rng: random.Random, n: int, p: int, counts) -> tuple[int, ...]:
    """A uniformly random p-regular partition of n, largest part first."""
    parts: list[int] = []
    rest = n
    for k in range(n, 0, -1):
        if rest == 0:
            break
        x = rng.randrange(counts[k][rest])
        for m in range(p):
            w = counts[k - 1][rest - m * k]
            if x < w:
                parts += [k] * m
                rest -= m * k
                break
            x -= w
    return tuple(parts)


def query_inputs(seed: int, rep: int) -> list[tuple[tuple[int, ...], int]]:
    """The shuffled (parts, p) stream of one repetition of large-queries.

    120 uniformly random p-regular partitions (p cycling 3, 5, 7; n uniform in
    [60, 140]) and 24 closed-form inputs: (n) four times at each p and
    (n - i, i) at p = 5 three times for each i in 1..4, with n uniform in
    [100, 1000]. Each repetition of a run draws its own stream.
    """
    rng = random.Random(f"large-queries:{seed}:{rep}")
    counts = {p: _regular_counts(RANDOM_N[1], p) for p in PRIMES}
    queries = []
    for j in range(RANDOM_QUERIES):
        p = PRIMES[j % 3]
        queries.append((_uniform_regular(rng, rng.randint(*RANDOM_N), p, counts[p]), p))
    for j in range(12):
        queries.append(((rng.randint(*CLOSED_FORM_N),), PRIMES[j % 3]))
    for j in range(12):
        n, i = rng.randint(*CLOSED_FORM_N), j % 4 + 1
        queries.append(((n - i, i), 5))
    rng.shuffle(queries)
    return queries


def closed_form(parts: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """Known Mullineux image: of (n) at every p, of (n - i, i) at p = 5 for
    n >= 12 and 1 <= i <= 4; None elsewhere."""
    if len(parts) == 1:
        a, b = divmod(parts[0], p - 1)
        return tuple(x for x in [a + 1] * b + [a] * (p - 1 - b) if x > 0)
    if len(parts) == 2 and p == 5 and 1 <= parts[1] <= 4 and sum(parts) >= 12:
        a, b = divmod(parts[0], 4)
        return tuple(x for x in [a + 1] * b + [a] * (4 - b) if x > 0) + (1,) * parts[1]
    return None


def query_errors(lam, p: int, expected: tuple[int, ...] | None) -> list[str]:
    """One query; returns what disagreed. Raises what the program raises.

    The modules come from import_module because the package attribute
    modpart.mullineux is the function of that name, not the module.
    """
    branching, js, mullineux = (import_module(f"modpart.{m}") for m in ("branching", "js", "mullineux"))
    errors = []
    n = lam.size
    nc = branching.classify_nodes(lam, p)
    if sum(nc.phi) != sum(nc.epsilon) + 1:
        errors.append(f"{lam} p={p}: sum(phi)={sum(nc.phi)} != sum(eps)+1={sum(nc.epsilon) + 1}")
    for i in range(p):
        if nc.epsilon[i]:
            down = branching.tilde_e(lam, i, p)
            if down is None or down.size != n - 1:
                errors.append(f"{lam} p={p}: tilde_e_{i} gave {down}")
        if nc.phi[i]:
            up = branching.tilde_f(lam, i, p)
            if up is None or up.size != n + 1:
                errors.append(f"{lam} p={p}: tilde_f_{i} gave {up}")
    sig, arith = branching.is_js(lam, p), js.is_js_arith(lam, p)
    if sig != arith:
        errors.append(f"{lam} p={p}: is_js={sig} but is_js_arith={arith}")
    via_symbol = mullineux.mullineux_via_symbol(lam, p)
    image = mullineux.mullineux_image(lam, p)
    if image != via_symbol:
        errors.append(f"{lam} p={p}: recursion gives {image}, rim symbol gives {via_symbol}")
    if expected is not None and image.parts != expected:
        errors.append(f"{lam} p={p}: image {image}, closed form {expected}")
    return errors


def large_queries(seed: int, rep: int):
    """Single queries that share no input; the program sees only Partition objects."""
    from modpart import Partition

    queries = [(Partition(parts), p, closed_form(parts, p)) for parts, p in query_inputs(seed, rep)]

    def run() -> Outcome:
        latencies, failed, errors = [], 0, []
        wall_start = time.perf_counter()
        for lam, p, expected in queries:
            start = time.perf_counter()
            try:
                wrong = query_errors(lam, p, expected)
            except Exception:
                failed += 1
                continue
            latencies.append(time.perf_counter() - start)
            errors += wrong
        wall = time.perf_counter() - wall_start
        return Outcome(wall, latencies, len(queries), failed, errors)

    return run


WORKLOADS = {
    "report-default": report_default,
    "ceiling-cells": ceiling_cells,
    "large-queries": large_queries,
}
