"""Spans around modpart's public functions, recorded from outside the package.

Nothing under src/ is edited. A Tracer replaces every binding of a listed
function, in every loaded modpart module namespace, with a wrapper that
records a span (name, start, end, parent). Because the package's own
modules are patched too, internal calls are spanned as well: the Mullineux
recursion calling classify_nodes, tilde_e and tilde_f, or run_all calling
run_check. Spans stay in memory until the traced repetition ends; then the
per-layer metrics are computed from them and the spans are written out.

A layer's self time is its span's duration minus the time its child spans
cover. Generators get one span per next() call, so the time a consumer spends
between items is not charged to the generator.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from math import comb
from pathlib import Path

# Public functions the benchmark times, by the module that defines them.
TRACED = {
    "partitions": ("enumerate_partitions",),
    "branching": ("classify_nodes", "tilde_e", "tilde_f", "is_js"),
    "mullineux": (
        "mullineux",
        "mullineux_image",
        "is_mullineux_fixed",
        "mullineux_via_symbol",
        "remove_p_rim",
        "attach_p_rim",
    ),
    "js": ("is_js_arith", "enumerate_js"),
    "labels": ("make_label", "classify_tensor"),
    "harness": ("run_all", "run_check", "calibration_report"),
    "cli": ("main",),
}

CHECK_IDS = ("MULLX", "CLOSED", "L52", "L47", "L12", "L17", "JSEQ", "L23", "L29", "L18", "L20A", "NUWF")

# (name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS = (
    [
        ("partitions.enumerate_partitions.yielded", "count", "lower"),
        ("partitions.enumerate_partitions.self_s", "s", "lower"),
        ("partitions.Partition.calls", "count", "lower"),
        ("branching.classify_nodes.calls", "count", "lower"),
        ("branching.classify_nodes.self_s", "s", "lower"),
        ("branching.classify_nodes.distinct_ratio", "ratio", "higher"),
        ("branching.tilde_e.self_s", "s", "lower"),
        ("branching.tilde_f.self_s", "s", "lower"),
        ("branching.is_js.self_s", "s", "lower"),
        ("mullineux.mullineux.self_s", "s", "lower"),
        ("mullineux.mullineux_image.self_s", "s", "lower"),
        ("mullineux.mullineux_image.failed", "count", "lower"),
        ("mullineux.is_mullineux_fixed.self_s", "s", "lower"),
        ("mullineux.mullineux_via_symbol.calls", "count", "lower"),
        ("mullineux.mullineux_via_symbol.self_s", "s", "lower"),
        ("mullineux.remove_p_rim.calls", "count", "lower"),
        ("mullineux.remove_p_rim.self_s", "s", "lower"),
        ("mullineux.attach_p_rim.calls", "count", "lower"),
        ("mullineux.attach_p_rim.self_s", "s", "lower"),
        ("mullineux.attach_p_rim.candidates", "count", "lower"),
        ("mullineux.attach_p_rim.useful_ratio", "ratio", "higher"),
        ("js.is_js_arith.self_s", "s", "lower"),
        ("js.enumerate_js.yielded", "count", "lower"),
        ("js.enumerate_js.self_s", "s", "lower"),
        ("labels.make_label.calls", "count", "lower"),
        ("labels.make_label.self_s", "s", "lower"),
        ("labels.classify_tensor.calls", "count", "lower"),
        ("labels.classify_tensor.self_s", "s", "lower"),
    ]
    + [(f"harness.check.{cid}.s", "s", "lower") for cid in CHECK_IDS]
    + [
        ("harness.calibration_report.s", "s", "lower"),
        ("harness.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("fail_ratio", "ratio", "lower"),
        ("process.cpu_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)
# Taken by the runner from untraced repetitions, not from spans: see run.py.
RUNNER_METRICS = {"fail_ratio", "process.cpu_s", "trace.overhead_s"}


def modpart_modules() -> list:
    """Every loaded module of the modpart package, the package itself first."""
    return [mod for name, mod in sorted(sys.modules.items()) if name == "modpart" or name.startswith("modpart.")]


def rebind(fn, replacement) -> list[tuple[object, str]]:
    """Point every modpart-namespace binding of fn at replacement.

    Returns the (module, attribute) pairs changed, for unbind().
    """
    changed = []
    for mod in modpart_modules():
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


def unbind(changed: list[tuple[object, str]], fn) -> None:
    for mod, attr in changed:
        setattr(mod, attr, fn)


def _attach_candidates(mu, a: int, r: int, p: int) -> int:
    """Candidate boundary sets attach_p_rim tries, computed from its arguments:
    C(r - 1, ceil(a/p) - 1); 0 for arguments it rejects before searching."""
    m = -(-a // p)
    if a < r or r < len(mu) or r < 1 or m > r:
        return 0
    return comb(r - 1, m - 1)


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.failures: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.classify_keys: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap_function(self, fn, name: str, name_of=None):
        """Span every call of fn as name, or as the name name_of(*args) gives.

        The bookkeeping is inlined rather than factored into helper methods so
        that a call failing with RecursionError at the interpreter's depth
        limit still closes its span: closing makes no further Python call.
        """
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, failures, clock = self._stack, self.failures, time.perf_counter
        note = self._note_call(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            idx = len(names)
            names.append(nid if name_of is None else name_of(*args, **kwargs))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failures[name] = failures.get(name, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                del stack[stack.index(idx):]

        return spanned

    def _wrap_run_check(self, fn):
        """run_check gets one span name per check id: harness.check.<ID>."""
        name_id = self._name_id

        def name_of(check_id, *args, **kwargs):
            return name_id(f"harness.check.{check_id}")

        return self._wrap_function(fn, "harness.run_check", name_of)

    def _wrap_generator(self, fn, name: str):
        """Span every next() of the generator fn returns, and count its items."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(names)
                    names.append(nid)
                    parents.append(stack[-1] if stack else -1)
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        del stack[stack.index(idx):]
                    counts[yielded] += 1
                    yield item
            finally:
                inner.close()

        return spanned

    def _note_call(self, name: str):
        """Argument bookkeeping for the counters that need it, else None."""
        if name == "branching.classify_nodes":
            keys = self.classify_keys
            active = sys.modules["modpart.branching"].active_orientation

            def note(lam, p, orientation=None):
                keys.add((lam.parts, p, orientation or active()))

            return note
        if name == "mullineux.attach_p_rim":
            counts = self.counts

            def note(mu, a, r, p):
                counts["mullineux.attach_p_rim.candidates"] += _attach_candidates(mu, a, r, p)

            return note
        return None

    @contextmanager
    def installed(self):
        """Wrap every traced function and count Partition constructions;
        restore every binding on exit, also when the body raises."""
        restore = []
        partition_cls = sys.modules["modpart.partitions"].Partition
        original_init = partition_cls.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["partitions.Partition.calls"] += 1
            original_init(obj, *args, **kwargs)

        try:
            for module, names in TRACED.items():
                # A module the workload never imported has nothing to wrap.
                mod = sys.modules.get(f"modpart.{module}")
                for fname in names if mod is not None else ():
                    fn = getattr(mod, fname)
                    span = f"{module}.{fname}"
                    if span == "harness.run_check":
                        wrapper = self._wrap_run_check(fn)
                    elif inspect.isgeneratorfunction(fn):
                        wrapper = self._wrap_generator(fn, span)
                    else:
                        wrapper = self._wrap_function(fn, span)
                    restore.append((rebind(fn, wrapper), fn))
            partition_cls.__init__ = counting_init
            yield self
        finally:
            partition_cls.__init__ = original_init
            for changed, fn in reversed(restore):
                unbind(changed, fn)

    def self_times(self) -> tuple[list[float], list[float]]:
        """(duration, self time) of every span."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def layer_metrics(self) -> dict[str, float]:
        """Every span-derived per-layer metric; 0 for layers the run never entered."""
        dur, self_t = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        names = self.names
        calib = self._name_ids.get("harness.calibration_report", -2)
        check_s: Counter = Counter()
        calib_s = 0.0
        for i, nid in enumerate(self.span_name):
            name = names[nid]
            calls[name] += 1
            self_s[name] += self_t[i]
            if nid == calib:
                calib_s += dur[i]
            elif name.startswith("harness.check.") and not self._inside(i, calib):
                check_s[name] += dur[i]
        values: dict[str, float] = dict(self.counts)
        values.update((f"{name}.calls", count) for name, count in calls.items())
        values.update((f"{name}.self_s", t) for name, t in self_s.items())
        values.update((f"{name}.failed", count) for name, count in self.failures.items())
        values.update((f"{name}.s", t) for name, t in check_s.items())
        values["harness.calibration_report.s"] = calib_s
        values["harness.self_s"] = sum((t for name, t in self_s.items() if name.startswith("harness.")), 0.0)
        classify_calls = calls["branching.classify_nodes"]
        if classify_calls:
            values["branching.classify_nodes.distinct_ratio"] = len(self.classify_keys) / classify_calls
        candidates = self.counts["mullineux.attach_p_rim.candidates"]
        if candidates:
            values["mullineux.attach_p_rim.useful_ratio"] = calls["mullineux.attach_p_rim"] / candidates
        return {
            metric: values.get(metric, 0 if unit == "count" else 0.0)
            for metric, unit, _ in LAYER_METRICS
            if metric not in RUNNER_METRICS
        }

    def _inside(self, i: int, ancestor_nid: int) -> bool:
        i = self.span_parent[i]
        while i >= 0:
            if self.span_name[i] == ancestor_nid:
                return True
            i = self.span_parent[i]
        return False

    def write_spans(self, path: Path) -> None:
        """One line per span: name, parent index, start and end in microseconds
        from the first span."""
        base = self.span_start[0] if self.span_start else 0.0
        names = self.names
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("index\tname\tparent\tstart_us\tend_us\n")
            for i, nid in enumerate(self.span_name):
                f.write(
                    f"{i}\t{names[nid]}\t{self.span_parent[i]}\t"
                    f"{(self.span_start[i] - base) * 1e6:.1f}\t{(self.span_end[i] - base) * 1e6:.1f}\n"
                )
