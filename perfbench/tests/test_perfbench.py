"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import modpart  # noqa: E402
from modpart import Partition, cli, harness  # noqa: E402

import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer, modpart_modules  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    closed_form,
    large_queries,
    query_errors,
    query_inputs,
    strip_elapsed,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bindings() -> dict:
    """Every attribute of every loaded modpart module, plus Partition's constructor."""
    out = {(mod.__name__, attr): value for mod in modpart_modules() for attr, value in vars(mod).items()}
    out[("Partition", "__init__")] = Partition.__dict__["__init__"]
    return out


def small_outputs() -> list[str]:
    """A little of each workload's program output, as text."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["report", "--max-n", "7"])
    lines = [str(code), strip_elapsed(out.getvalue())]
    for cid in ("L52", "JSEQ", "L23", "MULLX"):
        lines.append(strip_elapsed(harness.run_check(cid, n_min=9, n_max=9, primes=(5,)).to_json_line()))
    for parts, p in [((9, 4, 2, 1), 5), ((30, 3), 5), ((40,), 3), ((12, 9, 7, 7, 3, 1, 1), 7)]:
        lam = Partition(parts)
        errors = query_errors(lam, p, closed_form(parts, p))
        lines.append(f"{parts} {p} {errors} {modpart.mullineux_image(lam, p)}")
    return lines


def test_same_seed_gives_identical_query_list():
    assert query_inputs(1, 0) == query_inputs(1, 0)
    assert query_inputs(1, 0) != query_inputs(2, 0)
    assert query_inputs(1, 0) != query_inputs(1, 1)
    # The stream must not depend on the interpreter's string-hash seed.
    script = "import sys, json; sys.path.insert(0, sys.argv[1]); from workloads import query_inputs; print(json.dumps(query_inputs(1, 0)))"
    fresh = subprocess.run(
        [sys.executable, "-c", script, str(BENCH)],
        capture_output=True, text=True, check=True, env={"PYTHONHASHSEED": "12345"},
    )
    assert [(tuple(parts), p) for parts, p in json.loads(fresh.stdout)] == query_inputs(1, 0)


def test_query_inputs_are_p_regular_and_sized():
    queries = query_inputs(3, 0)
    assert len(queries) == 144
    for parts, p in queries:
        assert list(parts) == sorted(parts, reverse=True) and parts[-1] >= 1
        assert all(parts.count(x) < p for x in set(parts))
    assert sum(1 for parts, p in queries if closed_form(parts, p) is not None) >= 24


def test_tracer_restores_every_binding_and_changes_no_output():
    before = bindings()
    plain = small_outputs()
    tracer = Tracer()
    with tracer.installed():
        assert bindings() != before
        traced = small_outputs()
    assert bindings() == before
    assert traced == plain
    layers = tracer.layer_metrics()
    assert layers["branching.classify_nodes.calls"] > 0
    assert layers["partitions.Partition.calls"] > 0
    assert layers["harness.check.L52.s"] > 0
    assert layers["cli.main.self_s"] > 0


def test_tracer_restores_bindings_when_the_body_raises():
    before = bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert bindings() == before


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    with tracer.installed():
        modpart.mullineux_image(Partition((6, 3, 1)), 5)
    names = [tracer.names[i] for i in tracer.span_name]
    assert names[0] == "mullineux.mullineux_image"
    assert tracer.span_parent[0] == -1
    assert "branching.classify_nodes" in names
    dur, self_t = tracer.self_times()
    assert all(s <= d + 1e-12 for s, d in zip(self_t, dur))
    assert abs(sum(self_t) - dur[0]) < 1e-6


def test_failed_calls_are_counted_and_close_their_spans():
    tracer = Tracer()
    with tracer.installed():
        with pytest.raises(RecursionError):
            modpart.mullineux_image(Partition((3000,)), 5)
    assert tracer.layer_metrics()["mullineux.mullineux_image.failed"] == 1
    assert all(end > 0 for end in tracer.span_end)
    assert not tracer._stack


def fake_rep(layers: dict | None = None) -> dict:
    rep = {"setup_s": 0.1, "wall_s": 2.0, "latencies_s": [0.01, 0.02, 0.03], "attempted": 4,
           "failed": 1, "errors": [], "peak_rss_mb": 50.0, "cpu_s": 2.1}
    if layers is not None:
        rep["layers"] = layers
    return rep


def test_every_printed_metric_is_declared_with_its_unit():
    declared_e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    untraced = run.summarize([fake_rep()] * 3, [])
    assert [(k, v["unit"]) for k, v in untraced["metrics"].items()] == declared_e2e

    tracer = Tracer()
    with tracer.installed():
        large_queries(1, 0)  # set-up only: builds the inputs
        small_outputs()
    traced = run.summarize([fake_rep()], [fake_rep(tracer.layer_metrics())])
    assert [(k, v["unit"]) for k, v in traced["metrics"].items()] == declared_layer
    assert [(n, u) for n, u, _ in LAYER_METRICS] == declared_layer
    for result in (untraced, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ceiling-cells", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
