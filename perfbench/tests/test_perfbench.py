"""Smoke-size checks of the benchmark itself.

    python -m pytest perfbench/tests -q

Runs every workload once untraced and once traced at ``--smoke`` sizes
(in this process, through ``perfbench.run.run``), so the whole module
stays under 30 s.
"""

import json
import os
import re

import pytest

from perfbench import batch, check, metrics, report, run, trace, workloads

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SECONDS = 0.3


@pytest.fixture(scope="module")
def contract():
    return metrics.load_benchmark()


@pytest.fixture(scope="module")
def untraced():
    return {name: run.run(name, 11, SECONDS, traced=False, smoke=True)
            for name in workloads.names()}


@pytest.fixture(scope="module")
def traced():
    return {name: run.run(name, 11, SECONDS, traced=True, smoke=True)
            for name in workloads.names()}


def test_names_match_benchmark_json_and_output(contract, untraced, traced):
    assert [w["name"] for w in contract["workloads"]] == workloads.names()
    for section, results in (("end_to_end", untraced), ("per_layer", traced)):
        declared = [m["name"] for m in contract[section]]
        assert len(declared) == len(set(declared))
        for name in declared + workloads.names():
            assert NAME.match(name) and len(name) <= 64, name
        for workload, result in results.items():
            assert list(result["metrics"]) == declared, workload
            assert result["correct"] and result["failed"] == 0, result["problems"]
            assert result["attempted"] >= 1
    for metric in contract["per_layer"]:
        metrics.group_of(metric["name"])  # every layer metric has a group
    assert metrics.EXACT <= {m["name"] for m in contract["per_layer"]}
    assert {g["moves"] for g in metrics.GROUPS} <= {
        m["name"] for m in contract["end_to_end"]
    }


def test_end_to_end_metrics_are_never_zero(untraced):
    for workload, result in untraced.items():
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_exact_counts_repeat(traced):
    again = run.run("pagerank_mem", 11, SECONDS, traced=True, smoke=True)
    for name in sorted(metrics.EXACT):
        first = traced["pagerank_mem"]["metrics"][name]["value"]
        assert again["metrics"][name]["value"] == first, name


def test_workload_predictions_hold(traced):
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    assert value("pagerank_mem", "buffer_cache.evictions") == 0
    assert value("pagerank_mem", "buffer_cache.hit_ratio") == 1.0
    assert value("pagerank_mem", "sort.spill_runs") == 0
    assert value("cc_ooc", "buffer_cache.evictions") > 0
    assert value("cc_ooc", "sort.spill_runs") > 0
    assert value("cc_ooc", "groupby.preclustered_calls") > 0
    assert value("cc_ooc", "lsm.disk_components") >= 1
    assert value("sssp_frontier", "btree.lookups") > 0
    assert value("sssp_frontier", "groupby.sort_calls") == 0
    assert value("serve_burst", "checkpoint.commits") > 0
    assert value("serve_burst", "serve.result_cache.hit_ratio") > 0
    for workload in metrics.BATCH:
        for name in traced[workload]["metrics"]:
            if name.startswith(("serve.", "loadgen.")) and not name.endswith("_ns"):
                assert value(workload, name) == 0, (workload, name)


@pytest.mark.parametrize("workload", workloads.names())
def test_spans_nest_and_self_times_are_not_negative(traced, workload):
    with open(os.path.join(run.OUT_DIR, "trace-%s.json" % workload)) as handle:
        document = json.load(handle)
    spans = {(s["repeat"], s["id"]): s for s in document["spans"]}
    assert spans
    for (repeat, _sid), span in spans.items():
        assert span["self_s"] >= -1e-6, span
        assert span["end"] >= span["start"]
        if span["parent"]:
            parent = spans[(repeat, span["parent"])]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], (
                span, parent
            )
    for row in document["aggregated"]:
        assert row["self_s"] >= -1e-6 and row["calls"] >= 1
        assert row["parent"] == 0 or (row["repeat"], row["parent"]) in spans
    # self times of one batch repeat add up to its traced run
    if workload in metrics.BATCH:
        result = traced[workload]["metrics"]
        assert abs(result["unattributed_s"]["value"]) <= 0.15 * result["trace.run_s"]["value"]


def test_no_wrapper_outlives_a_traced_run():
    tracer = trace.Tracer("pagerank_mem")
    before = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in tracer._table()]
    spec = workloads.resolve("pagerank_mem", smoke=True)
    graph = batch.generate(spec, 11)
    batch.run_repeat(spec, graph, batch.reference_case(spec), tracer=tracer)
    assert tracer.summary()["calls"]["serde.dumps"] > 0  # wrappers did run
    assert tracer.patched() == []
    for cls, attr, original in before:
        assert cls.__dict__[attr] is original, (cls, attr)


def test_correctness_check_fails_on_a_corrupted_line():
    spec = workloads.resolve("sssp_frontier", smoke=True)
    graph = batch.generate(spec, 11)
    verifier = batch.Verifier(spec, graph)
    lines = batch.run_repeat(spec, graph, verifier.case)["lines"]
    assert verifier.check(lines)
    corrupted = list(lines)
    vid, value, edges = corrupted[3].split(" ", 2)
    corrupted[3] = "%s %r %s" % (vid, float(value) + 1.0, edges)
    assert not verifier.check(corrupted)
    assert (verifier.attempted, verifier.failed) == (2, 1)
    assert verifier.problems


def test_check_and_report_read_a_result_document(contract, untraced, traced):
    def document(scale):
        entries = {}
        for name in workloads.names():
            rows = {}
            for metric, row in untraced[name]["metrics"].items():
                rows[metric] = dict(row, value=row["value"] * scale)
            entries[name] = {
                "end_to_end": rows,
                "per_layer": dict(traced[name]["metrics"]),
                "attempted": 1, "failed": 0, "problems": [],
            }
        env = {"commit": "0" * 40, "python": "3", "nproc": 2, "seed": 11,
               "seconds": SECONDS, "loadavg_start": 0.0, "loadavg_end": 0.0}
        return {"env": env, "noisy": False, "workloads": entries}

    same = check.compare(document(1.0), document(1.0), contract)
    assert same[0] == [] and same[1] == []
    failures = check.compare(document(1.0), document(2.0), contract)[0]
    assert len(failures) == len(contract["end_to_end"]) * len(workloads.names())
    text = report.render(document(1.0), document(2.0), contract)
    first_cells = [
        line.split("|")[1].replace("&nbsp;", "").strip(" *")
        for line in text.splitlines() if line.startswith("| ")
    ]
    for metric in contract["per_layer"] + contract["end_to_end"]:
        assert first_cells.count(metric["name"]) == len(workloads.names()), metric["name"]
    assert "+100.0% of" in text
