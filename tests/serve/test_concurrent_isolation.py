"""Concurrent jobs over one shared cluster are bit-identical to sequential.

The acceptance bar for the serving layer: per-run namespacing (indexes,
message files, global-state paths are all run-id-scoped) plus the
thread-safe storage stack means N jobs interleaving over one
BufferCache/FileManager produce byte-for-byte the output of the same
jobs run back to back.
"""

import importlib
import threading

import pytest

from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.serve import JobService, JobState, TenantQuota
from repro.serve.api import SERVABLE_ALGORITHMS

from tests.serve.conftest import WORKLOADS

WAIT = 240


class TestServiceConcurrency:
    def test_eight_concurrent_jobs_two_tenants_bit_identical(
        self, serve_graph, reference_results
    ):
        """8 jobs x 2 tenants race over one cluster; results match the
        sequential direct-driver runs exactly."""
        service = JobService(
            num_nodes=3,
            workers=4,
            quotas={
                "alice": TenantQuota(weight=2.0, max_running=3),
                "bob": TenantQuota(weight=1.0, max_running=3),
            },
        )
        try:
            service.add_dataset("g", vertices=serve_graph)
            service.start()
            workloads = list(WORKLOADS.items())
            submitted = []
            for index in range(8):
                algorithm, params = workloads[index % len(workloads)]
                tenant = "alice" if index % 2 == 0 else "bob"
                record = service.submit(
                    {
                        "tenant": tenant,
                        "algorithm": algorithm,
                        "dataset": "g",
                        "params": params,
                        "use_cache": False,  # force 8 real executions
                    }
                )
                submitted.append((algorithm, record))
            for algorithm, record in submitted:
                assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
                assert (
                    sorted(record.result["results"])
                    == reference_results[algorithm]
                )
            assert service.cluster.jobs_executed >= 8
        finally:
            service.shutdown(timeout=WAIT)


class TestBareDriverConcurrency:
    def test_threaded_drivers_share_one_cluster(
        self, serve_graph, reference_results
    ):
        """Three driver threads (pagerank/sssp/cc) interleave over one
        BufferCache/FileManager without the service in the way."""
        cluster = HyracksCluster(num_nodes=3)
        try:
            write_graph_to_dfs(cluster.dfs, "/in/g", iter(serve_graph), num_files=3)
            outputs = {}
            errors = []

            def run(algorithm, params):
                try:
                    module = importlib.import_module(
                        SERVABLE_ALGORITHMS[algorithm][0]
                    )
                    driver = PregelixDriver(cluster, cluster.dfs)
                    driver.run(
                        module.build_job(**params),
                        "/in/g",
                        output_path="/out/%s" % algorithm,
                        parse_line=getattr(module, "parse_line", None),
                        format_record=getattr(module, "format_record", None),
                    )
                    outputs[algorithm] = sorted(
                        driver.read_output("/out/%s" % algorithm)
                    )
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append((algorithm, error))

            threads = [
                threading.Thread(target=run, args=(algorithm, params))
                for algorithm, params in WORKLOADS.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WAIT)
            assert errors == []
            for algorithm in WORKLOADS:
                assert outputs[algorithm] == reference_results[algorithm]
        finally:
            cluster.close()

    @pytest.mark.parametrize("round_trip", [1, 2])
    def test_repeat_runs_remain_identical(
        self, serve_graph, reference_results, round_trip
    ):
        """Back-to-back runs on a reused cluster stay bit-identical (no
        state leaks between runs through the shared caches)."""
        cluster = HyracksCluster(num_nodes=3)
        try:
            write_graph_to_dfs(cluster.dfs, "/in/g", iter(serve_graph), num_files=3)
            module = importlib.import_module(SERVABLE_ALGORITHMS["cc"][0])
            for index in range(round_trip + 1):
                driver = PregelixDriver(cluster, cluster.dfs)
                driver.run(
                    module.build_job(),
                    "/in/g",
                    output_path="/out/%d" % index,
                    parse_line=getattr(module, "parse_line", None),
                    format_record=getattr(module, "format_record", None),
                )
                lines = sorted(driver.read_output("/out/%d" % index))
                assert lines == reference_results["cc"]
        finally:
            cluster.close()
