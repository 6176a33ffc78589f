"""The serve crash drill: one table of scenarios, one loop over it."""

import pytest

from repro.chaos import SCENARIOS, run_serve_drill, serve_drill
from repro.graphs.generators import btc_graph
from repro.hyracks.engine import HyracksCluster


@pytest.fixture(scope="module")
def drill():
    """Run the whole drill once, keeping every cluster it builds: the
    baseline pass's first, then one per row in table order."""
    clusters = []

    class RecordingCluster(HyracksCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    lines = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serve_drill, "HyracksCluster", RecordingCluster)
        failures = run_serve_drill(out=lines.append)
    return failures, lines, clusters


def test_every_row_recovers_to_its_pin_and_baseline(drill):
    failures, lines, clusters = drill
    assert failures == []
    assert len(lines) == 1
    assert lines[0].startswith("chaos serve: OK (12 scenarios")
    assert len(clusters) == 1 + len(SCENARIOS)


def test_only_a_crash_after_the_first_checkpoint_resumes_from_it(drill):
    """The two recovery paths of ``running``: hit 1 re-runs fresh under
    the pinned plan, hit 3 restores the checkpoint that committed."""
    _failures, _lines, clusters = drill
    resumed = [
        row.label
        for row, cluster in zip(SCENARIOS, clusters[1:])
        if cluster.telemetry.events.snapshot(name="recovery.resume")
    ]
    assert resumed == ["service.crash@running#3"]


def _record_phases(injector):
    """Patch ``injector.check`` to remember each phase ``service.crash``
    is checked at; returns the set it fills."""
    phases = set()
    check = injector.check

    def recording_check(site, node=None, **info):
        if site == "service.crash":
            phases.add(node)
        return check(site, node=node, **info)

    injector.check = recording_check
    return phases


def test_every_crash_phase_has_a_row():
    vertices = list(btc_graph(48, seed=11))
    requests = serve_drill.SOLO + serve_drill.BATCH
    with serve_drill._Harness(vertices, 3, "dfs") as harness:
        phases = _record_phases(harness.cluster.fault_injector)
        service = harness.service(batch_max=len(serve_drill.BATCH))
        service.start()
        records = [service.submit(serve_drill._request(r)) for r in requests]
        states = [record.wait(timeout=120) for record in records]
        service.shutdown(drain=True, timeout=120)
    assert [state.value for state in states] == ["succeeded"] * len(requests)
    assert service.stats()["batch"]["formed"] == 1
    assert phases == {"queued", "dispatch", "running", "finishing"}
    drilled = {row.fault.node for row in SCENARIOS if row.fault.site == "service.crash"}
    assert drilled == phases
