"""The gate loop itself, as properties that hold for every row of ``GATES``.

The real gates (``repro bench <gate>``) run at their default config in CI;
here every row runs at a miniature one (tens of vertices, one repeat), so
what is checked is the mechanics — measurement, bit-identity, bounds,
evidence, verdict, report, CLI exit — in seconds.
"""

import dataclasses
import itertools
import json

import pytest

from repro.bench.gates import GATES, measure, run_gate, summary_lines
from repro.bench.reporting import write_report

TINY = {
    "elastic": dict(vertices=40, iterations=4, nodes=2, scale_superstep=2),
    "batch": dict(vertices=40, nodes=2, sources=(0, 7, 19)),
}
REPORT_KEYS = {"gate", "benchmark", "config", "ratio", "sense", "cases",
               "comparisons", "evidence", "pass"}

every_gate = pytest.mark.parametrize("name", sorted(GATES))


def tiny(name, reachable=True, **overrides):
    """Row ``name`` in miniature, its bound trivially (un)reachable."""
    gate = GATES[name]
    floor = gate.sense == ">="
    bound = (0.0 if floor else 1000.0) if reachable else (1000.0 if floor else -1.0)
    config = dict(TINY[name], repeats=1, bound=bound)
    config.update(overrides)
    return dataclasses.replace(
        gate, config=dataclasses.replace(gate.config, **config)
    )


def refingerprinted(gate, fingerprint_of):
    """``gate`` whose cases report ``fingerprint_of(case, real fingerprint)``."""
    def wrap(name, run):
        def wrapped(driver, config):
            details, fingerprint = run(driver, config)
            return details, fingerprint_of(name, fingerprint)
        return wrapped

    return dataclasses.replace(gate, cases=lambda config: {
        name: (options, wrap(name, run))
        for name, (options, run) in gate.cases(config).items()
    })


def test_every_row_is_covered():
    assert sorted(TINY) == sorted(GATES)


@every_gate
def test_one_report_schema_and_json_round_trip(name, tmp_path):
    gate = tiny(name)
    report = run_gate(gate)
    assert set(report) == REPORT_KEYS
    assert report["gate"] == name
    assert report["config"]["vertices"] == 40
    assert set(report["cases"]) == set(gate.cases(gate.config))
    assert all(case["seconds"] > 0 for case in report["cases"].values())
    assert tuple((c["variant"], c["baseline"])
                 for c in report["comparisons"]) == gate.comparisons
    assert all(c["bound"] == gate.config.bound for c in report["comparisons"])
    path = str(tmp_path / gate.default_out)
    assert write_report(report, path) == path
    with open(path) as handle:
        assert json.load(handle) == report


@every_gate
def test_loose_bound_passes_unreachable_bound_fails(name):
    assert run_gate(tiny(name))["pass"] is True
    report = run_gate(tiny(name, reachable=False))
    assert report["pass"] is False
    assert report["evidence"] is True
    assert all(c["bit_identical"] for c in report["comparisons"])
    assert not any(c["within_bound"] for c in report["comparisons"])


@every_gate
def test_repeats_that_disagree_raise(name):
    serial = itertools.count()
    gate = refingerprinted(tiny(name, repeats=2), lambda case, real: next(serial))
    with pytest.raises(AssertionError, match="different outputs"):
        run_gate(gate)


@every_gate
def test_diverged_variant_fails_whatever_its_ratio(name):
    variant = GATES[name].comparisons[0][0]
    report = run_gate(refingerprinted(
        tiny(name), lambda case, real: "other" if case == variant else real
    ))
    assert report["pass"] is False
    assert all(c["within_bound"] for c in report["comparisons"])
    assert [c["bit_identical"] for c in report["comparisons"]] == [
        variant not in (c["variant"], c["baseline"])
        for c in report["comparisons"]
    ]
    assert any("OUTPUT DIVERGED" in line for line in summary_lines(report))


def test_elastic_resize_that_never_fires_fails_on_evidence():
    report = run_gate(tiny("elastic", scale_superstep=99))
    assert report["evidence"] is False
    assert report["pass"] is False
    assert all(c["bit_identical"] and c["within_bound"]
               for c in report["comparisons"])
    assert any(line.startswith("  evidence: MISSING")
               for line in summary_lines(report))


@every_gate
def test_a_row_with_nothing_to_compare_fails(name):
    report = run_gate(dataclasses.replace(tiny(name), comparisons=()))
    assert report["comparisons"] == []
    assert report["pass"] is False
    assert summary_lines(report)[-1] == "  verdict: FAIL"


def test_measure_keeps_the_fastest_repeat():
    runs = iter([({"seconds": 3.0}, "f"), ({"seconds": 1.0}, "f"),
                 ({"seconds": 2.0}, "f")])
    assert measure(lambda: next(runs), 3) == ({"seconds": 1.0}, "f")


@every_gate
def test_summary_ends_in_the_verdict(name):
    for reachable, verdict in ((True, "PASS"), (False, "FAIL")):
        lines = summary_lines(run_gate(tiny(name, reachable=reachable)))
        assert lines[0].startswith(name + " gate")
        assert lines[-1] == "  verdict: " + verdict


@every_gate
def test_cli_exit_status_and_report_path(name, tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(GATES, name, tiny(name))
    assert main(["bench", name]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    with open(tmp_path / ("BENCH_%s.json" % name)) as handle:
        assert json.load(handle)["pass"] is True

    monkeypatch.setitem(GATES, name, tiny(name, reachable=False))
    assert main(["bench", name, "--out", "elsewhere.json"]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out
    with open(tmp_path / "elsewhere.json") as handle:
        assert json.load(handle)["gate"] == name
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_%s.json" % name, "elsewhere.json",
    ]


@pytest.mark.parametrize("argv", [["bench"], ["bench", "serial"],
                                  ["bench", "--elastic"],
                                  ["bench", "parallel"],
                                  ["bench", "elastic", "--vertices", "40"]])
def test_cli_rejects_what_is_not_a_gate(argv, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as error:
        main(argv)
    assert error.value.code == 2
    capsys.readouterr()
