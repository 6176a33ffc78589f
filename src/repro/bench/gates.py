"""The ``repro bench`` gates: one measure-compare-verdict loop over a table.

A gate guards a property the system is built on by *measuring* it: a few
cases of one fixed microbenchmark run on fresh clusters, each variant is
compared with its baseline — same output bit for bit, and one derived
ratio against one bound — and the row passes or fails as a whole. Every
case is CPU-bound wall clock: nothing sleeps for simulated transfers.
The two rows of :data:`GATES`:

``elastic``
    PageRank with static membership, a scale-up and a scale-down
    at one superstep boundary. The hand-off reuses the checkpoint/restore
    path (§5.5), so joining or retiring a node must cost about a
    superstep, not a reload. Ratio: seconds inside ``cluster.rebalance``
    ÷ the static run's average superstep. Over-decomposition (two
    partitions per initial node) keeps ``hash(vid) % partitions`` fixed
    across the resize. Evidence: each elastic case did rebalance.
``batch``
    Eight sssp point queries run back to back (solo) and as lanes of one
    :class:`~repro.pregelix.multiquery.MultiQueryProgram` run. Ratio: solo
    ÷ batched seconds, bounded by a *break-even margin* (sharing
    supersteps must beat back-to-back by more than the 25 % by which
    ``BENCHMARK.json`` tells two times apart), not by how slow solo once
    was. The fingerprint is one ``result_digest`` per query, so
    "bit-identical" is per lane.

The verdict rule is stated once, in :func:`run_gate`; DESIGN.md "Gates"
gives the table with its bounds.
"""

import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import partial

from repro.algorithms import pagerank, sssp
from repro.bench.reporting import graph_driver


@dataclass(frozen=True)
class Config:
    """Sizes and the bound of one gate; a field a row has no use for is None."""

    vertices: int
    nodes: int
    graph_seed: int
    bound: float
    repeats: int = 2
    iterations: int = None  # elastic: PageRank supersteps
    scale_superstep: int = None  # elastic: the boundary the variants resize at
    sources: tuple = None  # batch: one sssp point query per source


@dataclass(frozen=True)
class Gate:
    """One row: what is run, what is compared with what, and the bound's sense."""

    name: str
    benchmark: str
    config: Config
    #: config -> {case: (HyracksCluster options, run(driver, config))}; a
    #: run returns ``(details, fingerprint)`` and times its own driver
    #: calls into ``details["seconds"]`` — building the cluster and the
    #: graph and reading the output back stay outside the clock.
    cases: Callable
    comparisons: tuple  # (variant, baseline) case-name pairs
    ratio_name: str
    ratio: Callable  # (variant details, baseline details) -> float
    sense: str  # ">=": the ratio is a gain and the bound a floor; "<=": a cost, a cap
    evidence: Callable = None  # {case: details} -> the variants did the thing

    @property
    def default_out(self):
        return "BENCH_%s.json" % self.name


def measure(run, repeats):
    """Best-of-``repeats`` of one case: the details of its fastest run and
    the fingerprint every repeat must agree on."""
    best = fingerprint = None
    for _ in range(repeats):
        details, seen = run()
        if fingerprint is not None and seen != fingerprint:
            raise AssertionError("two repeats of one case produced different outputs")
        fingerprint = seen
        if best is None or details["seconds"] < best["seconds"]:
            best = details
    return best, fingerprint


def run_gate(gate):
    """Measure every case of ``gate`` once, compare, and return the report.

    ``report["pass"]`` — the verdict, and the exit status of ``repro
    bench`` — holds when there is something to compare, every variant is
    bit-identical to its baseline and within the bound, and the row's
    evidence check (if it has one) holds.
    """
    config = gate.config

    def one_run(options, run):
        with graph_driver(
            config.nodes, config.vertices, config.graph_seed, **options
        ) as driver:
            return run(driver, config)

    cases, fingerprints = {}, {}
    for name, (options, run) in gate.cases(config).items():
        cases[name], fingerprints[name] = measure(
            partial(one_run, options, run), config.repeats
        )
    comparisons = []
    for variant, baseline in gate.comparisons:
        ratio = round(gate.ratio(cases[variant], cases[baseline]), 3)
        comparisons.append({
            "variant": variant,
            "baseline": baseline,
            "ratio": ratio,
            "bound": config.bound,
            "bit_identical": fingerprints[variant] == fingerprints[baseline],
            "within_bound": (
                ratio >= config.bound if gate.sense == ">=" else ratio <= config.bound
            ),
        })
    evidence = gate.evidence is None or bool(gate.evidence(cases))
    return {
        "gate": gate.name,
        "benchmark": gate.benchmark,
        "config": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(config).items()
            if value is not None
        },
        "ratio": gate.ratio_name,
        "sense": gate.sense,
        "cases": cases,
        "comparisons": comparisons,
        "evidence": evidence,
        "pass": bool(
            comparisons
            and all(c["bit_identical"] and c["within_bound"] for c in comparisons)
            and evidence
        ),
    }


def summary_lines(report):
    """Human-readable rendering of one gate report; ends in the verdict."""
    lines = [
        "%s gate: %s" % (report["gate"], report["benchmark"]),
        "  config: " + " ".join(
            "%s=%s" % item for item in report["config"].items()
        ),
    ]
    for name, details in report["cases"].items():
        lines.append("  %s: %.3fs%s" % (
            name,
            details["seconds"],
            "".join(
                ", %s %s" % (key, value)
                for key, value in details.items()
                if key != "seconds" and isinstance(value, (int, float))
            ),
        ))
    lines.append("  ratio: " + report["ratio"])
    for c in report["comparisons"]:
        lines.append("  %s vs %s: %.2fx (bound %s %.2fx) %s%s" % (
            c["variant"],
            c["baseline"],
            c["ratio"],
            report["sense"],
            c["bound"],
            "bit-identical" if c["bit_identical"] else "OUTPUT DIVERGED",
            "" if c["within_bound"] else " OUT OF BOUND",
        ))
    if not report["evidence"]:
        lines.append("  evidence: MISSING (a variant never did what the row measures)")
    lines.append("  verdict: %s" % ("PASS" if report["pass"] else "FAIL"))
    return lines


# ---------------------------------------------------------------------
# how a case is run
# ---------------------------------------------------------------------
def _pagerank(driver, config, scale_to=None):
    """One PageRank run, resized to ``scale_to`` nodes at the row's boundary."""
    job = pagerank.build_job(iterations=config.iterations)
    scale_at = {config.scale_superstep: scale_to} if scale_to else None
    started = time.perf_counter()
    outcome = driver.run(job, "/in/g", output_path="/out/r", scale_at=scale_at)
    seconds = time.perf_counter() - started
    return {
        "seconds": round(seconds, 6),
        "supersteps": outcome.supersteps,
        "avg_superstep_seconds": round(outcome.avg_iteration_seconds, 6),
        "rebalance_seconds": round(
            sum(spent for _, spent, _ in outcome.stats.rebalances), 6
        ),
        "rebalances": [
            {"superstep": step, "seconds": round(spent, 6),
             "moved_partitions": moved}
            for step, spent, moved in outcome.stats.rebalances
        ],
    }, tuple(sorted(driver.read_output("/out/r")))


def _digests(seconds, documents):
    from repro.serve.cache import result_digest

    return (
        {"seconds": round(seconds, 6), "queries": len(documents)},
        tuple(result_digest(document) for document in documents),
    )


def _solo(driver, config):
    """The queries as back-to-back driver runs, each a result document."""
    from repro.serve.api import result_document

    documents = []
    started = time.perf_counter()
    for index, source in enumerate(config.sources):
        job = sssp.build_job(source_id=source)
        out = "/out/solo-%d" % index
        outcome = driver.run(job, "/in/g", output_path=out)
        documents.append(
            result_document("sssp", job, outcome,
                            results=driver.read_output(out))
        )
    return _digests(time.perf_counter() - started, documents)


def _batched(driver, config):
    """The queries as lanes of one multi-query run, a document per lane."""
    from repro.pregelix.multiquery import MultiQueryProgram

    program = MultiQueryProgram(
        sssp, [{"source_id": source} for source in config.sources]
    )
    started = time.perf_counter()
    outcome, lane_lines = program.run(driver, "/in/g", "/out/batched")
    seconds = time.perf_counter() - started
    return _digests(seconds, [
        program.lane_document(lane, "sssp", outcome, lines)
        for lane, lines in enumerate(lane_lines)
    ])


def _speedup(variant, baseline):
    return baseline["seconds"] / variant["seconds"]


def _handoff_share(variant, baseline):
    return variant["rebalance_seconds"] / baseline["avg_superstep_seconds"]


# ---------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------
GATES = {gate.name: gate for gate in (
    Gate(
        name="elastic",
        benchmark="PageRank resized at a superstep boundary against static "
                  "membership",
        config=Config(vertices=600, iterations=6, nodes=3, graph_seed=3,
                      scale_superstep=3, bound=1.0),
        cases=lambda config: {
            name: ({"virtual_partitions": 2 * config.nodes},
                   partial(_pagerank, scale_to=target))
            for name, target in (("static", None),
                                 ("scale-up", config.nodes + 1),
                                 ("scale-down", config.nodes - 1))
        },
        comparisons=(("scale-up", "static"), ("scale-down", "static")),
        ratio_name="hand-off share (variant rebalance seconds / baseline "
                   "average superstep)",
        ratio=_handoff_share,
        sense="<=",
        evidence=lambda cases: all(
            details["rebalances"]
            for name, details in cases.items() if name != "static"
        ),
    ),
    Gate(
        name="batch",
        benchmark="sssp point queries as lanes of one run against back to "
                  "back",
        config=Config(vertices=360, nodes=3, graph_seed=9, bound=1.25,
                      sources=(0, 17, 42, 99, 140, 203, 271, 333)),
        cases=lambda config: {"solo": ({}, _solo), "batched": ({}, _batched)},
        comparisons=(("batched", "solo"),),
        ratio_name="speed-up (baseline seconds / variant seconds)",
        ratio=_speedup,
        sense=">=",
    ),
)}
