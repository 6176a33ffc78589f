"""The evaluation harness: regenerates every table and figure of Section 7.

Each experiment function in :mod:`repro.bench.figures` reruns the
corresponding paper experiment at simulation scale and returns (and
prints) the same rows/series the paper reports. Absolute numbers are
simulation numbers; the *shapes* — who fails where, who wins, where the
crossovers fall — are the reproduction targets (see EXPERIMENTS.md).
"""

from repro.bench.harness import (
    ExperimentEnv,
    Measurement,
    paper_cluster_budget,
    run_pregelix,
    run_system,
)
from repro.bench.reporting import format_series, print_table

__all__ = [
    "ExperimentEnv",
    "Measurement",
    "paper_cluster_budget",
    "run_pregelix",
    "run_system",
    "format_series",
    "print_table",
]
