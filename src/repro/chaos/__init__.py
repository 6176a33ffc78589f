"""repro.chaos — seeded fault injection and differential plan testing.

Two halves:

* :mod:`repro.chaos.faults` — a deterministic, replayable fault
  injector. A :class:`FaultPlan` (optionally drawn from
  ``random.Random(seed)``) lists :class:`FaultSpec` injection points;
  a :class:`FaultInjector` attached to a
  :class:`~repro.hyracks.engine.HyracksCluster` fires them at superstep
  boundaries, operator open/next/close, buffer-cache page I/O, and
  checkpoint writes — raising worker failures, killing nodes, or
  delaying the simulated clock, with every firing recorded in telemetry.

* :mod:`repro.chaos.differential` — a :class:`DifferentialChecker` that
  runs one algorithm across the 16 physical plans x memory budgets x
  fault schedules and asserts bit-identical results plus agreement with
  an independent reference (:mod:`repro.chaos.reference`).

Plus :mod:`repro.chaos.serve_drill` — the serving layer's crash drill,
one loop over the :data:`SCENARIOS` table of ``service.crash`` and
``journal.append`` faults: the journaled service is killed at every
lifecycle phase (or its journal damaged) and a restarted one must replay
to the pinned summary and bit-identical results.

Exposed on the command line as ``repro chaos``.
"""

from repro.chaos.differential import (
    BUDGETS,
    BudgetProfile,
    CellResult,
    DifferentialChecker,
    DifferentialReport,
    values_close,
)
from repro.chaos.faults import (
    CORE_ACTIONS,
    FAULT_ACTIONS,
    FAULT_SITES,
    MUTATION_ACTIONS,
    TRANSIENT_SITES,
    ChaosError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FiredFault,
    check_fault,
)
from repro.chaos.reference import AlgorithmCase, algorithm_case, algorithm_names
from repro.pregelix.api import PlanChoice, all_plans

__all__ = [
    "CORE_ACTIONS",
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "MUTATION_ACTIONS",
    "TRANSIENT_SITES",
    "AlgorithmCase",
    "BUDGETS",
    "BudgetProfile",
    "CellResult",
    "ChaosError",
    "DifferentialChecker",
    "DifferentialReport",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "PlanChoice",
    "SCENARIOS",
    "algorithm_case",
    "algorithm_names",
    "all_plans",
    "check_fault",
    "run_serve_drill",
    "values_close",
]


def __getattr__(name):
    # The serve drill builds its services from repro.serve.config; load it
    # on first use so importing the engine-side halves (the benchmark's
    # repro.chaos.reference) does not pull the serving tier in.
    if name in ("SCENARIOS", "run_serve_drill"):
        from repro.chaos import serve_drill

        return getattr(serve_drill, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
