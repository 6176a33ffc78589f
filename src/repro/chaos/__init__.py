"""repro.chaos — seeded fault injection and differential plan testing.

Two halves:

* :mod:`repro.chaos.faults` — a deterministic, replayable fault
  injector. A :class:`FaultPlan` (optionally drawn from
  ``random.Random(seed)``) lists :class:`FaultSpec` injection points;
  the :class:`FaultInjector` every
  :class:`~repro.hyracks.engine.HyracksCluster` holds, once armed with
  a plan, fires them at superstep
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

import importlib

#: Public name -> the module that defines it, loaded on first use: the
#: CLI parser reads ``repro.chaos.reference`` for its ``--algorithm``
#: choices, and the batch benchmark imports it too, without paying for
#: the matrix, the injector or the serving tier the drill pulls in.
_EXPORTS = {
    name: "repro." + module
    for module, names in (
        ("chaos.differential", "BUDGETS BudgetProfile CellResult "
                               "DifferentialChecker DifferentialReport "
                               "values_close"),
        ("chaos.faults", "CORE_ACTIONS FAULT_ACTIONS FAULT_SITES "
                         "MUTATION_ACTIONS TRANSIENT_SITES ChaosError "
                         "FaultInjector FaultPlan FaultSpec FiredFault"),
        ("chaos.reference", "AlgorithmCase algorithm_case algorithm_names"),
        ("chaos.serve_drill", "SCENARIOS run_serve_drill"),
        ("pregelix.api", "PlanChoice all_plans"),
    )
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
