"""Request → job: how a submission's physical plan is resolved.

One module knows the precedence (explicit plan > journaled pin >
optimizer > plan cache > algorithm defaults), the short
``join/groupby/connector/storage`` signature journaled with a dispatch,
and the result-cache key derived from the resolved plan's bit-identity
class. Validation, the batch former's compatibility check, dispatch and
the result-cache lookup all build their job here, so they cannot
disagree about which plan a request would run under.
"""

import importlib

from repro.common.errors import ReproError
from repro.serve.api import SERVABLE_ALGORITHMS
from repro.serve.cache import ResultCache, plan_class


def _plan_choice():
    # Imported on first use: repro.chaos drags in the fault and drill
    # harness, which `repro serve` start-up should not pay for.
    from repro.chaos.differential import PlanChoice

    return PlanChoice


def parse_plan(signature):
    """A ``join/groupby/connector/storage`` signature as a plan choice;
    raises :class:`ValueError` on a malformed one."""
    return _plan_choice().parse(signature)


def build_job(request, dataset, plan_cache, plan_signature=None):
    """The :class:`~repro.pregelix.api.PregelixJob` for ``request``.

    :param plan_signature: a journaled plan pin (set on replay of an
        interrupted run). It outranks the optimizer and the plan cache:
        the re-run must land in the plan the interrupted run already
        committed checkpoints under, despite the restarted process's
        empty plan cache.
    """
    module_name, param_names = SERVABLE_ALGORITHMS[request.algorithm]
    module = importlib.import_module(module_name)
    unknown = set(request.params) - set(param_names)
    if unknown:
        raise ReproError(
            "algorithm %r takes no parameter(s) %s"
            % (request.algorithm, ", ".join(sorted(unknown)))
        )
    job = module.build_job(**request.params)
    if request.max_supersteps is not None:
        job.max_supersteps = int(request.max_supersteps)
    if request.plan is not None:
        parse_plan(request.plan).apply(job)
    elif plan_signature is not None:
        parse_plan(plan_signature).apply(job)
    elif request.optimize:
        job.auto_optimize = True
    else:
        plan_cache.apply(dataset.digest, request.algorithm, job)
    return job


def plan_signature(job):
    """The job's resolved plan as a short, parseable signature."""
    return _plan_choice()(
        job.join_strategy, job.groupby_strategy,
        job.connector_policy, job.vertex_storage,
    ).signature()


def cache_key(request, dataset, job):
    """The result-cache key of ``request`` run as ``job``."""
    return ResultCache.make_key(
        dataset.digest, request.algorithm, request.params_key(),
        plan_class(job),
    )
