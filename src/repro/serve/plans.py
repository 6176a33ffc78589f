"""Request → job: how a submission's physical plan is resolved.

One module knows the precedence (explicit plan > journaled pin >
optimizer > plan cache > algorithm defaults) and the result-cache key
derived from the resolved plan's bit-identity class. Validation, the
batch former's compatibility check, dispatch and the result-cache
lookup all build their job here, so they cannot disagree about which
plan a request would run under.
"""

from repro.algorithms import ALGORITHMS, algorithm_module
from repro.common.errors import ReproError
from repro.pregelix.api import PlanChoice
from repro.serve.cache import ResultCache


def build_job(request, dataset, plan_cache, plan_signature=None):
    """The :class:`~repro.pregelix.api.PregelixJob` for ``request``.

    :param plan_signature: a journaled plan pin (set on replay of an
        interrupted run). It outranks the optimizer and the plan cache:
        the re-run must land in the plan the interrupted run already
        committed checkpoints under, despite the restarted process's
        empty plan cache.
    """
    unknown = set(request.params) - set(ALGORITHMS[request.algorithm].params)
    if unknown:
        raise ReproError(
            "algorithm %r takes no parameter(s) %s"
            % (request.algorithm, ", ".join(sorted(unknown)))
        )
    job = algorithm_module(request.algorithm).build_job(**request.params)
    if request.max_supersteps is not None:
        job.max_supersteps = int(request.max_supersteps)
    if request.plan is not None:
        PlanChoice.parse(request.plan).apply(job)
    elif plan_signature is not None:
        PlanChoice.parse(plan_signature).apply(job)
    elif request.optimize:
        job.auto_optimize = True
    else:
        plan_cache.apply(dataset.digest, request.algorithm, job)
    return job


def cache_key(request, dataset, job):
    """The result-cache key of ``request`` run as ``job``."""
    return ResultCache.make_key(
        dataset.digest, request.algorithm, request.params_key(),
        PlanChoice.of(job).identity_class,
    )
