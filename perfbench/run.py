"""One benchmark run: one workload, traced or untraced, one JSON line.

    python3 perfbench/run.py --workload pagerank_mem --seed 11 --seconds 20 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json
(medians over the run's repeats); with ``--trace 1`` the per-layer ones
(public result objects, timing wrappers, microbenches). The last line of
standard output is the result object; the exit code is non-zero when any
output was wrong. ``perfbench/suite.py`` runs every workload both ways.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def run(workload, seed, seconds, traced, smoke=False):
    """Returns the result object (``correct``/``attempted``/``failed``/
    ``metrics``), plus ``quartiles`` and ``problems`` for the suite."""
    from perfbench import batch, metrics, micro, serve, workloads

    benchmark = metrics.load_benchmark()
    spec = workloads.resolve(workload, smoke=smoke)
    os.makedirs(OUT_DIR, exist_ok=True)
    # Everything the program writes (node-local files, journals) stays
    # inside the checkout: the program creates its directories via tempfile.
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    tempfile.tempdir = scratch
    try:
        if traced:
            if spec["kind"] == "batch":
                values, verifier = batch.measure_traced(spec, seed, seconds * 0.6, OUT_DIR)
                attempted, failed, problems = (
                    verifier.attempted, verifier.failed, verifier.problems
                )
            else:
                values, attempted, failed, problems = serve.measure_traced(
                    spec, seed, seconds * 0.6, scratch, OUT_DIR
                )
            values.update(micro.run_all(scratch, seed, smoke=smoke))
            wanted = benchmark["per_layer"]
            # A metric a workload's layers never produce is reported as 0
            # (the contract wants every per-layer metric in every traced run).
            samples = {m["name"]: [values.get(m["name"], 0)] for m in wanted}
        else:
            if spec["kind"] == "batch":
                samples, verifier = batch.measure(spec, seed, seconds)
                samples["peak_rss_mb"] = [serve.peak_rss_mb()]
                attempted, failed, problems = (
                    verifier.attempted, verifier.failed, verifier.problems
                )
            else:
                samples, rss, attempted, failed, problems = serve.measure(
                    spec, seed, seconds, scratch
                )
                samples["peak_rss_mb"] = [rss]
            wanted = benchmark["end_to_end"]
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {}, "quartiles": {}, "problems": problems[:10]}
    for metric in wanted:
        name = metric["name"]
        values = samples[name]
        result["metrics"][name] = {
            "value": statistics.median(values), "unit": metric["unit"]
        }
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            result["quartiles"][name] = {"q1": q1, "q3": q3, "n": len(values)}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for perfbench/tests only")
    parser.add_argument("--details", action="store_true",
                        help="keep quartiles and problems in the result line "
                             "(perfbench/suite.py reads them)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # The benchmark measures the program in this checkout, never an
        # installed copy: without it there is nothing to run.
        print("perfbench: no program under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for problem in result["problems"]:
        print("wrong output: %s" % problem, file=sys.stderr)
    if not args.details:
        del result["quartiles"], result["problems"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
