"""Every workload, untraced then traced, into one result file.

    python3 perfbench/suite.py --seed 11

Each workload runs in a fresh ``perfbench/run.py`` subprocess (so
``peak_rss_mb`` is that workload's own), first with tracing off for the
end-to-end metrics, then traced for the per-layer metrics. Every metric
is printed as ``workload name value unit`` and everything is written to
``perfbench/out/result.json`` for ``check.py`` and ``report.py``. The
exit code is non-zero when any output was wrong.

``--seed``, ``--workloads``, ``--seconds`` and ``--smoke`` are the only
arguments; workload parameters live in ``perfbench/workloads.py``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT]

from perfbench import metrics, workloads  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")
RESULT = os.path.join(ROOT, "perfbench", "out", "result.json")


def _commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # a checkout that is not a git repository


def environment(seed, seconds):
    nproc = os.cpu_count()
    loadavg = os.getloadavg()[0]
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_start": loadavg,
        "seed": seed,
        "seconds": seconds,
    }


def run_one(workload, seed, seconds, traced, smoke):
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)), "--details",
    ]
    if smoke:
        command.append("--smoke")
    finished = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = finished.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result (exit %d)" % (workload, finished.returncode))
    return json.loads(lines[-1])


def _rows(result):
    rows = {}
    for name, metric in result["metrics"].items():
        rows[name] = dict(metric, **result["quartiles"].get(name, {}))
    return rows


def main(argv=None):
    benchmark = metrics.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workloads", default=",".join(workloads.names()),
                        help="comma-separated subset of: %(default)s")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measuring window per run (default: BENCHMARK.json's)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)

    env = environment(args.seed, args.seconds)
    document = {
        "env": env,
        "noisy": env["loadavg_start"] > env["nproc"] / 2,
        "workloads": {},
    }
    correct = True
    for workload in args.workloads.split(","):
        untraced = run_one(workload, args.seed, args.seconds, False, args.smoke)
        traced = run_one(workload, args.seed, args.seconds, True, args.smoke)
        entry = {
            "end_to_end": _rows(untraced),
            "per_layer": _rows(traced),
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "problems": untraced["problems"] + traced["problems"],
        }
        document["workloads"][workload] = entry
        correct = correct and entry["failed"] == 0
        for section in ("end_to_end", "per_layer"):
            for name, row in entry[section].items():
                print("%s %s %r %s" % (workload, name, row["value"], row["unit"]))
        print("%s failed_share %d/%d" % (workload, entry["failed"], entry["attempted"]))
    env["loadavg_end"] = os.getloadavg()[0]
    os.makedirs(os.path.dirname(RESULT), exist_ok=True)
    with open(RESULT, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print("wrote %s%s" % (os.path.relpath(RESULT, ROOT),
                          " (noisy: loadavg above nproc/2 at start)"
                          if document["noisy"] else ""))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
