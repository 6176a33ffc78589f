"""Compare two result files of ``perfbench/suite.py``.

    python3 perfbench/check.py A.json B.json

The run-vs-run agreement tool, and later the parent-vs-change comparison
(A is the base). For every workload in both files it

* **fails** when an end-to-end metric differs from A by more than its
  bound in BENCHMARK.json, when any exact count (``metrics.EXACT``)
  differs at all, or when either file has failed operations;
* reports a metric as **unresolved** when its own quartile spread in
  either file exceeds the bound: the runs cannot tell that difference
  from noise, so it is neither a pass nor a regression.

Exit code 1 on any failure, 0 otherwise (unresolved rows do not fail).
"""

import json
import sys
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT]

from perfbench import metrics  # noqa: E402


def spread(row):
    """Quartile spread as a share of the median; ``None`` for one sample."""
    if "q1" not in row or not row["value"]:
        return None
    return (row["q3"] - row["q1"]) / abs(row["value"])


def compare(a, b, benchmark=None):
    """Returns ``(failures, unresolved, agreed)`` lists of message strings."""
    benchmark = benchmark or metrics.load_benchmark()
    failures, unresolved, agreed = [], [], []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        left, right = a["workloads"][workload], b["workloads"][workload]
        for label, entry in (("A", left), ("B", right)):
            if entry["failed"]:
                failures.append("%s: %d of %d operations failed in %s"
                                % (workload, entry["failed"], entry["attempted"], label))
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row_a, row_b = left["end_to_end"][name], right["end_to_end"][name]
            base = row_a["value"]
            difference = (row_b["value"] - base) / base
            text = "%s %s: %.6g -> %.6g %s (%+.1f%% of %.6g, bound %.0f%%)" % (
                workload, name, base, row_b["value"], metric["unit"],
                100 * difference, base, 100 * bound,
            )
            spreads = [s for s in (spread(row_a), spread(row_b)) if s is not None]
            if spreads and max(spreads) > bound:
                unresolved.append(text + " — own quartile spread %.1f%%"
                                  % (100 * max(spreads)))
            elif abs(difference) > bound:
                failures.append(text)
            else:
                agreed.append(text)
        if workload in metrics.BATCH:
            for name in sorted(metrics.EXACT):
                value_a = left["per_layer"][name]["value"]
                value_b = right["per_layer"][name]["value"]
                if value_a != value_b:
                    failures.append("%s %s: exact count differs, %r vs %r"
                                    % (workload, name, value_a, value_b))
    return failures, unresolved, agreed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    failures, unresolved, agreed = compare(*documents)
    for text in agreed:
        print("ok          " + text)
    for text in unresolved:
        print("unresolved  " + text)
    for text in failures:
        print("FAIL        " + text)
    print("%d agreed, %d unresolved, %d failed" % (len(agreed), len(unresolved), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
