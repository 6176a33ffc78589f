"""Render one or two result files of ``perfbench/suite.py`` as markdown.

    python3 perfbench/report.py A.json [B.json]

One table per workload: every end-to-end row is followed by the layer
rows that should move it (``metrics.GROUPS``); a layer group whose
prediction on this workload is *no change* says so. With two files each
row carries B's value and the delta with its base, ``+3.1% of 2.48``.
Bench tables in EXPERIMENTS.md are pasted from this output, never typed.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT]

from perfbench import metrics  # noqa: E402


def _number(value):
    if isinstance(value, float) and not value.is_integer():
        return "%.4g" % value
    return "%d" % value


def _cells(name, row_a, row_b):
    cells = [name, _number(row_a["value"])]
    if "q1" in row_a:
        cells[1] += " (q1 %s, q3 %s, n=%d)" % (
            _number(row_a["q1"]), _number(row_a["q3"]), row_a["n"]
        )
    if row_b is not None:
        cells.append(_number(row_b["value"]))
        base = row_a["value"]
        if base:
            cells.append("%+.1f%% of %s" % (100 * (row_b["value"] - base) / base,
                                            _number(base)))
        else:
            cells.append("base 0")
    cells.append(row_a["unit"])
    return "| " + " | ".join(cells) + " |"


def render(a, b=None, benchmark=None):
    benchmark = benchmark or metrics.load_benchmark()
    lines = []
    env = a["env"]
    lines.append("Base: commit `%s`, python %s, %d cores, seed %d, %ss windows, "
                 "loadavg %.2f -> %.2f%s." % (
                     env["commit"][:12], env["python"], env["nproc"], env["seed"],
                     env["seconds"], env["loadavg_start"], env.get("loadavg_end", 0.0),
                     " (**noisy**)" if a.get("noisy") else ""))
    header = ["metric", "A"] + (["B", "delta"] if b else []) + ["unit"]
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload) if b else None
        lines += ["", "### %s" % workload, "",
                  "| " + " | ".join(header) + " |",
                  "|" + "---|" * len(header)]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            lines.append(_cells(
                "**%s**" % name, entry["end_to_end"][name],
                other["end_to_end"][name] if other else None,
            ))
            for group in metrics.GROUPS:
                if group["moves"] != name:
                    continue
                predicted = workload in group["where"]
                lines.append("| *%s*%s |%s" % (
                    group["layer"],
                    "" if predicted else " — no change predicted here",
                    " |" * (len(header) - 1),
                ))
                for layer_name, row in entry["per_layer"].items():
                    if metrics.group_of(layer_name) is group:
                        lines.append(_cells(
                            "&nbsp;&nbsp;" + layer_name, row,
                            other["per_layer"][layer_name] if other else None,
                        ))
        lines.append("")
        lines.append("failed %d of %d operations" % (entry["failed"], entry["attempted"]))
    return "\n".join(lines) + "\n"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    sys.stdout.write(render(*documents))
    return 0


if __name__ == "__main__":
    sys.exit(main())
