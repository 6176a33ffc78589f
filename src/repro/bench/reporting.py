"""What the bench modules share: plain-text tables and series shaped like
the paper's figures, the gates' JSON report writer, and the seeded
graph-on-a-fresh-cluster setup the three ``BENCH_*.json`` gates measure."""

import json
from contextlib import contextmanager


def print_table(title, headers, rows, out=print):
    """Render an aligned ASCII table."""
    columns = [str(h) for h in headers]
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in columns]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(columns))
    out(title)
    out(line)
    out("-" * len(line))
    for row in text_rows:
        out("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    out("")


def format_series(name, points):
    """One figure series as ``name: (x, y) ...`` with FAIL markers."""
    rendered = []
    for x, y in points:
        rendered.append("(%s, %s)" % (_cell(x), _cell(y)))
    return "%s: %s" % (name, " ".join(rendered))


def print_series(title, series, out=print):
    """Render a figure: one line per labeled series."""
    out(title)
    for name, points in series.items():
        out("  " + format_series(name, points))
    out("")


def _cell(value):
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or (0 < abs(value) < 0.01):
            return "%.3e" % value
        return "%.3f" % value
    if value is None:
        return "-"
    return str(value)


def write_report(report, path):
    """Write one gate's report dict as JSON; returns ``path``."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


@contextmanager
def graph_driver(num_nodes, vertices, graph_seed, **cluster_options):
    """A driver on a fresh cluster whose DFS holds a seeded BTC graph at
    ``/in/g`` (one file per node); the cluster closes on exit."""
    from repro.graphs.generators import btc_graph
    from repro.graphs.io import write_graph_to_dfs
    from repro.hyracks.engine import HyracksCluster
    from repro.pregelix.runtime import PregelixDriver

    cluster = HyracksCluster(num_nodes=num_nodes, **cluster_options)
    try:
        write_graph_to_dfs(
            cluster.dfs, "/in/g", iter(btc_graph(vertices, seed=graph_seed)),
            num_files=num_nodes,
        )
        yield PregelixDriver(cluster, cluster.dfs)
    finally:
        cluster.close()
