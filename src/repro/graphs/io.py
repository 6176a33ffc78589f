"""Text formats for vertex data (the SimpleTextInput/OutputFormat analog).

One vertex per line::

    <vid> <value> <dest>:<weight> <dest>:<weight> ...

``_`` stands for a NULL value. The default parsers treat values and edge
weights as floats; :func:`typed_parser` builds parsers for other value
types (e.g. integer component labels).
"""

import os

from repro.common.errors import ReproError


def parse_adjacency_line(line, value_parser=float, weight_parser=float):
    """Parse one vertex line into ``(vid, value, edges)``."""
    fields = line.split()
    if len(fields) < 2:
        raise ValueError("malformed vertex line: %r" % line)
    vid = int(fields[0])
    value = None if fields[1] == "_" else value_parser(fields[1])
    edges = []
    for token in fields[2:]:
        dest, _, weight = token.partition(":")
        edges.append((int(dest), weight_parser(weight) if weight else None))
    return vid, value, edges


def format_vertex_record(record, value_formatter=None):
    """Format a :class:`~repro.pregelix.types.VertexRecord` as one line."""
    if record.value is None:
        value = "_"
    elif value_formatter is not None:
        value = value_formatter(record.value)
    else:
        value = _format_number(record.value)
    return ("%d %s %s" % (record.vid, value, _format_edges(record.edges))).rstrip()


def format_graph_line(vid, value, edges):
    """Format a raw ``(vid, value, edges)`` tuple (generator output)."""
    value_text = "_" if value is None else _format_number(value)
    return ("%d %s %s" % (vid, value_text, _format_edges(edges))).rstrip()


def parse_edge_line(line, weight_parser=float):
    """Parse one *edge-list* line: ``<src> <dst> [<weight>]``.

    Produces a single-edge vertex tuple; the loading plan merges all
    tuples that share a vid after the sort, so edge-list files (the SNAP
    dataset convention) load without preprocessing. Destination-only
    vertices are created automatically by the Pregel left-outer-join
    semantics the first time a message reaches them — or explicitly, by
    also emitting a ``<dst>``-only line.
    """
    fields = line.split()
    if len(fields) < 2:
        raise ValueError("malformed edge line: %r" % line)
    src = int(fields[0])
    dst = int(fields[1])
    weight = weight_parser(fields[2]) if len(fields) > 2 else 1.0
    return src, None, [(dst, weight)]


def typed_parser(value_parser, weight_parser=float):
    """A line parser with a custom value type (e.g. ``int`` labels)."""

    def parse(line):
        return parse_adjacency_line(line, value_parser, weight_parser)

    return parse


def typed_formatter(value_formatter):
    """A record formatter with a custom value rendering."""

    def fmt(record):
        return format_vertex_record(record, value_formatter)

    return fmt


def write_graph_to_dfs(dfs, path, vertices, num_files=4):
    """Write generated vertices into ``num_files`` part files under ``path``.

    One file per input split: the loader assigns whole files to scan
    partitions, so more files give the scheduler more placement freedom.
    """
    buckets = [[] for _ in range(num_files)]
    count = 0
    for vid, value, edges in vertices:
        buckets[count % num_files].append(format_graph_line(vid, value, edges))
        count += 1
    for i, lines in enumerate(buckets):
        dfs.write_text_lines("%s/part-%05d" % (path, i), lines)
    return count


def ingest_part_files(dfs, local_dir, path):
    """Copy every file in local directory ``local_dir`` verbatim under
    DFS ``path``; raises :class:`ReproError` when there is none."""
    part_files = sorted(
        name for name in os.listdir(local_dir)
        if os.path.isfile(os.path.join(local_dir, name))
    )
    if not part_files:
        raise ReproError("no input files in %s" % local_dir)
    for name in part_files:
        with open(os.path.join(local_dir, name)) as handle:
            dfs.write("%s/%s" % (path, name), handle.read())


def export_part_files(dfs, path, local_dir):
    """Copy every file under DFS ``path`` into local directory ``local_dir``."""
    os.makedirs(local_dir, exist_ok=True)
    for file_path in dfs.list_files(path):
        local = os.path.join(local_dir, os.path.basename(file_path))
        with open(local, "w") as handle:
            handle.write(dfs.read_text(file_path))


def read_graph_from_dfs(dfs, path, parse_line=parse_adjacency_line):
    """Load every vertex under ``path`` as ``(vid, value, edges)`` tuples.

    Used by the process-centric baseline engines, which read their input
    directly instead of going through dataflow scan operators.
    """
    vertices = []
    for file_path in dfs.list_files(path):
        for line in dfs.read_text_lines(file_path):
            if line.strip():
                vertices.append(parse_line(line))
    return vertices


def _format_number(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_edges(edges):
    """``<dest>:<weight>`` per edge, space-separated, the weight as
    :func:`_format_number` writes it and empty when NULL: one
    comprehension, no call per edge."""
    return " ".join([
        "%d:" % dest if weight is None
        else ("%d:%r" if isinstance(weight, float) else "%d:%s") % (dest, weight)
        for dest, weight in edges
    ])
