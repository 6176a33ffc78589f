"""Text formats for vertex data (the SimpleTextInput/OutputFormat analog).

One vertex per line::

    <vid> <value> <dest>:<weight> <dest>:<weight> ...

``_`` stands for a NULL value. The default parsers treat values and edge
weights as floats; :func:`typed_parser` builds parsers for other value
types (e.g. integer component labels).

:func:`parse_adjacency_line` and :func:`format_vertex_record` are the
reference for the text. The loader and the dump move a vertex as its
*images* instead — its ``encode_key`` key and its edge list as the
edge codec stores it — and :func:`image_parser` / :func:`image_formatter`
give the same tuples and lines with no Python object per edge.
"""

import os
from functools import partial

from repro.common.errors import ReproError
from repro.common.serde import encode_key


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


def format_vertex_values(vid, values, edges):
    """The :func:`format_vertex_record` line of vertex ``vid`` with
    ``edges`` and each of ``values`` in turn, the edge text formatted
    once."""
    edge_text = _format_edges(edges)
    return [
        ("%d %s %s" % (
            vid, "_" if value is None else _format_number(value), edge_text
        )).rstrip()
        for value in values
    ]


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
    return partial(
        parse_adjacency_line, value_parser=value_parser, weight_parser=weight_parser
    )


def typed_formatter(value_formatter):
    """A record formatter with a custom value rendering."""
    return partial(format_vertex_record, value_formatter=value_formatter)


def image_parser(parse_line, edge_codec):
    """``parse(lines)``: the loader tuples ``(key image, value, edge
    image)`` of a part file's lines, in order — ``parse_line`` of each
    line, its vid through ``encode_key`` and its edges through
    ``edge_codec``; blank lines and a ``None`` from ``parse_line`` are
    skipped.

    :func:`parse_adjacency_line`, or a :func:`typed_parser` of it with
    float weights, over a ``flat`` edge codec parses a line with one
    ``split``, one ``map`` per column and one ``pack``
    (:func:`_parse_adjacency`). A line that path refuses goes through
    ``parse_line`` itself, which stays the reference: it loads the same
    tuple or raises the same error.
    """
    each = partial(_parse_each, parse_line, edge_codec.dumps)
    parsers = _adjacency_parsers(parse_line)
    if parsers is None or parsers[1] is not float or not edge_codec.flat:
        return each
    return partial(_parse_adjacency, parsers[0], edge_codec.dumps_flat, each)


def image_formatter(format_record, edge_codec):
    """``format((vid, value, edge image))``: the line ``format_record``
    writes for that vertex, when it is :func:`format_vertex_record` or a
    :func:`typed_formatter` of it and ``edge_codec`` is ``flat``: one
    ``unpack`` and one ``%`` per vertex, weights by ``%r`` as
    :func:`_format_edges` writes a float. ``None`` otherwise: such a
    formatter gets the decoded record."""
    if not edge_codec.flat:
        return None
    if format_record is format_vertex_record:
        value_text = _format_number
    elif (
        isinstance(format_record, partial)
        and format_record.func is format_vertex_record
        and not format_record.args
        and set(format_record.keywords) == {"value_formatter"}
    ):
        value_text = format_record.keywords["value_formatter"] or _format_number
    else:
        return None
    loads_flat = edge_codec.loads_flat

    def format_image(vertex):
        vid, value, image = vertex
        flat = loads_flat(image)
        head = (vid, "_" if value is None else value_text(value))
        return (("%d %s" + " %d:%r" * (len(flat) >> 1)) % (head + flat)).rstrip()

    return format_image


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
                parsed = parse_line(line)
                if parsed is not None:
                    vertices.append(parsed)
    return vertices


def _adjacency_parsers(parse_line):
    """``(value_parser, weight_parser)`` when ``parse_line`` is
    :func:`parse_adjacency_line` or a :func:`typed_parser` of it."""
    if parse_line is parse_adjacency_line:
        return float, float
    if (
        isinstance(parse_line, partial)
        and parse_line.func is parse_adjacency_line
        and not parse_line.args
    ):
        keywords = parse_line.keywords
        return keywords.get("value_parser", float), keywords.get("weight_parser", float)
    return None


def _parse_each(parse_line, dump_edges, lines, tuples=None):
    """The loader tuples of ``lines``, each through ``parse_line``;
    appended to ``tuples`` when given."""
    tuples = [] if tuples is None else tuples
    for line in lines:
        if line.strip():
            parsed = parse_line(line)
            if parsed is not None:
                vid, value, edges = parsed
                tuples.append((encode_key(vid), value, dump_edges(edges)))
    return tuples


def _parse_adjacency(value_parser, dumps_flat, fallback, lines):
    """The loader tuples of ``lines`` under :func:`parse_adjacency_line`
    with float weights. A line is taken apart by one ``split`` of the line
    with its colons as blanks; the pieces stand for the line only when
    ``<vid> <value> <dest>:<weight> ...`` rebuilt from them is the line
    (its blanks normalized): every edge token then has exactly one colon
    and text on both sides of it, and vid and value have none. Any other
    line, and any line a conversion fails on, goes to ``fallback``."""
    tuples = []
    for line in lines:
        fields = line.replace(":", " ").split()
        edges = fields[2:]
        if len(fields) >= 2 and not len(edges) & 1:
            rebuilt = ("%s %s" + " %s:%s" * (len(edges) >> 1)) % tuple(fields)
            if rebuilt == line or rebuilt == " ".join(line.split()):
                try:
                    edges[0::2] = map(int, edges[0::2])
                    edges[1::2] = map(float, edges[1::2])
                    value = fields[1]
                    tuples.append((
                        encode_key(int(fields[0])),
                        None if value == "_" else value_parser(value),
                        dumps_flat(edges),
                    ))
                    continue
                except Exception:
                    pass  # the reference parser raises, or loads the line
        fallback([line], tuples)
    return tuples


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
