"""The nested relational schema that models Pregel state (paper Table 1).

``Vertex (vid, halt, value, edges)`` — one row per vertex.
``Msg (vid, payload)`` — combined messages addressed to ``vid``.
``GS (halt, aggregate, superstep)`` — the single-row global state.

This module is the schema: the record types, their serdes built from
the user-selected value/edge serdes, and the row codecs. Where a run's
relations live and who reads or writes a row is
:mod:`repro.pregelix.relations`, the only caller of the codecs here.
"""

from dataclasses import dataclass, field, replace

from repro.common import serde
from repro.pregelix.api import Edge


@dataclass
class VertexRecord:
    """A decoded row of the ``Vertex`` relation."""

    vid: int
    halt: bool = False
    value: object = None
    edges: list = field(default_factory=list)

    def copy(self):
        return replace(self, edges=list(self.edges))


def edge_list_serde(edge_serde):
    """Serde for a vertex row's ``[(target, value), ...]`` edge list.

    Edge lists dominate vertex rows, so ``layout_fixed`` edge values are
    packed without per-element framing (16 bytes per edge for float
    weights) and decode straight to :class:`~repro.pregelix.api.Edge`.
    """
    if edge_serde.layout_fixed:
        return serde.PackedListSerde(
            serde.FixedPairSerde(serde.INT64, edge_serde, pair_type=Edge)
        )
    return serde.ListSerde(serde.PairSerde(serde.INT64, edge_serde))


def _row_serde(value_serde, edges):
    # THE row layout. The vid is the index key and is not repeated here.
    return serde.TupleSerde(serde.BOOL, serde.OptionalSerde(value_serde), edges)


def vertex_value_serde(value_serde, edge_serde):
    """Serde for the stored portion of a vertex row: (halt, value, edges)."""
    return _row_serde(value_serde, edge_list_serde(edge_serde))


def opened_vertex_serde(value_serde):
    """The same row with the edge list left as the bytes it is stored as
    (its *image*, what :func:`edge_list_serde` dumps): ``(halt, value,
    edge image)``. Every field sits behind its length, so a row is opened
    and written back without decoding an edge."""
    return _row_serde(value_serde, serde.BYTES)


def encode_vertex(codec, record):
    """Serialize a :class:`VertexRecord`'s stored fields."""
    return codec.dumps((record.halt, record.value, record.edges))


def decode_vertex(codec, vid, data):
    """Rebuild a :class:`VertexRecord` from key and stored bytes."""
    halt, value, edges = codec.loads(data)
    return VertexRecord(vid=vid, halt=halt, value=value, edges=edges)


@dataclass
class GlobalState:
    """The ``GS`` relation (one tuple), plus the vertex/edge statistics
    the paper's statistics collector tracks alongside it."""

    halt: bool = False
    aggregate: object = None
    superstep: int = 0
    num_vertices: int = 0
    num_edges: int = 0

    def advanced(self, halt, aggregate, num_vertices, num_edges):
        """The GS tuple for the next superstep."""
        return GlobalState(
            halt=halt,
            aggregate=aggregate,
            superstep=self.superstep + 1,
            num_vertices=num_vertices,
            num_edges=num_edges,
        )


def global_state_serde(aggregate_serde):
    """Serde for the GS tuple stored in (simulated) HDFS."""
    return serde.TupleSerde(
        serde.BOOL,
        serde.OptionalSerde(aggregate_serde),
        serde.INT64,
        serde.INT64,
        serde.INT64,
    )


def encode_global_state(codec, gs):
    return codec.dumps(
        (gs.halt, gs.aggregate, gs.superstep, gs.num_vertices, gs.num_edges)
    )


def decode_global_state(codec, data):
    halt, aggregate, superstep, num_vertices, num_edges = codec.loads(data)
    return GlobalState(
        halt=halt,
        aggregate=aggregate,
        superstep=superstep,
        num_vertices=num_vertices,
        num_edges=num_edges,
    )
