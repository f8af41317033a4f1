"""One iteration's interaction graph as objects, kept for
``perfbench/test_perfbench.py``, which counts a batch's graph through
``build_graph``.  The stages read an iteration through
``pipeline.read_iteration``; the graph rule is ``pipeline.iteration_row``."""

from __future__ import annotations

from typing import NamedTuple

from .config import EDGE_KINDS
from .ingest import IterationBatch
# export_dot is re-exported for perfbench's tracing, which wraps it here
from .pipeline import export_dot, iteration_row


class Edge(NamedTuple):
    source: str
    target: str
    kind: str


class ConversationGraph(NamedTuple):
    """Who referenced whom: handles, and one Edge per reference in file order."""

    nodes: frozenset[str]
    edges: tuple[Edge, ...]


def build_graph(batch: IterationBatch) -> ConversationGraph:
    """The interaction graph of one batch, every edge kind and isolated
    author included: ``iteration_row`` of its statuses, with node numbers
    mapped back to handles.  Kept for ``perfbench/test_perfbench.py``."""
    _, names, edges = iteration_row(batch.statuses, EDGE_KINDS, True)
    return ConversationGraph(
        frozenset(names), tuple(Edge(names[s], names[t], kind) for s, t, kind in edges)
    )
