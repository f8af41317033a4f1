"""One iteration's interaction graph as objects, for library callers.  The
graph rule is ``pipeline.iteration_row``, and its DOT rendering ``export_dot``."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .config import EDGE_KINDS
from .ingest import IterationBatch
# export_dot is re-exported for library callers and for perfbench's tracing, which wraps it here
from .pipeline import export_dot, iteration_row


class Edge(NamedTuple):
    source: str
    target: str
    kind: str


class ConversationGraph(NamedTuple):
    """Who referenced whom: handles, and one Edge per selected reference in file order."""

    nodes: frozenset[str]
    edges: tuple[Edge, ...]


def build_graph(
    batch: IterationBatch,
    kinds: Iterable[str] = EDGE_KINDS,
    include_isolates: bool = True,
) -> ConversationGraph:
    """The interaction graph of one iteration: ``iteration_row`` of the
    batch's statuses, with node numbers mapped back to handles."""
    _, names, edges = iteration_row(batch.statuses, kinds, include_isolates)
    return ConversationGraph(
        frozenset(names), tuple(Edge(names[s], names[t], kind) for s, t, kind in edges)
    )
