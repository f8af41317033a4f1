"""One iteration's interaction graph as objects, for library callers, and
its DOT rendering.  The graph rule itself is ``pipeline.iteration_row``."""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence

from .ingest import EDGE_KINDS, IterationBatch
from .pipeline import iteration_row

_BARE_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


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


def _dot_id(name: str) -> str:
    if _BARE_ID_RE.fullmatch(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(nodes: Iterable[str], edges: Iterable[Sequence[str]]) -> str:
    """Render a graph in DOT, canonically ordered.

    ``edges`` are (source, target, kind, ...) tuples, such as a
    ConversationGraph's Edges; nothing past the kind is printed.  Nodes
    appear sorted, then edges sorted, so two graphs that are equal up to
    edge order render to identical bytes.
    """
    lines = ["digraph {"]
    lines += [f"  {_dot_id(node)};" for node in sorted(nodes)]
    lines += [
        f"  {_dot_id(source)} -> {_dot_id(target)} [label={_dot_id(kind)}];"
        for source, target, kind, *_ in sorted(edges)
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
