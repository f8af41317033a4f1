"""Directed interaction graph built from a batch of statuses.

Nodes are normalized user handles.  Every reference a status makes (reply,
mention, retweet, quote) becomes one edge from the status's author to the
referenced user, so the graph is a multigraph and may contain self-loops.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .ingest import EDGE_KINDS, IterationBatch, edge_kind_set

_BARE_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Edge(NamedTuple):
    source: str
    target: str
    kind: str
    status_id: str


@dataclass(frozen=True)
class ConversationGraph:
    """Immutable snapshot of who referenced whom."""

    nodes: frozenset[str]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", tuple(Edge(*e) for e in self.edges))
        for edge in self.edges:
            if edge.source not in self.nodes or edge.target not in self.nodes:
                raise ValueError(f"edge endpoint missing from node set: {edge}")
            if edge.kind not in EDGE_KINDS:
                raise ValueError(f"unknown edge kind: {edge.kind!r}")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_graph(
    batch: IterationBatch,
    kinds: Iterable[str] = EDGE_KINDS,
    include_isolates: bool = True,
) -> ConversationGraph:
    """Assemble the interaction graph for one iteration.

    ``kinds`` selects which reference kinds become edges.  Referenced users
    are always nodes; authors whose statuses produce no selected edge are
    nodes only when ``include_isolates`` is set.
    """
    kindset = edge_kind_set(kinds)
    nodes: set[str] = set()
    edges: list[Edge] = []
    for status in batch.statuses:
        for kind, target in status.references():
            if kind not in kindset:
                continue
            edges.append(Edge(status.author, target, kind, status.id))
            nodes.add(status.author)
            nodes.add(target)
        if include_isolates:
            nodes.add(status.author)
    return ConversationGraph(nodes=frozenset(nodes), edges=tuple(edges))


def _dot_id(name: str) -> str:
    if _BARE_ID_RE.fullmatch(name):
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
