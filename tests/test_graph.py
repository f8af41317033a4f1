from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from threadknit.graph import ConversationGraph, Edge, build_graph, export_dot
from threadknit.config import EDGE_KINDS
from threadknit.ingest import Status
from threadknit.pipeline import iteration_row

from conftest import make_batch, make_status
from oracles import reference_graph

handles = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)


class TestBuildGraph:
    def test_mention_becomes_directed_edge(self):
        batch = make_batch([make_status(1, "alice", mentions=("bob",))])
        graph = build_graph(batch)
        assert graph.nodes == {"alice", "bob"}
        assert graph.edges == (Edge("alice", "bob", "mention"),)

    def test_reciprocal_replies_form_two_edges(self):
        batch = make_batch(
            [
                make_status(1, "a", reply_to="b"),
                make_status(2, "b", reply_to="a"),
            ]
        )
        graph = build_graph(batch)
        assert set(graph.edges) == {
            Edge("a", "b", "reply"),
            Edge("b", "a", "reply"),
        }

    def test_self_reference_kept_as_loop(self):
        batch = make_batch([make_status(1, "a", mentions=("a",))])
        graph = build_graph(batch)
        assert graph.edges == (Edge("a", "a", "mention"),)
        assert graph.nodes == {"a"}

    def test_isolated_author_included_by_default(self):
        batch = make_batch([make_status(1, "loner")])
        assert build_graph(batch).nodes == {"loner"}

    def test_isolated_author_dropped_when_disabled(self):
        batch = make_batch(
            [make_status(1, "loner"), make_status(2, "a", mentions=("b",))]
        )
        graph = build_graph(batch, include_isolates=False)
        assert graph.nodes == {"a", "b"}

    def test_referenced_user_is_node_even_without_own_status(self):
        batch = make_batch([make_status(1, "a", retweet_of="ghost")])
        assert "ghost" in build_graph(batch).nodes

    def test_kind_filter(self):
        batch = make_batch(
            [make_status(1, "a", reply_to="b", mentions=("c",), quote_of="d")]
        )
        graph = build_graph(batch, kinds=("reply",))
        assert [e.kind for e in graph.edges] == ["reply"]
        assert graph.nodes == {"a", "b"}

    def test_unknown_kind_rejected(self):
        batch = make_batch([])
        with pytest.raises(ValueError):
            build_graph(batch, kinds=("telepathy",))
        with pytest.raises(ValueError):
            build_graph(batch, kinds=())

    def test_one_edge_per_reference_per_status(self):
        batch = make_batch(
            [
                make_status(1, "a", mentions=("b", "b")),
                make_status(2, "a", mentions=("b",)),
            ]
        )
        # a multigraph: repeated references all materialize
        assert len(build_graph(batch).edges) == 3


references_strategy = st.builds(
    Status,
    id=st.from_regex(r"[0-9]{1,6}", fullmatch=True),
    text=st.just("t"),
    author=handles,
    reply_to=st.none() | handles,
    mentions=st.lists(handles, max_size=3).map(tuple),
    retweet_of=st.none() | handles,
    quote_of=st.none() | handles,
)


def named_edges(row):
    return [(row.nodes[source], row.nodes[target], kind) for source, target, kind in row.edges]


class TestGraphInvariants:
    @given(st.lists(references_strategy, max_size=15, unique_by=lambda s: s.id))
    def test_edge_count_equals_reference_count(self, statuses):
        row = iteration_row(statuses, EDGE_KINDS, True)
        assert len(row.edges) == len(reference_graph(statuses, EDGE_KINDS, True)[1])
        assert row.texts == [s.text for s in statuses]

    @given(st.lists(references_strategy, max_size=15, unique_by=lambda s: s.id))
    def test_endpoints_are_nodes_and_isolates_only_grow_node_set(self, statuses):
        with_isolates = iteration_row(statuses, EDGE_KINDS, True)
        without = iteration_row(statuses, EDGE_KINDS, False)
        assert named_edges(with_isolates) == named_edges(without)
        for row in (with_isolates, without):
            # one number per handle, and every edge between numbered nodes
            assert len(set(row.nodes)) == len(row.nodes)
            for source, target, _ in row.edges:
                assert 0 <= source < len(row.nodes) and 0 <= target < len(row.nodes)
        assert set(without.nodes) <= set(with_isolates.nodes)
        assert set(with_isolates.nodes) - set(without.nodes) <= {s.author for s in statuses}


class TestDotExport:
    def test_empty_graph(self):
        graph = ConversationGraph(nodes=frozenset(), edges=())
        assert export_dot(graph.nodes, graph.edges) == "digraph {\n}\n"

    def test_single_edge_contains_arrow(self):
        graph = ConversationGraph(
            nodes=frozenset({"a", "b"}), edges=(Edge("a", "b", "mention"),)
        )
        dot = export_dot(graph.nodes, graph.edges)
        assert "a -> b" in dot
        assert dot.startswith("digraph {\n")

    def test_non_identifier_names_quoted(self):
        graph = ConversationGraph(
            nodes=frozenset({"1user", 'we"ird'}),
            edges=(Edge("1user", 'we"ird', "reply"),),
        )
        dot = export_dot(graph.nodes, graph.edges)
        assert '"1user"' in dot
        assert '"we\\"ird"' in dot

    def test_dot_keywords_quoted(self):
        edges = [Edge("node", "Graph", "mention"), Edge("STRICT", "edge", "reply")]
        assert export_dot({"node", "Graph", "STRICT", "edge"}, edges) == (
            'digraph {\n  "Graph";\n  "STRICT";\n  "edge";\n  "node";\n'
            '  "STRICT" -> "edge" [label=reply];\n  "node" -> "Graph" [label=mention];\n}\n'
        )

    def test_edge_order_normalized(self):
        edges = [
            Edge("a", "b", "mention"),
            Edge("a", "a", "reply"),
            Edge("b", "a", "quote"),
            Edge("a", "b", "mention"),
        ]
        nodes = frozenset({"a", "b"})
        renders = set()
        rng = random.Random(5)
        for _ in range(6):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            renders.add(export_dot(nodes, shuffled))
        assert len(renders) == 1

    def test_status_ids_are_not_printed(self):
        edges = [("b", "a", "reply", "s9"), ("a", "b", "mention", "s1")]
        triples = [Edge(source, target, kind) for source, target, kind, _ in edges]
        assert export_dot({"a", "b"}, edges) == export_dot(["b", "a"], triples) == (
            "digraph {\n  a;\n  b;\n  a -> b [label=mention];\n  b -> a [label=reply];\n}\n"
        )
