from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from threadknit.config import EDGE_KINDS
from threadknit.ingest import Status
from threadknit.pipeline import export_dot, iteration_row

from conftest import make_status
from oracles import reference_graph

handles = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)


def row_of(statuses, kinds=EDGE_KINDS, include_isolates=True):
    """(node set, named edges) of the statuses' iteration row."""
    row = iteration_row(statuses, kinds, include_isolates)
    return set(row.nodes), named_edges(row)


class TestIterationRow:
    def test_mention_becomes_directed_edge(self):
        nodes, edges = row_of([make_status(1, "alice", mentions=("bob",))])
        assert nodes == {"alice", "bob"}
        assert edges == [("alice", "bob", "mention")]

    def test_reciprocal_replies_form_two_edges(self):
        _, edges = row_of(
            [
                make_status(1, "a", reply_to="b"),
                make_status(2, "b", reply_to="a"),
            ]
        )
        assert set(edges) == {
            ("a", "b", "reply"),
            ("b", "a", "reply"),
        }

    def test_self_reference_kept_as_loop(self):
        nodes, edges = row_of([make_status(1, "a", mentions=("a",))])
        assert edges == [("a", "a", "mention")]
        assert nodes == {"a"}

    def test_isolated_author_included_by_default(self):
        assert row_of([make_status(1, "loner")])[0] == {"loner"}

    def test_isolated_author_dropped_when_disabled(self):
        statuses = [make_status(1, "loner"), make_status(2, "a", mentions=("b",))]
        nodes, _ = row_of(statuses, include_isolates=False)
        assert nodes == {"a", "b"}

    def test_referenced_user_is_node_even_without_own_status(self):
        assert "ghost" in row_of([make_status(1, "a", retweet_of="ghost")])[0]

    def test_kind_filter(self):
        statuses = [make_status(1, "a", reply_to="b", mentions=("c",), quote_of="d")]
        nodes, edges = row_of(statuses, kinds=("reply",))
        assert [kind for _, _, kind in edges] == ["reply"]
        assert nodes == {"a", "b"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            iteration_row([], ("telepathy",), True)
        with pytest.raises(ValueError):
            iteration_row([], (), True)

    def test_one_edge_per_reference_per_status(self):
        statuses = [
            make_status(1, "a", mentions=("b", "b")),
            make_status(2, "a", mentions=("b",)),
        ]
        # a multigraph: repeated references all materialize
        assert len(row_of(statuses)[1]) == 3


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
        assert export_dot(frozenset(), ()) == "digraph {\n}\n"

    def test_single_edge_contains_arrow(self):
        dot = export_dot(frozenset({"a", "b"}), [("a", "b", "mention")])
        assert "a -> b" in dot
        assert dot.startswith("digraph {\n")

    def test_non_identifier_names_quoted(self):
        dot = export_dot(frozenset({"1user", 'we"ird'}), [("1user", 'we"ird', "reply")])
        assert '"1user"' in dot
        assert '"we\\"ird"' in dot

    def test_dot_keywords_quoted(self):
        edges = [("node", "Graph", "mention"), ("STRICT", "edge", "reply")]
        assert export_dot({"node", "Graph", "STRICT", "edge"}, edges) == (
            'digraph {\n  "Graph";\n  "STRICT";\n  "edge";\n  "node";\n'
            '  "STRICT" -> "edge" [label=reply];\n  "node" -> "Graph" [label=mention];\n}\n'
        )

    def test_edge_order_normalized(self):
        edges = [
            ("a", "b", "mention"),
            ("a", "a", "reply"),
            ("b", "a", "quote"),
            ("a", "b", "mention"),
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
        triples = [(source, target, kind) for source, target, kind, _ in edges]
        assert export_dot({"a", "b"}, edges) == export_dot(["b", "a"], triples) == (
            "digraph {\n  a;\n  b;\n  a -> b [label=mention];\n  b -> a [label=reply];\n}\n"
        )
