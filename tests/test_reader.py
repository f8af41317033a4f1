"""The streamed fixture reader against json.loads and the reference graph.

``ingest._decode`` must give what ``json.loads`` gives for any line: the
same value, or the same exception type and message.  ``read_iteration``,
which builds its row as the records stream, must equal
``oracles.reference_graph`` over ``fixture_records``' records on every file
of a tree from perfbench's paper generator and of a ``synth`` tree, and
every ``created_at`` either generator writes must be a form the reader
takes.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from threadknit.config import EDGE_KINDS, RunConfig
from threadknit.ingest import _TIMESTAMP_RE, _decode, fixture_records
from threadknit.pipeline import iteration_files, read_iteration
from threadknit.synth import write_fixture_tree

from conftest import PERFBENCH_GROUPS
from oracles import reference_graph
from test_cli import SEED_VALUES
from test_kernel import GOOD, MALFORMED

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def outcome(decode, line):
    """("value", repr of the value) or (exception type, message); repr
    tells 1 from 1.0 and True, and compares NaN."""
    try:
        return "value", repr(decode(line))
    except (ValueError, RecursionError) as err:
        return type(err), str(err)


LINES = [
    *(
        line if isinstance(line, str) else json.dumps(line)
        for _, lines, _ in MALFORMED
        for line in lines
    ),
    *SEED_VALUES,
    *(json.dumps(GOOD)[:-1] + f', "created_at": {value}}}' for value in SEED_VALUES),
    "{", "[]", "[" * 100_000, "",
    # json.loads skips whitespace around the value; the scanner alone does not
    " " + json.dumps(GOOD), json.dumps(GOOD) + " ", "\t1\r", "\n[]\n", " ",
    "\ufeff" + json.dumps(GOOD), "\u2028" + json.dumps(GOOD),
    # valid JSON only when joined
    "[1", "2], 5", '{"a": [{"q": 1}', '{"r": 2}]}, {"b": 1}',
    "1" + "0" * 5000, '{"id": 1' + "0" * 5000 + ', "text": "hi", "author": "a"}',
    "NaN", "[NaN, Infinity, -Infinity]", "-Infinity", "nan",
    json.dumps({**GOOD, "text": "a\u2028b"}, ensure_ascii=False), '"\\ud800"', '"\ud800"',
    "1 2", "{} {}", "{}}", '"unterminated', "[1,]", '{"a" 1}', "tru", "01", "-", "1.", "1e",
]

TOKENS = st.sampled_from(
    [
        "{", "}", "[", "]", ":", ",", '"', '"a"', '"\\u2028"', '"\\ud800"', "\\", "0", "1",
        "-", ".", "e", "+", "12", "1.5e3", "true", "false", "null", "NaN", "Infinity",
        " ", "\t", "\n", "\r", "\ufeff", "\u2028", "\u00e9",
    ]
)
JSON_LIKE = st.one_of(
    st.lists(TOKENS, max_size=20).map("".join),
    st.builds(
        json.dumps,
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        ),
    ),
    st.text(max_size=20),
)


class TestDecode:
    @pytest.mark.parametrize("line", LINES)
    def test_same_outcome_as_json_loads(self, line):
        assert outcome(_decode, line) == outcome(json.loads, line)

    @given(JSON_LIKE, JSON_LIKE)
    def test_same_outcome_as_json_loads_on_json_like_text(self, first, second):
        for line in (first, first + second, first + " " + second):
            assert outcome(_decode, line) == outcome(json.loads, line)


def _paperfixtures():
    """perfbench's paper generator, which imports nothing from the program."""
    if "paperfixtures" not in sys.modules:
        path = PERFBENCH / "paperfixtures.py"
        spec = importlib.util.spec_from_file_location("paperfixtures", path)
        module = sys.modules["paperfixtures"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["paperfixtures"]


@pytest.fixture(scope="module", params=["paper", "synth"])
def tree(request, tmp_path_factory):
    """The config of a two-iteration tree in the perfbench groups: from
    perfbench's paper generator, or from synth."""
    root = tmp_path_factory.mktemp(request.param)
    config = RunConfig(
        fixtures_dir=root / "fixtures",
        output_dir=root / "out",
        groups=PERFBENCH_GROUPS,
        per_iteration_count=950,
        iterations=2,
        seed=1,
    )
    if request.param == "paper":
        paperfixtures = _paperfixtures()
        lexicon = paperfixtures.read_lexicon(PERFBENCH.parent / "src/threadknit/data/lexicon.tsv")
        paperfixtures.PaperGenerator(lexicon).write_tree(config.fixtures_dir, 1, 2)
    else:
        write_fixture_tree(config)
    return config


def tree_files(config):
    for kind, subject in config.subjects():
        for _, path in iteration_files(config, kind, subject):
            yield path


class TestStreamedReader:
    def test_rows_equal_the_reference_graph(self, tree):
        selections = [(EDGE_KINDS, True), (EDGE_KINDS, False), (("mention", "quote"), False)]
        files = list(tree_files(tree))
        assert len(files) == 48
        for path, (kinds, isolates) in itertools.product(files, selections):
            records = list(fixture_records(path))
            row = read_iteration(path, replace(tree, edge_kinds=kinds, include_isolates=isolates))
            named = [(row.nodes[s], row.nodes[t], kind) for s, t, kind in row.edges]
            assert (set(row.nodes), named) == reference_graph(records, kinds, isolates)
            assert len(row.nodes) == len(set(row.nodes))
            assert row.texts == [fields[1] for fields in records]

    def test_every_generated_created_at_is_a_documented_form(self, tree):
        stamps = [
            record["created_at"]
            for path in tree_files(tree)
            for line in path.read_text(encoding="utf-8").split("\n")
            if line and "created_at" in (record := json.loads(line))
        ]
        assert stamps
        assert [stamp for stamp in stamps if not _TIMESTAMP_RE.fullmatch(stamp)] == []
