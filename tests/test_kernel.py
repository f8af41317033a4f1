"""The one iteration reader against the reference graph rule.

``read_iteration``'s row must equal, for every iteration file, the graph of
``oracles.reference_graph`` over ``fixture_records``' records, and what
analyze and export take from it must equal the closure counts, the mean
score of the records' texts and the DOT of that reference graph, under every
edge-kind selection with isolates on and off.  A malformed file must fail
with the same ``error:`` line and exit code as before, and neither analyze
nor export may build a status or graph object through the object view.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from dataclasses import replace

import pytest

# loaded here, so that the guards below patch its names too
import threadknit.graph  # noqa: F401
import threadknit.pipeline as pipeline_module
from threadknit.cli import main
from threadknit.components import ComponentSummary, component_counts
from threadknit.config import EDGE_KINDS, RunConfig, load_config
from threadknit.ingest import fixture_records
from threadknit.pipeline import export_dot, export_graphs, iteration_files, read_iteration
from threadknit.sentiment import mean_score
from threadknit.synth import write_fixture_tree

from conftest import CLI_GROUPS, PERFBENCH_GROUPS, tree_digest
from oracles import closure_component_counts, reference_graph

CONFIG = """\
[run]
fixtures = fixtures
output = out
per_iteration_count = 40
iterations = 3
seed = 5

[groups]
topical = Alpha, Beta, Gamma
"""

KIND_SUBSETS = [
    subset
    for size in range(1, len(EDGE_KINDS) + 1)
    for subset in itertools.combinations(EDGE_KINDS, size)
]


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "run.ini").write_text(CONFIG, encoding="utf-8")
    assert main(["synth", "--config", str(tmp_path / "run.ini")]) == 0
    return tmp_path


def mixed_records(seed, count):
    """Records using every reference kind, with handles spelled in several
    ways, self-references, repeats and authors that reference nobody."""
    rng = random.Random(seed)
    handles = [f"User{k}" for k in range(count // 3 + 2)]

    def spelled(handle):
        return rng.choice([handle, handle.lower(), "@" + handle, f" @{handle.upper()} "])

    words = ["love", "hate", "good", "it’s", "rock'n'roll", "naïve", "@x", "https://t.co/z"]
    records = []
    for k in range(count):
        author = rng.choice(handles)
        record = {
            "id": f"s{k}",
            "text": " ".join(rng.choices(words, k=rng.randint(0, 6))),
            "author": spelled(author),
        }
        if rng.random() < 0.4:
            record["reply_to"] = spelled(rng.choice(handles))
        if rng.random() < 0.5:
            record["mentions"] = [spelled(rng.choice(handles)) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            record["retweet_of"] = spelled(rng.choice(handles + [author]))
        if rng.random() < 0.2:
            record["quote_of"] = spelled(author)
        records.append(record)
    return records


def write_lines(path, lines):
    path.write_text(
        "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines),
        encoding="utf-8",
    )


def reference_path(path, index, config, lexicon):
    """The reference graph of the file's records under the config's edge
    kinds and isolates rule, with its closure counts and the mean score of
    the records' texts."""
    records = list(fixture_records(path))
    nodes, edges = reference_graph(records, config.edge_kinds, config.include_isolates)
    counts = closure_component_counts(nodes, [(source, target) for source, target, _ in edges])
    alpha = mean_score([fields[1] for fields in records], lexicon, path.parent.name, index)
    return (nodes, edges), ComponentSummary(*counts), alpha


def row_path(path, index, config, lexicon):
    """The row's graph with node numbers mapped back to handles, and what
    analyze takes from the row: counts and alpha."""
    row = read_iteration(path, config)
    named = [(row.nodes[source], row.nodes[target], kind) for source, target, kind in row.edges]
    return (
        (set(row.nodes), named),
        ComponentSummary(*component_counts(len(row.nodes), row.edges)),
        mean_score(row.texts, lexicon, path.parent.name, index),
    )


def selections(config):
    """The config under every edge-kind selection, isolates on and off."""
    for kinds, isolates in itertools.product(KIND_SUBSETS, (True, False)):
        yield replace(config, edge_kinds=kinds, include_isolates=isolates)


# the object view, which only perfbench/test_perfbench.py still calls
OBJECT_VIEW = (
    "Edge", "ConversationGraph", "build_graph", "IterationBatch", "parse_fixture",
    "component_summary", "batch_alpha",
)


def refuse_everywhere(monkeypatch, names):
    """Each name, in every loaded threadknit module, replaced by a function
    that fails the test when called."""

    def refuse(*args, **kwargs):
        raise AssertionError("a stage built a status or graph object, or scored text")

    loaded = [module for name, module in sys.modules.items() if name.split(".")[0] == "threadknit"]
    for module in loaded:
        for name in names:
            monkeypatch.setattr(module, name, refuse, raising=False)


class TestAgreesWithTheReferenceGraph:
    def test_every_synth_iteration_and_kind_selection(self, tree, lexicon):
        config = load_config(tree / "run.ini")
        checked = 0
        for kind, subject in config.subjects():
            for index, path in iteration_files(config, kind, subject):
                for selected in selections(config):
                    expected = reference_path(path, index, selected, lexicon)
                    got = row_path(path, index, selected, lexicon)
                    assert got == expected, (path, selected.edge_kinds, selected.include_isolates)
                    checked += 1
        assert checked == 3 * 3 * len(KIND_SUBSETS) * 2

    @pytest.mark.parametrize("seed", range(6))
    def test_every_reference_kind_mixed(self, tree, lexicon, seed):
        config = load_config(tree / "run.ini")
        index, path = iteration_files(config, "topical", "Alpha")[1]
        write_lines(path, mixed_records(seed, 40))
        for selected in selections(config):
            expected = reference_path(path, index, selected, lexicon)
            assert row_path(path, index, selected, lexicon) == expected

    def test_analyze_builds_no_objects(self, tree, monkeypatch):
        write_lines(tree / "fixtures" / "topical" / "alpha" / "iter_002", mixed_records(1, 40))
        config = str(tree / "run.ini")
        assert main(["analyze", "--config", config, "--out", str(tree / "plain")]) == 0
        refuse_everywhere(monkeypatch, ("Status", *OBJECT_VIEW))
        assert main(["analyze", "--config", config, "--jobs", "1"]) == 0
        assert tree_digest(tree / "out") == tree_digest(tree / "plain")


class TestExportAgreesWithTheReferenceGraph:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_reference_kind_mixed(self, tree, seed):
        config = load_config(tree / "run.ini")
        path = iteration_files(config, "topical", "Alpha")[-1][1]
        write_lines(path, mixed_records(seed, 40))
        written = tree / "out" / "graphs" / "topical" / "alpha.dot"
        for kinds, isolates in itertools.product(KIND_SUBSETS, (True, False)):
            export_graphs(replace(config, edge_kinds=kinds, include_isolates=isolates))
            expected = export_dot(*reference_graph(list(fixture_records(path)), kinds, isolates))
            assert written.read_text(encoding="utf-8") == expected, (kinds, isolates)

    def test_export_builds_no_objects_and_scores_no_text(self, tree, monkeypatch):
        refuse_everywhere(monkeypatch, ("Status", "score_text", *OBJECT_VIEW))
        write_lines(tree / "fixtures" / "topical" / "alpha" / "iter_002", mixed_records(1, 40))
        assert main(["export", "--config", str(tree / "run.ini")]) == 0
        assert len(list((tree / "out" / "graphs" / "topical").iterdir())) == 3


PINNED_GRAPHS = {
    "perfbench-seed-0": (PERFBENCH_GROUPS, 950, 25, 0, 24,
        "bf0e5830bf908ac3ab3893073a0135d3c0797a13fe2694d15cc7b982d9ab1195"),
    "cli-config": (CLI_GROUPS, 40, 3, 11, 8,
        "0f806cc38914c21516862ccdea48ff7ee5025b48563e5a630a5ead75f172a152"),
}


@pytest.mark.parametrize(
    "pooled, groups, per_iteration_count, iterations, seed, files, digest",
    [(pooled, *tree) for pooled in (False, True) for tree in PINNED_GRAPHS.values()],
    ids=[name + ("-pooled" if pooled else "") for pooled in (False, True) for name in PINNED_GRAPHS],
)
def test_export_bytes_are_pinned(
    tmp_path, monkeypatch, two_cores,
    pooled, groups, per_iteration_count, iterations, seed, files, digest,
):
    """export's graphs/ tree for two of the synth trees that
    tests/test_synth.py pins; digests taken from the object path.  A pool
    forced onto the small trees writes the same bytes."""
    config = RunConfig(
        fixtures_dir=tmp_path / "fixtures",
        output_dir=tmp_path / "out",
        groups=groups,
        per_iteration_count=per_iteration_count,
        iterations=iterations,
        seed=seed,
    )
    write_fixture_tree(config)
    if pooled:
        monkeypatch.setattr(pipeline_module, "_EXPORT_BYTES_PER_WORKER", 1)
    export_graphs(config)
    assert tree_digest(tmp_path / "out" / "graphs") == (files, digest)


GOOD = {"id": "z1", "text": "fine", "author": "zed"}


def record(**fields):
    return {"id": "z2", "text": "hi", **fields}


MENTIONS_ERROR = ":2: field 'mentions' must be a list of handles"
ID_ERROR = ":2: field 'id' must be a string or an integer"

# (name, replacement file content, expected error after "<path>")
MALFORMED = [
    (
        "bad JSON line",
        [GOOD, "{not json"],
        ":2: invalid JSON: Expecting property name enclosed in double quotes",
    ),
    ("missing field", [GOOD, record()], ":2: missing field 'author'"),
    ("bad handle", [GOOD, record(author="two words")], ":2: invalid user handle: 'two words'"),
    # valid JSON, but no UTF-8 file, such as a DOT graph, can hold the handle
    (
        "surrogate handle",
        [GOOD, record(author="x\ud800")],
        ":2: invalid user handle: 'x\\ud800'",
    ),
    (
        "bad created_at",
        [GOOD, record(author="a", created_at="yesterday")],
        ":2: Invalid isoformat string: 'yesterday'",
    ),
    ("empty file", [], ": subject 'Alpha' iteration 1: sentiment undefined for an empty batch"),
    ("over per_iteration_count", [GOOD] * 41, ": batch exceeds per_iteration_count: 41 > 40"),
    (
        "created_at outside UTC range",
        [GOOD, record(author="a", created_at="0001-01-01T00:00:00+01:00")],
        ":2: created_at out of range in UTC: '0001-01-01T00:00:00+01:00'",
    ),
    # a JSON integer is not a date, though its digits read as one (2022-12-25)
    (
        "integer created_at",
        [GOOD, record(author="a", created_at=20221225)],
        ":2: field 'created_at' must be a string or null",
    ),
    # handles must be strings, not stringified into nodes such as 'none'
    ("null mention", [GOOD, record(author="a", mentions=[None])], MENTIONS_ERROR),
    ("numeric mention", [GOOD, record(author="a", mentions=["b", 5])], MENTIONS_ERROR),
    ("list mention", [GOOD, record(author="a", mentions=[["b"]])], MENTIONS_ERROR),
    # only an absent field or null is unset: JSON's other falsy values are not
    ("false mentions", [GOOD, record(author="a", mentions=False)], MENTIONS_ERROR),
    ("zero mentions", [GOOD, record(author="a", mentions=0)], MENTIONS_ERROR),
    ("empty-string mentions", [GOOD, record(author="a", mentions="")], MENTIONS_ERROR),
    ("empty-object mentions", [GOOD, record(author="a", mentions={})], MENTIONS_ERROR),
    (
        "empty created_at",
        [GOOD, record(author="a", created_at="")],
        ":2: Invalid isoformat string: ''",
    ),
    ("null author", [GOOD, record(author=None)], ":2: field 'author' must be a string"),
    ("numeric author", [GOOD, record(author=5)], ":2: field 'author' must be a string"),
    ("null id", [GOOD, record(author="a", id=None)], ID_ERROR),
    ("boolean id", [GOOD, record(author="a", id=True)], ID_ERROR),
    ("float id", [GOOD, record(author="a", id=1.5)], ID_ERROR),
]


class TestMalformedFixtures:
    @pytest.mark.parametrize(
        "lines, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_same_error_line_and_exit_code(self, tree, capsys, lines, message):
        path = tree / "fixtures" / "topical" / "alpha" / "iter_001"
        write_lines(path, lines)
        capsys.readouterr()
        assert main(["analyze", "--config", str(tree / "run.ini")]) == 2
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id": 1' + "0" * 5000 + ', "text": "hi", "author": "a"}', "integer too long"),
            ("[" * 100_000, "nesting too deep"),
        ],
        ids=["integer too long", "nesting too deep"],
    )
    def test_json_the_decoder_cannot_hold(self, tree, capsys, line, message):
        path = tree / "fixtures" / "topical" / "alpha" / "iter_001"
        write_lines(path, [GOOD, line])
        capsys.readouterr()
        assert main(["analyze", "--config", str(tree / "run.ini")]) == 2
        err = capsys.readouterr().err
        # no advice a CLI user cannot follow, such as sys.set_int_max_str_digits()
        assert err == f"error: {path}:2: invalid JSON: {message}\n"
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("command", ["analyze", "export"])
    @pytest.mark.parametrize(
        "name, lines, message",
        [
            ("iter_404", [GOOD], ": iteration index 404 outside plan of 3"),
            # the final iteration, which export reads too
            ("iter_002", [GOOD] * 41, ": batch exceeds per_iteration_count: 41 > 40"),
        ],
        ids=["outside the plan", "over per_iteration_count"],
    )
    def test_plan_checked_by_analyze_and_export(self, tree, capsys, command, name, lines, message):
        path = tree / "fixtures" / "topical" / "alpha" / name
        write_lines(path, lines)
        before = tree_digest(tree)
        capsys.readouterr()
        assert main([command, "--config", str(tree / "run.ini")]) == 2
        assert capsys.readouterr().err == f"error: {path}{message}\n"
        assert tree_digest(tree) == before

    @pytest.mark.parametrize("command", ["analyze", "export"])
    @pytest.mark.parametrize(
        "removed", [("iter_001",), ("iter_002", "iter_000"), ("iter_002",)], ids=" ".join
    )
    def test_every_planned_iteration_is_required(self, tree, capsys, command, removed):
        directory = tree / "fixtures" / "topical" / "alpha"
        for name in removed:
            (directory / name).unlink()
        before = tree_digest(tree)
        capsys.readouterr()
        assert main([command, "--config", str(tree / "run.ini")]) == 2
        first = directory / min(removed)
        assert capsys.readouterr().err == f"error: {first}: missing; the plan has 3 iterations\n"
        assert tree_digest(tree) == before

    def test_surrogate_handle_in_final_iteration_is_one_export_error(self, tree, capsys):
        path = tree / "fixtures" / "topical" / "alpha" / "iter_002"
        write_lines(path, [GOOD, record(author="x\ud800")])
        capsys.readouterr()
        assert main(["export", "--config", str(tree / "run.ini")]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: invalid user handle: 'x\\ud800'\n"
        assert not (tree / "out" / "graphs").exists()

    def test_undecodable_bytes(self, tree, capsys):
        path = tree / "fixtures" / "topical" / "alpha" / "iter_001"
        path.write_bytes(b'{"id": "z1", "text": "\xff", "author": "zed"}\n')
        capsys.readouterr()
        assert main(["analyze", "--config", str(tree / "run.ini")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode") and err.count("\n") == 1
