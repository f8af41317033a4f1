"""The streaming per-iteration kernel against the object path.

``iteration_digest`` must give, for every iteration file, exactly the
counts and alpha of ``component_summary(build_graph(parse_fixture(...)))``
and ``batch_alpha``, under every edge-kind selection, and must fail on a
malformed file with the same ``error:`` line and exit code as before.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from threadknit.cli import main
from threadknit.components import component_summary
from threadknit.graph import EDGE_KINDS, build_graph
from threadknit.ingest import load_config, parse_fixture
from threadknit.pipeline import iteration_digest, iteration_files
from threadknit.sentiment import batch_alpha

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


def object_path(path, spec, index, kinds, include_isolates, lexicon):
    batch = parse_fixture(path, spec=spec, index=index)
    graph = build_graph(batch, kinds=kinds, include_isolates=include_isolates)
    return component_summary(graph), batch_alpha(batch, lexicon)


class TestAgreesWithTheObjectPath:
    def test_every_synth_iteration_and_kind_selection(self, tree, lexicon):
        config = load_config(tree / "run.ini")
        checked = 0
        for kind, subject in config.subjects():
            spec = config.spec_for(kind, subject)
            for index, path in iteration_files(config, kind, subject):
                for kinds, isolates in itertools.product(KIND_SUBSETS, (True, False)):
                    expected = object_path(path, spec, index, kinds, isolates, lexicon)
                    got = iteration_digest(path, spec, index, kinds, isolates, lexicon)
                    assert got == expected, (path, kinds, isolates)
                    checked += 1
        assert checked == 3 * 3 * len(KIND_SUBSETS) * 2

    @pytest.mark.parametrize("seed", range(6))
    def test_every_reference_kind_mixed(self, tree, lexicon, seed):
        config = load_config(tree / "run.ini")
        spec = config.spec_for("topical", "Alpha")
        index, path = iteration_files(config, "topical", "Alpha")[1]
        write_lines(path, mixed_records(seed, 40))
        for kinds, isolates in itertools.product(KIND_SUBSETS, (True, False)):
            expected = object_path(path, spec, index, kinds, isolates, lexicon)
            assert iteration_digest(path, spec, index, kinds, isolates, lexicon) == expected


GOOD = {"id": "z1", "text": "fine", "author": "zed"}


def record(**fields):
    return {"id": "z2", "text": "hi", **fields}


# (name, replacement file content, expected error after "<path>")
MALFORMED = [
    (
        "bad JSON line",
        [GOOD, "{not json"],
        ":2: invalid JSON: Expecting property name enclosed in double quotes",
    ),
    ("missing field", [GOOD, record()], ":2: missing field 'author'"),
    ("bad handle", [GOOD, record(author="two words")], ":2: invalid user handle: 'two words'"),
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

    def test_undecodable_bytes(self, tree, capsys):
        path = tree / "fixtures" / "topical" / "alpha" / "iter_001"
        path.write_bytes(b'{"id": "z1", "text": "\xff", "author": "zed"}\n')
        capsys.readouterr()
        assert main(["analyze", "--config", str(tree / "run.ini")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode") and err.count("\n") == 1
