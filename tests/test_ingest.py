from __future__ import annotations

import json
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from threadknit.config import EDGE_KINDS, RunConfig, load_config, subject_slug
from threadknit.errors import ConfigError, FixtureError
from threadknit.ingest import (
    QuerySpec,
    Status,
    fixture_records,
    iteration_filename,
    iteration_index,
    normalize_handle,
    subject_dir,
    write_fixture_fields,
)
from threadknit.pipeline import iteration_files, iteration_row, read_iteration

from conftest import make_status
from oracles import reference_fixture_line, reference_graph

handles = st.from_regex(r"[a-z0-9_]{1,12}", fullmatch=True)
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class TestNormalizeHandle:
    def test_strips_sigil_and_case(self):
        assert normalize_handle("@Alice") == "alice"
        assert normalize_handle("  @@Bob_7 ") == "bob_7"

    def test_plain_handle_unchanged(self):
        assert normalize_handle("carol") == "carol"

    @pytest.mark.parametrize("bad", ["", "@", "   ", "a b", "a@b", "a\tb"])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            normalize_handle(bad)

    @given(st.text(min_size=1, max_size=20))
    def test_idempotent(self, raw):
        try:
            once = normalize_handle(raw)
        except ValueError:
            return
        assert normalize_handle(once) == once
        assert once == once.lower()
        assert not once.startswith("@")


def read_statuses(path):
    """The fixture_records of one file, as Statuses."""
    return [Status._make(fields) for fields in fixture_records(path)]


def read_record(tmp_path, **record):
    """The Status of a one-record file."""
    path = tmp_path / "iter_000"
    path.write_text(json.dumps(record), encoding="utf-8")
    (status,) = read_statuses(path)
    return status


class TestStatus:
    def test_normalizes_all_handles(self, tmp_path):
        status = read_record(
            tmp_path,
            id="1",
            text="hi",
            author="@Alice",
            reply_to="@Bob",
            mentions=["@Carol", "Dave"],
            retweet_of="@Erin",
            quote_of="@Frank",
        )
        assert status.author == "alice"
        assert status.reply_to == "bob"
        assert status.mentions == ("carol", "dave")
        assert status.retweet_of == "erin"
        assert status.quote_of == "frank"

    def test_absent_created_at_is_none(self, tmp_path):
        status = read_record(tmp_path, id="1", text="x", author="a")
        assert status.created_at is None
        assert Status(id="1", text="x", author="a") == status
        assert read_record(tmp_path, id="1", text="x", author="a", created_at=None) == status

    def test_naive_timestamp_coerced_to_utc(self, tmp_path):
        status = read_record(tmp_path, id="1", text="x", author="a", created_at="2022-12-25T12:00")
        assert status.created_at.tzinfo == timezone.utc
        assert status.created_at == datetime(2022, 12, 25, 12, 0, tzinfo=timezone.utc)

    def test_reference_order_is_reply_mentions_retweet_quote(self):
        fields = make_status(
            0, "a", reply_to="r", mentions=("m1", "m2"), retweet_of="rt", quote_of="q"
        )
        expected = [
            ("a", "r", "reply"),
            ("a", "m1", "mention"),
            ("a", "m2", "mention"),
            ("a", "rt", "retweet"),
            ("a", "q", "quote"),
        ]
        assert reference_graph([fields], EDGE_KINDS, True)[1] == expected
        row = iteration_row([fields], EDGE_KINDS, True)
        assert [(row.nodes[s], row.nodes[t], kind) for s, t, kind in row.edges] == expected

    def test_requires_id_and_author(self, tmp_path):
        with pytest.raises(FixtureError, match="status id must be nonempty"):
            read_record(tmp_path, id="", text="x", author="a")
        with pytest.raises(FixtureError, match="empty user handle"):
            read_record(tmp_path, id="1", text="x", author="")


def plan_config(tmp_path, **overrides):
    """A config of one subject, topical "Subject", with fixtures under ``tmp_path``."""
    groups = [("topical", ("Subject",))]
    settings = dict(fixtures_dir=tmp_path, output_dir=tmp_path / "out", groups=groups)
    settings.update(overrides)
    return RunConfig(**settings)


def write_records(path, count):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_fixture_fields(path, [make_status(i, "a") for i in range(count)])
    return path


class TestQueryBuilding:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            plan_config(tmp_path, groups=[("regional", ("x",))])


class TestIterationBatch:
    """The plan is checked as analyze and export list and read a subject's
    files under a config."""

    def test_oversized_batch_rejected(self, tmp_path):
        path = write_records(tmp_path / "iter_000", 3)
        with pytest.raises(FixtureError, match="batch exceeds per_iteration_count"):
            read_iteration(path, plan_config(tmp_path, per_iteration_count=2))

    def test_index_must_lie_in_plan(self, tmp_path):
        config = plan_config(tmp_path, iterations=5)
        write_records(subject_dir(tmp_path, "topical", "Subject") / "iter_005", 1)
        with pytest.raises(FixtureError, match="iteration index 5 outside plan of 5"):
            iteration_files(config, "topical", "Subject")

    def test_empty_batch_is_valid(self, tmp_path):
        path = write_records(tmp_path / "iter_000", 0)
        assert read_iteration(path, plan_config(tmp_path)) == ([], [], [])


class TestParseFixture:
    def test_parses_records_in_file_order(self, tmp_path):
        lines = [
            {"id": "1", "text": "hello", "author": "@Alice", "mentions": ["@Bob"]},
            {"id": "2", "text": "again", "author": "bob", "reply_to": "alice"},
            {"id": "3", "text": "solo", "author": "carol", "extra_field": 42},
        ]
        path = tmp_path / "iter_000"
        path.write_text("\n".join(json.dumps(x) for x in lines), encoding="utf-8")
        statuses = read_statuses(path)
        assert [s.id for s in statuses] == ["1", "2", "3"]
        assert statuses[0].author == "alice"
        assert statuses[0].mentions == ("bob",)
        assert iteration_index(path.name) == 0

    def test_integer_id_is_kept_as_text(self, tmp_path):
        path = tmp_path / "iter_000"
        path.write_text(json.dumps({"id": 7, "text": "x", "author": "a"}), encoding="utf-8")
        assert read_statuses(path)[0].id == "7"

    def test_index_comes_from_filename(self):
        assert iteration_index("iter_017") == 17

    def test_empty_file_is_empty_batch(self, tmp_path):
        path = tmp_path / "iter_000"
        path.write_text("", encoding="utf-8")
        assert read_statuses(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "iter_000"
        record = json.dumps({"id": "1", "text": "x", "author": "a"})
        path.write_text(f"\n{record}\n\n", encoding="utf-8")
        assert len(read_statuses(path)) == 1

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "iter_000"
        good = json.dumps({"id": "1", "text": "x", "author": "a"})
        path.write_text(f"{good}\nnot json\n", encoding="utf-8")
        with pytest.raises(FixtureError, match=r":2:"):
            read_statuses(path)

    def test_missing_field_reports_line_and_field(self, tmp_path):
        path = tmp_path / "iter_000"
        path.write_text(json.dumps({"id": "1", "text": "x"}), encoding="utf-8")
        with pytest.raises(FixtureError, match="author"):
            read_statuses(path)

    def test_too_many_records_rejected(self, tmp_path):
        config = plan_config(tmp_path, per_iteration_count=950)
        record = json.dumps({"id": "1", "text": "x", "author": "a"})
        path = tmp_path / "iter_000"
        path.write_text("\n".join([record] * 951), encoding="utf-8")
        with pytest.raises(FixtureError, match="batch exceeds per_iteration_count"):
            read_iteration(path, config)

    def test_missing_file_is_fixture_error(self, tmp_path):
        with pytest.raises(FixtureError):
            read_statuses(tmp_path / "iter_404")

    def test_created_at_variants(self, tmp_path):
        lines = [
            {"id": "1", "text": "x", "author": "a", "created_at": "2022-12-25T10:30:00Z"},
            {"id": "2", "text": "x", "author": "a", "created_at": "2022-12-25T10:30:00+02:00"},
            {"id": "3", "text": "x", "author": "a"},
        ]
        path = tmp_path / "iter_000"
        path.write_text("\n".join(json.dumps(x) for x in lines), encoding="utf-8")
        statuses = read_statuses(path)
        assert statuses[0].created_at == datetime(
            2022, 12, 25, 10, 30, tzinfo=timezone.utc
        )
        assert statuses[1].created_at == datetime(
            2022, 12, 25, 8, 30, tzinfo=timezone.utc
        )
        assert statuses[2].created_at is None

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2022-12-25", datetime(2022, 12, 25)),
            ("2022-12-25T05:06", datetime(2022, 12, 25, 5, 6)),
            ("2022-12-25T05:06:07.25Z", datetime(2022, 12, 25, 5, 6, 7, 250_000)),
            ("2022-12-25T05:06:07-01:30", datetime(2022, 12, 25, 6, 36, 7)),
        ],
    )
    def test_created_at_forms(self, tmp_path, text, expected):
        status = read_record(tmp_path, id="1", text="x", author="a", created_at=text)
        assert status.created_at == expected.replace(tzinfo=timezone.utc)

    @pytest.mark.parametrize(
        "text",
        [
            # an offset only after a time, and only T between date and time
            "2022-12-25+05:00", "2022-12-25x05:00", "2022-12-25Z", "2022-12-25 05:00",
            "2022-12-25t05:00", "2022-12-25T05", "2022-12-25T05:00z",
            "2022-12-25T05:00+0500", "2022-12-25T05:00:00+05:00:30", "2022-12-25T05:00:00,5",
            "20221225", "2022-W52-7", "\u0662022-12-25", " 2022-12-25", "2022-12-25\n",
        ],
    )
    def test_other_created_at_forms_refused(self, tmp_path, text):
        with pytest.raises(FixtureError) as caught:
            read_record(tmp_path, id="1", text="x", author="a", created_at=text)
        assert str(caught.value) == f"{tmp_path / 'iter_000'}:1: Invalid isoformat string: {text!r}"

    def test_spec_inferred_from_layout(self, tmp_path):
        config = plan_config(tmp_path, groups=[("geographic", ("NYC",))], iterations=5)
        for index in range(5):
            write_records(tmp_path / "geographic" / "nyc" / iteration_filename(index), 1)
        index, path = iteration_files(config, "geographic", "NYC")[-1]
        assert path == tmp_path / "geographic" / "nyc" / "iter_004"
        assert index == 4


statuses_strategy = st.builds(
    Status,
    id=st.from_regex(r"[0-9]{1,10}", fullmatch=True),
    text=st.text(max_size=80),
    author=handles,
    created_at=st.one_of(
        st.none(),
        st.just(EPOCH),
        st.integers(min_value=0, max_value=2**31).map(
            lambda s: EPOCH + timedelta(seconds=s)
        ),
    ),
    reply_to=st.none() | handles,
    mentions=st.lists(handles, max_size=3).map(tuple),
    retweet_of=st.none() | handles,
    quote_of=st.none() | handles,
)


class TestWriteFixture:
    @given(st.lists(statuses_strategy, max_size=12, unique_by=lambda s: s.id))
    def test_round_trip_identity(self, tmp_path_factory, statuses):
        path = tmp_path_factory.mktemp("rt") / "iter_000"
        write_fixture_fields(path, statuses)
        assert read_statuses(path) == statuses

    @given(st.lists(statuses_strategy, max_size=12))
    def test_lines_match_json_dumps_of_each_record(self, tmp_path_factory, statuses):
        path = tmp_path_factory.mktemp("lines") / "iter_000"
        write_fixture_fields(path, statuses)
        expected = "".join(map(reference_fixture_line, statuses))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_epoch_and_unset_created_at_round_trip(self, tmp_path):
        path = tmp_path / "iter_000"
        text = (
            '{"id": "1", "text": "x", "author": "a", "created_at": "1970-01-01T00:00:00+00:00"}\n'
            '{"id": "2", "text": "x", "author": "a"}\n'
        )
        path.write_text(text, encoding="utf-8")
        write_fixture_fields(path, fixture_records(path))
        assert path.read_text(encoding="utf-8") == text

    def test_unicode_text_survives(self, tmp_path):
        weird = "San José   line sep \n".replace("\n", " ")
        path = tmp_path / "iter_000"
        write_fixture_fields(path, [make_status(1, "a", text=weird)])
        assert read_statuses(path)[0].text == weird

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "iter_000"
        write_fixture_fields(path, [make_status(1, "a")])
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails midway
        with pytest.raises(UnicodeEncodeError):
            write_fixture_fields(path, [make_status(2, "b", text="\ud800")])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["iter_000"]

    def test_layout_helpers(self):
        assert iteration_filename(7) == "iter_007"
        assert iteration_filename(123) == "iter_123"
        path = subject_dir("fixtures", "geographic", "San José") / iteration_filename(3)
        assert path.as_posix() == "fixtures/geographic/san-jos/iter_003"

    def test_subject_slug(self):
        assert subject_slug("Duke Energy") == "duke-energy"
        assert subject_slug("Bills vs. Bears!") == "bills-vs-bears"
        with pytest.raises(ValueError):
            subject_slug("---")


CONFIG_TEXT = """
[run]
fixtures = trees
output = reports
per_iteration_count = 40
iterations = 7
seed = 99
include_isolates = false
confidence = 0.9
edge_kinds = reply, mention

[groups]
topical = Christianity, NORAD, Duke Energy
individual = Elon Musk, Kanye West, Stefon Diggs
"""


# (config file, fragment of the error, the RunConfig arguments that make the
# same mistake or None when only a file can make it)
BAD_CONFIGS = [
    ("[run]\nseed = 1\n", "missing \\[groups\\]", None),
    ("[groups]\nregional = A, B\n", "unknown group kind", {"groups": [("regional", ("A", "B"))]}),
    ("[groups]\ntopical =\n", "no subjects", {"groups": [("topical", ())]}),
    ("[groups]\ntopical = A, a\n", "repeats subject", {"groups": [("topical", ("A", "a"))]}),
    ("[run]\niterations = soon\n[groups]\ntopical = A\n", "integer", None),
    # int() and float() read '1_0' as 10 and '١' as 1; a config number may not
    *(
        (f"[run]\n{key} = {value}\n[groups]\ntopical = A\n", f"{key} must be {what}, got {value!r}$",
         None)
        for key, what, value in [
            ("iterations", "an integer", "1_0"), ("seed", "an integer", "\u0661"),
            ("seed", "an integer", "-\u0663"), ("per_iteration_count", "an integer", "\uff11"),
            ("confidence", "a number", "0.9_5"), ("confidence", "a number", "0.\u0669"),
        ]
    ),
    ("[run]\nconfidence = 1.5\n[groups]\ntopical = A\n", "confidence", {"confidence": 1.5}),
    (
        "[run]\nedge_kinds = telepathy\n[groups]\ntopical = A\n",
        "edge_kinds",
        {"edge_kinds": ("telepathy",)},
    ),
    ("[geocodes]\nA = 1, 2\n[groups]\ntopical = A\n", "geocode", None),
    # 0.5 + confidence / 2 rounds to 1.0, where the normal quantile is undefined
    (
        "[run]\nconfidence = 0.9999999999999999\n[groups]\ntopical = A\n",
        "confidence",
        {"confidence": 0.9999999999999999},
    ),
    ("[run]\nconfidence = 0\n[groups]\ntopical = A\n", "confidence", {"confidence": 0.0}),
    (
        "[run]\nconfidence = nan\n[groups]\ntopical = A\n",
        "confidence",
        {"confidence": float("nan")},
    ),
    ("[run]\niterations = 0\n[groups]\ntopical = A\n", "iterations", {"iterations": 0}),
    (
        "[run]\nper_iteration_count = -1\n[groups]\ntopical = A\n",
        "per_iteration_count",
        {"per_iteration_count": -1},
    ),
    ("[run]\nedge_kinds = ,\n[groups]\ntopical = A\n", "edge_kinds", {"edge_kinds": ()}),
    ("[run]\noutput =\n[groups]\ntopical = A\n", "nonempty path", {"output_dir": ""}),
    ("[run]\nfixtures = \n[groups]\ntopical = A\n", "nonempty path", {"fixtures_dir": " "}),
    ("[run]\nlexicon =\n[groups]\ntopical = A\n", "nonempty path", {"lexicon_path": ""}),
    ("[run]\noutput = \t\n[groups]\ntopical = A\n", "nonempty path", {"output_dir": "\t"}),
    # no file name can hold NUL, which open() and os.stat() refuse with a ValueError
    ("[run]\noutput = a\x00b\n[groups]\ntopical = A\n", "output.* NUL", {"output_dir": "a\x00b"}),
    ("[run]\nfixtures = \x00\n[groups]\ntopical = A\n", "fixture.* NUL", {"fixtures_dir": "\x00"}),
    ("[run]\nlexicon = l\x00\n[groups]\ntopical = A\n", "lexicon.* NUL", {"lexicon_path": "l\x00"}),
    (
        "[groups]\ngeographic = NYC, !!!\n",
        "no ASCII letter or digit",
        {"groups": [("geographic", ("NYC", "!!!"))]},
    ),
    ("[groups]\n", "no groups", {"groups": []}),
    # configparser refuses the repeated key; RunConfig refuses the repeated kind
    (
        "[groups]\ntopical = A, B\ntopical = C, D\n",
        "'topical'.*(already exists|appears twice)",
        {"groups": [("topical", ("A", "B")), ("topical", ("C", "D"))]},
    ),
    # configparser would merge [DEFAULT] keys into [groups] and [run]
    (
        "[DEFAULT]\ntopical = A, B, C\n[groups]\nevent = X, Y, Z\n",
        "unknown section \\[DEFAULT\\]",
        None,
    ),
    (
        "[DEFAULT]\nseed = 1\n[run]\niterations = 2\n[groups]\ntopical = A\n",
        "unknown section \\[DEFAULT\\]",
        None,
    ),
]

# a valid RunConfig's arguments
GOOD_SETTINGS = dict(fixtures_dir="fixtures", output_dir="out", groups=[("topical", ("A", "B"))])


class TestRunConfig:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [(overrides, fragment) for _, fragment, overrides in BAD_CONFIGS if overrides],
        ids=[repr(overrides) for _, _, overrides in BAD_CONFIGS if overrides],
    )
    def test_checks_what_the_config_file_checks(self, overrides, fragment):
        """A library caller and dataclasses.replace meet each check that a
        config file meets, as a ConfigError."""
        with pytest.raises(ConfigError, match=fragment):
            RunConfig(**{**GOOD_SETTINGS, **overrides})
        with pytest.raises(ConfigError, match=fragment):
            replace(RunConfig(**GOOD_SETTINGS), **overrides)

    @pytest.mark.parametrize("subject", ["Alpha\rBeta", "Alpha\nBeta", "Alpha\ud800"])
    def test_subject_a_table_row_cannot_hold_refused(self, subject):
        groups = [("topical", (subject, "B"))]
        with pytest.raises(ConfigError, match=f"group 'topical' subject {re.escape(repr(subject))}"):
            RunConfig(**{**GOOD_SETTINGS, "groups": groups})

    @pytest.mark.parametrize("name", ["\x1c", "\x1f", "\x85", "\xa0", "\u3000"])
    def test_path_of_one_unicode_space_is_kept(self, name):
        """Each is a legal file name that str.strip() would take for blank."""
        paths = dict(fixtures_dir=name, output_dir=name, lexicon_path=name)
        config = RunConfig(**{**GOOD_SETTINGS, **paths})
        assert config.fixtures_dir == config.output_dir == config.lexicon_path == Path(name)

    def test_replace_reruns_the_checks(self):
        config = RunConfig(**GOOD_SETTINGS)
        assert replace(config, seed=7).seed == 7
        # a value no check would pass, set behind the frozen dataclass's back
        object.__setattr__(config, "iterations", 0)
        with pytest.raises(ConfigError, match="iterations"):
            replace(config, seed=7)

    def test_values_are_normalized(self):
        config = RunConfig(
            fixtures_dir="fx",
            output_dir="out",
            lexicon_path="words.tsv",
            groups=[["topical", ["A", "B"]]],
            edge_kinds=["mention", "reply"],
        )
        assert (config.fixtures_dir, config.output_dir) == (Path("fx"), Path("out"))
        assert config.lexicon_path == Path("words.tsv")
        assert config.groups == (("topical", ("A", "B")),)
        assert config.edge_kinds == ("mention", "reply")


class TestLoadConfig:
    def test_full_config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CONFIG_TEXT, encoding="utf-8")
        config = load_config(path)
        assert config.fixtures_dir == tmp_path / "trees"
        assert config.output_dir == tmp_path / "reports"
        assert config.per_iteration_count == 40
        assert config.iterations == 7
        assert config.seed == 99
        assert config.include_isolates is False
        assert config.confidence == 0.9
        assert config.edge_kinds == ("reply", "mention")
        assert config.groups == (
            ("topical", ("Christianity", "NORAD", "Duke Energy")),
            ("individual", ("Elon Musk", "Kanye West", "Stefon Diggs")),
        )
        assert QuerySpec("individual", "Elon Musk") in config.subjects()

    def test_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[groups]\ntopical = A, B, C\n", encoding="utf-8")
        config = load_config(path)
        assert config.per_iteration_count == 950
        assert config.iterations == 100
        assert config.include_isolates is True
        assert config.confidence == 0.95
        assert config.edge_kinds == ("reply", "mention", "retweet", "quote")

    @pytest.mark.parametrize("body,fragment", [case[:2] for case in BAD_CONFIGS])
    def test_bad_configs(self, tmp_path, body, fragment):
        path = tmp_path / "run.ini"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_path_holding_nul(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config .*embedded null byte"):
            load_config(tmp_path / "run\x00.ini")

    def test_plain_numbers_with_whitespace_are_read(self, tmp_path):
        path = tmp_path / "run.ini"
        body = "[run]\nconfidence = 0.950\nseed = -3\niterations =  10 \n[groups]\ntopical = A, B\n"
        path.write_text(body, encoding="utf-8")
        config = load_config(path)
        assert (config.confidence, config.seed, config.iterations) == (0.95, -3, 10)
