from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from threadknit.errors import ConfigError, FixtureError
from threadknit.ingest import (
    EPOCH,
    IterationBatch,
    QuerySpec,
    Status,
    fixture_path,
    iteration_filename,
    load_config,
    normalize_handle,
    parse_fixture,
    subject_slug,
    write_fixture,
)

from conftest import make_batch, make_spec, make_status

handles = st.from_regex(r"[a-z0-9_]{1,12}", fullmatch=True)


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


class TestStatus:
    def test_normalizes_all_handles(self):
        status = Status(
            id="1",
            text="hi",
            author="@Alice",
            reply_to="@Bob",
            mentions=("@Carol", "Dave"),
            retweet_of="@Erin",
            quote_of="@Frank",
        )
        assert status.author == "alice"
        assert status.reply_to == "bob"
        assert status.mentions == ("carol", "dave")
        assert status.retweet_of == "erin"
        assert status.quote_of == "frank"

    def test_created_at_defaults_to_epoch_utc(self):
        status = Status(id="1", text="x", author="a")
        assert status.created_at == EPOCH
        assert status.created_at.tzinfo is not None

    def test_naive_timestamp_coerced_to_utc(self):
        status = Status(
            id="1", text="x", author="a", created_at=datetime(2022, 12, 25, 12, 0)
        )
        assert status.created_at.tzinfo == timezone.utc

    def test_reference_order_is_reply_mentions_retweet_quote(self):
        status = Status(
            id="1",
            text="x",
            author="a",
            reply_to="r",
            mentions=("m1", "m2"),
            retweet_of="rt",
            quote_of="q",
        )
        assert list(status.references()) == [
            ("reply", "r"),
            ("mention", "m1"),
            ("mention", "m2"),
            ("retweet", "rt"),
            ("quote", "q"),
        ]

    def test_requires_id_and_author(self):
        with pytest.raises(ValueError):
            Status(id="", text="x", author="a")
        with pytest.raises(ValueError):
            Status(id="1", text="x", author="")


class TestQueryBuilding:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(kind="regional", subject="x")


class TestIterationBatch:
    def test_oversized_batch_rejected(self):
        spec = make_spec(per_iteration_count=2)
        statuses = tuple(make_status(i, "a") for i in range(3))
        with pytest.raises(ValueError, match="batch exceeds per_iteration_count"):
            IterationBatch(spec=spec, index=0, statuses=statuses)

    def test_index_must_lie_in_plan(self):
        with pytest.raises(ValueError):
            IterationBatch(spec=make_spec(iterations=5), index=5)
        with pytest.raises(ValueError):
            IterationBatch(spec=make_spec(), index=-1)

    def test_empty_batch_is_valid(self):
        batch = IterationBatch(spec=make_spec(), index=0)
        assert batch.statuses == ()


class TestParseFixture:
    def test_parses_records_in_file_order(self, tmp_path):
        lines = [
            {"id": "1", "text": "hello", "author": "@Alice", "mentions": ["@Bob"]},
            {"id": "2", "text": "again", "author": "bob", "reply_to": "alice"},
            {"id": "3", "text": "solo", "author": "carol", "extra_field": 42},
        ]
        path = tmp_path / "iter_000"
        path.write_text("\n".join(json.dumps(x) for x in lines), encoding="utf-8")
        batch = parse_fixture(path, spec=make_spec())
        assert [s.id for s in batch.statuses] == ["1", "2", "3"]
        assert batch.statuses[0].author == "alice"
        assert batch.statuses[0].mentions == ("bob",)
        assert batch.index == 0

    def test_index_comes_from_filename(self, tmp_path):
        path = tmp_path / "iter_017"
        path.write_text("", encoding="utf-8")
        assert parse_fixture(path, spec=make_spec()).index == 17

    def test_empty_file_is_empty_batch(self, tmp_path):
        path = tmp_path / "iter_000"
        path.write_text("", encoding="utf-8")
        assert parse_fixture(path, spec=make_spec()).statuses == ()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "iter_000"
        record = json.dumps({"id": "1", "text": "x", "author": "a"})
        path.write_text(f"\n{record}\n\n", encoding="utf-8")
        assert len(parse_fixture(path, spec=make_spec()).statuses) == 1

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "iter_000"
        good = json.dumps({"id": "1", "text": "x", "author": "a"})
        path.write_text(f"{good}\nnot json\n", encoding="utf-8")
        with pytest.raises(FixtureError, match=r":2:"):
            parse_fixture(path, spec=make_spec())

    def test_missing_field_reports_line_and_field(self, tmp_path):
        path = tmp_path / "iter_000"
        path.write_text(json.dumps({"id": "1", "text": "x"}), encoding="utf-8")
        with pytest.raises(FixtureError, match="author"):
            parse_fixture(path, spec=make_spec())

    def test_too_many_records_rejected(self, tmp_path):
        spec = make_spec(per_iteration_count=950)
        record = json.dumps({"id": "1", "text": "x", "author": "a"})
        path = tmp_path / "iter_000"
        path.write_text("\n".join([record] * 951), encoding="utf-8")
        with pytest.raises(FixtureError, match="batch exceeds per_iteration_count"):
            parse_fixture(path, spec=spec)

    def test_missing_file_is_fixture_error(self, tmp_path):
        with pytest.raises(FixtureError):
            parse_fixture(tmp_path / "iter_404", spec=make_spec())

    def test_created_at_variants(self, tmp_path):
        lines = [
            {"id": "1", "text": "x", "author": "a", "created_at": "2022-12-25T10:30:00Z"},
            {"id": "2", "text": "x", "author": "a", "created_at": "2022-12-25T10:30:00+02:00"},
            {"id": "3", "text": "x", "author": "a"},
        ]
        path = tmp_path / "iter_000"
        path.write_text("\n".join(json.dumps(x) for x in lines), encoding="utf-8")
        batch = parse_fixture(path, spec=make_spec())
        assert batch.statuses[0].created_at == datetime(
            2022, 12, 25, 10, 30, tzinfo=timezone.utc
        )
        assert batch.statuses[1].created_at == datetime(
            2022, 12, 25, 8, 30, tzinfo=timezone.utc
        )
        assert batch.statuses[2].created_at == EPOCH

    def test_spec_inferred_from_layout(self, tmp_path):
        path = tmp_path / "geographic" / "nyc" / "iter_004"
        path.parent.mkdir(parents=True)
        path.write_text("", encoding="utf-8")
        batch = parse_fixture(path)
        assert batch.spec.kind == "geographic"
        assert batch.spec.subject == "nyc"
        assert batch.index == 4


statuses_strategy = st.builds(
    Status,
    id=st.from_regex(r"[0-9]{1,10}", fullmatch=True),
    text=st.text(max_size=80),
    author=handles,
    created_at=st.one_of(
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
        batch = make_batch(statuses)
        path = tmp_path_factory.mktemp("rt") / "iter_000"
        write_fixture(batch, path)
        again = parse_fixture(path, spec=batch.spec, index=batch.index)
        assert again == batch

    def test_unicode_text_survives(self, tmp_path):
        weird = "San José   line sep \n".replace("\n", " ")
        batch = make_batch([make_status(1, "a", text=weird)])
        path = tmp_path / "iter_000"
        write_fixture(batch, path)
        assert parse_fixture(path, spec=batch.spec).statuses[0].text == weird

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "iter_000"
        write_fixture(make_batch([make_status(1, "a")]), path)
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails midway
        with pytest.raises(UnicodeEncodeError):
            write_fixture(make_batch([make_status(2, "b", text="\ud800")]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["iter_000"]

    def test_layout_helpers(self):
        assert iteration_filename(7) == "iter_007"
        assert iteration_filename(123) == "iter_123"
        spec = make_spec(kind="geographic", subject="San José")
        assert (
            str(fixture_path("fixtures", spec, 3)).replace("\\", "/")
            == "fixtures/geographic/san-jos/iter_003"
        )

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
        spec = config.spec_for("individual", "Elon Musk")
        assert spec.per_iteration_count == 40

    def test_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[groups]\ntopical = A, B, C\n", encoding="utf-8")
        config = load_config(path)
        assert config.per_iteration_count == 950
        assert config.iterations == 100
        assert config.include_isolates is True
        assert config.confidence == 0.95
        assert config.edge_kinds == ("reply", "mention", "retweet", "quote")

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("[run]\nseed = 1\n", "missing \\[groups\\]"),
            ("[groups]\nregional = A, B\n", "unknown group kind"),
            ("[groups]\ntopical =\n", "no subjects"),
            ("[groups]\ntopical = A, a\n", "repeats subject"),
            ("[run]\niterations = soon\n[groups]\ntopical = A\n", "integer"),
            ("[run]\nconfidence = 1.5\n[groups]\ntopical = A\n", "confidence"),
            ("[run]\nedge_kinds = telepathy\n[groups]\ntopical = A\n", "edge_kinds"),
            ("[geocodes]\nA = 1, 2\n[groups]\ntopical = A\n", "geocode"),
        ],
    )
    def test_bad_configs(self, tmp_path, body, fragment):
        path = tmp_path / "run.ini"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")
