from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from threadknit.components import SubjectSummary
from threadknit.errors import ConfigError
from threadknit.config import QUERY_KINDS, RunConfig
from threadknit.records import read_records, write_atomic, write_csv
from threadknit.stats import CorrelationReport
from threadknit.tables import CORRELATIONS, SUBJECT_TABLE


class TestWriteAtomic:
    def test_interrupted_write_keeps_previous_file(self, tmp_path):
        target = tmp_path / "report.csv"
        write_atomic(target, lambda handle: handle.write("complete,previous\n"))

        def serialise(handle):
            handle.write("half of the new")
            handle.flush()
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_atomic(target, serialise)
        assert target.read_bytes() == b"complete,previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_interrupted_first_write_leaves_nothing(self, tmp_path):
        def serialise(handle):
            handle.write("partial")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_atomic(tmp_path / "sub" / "new.json", serialise)
        assert list((tmp_path / "sub").iterdir()) == []

    def test_existing_directory_is_not_made_again(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("write_atomic called mkdir")

        monkeypatch.setattr(Path, "mkdir", refuse)
        write_atomic(tmp_path / "report.csv", lambda handle: handle.write("a,b\n"))
        assert (tmp_path / "report.csv").read_bytes() == b"a,b\n"

    def test_missing_directories_are_made(self, tmp_path):
        target = tmp_path / "out" / "tables" / "topical.csv"
        write_atomic(target, lambda handle: handle.write("caf\u00e9\r\n\n"))
        assert target.read_bytes() == "caf\u00e9\r\n\n".encode("utf-8")
        assert [p.name for p in target.parent.iterdir()] == ["topical.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_that_of_open_for_writing(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "opened", "w") as handle:
                handle.write("x")
            write_atomic(tmp_path / "written", lambda handle: handle.write("x"))
        finally:
            os.umask(previous)
        opened, written = (os.stat(tmp_path / name).st_mode for name in ("opened", "written"))
        assert written == opened


def accepted_subject(subject):
    try:
        RunConfig("fixtures", "out", groups=[("topical", (subject,))])
    except ConfigError:
        return False
    return True


finite = st.floats(allow_nan=False, allow_infinity=False)
# any code point, surrogates included, that RunConfig takes in a subject
subjects = st.text(st.characters(exclude_categories=())).filter(accepted_subject)


@st.composite
def subject_rows(draw):
    strong = draw(st.integers(min_value=1))
    weak = draw(st.integers(1, strong))
    return SubjectSummary(draw(subjects), strong, weak, weak / strong, draw(finite))


correlation_reports = st.builds(
    CorrelationReport,
    group=st.sampled_from(QUERY_KINDS),
    n=st.integers(min_value=3),
    r=st.floats(-1, 1, exclude_min=True, exclude_max=True),
    mean_x=finite,
    mean_y=finite,
    t_stat=finite,
    p_value=st.floats(0, 1),
)


class TestRoundTrip:
    """Every record a stage reads back is one write_csv can write and
    read_records reads back unchanged."""

    @pytest.mark.parametrize(
        "spec, records",
        [(SUBJECT_TABLE, subject_rows()), (CORRELATIONS, correlation_reports)],
        ids=["subject table", "correlations"],
    )
    @given(data=st.data())
    def test_write_csv_then_read_records(self, spec, records, data):
        rows = data.draw(st.lists(records, min_size=1, max_size=5))
        with tempfile.TemporaryDirectory() as scratch:
            path = write_csv(spec, rows, Path(scratch) / "records.csv")
            assert read_records(spec, path) == rows
