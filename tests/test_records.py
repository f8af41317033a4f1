from __future__ import annotations

import pytest

from threadknit.records import write_atomic


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
