from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threadknit.cli
import threadknit.pipeline
from threadknit.cli import build_parser, main
from threadknit.errors import ConfigError

SRC = Path(threadknit.cli.__file__).resolve().parent.parent

CONFIG = """\
[run]
fixtures = fixtures
output = out
per_iteration_count = 40
iterations = 3
seed = 11

[groups]
topical = Alpha, Beta Co, Gamma, Delta
event = Game One, Festival, Launch, Parade
"""


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "run.ini").write_text(CONFIG, encoding="utf-8")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def config_arg(workdir):
    return workdir / "run.ini"


def run_cli_process(workdir, *argv):
    """The CLI as its own process: (exit code, stderr lines)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "threadknit.cli", *map(str, argv)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stderr.splitlines()


def tree_bytes(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSynthCommand:
    def test_writes_fixture_tree(self, workdir, capsys):
        assert run_cli("synth", "--config", config_arg(workdir)) == 0
        out = capsys.readouterr().out
        assert "wrote 24 fixture files" in out
        fixtures = workdir / "fixtures"
        assert (fixtures / "topical" / "alpha" / "iter_000").is_file()
        assert (fixtures / "event" / "game-one" / "iter_002").is_file()

    def test_rerun_is_byte_identical(self, workdir):
        run_cli("synth", "--config", config_arg(workdir))
        first = tree_bytes(workdir / "fixtures")
        run_cli("synth", "--config", config_arg(workdir))
        assert tree_bytes(workdir / "fixtures") == first

    def test_seed_override_changes_bytes(self, workdir):
        run_cli("synth", "--config", config_arg(workdir))
        first = tree_bytes(workdir / "fixtures")
        run_cli("synth", "--config", config_arg(workdir), "--seed", "99")
        assert tree_bytes(workdir / "fixtures") != first


class TestAnalyzeCommand:
    def test_tables_written(self, workdir, capsys):
        run_cli("synth", "--config", config_arg(workdir))
        assert run_cli("analyze", "--config", config_arg(workdir)) == 0
        out = capsys.readouterr().out
        assert "topical: 4 subjects" in out
        assert "event: 4 subjects" in out
        tables = workdir / "out" / "tables"
        assert (tables / "topical.csv").is_file()
        assert (tables / "event.json").is_file()
        assert (workdir / "out" / "scatter" / "topical.csv").is_file()

    def test_jobs_do_not_change_bytes(self, workdir):
        run_cli("synth", "--config", config_arg(workdir))
        run_cli("analyze", "--config", config_arg(workdir), "--out", workdir / "o1")
        run_cli(
            "analyze", "--config", config_arg(workdir), "--out", workdir / "o2",
            "--jobs", "4",
        )
        assert tree_bytes(workdir / "o1") == tree_bytes(workdir / "o2")

    def test_group_filter(self, workdir, capsys):
        run_cli("synth", "--config", config_arg(workdir))
        assert run_cli(
            "analyze", "--config", config_arg(workdir), "--group", "event"
        ) == 0
        out = capsys.readouterr().out
        assert "event: 4 subjects" in out
        assert "topical" not in out

    def test_missing_fixtures_exit_2(self, workdir, capsys):
        assert run_cli("analyze", "--config", config_arg(workdir)) == 2
        assert "no fixtures" in capsys.readouterr().err


class TestCorrelateCommand:
    def test_bundled_reference_values(self, tmp_path, capsys):
        assert run_cli("correlate", "--bundled", "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert "topical: n=6 r=-0.771598 t=-2.425990 p=0.072293" in out
        assert "event: n=6 r=-0.335410" in out
        assert "geographic: n=6 r=-0.541549" in out
        assert "individual: n=6 r=-0.942605" in out
        assert (tmp_path / "correlations.json").is_file()

    def test_after_analyze(self, workdir, capsys):
        run_cli("synth", "--config", config_arg(workdir))
        run_cli("analyze", "--config", config_arg(workdir))
        capsys.readouterr()
        assert run_cli("correlate", "--config", config_arg(workdir)) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if " r=" in line]
        assert len(lines) == 2
        for line in lines:
            r = float(line.split("r=")[1].split()[0])
            assert r < -0.9

    def test_needs_config_or_bundled(self, capsys):
        assert run_cli("correlate") == 1
        assert "error:" in capsys.readouterr().err

    def test_before_analyze_exit_2(self, workdir, capsys):
        assert run_cli("correlate", "--config", config_arg(workdir)) == 2
        assert "run analyze first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_row",
        ["Delta,9,4,0.4444444444,nan", "Delta,9,4,inf,0.1", "Delta,4,9,2.25,0.1"],
    )
    def test_bad_table_value_is_one_error_line_exit_2(self, workdir, bad_row):
        tables = workdir / "out" / "tables"
        tables.mkdir(parents=True)
        header = "subject,strong_count,weak_count,ratio_beta,sentiment_alpha\n"
        rows = ["Alpha,10,2,0.2,0.5", "Beta Co,10,5,0.5,0.2", "Gamma,10,8,0.8,-0.1"]
        for kind, last in (("topical", bad_row), ("event", "Parade,9,3,0.3333333333,0.3")):
            (tables / f"{kind}.csv").write_text(
                header + "\n".join(rows + [last]) + "\n", encoding="utf-8"
            )
        code, err = run_cli_process(workdir, "correlate", "--config", "run.ini")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "topical.csv:5" in err[0]

    def test_arithmetic_failure_exit_3(self, workdir, capsys, monkeypatch):
        def diverge(tables):
            raise ArithmeticError("incomplete beta failed to converge")

        monkeypatch.setattr(threadknit.cli, "correlate_tables", diverge)
        assert run_cli("correlate", "--bundled", "--out", workdir) == 3
        assert capsys.readouterr().err == "error: incomplete beta failed to converge\n"


class TestCompareCommand:
    def test_full_matrix(self, tmp_path, capsys):
        run_cli("correlate", "--bundled", "--out", tmp_path)
        capsys.readouterr()
        assert run_cli("compare", "--out", tmp_path, "--n-override", "722") == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if " vs " in line]
        assert len(lines) == 6
        assert lines[0].startswith("topical vs event:")
        assert lines[-1].startswith("topical vs individual:")
        assert (tmp_path / "comparisons.csv").is_file()
        assert (tmp_path / "comparisons.json").is_file()

    @pytest.mark.parametrize(
        "field, value",
        [("r", float("nan")), ("r", float("inf")), ("t_stat", float("-inf")), ("group", 7)],
    )
    def test_bad_correlation_record_is_one_error_line_exit_2(self, tmp_path, field, value):
        run_cli("correlate", "--bundled", "--out", tmp_path)
        source = tmp_path / "correlations.json"
        records = json.loads(source.read_text(encoding="utf-8"))
        records[0][field] = value
        # json writes non-finite floats as NaN / Infinity, which json.loads accepts
        source.write_text(json.dumps(records), encoding="utf-8")
        code, err = run_cli_process(tmp_path, "compare", "--out", ".")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "record 1" in err[0]
        assert not (tmp_path / "comparisons.csv").exists()
        assert not (tmp_path / "comparisons.json").exists()

    def test_before_correlate_exit_2(self, tmp_path, capsys):
        assert run_cli("compare", "--out", tmp_path) == 2
        assert "run correlate first" in capsys.readouterr().err

    def test_small_n_override_exit_3(self, tmp_path, capsys):
        run_cli("correlate", "--bundled", "--out", tmp_path)
        assert run_cli("compare", "--out", tmp_path, "--n-override", "3") == 3

    def test_bad_confidence_exit_1(self, tmp_path):
        run_cli("correlate", "--bundled", "--out", tmp_path)
        assert run_cli("compare", "--out", tmp_path, "--confidence", "95") == 1


class TestExportCommand:
    def test_dot_files(self, workdir, capsys):
        run_cli("synth", "--config", config_arg(workdir))
        assert run_cli("export", "--config", config_arg(workdir)) == 0
        out = capsys.readouterr().out
        assert "wrote 8 graph files" in out
        dot = workdir / "out" / "graphs" / "topical" / "beta-co.dot"
        assert dot.is_file()
        assert dot.read_text(encoding="utf-8").startswith("digraph {\n")

    def test_export_without_fixtures_exit_2(self, workdir):
        assert run_cli("export", "--config", config_arg(workdir)) == 2


class TestErrorHandling:
    def test_usage_error_exit_1(self, capsys):
        assert run_cli("analyze") == 1
        assert "required" in capsys.readouterr().err

    def test_unknown_command_exit_1(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_missing_config_file_exit_1(self, tmp_path, capsys):
        assert run_cli("synth", "--config", tmp_path / "nope.ini") == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nfixtures = f\noutput = o\n", encoding="utf-8")
        assert run_cli("synth", "--config", bad) == 1

    @pytest.mark.parametrize(
        "config, named",
        [
            (CONFIG + "\n[aliases]\nAlpha = alpha, a\n", "[aliases]"),
            (CONFIG.replace("per_iteration_count", "per_iteraton_count"), "'per_iteraton_count'"),
        ],
        ids=["aliases-section", "misspelt-run-key"],
    )
    def test_unknown_config_key_exit_1(self, workdir, capsys, config, named):
        (workdir / "run.ini").write_text(config, encoding="utf-8")
        assert run_cli("synth", "--config", config_arg(workdir)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not (workdir / "fixtures").exists()

    def test_degenerate_group_exit_3(self, tmp_path, capsys):
        ini = tmp_path / "tiny.ini"
        ini.write_text(
            "[run]\nfixtures = fx\noutput = out\n"
            "per_iteration_count = 40\niterations = 1\nseed = 1\n"
            "[groups]\ntopical = Solo, Duo\n",
            encoding="utf-8",
        )
        run_cli("synth", "--config", ini)
        assert run_cli("analyze", "--config", ini) == 3
        assert "at least 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, command, code",
        [
            ("run.ini", "synth", 1),
            ("lexicon.tsv", "synth", 2),
            ("out/tables/topical.csv", "correlate", 2),
            ("out/correlations.json", "compare", 2),
        ],
    )
    def test_undecodable_input_is_one_error_line(self, workdir, capsys, target, command, code):
        config = CONFIG.replace("[run]\n", "[run]\nlexicon = lexicon.tsv\n")
        (workdir / "run.ini").write_text(config, encoding="utf-8")
        inputs = ("lexicon.tsv", "out/tables/topical.csv", "out/tables/event.csv")
        for name in inputs + ("out/correlations.json",):
            (workdir / name).parent.mkdir(parents=True, exist_ok=True)
            (workdir / name).write_bytes(b"placeholder\n")
        (workdir / target).write_bytes(b"\xff\xfe bad bytes\n")
        assert run_cli(command, "--config", config_arg(workdir)) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "decode" in err

    def test_parser_raises_config_error_directly(self):
        parser = build_parser()
        with pytest.raises(ConfigError):
            parser.parse_args(["synth"])


# Subject B has one iteration with a 4-node mention chain (strong 4, weak 1)
# and two with no edges, so no nodes under include_isolates = false: its mean
# counts round to strong 1, weak 0.  A and C are well formed.
DEGENERATE_CONFIG = """\
[run]
fixtures = fixtures
output = out
per_iteration_count = 10
iterations = 3
seed = 1
include_isolates = false

[groups]
topical = A, B, C
"""


def status_line(author, text, mentions=()):
    record = {
        "id": f"t-{author}",
        "text": text,
        "author": author,
        "created_at": "2022-12-25T00:00:01+00:00",
    }
    if mentions:
        record["mentions"] = list(mentions)
    return json.dumps(record) + "\n"


def chain_lines(length, text, prefix="u"):
    """A mention chain of ``length`` users: strong ``length``, weak 1."""
    return "".join(
        status_line(f"{prefix}{i}", text, [f"{prefix}{i + 1}"]) for i in range(1, length)
    )


def write_degenerate_tree(root):
    (root / "run.ini").write_text(DEGENERATE_CONFIG, encoding="utf-8")
    iterations = {
        "a": [chain_lines(3, "good")] * 3,
        "b": [chain_lines(4, "bad"), status_line("u1", "ok"), status_line("u1", "meh")],
        "c": [chain_lines(3, "great") + chain_lines(4, "great", prefix="v")] * 3,
    }
    for slug, texts in iterations.items():
        for index, text in enumerate(texts):
            path = root / "fixtures" / "topical" / slug / f"iter_{index:03d}"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


_TEST_PID = os.getpid()


def _exit_in_worker(task):
    """Stand-in for the pool's task function: the worker dies at once."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("the task ran in the test process, not a worker")
    os._exit(1)


@pytest.fixture()
def fork_start():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


class TestJobs:
    def analyze_processes(self, workdir):
        """(exit code, stderr lines) of analyze under --jobs 1 and --jobs 2."""
        return [
            run_cli_process(workdir, "analyze", "--config", config_arg(workdir), "--jobs", jobs)
            for jobs in (1, 2)
        ]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_1(self, workdir, jobs):
        code, err = run_cli_process(
            workdir, "analyze", "--config", config_arg(workdir), "--jobs", jobs
        )
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "jobs" in err[0]

    def test_bad_fixture_line_same_error_for_any_jobs(self, workdir):
        run_cli("synth", "--config", config_arg(workdir))
        # a subject in the middle of the configuration and the last one; the
        # middle one comes first in configuration order, so its error wins
        for slug in ("topical/gamma", "event/parade"):
            path = workdir / "fixtures" / slug / "iter_001"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[1] = "{not json\n"
            path.write_text("".join(lines), encoding="utf-8")
        serial, pooled = self.analyze_processes(workdir)
        assert serial == pooled
        code, err = serial
        assert code == 2 and len(err) == 1
        assert err[0].startswith("error: ") and "gamma" in err[0] and "invalid JSON" in err[0]
        assert not (workdir / "out").exists()

    def test_weak_count_rounding_to_zero_exit_3_for_any_jobs(self, tmp_path):
        write_degenerate_tree(tmp_path)
        serial, pooled = self.analyze_processes(tmp_path)
        assert serial == pooled
        code, err = serial
        assert code == 3 and len(err) == 1
        assert err[0].startswith("error: subject 'B'") and "0 weak" in err[0]
        assert not (tmp_path / "out").exists()

    def test_dead_worker_is_one_error_line_exit_2(self, workdir, capsys, monkeypatch, fork_start):
        run_cli("synth", "--config", config_arg(workdir))
        capsys.readouterr()
        monkeypatch.setattr(threadknit.pipeline, "_analyze_task", _exit_in_worker)
        # a pool even on a one-core machine, where the task would run in-process
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_cli("analyze", "--config", config_arg(workdir), "--jobs", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "worker" in err
        assert not (workdir / "out").exists()

    def test_cli_import_loads_no_process_pool(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = (
            "import sys, threadknit.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0 and done.stdout.strip() == "[]"


class TestFullChain:
    def test_end_to_end(self, workdir, capsys):
        config = config_arg(workdir)
        assert run_cli("synth", "--config", config) == 0
        assert run_cli("analyze", "--config", config) == 0
        assert run_cli("correlate", "--config", config) == 0
        assert run_cli("compare", "--config", config) == 0
        assert run_cli("export", "--config", config) == 0
        out_root = workdir / "out"
        for name in (
            "tables/topical.csv",
            "tables/event.csv",
            "correlations.csv",
            "correlations.json",
            "comparisons.csv",
            "comparisons.json",
            "scatter/event.csv",
            "graphs/event/parade.dot",
        ):
            assert (out_root / name).is_file(), name
        comparisons = (out_root / "comparisons.csv").read_text(encoding="utf-8")
        assert comparisons.splitlines()[1].startswith("topical,event,")

    def test_full_rerun_byte_identical(self, workdir):
        config = config_arg(workdir)
        for _ in range(2):
            run_cli("synth", "--config", config)
            run_cli("analyze", "--config", config)
            run_cli("correlate", "--config", config)
            run_cli("compare", "--config", config)
            run_cli("export", "--config", config)
        first = tree_bytes(workdir / "out")
        for cmd in ("synth", "analyze", "correlate", "compare", "export"):
            run_cli(cmd, "--config", config)
        assert tree_bytes(workdir / "out") == first
