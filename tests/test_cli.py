from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import threadknit.cli
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
