from __future__ import annotations

import argparse
import inspect
import json
import math
import multiprocessing
import os
import re
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threadknit.cli
import threadknit.graph
import threadknit.ingest
import threadknit.pipeline
import threadknit.sentiment
import threadknit.synth
import threadknit.tables
from threadknit.cli import build_parser, main
from threadknit.errors import ConfigError
from threadknit.config import RUN_KEYS

from conftest import CLI_GROUPS, MINI_LEXICON_ENTRIES, PERFBENCH_GROUPS

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

    def test_bundled_with_config_is_one_error_line_exit_1(self, workdir):
        code, err = run_cli_process(
            workdir, "correlate", "--bundled", "--config", workdir / "nonexistent.ini"
        )
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "--bundled" in err[0]
        assert tree_bytes(workdir) == {Path("run.ini"): CONFIG.encode()}

    def test_table_of_other_subjects_is_one_error_line_exit_2(self, workdir):
        """A table analyze wrote for an earlier [groups] is not this run's."""
        for stage in ("synth", "analyze"):
            assert run_cli(stage, "--config", config_arg(workdir)) == 0
        (workdir / "run.ini").write_text(
            CONFIG.replace("Gamma, Delta", "Gamma"), encoding="utf-8"
        )
        before = tree_bytes(workdir / "out")
        code, err = run_cli_process(workdir, "correlate", "--config", "run.ini")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(Path("tables", "topical.csv")) in err[0] and "run analyze first" in err[0]
        assert tree_bytes(workdir / "out") == before

    @pytest.mark.parametrize(
        "bad_row",
        [
            "Delta,9,4,0.4444444444,nan", "Delta,9,4,inf,0.1", "Delta,4,9,2.25,0.1",
            # a cell past the header, and a beta that is not weak/strong
            "Delta,9,4,0.4444444444,0.1,7", "Delta,9,4,0.7,0.1",
        ],
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

        monkeypatch.setattr(threadknit.tables, "correlate_tables", diverge)
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
        [
            ("r", "nan"), ("r", "inf"), ("t_stat", "-inf"),
            # numbers correlate cannot have written
            ("r", "1.5"), ("n", "-7"), ("p_value", "7.0"),
            # not an int, and more digits than int() converts
            ("n", "6e0"), pytest.param("n", "1" + "0" * 5000, id="n-10**5000"),
            # int() and float() read these too, but write_csv never writes them
            ("mean_y", "1_000"), ("n", "\u0661\u0660"), ("n", " 10 "), ("n", "010"),
            ("mean_x", "0.10"),
        ],
    )
    def test_bad_correlation_record_is_one_error_line_exit_2(self, tmp_path, field, value):
        run_cli("correlate", "--bundled", "--out", tmp_path)
        source = tmp_path / "correlations.csv"
        header, first, *rest = source.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = first.rstrip("\n").split(",")
        cells[header.rstrip("\n").split(",").index(field)] = value
        source.write_text("".join([header, ",".join(cells) + "\n", *rest]), encoding="utf-8")
        code, err = run_cli_process(tmp_path, "compare", "--out", ".")
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error: correlations.csv:2: bad correlation record: ")
        assert re.search(rf"\b{field}\b", err[0]) and "set_int_max_str_digits" not in err[0]
        assert not (tmp_path / "comparisons.csv").exists()
        assert not (tmp_path / "comparisons.json").exists()

    def test_before_correlate_exit_2(self, tmp_path, capsys):
        assert run_cli("compare", "--out", tmp_path) == 2
        assert "run correlate first" in capsys.readouterr().err

    def test_correlations_of_other_groups_is_one_error_line_exit_2(self, workdir):
        """compare --config compares the configured groups or none."""
        # current tables, so that the correlations are what compare refuses
        for stage in ("synth", "analyze"):
            assert run_cli(stage, "--config", config_arg(workdir)) == 0
        assert run_cli("correlate", "--bundled", "--out", workdir / "out") == 0
        before = tree_bytes(workdir / "out")
        code, err = run_cli_process(workdir, "compare", "--config", "run.ini")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "correlations.csv" in err[0] and "run correlate first" in err[0]
        assert tree_bytes(workdir / "out") == before

    def test_correlations_of_fewer_subjects_is_one_error_line_exit_2(self, workdir):
        """A correlation computed before a subject left its group is stale."""
        for stage in ("synth", "analyze", "correlate"):
            assert run_cli(stage, "--config", config_arg(workdir)) == 0
        (workdir / "run.ini").write_text(
            CONFIG.replace("Gamma, Delta", "Gamma"), encoding="utf-8"
        )
        assert run_cli("analyze", "--config", config_arg(workdir)) == 0
        code, err = run_cli_process(workdir, "compare", "--config", "run.ini")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "holds topical (n=4, r=" in err[0]
        assert "current subject tables give topical (n=3, r=" in err[0]
        assert err[0].endswith("; run correlate first")
        assert not list((workdir / "out").glob("comparisons.*"))

    def test_correlations_of_older_tables_is_one_error_line_exit_2(self, workdir):
        """A correlation computed before the tables changed is stale, even
        when every group keeps its subjects."""
        for stage in ("synth", "analyze", "correlate"):
            assert run_cli(stage, "--config", config_arg(workdir)) == 0
        path = workdir / "fixtures" / "topical" / "delta" / "iter_000"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        first["text"] = "love love love great amazing"
        lines[0] = json.dumps(first) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert run_cli("analyze", "--config", config_arg(workdir)) == 0
        code, err = run_cli_process(workdir, "compare", "--config", "run.ini")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "correlations.csv" in err[0] and "run correlate first" in err[0]
        assert not list((workdir / "out").glob("comparisons.*"))
        assert run_cli("correlate", "--config", config_arg(workdir)) == 0
        assert run_cli("compare", "--config", config_arg(workdir)) == 0

    @pytest.mark.parametrize("argv", [("--out", "out"), ("--config", "run.ini")], ids=" ".join)
    def test_repeated_group_is_one_error_line_exit_2(self, workdir, argv):
        assert run_cli("correlate", "--bundled", "--out", workdir / "out") == 0
        source = workdir / "out" / "correlations.csv"
        header, first, *_ = source.read_text(encoding="utf-8").splitlines(keepends=True)
        source.write_text(header + first + first, encoding="utf-8")
        before = tree_bytes(workdir / "out")
        code, err = run_cli_process(workdir, "compare", *argv)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'topical' appears twice" in err[0]
        assert tree_bytes(workdir / "out") == before

    def test_small_n_override_exit_3(self, tmp_path, capsys):
        run_cli("correlate", "--bundled", "--out", tmp_path)
        assert run_cli("compare", "--out", tmp_path, "--n-override", "3") == 3

    def test_group_of_three_names_its_file_and_groups_exit_3(self, workdir):
        assert run_cli("correlate", "--bundled", "--out", workdir / "out") == 0
        source = workdir / "out" / "correlations.csv"
        text = source.read_text(encoding="utf-8")
        source.write_text(text.replace("\nevent,6,", "\nevent,3,", 1), encoding="utf-8")
        before = tree_bytes(workdir / "out")
        code, err = run_cli_process(workdir, "compare", "--out", "out")
        assert code == 3
        assert err == [
            f"error: comparing {Path('out') / 'correlations.csv'}: groups 'topical' and 'event': "
            "z test needs group sizes above 3, got 6 and 3"
        ]
        assert tree_bytes(workdir / "out") == before

    def test_bad_confidence_exit_1(self, tmp_path):
        run_cli("correlate", "--bundled", "--out", tmp_path)
        assert run_cli("compare", "--out", tmp_path, "--confidence", "95") == 1

    def test_bad_confidence_is_reported_before_a_degenerate_comparison(self, tmp_path):
        run_cli("correlate", "--bundled", "--out", tmp_path)
        argv = ("--confidence", "95", "--n-override", "3")
        assert run_cli("compare", "--out", tmp_path, *argv) == 1

    def test_missing_correlations_is_reported_before_bad_confidence(self, tmp_path, capsys):
        assert run_cli("compare", "--out", tmp_path, "--confidence", "95") == 2
        assert "run correlate first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config_line",
        [
            (("--out", "out", "--confidence", "0.9999999999999999"), ""),
            (("--config", "run.ini"), "confidence = 0.9999999999999999\n"),
            (("--config", "run.ini", "--confidence", "0.9999999999999999"), ""),
        ],
        ids=["flag", "config", "flag-over-config"],
    )
    def test_confidence_next_to_1_is_one_error_line_exit_1(self, workdir, argv, config_line):
        """0.5 + confidence / 2 rounds to 1.0, where the normal quantile is
        undefined."""
        config = CONFIG.replace("[run]\n", "[run]\n" + config_line)
        (workdir / "run.ini").write_text(config, encoding="utf-8")
        run_cli("correlate", "--bundled", "--out", workdir / "out")
        code, err = run_cli_process(workdir, "compare", *argv)
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "confidence" in err[0]
        assert not (workdir / "out" / "comparisons.csv").exists()


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

    @pytest.mark.parametrize("command", ["analyze", "export"])
    def test_duplicate_iteration_index_is_one_error_line_exit_2(self, workdir, command):
        run_cli("synth", "--config", config_arg(workdir))
        subject = workdir / "fixtures" / "topical" / "alpha"
        # iter_000 and iter_0000 are both iteration 0
        (subject / "iter_0000").write_bytes((subject / "iter_001").read_bytes())
        code, err = run_cli_process(workdir, command, "--config", "run.ini")
        assert code == 2 and len(err) == 1
        first, second = Path("fixtures/topical/alpha/iter_000"), subject / "iter_0000"
        second = second.relative_to(workdir)
        assert err[0] == f"error: {first} and {second} are both iteration 0; remove one"
        assert not (workdir / "out").exists()


class TestErrorHandling:
    def test_usage_error_exit_1(self, capsys):
        assert run_cli("analyze") == 1
        assert "required" in capsys.readouterr().err

    def test_unknown_command_exit_1(self, capsys):
        assert run_cli("frobnicate") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("synth", "--config", "run.ini", "--seed", " 2_0"), "--seed"),
            (("synth", "--config", "run.ini", "--seed", "\u0661"), "--seed"),
            (("analyze", "--config", "run.ini", "--jobs", "\u0662"), "--jobs"),
            (("compare", "--out", "out", "--n-override", "1_0"), "--n-override"),
            (("compare", "--out", "out", "--confidence", "0.9_5"), "--confidence"),
            (("compare", "--out", "out", "--confidence", "0.\u0669"), "--confidence"),
        ],
    )
    def test_numeric_flag_is_plain_ascii_text_exit_1(self, workdir, monkeypatch, capsys, argv, flag):
        """int() and float() read ' 2_0' as 20 and '١' as 1; a flag may not."""
        monkeypatch.chdir(workdir)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"argument {flag}: invalid" in err and repr(argv[-1]) in err
        assert sorted(p.name for p in workdir.iterdir()) == ["run.ini"]

    def test_numeric_flags_read_plain_text_with_whitespace(self):
        parser = build_parser()
        assert parser.parse_args(["synth", "--config", "x", "--seed", " -3 "]).seed == -3
        assert parser.parse_args(["analyze", "--config", "x", "--jobs", "2 "]).jobs == 2
        args = parser.parse_args(["compare", "--n-override", " 10", "--confidence", "0.950"])
        assert (args.n_override, args.confidence) == (10, 0.95)

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
            ("[DEFAULT]\nseed = 2\n" + CONFIG, "[DEFAULT]"),
        ],
        ids=["aliases-section", "misspelt-run-key", "default-section"],
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
        assert run_cli("synth", "--config", ini) == 0
        # analyze tables a group of any size; correlating it needs three subjects
        assert run_cli("analyze", "--config", ini) == 0
        table = (tmp_path / "out" / "tables" / "topical.csv").read_text(encoding="utf-8")
        assert [line.split(",")[0] for line in table.splitlines()[1:]] == ["Solo", "Duo"]
        capsys.readouterr()
        assert run_cli("correlate", "--config", ini) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'topical'" in err
        assert not list((tmp_path / "out").glob("correlations.*"))

    @pytest.mark.parametrize(
        "target, command, code",
        [
            ("run.ini", "synth", 1),
            ("lexicon.tsv", "synth", 2),
            ("out/tables/topical.csv", "correlate", 2),
            pytest.param("out/correlations.csv", "compare", 2, id="correlations.csv-compare"),
        ],
    )
    def test_undecodable_input_is_one_error_line(self, workdir, capsys, target, command, code):
        config = CONFIG.replace("[run]\n", "[run]\nlexicon = lexicon.tsv\n")
        (workdir / "run.ini").write_text(config, encoding="utf-8")
        inputs = ("lexicon.tsv", "out/tables/topical.csv", "out/tables/event.csv")
        for name in inputs + ("out/correlations.csv",):
            (workdir / name).parent.mkdir(parents=True, exist_ok=True)
            (workdir / name).write_bytes(b"placeholder\n")
        (workdir / target).write_bytes(b"\xff\xfe bad bytes\n")
        assert run_cli(command, "--config", config_arg(workdir)) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "decode" in err

    @pytest.mark.parametrize("command", ["synth", "analyze"])
    @pytest.mark.parametrize("token", ["\ufeffjoyful", "x-ray"], ids=["bom", "hyphen"])
    def test_unmatchable_lexicon_token_is_one_error_line_exit_2(
        self, workdir, capsys, command, token
    ):
        # one entry that score_text can never match, first in the file, then the bundled ones
        entries = threadknit.sentiment.bundled_lexicon().entries.items()
        lexicon = f"{token}\t1\n" + "".join(f"{key}\t{valence}\n" for key, valence in entries)
        if command == "analyze":
            assert run_cli("synth", "--config", config_arg(workdir)) == 0
        (workdir / "lexicon.tsv").write_text(lexicon, encoding="utf-8")
        config = CONFIG.replace("[run]\n", "[run]\nlexicon = lexicon.tsv\n")
        (workdir / "run.ini").write_text(config, encoding="utf-8")
        before = tree_bytes(workdir)
        capsys.readouterr()
        assert run_cli(command, "--config", config_arg(workdir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(token) in err
        assert f"{workdir / 'lexicon.tsv'}:1:" in err
        assert tree_bytes(workdir) == before

    @pytest.mark.parametrize("valence", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
    def test_valence_that_is_not_ascii_number_text_is_exit_2(self, workdir, capsys, valence):
        (workdir / "lexicon.tsv").write_text(f"calm\t0.5\ngood\t{valence}\n", encoding="utf-8")
        config = CONFIG.replace("[run]\n", "[run]\nlexicon = lexicon.tsv\n")
        (workdir / "run.ini").write_text(config, encoding="utf-8")
        capsys.readouterr()
        assert run_cli("synth", "--config", config_arg(workdir)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {workdir / 'lexicon.tsv'}:2: bad valence {valence!r}\n"
        assert not (workdir / "fixtures").exists()

    @pytest.mark.parametrize("subject", ["東京", "!!!"])
    def test_subject_without_slug_is_one_error_line(self, tmp_path, subject):
        (tmp_path / "run.ini").write_text(
            CONFIG + f"geographic = {subject}, NYC, London\n", encoding="utf-8"
        )
        code, err = run_cli_process(tmp_path, "synth", "--config", "run.ini")
        assert code == 1 and len(err) == 1
        assert err[0].startswith("error: ") and "run.ini" in err[0]
        assert "'geographic'" in err[0] and repr(subject) in err[0]
        assert not (tmp_path / "fixtures").exists()

    def test_stale_iteration_file_is_refused_by_analyze_and_export(self, workdir, capsys):
        """synth writes its plan and nothing else; the stages that read the
        tree refuse the iteration file a shorter plan leaves behind."""
        assert run_cli("synth", "--config", config_arg(workdir)) == 0
        fixtures = workdir / "fixtures"
        before = tree_bytes(fixtures)
        (workdir / "run.ini").write_text(
            CONFIG.replace("iterations = 3", "iterations = 2"), encoding="utf-8"
        )
        assert run_cli("synth", "--config", config_arg(workdir)) == 0
        assert tree_bytes(fixtures) == before
        stale = fixtures / "topical" / "alpha" / "iter_002"
        for command in ("analyze", "export"):
            capsys.readouterr()
            assert run_cli(command, "--config", config_arg(workdir)) == 2
            err = capsys.readouterr().err
            assert err == f"error: {stale}: iteration index 2 outside plan of 2\n"
        assert not (workdir / "out" / "tables").exists()
        assert not (workdir / "out" / "graphs").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--config", "run.ini"),
            ("analyze", "--config", "run.ini"),
            ("correlate", "--config", "run.ini"),
            ("correlate", "--bundled"),
            ("compare", "--config", "run.ini"),
            ("compare",),
            ("export", "--config", "run.ini"),
        ],
        ids=" ".join,
    )
    def test_empty_out_is_one_error_line_exit_1(self, workdir, argv):
        """An empty --out is not the current directory: nothing is written."""
        for stage in ("synth", "analyze", "correlate"):
            assert run_cli(stage, "--config", config_arg(workdir)) == 0
        before = tree_bytes(workdir)
        code, err = run_cli_process(workdir, *argv, "--out", "")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "nonempty path" in err[0]
        assert tree_bytes(workdir) == before

    @pytest.mark.parametrize("command", ["analyze", "correlate", "export"])
    def test_group_flag_is_one_error_line_exit_1(self, workdir, command):
        """[groups] alone decides which groups a stage covers."""
        for stage in ("synth", "analyze", "correlate"):
            assert run_cli(stage, "--config", config_arg(workdir)) == 0
        before = tree_bytes(workdir)
        code, err = run_cli_process(workdir, command, "--config", "run.ini", "--group", "event")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "--group" in err[0]
        assert tree_bytes(workdir) == before

    def test_line_break_quoted_from_a_table_stays_on_the_error_line(self, workdir, capsys):
        for stage in ("synth", "analyze"):
            assert run_cli(stage, "--config", config_arg(workdir)) == 0
        table = workdir / "out" / "tables" / "topical.csv"
        text = table.read_text(encoding="utf-8")
        table.write_text(text.replace("Alpha,", '"Al\npha",', 1), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("correlate", "--config", config_arg(workdir)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "holds subjects Al\\npha, Beta Co" in err

    def test_parser_raises_config_error_directly(self):
        parser = build_parser()
        with pytest.raises(ConfigError):
            parser.parse_args(["synth"])


# cells a corruption writes: the reader's known traps first, then any short text
SEED_CELLS = (
    "nan", "inf", "6e0", "1e309", "0x10", "\u0663", "\u0661\u0660", "1_000", " 10 ", "010", "0.10",
    "", '"', "1\n2", '"1\n2"', "\x00", "9" * 5001,
)
CELLS = st.one_of(st.sampled_from(SEED_CELLS), st.text(max_size=8))
UNDECODABLE = (b"\xff", b"\x80", b"\xed\xa0\x80")


@pytest.fixture(scope="module")
def handoff(tmp_path_factory):
    """The CLI config's out/ after synth, analyze and correlate, and its bytes."""
    workdir = tmp_path_factory.mktemp("handoff")
    (workdir / "run.ini").write_text(CONFIG, encoding="utf-8")
    with redirect_stdout(StringIO()):
        for stage in ("synth", "analyze", "correlate"):
            assert run_cli(stage, "--config", workdir / "run.ini") == 0
    return workdir, tree_bytes(workdir / "out")


@st.composite
def corruptions(draw, text):
    """``text`` with one cell replaced, added or dropped, or with undecodable
    bytes inserted: (how, new bytes, a replaced data cell's column or None, its text)."""
    rows = [line.split(",") for line in text.splitlines()]
    how = draw(st.sampled_from(["replace", "add", "drop", "bytes"]))
    if how == "bytes":
        raw = text.encode("utf-8")
        at = draw(st.integers(0, len(raw)))
        return how, raw[:at] + draw(st.sampled_from(UNDECODABLE)) + raw[at:], None, None
    row = draw(st.integers(0, len(rows) - 1))
    # an added cell may go after the last one
    column = draw(st.integers(0, len(rows[row]) - (how != "add")))
    replaced = None
    if how == "replace":
        replaced = rows[row][column] = draw(CELLS)
    elif how == "add":
        rows[row].insert(column, draw(CELLS))
    else:
        del rows[row][column]
    data = "".join(",".join(cells) + "\n" for cells in rows).encode("utf-8")
    return how, data, (column if row and how == "replace" else None), replaced


class TestHandoffFuzz:
    """A corrupted subject table or correlations.csv ends in an exit code,
    one error line naming the file, and no change under out/."""

    @pytest.mark.parametrize(
        "name, stage, spec, written",
        [
            ("tables/topical.csv", "correlate", threadknit.tables.SUBJECT_TABLE, "correlations"),
            ("correlations.csv", "compare", threadknit.tables.CORRELATIONS, "comparisons"),
        ],
    )
    @settings(max_examples=300)
    @given(data=st.data())
    def test_corrupted_handoff_file(self, handoff, name, stage, spec, written, data):
        workdir, before = handoff
        out = workdir / "out"
        target = out / name
        how, corrupted, column, cell = data.draw(corruptions(before[Path(name)].decode("utf-8")))
        target.write_bytes(corrupted)
        flag = ["--config", workdir / "run.ini"] if stage == "correlate" else ["--out", out]
        stderr = StringIO()
        try:
            with redirect_stdout(StringIO()), redirect_stderr(stderr):
                code = run_cli(stage, *flag)
            changed = {
                path for path, content in tree_bytes(out).items()
                if before.get(path) != content and path != Path(name)
            }
        finally:
            for path in tree_bytes(out).keys() - before.keys():
                (out / path).unlink()
            for path, content in before.items():
                (out / path).write_bytes(content)
        # only a replaced cell can leave a file that write_csv could have written
        assert code in ({0, 1, 2, 3} if how == "replace" else {2})
        if code == 0:
            assert {path.stem for path in changed} <= {written}
            return
        # a line ends at a line feed only; text such as "\x1e" may be quoted from the file
        *lines, end = stderr.getvalue().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error: ") and end == "", lines
        assert not changed
        assert "set_int_max_str_digits" not in lines[0]
        if code in (2, 3):
            assert target.name in lines[0]
        if column is not None and not {",", '"', "\r", "\n"} & set(cell):
            label, _, kind = spec.columns[column]
            try:
                value = kind(cell)
                # write_csv writes str(int) and repr(float), and only finite floats
                bad = (repr if kind is float else str)(value) != cell
                bad = bad or kind is float and not math.isfinite(value)
            except ValueError:
                bad = True
            if bad:
                assert f"field {label!r}" in lines[0]


# a fixture field's new value, as JSON text: the reader's known traps first
SEED_VALUES = (
    "1" + "0" * 5000, '"x\\ud800"', '"2022-12-25"', '"2022-12-25T00:00:00+05:00"',
    '"2022-12-25+05:00"', '"2022-12-25x05:00"', '"0001-01-01T00:00:00+01:00"', "20221225",
)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.sampled_from(["", "@", "a b", "x\ud800"]), st.text(max_size=8),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
VALUES = st.one_of(st.sampled_from(SEED_VALUES), st.builds(json.dumps, JSON_VALUES))
FIELDS = ("id", "text", "author", "created_at", "reply_to", "mentions", "retweet_of", "quote_of")
# stands in for a field's value in json.dumps's output, then is replaced by the drawn text
PLACEHOLDER = json.dumps("\x00value\x00")


@pytest.fixture(scope="module")
def fixture_tree(tmp_path_factory):
    """The CLI config's fixture tree after synth, and each iteration file's bytes."""
    workdir = tmp_path_factory.mktemp("fixture-fuzz")
    (workdir / "run.ini").write_text(CONFIG, encoding="utf-8")
    with redirect_stdout(StringIO()):
        assert run_cli("synth", "--config", workdir / "run.ini") == 0
    return workdir, tree_bytes(workdir / "fixtures")


@st.composite
def line_corruptions(draw, text):
    """``text`` with one line's field set or dropped, the line replaced, or
    undecodable bytes inserted into it, as the file's new bytes."""
    lines = text.split("\n")
    at = draw(st.integers(0, len(lines) - 2))  # the text ends with a line feed
    how = draw(st.sampled_from(["set", "drop", "replace", "bytes"]))
    if how == "bytes":
        before = "\n".join(lines[:at + 1]).encode("utf-8")
        cut = draw(st.integers(len(before) - len(lines[at].encode("utf-8")), len(before)))
        raw = text.encode("utf-8")
        return raw[:cut] + draw(st.sampled_from(UNDECODABLE)) + raw[cut:]
    record = json.loads(lines[at])
    if how == "set":
        record[draw(st.sampled_from(FIELDS))] = json.loads(PLACEHOLDER)
        lines[at] = json.dumps(record).replace(PLACEHOLDER, draw(VALUES))
    elif how == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
        lines[at] = json.dumps(record)
    else:
        truncated = lines[at][: draw(st.integers(0, len(lines[at]) - 1))]
        seeds = st.sampled_from(["{", "[]", "[" * 100_000, truncated])
        lines[at] = draw(seeds | st.text(max_size=8))
    return "\n".join(lines).encode("utf-8")


class TestFixtureFuzz:
    """A corrupted line of one iteration file ends analyze in an exit code
    and, on failure, one error line naming the file and nothing under --out."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_corrupted_fixture_line(self, fixture_tree, data):
        workdir, before = fixture_tree
        name = data.draw(st.sampled_from(sorted(before)))
        target = workdir / "fixtures" / name
        target.write_bytes(data.draw(line_corruptions(before[name].decode("utf-8"))))
        out = workdir / "runs" / "out"
        stderr = StringIO()
        try:
            with redirect_stdout(StringIO()), redirect_stderr(stderr):
                code = run_cli("analyze", "--config", workdir / "run.ini", "--out", out)
            written = tree_bytes(out)
        finally:
            target.write_bytes(before[name])
            shutil.rmtree(out, ignore_errors=True)
        err = stderr.getvalue()
        assert code in {0, 2, 3}
        assert "Traceback" not in err and "set_int_max_str_digits" not in err
        if code == 0:
            return
        # a line ends at a line feed only; text such as "\x1e" may be quoted from the file
        *lines, end = err.split("\n")
        assert len(lines) == 1 and lines[0].startswith("error: ") and end == "", lines
        assert not written
        if code == 2:
            assert str(target) in lines[0]


def assert_one_outcome(code, err, named):
    """An exit code, and on failure one error line, naming ``named`` on exit 2."""
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err
    if code == 0:
        return
    # a line ends at a line feed only; text such as "\x1e" may be quoted from the file
    *lines, end = err.split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ") and end == "", lines
    if code == 2:
        assert re.search(named, lines[0]), lines[0]


LEXICON_CONFIG = """\
[run]
per_iteration_count = 24
iterations = 1
lexicon = lexicon.tsv

[groups]
topical = Alpha, Beta
"""
LEXICON = "# token<TAB>valence\n" + "".join(
    f"{token}\t{valence}\n" for token, valence in MINI_LEXICON_ENTRIES.items()
)
# a lexicon line's new token or valence: the parser's known traps first
TOKENS = st.one_of(
    st.sampled_from(
        ["", "Good", "go od", "don't", "'tis", "x_y", "na\u00efve", "\u0130", "a\u0301"]
    ),
    st.text(max_size=6),
)
VALENCES = st.one_of(
    st.sampled_from(
        ["nan", "-inf", "1e309", "1_0", "\u0661", "0x1", "", " 2 ", "-0", "1e-320", "1e300", "5."]
    ),
    st.text(max_size=6),
)


@st.composite
def lexicon_mutations(draw):
    """LEXICON with one to three of: a line's tab changed, its token or its
    valence replaced, a BOM, a comment, a U+2028 or a duplicated line."""
    lines = LEXICON.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 2))  # the text ends with a line feed
        token, _, valence = lines[at].partition("\t")
        how = draw(st.sampled_from(["tab", "token", "valence", "bom", "comment", "u2028", "twice"]))
        if how == "tab":
            lines[at] = token + draw(st.sampled_from(["", " ", "\t\t", "\t \t"])) + valence
        elif how == "token":
            lines[at] = f"{draw(TOKENS)}\t{valence}"
        elif how == "valence":
            lines[at] = f"{token}\t{draw(VALENCES)}"
        elif how == "bom":
            lines[0] = "\ufeff" + lines[0]
        elif how == "comment":
            lines.insert(at, draw(st.sampled_from(["#", "  # indented", "#\t1", "# x\tbad\t2"])))
        elif how == "u2028":
            cut = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + "\u2028" + lines[at][cut:]
        else:
            lines.insert(at, draw(st.sampled_from([lines[at], f"{token}\t{draw(VALENCES)}"])))
    return "\n".join(lines).encode("utf-8")


class TestLexiconFuzz:
    """A mutated lexicon ends synth, then analyze, in an exit code and, on
    failure, one error line, naming the lexicon on exit 2, and nothing under out/."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("lexicon-fuzz")
        (workdir / "run.ini").write_text(LEXICON_CONFIG, encoding="utf-8")
        return workdir

    @settings(max_examples=60)
    @given(data=st.data())
    def test_mutated_lexicon(self, workdir, data):
        lexicon = workdir / "lexicon.tsv"
        lexicon.write_bytes(data.draw(lexicon_mutations()))
        out = workdir / "out"
        try:
            for stage in ("synth", "analyze"):
                stderr = StringIO()
                with redirect_stdout(StringIO()), redirect_stderr(stderr):
                    code = run_cli(stage, "--config", workdir / "run.ini")
                assert_one_outcome(code, stderr.getvalue(), re.escape(str(lexicon)))
                if code:
                    assert not out.exists()
                    break
        finally:
            shutil.rmtree(out, ignore_errors=True)


CONFIG_KEYS = st.one_of(
    st.sampled_from([*RUN_KEYS, "topical", "event", "Seed", "iters"]), st.text(max_size=6)
)
SECTIONS = st.one_of(st.sampled_from(["run", "groups", "Run", "extra"]), st.text(max_size=5))
CONFIG_VALUES = st.one_of(
    st.sampled_from(
        [
            "", "0", "-1", "1e3", "1_0", "\u0661", "nan", "inf", "1.0", "yes", "maybe",
            "reply, mention", "telepathy", "Alpha, Alpha", "\u00c9lan", "a\u2028b", "/", "..",
            "9" * 5000,
        ]
    ),
    st.text(max_size=8),
)


@st.composite
def config_mutations(draw):
    """CONFIG with one to three of: a key renamed, added or dropped, a value
    replaced, a section header added or renamed, a [DEFAULT] section; then
    encoded as UTF-8, UTF-8 with a BOM, Latin-1 or UTF-16."""
    lines = CONFIG.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        # past the first header, which a section mutation may rename or a BOM hide
        at = draw(st.integers(1, len(lines) - 1))
        key, equals, value = lines[at].partition("=")
        how = draw(st.sampled_from(["key", "value", "add", "drop", "section", "default"]))
        if how == "key" and equals:
            lines[at] = f"{draw(CONFIG_KEYS)} ={value}"
        elif how == "value" and equals:
            lines[at] = f"{key}= {draw(CONFIG_VALUES)}"
        elif how == "drop":
            del lines[at]
        elif how == "section" and lines[at].startswith("["):
            lines[at] = f"[{draw(SECTIONS)}]"
        elif how == "section":
            lines.insert(at, f"[{draw(SECTIONS)}]")
        elif how == "default":
            lines[at:at] = ["[DEFAULT]", f"{draw(CONFIG_KEYS)} = {draw(CONFIG_VALUES)}"]
        else:
            lines.insert(at, f"{draw(CONFIG_KEYS)} = {draw(CONFIG_VALUES)}")
    # mostly UTF-8, so that most examples reach the checks past the decoder
    encoding = draw(st.sampled_from(["utf-8"] * 3 + ["utf-8-sig", "latin-1", "utf-16"]))
    return "\n".join(lines).encode(encoding, errors="replace")


class TestConfigFuzz:
    """A mutated config file ends correlate, in a directory with no tables,
    in an exit code and one error line: exit 1 naming the config, or exit 2
    naming the missing table; nothing is written."""

    @settings(max_examples=150)
    @given(raw=config_mutations())
    def test_mutated_config(self, tmp_path_factory, raw):
        workdir = tmp_path_factory.mktemp("config-fuzz")
        ini = workdir / "run.ini"
        ini.write_bytes(raw)
        stderr = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(stderr):
            code = run_cli("correlate", "--config", ini)
        err = stderr.getvalue()
        missing_table = r"missing subject table .*tables[/\\][a-z]+\.csv; run analyze first"
        assert_one_outcome(code, err, missing_table)
        assert code in {1, 2}
        if code == 1:
            assert str(ini) in err
        assert [path.name for path in workdir.iterdir()] == ["run.ini"]


# every subcommand's options: adding or removing one is a deliberate edit here
OPTIONS = {
    "synth": ["--config", "--out", "--seed"],
    "analyze": ["--config", "--out", "--jobs"],
    "correlate": ["--config", "--out", "--bundled"],
    "compare": ["--config", "--out", "--n-override", "--confidence"],
    "export": ["--config", "--out"],
}

# every stage function's parameters, pinned like the options above
PARAMETERS = {
    threadknit.pipeline.analyze_groups: ["config", "jobs"],
    threadknit.synth.write_fixture_tree: ["config"],
    threadknit.sentiment.load_lexicon: ["path"],
    threadknit.pipeline.export_graphs: ["config"],
    threadknit.tables.read_tables: ["config"],
    threadknit.tables.read_correlations: ["out_dir", "config"],
    threadknit.tables.compare_groups: ["reports", "n_override", "confidence"],
    # the plan's one source is the config
    threadknit.pipeline.read_iteration: ["path", "config"],
    threadknit.ingest.parse_fixture: ["path"],
    # perfbench/test_perfbench.py counts a batch's graph under every edge kind
    threadknit.graph.build_graph: ["batch"],
    threadknit.pipeline.iteration_files: ["config", "kind", "subject"],
}


class TestInventory:
    def test_options_are_pinned(self):
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        found = {
            name: [
                option for action in command._actions for option in action.option_strings
                if option not in ("-h", "--help")
            ]
            for name, command in commands.choices.items()
        }
        assert found == OPTIONS
        assert sum(map(len, found.values())) == 15

    @pytest.mark.parametrize("function", PARAMETERS, ids=lambda function: function.__name__)
    def test_stage_parameters_are_pinned(self, function):
        assert list(inspect.signature(function).parameters) == PARAMETERS[function]

    def test_query_spec_only_names_a_subject(self):
        assert threadknit.ingest.QuerySpec._fields == ("kind", "subject")

    def test_readme_commands_parse(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        blocks = readme.split("```")[1::2]
        lines = [
            line for block in blocks for line in block.splitlines()
            if line.startswith("threadknit ")
        ]
        assert len(lines) >= 7
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line, comments=True)[1:])

    def test_readme_python_example_writes_what_the_stages_write(self, workdir):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
        (workdir / "example.py").write_text(example, encoding="utf-8")
        assert run_cli("synth", "--config", config_arg(workdir)) == 0
        # the default confidence, then one the example must hand to compare_groups
        for config in (CONFIG, CONFIG.replace("[run]\n", "[run]\nconfidence = 0.9\n")):
            (workdir / "run.ini").write_text(config, encoding="utf-8")
            done = subprocess.run(
                [sys.executable, "example.py"], cwd=workdir, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
            )
            assert done.returncode == 0, done.stderr
            written = tree_bytes(workdir / "out")
            for stage in ("analyze", "correlate", "compare"):
                assert run_cli(stage, "--config", config_arg(workdir)) == 0
            assert tree_bytes(workdir / "out") == written

    def test_readme_run_example_lists_every_run_key(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        run_section = example.split("[run]\n", 1)[1].split("[groups]", 1)[0]
        # commented-out keys count: they show an optional key and its default
        keys = re.findall(r"^;?\s*(\w+)\s*=", run_section, flags=re.MULTILINE)
        assert sorted(keys) == sorted(RUN_KEYS) and len(keys) == len(set(keys))


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


def write_zero_variance_tree(root):
    """Three subjects with one and the same iteration: beta 2/3 and one
    alpha for each, so the group's ratios have zero variance."""
    (root / "run.ini").write_text(
        "[run]\nper_iteration_count = 10\niterations = 1\n[groups]\ntopical = A, B, C\n",
        encoding="utf-8",
    )
    lines = (
        '{"id": "1", "text": "love", "author": "x", "mentions": ["y"]}\n'
        '{"id": "2", "text": "hate", "author": "z"}\n'
    )
    for slug in "abc":
        path = root / "fixtures" / "topical" / slug / "iter_000"
        path.parent.mkdir(parents=True)
        path.write_text(lines, encoding="utf-8")


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


# synth, analyze --jobs 2 and export on two-worker pools under the start method
# named by argv[1], in a fresh interpreter
POOLED_STAGES = """\
import multiprocessing, sys
import threadknit.pipeline, threadknit.synth
from threadknit.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1], force=True)
    # a pool for every stage, whatever the tree's size and the host's cores
    threadknit.synth._FILES_PER_WORKER = 1
    threadknit.pipeline._EXPORT_BYTES_PER_WORKER = 1
    threadknit.pipeline.usable_cores = lambda: 2
    for stage in (["synth"], ["analyze", "--jobs", "2"], ["export"]):
        if main([*stage, "--config", "run.ini"]):
            sys.exit(1)
"""


class TestJobs:
    @pytest.fixture(scope="class")
    def in_process(self, tmp_path_factory):
        """The fixture tree and out/ that synth, analyze and export write
        in this process, starting no pool."""
        workdir = tmp_path_factory.mktemp("in-process")
        (workdir / "run.ini").write_text(CONFIG, encoding="utf-8")
        with redirect_stdout(StringIO()):
            for stage in ("synth", "analyze", "export"):
                assert run_cli(stage, "--config", workdir / "run.ini") == 0
        return tree_bytes(workdir / "fixtures"), tree_bytes(workdir / "out")

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_every_start_method_writes_the_same_bytes(self, workdir, in_process, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        done = subprocess.run(
            [sys.executable, "-c", POOLED_STAGES, method],
            cwd=workdir, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tree_bytes(workdir / "fixtures"), tree_bytes(workdir / "out")) == in_process
        assert len(in_process[0]) == 24 and len(in_process[1]) == 14

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
        monkeypatch.setattr(threadknit.pipeline, "_run_task", _exit_in_worker)
        # a pool even on a one-core machine, where the task would run in-process
        monkeypatch.setattr(threadknit.pipeline, "usable_cores", lambda: 2)
        assert run_cli("analyze", "--config", config_arg(workdir), "--jobs", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "worker" in err
        assert not (workdir / "out").exists()

    def test_dead_synth_worker_is_one_error_line_exit_2(
        self, workdir, capsys, monkeypatch, fork_start
    ):
        monkeypatch.setattr(threadknit.pipeline, "_run_task", _exit_in_worker)
        monkeypatch.setattr(threadknit.pipeline, "usable_cores", lambda: 2)
        # fan the 24-file tree out, as a large one would be
        monkeypatch.setattr(threadknit.synth, "_FILES_PER_WORKER", 1)
        assert run_cli("synth", "--config", config_arg(workdir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "worker" in err
        assert not (workdir / "fixtures").exists()

    @pytest.mark.parametrize(
        "groups, iterations, fans_out",
        [(CLI_GROUPS, 3, False), (PERFBENCH_GROUPS, 2, False), (PERFBENCH_GROUPS, 100, True)],
        ids=["cli-config", "paper", "synth-default"],
    )
    def test_synth_fans_out_only_large_trees(
        self, tmp_path, monkeypatch, groups, iterations, fans_out
    ):
        """The fan-out rule, read from the jobs synth asks for; nothing is timed or written."""
        asked = []
        monkeypatch.setattr(
            threadknit.synth, "run_in_workers", lambda call, tasks, jobs, *shared: asked.append(jobs) or []
        )
        lines = ["[run]", "per_iteration_count = 950", f"iterations = {iterations}", "[groups]"]
        lines += [f"{kind} = {', '.join(subjects)}" for kind, subjects in groups]
        (tmp_path / "run.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("synth", "--config", tmp_path / "run.ini") == 0
        assert len(asked) == 1 and (asked[0] > 1) == fans_out

    def export_errors(self, workdir, capsys, monkeypatch):
        """(exit code, stderr) of export in-process and on a forced 2-worker pool."""
        results = []
        for per_worker in (threadknit.pipeline._EXPORT_BYTES_PER_WORKER, 1):
            monkeypatch.setattr(threadknit.pipeline, "_EXPORT_BYTES_PER_WORKER", per_worker)
            code = run_cli("export", "--config", config_arg(workdir))
            results.append((code, capsys.readouterr().err))
        return results

    def test_bad_final_iteration_same_export_error_in_process_and_pooled(
        self, workdir, capsys, monkeypatch, two_cores
    ):
        run_cli("synth", "--config", config_arg(workdir))
        for slug in ("topical/gamma", "event/parade"):
            path = workdir / "fixtures" / slug / "iter_002"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[1] = "{not json\n"
            path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        serial, pooled = self.export_errors(workdir, capsys, monkeypatch)
        assert serial == pooled
        code, err = serial
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("error: ") and "gamma" in err and "invalid JSON" in err

    @pytest.mark.parametrize("malformed, missing", [("beta-co", "launch"), ("launch", "beta-co")])
    def test_first_failing_subject_wins_the_export_error(
        self, workdir, capsys, monkeypatch, two_cores, malformed, missing
    ):
        """A malformed final iteration and a missing subject directory: the one
        earlier in configuration order is reported, whether or not a pool runs."""
        run_cli("synth", "--config", config_arg(workdir))
        kinds = {"beta-co": "topical", "launch": "event"}
        path = workdir / "fixtures" / kinds[malformed] / malformed / "iter_002"
        path.write_text("{not json\n", encoding="utf-8")
        shutil.rmtree(workdir / "fixtures" / kinds[missing] / missing)
        capsys.readouterr()
        serial, pooled = self.export_errors(workdir, capsys, monkeypatch)
        assert serial == pooled
        code, err = serial
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: ")
        if malformed == "beta-co":
            assert "beta-co" in err and "invalid JSON" in err
        else:
            assert err.startswith("error: no fixtures for topical/Beta Co")

    def test_dead_export_worker_is_one_error_line_exit_2(
        self, workdir, capsys, monkeypatch, two_cores, fork_start
    ):
        run_cli("synth", "--config", config_arg(workdir))
        capsys.readouterr()
        monkeypatch.setattr(threadknit.pipeline, "_run_task", _exit_in_worker)
        monkeypatch.setattr(threadknit.pipeline, "_EXPORT_BYTES_PER_WORKER", 1)
        assert run_cli("export", "--config", config_arg(workdir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "worker" in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("tree", ["cli-config", "synth-default", "paper"])
    def test_export_fans_out_only_large_trees(self, workdir, monkeypatch, tree):
        """The fan-out rule, read from the jobs export asks for; nothing is timed."""
        if tree == "cli-config":
            run_cli("synth", "--config", config_arg(workdir))
        else:
            lines = ["[run]", "per_iteration_count = 950", "iterations = 2", "[groups]"]
            lines += [f"{kind} = {', '.join(subjects)}" for kind, subjects in PERFBENCH_GROUPS]
            (workdir / "run.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")
            run_cli("synth", "--config", config_arg(workdir))
        if tree == "paper":
            # paper-sized final iterations, about 180 KB each, of filler records
            record = {"id": "0", "text": "filler " * 24, "author": "a", "mentions": ["b"]}
            filler = "".join(json.dumps(dict(record, id=str(i))) + "\n" for i in range(950))
            for path in (workdir / "fixtures").glob("*/*/iter_001"):
                path.write_text(filler, encoding="utf-8")
        asked = []
        monkeypatch.setattr(
            threadknit.pipeline,
            "run_in_workers",
            lambda call, tasks, jobs, *shared: asked.append(jobs) or [],
        )
        assert run_cli("export", "--config", config_arg(workdir)) == 0
        assert len(asked) == 1 and (asked[0] > 1) == (tree == "paper")

    def test_cli_import_loads_no_process_pool(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = (
            "import sys, threadknit.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing', 'threadknit.synth') if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0 and done.stdout.strip() == "[]"


class TestStageImports:
    """Each stage loads only the code it runs.  Every stage runs in a fresh
    ``python -S`` interpreter, whose site hook cannot preload modules."""

    # the package modules of correlate --config and compare --config
    TABLE_STAGE = {
        "threadknit", "threadknit.cli", "threadknit.errors", "threadknit.config",
        "threadknit.tables", "threadknit.records", "threadknit.stats", "threadknit.components",
    }
    LAZY = {"statistics", "fractions", "decimal", "datetime", "concurrent.futures", "importlib.resources"}

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """The modules loaded by correlate, compare and export, each run with
        --config on the CLI config's tree."""
        workdir = tmp_path_factory.mktemp("imports")
        (workdir / "run.ini").write_text(CONFIG, encoding="utf-8")
        with redirect_stdout(StringIO()):
            for stage in ("synth", "analyze", "correlate"):
                assert run_cli(stage, "--config", workdir / "run.ini") == 0
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from threadknit.cli import main; "
            "code = main(sys.argv[2:]); print(code, *sorted(sys.modules))"
        )
        modules = {}
        for stage in ("correlate", "compare", "export"):
            done = subprocess.run(
                [sys.executable, "-S", "-c", code, str(SRC), stage, "--config", "run.ini"],
                cwd=workdir, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            status, *names = done.stdout.splitlines()[-1].split()
            assert status == "0"
            modules[stage] = set(names)
        return modules

    def package(self, modules):
        return {name for name in modules if name.split(".")[0] == "threadknit"}

    def test_correlate_loads_the_table_stage_alone(self, loaded):
        assert self.package(loaded["correlate"]) == self.TABLE_STAGE
        assert not loaded["correlate"] & self.LAZY

    def test_compare_adds_only_statistics(self, loaded):
        assert self.package(loaded["compare"]) == self.TABLE_STAGE
        assert not loaded["compare"] & (self.LAZY - {"statistics", "fractions", "decimal"})

    def test_export_loads_no_table_stage(self, loaded):
        assert not loaded["export"] & {"threadknit.tables", "statistics", "fractions"}


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

    def test_zero_variance_group_is_written_then_correlate_exit_3(self, tmp_path):
        """analyze writes the tables; the correlation it cannot define is
        correlate's error, not analyze's."""
        write_zero_variance_tree(tmp_path)
        assert run_cli_process(tmp_path, "analyze", "--config", "run.ini") == (0, [])
        table = (tmp_path / "out" / "tables" / "topical.csv").read_text(encoding="utf-8")
        assert [row.split(",")[:3] for row in table.splitlines()[1:]] == [
            [subject, "3", "2"] for subject in "ABC"
        ]
        code, err = run_cli_process(tmp_path, "correlate", "--config", "run.ini")
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: ") and "zero variance" in err[0]
        assert not list((tmp_path / "out").glob("correlations.*"))

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
