from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from threadknit.cli import main
from threadknit.errors import ConfigError, DataError, DegeneracyError
from threadknit.config import EDGE_KINDS, RunConfig, load_config
from threadknit.ingest import iteration_filename, iteration_index, subject_dir, write_fixture_fields
from threadknit.pipeline import (
    analyze_groups,
    analyze_subject,
    export_dot,
    export_graphs,
    iteration_files,
    read_iteration,
    worker_count,
)
from threadknit.records import read_records, write_csv
from threadknit.stats import compare_correlations, zou_interval
from threadknit.synth import default_plan, write_fixture_tree
from threadknit.tables import (
    CORRELATIONS,
    SCATTER,
    bundled_tables,
    canonical_pairs,
    compare_groups,
    correlate_tables,
    read_correlations,
    read_tables,
    render_comparisons,
    render_correlations,
    render_tables,
)

from conftest import make_status
from oracles import closure_component_counts, reference_graph, reference_score_text

# Frozen correlations of the bundled reference tables (r, p at n = 6).
BUNDLED_EXPECTED = {
    "topical": (-0.7715983869, 0.0722934),
    "event": (-0.3354098925, 0.5157519),
    "geographic": (-0.5415485606, 0.2670884),
    "individual": (-0.9426046513, 0.0048468),
}


def tiny_config(tmp_path, groups, **overrides):
    settings = dict(
        fixtures_dir=tmp_path / "fixtures",
        output_dir=tmp_path / "out",
        groups=groups,
        per_iteration_count=50,
        iterations=3,
        seed=17,
    )
    settings.update(overrides)
    return RunConfig(**settings)


def planted_config(tmp_path, groups=None, **overrides):
    config = tiny_config(
        tmp_path,
        groups if groups is not None else [("topical", tuple("ABCDEF"))],
        **overrides,
    )
    write_fixture_tree(config)
    return config


def write_chain(config, index, length, alpha_word, subject="A"):
    """A directed chain a0 -> a1 -> ... of mentions through the fixture
    writer, as iteration ``index`` of topical ``subject``; every status
    scores the same word so the batch mean is that word's valence.  Returns
    the statuses."""
    statuses = [
        make_status(
            f"{index}_{k}",
            f"a{k}",
            text=alpha_word,
            mentions=(f"a{k + 1}",),
        )
        for k in range(length - 1)
    ]
    directory = subject_dir(config.fixtures_dir, "topical", subject)
    write_fixture_fields(directory / iteration_filename(index), statuses)
    return statuses


class TestAnalyzeSubject:
    def test_chain_counts_and_alpha(self, tmp_path, mini_lexicon):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))], iterations=2)
        for index in range(2):
            write_chain(config, index, 4, "great")
        summary = analyze_subject(config, mini_lexicon, "topical", "A")
        assert (summary.strong_count, summary.weak_count) == (4, 1)
        assert summary.beta == 0.25
        assert summary.alpha == 2.0

    def test_counts_averaged_with_rounding(self, tmp_path, mini_lexicon):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))], iterations=2)
        # iteration 0: chain of 4 (strong 4, weak 1); iteration 1: chain of
        # 5 (strong 5, weak 1).  Mean strong 4.5 rounds away from zero to 5.
        write_chain(config, 0, 4, "good")
        write_chain(config, 1, 5, "ok")
        summary = analyze_subject(config, mini_lexicon, "topical", "A")
        assert (summary.strong_count, summary.weak_count) == (5, 1)
        assert summary.beta == 0.2
        assert summary.alpha == pytest.approx((1.0 + 0.5) / 2, abs=1e-15)

    def test_missing_subject_dir(self, tmp_path, mini_lexicon):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))])
        with pytest.raises(DataError, match="no fixtures"):
            analyze_subject(config, mini_lexicon, "topical", "A")

    def test_empty_subject_dir(self, tmp_path, mini_lexicon):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))])
        subject_dir(config.fixtures_dir, "topical", "A").mkdir(parents=True)
        with pytest.raises(DataError, match="zero iterations"):
            analyze_subject(config, mini_lexicon, "topical", "A")


ROW_RULE_CONFIG = """[run]
fixtures = fixtures
output = out
per_iteration_count = 12
iterations = 2
seed = 5

[groups]
topical = Half, T1, T2, T3
event = E1, E2, E3
"""


def random_records(rng, count):
    """Records with random references among a few handles and texts of
    lexicon words and noise, so that counts and alphas vary by iteration."""
    handles = [f"u{k}" for k in range(count)]
    words = ["love", "hate", "good", "bad", "calm", "storm", "the", "naïve", "#win", "@u1"]
    records = []
    for number in range(rng.randint(1, count)):
        record = {"id": str(number), "author": rng.choice(handles)}
        record["text"] = " ".join(rng.choices(words, k=rng.randint(0, 5)))
        if rng.random() < 0.4:
            record["reply_to"] = rng.choice(handles)
        record["mentions"] = rng.sample(handles, rng.randint(0, 2))
        if rng.random() < 0.2:
            record["quote_of"] = rng.choice(handles)
        records.append(record)
    return records


def chain_records(pairs, text):
    """One reply per (author, target) pair, each with ``text``."""
    return [
        {"id": str(number), "text": text, "author": author, "reply_to": target}
        for number, (author, target) in enumerate(pairs)
    ]


class TestRowRule:
    """Every row analyze writes, against the row rule recomputed from each
    iteration's records by the oracles: counts from the transitive closure,
    scores cleaned character by character, and exact rational means."""

    @staticmethod
    def expected_row(config, kind, subject, entries):
        counts, alphas = [], []
        for _, path in iteration_files(config, kind, subject):
            row = read_iteration(path, config)
            pairs = [(row.nodes[source], row.nodes[target]) for source, target, _ in row.edges]
            counts.append(closure_component_counts(row.nodes, pairs))
            scores = [reference_score_text(text, entries) for text in row.texts]
            alphas.append(math.fsum(scores) / len(scores))
        means = [Fraction(sum(column), len(counts)) for column in zip(*counts)]
        # half away from zero, for the positive means a count can have
        strong, weak = (math.floor(mean + Fraction(1, 2)) for mean in means)
        return counts, means, (subject, strong, weak, weak / strong, math.fsum(alphas) / len(alphas))

    def test_every_row_is_the_rule_applied_to_its_iterations(self, tmp_path, lexicon):
        (tmp_path / "run.ini").write_text(ROW_RULE_CONFIG, encoding="utf-8")
        config = load_config(tmp_path / "run.ini")
        # Half: strong 4 then 5 (a self-reply is one node), weak 2 then 3; the
        # means 9/2 and 5/2 round to 5 and 3, not to 4 and 2 as half-to-even would
        half = [chain_records(["ab", "cd"], "hate"), chain_records(["ab", "cd", "ff"], "good")]
        rng = random.Random(7)
        for kind, subject in config.subjects():
            directory = subject_dir(config.fixtures_dir, kind, subject)
            directory.mkdir(parents=True)
            for index in range(config.iterations):
                records = (
                    half[index]
                    if subject == "Half"
                    else random_records(rng, config.per_iteration_count)
                )
                (directory / iteration_filename(index)).write_text(
                    "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
                )
        assert main(["analyze", "--config", str(tmp_path / "run.ini")]) == 0
        varied = 0
        for kind, rows in read_tables(config):
            for row in rows:
                counts, means, expected = self.expected_row(config, kind, row.subject, lexicon.entries)
                varied += len(set(counts)) > 1
                assert (row.subject, row.strong_count, row.weak_count, row.beta, row.alpha) == expected
                if row.subject == "Half":
                    assert means == [Fraction(9, 2), Fraction(5, 2)]
                    assert (row.strong_count, row.weak_count) == (5, 3)
        assert varied >= 5


class TestRunPipeline:
    def test_planted_run_recovers_structure(self, tmp_path):
        config = planted_config(tmp_path)
        tables = analyze_groups(config)
        ((kind, rows),) = tables
        (correlation,) = correlate_tables(tables)
        assert kind == "topical"
        plans = default_plan(config)
        for row, plan in zip(rows, plans):
            assert row.strong_count == plan.synth_spec.strong_count
            assert row.weak_count == plan.synth_spec.weak_count
            assert row.beta == row.weak_count / row.strong_count
            assert row.alpha == pytest.approx(
                plan.synth_spec.target_mean, abs=plan.synth_spec.jitter + 1e-9
            )
        assert correlation.n == 6
        assert correlation.r < -0.9

    def test_group_order_follows_config(self, tmp_path):
        config = planted_config(
            tmp_path,
            groups=[("event", ("E1", "E2", "E3")), ("topical", ("T1", "T2", "T3"))],
        )
        tables = analyze_groups(config)
        assert [kind for kind, _ in tables] == ["event", "topical"]
        assert [s.subject for s in tables[0][1]] == ["E1", "E2", "E3"]

    def test_small_group_rejected(self, tmp_path):
        """analyze tables a group of any size; correlating it needs three subjects."""
        config = planted_config(tmp_path, [("topical", ("A", "B"))])
        tables = analyze_groups(config)
        assert [(kind, len(rows)) for kind, rows in tables] == [("topical", 2)]
        with pytest.raises(DegeneracyError, match="topical"):
            correlate_tables(tables)

    def test_missing_fixtures_is_data_error(self, tmp_path):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))])
        with pytest.raises(DataError):
            analyze_groups(config)

    def test_jobs_do_not_change_results(self, tmp_path):
        config = planted_config(
            tmp_path,
            groups=[("event", ("E1", "E2", "E3")), ("topical", ("T1", "T2", "T3"))],
        )
        serial = analyze_groups(config, jobs=1)
        pooled = analyze_groups(config, jobs=4)
        assert serial == pooled

    def test_bad_jobs_rejected(self, tmp_path):
        config = planted_config(tmp_path)
        with pytest.raises(ConfigError, match="jobs"):
            analyze_groups(config, jobs=0)

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    @pytest.mark.parametrize("tasks", [1, 3, 24])
    @pytest.mark.parametrize("jobs", [1, 2, 4, 10**6])
    def test_worker_count_clamps_to_tasks_and_cores(self, jobs, tasks, cpus):
        assert worker_count(jobs, tasks, cpus) == min(jobs, tasks, cpus)

    def test_worker_count_unknown_cores_is_serial(self):
        assert worker_count(4, 24, None) == 1

    def test_final_iteration_graph(self, tmp_path):
        config = planted_config(tmp_path)
        plan = default_plan(config)[0]
        index, path = iteration_files(config, "topical", "A")[-1]
        row = read_iteration(path, config)
        assert index == config.iterations - 1
        assert len(row.nodes) >= plan.synth_spec.node_count


class TestIterationOrder:
    def write_chains(self, config, lengths):
        for index, length in lengths.items():
            write_chain(config, index, length, "good")

    def test_files_sorted_by_number_not_name(self, tmp_path):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))], iterations=1001)
        # every planned iteration is there; these four carry the order under test
        self.write_chains(config, {**dict.fromkeys(range(1001), 2), 1000: 3, 999: 4, 998: 5, 10: 6})
        # only ASCII digits, and nothing after them, make an iteration name
        for name in ("iter_\u0661\u0662\u0663", "iter_000\n"):
            assert iteration_index(name) is None
            (subject_dir(config.fixtures_dir, "topical", "A") / name).write_text("", "utf-8")
        files = iteration_files(config, "topical", "A")
        assert [index for index, _ in files] == list(range(1001))
        assert [(index, path.name) for index, path in files if index in (10, 998, 999, 1000)] == [
            (10, "iter_010"), (998, "iter_998"), (999, "iter_999"), (1000, "iter_1000")
        ]

    def test_export_draws_the_highest_iteration(self, tmp_path, mini_lexicon):
        config = tiny_config(tmp_path, [("topical", ("A",))], iterations=1001)
        # the other planned iterations are 4-node chains, which keep the means at (4, 1)
        self.write_chains(config, {**dict.fromkeys(range(998), 4), 998: 5, 999: 4, 1000: 3})
        last = write_chain(config, 1000, 3, "good")
        (written,) = export_graphs(config)
        nodes, edges = reference_graph(last, EDGE_KINDS, True)
        assert written.read_text(encoding="utf-8") == export_dot(nodes, edges)
        summary = analyze_subject(config, mini_lexicon, "topical", "A")
        assert (summary.strong_count, summary.weak_count) == (4, 1)


class TestBundledTables:
    def test_shape(self):
        tables = bundled_tables()
        assert [kind for kind, _ in tables] == [
            "topical",
            "event",
            "geographic",
            "individual",
        ]
        assert all(len(rows) == 6 for _, rows in tables)

    def test_ratio_column_consistent(self):
        for _, rows in bundled_tables():
            for row in rows:
                assert row.beta == pytest.approx(
                    row.weak_count / row.strong_count, rel=1e-9
                )

    def test_correlations_reproduce_expected(self):
        for report in correlate_tables(bundled_tables()):
            r_expected, p_expected = BUNDLED_EXPECTED[report.group]
            assert report.r == pytest.approx(r_expected, abs=1e-9)
            assert report.p_value == pytest.approx(p_expected, abs=1e-6)


class TestCanonicalPairs:
    def test_four_groups(self):
        assert canonical_pairs(4) == [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]

    def test_small_counts(self):
        assert canonical_pairs(0) == []
        assert canonical_pairs(1) == []
        assert canonical_pairs(2) == [(0, 1)]

    @pytest.mark.parametrize("count", range(2, 9))
    def test_covers_every_pair_once(self, count):
        pairs = canonical_pairs(count)
        assert len(pairs) == count * (count - 1) // 2
        assert len(set(pairs)) == len(pairs)
        assert all(0 <= i < j < count for i, j in pairs)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            canonical_pairs(-1)


class TestCompareGroups:
    def reports(self):
        return correlate_tables(bundled_tables())

    def test_pairwise_count_and_order(self):
        comparisons = compare_groups(self.reports())
        assert len(comparisons) == 6
        assert (comparisons[0].group_a, comparisons[0].group_b) == ("topical", "event")
        assert (comparisons[-1].group_a, comparisons[-1].group_b) == (
            "topical",
            "individual",
        )

    def test_matches_direct_comparison(self):
        reports = self.reports()
        comparisons = compare_groups(reports)
        direct = compare_correlations(
            reports[0].group,
            reports[0].r,
            reports[0].n,
            reports[1].group,
            reports[1].r,
            reports[1].n,
        )
        assert comparisons[0] == direct

    def test_n_override(self):
        reports = self.reports()
        comparisons = compare_groups(reports, n_override=722)
        low, high = zou_interval(reports[0].r, 722, reports[1].r, 722)
        assert comparisons[0].zou_low == low
        assert comparisons[0].zou_high == high

    def test_degenerate_inputs(self):
        reports = self.reports()
        with pytest.raises(DegeneracyError):
            compare_groups(reports[:1])
        with pytest.raises(DegeneracyError):
            compare_groups(reports, n_override=3)
        small = [replace(reports[0], n=3), *reports[1:]]
        with pytest.raises(DegeneracyError, match="^groups 'topical' and 'event': z test"):
            compare_groups(small)


class TestWriters:
    def render(self, out_dir):
        """Every report artifact of the bundled tables, as the CLI stages write them."""
        tables = bundled_tables()
        reports = correlate_tables(tables)
        return (
            render_tables(tables, out_dir)
            + render_correlations(reports, out_dir)
            + render_comparisons(compare_groups(reports), out_dir)
        )

    def test_correlations_csv_round_trip(self, tmp_path):
        reports = correlate_tables(bundled_tables())
        path = write_csv(CORRELATIONS, reports, tmp_path / "c.csv")
        assert read_records(CORRELATIONS, path) == reports

    def test_correlations_csv_header(self, tmp_path):
        reports = correlate_tables(bundled_tables())
        path = write_csv(CORRELATIONS, reports, tmp_path / "c.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "group,n,r,mean_x,mean_y,t_stat,p_value"
        assert len(lines) == 1 + len(reports)

    def test_scatter_csv(self, tmp_path):
        _, rows = bundled_tables()[0]
        path = write_csv(SCATTER, rows, tmp_path / "s.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "subject,ratio_beta,sentiment_alpha"
        assert lines[1].startswith("Christianity,")

    def test_render_is_byte_deterministic(self, tmp_path):
        first = self.render(tmp_path / "one")
        second = self.render(tmp_path / "two")
        assert [p.relative_to(tmp_path / "one") for p in first] == [
            p.relative_to(tmp_path / "two") for p in second
        ]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_render_layout(self, tmp_path):
        self.render(tmp_path)
        assert (tmp_path / "correlations.csv").is_file()
        assert (tmp_path / "correlations.json").is_file()
        assert (tmp_path / "comparisons.csv").is_file()
        assert (tmp_path / "tables" / "topical.csv").is_file()
        assert (tmp_path / "scatter" / "individual.csv").is_file()
        header = (tmp_path / "comparisons.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "group_a,group_b,z_score,p_value,zou_low,zou_high"

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group,n,r,mean_x,mean_y,t_stat,p_value\nx\n", encoding="utf-8")
        message = r"bad.csv:2: bad correlation record: 1 cell\(s\) for 7 columns"
        with pytest.raises(DataError, match=message):
            read_records(CORRELATIONS, path)


class TestReaders:
    def test_tables_must_hold_the_configured_subjects_in_order(self, tmp_path):
        tables = bundled_tables()[:2]
        groups = [(kind, tuple(row.subject for row in rows)) for kind, rows in tables]
        config = tiny_config(tmp_path, groups)
        render_tables(tables, config.output_dir)
        assert read_tables(config) == tables
        reordered = replace(config, groups=[(kind, names[::-1]) for kind, names in groups])
        with pytest.raises(DataError, match="topical.csv holds subjects .* run analyze first"):
            read_tables(reordered)

    def test_correlations_must_be_the_given_kinds_in_order(self, tmp_path):
        tables = bundled_tables()
        reports = correlate_tables(tables)
        groups = [(kind, tuple(row.subject for row in rows)) for kind, rows in tables]
        config = tiny_config(tmp_path, groups)
        render_tables(tables, config.output_dir)
        render_correlations(reports, config.output_dir)
        assert read_correlations(config.output_dir) == reports
        assert read_correlations(config.output_dir, config) == reports
        reordered = replace(config, groups=groups[::-1])
        with pytest.raises(DataError, match="run correlate first"):
            read_correlations(config.output_dir, reordered)

    def test_correlations_of_three_subjects_are_read(self, tmp_path):
        """correlate writes n = 3, the least n a correlations record may hold."""
        kind, rows = bundled_tables()[0]
        reports = correlate_tables([(kind, rows[:3])])
        render_correlations(reports, tmp_path)
        assert reports[0].n == 3 and read_correlations(tmp_path) == reports

    def test_correlations_must_count_the_configured_subjects(self, tmp_path):
        tables = bundled_tables()
        render_correlations(correlate_tables(tables), tmp_path / "out")
        kind, rows = tables[1]
        tables[1] = (kind, rows[:-1])
        groups = [(kind, tuple(row.subject for row in rows)) for kind, rows in tables]
        config = tiny_config(tmp_path, groups)
        render_tables(tables, config.output_dir)
        with pytest.raises(
            DataError,
            match=rf"holds .*{kind} \(n={len(rows)}, .* tables give .*{kind} "
            rf"\(n={len(rows) - 1}, .* run correlate first",
        ):
            read_correlations(config.output_dir, config)


class TestExportGraphs:
    def test_dot_files_written(self, tmp_path):
        config = planted_config(
            tmp_path, groups=[("topical", ("A", "B", "C"))]
        )
        written = export_graphs(config)
        assert [p.name for p in written] == ["a.dot", "b.dot", "c.dot"]
        text = written[0].read_text(encoding="utf-8")
        assert text.startswith("digraph {\n")
        assert "->" in text

    def test_interrupted_export_keeps_previous_graphs(self, tmp_path, monkeypatch):
        config = planted_config(tmp_path, groups=[("topical", ("A", "B", "C"))])
        export_graphs(config)
        graphs = config.output_dir / "graphs"
        before = {p: p.read_bytes() for p in graphs.rglob("*") if p.is_file()}

        # a lone surrogate cannot be encoded, so writing the DOT text fails
        # after its file was opened
        monkeypatch.setattr("threadknit.pipeline.export_dot", lambda *graph: "digraph {\ud800}\n")
        with pytest.raises(UnicodeEncodeError):
            export_graphs(config)
        assert {p: p.read_bytes() for p in graphs.rglob("*") if p.is_file()} == before
