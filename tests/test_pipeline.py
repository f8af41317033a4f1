from __future__ import annotations

import pytest

from threadknit.errors import ConfigError, DataError, DegeneracyError
from threadknit.graph import build_graph, export_dot
from threadknit.ingest import RunConfig, write_fixture, fixture_path
from threadknit.pipeline import (
    CORRELATIONS,
    SCATTER,
    GroupResult,
    analyze_subject,
    bundled_tables,
    canonical_pairs,
    compare_groups,
    correlate_tables,
    export_graphs,
    final_iteration_graph,
    iteration_files,
    render_reports,
    run_pipeline,
    select_groups,
    worker_count,
)
from threadknit.records import read_records, write_csv, write_json
from threadknit.stats import compare_correlations, zou_interval
from threadknit.synth import default_plan, write_fixture_tree

from conftest import make_batch, make_status

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


def planted_config(tmp_path, lexicon, groups=None, **overrides):
    config = tiny_config(
        tmp_path,
        groups if groups is not None else [("topical", tuple("ABCDEF"))],
        **overrides,
    )
    write_fixture_tree(config, lexicon)
    return config


def chain_batch(index, length, alpha_word, spec):
    # a directed chain a0 -> a1 -> ... of mentions; every status scores the
    # same word so the batch mean is that word's valence
    statuses = [
        make_status(
            f"{index}_{k}",
            f"a{k}",
            text=alpha_word,
            mentions=(f"a{k + 1}",),
        )
        for k in range(length - 1)
    ]
    return make_batch(statuses, index=index, **spec)


class TestAnalyzeSubject:
    def test_chain_counts_and_alpha(self, tmp_path, mini_lexicon):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))], iterations=2)
        spec = config.spec_for("topical", "A")
        for index in range(2):
            batch = chain_batch(index, 4, "great", dict(subject="A"))
            write_fixture(batch, fixture_path(config.fixtures_dir, spec, index))
        summary = analyze_subject(config, mini_lexicon, "topical", "A")
        assert (summary.strong_count, summary.weak_count) == (4, 1)
        assert summary.beta == 0.25
        assert summary.alpha == 2.0

    def test_counts_averaged_with_rounding(self, tmp_path, mini_lexicon):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))], iterations=2)
        spec = config.spec_for("topical", "A")
        # iteration 0: chain of 4 (strong 4, weak 1); iteration 1: chain of
        # 5 (strong 5, weak 1).  Mean strong 4.5 rounds away from zero to 5.
        write_fixture(
            chain_batch(0, 4, "good", dict(subject="A")),
            fixture_path(config.fixtures_dir, spec, 0),
        )
        write_fixture(
            chain_batch(1, 5, "ok", dict(subject="A")),
            fixture_path(config.fixtures_dir, spec, 1),
        )
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
        spec = config.spec_for("topical", "A")
        fixture_path(config.fixtures_dir, spec, 0).parent.mkdir(parents=True)
        with pytest.raises(DataError, match="zero iterations"):
            analyze_subject(config, mini_lexicon, "topical", "A")


class TestRunPipeline:
    def test_planted_run_recovers_structure(self, tmp_path, lexicon):
        config = planted_config(tmp_path, lexicon)
        (result,) = run_pipeline(config, lexicon)
        assert result.kind == "topical"
        plans = default_plan(config)
        for row, plan in zip(result.subjects, plans):
            assert row.strong_count == plan.synth_spec.strong_count
            assert row.weak_count == plan.synth_spec.weak_count
            assert row.beta == row.weak_count / row.strong_count
            assert row.alpha == pytest.approx(
                plan.synth_spec.target_mean, abs=plan.synth_spec.jitter + 1e-9
            )
        assert result.correlation.n == 6
        assert result.correlation.r < -0.9

    def test_group_order_follows_config(self, tmp_path, lexicon):
        config = planted_config(
            tmp_path,
            lexicon,
            groups=[("event", ("E1", "E2", "E3")), ("topical", ("T1", "T2", "T3"))],
        )
        results = run_pipeline(config, lexicon)
        assert [r.kind for r in results] == ["event", "topical"]
        assert [s.subject for s in results[0].subjects] == ["E1", "E2", "E3"]

    def test_only_groups_filter(self, tmp_path, lexicon):
        config = planted_config(
            tmp_path,
            lexicon,
            groups=[("event", ("E1", "E2", "E3")), ("topical", ("T1", "T2", "T3"))],
        )
        results = run_pipeline(config, lexicon, only_groups=["topical"])
        assert [r.kind for r in results] == ["topical"]

    def test_unknown_group_rejected(self, tmp_path, lexicon):
        config = planted_config(tmp_path, lexicon)
        with pytest.raises(ConfigError, match="unknown group"):
            run_pipeline(config, lexicon, only_groups=["nope"])

    def test_small_group_rejected(self, tmp_path, lexicon):
        config = tiny_config(tmp_path, [("topical", ("A", "B"))])
        with pytest.raises(DegeneracyError, match="topical"):
            run_pipeline(config, lexicon)

    def test_missing_fixtures_is_data_error(self, tmp_path, lexicon):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))])
        with pytest.raises(DataError):
            run_pipeline(config, lexicon)

    def test_jobs_do_not_change_results(self, tmp_path, lexicon):
        config = planted_config(
            tmp_path,
            lexicon,
            groups=[("event", ("E1", "E2", "E3")), ("topical", ("T1", "T2", "T3"))],
        )
        serial = run_pipeline(config, lexicon, jobs=1)
        pooled = run_pipeline(config, lexicon, jobs=4)
        assert serial == pooled

    def test_bad_jobs_rejected(self, tmp_path, lexicon):
        config = planted_config(tmp_path, lexicon)
        with pytest.raises(ConfigError, match="jobs"):
            run_pipeline(config, lexicon, jobs=0)

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    @pytest.mark.parametrize("tasks", [1, 3, 24])
    @pytest.mark.parametrize("jobs", [1, 2, 4, 10**6])
    def test_worker_count_clamps_to_tasks_and_cores(self, jobs, tasks, cpus):
        assert worker_count(jobs, tasks, cpus) == min(jobs, tasks, cpus)

    def test_worker_count_unknown_cores_is_serial(self):
        assert worker_count(4, 24, None) == 1

    def test_final_iteration_graph(self, tmp_path, lexicon):
        config = planted_config(tmp_path, lexicon)
        plan = default_plan(config)[0]
        graph = final_iteration_graph(config, "topical", "A")
        assert len(graph.nodes) >= plan.synth_spec.node_count


class TestIterationOrder:
    def write_chains(self, config, lengths):
        spec = config.spec_for("topical", "A")
        for index, length in lengths.items():
            batch = chain_batch(index, length, "good", dict(subject="A", iterations=1001))
            write_fixture(batch, fixture_path(config.fixtures_dir, spec, index))

    def test_files_sorted_by_number_not_name(self, tmp_path):
        config = tiny_config(tmp_path, [("topical", ("A", "B", "C"))], iterations=1001)
        self.write_chains(config, {1000: 3, 999: 4, 998: 5, 10: 6})
        files = iteration_files(config, "topical", "A")
        assert [(index, path.name) for index, path in files] == [
            (10, "iter_010"), (998, "iter_998"), (999, "iter_999"), (1000, "iter_1000")
        ]

    def test_export_draws_the_highest_iteration(self, tmp_path, mini_lexicon):
        config = tiny_config(tmp_path, [("topical", ("A",))], iterations=1001)
        self.write_chains(config, {998: 5, 999: 4, 1000: 3})
        last = chain_batch(1000, 3, "good", dict(subject="A", iterations=1001))
        (written,) = export_graphs(config)
        assert written.read_text(encoding="utf-8") == export_dot(build_graph(last))
        summary = analyze_subject(config, mini_lexicon, "topical", "A")
        assert (summary.strong_count, summary.weak_count) == (4, 1)


class TestSelectGroups:
    def test_default_is_everything(self, tmp_path):
        config = tiny_config(
            tmp_path, [("topical", ("A", "B", "C")), ("event", ("D", "E", "F"))]
        )
        assert select_groups(config.groups) == config.groups
        assert select_groups(config.groups, []) == config.groups

    def test_subset_preserves_config_order(self, tmp_path):
        config = tiny_config(
            tmp_path, [("topical", ("A", "B", "C")), ("event", ("D", "E", "F"))]
        )
        picked = select_groups(config.groups, ["event"])
        assert picked == (("event", ("D", "E", "F")),)


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
        results = correlate_tables(bundled_tables())
        for result in results:
            r_expected, p_expected = BUNDLED_EXPECTED[result.kind]
            assert result.correlation.r == pytest.approx(r_expected, abs=1e-9)
            assert result.correlation.p_value == pytest.approx(p_expected, abs=1e-6)


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
        return [r.correlation for r in correlate_tables(bundled_tables())]

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


class TestWriters:
    def results(self):
        return correlate_tables(bundled_tables())

    def test_correlations_json_round_trip(self, tmp_path):
        reports = [r.correlation for r in self.results()]
        path = write_json(CORRELATIONS, reports, tmp_path / "c.json")
        assert read_records(CORRELATIONS, path) == reports

    def test_correlations_csv_header(self, tmp_path):
        reports = [r.correlation for r in self.results()]
        path = write_csv(CORRELATIONS, reports, tmp_path / "c.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "group,n,r,mean_x,mean_y,t_stat,p_value"
        assert len(lines) == 1 + len(reports)

    def test_scatter_csv(self, tmp_path):
        result = self.results()[0]
        path = write_csv(SCATTER, result.subjects, tmp_path / "s.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "subject,ratio_beta,sentiment_alpha"
        assert lines[1].startswith("Christianity,")

    def test_render_reports_is_byte_deterministic(self, tmp_path):
        results = self.results()
        comparisons = compare_groups([r.correlation for r in results])
        first = render_reports(results, comparisons, tmp_path / "one")
        second = render_reports(results, comparisons, tmp_path / "two")
        assert [p.relative_to(tmp_path / "one") for p in first] == [
            p.relative_to(tmp_path / "two") for p in second
        ]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_render_reports_layout(self, tmp_path):
        results = self.results()
        comparisons = compare_groups([r.correlation for r in results])
        render_reports(results, comparisons, tmp_path)
        assert (tmp_path / "correlations.csv").is_file()
        assert (tmp_path / "correlations.json").is_file()
        assert (tmp_path / "comparisons.csv").is_file()
        assert (tmp_path / "tables" / "topical.csv").is_file()
        assert (tmp_path / "scatter" / "individual.csv").is_file()
        header = (tmp_path / "comparisons.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "group_a,group_b,z_score,p_value,zou_low,zou_high"

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}', encoding="utf-8")
        with pytest.raises(DataError, match="expected a list"):
            read_records(CORRELATIONS, path)
        path.write_text('[{"group": "x"}]', encoding="utf-8")
        with pytest.raises(DataError, match="bad correlation record"):
            read_records(CORRELATIONS, path)


class TestExportGraphs:
    def test_dot_files_written(self, tmp_path, lexicon):
        config = planted_config(
            tmp_path, lexicon, groups=[("topical", ("A", "B", "C"))]
        )
        written = export_graphs(config)
        assert [p.name for p in written] == ["a.dot", "b.dot", "c.dot"]
        text = written[0].read_text(encoding="utf-8")
        assert text.startswith("digraph {\n")
        assert "->" in text

    def test_interrupted_export_keeps_previous_graphs(self, tmp_path, lexicon, monkeypatch):
        config = planted_config(tmp_path, lexicon, groups=[("topical", ("A", "B", "C"))])
        export_graphs(config)
        graphs = config.output_dir / "graphs"
        before = {p: p.read_bytes() for p in graphs.rglob("*") if p.is_file()}

        # a lone surrogate cannot be encoded, so writing the DOT text fails
        # after its file was opened
        monkeypatch.setattr("threadknit.pipeline.export_dot", lambda graph: "digraph {\ud800}\n")
        with pytest.raises(UnicodeEncodeError):
            export_graphs(config)
        assert {p: p.read_bytes() for p in graphs.rglob("*") if p.is_file()} == before

    def test_group_result_is_plain_data(self):
        result = self.make_result()
        assert isinstance(result, GroupResult)
        assert result.kind == "topical"

    def make_result(self):
        return correlate_tables(bundled_tables())[0]
