"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import paperfixtures  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from threadknit.components import component_summary  # noqa: E402
from threadknit.graph import build_graph  # noqa: E402
from threadknit.ingest import parse_fixture  # noqa: E402
from threadknit.sentiment import batch_alpha, bundled_lexicon, score_text  # noqa: E402
from threadknit.stats import correlation_significance  # noqa: E402

TINY_GROUPS = (("topical", ("Alpha", "Beta Two", "Gamma")),)


@pytest.fixture(scope="module")
def generator():
    return paperfixtures.PaperGenerator(paperfixtures.read_lexicon(run.LEXICON))


def test_same_seed_gives_identical_fixture_bytes(tmp_path, generator):
    digests = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        generator.write_tree(tmp_path / name, seed, 2, groups=TINY_GROUPS)
        digests.append(checks.tree_digest(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0][0] == 3 * 2
    assert digests[2] != digests[0]


def test_program_recovers_planted_counts_and_exact_scores(tmp_path, generator):
    truth = generator.write_tree(tmp_path, 3, 2, groups=TINY_GROUPS)
    lexicon = bundled_lexicon()
    reference = paperfixtures.read_lexicon(run.LEXICON)
    kinds = set()
    for subject in truth.subjects:
        directory = tmp_path / subject.kind / paperfixtures.subject_slug(subject.subject)
        for index in range(2):
            batch = parse_fixture(directory / f"iter_{index:03d}")
            assert len(batch.statuses) == paperfixtures.STATUSES_PER_BATCH
            graph = build_graph(batch)
            summary = component_summary(graph)
            assert (summary.strong_count, summary.weak_count) == (
                subject.strong[index],
                subject.weak[index],
            )
            assert 200 <= summary.strong_count and 50 <= summary.weak_count
            assert batch_alpha(batch, lexicon) == subject.alphas[index]
            for status in batch.statuses:
                assert score_text(status.text, lexicon) == paperfixtures.reference_score(
                    status.text, reference
                )
            kinds.update(edge.kind for edge in graph.edges)
        assert (len(graph.nodes), len(graph.edges)) == (subject.final_nodes, subject.final_edges)
    assert kinds == set(paperfixtures.EDGE_KINDS)


def test_rounding_ties_go_away_from_zero():
    truth = paperfixtures.SubjectTruth("topical", "s", strong=[10, 11], weak=[4, 4], alphas=[0.5])
    assert truth.strong_count == 11
    assert truth.weak_count == 4
    assert paperfixtures.round_half_away(paperfixtures.Fraction(5, 2)) == 3
    assert paperfixtures.round_half_away(paperfixtures.Fraction(7, 3)) == 2


def _span(span_id, name, cpu, parent, thread=1, start=0.0, end=10.0):
    return {"id": span_id, "name": name, "cpu": cpu, "parent": parent, "thread": thread, "start": start, "end": end}


def test_self_time_subtracts_children_on_the_same_thread():
    spans = [
        _span(0, "cli.main", 10.0, None),
        _span(1, "pipeline.run_pipeline", 1.0, 0, start=1.0, end=7.0),
        _span(2, "pipeline.analyze_subject", 4.0, 1, thread=2, start=1.5, end=6.0),  # pool thread
        _span(3, "ingest.parse_fixture", 3.0, 2, thread=2),
        _span(4, "graph.export_dot", 2.0, 0),
        _span(5, "pipeline.analyze_subject", 0.5, 1, thread=3, start=2.0, end=3.0),
    ]
    assert tracing.self_times(spans) == {0: 7.0, 1: 1.0, 2: 1.0, 3: 3.0, 4: 2.0, 5: 0.5}
    assert tracing.layer_times(spans) == {
        "cli.dispatch_s": 7.0,
        "pipeline.self_s": 2.5,
        "ingest.parse_s": 3.0,
        "graph.dot_s": 2.0,
    }
    assert tracing.cpu_total(spans, "pipeline.analyze_subject") == 4.5
    assert tracing.wall_total(spans, "pipeline.analyze_subject") == 5.5


def test_worker_thread_spans_hang_under_the_submitting_span():
    tracer = tracing.Tracer()
    workers = min(2, os.cpu_count() or 1)
    with tracer.span("pipeline.run_pipeline"):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(tracer.wrap("pipeline.analyze_subject", len), "ab") for _ in range(4)]:
                assert future.result() == 2
    root, *children = tracer.spans
    assert root["parent"] is None
    assert [child["parent"] for child in children] == [root["id"]] * 4
    assert all(child["start"] <= child["end"] and child["cpu"] >= 0 for child in children)


@pytest.mark.parametrize("r, n", [(-0.77, 6), (0.3, 6), (-0.94, 7), (0.55, 9), (0.1, 3)])
def test_independent_p_value_matches_the_program(r, n):
    t, p = correlation_significance(r, n)
    assert checks.t_two_sided_p(t, n - 2) == pytest.approx(p, rel=1e-9, abs=1e-12)


def test_table_check_flags_a_wrong_count_and_a_wrong_alpha(tmp_path):
    tables = tmp_path / "tables"
    tables.mkdir()
    (tables / "topical.csv").write_text(
        "subject,strong_count,weak_count,ratio_beta,sentiment_alpha\nA,10,4,0.4,0.25\n",
        encoding="utf-8",
    )
    (tables / "topical.json").write_text(
        json.dumps(
            [{"subject": "A", "strong_count": 10, "weak_count": 4, "ratio_beta": 0.4, "sentiment_alpha": 0.25}]
        ),
        encoding="utf-8",
    )
    good = {"topical": [checks.ExpectedRow("A", 10, 4, 0.25)]}
    assert checks.check_tables(tmp_path, good) == []
    assert checks.check_tables(tmp_path, {"topical": [checks.ExpectedRow("A", 11, 4, 0.25)]})
    assert checks.check_tables(tmp_path, {"topical": [checks.ExpectedRow("A", 10, 4, math.nextafter(0.25, 1.0))]})
    assert checks.check_tables(tmp_path, {"topical": [checks.ExpectedRow("A", 10, 4, 0.3, 0.06)]}) == []


def test_benchmark_json_names_every_traced_metric():
    spec = run.read_spec()
    assert set(run.WORKLOAD_TYPES) == {w["name"] for w in spec["workloads"]}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    traced = set(tracing.SPAN_METRICS.values())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert traced <= per_layer
