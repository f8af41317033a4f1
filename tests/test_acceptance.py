"""Acceptance suite.

Each numbered test is one release gate, checked at its stated tolerance,
so a verbose run reads as a checklist.  The gates cover: golden ratio
values, correlation reproduction from the bundled tables, interval
containment, sample-size inference, component-count oracles, numeric
kernels, the hand-scored sentiment fixture, end-to-end byte determinism,
and planted-structure recovery.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from threadknit.cli import main
from threadknit.components import beta_ratio, component_counts
from threadknit.config import RunConfig
from threadknit.ingest import fixture_records
from threadknit.pipeline import analyze_groups
from threadknit.tables import bundled_tables, canonical_pairs, correlate_tables
from threadknit.sentiment import score_text
from threadknit.stats import (
    fisher_z,
    indep_groups_z_test,
    infer_group_n,
    normal_cdf,
    t_cdf,
    t_sf,
    zou_interval,
)
from threadknit.synth import SynthSpec, _planted_shape, default_plan, write_fixture_tree

from conftest import HAND_SCORED_TEXTS
from oracles import closure_component_counts, integrated_two_sided_p

# Printed per-group correlations at two decimals, as used in the pairwise
# comparisons, in canonical group order.
PRINTED_R = {"topical": -0.77, "event": -0.34, "geographic": -0.54, "individual": -0.94}
GROUP_ORDER = ["topical", "event", "geographic", "individual"]


def test_criterion_1_beta_golden_values():
    started = time.perf_counter()
    assert beta_ratio(336, 245) == pytest.approx(0.7291666667, rel=1e-9)
    assert beta_ratio(669, 98) == pytest.approx(0.1464872945, rel=1e-9)
    rows = [row for _, table in bundled_tables() for row in table]
    assert len(rows) == 24
    for row in rows:
        assert beta_ratio(row.strong_count, row.weak_count) == pytest.approx(
            row.beta, rel=1e-9
        ), row.subject
    assert time.perf_counter() - started < 1.0


def test_criterion_2_correlation_reproduction():
    started = time.perf_counter()
    results = {r.group: r for r in correlate_tables(bundled_tables())}
    expected = {
        "topical": (-0.77, 0.005, 0.072, 0.002),
        "event": (-0.33, 0.01, 0.52, 0.01),
        "individual": (-0.94, 0.005, 0.0048, 0.0005),
    }
    for kind, (r, r_tol, p, p_tol) in expected.items():
        report = results[kind]
        assert report.n == 6
        assert report.r == pytest.approx(r, abs=r_tol), kind
        assert report.p_value == pytest.approx(p, abs=p_tol), kind
    assert time.perf_counter() - started < 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "expected values are inconsistent with the bundled geographic table: "
        "correlating its six rows gives r = -0.5415, p = 0.2671, which rounds "
        "to the published -0.54 / 0.27 rather than to -0.574 / 0.234"
    ),
)
def test_criterion_2_geographic_expected_values():
    results = {r.group: r for r in correlate_tables(bundled_tables())}
    report = results["geographic"]
    assert report.r == pytest.approx(-0.574, abs=0.005)
    assert report.p_value == pytest.approx(0.234, abs=0.005)


def test_criterion_2_geographic_recomputed_values():
    results = {r.group: r for r in correlate_tables(bundled_tables())}
    report = results["geographic"]
    assert report.r == pytest.approx(-0.5415485606, abs=1e-9)
    assert report.p_value == pytest.approx(0.2670884, abs=1e-6)
    assert round(report.r, 2) == -0.54
    assert round(report.p_value, 2) == 0.27


def test_criterion_3_zou_containment():
    pairs = canonical_pairs(4)
    assert len(pairs) == 6
    for i, j in pairs:
        r1, r2 = PRINTED_R[GROUP_ORDER[i]], PRINTED_R[GROUP_ORDER[j]]
        diff = r1 - r2
        widths = []
        for n in (10, 100, 722):
            low, high = zou_interval(r1, n, r2, n)
            assert low < diff < high, (GROUP_ORDER[i], GROUP_ORDER[j], n)
            widths.append(high - low)
        assert widths[0] > widths[1] > widths[2]
    # the topical-event interval brackets its difference of -0.43
    low, high = zou_interval(-0.77, 722, -0.34, 722)
    assert low < -0.43 < high


def test_criterion_4_sample_size_inference():
    inferred = infer_group_n(-12.6348, -0.77, -0.34)
    assert 650 <= inferred <= 750
    rng = random.Random(40)
    checked = 0
    while checked < 100:
        r1 = rng.uniform(-0.9, 0.9)
        r2 = rng.uniform(-0.9, 0.9)
        n = rng.randint(4, 1000)
        if abs(fisher_z(r1) - fisher_z(r2)) < 0.05:
            continue
        z, _ = indep_groups_z_test(r1, n, r2, n)
        assert infer_group_n(z, r1, r2) == pytest.approx(n, abs=0.01)
        checked += 1


def test_criterion_5_component_oracle():
    started = time.perf_counter()
    rng = random.Random(50)
    for case in range(1000):
        node_count = rng.randint(0, 12)
        edge_count = rng.randint(0, 30) if node_count else 0
        pairs = [
            (rng.randrange(node_count), rng.randrange(node_count)) for _ in range(edge_count)
        ]
        strong, weak = component_counts(node_count, pairs)
        assert (strong, weak) == closure_component_counts(range(node_count), pairs), case
        assert strong >= weak
    assert time.perf_counter() - started < 10.0


def test_criterion_6_numeric_kernels():
    p = 2.0 * t_sf(abs(-2.4264), 4)
    assert p == pytest.approx(0.0724, abs=5e-4)
    assert p == pytest.approx(integrated_two_sided_p(-2.4264, 4), abs=1e-7)
    for x in (-4.0, -2.0, 0.0, 2.0, 4.0):
        assert abs(t_cdf(x, 10000) - normal_cdf(x)) < 1e-3
    rng = random.Random(60)
    for _ in range(1000):
        r = rng.uniform(-0.999, 0.999)
        assert math.tanh(fisher_z(r)) == pytest.approx(r, abs=1e-12)


def test_criterion_7_sentiment_contract(mini_lexicon):
    for raw, expected in HAND_SCORED_TEXTS:
        assert score_text(raw, mini_lexicon) == expected, raw
    assert score_text("", mini_lexicon) == 0.0
    rng = random.Random(70)
    for _ in range(500):
        a, _ = rng.choice(HAND_SCORED_TEXTS)
        b, _ = rng.choice(HAND_SCORED_TEXTS)
        joined = a + " " + b
        total = score_text(a, mini_lexicon) + score_text(b, mini_lexicon)
        assert score_text(joined, mini_lexicon) == pytest.approx(total, abs=1e-12)


def test_criterion_8_end_to_end_determinism(tmp_path):
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        "[run]\n"
        "fixtures = fixtures\n"
        "output = out\n"
        "per_iteration_count = 50\n"
        "iterations = 100\n"
        "seed = 8\n"
        "[groups]\n"
        "topical = T1, T2, T3, T4, T5, T6\n"
        "event = E1, E2, E3, E4, E5, E6\n"
        "geographic = G1, G2, G3, G4, G5, G6\n"
        "individual = I1, I2, I3, I4, I5, I6\n",
        encoding="utf-8",
    )

    def tree(root):
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    started = time.perf_counter()
    run("synth", "--config", config_path)
    fixtures = tree(tmp_path / "fixtures")
    assert len(fixtures) == 4 * 6 * 100
    sample = list(fixture_records(tmp_path / "fixtures" / "topical" / "t1" / "iter_000"))
    assert len(sample) <= 50

    run("synth", "--config", config_path)
    assert tree(tmp_path / "fixtures") == fixtures

    for out, jobs in ((tmp_path / "o1", 1), (tmp_path / "o2", 4)):
        run("analyze", "--config", config_path, "--out", out, "--jobs", jobs)
        run("correlate", "--config", config_path, "--out", out)
        run("compare", "--config", config_path, "--out", out)
    elapsed = time.perf_counter() - started
    first, second = tree(tmp_path / "o1"), tree(tmp_path / "o2")
    assert first == second
    assert (tmp_path / "o1" / "comparisons.csv").is_file()
    assert elapsed < 60.0


def test_criterion_9_planted_structure_recovery(tmp_path):
    # direct sweep: specs whose weak/strong ratio spans 0.1 to 1.0
    for weak_count in range(1, 11):
        sizes = [[2] * (10 // weak_count) for _ in range(weak_count)]
        spare = 10 - sum(len(s) for s in sizes)
        for k in range(spare):
            sizes[k % weak_count].append(1)
        sizes = tuple(map(tuple, sizes))
        spec = SynthSpec(seed=90 + weak_count, weak_component_sizes=sizes, target_mean=0.0)
        edges, _ = _planted_shape(spec)
        assert component_counts(spec.node_count, edges) == (10, weak_count)

    # pipeline recovery on a planted six-subject group
    config = RunConfig(
        fixtures_dir=tmp_path / "fixtures",
        output_dir=tmp_path / "out",
        groups=[("topical", ("S1", "S2", "S3", "S4", "S5", "S6"))],
        per_iteration_count=50,
        iterations=3,
        seed=9,
    )
    write_fixture_tree(config)
    tables = analyze_groups(config)
    ((_, rows),) = tables
    (correlation,) = correlate_tables(tables)
    plans = default_plan(config)
    betas = [row.beta for row in rows]
    alphas = [row.alpha for row in rows]
    for row, plan in zip(rows, plans):
        assert row.strong_count == plan.synth_spec.strong_count
        assert row.weak_count == plan.synth_spec.weak_count
    assert betas[0] == pytest.approx(0.1)
    assert betas[-1] == 1.0
    assert betas == sorted(betas)
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    assert correlation.r < -0.9
