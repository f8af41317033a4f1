from __future__ import annotations

import math
import random
from dataclasses import replace
from statistics import fmean

import pytest
from hypothesis import given, settings, strategies as st

import threadknit.ingest as ingest_module
import threadknit.synth as synth_module
from threadknit.components import component_counts
from threadknit.errors import DataError, SynthError
from threadknit.config import EDGE_KINDS, QUERY_KINDS, RunConfig
from threadknit.ingest import fixture_records, iteration_filename, write_fixture_fields
from threadknit.pipeline import iteration_files, iteration_row
from threadknit.sentiment import score_text
from threadknit.synth import (
    _CORPUS_SIZE,
    SubjectPlan,
    SynthSpec,
    _batch_fields,
    _closest_valence,
    _corpus_texts,
    _palette,
    _planted_topology,
    _spread_components,
    default_plan,
    write_fixture_tree,
)

from conftest import CLI_GROUPS, PERFBENCH_GROUPS, tree_digest
from oracles import reference_closest_valence, reference_graph


def corpus_texts(spec, lexicon):
    """The texts steered toward ``spec``'s target mean, alone."""
    rng = random.Random(spec.seed)
    return _corpus_texts(spec.corpus_size, spec.target_mean, spec.jitter, _palette(lexicon), rng)


def planted_fields(spec, index, lexicon):
    """One planted iteration's Status fields, in file order."""
    return _batch_fields(spec, index, _palette(lexicon))


def mention_counts(records):
    """(strong, weak) components of the records' mention graph, as analyze
    counts an iteration row."""
    row = iteration_row(records, ("mention",), True)
    return component_counts(len(row.nodes), row.edges)


size_lists = st.lists(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)


def planted(spec):
    """The node names and (source, target) pairs planted for ``spec``."""
    return _planted_topology(spec, random.Random(spec.seed))


def planted_counts(spec):
    """(strong, weak) component counts of ``spec``'s planted topology."""
    names, pairs = planted(spec)
    number = {name: position for position, name in enumerate(names)}
    return component_counts(len(names), [(number[a], number[b]) for a, b in pairs])


class TestSynthGraph:
    def test_single_node(self):
        spec = SynthSpec(seed=1, weak_component_sizes=[[1]])
        assert planted_counts(spec) == (1, 1)
        assert len(planted(spec)[0]) == 1

    def test_mixed_structure(self):
        spec = SynthSpec(seed=2, weak_component_sizes=[[3, 1], [2]])
        assert planted_counts(spec) == (3, 2)
        assert len(planted(spec)[0]) == 6

    def test_spec_counts_match_measurement(self):
        spec = SynthSpec(seed=9, weak_component_sizes=[[2, 2, 1], [5], [1, 1]])
        assert planted_counts(spec) == (spec.strong_count, spec.weak_count) == (6, 3)

    @given(st.integers(min_value=0, max_value=2**32), size_lists)
    @settings(max_examples=60)
    def test_planted_counts_recovered(self, seed, sizes):
        spec = SynthSpec(seed=seed, weak_component_sizes=sizes)
        assert planted_counts(spec) == (spec.strong_count, spec.weak_count)

    def test_deterministic(self):
        spec = SynthSpec(seed=7, weak_component_sizes=[[2, 3], [1]])
        assert planted(spec) == planted(spec)

    def test_seed_changes_node_names(self):
        sizes = [[2, 3], [1]]
        a = planted(SynthSpec(seed=1, weak_component_sizes=sizes))
        b = planted(SynthSpec(seed=2, weak_component_sizes=sizes))
        assert set(a[0]) != set(b[0])

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(seed=0, weak_component_sizes=[[0]])
        with pytest.raises(ValueError):
            SynthSpec(seed=0, weak_component_sizes=[[]])


class TestSynthCorpus:
    def test_exact_zero_mean_with_zero_jitter(self, lexicon):
        spec = SynthSpec(seed=3, corpus_size=40, target_mean=0.0, jitter=0.0)
        texts = corpus_texts(spec, lexicon)
        assert len(texts) == 40
        scores = [score_text(text, lexicon) for text in texts]
        assert fmean(scores) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("target", [0.5, -0.8, 1.1844, 0.0429])
    def test_target_within_jitter(self, lexicon, target):
        spec = SynthSpec(seed=4, corpus_size=60, target_mean=target, jitter=0.05)
        scores = [score_text(text, lexicon) for text in corpus_texts(spec, lexicon)]
        assert abs(fmean(scores) - target) <= 0.05 + 1e-9

    def test_unreachable_target_rejected(self, lexicon):
        max_valence = max(lexicon.entries.values())
        too_high = SynthSpec(
            seed=5, corpus_size=10, target_mean=max_valence * 12 + 5, jitter=0.01
        )
        with pytest.raises(SynthError):
            corpus_texts(too_high, lexicon)

    def test_empty_corpus_rejected(self, lexicon):
        # analyze cannot score an iteration without statuses
        spec = SynthSpec(seed=5, corpus_size=0)
        with pytest.raises(SynthError, match="corpus_size must be at least 1"):
            _batch_fields(spec, 0, _palette(lexicon))

    def test_deterministic(self, lexicon):
        spec = SynthSpec(seed=11, corpus_size=25, target_mean=0.3, jitter=0.02)
        assert corpus_texts(spec, lexicon) == corpus_texts(spec, lexicon)

    def test_statuses_have_no_references(self, lexicon):
        spec = SynthSpec(seed=6, corpus_size=15, target_mean=0.2, jitter=0.05)
        fields = _batch_fields(spec, 0, _palette(lexicon))
        assert len(fields) == 15
        assert reference_graph(fields, EDGE_KINDS, True)[1] == []


class TestSynthBatch:
    def batch_spec(self):
        return SynthSpec(
            seed=21,
            weak_component_sizes=[[3, 1], [2]],
            corpus_size=30,
            target_mean=0.25,
            jitter=0.02,
        )

    def test_graph_counts_recovered(self, lexicon):
        spec = self.batch_spec()
        assert mention_counts(planted_fields(spec, 0, lexicon)) == (3, 2)

    def test_batch_size_is_corpus_size(self, lexicon):
        assert len(planted_fields(self.batch_spec(), 0, lexicon)) == 30

    def test_mean_score_near_target(self, lexicon):
        fields = planted_fields(self.batch_spec(), 0, lexicon)
        scores = [score_text(text, lexicon) for _, text, *_ in fields]
        assert abs(fmean(scores) - 0.25) <= 0.02 + 1e-9

    def test_iterations_differ_but_counts_hold(self, lexicon):
        spec = self.batch_spec()
        batches = [planted_fields(spec, i, lexicon) for i in range(3)]
        texts = [tuple(text for _, text, *_ in fields) for fields in batches]
        assert len(set(texts)) == 3
        for fields in batches:
            assert mention_counts(fields) == (3, 2)

    def test_deterministic_per_index(self, lexicon):
        spec = self.batch_spec()
        assert planted_fields(spec, 4, lexicon) == planted_fields(spec, 4, lexicon)

    def test_corpus_too_small_for_structure(self, lexicon):
        spec = SynthSpec(
            seed=1, weak_component_sizes=[[4, 4], [4]], corpus_size=5
        )
        with pytest.raises(SynthError, match="cannot cover"):
            planted_fields(spec, 0, lexicon)

    def test_corpus_exceeding_iteration_budget(self, tmp_path):
        # a plan needs 24 statuses per iteration, so it is refused when built
        config = _tiny_config(tmp_path, [("topical", ("A", "B", "C"))])
        needs = "planted structure needs 24 statuses per iteration, more than per_iteration_count"
        with pytest.raises(SynthError, match=f"^{needs} 23$"):
            default_plan(replace(config, per_iteration_count=23))
        assert len(default_plan(replace(config, per_iteration_count=24))) == 3

    def test_structureless_batch(self, lexicon):
        spec = SynthSpec(seed=2, corpus_size=10, target_mean=0.0, jitter=0.0)
        assert len(planted_fields(spec, 0, lexicon)) == 10


def _tiny_config(tmp_path, groups, iterations=2, per_iteration_count=50, seed=0):
    return RunConfig(
        fixtures_dir=tmp_path / "fixtures",
        output_dir=tmp_path / "out",
        groups=groups,
        per_iteration_count=per_iteration_count,
        iterations=iterations,
        seed=seed,
    )


class TestDefaultPlan:
    def test_one_plan_per_subject(self, tmp_path):
        config = _tiny_config(
            tmp_path,
            [("topical", ("A", "B", "C")), ("event", ("D", "E"))],
        )
        plans = default_plan(config)
        assert [p.query_spec.subject for p in plans] == ["A", "B", "C", "D", "E"]
        assert all(isinstance(p, SubjectPlan) for p in plans)

    def test_beta_spans_up_to_one(self, tmp_path):
        config = _tiny_config(tmp_path, [("topical", tuple("ABCDEF"))])
        plans = default_plan(config)
        betas = [
            p.synth_spec.weak_count / p.synth_spec.strong_count for p in plans
        ]
        assert betas[0] == pytest.approx(0.1)
        assert betas[-1] == 1.0
        assert betas == sorted(betas)

    def test_sentiment_falls_as_beta_rises(self, tmp_path):
        config = _tiny_config(tmp_path, [("geographic", tuple("ABCDE"))])
        plans = default_plan(config)
        targets = [p.synth_spec.target_mean for p in plans]
        assert targets == sorted(targets, reverse=True)

    def test_seeds_distinct_across_subjects(self, tmp_path):
        config = _tiny_config(
            tmp_path, [("topical", ("A", "B")), ("event", ("C", "D"))], seed=5
        )
        seeds = [p.synth_spec.seed for p in default_plan(config)]
        assert len(set(seeds)) == len(seeds)

    def test_corpus_fits_iteration_budget(self, tmp_path):
        config = _tiny_config(
            tmp_path, [("topical", tuple("ABCDEF"))], per_iteration_count=30
        )
        for plan in default_plan(config):
            assert plan.synth_spec.corpus_size <= 30
            needed = sum(
                sum(sizes) for sizes in plan.synth_spec.weak_component_sizes
            )
            assert plan.synth_spec.corpus_size >= needed

    def test_every_plan_shape_fits_the_planted_corpus(self):
        """Every shape default_plan can build: a group's strong_total is 10
        plus its position, at most one group per kind; weak_total runs from
        1 to strong_total; the flavour is a subject's parity.  Each needs at
        most _CORPUS_SIZE statuses, 8 of them texts past the structure."""
        shapes = {
            _spread_components(10 + group, weak, flavor)
            for group in range(len(QUERY_KINDS))
            for weak in range(1, 10 + group + 1)
            for flavor in (0, 1)
        }
        assert len(shapes) == 92
        assert max(_needed_statuses(sizes) for sizes in shapes) + 8 <= _CORPUS_SIZE


class TestWriteFixtureTree:
    def test_layout_and_determinism(self, tmp_path):
        config = _tiny_config(
            tmp_path, [("topical", ("Alpha", "Beta Co"))], iterations=3
        )
        written = write_fixture_tree(config)
        assert len(written) == 6
        for path in written:
            assert path.is_file()
            assert path.name.startswith("iter_")
        first = {p: p.read_bytes() for p in written}
        again = write_fixture_tree(config)
        assert {p: p.read_bytes() for p in again} == first

    def test_batches_follow_plan(self, tmp_path):
        config = _tiny_config(tmp_path, [("individual", ("Solo",))], iterations=2)
        (plan,) = default_plan(config)
        written = write_fixture_tree(config)
        assert [path.name for path in written] == ["iter_000", "iter_001"]
        for index, path in enumerate(written):
            strong, weak = mention_counts(fixture_records(path))
            assert strong == plan.synth_spec.strong_count
            assert weak == plan.synth_spec.weak_count

    def test_tree_builds_no_status_objects(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("write_fixture_tree built a Status object")

        # synth does not import the name; a stub there still catches a new import
        for module in (synth_module, ingest_module):
            monkeypatch.setattr(module, "Status", refuse, raising=False)
        config = _tiny_config(tmp_path, [("event", ("Alpha",))], iterations=2)
        assert len(write_fixture_tree(config)) == 2

    @pytest.mark.parametrize(
        "files_per_worker", [synth_module._FILES_PER_WORKER, 1], ids=["in-process", "pooled"]
    )
    def test_stale_iteration_file_is_left_in_place(
        self, tmp_path, two_cores, monkeypatch, files_per_worker
    ):
        config = _tiny_config(tmp_path, [("topical", ("Alpha", "Beta Co"))], iterations=2)
        subject = tmp_path / "fixtures" / "topical" / "beta-co"
        subject.mkdir(parents=True)
        (subject / "notes.txt").write_text("not an iteration file\n", encoding="utf-8")
        # a second iteration 1 beside the planned iter_001
        (subject / "iter_0001").write_text("", encoding="utf-8")
        monkeypatch.setattr(synth_module, "_FILES_PER_WORKER", files_per_worker)
        assert len(write_fixture_tree(config)) == 4
        assert (subject / "notes.txt").read_text(encoding="utf-8") == "not an iteration file\n"
        assert (subject / "iter_0001").read_bytes() == b""
        with pytest.raises(DataError, match="iter_0001 and .*iter_001 are both iteration 1"):
            iteration_files(config, "topical", "Beta Co")

    def test_first_failing_plan_raises_for_any_jobs(self, tmp_path, two_cores, monkeypatch):
        config = _tiny_config(tmp_path, [("topical", tuple("ABCDE"))], iterations=2)
        plans = default_plan(config)
        for position, corpus_size in ((1, 1), (3, 2)):
            plan = plans[position]
            plans[position] = replace(plan, synth_spec=replace(plan.synth_spec, corpus_size=corpus_size))
        monkeypatch.setattr(synth_module, "default_plan", lambda _: plans)
        raised = []
        # the 10-file tree in-process, then on a pool
        for files_per_worker in (synth_module._FILES_PER_WORKER, 1):
            monkeypatch.setattr(synth_module, "_FILES_PER_WORKER", files_per_worker)
            with pytest.raises(SynthError) as caught:
                write_fixture_tree(config)
            raised.append(str(caught.value))
        assert raised[0] == raised[1] and raised[0].startswith("corpus_size 1 cannot cover")


def _needed_statuses(sizes) -> int:
    """Statuses a planted structure needs: one per edge, one per lonely node."""
    edges = sum(s for group in sizes for s in group if s > 1)
    edges += sum(len(group) - 1 for group in sizes)
    return edges + sum(1 for group in sizes if list(group) == [1])


synth_specs = st.builds(
    lambda seed, sizes, extra, target: SynthSpec(
        seed=seed,
        weak_component_sizes=sizes,
        corpus_size=_needed_statuses(sizes) + extra,
        target_mean=target,
        jitter=max(0.01, 0.3 / (_needed_statuses(sizes) + extra)),
    ),
    st.integers(min_value=0, max_value=10**6),
    size_lists,
    st.integers(min_value=10, max_value=20),
    st.floats(min_value=-1.0, max_value=1.0),
)


class TestFixtureFields:
    @settings(max_examples=40)
    @given(spec=synth_specs, index=st.integers(min_value=0, max_value=4))
    def test_written_file_reads_back_as_generated(self, tmp_path_factory, lexicon, spec, index):
        fields = planted_fields(spec, index, lexicon)
        directory = tmp_path_factory.mktemp("fields") / "topical" / "subject"
        path = directory / iteration_filename(index)
        write_fixture_fields(path, fields)
        assert list(fixture_records(path)) == fields == planted_fields(spec, index, lexicon)


@st.composite
def valence_scans(draw):
    """(remaining, ascending (valence, tokens) pairs) with exact ties and
    1e-15 near-ties between the gaps."""
    nonzero = st.floats(min_value=-4.0, max_value=4.0).filter(bool)
    values = set(draw(st.lists(nonzero, min_size=1, max_size=12)))
    for value in draw(st.lists(st.sampled_from(sorted(values)), max_size=4)):
        values.add(draw(st.sampled_from([value + 1e-15, value - 1e-15, value + 2e-15, -value])))
    ordered = sorted(values - {0.0})
    low, high = draw(st.sampled_from(ordered)), draw(st.sampled_from(ordered))
    middle = (low + high) / 2
    remaining = draw(
        st.floats(min_value=-9.0, max_value=9.0)
        | st.sampled_from([0.0, low, low + 5e-16, middle, middle + 1e-15, middle - 1e-15])
    )
    return remaining, [(value, [f"w{i}"]) for i, value in enumerate(ordered)]


class TestClosestValence:
    @settings(max_examples=500)
    @given(valence_scans())
    def test_early_exit_matches_full_scan(self, case):
        remaining, valences = case
        assert _closest_valence(remaining, valences) == reference_closest_valence(
            remaining, valences
        )

    @pytest.mark.parametrize(
        "remaining, expected",
        [(1.0, 0.5), (0.0, None), (1e-16, None), (2.9, 3.0), (-0.76, -1.0), (9.0, 3.0)],
    )
    def test_ties_go_to_the_lower_valence(self, remaining, expected):
        valences = [(v, [str(v)]) for v in (-3.0, -1.0, -0.5, 0.5, 1.5, 3.0)]
        best = _closest_valence(remaining, valences)
        assert (None if best is None else best[0]) == expected
        assert best == reference_closest_valence(remaining, valences)


PINNED_TREES = {
    "perfbench-seed-0": (PERFBENCH_GROUPS, 950, 25, 0, 600,
        "74d661723d3dc9854ba2377bf11750146f90e091c42cce598111d1101629feff"),
    "perfbench-seed-77": (PERFBENCH_GROUPS, 950, 25, 77, 600,
        "d8c1153317d01b0978e127689ebfa945b6f3a2661b10ac3d744e46622e051a0e"),
    "cli-config": (CLI_GROUPS, 40, 3, 11, 24,
        "7af84aa9823439baed752356e025a4dc943368999310f688f5c768d3186b3bb9"),
}


@pytest.mark.parametrize(
    "pooled, groups, per_iteration_count, iterations, seed, files, digest",
    [(pooled, *tree) for pooled in (False, True) for tree in PINNED_TREES.values()],
    ids=[name + ("-jobs-2" if pooled else "") for pooled in (False, True) for name in PINNED_TREES],
)
def test_tree_bytes_are_pinned(
    tmp_path, two_cores, monkeypatch,
    pooled, groups, per_iteration_count, iterations, seed, files, digest,
):
    """The fixture bytes are the generator's contract: analyze's results
    and every stored digest depend on them, and the worker count does not.
    Each tree is pinned in-process and on a pool forced onto it."""
    config = _tiny_config(
        tmp_path, groups, iterations=iterations, per_iteration_count=per_iteration_count, seed=seed
    )
    monkeypatch.setattr(synth_module, "_FILES_PER_WORKER", 1 if pooled else files + 1)
    write_fixture_tree(config)
    assert tree_digest(tmp_path / "fixtures") == (files, digest)
