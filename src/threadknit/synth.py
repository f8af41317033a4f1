"""Synthetic conversation data with known ground truth.

Graphs are planted: the caller chooses how many weakly connected components
to create and the sizes of the strongly connected components inside each,
and the generator realizes exactly that structure (cycles for multi-node
strong components, one-way chains between them, nothing across weak
components).  Corpora are steered: texts are assembled from lexicon words
so the running mean score tracks a target, with neutral filler words mixed
in.  Both are fully determined by the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Iterator, Sequence

from .errors import SynthError
from .graph import ConversationGraph, Edge
from .ingest import (
    IterationBatch,
    QuerySpec,
    RunConfig,
    Status,
    fixture_path,
    write_fixture,
)
from .sentiment import Lexicon

_BASE_TIME = datetime(2022, 12, 25, tzinfo=timezone.utc)
_MAX_SENTIMENT_WORDS = 12

# Neutral padding; anything that shows up in the lexicon is skipped at use.
FILLER_WORDS = (
    "the a an and or but of to in on at it its this that these those they "
    "them their we us our you your he him his she her i me my was were is "
    "are am be been being with for from about into over under after before "
    "again then than there here when where while because though although "
    "during between among through just only so if as by up out off once"
).split()


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic iteration.

    ``weak_component_sizes`` lists, per weak component, the sizes of the
    strong components planted inside it; ``corpus_size`` texts are steered
    toward a mean score of ``target_mean`` within ``jitter``.
    """

    seed: int
    weak_component_sizes: tuple[tuple[int, ...], ...] = ()
    corpus_size: int = 0
    target_mean: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "weak_component_sizes",
            tuple(tuple(sizes) for sizes in self.weak_component_sizes),
        )
        for sizes in self.weak_component_sizes:
            if not sizes or any(s < 1 for s in sizes):
                raise ValueError(f"bad strong-component sizes: {sizes!r}")
        if self.corpus_size < 0:
            raise ValueError("corpus_size must be nonnegative")
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")

    @property
    def strong_count(self) -> int:
        return sum(len(sizes) for sizes in self.weak_component_sizes)

    @property
    def weak_count(self) -> int:
        return len(self.weak_component_sizes)

    @property
    def node_count(self) -> int:
        return sum(sum(sizes) for sizes in self.weak_component_sizes)


def _planted_topology(
    spec: SynthSpec, rng: random.Random
) -> tuple[list[str], list[tuple[str, str]]]:
    """Concrete nodes and directed edges realizing the planted structure."""
    total = spec.node_count
    names = [f"u{n:08d}" for n in rng.sample(range(10**8), total)]
    cursor = 0
    edges: list[tuple[str, str]] = []
    for sizes in spec.weak_component_sizes:
        anchors: list[str] = []
        for size in sizes:
            members = names[cursor : cursor + size]
            cursor += size
            if size > 1:
                # a directed cycle keeps the members mutually reachable
                for i in range(size):
                    edges.append((members[i], members[(i + 1) % size]))
            anchors.append(members[0])
        # chain the strong components one way so the weak component holds
        # together without merging them
        for left, right in zip(anchors, anchors[1:]):
            edges.append((left, right))
    return names, edges


def synth_graph(spec: SynthSpec) -> ConversationGraph:
    """Graph with exactly the planted component counts.

    ``component_summary`` of the result reports ``spec.strong_count`` and
    ``spec.weak_count``.  Same spec, same graph.
    """
    rng = random.Random(spec.seed)
    names, pairs = _planted_topology(spec, rng)
    edges = tuple(
        Edge(src, dst, "mention", f"s{k:04d}") for k, (src, dst) in enumerate(pairs)
    )
    return ConversationGraph(nodes=frozenset(names), edges=edges)


def _corpus_texts(
    count: int,
    target_mean: float,
    jitter: float,
    lexicon: Lexicon,
    rng: random.Random,
) -> list[str]:
    """Texts whose mean lexicon score lands within jitter of the target.

    Each text corrects the running total toward ``target_mean * (i + 1)``,
    greedily adding the lexicon word that best shrinks the residual; the
    residual therefore never accumulates across texts.  Raises SynthError
    when the target cannot be approached with the available valences.
    """
    valences = lexicon.by_valence
    by_valence = dict(valences)
    filler = [w for w in FILLER_WORDS if w not in lexicon.entries]
    if not filler:
        raise SynthError("lexicon swallowed every filler word")
    pairable = sorted(v for v in by_valence if v > 0 and -v in by_valence)
    texts: list[str] = []
    running = 0.0
    for i in range(count):
        remaining = target_mean * (i + 1) - running
        words: list[str] = []
        achieved = 0.0
        for _ in range(_MAX_SENTIMENT_WORDS):
            best = None
            best_gap = abs(remaining)
            for valence, tokens in valences:
                gap = abs(remaining - valence)
                if gap < best_gap - 1e-15:
                    best = (valence, tokens)
                    best_gap = gap
            if best is None:
                break
            valence, tokens = best
            words.append(rng.choice(tokens))
            remaining -= valence
            achieved += valence
        if pairable and rng.random() < 0.35:
            # a canceling pair adds texture without moving the score
            positive = rng.choice(pairable)
            words.append(rng.choice(by_valence[positive]))
            words.append(rng.choice(by_valence[-positive]))
        words.extend(rng.choice(filler) for _ in range(rng.randint(3, 6)))
        rng.shuffle(words)
        texts.append(" ".join(words))
        running += achieved
    mean = running / count if count else 0.0
    if abs(mean - target_mean) > jitter + 1e-12:
        raise SynthError(
            f"target mean {target_mean} unreachable with this lexicon: "
            f"achieved {mean:.6f} over {count} texts (jitter {jitter})"
        )
    return texts


def synth_corpus(spec: SynthSpec, lexicon: Lexicon) -> list[Status]:
    """Reference-free statuses whose mean score tracks the spec's target."""
    if spec.corpus_size < 1:
        raise SynthError("corpus_size must be at least 1")
    rng = random.Random(spec.seed)
    texts = _corpus_texts(spec.corpus_size, spec.target_mean, spec.jitter, lexicon, rng)
    return [
        Status(
            id=f"c{i:05d}",
            text=text,
            author=f"w{i:05d}",
            created_at=_BASE_TIME + timedelta(seconds=i),
        )
        for i, text in enumerate(texts)
    ]


def synth_batch(
    spec: SynthSpec,
    query_spec: QuerySpec,
    index: int,
    lexicon: Lexicon,
) -> IterationBatch:
    """One fixture-ready iteration combining planted structure and corpus.

    Every edge becomes a status by the edge's source mentioning its target;
    nodes with no incident edge get a reference-free status so they survive
    graph construction; leftover corpus texts are attributed to existing
    nodes.  Rebuilding the graph from the batch therefore reproduces the
    planted component counts exactly (with isolates included).
    """
    rng = random.Random(spec.seed * 1_000_003 + index)
    names, pairs = _planted_topology(spec, rng)
    incident = {node for pair in pairs for node in pair}
    lonely = [n for n in names if n not in incident]
    needed = len(pairs) + len(lonely)
    if spec.corpus_size < needed:
        raise SynthError(
            f"corpus_size {spec.corpus_size} cannot cover {len(pairs)} edges "
            f"and {len(lonely)} isolated nodes"
        )
    if spec.corpus_size > query_spec.per_iteration_count:
        raise SynthError(
            f"corpus_size {spec.corpus_size} exceeds per_iteration_count "
            f"{query_spec.per_iteration_count}"
        )
    texts = _corpus_texts(spec.corpus_size, spec.target_mean, spec.jitter, lexicon, rng)
    drafts: list[tuple[str, str | None, str]] = []  # author, mention, text
    cursor = 0
    for src, dst in pairs:
        drafts.append((src, dst, texts[cursor]))
        cursor += 1
    for node in lonely:
        drafts.append((node, None, texts[cursor]))
        cursor += 1
    anchors = sorted(names)
    for k, text in enumerate(texts[cursor:]):
        author = anchors[k % len(anchors)] if anchors else f"w{k:05d}"
        drafts.append((author, None, text))
    rng.shuffle(drafts)
    statuses = tuple(
        Status(
            id=f"t{index:03d}{k:05d}",
            text=text,
            author=author,
            created_at=_BASE_TIME + timedelta(minutes=index, seconds=k),
            mentions=(mention,) if mention else (),
        )
        for k, (author, mention, text) in enumerate(drafts)
    )
    return IterationBatch(spec=query_spec, index=index, statuses=statuses)


@dataclass(frozen=True)
class SubjectPlan:
    """Planted ground truth for one subject in a synthetic fixture tree."""

    query_spec: QuerySpec
    synth_spec: SynthSpec


def default_plan(config: RunConfig) -> list[SubjectPlan]:
    """Planted structure for every configured subject.

    Within each group the weak/strong ratio rises across subjects from
    1/strong_total to 1.0 while the sentiment target falls with it, so each
    group carries a strongly negative structure-sentiment correlation by
    construction.  Targets zigzag slightly around the trend line; without
    that, small groups can land exactly collinear and make the downstream
    significance test degenerate at r = -1.
    """
    plans: list[SubjectPlan] = []
    offset = 0
    for group_index, (kind, subjects) in enumerate(config.groups):
        strong_total = 10 + group_index
        for subject_index, subject in enumerate(subjects):
            if len(subjects) > 1:
                frac = subject_index / (len(subjects) - 1)
            else:
                frac = 1.0
            weak_total = 1 + round(frac * (strong_total - 1))
            sizes = _spread_components(strong_total, weak_total, subject_index)
            corpus_size = _plan_corpus_size(sizes, config.per_iteration_count)
            wobble = 0.05 if subject_index % 2 == 0 else -0.05
            spec = SynthSpec(
                seed=config.seed + 1009 * offset,
                weak_component_sizes=sizes,
                corpus_size=corpus_size,
                target_mean=round(0.9 - 1.1 * (weak_total / strong_total) + wobble, 4),
                # achievable means sit on a grid of step 0.5/corpus_size, so
                # the tolerance must at least cover half a grid step
                jitter=max(0.01, 0.3 / corpus_size),
            )
            plans.append(SubjectPlan(config.spec_for(kind, subject), spec))
            offset += 1
    return plans


def _spread_components(
    strong_total: int, weak_total: int, flavor: int
) -> tuple[tuple[int, ...], ...]:
    """Distribute ``strong_total`` strong components over ``weak_total``
    weak ones, with a couple of multi-node cycles for texture."""
    base, extra = divmod(strong_total, weak_total)
    counts = [base + (1 if w < extra else 0) for w in range(weak_total)]
    sizes = [[1] * count for count in counts]
    sizes[0][0] = 3 if flavor % 2 == 0 else 2
    if len(sizes) > 1:
        sizes[1][0] = 2
    return tuple(tuple(s) for s in sizes)


def _plan_corpus_size(
    sizes: tuple[tuple[int, ...], ...], per_iteration_count: int
) -> int:
    edges = sum(s for group in sizes for s in group if s > 1)
    edges += sum(len(group) - 1 for group in sizes)
    lonely = sum(
        1 for group in sizes if len(group) == 1 and group[0] == 1
    )
    wanted = max(edges + lonely + 8, 24)
    if wanted > per_iteration_count:
        raise SynthError(
            f"planted structure needs {wanted} statuses but the plan allows "
            f"only {per_iteration_count} per iteration"
        )
    return min(wanted, 50, per_iteration_count)


def iter_planned_batches(
    plan: SubjectPlan, iterations: int, lexicon: Lexicon
) -> Iterator[IterationBatch]:
    for index in range(iterations):
        yield synth_batch(plan.synth_spec, plan.query_spec, index, lexicon)


def write_fixture_tree(
    config: RunConfig,
    lexicon: Lexicon,
    plans: Sequence[SubjectPlan] | None = None,
    root=None,
) -> list:
    """Materialize a full fixture tree; returns the files written."""
    if plans is None:
        plans = default_plan(config)
    root = root if root is not None else config.fixtures_dir
    written = []
    for plan in plans:
        for batch in iter_planned_batches(plan, config.iterations, lexicon):
            target = fixture_path(root, plan.query_spec, batch.index)
            written.append(write_fixture(batch, target))
    return written
