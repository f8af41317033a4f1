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

from .errors import SynthError
from .config import RunConfig
from .ingest import QuerySpec, iteration_filename, subject_dir, write_fixture_fields
from .pipeline import resolve_lexicon, run_in_workers
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


# what corpus steering draws from a lexicon: (valence, tokens) pairs in
# ascending order, tokens by valence, the positive valences whose negation
# is present too, and the FILLER_WORDS the lexicon does not score
_Palette = tuple[list[tuple[float, list[str]]], dict[float, list[str]], list[float], list[str]]


def _palette(lexicon: Lexicon) -> _Palette:
    groups: dict[float, list[str]] = {}
    for token, valence in lexicon.entries.items():
        if valence != 0.0:
            groups.setdefault(valence, []).append(token)
    valences = sorted((v, sorted(tokens)) for v, tokens in groups.items())
    by_valence = dict(valences)
    pairable = sorted(v for v in by_valence if v > 0 and -v in by_valence)
    return valences, by_valence, pairable, [w for w in FILLER_WORDS if w not in lexicon.entries]


def _closest_valence(remaining: float, valences: list) -> tuple[float, list[str]] | None:
    """The first (valence, tokens) of the ascending ``valences`` to cut
    ``abs(remaining - valence)`` by more than 1e-15 below the best gap yet,
    starting from ``abs(remaining)``; None when no valence does."""
    best = None
    best_gap = abs(remaining)
    for valence, tokens in valences:
        gap = abs(remaining - valence)
        if gap < best_gap - 1e-15:
            best = (valence, tokens)
            best_gap = gap
        if valence > remaining:
            # rounding is monotone, so no later valence has a smaller gap
            break
    return best


def _corpus_texts(
    count: int,
    target_mean: float,
    jitter: float,
    palette: _Palette,
    rng: random.Random,
) -> list[str]:
    """Texts whose mean lexicon score lands within jitter of the target.

    Each text corrects the running total toward ``target_mean * (i + 1)``,
    greedily adding the lexicon word that best shrinks the residual; the
    residual therefore never accumulates across texts.  Raises SynthError
    for no texts (analyze cannot score an empty iteration) and when the
    target cannot be approached with the available valences.
    """
    valences, by_valence, pairable, filler = palette
    if count < 1:
        raise SynthError("corpus_size must be at least 1")
    if not filler:
        raise SynthError("lexicon swallowed every filler word")
    choice = rng.choice
    texts: list[str] = []
    running = 0.0
    for i in range(count):
        remaining = target_mean * (i + 1) - running
        words: list[str] = []
        achieved = 0.0
        for _ in range(_MAX_SENTIMENT_WORDS):
            best = _closest_valence(remaining, valences)
            if best is None:
                break
            valence, tokens = best
            words.append(choice(tokens))
            remaining -= valence
            achieved += valence
        if pairable and rng.random() < 0.35:
            # a canceling pair adds texture without moving the score
            positive = choice(pairable)
            words.append(choice(by_valence[positive]))
            words.append(choice(by_valence[-positive]))
        words += [choice(filler) for _ in range(rng.randint(3, 6))]
        rng.shuffle(words)
        texts.append(" ".join(words))
        running += achieved
    mean = running / count
    if abs(mean - target_mean) > jitter + 1e-12:
        raise SynthError(
            f"target mean {target_mean} unreachable with this lexicon: "
            f"achieved {mean:.6f} over {count} texts (jitter {jitter})"
        )
    return texts


def _batch_fields(spec: SynthSpec, index: int, palette: _Palette) -> list[tuple]:
    """Status fields of one planted iteration, in file order.

    Every edge becomes a status by the edge's source mentioning its target;
    nodes with no incident edge get a reference-free status so they survive
    graph construction; leftover corpus texts are attributed to existing
    nodes.  Handles (``u%08d``, ``w%05d``) are already normalized.
    """
    rng = random.Random(spec.seed * 1_000_003 + index)
    names, pairs = _planted_topology(spec, rng)
    incident = {node for pair in pairs for node in pair}
    lonely = [n for n in names if n not in incident]
    if spec.corpus_size < len(pairs) + len(lonely):
        raise SynthError(
            f"corpus_size {spec.corpus_size} cannot cover {len(pairs)} edges "
            f"and {len(lonely)} isolated nodes"
        )
    texts = _corpus_texts(spec.corpus_size, spec.target_mean, spec.jitter, palette, rng)
    # (author, mention, text)
    drafts = [(src, dst, text) for (src, dst), text in zip(pairs, texts)]
    drafts += [(node, None, text) for node, text in zip(lonely, texts[len(pairs) :])]
    anchors = sorted(names)
    drafts += [
        (anchors[k % len(anchors)] if anchors else f"w{k:05d}", None, text)
        for k, text in enumerate(texts[len(drafts) :])
    ]
    rng.shuffle(drafts)
    start = _BASE_TIME + timedelta(minutes=index)
    return [
        (
            f"t{index:03d}{k:05d}",
            text,
            author,
            start + timedelta(seconds=k),
            None,
            (mention,) if mention else (),
            None,
            None,
        )
        for k, (author, mention, text) in enumerate(drafts)
    ]


# statuses planted per iteration: every shape default_plan builds needs at
# most this many, one per edge, one per isolated node and 8 more
_CORPUS_SIZE = 24


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
    if _CORPUS_SIZE > config.per_iteration_count:
        raise SynthError(
            f"planted structure needs {_CORPUS_SIZE} statuses per iteration, "
            f"more than per_iteration_count {config.per_iteration_count}"
        )
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
            wobble = 0.05 if subject_index % 2 == 0 else -0.05
            spec = SynthSpec(
                seed=config.seed + 1009 * offset,
                weak_component_sizes=sizes,
                corpus_size=_CORPUS_SIZE,
                target_mean=round(0.9 - 1.1 * (weak_total / strong_total) + wobble, 4),
                # achievable means sit on a grid of step 0.5/corpus_size, so
                # the tolerance must at least cover half a grid step
                jitter=max(0.01, 0.3 / _CORPUS_SIZE),
            )
            plans.append(SubjectPlan(QuerySpec(kind, subject), spec))
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


def _write_subject(root, iterations: int, palette: _Palette, plan: SubjectPlan) -> list:
    """Write one planned subject's iterations; returns the files written."""
    directory = subject_dir(root, plan.query_spec.kind, plan.query_spec.subject)
    written = []
    for index in range(iterations):
        fields = _batch_fields(plan.synth_spec, index, palette)
        written.append(write_fixture_fields(directory / iteration_filename(index), fields))
    return written


# one synth worker per this many planned files: a 2-worker pool on 2 vCPUs broke even
# near 200-240 files (48 files: 0.20 -> 0.27 s; 288: 0.50 -> 0.39 s; 2,400: 2.99 -> 1.78 s)
_FILES_PER_WORKER = 150


def write_fixture_tree(config: RunConfig) -> list:
    """Materialize the default_plan tree, steered with the configured
    lexicon; returns the files written.

    Only the planned files are written: any other file is left as it is,
    and the stages that read the tree refuse one outside the plan.  Subjects go
    through run_in_workers with one worker per ``_FILES_PER_WORKER`` planned
    files, with the same bytes, so a small tree stays in-process; the first
    failing subject in plan order raises, and later ones may be written.
    Where workers are started by spawning, call this under
    ``if __name__ == "__main__":``.
    """
    # the lexicon first: a bad one is reported ahead of a bad plan
    lexicon = resolve_lexicon(config)
    plans = default_plan(config)
    jobs = max(1, len(plans) * config.iterations // _FILES_PER_WORKER)
    shared = (config.fixtures_dir, config.iterations, _palette(lexicon))
    subjects = run_in_workers(_write_subject, [(plan,) for plan in plans], jobs, *shared)
    return [path for paths in subjects for path in paths]
