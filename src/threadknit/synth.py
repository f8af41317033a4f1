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
from typing import ClassVar

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


# statuses planted per iteration: every shape default_plan builds needs at
# most this many, one per edge, one per isolated node and 8 more
_CORPUS_SIZE = 24


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic iteration: what default_plan varies per subject.

    ``weak_component_sizes`` lists, per weak component, the sizes of the
    strong components planted inside it; ``corpus_size`` texts are steered
    toward a mean score of ``target_mean`` within ``jitter``, both the same
    for every spec.
    """

    seed: int
    weak_component_sizes: tuple[tuple[int, ...], ...]
    target_mean: float

    corpus_size: ClassVar[int] = _CORPUS_SIZE
    # achievable means sit on a grid of step 0.5/corpus_size, so the
    # tolerance must at least cover half a grid step
    jitter: ClassVar[float] = max(0.01, 0.3 / _CORPUS_SIZE)

    @property
    def strong_count(self) -> int:
        return sum(len(sizes) for sizes in self.weak_component_sizes)

    @property
    def weak_count(self) -> int:
        return len(self.weak_component_sizes)

    @property
    def node_count(self) -> int:
        return sum(sum(sizes) for sizes in self.weak_component_sizes)


def _planted_shape(spec: SynthSpec) -> tuple[list[tuple[int, int]], list[int]]:
    """The planted edges between node positions 0..node_count-1, in the order
    their statuses are drafted, and the positions no edge touches, ascending;
    no draw decides them, so one shape serves every iteration."""
    edges: list[tuple[int, int]] = []
    lonely: list[int] = []
    cursor = 0
    for sizes in spec.weak_component_sizes:
        anchors: list[int] = []
        for size in sizes:
            if size > 1:
                # a directed cycle keeps the members mutually reachable
                edges += [(cursor + i, cursor + (i + 1) % size) for i in range(size)]
            anchors.append(cursor)
            cursor += size
        # chain the strong components one way so the weak component holds
        # together without merging them
        edges += zip(anchors, anchors[1:])
        if sizes == (1,):
            lonely.append(cursor - 1)
    return edges, lonely


# what corpus steering draws from a lexicon: (valence, tokens) pairs in
# ascending order, the (tokens, negated tokens) of each positive valence
# whose negation is present too, and the FILLER_WORDS the lexicon does not score
_Palette = tuple[list[tuple[float, list[str]]], list[tuple[list[str], list[str]]], list[str]]


def _palette(lexicon: Lexicon) -> _Palette:
    groups: dict[float, list[str]] = {}
    for token, valence in lexicon.entries.items():
        if valence != 0.0:
            groups.setdefault(valence, []).append(token)
    valences = sorted((v, sorted(tokens)) for v, tokens in groups.items())
    by_valence = dict(valences)
    pairs = [(tokens, by_valence[-v]) for v, tokens in valences if v > 0 and -v in by_valence]
    return valences, pairs, [w for w in FILLER_WORDS if w not in lexicon.entries]


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
    return best


def _steering(spec: SynthSpec, palette: _Palette) -> list[list[list[str]]]:
    """For each of ``spec``'s texts, the token lists its sentiment words are
    drawn from; no draw decides it, so one plan serves every iteration.

    Each text corrects the running total toward ``target_mean * (i + 1)``,
    greedily taking the valence that best shrinks the residual, so the
    residual never accumulates across texts.  Raises SynthError, in this
    order, when the lexicon scores every filler word and when the target is
    out of reach.
    """
    valences, _, filler = palette
    count, target_mean, jitter = spec.corpus_size, spec.target_mean, spec.jitter
    if not filler:
        raise SynthError("lexicon swallowed every filler word")
    plan: list[list[list[str]]] = []
    running = 0.0
    for i in range(count):
        remaining = target_mean * (i + 1) - running
        sources: list[list[str]] = []
        achieved = 0.0
        for _ in range(_MAX_SENTIMENT_WORDS):
            best = _closest_valence(remaining, valences)
            if best is None:
                break
            valence, tokens = best
            sources.append(tokens)
            remaining -= valence
            achieved += valence
        plan.append(sources)
        running += achieved
    mean = running / count
    if abs(mean - target_mean) > jitter + 1e-12:
        raise SynthError(
            f"target mean {target_mean} unreachable with this lexicon: "
            f"achieved {mean:.6f} over {count} texts (jitter {jitter})"
        )
    return plan


def _picks(sequences, bits) -> list:
    """``rng.choice(s)`` for each ``s`` of ``sequences``, from ``bits`` (``rng.getrandbits``) by
    random._randbelow's rejection rule, which a later Python's choice need not keep."""
    picked = []
    for sequence in sequences:
        n = len(sequence)
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        picked.append(sequence[r])
    return picked


def _shuffle(items: list, bits) -> None:
    """``rng.shuffle(items)``, drawn from ``bits`` as ``_picks`` draws."""
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        items[i], items[j] = items[j], items[i]


def _corpus_texts(steering: list, palette: _Palette, rng: random.Random) -> list[str]:
    """One iteration's texts by its ``_steering`` plan: sentiment words, 35% of
    the time a score-neutral canceling pair, then 3-6 fillers, shuffled."""
    _, pairs, filler = palette
    bits = rng.getrandbits
    texts: list[str] = []
    for sources in steering:
        words = _picks(sources, bits)
        if pairs and rng.random() < 0.35:
            words += _picks(_picks((pairs,), bits)[0], bits)
        # randint(3, 6) draws as choice(range(3, 7)) does
        words += _picks((filler,) * _picks((range(3, 7),), bits)[0], bits)
        _shuffle(words, bits)
        texts.append(" ".join(words))
    return texts


def _batch_fields(
    spec: SynthSpec, index: int, palette: _Palette, shape: tuple, steering: list
) -> list[tuple]:
    """Status fields of one planted iteration, in file order.

    Every edge of ``shape`` becomes a status by the edge's source mentioning
    its target; nodes with no incident edge get a reference-free status so
    they survive graph construction; leftover corpus texts are attributed to
    existing nodes.  Handles (``u%08d``) are already normalized.
    """
    rng = random.Random(spec.seed * 1_000_003 + index)
    names = [f"u{n:08d}" for n in rng.sample(range(10**8), spec.node_count)]
    edges, lonely = shape
    texts = _corpus_texts(steering, palette, rng)
    # (author, mention, text)
    drafts = [(names[src], names[dst], text) for (src, dst), text in zip(edges, texts)]
    drafts += [(names[node], None, text) for node, text in zip(lonely, texts[len(edges) :])]
    anchors = sorted(names)
    drafts += [
        (anchors[k % len(anchors)], None, text)
        for k, text in enumerate(texts[len(drafts) :])
    ]
    _shuffle(drafts, rng.getrandbits)
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
                target_mean=round(0.9 - 1.1 * (weak_total / strong_total) + wobble, 4),
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
    shape = _planted_shape(plan.synth_spec)
    steering = _steering(plan.synth_spec, palette)
    written = []
    for index in range(iterations):
        fields = _batch_fields(plan.synth_spec, index, palette, shape, steering)
        written.append(write_fixture_fields(directory / iteration_filename(index), fields))
    return written


# one synth worker per this many planned files: a 2-worker pool on 2 vCPUs broke even
# between 288 and 336 files (48: 0.14 -> 0.19 s; 336: 0.33 -> 0.28 s; 2,400: 1.35 -> 0.88 s)
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
