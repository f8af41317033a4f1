"""Seeded generator of paper-shaped fixture trees, with recorded ground truth.

Every batch holds 950 statuses, like one iteration of the paper's search.
Each batch plants a known component structure: a few hundred strongly
connected components (directed cycles with chords) grouped into about a
hundred weakly connected components (strong components linked only along
one topological order).  Edges are spread over reply, mention, retweet and
quote references, several of them packed into one status where the format
allows it, plus self-loops and duplicate references that leave the counts
unchanged.

Texts mix lexicon words with filler, URLs, @mentions, hashtags, U+2019 and
intra-word apostrophes and non-ASCII words.  The score of every text is
known by construction, so the generator records exact per-iteration
component counts and sentiment means.  The output is the documented JSONL
fixture format, written directly; nothing from the program under test is
imported.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum
from pathlib import Path

STATUSES_PER_BATCH = 950

# Four groups of six subjects, as in the paper.
GROUPS = (
    ("topical", ("Christianity", "NORAD", "Duke Energy", "Climate", "Vaccines", "Bitcoin")),
    ("event", ("Christmas", "Hanukkah", "Fortnite", "World Cup", "Super Bowl", "Kwanzaa")),
    ("geographic", ("NYC", "London", "Tokyo", "Lagos", "Sao Paulo", "Mumbai")),
    (
        "individual",
        ("Ada Lovelace", "Alan Turing", "Grace Hopper", "Katherine Johnson", "Tim Berners-Lee", "Linus Torvalds"),
    ),
)

EDGE_KINDS = ("reply", "mention", "retweet", "quote")
_KIND_WEIGHTS = (3, 4, 2, 1)
_MAX_MENTIONS = 3
_SCC_SIZES = (1, 2, 3, 4, 5, 6)
_SCC_WEIGHTS = (45, 25, 15, 7, 5, 3)

# Tokens that must score zero; checked against the lexicon before use.
_FILLER = (
    "the a an and or but of to in on at it its this that these those they them "
    "their we us our you your he him his she her i me my was were is are am be "
    "been with for from about into over under after before again then than "
    "there here when where while because during between through just only so "
    "if as by up out off once today tonight morning week thread update news "
    "people city street road train game team song show story photo video"
).split()
_CONTRACTIONS = ("don’t", "it’s", "we’re", "i’m", "they’ve", "can't", "won't", "that's")
_APOSTROPHE_WORDS = ("rock'n'roll", "o'clock", "ma'am", "y'all", "rock’n’roll")
_NON_ASCII = (
    "café", "naïve", "jalapeño", "Zürich", "smörgåsbord", "façade", "crème",
    "niño", "fiancée", "über", "ελπίδα", "москва", "東京", "ołówek",
)
_HASHTAGS = ("#tbt", "#news", "#thread", "#live", "#2022", "#día")
_PUNCT = ("", "", "", ",", ".", "!", "?", "...", " —", " \U0001F642")
_URLS = ("https://t.co/", "http://example.org/p/", "www.example.com/")

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_WORD_APOSTROPHE_NEIGHBOURS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")


def subject_slug(subject: str) -> str:
    """Directory name of a subject, as the fixture layout documents it."""
    return re.sub(r"[^a-z0-9]+", "-", subject.lower()).strip("-")


def read_lexicon(path: str | Path) -> dict[str, float]:
    """``token<TAB>valence`` lines; blank lines and '#' comments skipped."""
    entries = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        token, valence = line.split("\t")
        entries[token.strip()] = float(valence)
    return entries


def reference_tokens(text: str) -> list[str]:
    """Tokens of a text under the documented cleaning rules.

    URLs and @mentions go, U+2019 becomes an apostrophe, text is lowercased,
    every character that is neither alphanumeric nor an apostrophe becomes a
    space, and an apostrophe survives only between two ASCII letters or
    digits.
    """
    text = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text)).replace("’", "'").lower()
    mapped = "".join(ch if ch == "'" or ch.isalnum() else " " for ch in text)
    kept = []
    for i, ch in enumerate(mapped):
        if ch == "'" and not (
            0 < i < len(mapped) - 1
            and mapped[i - 1] in _WORD_APOSTROPHE_NEIGHBOURS
            and mapped[i + 1] in _WORD_APOSTROPHE_NEIGHBOURS
        ):
            ch = " "
        kept.append(ch)
    return "".join(kept).split()


def reference_score(text: str, lexicon: dict[str, float]) -> float:
    return fsum(lexicon.get(token, 0.0) for token in reference_tokens(text))


def round_half_away(value: Fraction) -> int:
    """Nearest integer, exact halves away from zero (values here are >= 0)."""
    floor = value.numerator // value.denominator
    return floor + 1 if value - floor >= Fraction(1, 2) else floor


@dataclass
class SubjectTruth:
    """Planted per-iteration counts and exact sentiment of one subject."""

    kind: str
    subject: str
    strong: list[int] = field(default_factory=list)
    weak: list[int] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    final_nodes: int = 0
    final_edges: int = 0

    @property
    def strong_count(self) -> int:
        return round_half_away(Fraction(sum(self.strong), len(self.strong)))

    @property
    def weak_count(self) -> int:
        return round_half_away(Fraction(sum(self.weak), len(self.weak)))

    @property
    def beta(self) -> float:
        return self.weak_count / self.strong_count

    @property
    def alpha(self) -> float:
        return fsum(self.alphas) / len(self.alphas)


@dataclass
class TreeTruth:
    subjects: list[SubjectTruth]
    statuses: int


class PaperGenerator:
    """Writes one paper-shaped fixture tree per call, fully set by the seed."""

    def __init__(self, lexicon: dict[str, float]):
        clean = {t: v for t, v in lexicon.items() if v != 0.0 and reference_tokens(t) == [t]}
        self.positive = sorted(t for t, v in clean.items() if v > 0)
        self.negative = sorted(t for t, v in clean.items() if v < 0)
        self.valence = clean
        self.filler = [w for w in _FILLER if not set(reference_tokens(w)) & lexicon.keys()]
        for piece in _CONTRACTIONS + _APOSTROPHE_WORDS + _NON_ASCII + _HASHTAGS:
            if set(reference_tokens(piece)) & lexicon.keys():
                raise ValueError(f"decoration {piece!r} would score against the lexicon")
        if not (self.positive and self.negative and self.filler):
            raise ValueError("lexicon too small to steer texts")

    def write_tree(
        self,
        root: str | Path,
        seed: int,
        iterations: int,
        groups=GROUPS,
    ) -> TreeTruth:
        root = Path(root)
        truths = []
        statuses = 0
        for kind, subjects in groups:
            for subject in subjects:
                rng = random.Random(f"{seed}/{kind}/{subject}")
                truth = SubjectTruth(kind, subject)
                base_strong = rng.randint(230, 310)
                base_weak = round(base_strong * rng.uniform(0.25, 0.5))
                # odd iterations may add a strong and/or a weak component, so
                # an even iteration count can put a mean on an exact .5 tie
                step_strong, step_weak = rng.choice(((1, 0), (0, 1), (1, 1), (0, 0)))
                bias = min(0.9, max(0.1, 1.0 - 1.6 * base_weak / base_strong + rng.uniform(-0.1, 0.1)))
                directory = root / kind / subject_slug(subject)
                directory.mkdir(parents=True, exist_ok=True)
                for index in range(iterations):
                    odd = index % 2
                    strong = base_strong + odd * step_strong
                    weak = base_weak + odd * step_weak
                    batch_rng = random.Random(f"{seed}/{kind}/{subject}/{index}")
                    lines, scores, nodes, edges = self._batch(batch_rng, index, strong, weak, bias)
                    (directory / f"iter_{index:03d}").write_text("".join(lines), encoding="utf-8")
                    truth.strong.append(strong)
                    truth.weak.append(weak)
                    truth.alphas.append(fsum(scores) / len(scores))
                    truth.final_nodes = nodes
                    truth.final_edges = edges
                    statuses += len(lines)
                truths.append(truth)
        return TreeTruth(truths, statuses)

    def _batch(self, rng: random.Random, index: int, strong: int, weak: int, bias: float):
        components = self._plant(rng, strong, weak)
        names = _handles(rng, sum(sum(group) for group in components))
        cursor = 0
        edges: list[tuple[str, str]] = []
        singletons: list[str] = []
        for group in components:
            members = []
            for size in group:
                members.append(names[cursor : cursor + size])
                cursor += size
            if len(members) == 1 and len(members[0]) == 1:
                singletons.append(members[0][0])
                continue
            for scc in members:
                if len(scc) > 1:
                    edges.extend(zip(scc, scc[1:] + scc[:1]))
                    edges.extend(
                        (rng.choice(scc), rng.choice(scc)) for _ in range(len(scc) // 2)
                    )
            # strong components are linked only from lower to higher
            # position, so none of these edges closes a cycle between them
            for j in range(1, len(members)):
                edges.append((rng.choice(members[rng.randrange(j)]), rng.choice(members[j])))
            for _ in range(len(members) // 3):
                j = rng.randrange(1, len(members))
                edges.append((rng.choice(members[rng.randrange(j)]), rng.choice(members[j])))

        drafts = self._pack(rng, edges)
        for node in singletons:
            # a self-loop or a reference-free status keeps the node isolated
            if rng.random() < 0.2:
                drafts.append((node, [(rng.choice(EDGE_KINDS), node)]))
            else:
                drafts.append((node, []))
        if len(drafts) > STATUSES_PER_BATCH:
            raise ValueError(f"planted structure needs {len(drafts)} statuses")
        while len(drafts) < STATUSES_PER_BATCH:
            if edges and rng.random() < 0.2:
                # repeat an existing reference: more edges, same components
                source, target = rng.choice(edges)
                drafts.append((source, [(_kind(rng), target)]))
            else:
                drafts.append((rng.choice(names), []))
        rng.shuffle(drafts)

        lines = []
        scores = []
        for k, (author, refs) in enumerate(drafts):
            record: dict = {"id": f"p{index:03d}{k:04d}"}
            mentioned = []
            for kind, target in refs:
                if kind == "mention":
                    record.setdefault("mentions", []).append(_present(rng, target))
                    mentioned.append(target)
                else:
                    record[kind + ("_to" if kind == "reply" else "_of")] = _present(rng, target)
            text, score = self._text(rng, bias, mentioned)
            record["text"] = text
            record["author"] = _present(rng, author)
            if rng.random() < 0.9:
                stamp = f"2022-12-{20 + index % 10:02d}T{k // 60 % 24:02d}:{k % 60:02d}:{rng.randrange(60):02d}"
                record["created_at"] = stamp + ("Z" if rng.random() < 0.5 else "+00:00")
            if not refs and rng.random() < 0.1:
                record["reply_to"] = None
            lines.append(json.dumps(record, ensure_ascii=False) + "\n")
            scores.append(score)
        return lines, scores, len(names), sum(len(refs) for _, refs in drafts)

    @staticmethod
    def _plant(rng: random.Random, strong: int, weak: int) -> list[list[int]]:
        """Sizes of the strong components inside each weak component."""
        cuts = sorted(rng.sample(range(1, strong), weak - 1))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [strong])]
        return [rng.choices(_SCC_SIZES, _SCC_WEIGHTS, k=count) for count in counts]

    @staticmethod
    def _pack(rng: random.Random, edges: list[tuple[str, str]]):
        """Group edges into statuses; one status carries at most one reply,
        retweet and quote and up to three mentions, all from its author."""
        open_drafts: dict[str, list[list[tuple[str, str]]]] = {}
        drafts = []
        for source, target in edges:
            kind = _kind(rng)
            slots = open_drafts.setdefault(source, [])
            for refs in slots:
                used = [k for k, _ in refs]
                if (kind == "mention" and used.count("mention") < _MAX_MENTIONS) or (
                    kind != "mention" and kind not in used
                ):
                    refs.append((kind, target))
                    break
            else:
                refs = [(kind, target)]
                slots.append(refs)
                drafts.append((source, refs))
        return drafts

    def _text(self, rng: random.Random, bias: float, mentioned: list[str]) -> tuple[str, float]:
        words = [rng.choice(self.filler) for _ in range(rng.randint(5, 14))]
        counted = []
        for _ in range(rng.choices((0, 1, 2, 3, 4), (20, 30, 25, 15, 10))[0]):
            token = rng.choice(self.positive if rng.random() < bias else self.negative)
            form = rng.random()
            if form < 0.55:
                word, scores = token, True
            elif form < 0.65:
                word, scores = token.upper(), True
            elif form < 0.75:
                word, scores = token.capitalize() + rng.choice(_PUNCT[3:]), True
            elif form < 0.83:
                word, scores = "#" + token, True
            elif form < 0.88:
                word, scores = "'" + token + "'", True
            elif form < 0.92:
                # a possessive is a different token and scores zero
                word, scores = token + rng.choice(("'s", "’s")), False
            elif form < 0.96:
                word, scores = rng.choice(_URLS) + token, False
            else:
                word, scores = "@" + token, False
            words.insert(rng.randrange(len(words) + 1), word)
            if scores:
                counted.append(self.valence[token])
        for pieces, chance in (
            (_CONTRACTIONS, 0.2),
            (_APOSTROPHE_WORDS, 0.08),
            (_NON_ASCII, 0.25),
            (_HASHTAGS, 0.15),
        ):
            if rng.random() < chance:
                words.insert(rng.randrange(len(words) + 1), rng.choice(pieces))
        if rng.random() < 0.3:
            words.append(rng.choice(_URLS) + f"{rng.randrange(16**6):06x}")
        words = ["@" + m for m in mentioned if rng.random() < 0.7] + words
        text = " ".join(words) + rng.choice(_PUNCT)
        return text, fsum(counted)


def _kind(rng: random.Random) -> str:
    return rng.choices(EDGE_KINDS, _KIND_WEIGHTS)[0]


def _handles(rng: random.Random, count: int) -> list[str]:
    """Distinct lowercase handles, a few of them non-ASCII."""
    numbers = rng.sample(range(10**7), count)
    styles = ("u{:07d}", "user_{:07d}", "n{:07d}x", "josé_{:07d}")
    return [rng.choices(styles, (60, 25, 10, 5))[0].format(n) for n in numbers]


def _present(rng: random.Random, handle: str) -> str:
    """The same handle as a record may spell it: case and '@' vary."""
    roll = rng.random()
    if roll < 0.1:
        return "@" + handle
    if roll < 0.15:
        return handle.upper()
    return handle
