"""Lexicon-based sentiment scoring.

A lexicon maps lowercase tokens to signed valences.  A status's score is
the *sum* of the valences of its cleaned tokens (unknown tokens count
zero); a batch's alpha is the mean score over its statuses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from math import fsum
from pathlib import Path
from typing import Mapping, Sequence

from .errors import DegeneracyError, LexiconError
from .ingest import IterationBatch

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
# Runs of str.isalnum() characters ([^\W_] in a str pattern), joined by
# apostrophes that have an ASCII letter or digit on both sides.
_TOKEN_RE = re.compile(r"[^\W_]+(?:(?<=[0-9a-z])'(?=[0-9a-z])[^\W_]+)*")


def _tokens(raw: str) -> list[str]:
    # every URL match holds "://" or "www."; no character case-folds to
    # ":", "/" or ".", so texts without them skip the substitution
    text = _URL_RE.sub(" ", raw) if "." in raw or "://" in raw else raw
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    return _TOKEN_RE.findall(text.replace("’", "'").lower())


def clean_text(raw: str) -> str:
    """Normalize status text for token lookup.

    URLs and @-mentions are removed outright; '#' sigils are stripped but
    the tag word is kept; everything is lowercased; punctuation becomes a
    space except apostrophes inside a word; whitespace is collapsed.
    Idempotent.
    """
    return " ".join(_tokens(raw))


@dataclass(frozen=True)
class Lexicon:
    """Immutable token -> valence table."""

    name: str
    entries: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))
        if not self.entries:
            raise LexiconError(f"lexicon {self.name!r} is empty")
        for token, valence in self.entries.items():
            if not token or token != token.lower() or any(c.isspace() for c in token):
                raise LexiconError(
                    f"lexicon {self.name!r}: bad token {token!r} "
                    "(must be lowercase and whitespace-free)"
                )
            if not math.isfinite(valence):
                raise LexiconError(f"lexicon {self.name!r}: non-finite valence for {token!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def valence(self, token: str) -> float:
        return self.entries.get(token, 0.0)

    @cached_property
    def by_valence(self) -> list[tuple[float, list[str]]]:
        """(valence, sorted tokens) for every nonzero valence, ascending;
        built on first use and kept, so the lexicon is sorted once."""
        groups: dict[float, list[str]] = {}
        for token, valence in self.entries.items():
            if valence != 0.0:
                groups.setdefault(valence, []).append(token)
        return sorted((v, sorted(tokens)) for v, tokens in groups.items())


def load_lexicon(path: str | Path, name: str | None = None) -> Lexicon:
    """Read a tab-separated ``token<TAB>valence`` file.

    Blank lines and lines starting with '#' are skipped.  Duplicate tokens
    are an error.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise LexiconError(f"cannot read lexicon {path}: {err}") from err
    return parse_lexicon(raw, name=name or path.stem)


def parse_lexicon(raw: str, name: str = "lexicon") -> Lexicon:
    entries: dict[str, float] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(
                f"{name}:{lineno}: expected 'token<TAB>valence', got {line!r}"
            )
        token = parts[0].strip()
        try:
            valence = float(parts[1])
        except ValueError:
            raise LexiconError(f"{name}:{lineno}: bad valence {parts[1]!r}") from None
        if token in entries:
            raise LexiconError(f"{name}:{lineno}: duplicate token {token!r}")
        entries[token] = valence
    if not entries:
        raise LexiconError(f"{name}: no entries")
    return Lexicon(name=name, entries=entries)


def bundled_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    raw = resources.files("threadknit").joinpath("data/lexicon.tsv").read_text("utf-8")
    return parse_lexicon(raw, name="bundled")


def score_text(text: str, lexicon: Lexicon) -> float:
    """Sum of valences over the cleaned tokens of ``text``.

    The score is additive over concatenation and zero for text with no
    lexicon tokens.
    """
    entries = lexicon.entries
    return fsum([entries.get(token, 0.0) for token in _tokens(text)])


def batch_alpha(batch: IterationBatch, lexicon: Lexicon) -> float:
    """Mean per-status score for one iteration.  Undefined for an empty batch."""
    scores = [score_text(status.text, lexicon) for status in batch.statuses]
    return mean_score(scores, batch.spec.subject, batch.index)


def mean_score(scores: Sequence[float], subject: str, index: int) -> float:
    """Alpha of one iteration from its per-status scores."""
    if not scores:
        raise DegeneracyError(
            f"subject {subject!r} iteration {index}: "
            "sentiment undefined for an empty batch"
        )
    return fsum(scores) / len(scores)


def aggregate_alpha(alphas: Sequence[float]) -> float:
    """Mean of per-iteration alphas, carried unrounded."""
    if not alphas:
        raise DegeneracyError("no iteration alphas to aggregate")
    return fsum(alphas) / len(alphas)
