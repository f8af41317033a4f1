"""Lexicon-based sentiment scoring.

A lexicon maps lowercase tokens to signed valences.  A status's score is
the *sum* of the valences of its cleaned tokens (unknown tokens count
zero); a batch's alpha is the mean score over its statuses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from math import fsum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import DegeneracyError, LexiconError

if TYPE_CHECKING:
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


def _check_entry(where: str, token: str, valence: float) -> None:
    """One lexicon entry: a token score_text can match, a finite valence."""
    if token != token.lower() or not _TOKEN_RE.fullmatch(token):
        rule = "must be one lowercase word as score_text splits text"
        raise LexiconError(f"{where}: bad token {token!r} ({rule})")
    if not math.isfinite(valence):
        raise LexiconError(f"{where}: non-finite valence for {token!r}")


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
            _check_entry(f"lexicon {self.name!r}", token, valence)

    def __len__(self) -> int:
        return len(self.entries)

    def valence(self, token: str) -> float:
        return self.entries.get(token, 0.0)


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a tab-separated ``token<TAB>valence`` file, named by the path
    given, so that an error names the file and line.

    Blank lines and lines starting with '#' are skipped.  Duplicate tokens
    are an error.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise LexiconError(f"cannot read lexicon {path}: {err}") from err
    return parse_lexicon(raw, name=str(path))


def parse_lexicon(raw: str, name: str = "lexicon") -> Lexicon:
    entries: dict[str, float] = {}
    # split on newlines only, as fixture_records does: str.splitlines also
    # cuts at U+2028, form feeds and the like, which would miscount lines
    for lineno, line in enumerate(raw.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(
                f"{name}:{lineno}: expected 'token<TAB>valence', got {line!r}"
            )
        token, text = parts[0].strip(), parts[1].strip()
        try:
            # float() also takes '1_0' and non-ASCII digits such as '١'
            if "_" in text or not text.isascii():
                raise ValueError
            valence = float(text)
        except ValueError:
            raise LexiconError(f"{name}:{lineno}: bad valence {parts[1]!r}") from None
        if token in entries:
            raise LexiconError(f"{name}:{lineno}: duplicate token {token!r}")
        _check_entry(f"{name}:{lineno}", token, valence)
        entries[token] = valence
    if not entries:
        raise LexiconError(f"{name}: no entries")
    # each entry is checked above, where its line is known; Lexicon() would
    # check every one again
    lexicon = object.__new__(Lexicon)
    object.__setattr__(lexicon, "name", name)
    object.__setattr__(lexicon, "entries", entries)
    return lexicon


def bundled_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    # export loads this module but reads no lexicon
    from importlib import resources

    raw = resources.files("threadknit").joinpath("data/lexicon.tsv").read_text("utf-8")
    return parse_lexicon(raw, name="bundled")


def score_text(text: str, lexicon: Lexicon) -> float:
    """Sum of valences over the cleaned tokens of ``text``.

    The score is additive over concatenation and zero for text with no
    lexicon tokens.
    """
    entries = lexicon.entries
    return fsum([entries.get(token, 0.0) for token in _tokens(text)])


def mean_score(texts: Iterable[str], lexicon: Lexicon) -> float:
    """Alpha of one iteration: the mean score_text of its texts.  Undefined
    for an iteration with no texts."""
    scores = [score_text(text, lexicon) for text in texts]
    if not scores:
        raise DegeneracyError("sentiment undefined for an empty batch")
    return fsum(scores) / len(scores)


def batch_alpha(batch: IterationBatch, lexicon: Lexicon) -> float:
    """The mean_score of one batch's statuses; kept for ``perfbench/test_perfbench.py``."""
    return mean_score([s.text for s in batch.statuses], lexicon)
