from __future__ import annotations

import hashlib

import pytest
from hypothesis import settings

import threadknit.pipeline as pipeline_module
from threadknit.ingest import IterationBatch, QuerySpec, Status
from threadknit.sentiment import Lexicon, bundled_lexicon

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# A small hand-checkable lexicon: 30 tokens, valences from -3 to +3 in
# half steps, all exactly representable in binary floating point.
MINI_LEXICON_ENTRIES = {
    "good": 1.0, "great": 2.0, "amazing": 3.0,
    "bad": -1.0, "awful": -2.0, "horrible": -3.0,
    "love": 2.0, "hate": -3.0,
    "nice": 1.0, "mean": -1.0,
    "happy": 2.0, "sad": -2.0,
    "fun": 1.5, "boring": -1.5,
    "ok": 0.5, "meh": -0.5,
    "win": 2.0, "lose": -2.0,
    "sweet": 1.0, "sour": -1.0,
    "bright": 1.0, "dark": -1.0,
    "calm": 0.5, "angry": -2.0,
    "brilliant": 3.0, "terrible": -3.0,
    "warm": 1.0, "cold": -1.0,
    "safe": 1.0, "unsafe": -2.0,
}

# Twenty texts scored by hand against MINI_LEXICON_ENTRIES.  Sums stated
# as exact values; the mean over all twenty is 0.4.
HAND_SCORED_TEXTS = [
    ("good", 1.0),
    ("I love this, it's AMAZING!", 5.0),
    ("bad day", -1.0),
    ("@friend check https://x.co/a #great stuff", 2.0),
    ("not good not bad", 0.0),
    ("HATE hate Hate", -9.0),
    ("it's ok, kinda meh", 0.0),
    ("fun fun fun", 4.5),
    ("", 0.0),
    ("no lexicon words here at all", 0.0),
    ("sweet-and-sour", 0.0),
    ("WIN!!! we win again", 4.0),
    ("so cold and dark, yet calm", -1.5),
    ("brilliant brilliant awful", 4.0),
    ("don't be mean", -1.0),
    ("www.spam.example love", 2.0),
    ("happy?sad", 0.0),
    ("safe & warm & bright", 3.0),
    ("horrible, just horrible", -6.0),
    ("The Warm warmth", 1.0),
]


@pytest.fixture(scope="session")
def lexicon() -> Lexicon:
    return bundled_lexicon()


@pytest.fixture()
def two_cores(monkeypatch):
    """jobs=2 starts a pool even on a one-core machine."""
    monkeypatch.setattr(pipeline_module, "usable_cores", lambda: 2)


@pytest.fixture(scope="session")
def mini_lexicon() -> Lexicon:
    return Lexicon(name="mini", entries=MINI_LEXICON_ENTRIES)


def make_spec(**overrides) -> QuerySpec:
    base = dict(kind="topical", subject="Subject")
    base.update(overrides)
    return QuerySpec(**base)


def make_batch(statuses, index=0, **spec_overrides) -> IterationBatch:
    return IterationBatch(spec=make_spec(**spec_overrides), index=index, statuses=tuple(statuses))


def make_status(i, author, text="hello", **kwargs) -> Status:
    return Status(id=f"s{i}", text=text, author=author, **kwargs)


# the groups of perfbench's 4x6 synth config and of tests/test_cli.py's config
PERFBENCH_GROUPS = (
    ("topical", ("Christianity", "NORAD", "Duke Energy", "Climate", "Vaccines", "Bitcoin")),
    ("event", ("Christmas", "Hanukkah", "Fortnite", "World Cup", "Super Bowl", "Kwanzaa")),
    ("geographic", ("NYC", "London", "Tokyo", "Lagos", "Sao Paulo", "Mumbai")),
    (
        "individual",
        (
            "Ada Lovelace", "Alan Turing", "Grace Hopper", "Katherine Johnson",
            "Tim Berners-Lee", "Linus Torvalds",
        ),
    ),
)
CLI_GROUPS = (
    ("topical", ("Alpha", "Beta Co", "Gamma", "Delta")),
    ("event", ("Game One", "Festival", "Launch", "Parade")),
)


def tree_digest(root) -> tuple[int, str]:
    """(file count, sha256 over every file's relative path and bytes)."""
    digest = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return len(files), digest.hexdigest()
