"""Run configuration: the INI file, the RunConfig it makes, and the checks
every stage shares.

Every stage loads this module, so it loads nothing the config does not
need: the fixture reader is ``ingest`` and the artifact files ``tables``.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import ConfigError
from .stats import check_confidence

QUERY_KINDS = ("topical", "event", "geographic", "individual")
# the reference kinds, in the order iteration_row takes a status's references
EDGE_KINDS = ("reply", "mention", "retweet", "quote")

_SLUG_RE = re.compile(r"[^a-z0-9]+")
# a line break splits a CSV row; half a surrogate pair cannot be written as UTF-8
_UNWRITABLE_RE = re.compile("[\r\n\ud800-\udfff]")


def subject_slug(subject: str) -> str:
    """Directory-safe name for a subject ("Duke Energy" -> "duke-energy")."""
    slug = _SLUG_RE.sub("-", subject.lower()).strip("-")
    if not slug:
        raise ValueError(f"subject {subject!r} has no sluggable characters")
    return slug


def edge_kind_set(kinds: Iterable[str]) -> frozenset[str]:
    """The selected reference kinds; at least one, each in EDGE_KINDS."""
    kindset = frozenset(kinds)
    if not kindset or not kindset <= set(EDGE_KINDS):
        raise ConfigError(
            f"bad edge_kinds {', '.join(sorted(kindset))!r}; "
            f"expected one or more of {', '.join(EDGE_KINDS)}"
        )
    return kindset


def nonempty_path(value: str | Path, name: str) -> Path:
    """``value`` as a Path; ConfigError when it is empty (what Path takes for
    the current directory) or ASCII whitespace only, or holds NUL, as no path can."""
    if not str(value).strip(" \t\n\r\f\v"):
        raise ConfigError(f"{name} must be a nonempty path")
    if "\0" in str(value):
        raise ConfigError(f"{name} holds a NUL character")
    return Path(value)


def plain_number(kind: type, text: str) -> Any:
    """``kind(text)`` for plain ASCII number text: int() and float() also
    take '1_0' and '١', so ``text`` holding ``_`` or a non-ASCII character
    after its surrounding whitespace is stripped is a ValueError."""
    stripped = text.strip()
    if "_" in stripped or not stripped.isascii():
        raise ValueError(f"invalid {kind.__name__} value: {text!r}")
    return kind(stripped)


@dataclass(frozen=True)
class RunConfig:
    """Everything a full run needs: directories, plan sizes, and groups.

    Every run setting is checked here, whether it comes from a config file,
    a command-line flag or a library caller; a bad one is a ConfigError.
    Paths may be given as text.  ``groups`` keeps the order in which kinds
    appear in the config file.
    """

    fixtures_dir: Path
    output_dir: Path
    groups: tuple[tuple[str, tuple[str, ...]], ...]
    lexicon_path: Path | None = None
    per_iteration_count: int = 950
    iterations: int = 100
    seed: int = 0
    include_isolates: bool = True
    confidence: float = 0.95
    edge_kinds: tuple[str, ...] = EDGE_KINDS

    def __post_init__(self) -> None:
        set_field = partial(object.__setattr__, self)
        set_field("fixtures_dir", nonempty_path(self.fixtures_dir, "fixture directory"))
        set_field("output_dir", nonempty_path(self.output_dir, "output directory"))
        if self.lexicon_path is not None:
            set_field("lexicon_path", nonempty_path(self.lexicon_path, "lexicon"))
        set_field("groups", tuple((kind, tuple(names)) for kind, names in self.groups))
        if not self.groups:
            raise ConfigError("no groups configured")
        if self.per_iteration_count < 1:
            raise ConfigError("per_iteration_count must be at least 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        kinds = [kind for kind, _ in self.groups]
        for kind, names in self.groups:
            if kind not in QUERY_KINDS:
                raise ConfigError(
                    f"unknown group kind {kind!r}; expected one of {', '.join(QUERY_KINDS)}"
                )
            if kinds.count(kind) > 1:
                raise ConfigError(f"group kind {kind!r} appears twice")
            if not names:
                raise ConfigError(f"group {kind!r} lists no subjects")
            slugs = set()
            for name in names:
                if _UNWRITABLE_RE.search(name):
                    raise ConfigError(
                        f"group {kind!r} subject {name!r} holds a line break or a lone surrogate"
                    )
                try:
                    slug = subject_slug(name)
                except ValueError:
                    raise ConfigError(
                        f"group {kind!r} subject {name!r} has no ASCII letter or digit "
                        "to name its fixture directory"
                    ) from None
                if slug in slugs:
                    raise ConfigError(f"group {kind!r} repeats subject {name!r}")
                slugs.add(slug)
        check_confidence(self.confidence)
        set_field("edge_kinds", tuple(self.edge_kinds))
        edge_kind_set(self.edge_kinds)

    def subjects(self) -> Iterator[tuple[str, str]]:
        for kind, names in self.groups:
            for name in names:
                yield kind, name


def _split_csv(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


# the [run] keys; any other key, or any section but [run] and [groups], is
# a ConfigError, so a misspelt key cannot be silently ignored
RUN_KEYS = (
    "fixtures", "output", "lexicon", "per_iteration_count", "iterations", "seed",
    "include_isolates", "confidence", "edge_kinds",
)
# the path keys and the RunConfig field each sets; every other key sets the
# field of its own name
_PATH_FIELDS = {"fixtures": "fixtures_dir", "output": "output_dir", "lexicon": "lexicon_path"}


def _run_value(key: str, raw: str, base: Path) -> Any:
    """The RunConfig value that one [run] key's text stands for."""
    raw = raw.strip()
    if key in _PATH_FIELDS:
        return base / nonempty_path(raw, key)
    if key == "edge_kinds":
        return _split_csv(raw)
    if key == "include_isolates":
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ConfigError(f"not a boolean: {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    kind = float if key == "confidence" else int
    try:
        return plain_number(kind, raw)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ConfigError(f"{key} must be {what}, got {raw!r}") from None


def _run_settings(parser: configparser.ConfigParser, base: Path) -> dict[str, Any]:
    """RunConfig arguments for the keys a parsed config file sets."""
    sections = parser.sections()
    if parser.defaults():
        # configparser would merge its keys into [run] and [groups]
        sections.append(parser.default_section)
    for section in sections:
        if section not in ("run", "groups"):
            raise ConfigError(f"unknown section [{section}]; expected [run] and [groups]")
    if not parser.has_section("groups"):
        raise ConfigError("missing [groups] section")
    settings: dict[str, Any] = {
        "groups": [(kind, _split_csv(names)) for kind, names in parser.items("groups")],
        # the two defaults that depend on where the config file is
        "fixtures_dir": base / "fixtures",
        "output_dir": base / "out",
    }
    for key, raw in parser.items("run") if parser.has_section("run") else ():
        if key not in RUN_KEYS:
            raise ConfigError(f"unknown [run] key {key!r}; expected one of {', '.join(RUN_KEYS)}")
        settings[_PATH_FIELDS.get(key, key)] = _run_value(key, raw, base)
    return settings


def load_config(path: str | Path) -> RunConfig:
    """Parse an INI run configuration.

    Sections: ``[run]`` for the scalars in RUN_KEYS, and ``[groups]``
    mapping query kind to a comma-separated subject list.  Relative paths
    are taken from the config file's directory; RunConfig checks the rest.
    Every error is a ConfigError naming the file.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    # a UnicodeDecodeError, or a path holding NUL, is a ValueError
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from err
    try:
        return RunConfig(**_run_settings(parser, path.parent))
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from err
