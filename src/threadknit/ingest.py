"""Status records, fixture files, and run configuration.

A *status* is one short public message.  Statuses arrive in fixture files:
UTF-8 text, one JSON object per line, laid out on disk as
``<root>/<kind>/<subject-slug>/iter_NNN``.
"""

from __future__ import annotations

import configparser
import json
import json.encoder
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple

from .errors import ConfigError, FixtureError
from .records import write_atomic
from .stats import check_confidence

QUERY_KINDS = ("topical", "event", "geographic", "individual")

_SLUG_RE = re.compile(r"[^a-z0-9]+")
_ITER_RE = re.compile(r"iter_([0-9]{3,})")
# for str patterns \s matches exactly the characters str.isspace() accepts
_SPACE_RE = re.compile(r"\s")
# a line break splits a CSV row; half a surrogate pair cannot be written as UTF-8
_UNWRITABLE_RE = re.compile("[\r\n\ud800-\udfff]")
# the created_at forms: a date alone, or a date, T and HH:MM[:SS[.fraction]],
# then optionally Z or ±HH:MM
_TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:T[0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]+)?)?(?:Z|[+-][0-9]{2}:[0-9]{2})?)?"
)


def normalize_handle(raw: str) -> str:
    """Canonical form of a user handle: lowercase, no leading '@' sigils.

    Raises ValueError for empty handles or handles containing whitespace,
    an interior '@' or half a surrogate pair.  Idempotent: normalizing a
    normalized handle is a no-op.
    """
    handle = raw.strip().lstrip("@").lower()
    if not handle:
        raise ValueError(f"empty user handle: {raw!r}")
    if "@" in handle or _SPACE_RE.search(handle) or _UNWRITABLE_RE.search(handle):
        raise ValueError(f"invalid user handle: {raw!r}")
    return handle


def subject_slug(subject: str) -> str:
    """Directory-safe name for a subject ("Duke Energy" -> "duke-energy")."""
    slug = _SLUG_RE.sub("-", subject.lower()).strip("-")
    if not slug:
        raise ValueError(f"subject {subject!r} has no sluggable characters")
    return slug


def iteration_index(name: str) -> int | None:
    """The NNN of an ``iter_NNN`` file name, or None for any other name."""
    match = _ITER_RE.fullmatch(name)
    return int(match.group(1)) if match else None


def _parse_timestamp(text: str) -> datetime:
    # fromisoformat alone would take any character between date and time
    if not _TIMESTAMP_RE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    try:
        return moment.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"created_at out of range in UTC: {text!r}") from None


class Status(NamedTuple):
    """One message and its references, as read_fixture returns its fields:
    the reader checks and normalizes them (handles lowercased without '@',
    ``created_at`` in UTC); a field the record leaves unset is None, or ()
    for ``mentions``."""

    id: str
    text: str
    author: str
    created_at: datetime | None = None
    reply_to: str | None = None
    mentions: tuple[str, ...] = ()
    retweet_of: str | None = None
    quote_of: str | None = None


# the reference kinds, in the order iteration_row takes a status's references
EDGE_KINDS = ("reply", "mention", "retweet", "quote")


def edge_kind_set(kinds: Iterable[str]) -> frozenset[str]:
    """The selected reference kinds; at least one, each in EDGE_KINDS."""
    kindset = frozenset(kinds)
    if not kindset or not kindset <= set(EDGE_KINDS):
        raise ConfigError(
            f"bad edge_kinds {', '.join(sorted(kindset))!r}; "
            f"expected one or more of {', '.join(EDGE_KINDS)}"
        )
    return kindset


class QuerySpec(NamedTuple):
    """One configured subject: its group kind and name."""

    kind: str
    subject: str


class IterationBatch(NamedTuple):
    """The statuses of one iteration file of a subject."""

    spec: QuerySpec
    index: int
    statuses: tuple[Status, ...] = ()


class _Handles(dict):
    """normalize_handle memoised: ``handles[raw]`` is the handle ``raw`` names."""

    def __missing__(self, raw: str) -> str:
        handle = self[raw] = normalize_handle(raw)
        return handle


def _record_fields(record: Any, handles: _Handles) -> tuple:
    """Check one decoded record; its Status fields in order, normalized.

    The one place a record is checked.  Raises ValueError naming the first
    problem.  Only an absent field or null counts as unset; each type is
    checked exactly, as json.loads builds it.
    """
    if type(record) is not dict:
        raise ValueError("record is not an object")
    try:
        status_id, text, author = record["id"], record["text"], record["author"]
    except KeyError as err:  # the first one missing, in this order
        raise ValueError(f"missing field {err.args[0]!r}") from None
    if type(text) is not str:
        raise ValueError("field 'text' must be a string")
    get = record.get
    mentions = get("mentions")
    if mentions is None:
        mentions = ()
    elif type(mentions) is not list:
        raise ValueError("field 'mentions' must be a list of handles")
    for mention in mentions:
        if type(mention) is not str:
            raise ValueError("field 'mentions' must be a list of handles")
    reply_to = get("reply_to")
    if reply_to is not None and type(reply_to) is not str:
        raise ValueError("field 'reply_to' must be a string or null")
    retweet_of = get("retweet_of")
    if retweet_of is not None and type(retweet_of) is not str:
        raise ValueError("field 'retweet_of' must be a string or null")
    quote_of = get("quote_of")
    if quote_of is not None and type(quote_of) is not str:
        raise ValueError("field 'quote_of' must be a string or null")
    created_at = get("created_at")
    if created_at is not None:
        if type(created_at) is not str:
            raise ValueError("field 'created_at' must be a string or null")
        created_at = _parse_timestamp(created_at)
    if type(status_id) is not str:
        if type(status_id) is not int:
            raise ValueError("field 'id' must be a string or an integer")
        status_id = str(status_id)
    if not status_id:
        raise ValueError("status id must be nonempty")
    if type(author) is not str:
        raise ValueError("field 'author' must be a string")
    author = handles[author]
    if reply_to is not None:
        reply_to = handles[reply_to]
    if retweet_of is not None:
        retweet_of = handles[retweet_of]
    if quote_of is not None:
        quote_of = handles[quote_of]
    mentions = tuple(map(handles.__getitem__, mentions)) if mentions else ()
    return status_id, text, author, created_at, reply_to, mentions, retweet_of, quote_of


# json.loads skips leading whitespace, runs this same scanner and then refuses
# trailing data, so a line that the scanner reads whole from index 0 has
# neither, and the scanner's value is what json.loads returns
_SCAN = json.JSONDecoder().scan_once


def _decode(line: str) -> Any:
    """json.loads(line), through json's own scanner; every line that the
    scanner does not read whole, so every error, goes through json.loads."""
    try:
        value, end = _SCAN(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


def fixture_records(path: Path) -> Iterator[tuple]:
    """Checked Status fields of each record in one iteration file, one plain
    tuple in Status field order per record, yielded as the lines are read.

    Every problem is a FixtureError naming ``path`` and, for a bad record,
    its line.  Only records are checked; the plan is the stages' to check.
    """
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise FixtureError(f"{path}: {err}") from err
    handles = _Handles()
    # split on newlines only: JSON strings may legally contain other
    # line-separator code points (e.g. U+2028), which str.splitlines cuts
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if not line or line.isspace():
            continue
        try:
            record = _decode(line)
        except ValueError as err:  # JSONDecodeError, or an integer too long to convert
            message = getattr(err, "msg", "integer too long")
            raise FixtureError(f"{path}:{lineno}: invalid JSON: {message}") from err
        except RecursionError as err:
            raise FixtureError(f"{path}:{lineno}: invalid JSON: nesting too deep") from err
        try:
            fields = _record_fields(record, handles)
        except ValueError as err:
            raise FixtureError(f"{path}:{lineno}: {err}") from err
        yield fields


def read_fixture(path: Path) -> list[tuple]:
    """The fixture_records of one iteration file, as a list."""
    return list(fixture_records(path))


def parse_fixture(path: str | Path) -> IterationBatch:
    """Read one iteration file (one JSON status per line) into a batch.

    Kind, subject and index are read off a ``<kind>/<subject>/iter_NNN``
    path; for any other file name the subject is the file's stem and the
    index 0.  No plan is checked.  Unknown record fields are ignored.  An
    empty file is a valid empty batch.
    """
    path = Path(path)
    index = iteration_index(path.name)
    subject = (index is not None and path.parent.name) or path.stem or path.name
    statuses = tuple(map(Status._make, read_fixture(path)))
    return IterationBatch(QuerySpec(path.parent.parent.name, subject), index or 0, statuses)


# a str as a JSON string literal with non-ASCII characters kept: what
# JSONEncoder(ensure_ascii=False) writes for a str, without building an
# encoder for every line
_QUOTE = json.encoder.encode_basestring


def write_fixture_fields(path: str | Path, records: Iterable[tuple]) -> Path:
    """Write records in Status field order, such as Statuses, as a fixture
    file, one JSON object per line; the inverse of read_fixture.

    Keys follow the Status field order, and an unset optional field is
    omitted, so reading the file back returns the same fields.  A file in
    this form is rewritten byte for byte.
    """
    lines = []
    for status_id, text, author, created_at, reply_to, mentions, retweet_of, quote_of in records:
        line = f'{{"id": {_QUOTE(status_id)}, "text": {_QUOTE(text)}, "author": {_QUOTE(author)}'
        if created_at is not None:
            line += f', "created_at": {_QUOTE(created_at.isoformat())}'
        if reply_to is not None:
            line += f', "reply_to": {_QUOTE(reply_to)}'
        if mentions:
            line += f', "mentions": [{", ".join(map(_QUOTE, mentions))}]'
        if retweet_of is not None:
            line += f', "retweet_of": {_QUOTE(retweet_of)}'
        if quote_of is not None:
            line += f', "quote_of": {_QUOTE(quote_of)}'
        lines.append(line + "}\n")
    return write_atomic(path, lambda handle: handle.writelines(lines))


def iteration_filename(index: int) -> str:
    """File name for iteration ``index`` (three-digit zero padding)."""
    if index < 0:
        raise ValueError("iteration index must be nonnegative")
    return f"iter_{index:03d}"


def subject_dir(root: str | Path, kind: str, subject: str) -> Path:
    """Directory of one subject's iteration files under a fixture tree root."""
    return Path(root) / kind / subject_slug(subject)


def nonempty_path(value: str | Path, name: str) -> Path:
    """``value`` as a Path; ConfigError when it is blank text, which Path
    would take for the current directory."""
    if not str(value).strip():
        raise ConfigError(f"{name} must be a nonempty path")
    return Path(value)


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
        return kind(raw)
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
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from err
    try:
        return RunConfig(**_run_settings(parser, path.parent))
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from err
