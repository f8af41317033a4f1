"""Status records and fixture files.

A *status* is one short public message.  Statuses arrive in fixture files:
UTF-8 text, one JSON object per line, laid out on disk as
``<root>/<kind>/<subject-slug>/iter_NNN``.
"""

from __future__ import annotations

import json
import json.encoder
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple

# load_config and subject_slug stay importable from here, where
# perfbench/plantruth.py imports them
from .config import _UNWRITABLE_RE, load_config, subject_slug  # noqa: F401
from .errors import FixtureError
from .records import write_atomic

_ITER_RE = re.compile(r"iter_([0-9]{3,})")
# for str patterns \s matches exactly the characters str.isspace() accepts
_SPACE_RE = re.compile(r"\s")
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
    """One message and its references, as fixture_records yields its fields:
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


class QuerySpec(NamedTuple):
    """One configured subject: its group kind and name."""

    kind: str
    subject: str


class IterationBatch(NamedTuple):
    """The statuses of one iteration file of a subject, as parse_fixture
    returns them for ``perfbench/test_perfbench.py``."""

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


def parse_fixture(path: str | Path) -> IterationBatch:
    """Read one iteration file into a batch, for ``perfbench/test_perfbench.py``;
    the stages read one through ``pipeline.read_iteration``.

    Kind, subject and index are read off a ``<kind>/<subject>/iter_NNN``
    path; for any other file name the subject is the file's stem and the
    index 0.  No plan is checked.  Unknown record fields are ignored.  An
    empty file is a valid empty batch.
    """
    path = Path(path)
    index = iteration_index(path.name)
    subject = (index is not None and path.parent.name) or path.stem or path.name
    statuses = tuple(map(Status._make, fixture_records(path)))
    return IterationBatch(QuerySpec(path.parent.parent.name, subject), index or 0, statuses)


# a str as a JSON string literal with non-ASCII characters kept: what
# JSONEncoder(ensure_ascii=False) writes for a str, without building an
# encoder for every line
_QUOTE = json.encoder.encode_basestring


def write_fixture_fields(path: str | Path, records: Iterable[tuple]) -> Path:
    """Write records in Status field order, such as Statuses, as a fixture
    file, one JSON object per line; the inverse of fixture_records.

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
