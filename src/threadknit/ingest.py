"""Status records, fixture files, query construction, and run configuration.

A *status* is one short public message.  Statuses arrive either from a live
search client or from fixture files: UTF-8 text, one JSON object per line,
laid out on disk as ``<root>/<kind>/<subject-slug>/iter_NNN``.
"""

from __future__ import annotations

import configparser
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator, Mapping, Protocol, Sequence

from .errors import ConfigError, FixtureError

QUERY_KINDS = ("topical", "event", "geographic", "individual")
RESULT_TYPES = ("mixed", "recent", "popular")

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

_SLUG_RE = re.compile(r"[^a-z0-9]+")
_ITER_RE = re.compile(r"^iter_(\d{3,})$")
# for str patterns \s matches exactly the characters str.isspace() accepts
_SPACE_RE = re.compile(r"\s")


def normalize_handle(raw: str) -> str:
    """Canonical form of a user handle: lowercase, no leading '@' sigils.

    Raises ValueError for empty handles or handles containing whitespace
    or an interior '@'.  Idempotent: normalizing a normalized handle is a
    no-op.
    """
    handle = raw.strip().lstrip("@").lower()
    if not handle:
        raise ValueError(f"empty user handle: {raw!r}")
    if "@" in handle or _SPACE_RE.search(handle):
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
    match = _ITER_RE.match(name)
    return int(match.group(1)) if match else None


def _parse_timestamp(value: Any) -> datetime:
    if value in (None, ""):
        return EPOCH
    text = str(value)
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    try:
        return moment.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"created_at out of range in UTC: {value!r}") from None


@dataclass(frozen=True)
class Status:
    """One message and its outbound references.

    Handles (author, reply_to, mentions, retweet_of, quote_of) are
    normalized on construction.  ``created_at`` defaults to the Unix epoch
    when the source record omits it; all timestamps are held in UTC.
    """

    id: str
    text: str
    author: str
    created_at: datetime = EPOCH
    reply_to: str | None = None
    mentions: tuple[str, ...] = ()
    retweet_of: str | None = None
    quote_of: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("status id must be nonempty")
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "author", normalize_handle(self.author))
        for attr in ("reply_to", "retweet_of", "quote_of"):
            value = getattr(self, attr)
            if value is not None:
                object.__setattr__(self, attr, normalize_handle(value))
        object.__setattr__(
            self, "mentions", tuple(normalize_handle(m) for m in self.mentions)
        )
        moment = self.created_at
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        object.__setattr__(self, "created_at", moment.astimezone(timezone.utc))

    def references(self) -> Iterator[tuple[str, str]]:
        """Yield (kind, target handle) pairs in a fixed order."""
        yield from references(self.reply_to, self.mentions, self.retweet_of, self.quote_of)


def references(
    reply_to: str | None,
    mentions: Sequence[str],
    retweet_of: str | None,
    quote_of: str | None,
) -> list[tuple[str, str]]:
    """(kind, target handle) pairs of one status's references, in a fixed
    order: reply, mentions, retweet, quote."""
    pairs = [] if reply_to is None else [("reply", reply_to)]
    pairs.extend(("mention", mention) for mention in mentions)
    if retweet_of is not None:
        pairs.append(("retweet", retweet_of))
    if quote_of is not None:
        pairs.append(("quote", quote_of))
    return pairs


@dataclass(frozen=True)
class Geocode:
    """Circular search area: latitude, longitude, radius in kilometres."""

    lat: float
    lon: float
    radius_km: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat!r}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon!r}")
        if not self.radius_km > 0:
            raise ValueError(f"radius must be positive: {self.radius_km!r}")

    def render(self) -> str:
        return "{},{},{}km".format(
            format(self.lat, ".10g"), format(self.lon, ".10g"),
            format(self.radius_km, ".10g"),
        )


@dataclass(frozen=True)
class QuerySpec:
    """Plan for sampling one subject: what to search for and how often."""

    kind: str
    subject: str
    query_string: str
    geocode: Geocode | None = None
    result_type: str = "mixed"
    per_iteration_count: int = 950
    iterations: int = 100

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind: {self.kind!r}")
        if not self.subject:
            raise ValueError("subject must be nonempty")
        if self.result_type not in RESULT_TYPES:
            raise ValueError(f"unknown result type: {self.result_type!r}")
        if self.per_iteration_count < 1:
            raise ValueError("per_iteration_count must be at least 1")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")

    @classmethod
    def for_subject(
        cls,
        kind: str,
        subject: str,
        aliases: Sequence[str] = (),
        geocode: Geocode | None = None,
        **kwargs: Any,
    ) -> "QuerySpec":
        """Build a spec whose query is the OR-join of the subject's search
        terms.  Aliases, when given, replace the display subject as the
        search terms."""
        terms = tuple(aliases) if aliases else (subject,)
        return cls(
            kind=kind,
            subject=subject,
            query_string=" OR ".join(terms),
            geocode=geocode,
            **kwargs,
        )


def build_query(spec: QuerySpec) -> str:
    """Final query string for a spec, appending the geocode operator when set.

    Deterministic; raises ValueError when the spec has neither search terms
    nor a geocode.
    """
    if not spec.query_string and spec.geocode is None:
        raise ValueError(f"subject {spec.subject!r}: empty query and no geocode")
    parts = []
    if spec.query_string:
        parts.append(spec.query_string)
    if spec.geocode is not None:
        parts.append("geocode:" + spec.geocode.render())
    return " ".join(parts)


@dataclass(frozen=True)
class IterationBatch:
    """Statuses returned by one iteration of a spec's query."""

    spec: QuerySpec
    index: int
    statuses: tuple[Status, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "statuses", tuple(self.statuses))
        _check_plan(self.spec, self.index, len(self.statuses))


def _check_plan(spec: QuerySpec, index: int, count: int) -> None:
    """A batch of ``count`` statuses at ``index`` must fit the spec's plan."""
    if not 0 <= index < spec.iterations:
        raise ValueError(f"iteration index {index} outside plan of {spec.iterations}")
    if count > spec.per_iteration_count:
        raise ValueError(
            f"batch exceeds per_iteration_count: {count} > {spec.per_iteration_count}"
        )


_OPTIONAL_STRING_FIELDS = ("reply_to", "retweet_of", "quote_of")


# id, text, author, created_at, reply_to, mentions, retweet_of, quote_of
StatusFields = tuple[str, str, str, datetime, str | None, tuple[str, ...], str | None, str | None]


def _normalized(raw: str, handles: dict[str, str]) -> str:
    handle = handles.get(raw)
    if handle is None:
        handle = handles[raw] = normalize_handle(raw)
    return handle


def _record_fields(record: Any, handles: dict[str, str]) -> StatusFields:
    """Check one decoded record; its Status fields in order, normalized.

    Raises ValueError naming the first problem, in the order the Status
    constructor would meet it.  ``handles`` memoises normalize_handle.
    """
    # exact types first: the ABC isinstance checks are slow
    if type(record) is not dict and not isinstance(record, Mapping):
        raise ValueError("record is not an object")
    for name in ("id", "text", "author"):
        if name not in record:
            raise ValueError(f"missing field {name!r}")
    text = record["text"]
    if not isinstance(text, str):
        raise ValueError("field 'text' must be a string")
    get = record.get
    mentions = get("mentions") or ()
    if type(mentions) not in (list, tuple) and (
        isinstance(mentions, str) or not isinstance(mentions, Sequence)
    ):
        raise ValueError("field 'mentions' must be a list of handles")
    optional = get("reply_to"), get("retweet_of"), get("quote_of")
    for name, value in zip(_OPTIONAL_STRING_FIELDS, optional):
        if value is not None and not isinstance(value, str):
            raise ValueError(f"field {name!r} must be a string or null")
    created_at = _parse_timestamp(get("created_at"))
    status_id = str(record["id"])
    if not status_id:
        raise ValueError("status id must be nonempty")
    author = _normalized(str(record["author"]), handles)
    reply_to, retweet_of, quote_of = [
        None if value is None else _normalized(value, handles) for value in optional
    ]
    mentions = tuple([_normalized(str(m), handles) for m in mentions])
    return status_id, text, author, created_at, reply_to, mentions, retweet_of, quote_of


def _status_from_record(record: Mapping[str, Any]) -> Status:
    return Status(*_record_fields(record, {}))


def read_fixture(path: Path, spec: QuerySpec, index: int) -> list[StatusFields]:
    """Checked Status fields of every record in one iteration file.

    Every problem is a FixtureError naming ``path`` and, for a bad record,
    its line.  The records must fit the spec's plan at ``index``.
    """
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise FixtureError(f"{path}: {err}") from err
    handles: dict[str, str] = {}
    records = []
    # split on newlines only: JSON strings may legally contain other
    # line-separator code points (e.g. U+2028), which str.splitlines cuts
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise FixtureError(f"{path}:{lineno}: invalid JSON: {err.msg}") from err
        try:
            records.append(_record_fields(record, handles))
        except ValueError as err:
            raise FixtureError(f"{path}:{lineno}: {err}") from err
    try:
        _check_plan(spec, index, len(records))
    except ValueError as err:
        raise FixtureError(f"{path}: {err}") from err
    return records


def _default_spec_for(path: Path, index: int) -> QuerySpec:
    if iteration_index(path.name) is not None and path.parent.name:
        subject = path.parent.name
    else:
        subject = path.stem or path.name
    kind = path.parent.parent.name if path.parent.parent else ""
    if kind not in QUERY_KINDS:
        kind = "topical"
    return QuerySpec(
        kind=kind,
        subject=subject,
        query_string=subject,
        iterations=max(100, index + 1),
    )


def parse_fixture(
    path: str | Path,
    spec: QuerySpec | None = None,
    index: int | None = None,
) -> IterationBatch:
    """Read one iteration file (one JSON status per line) into a batch.

    The iteration index defaults to the NNN in an ``iter_NNN`` file name;
    the spec, when not supplied, is inferred from the directory layout.
    Unknown record fields are ignored.  An empty file is a valid empty
    batch.
    """
    path = Path(path)
    if index is None:
        index = iteration_index(path.name) or 0
    if spec is None:
        spec = _default_spec_for(path, index)
    statuses = tuple(Status(*fields) for fields in read_fixture(path, spec, index))
    return IterationBatch(spec=spec, index=index, statuses=statuses)


def write_fixture(batch: IterationBatch, path: str | Path) -> Path:
    """Write a batch back to disk in the fixture format.

    Optional fields are omitted when unset, so writing then parsing with
    the same spec and index reproduces the batch exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for status in batch.statuses:
        record: dict[str, Any] = {
            "id": status.id,
            "text": status.text,
            "author": status.author,
        }
        if status.created_at != EPOCH:
            record["created_at"] = status.created_at.isoformat()
        if status.reply_to is not None:
            record["reply_to"] = status.reply_to
        if status.mentions:
            record["mentions"] = list(status.mentions)
        if status.retweet_of is not None:
            record["retweet_of"] = status.retweet_of
        if status.quote_of is not None:
            record["quote_of"] = status.quote_of
        lines.append(json.dumps(record, ensure_ascii=False))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def iteration_filename(index: int) -> str:
    """File name for iteration ``index`` (three-digit zero padding)."""
    if index < 0:
        raise ValueError("iteration index must be nonnegative")
    return f"iter_{index:03d}"


def fixture_path(root: str | Path, spec: QuerySpec, index: int) -> Path:
    """Location of one iteration file under a fixture tree root."""
    return Path(root) / spec.kind / subject_slug(spec.subject) / iteration_filename(index)


class SearchClient(Protocol):
    """Anything that can run one remote search request.

    Implementations raise RateLimitError, AuthError, or NetworkError on
    failure; those propagate unchanged to the caller."""

    def search(
        self,
        query: str,
        count: int,
        result_type: str,
        geocode: str | None = None,
    ) -> Sequence[Mapping[str, Any]]:
        ...


def fetch_iteration(client: SearchClient, spec: QuerySpec, index: int) -> IterationBatch:
    """Run one iteration of a spec against a live client.

    Results beyond ``spec.per_iteration_count`` are truncated; an empty
    result is a valid empty batch.  Client errors propagate unchanged.
    """
    if not spec.query_string and spec.geocode is None:
        raise ValueError(f"subject {spec.subject!r}: empty query and no geocode")
    geocode = spec.geocode.render() if spec.geocode is not None else None
    records = client.search(
        spec.query_string, spec.per_iteration_count, spec.result_type, geocode
    )
    statuses = []
    for position, record in enumerate(records):
        if position >= spec.per_iteration_count:
            break
        try:
            statuses.append(_status_from_record(record))
        except ValueError as err:
            raise FixtureError(f"search result {position}: {err}") from err
    return IterationBatch(spec=spec, index=index, statuses=tuple(statuses))


@dataclass(frozen=True)
class RunConfig:
    """Everything a full run needs: directories, plan sizes, and groups.

    ``groups`` preserves the order in which kinds appear in the config
    file; every kind is one of QUERY_KINDS.
    """

    fixtures_dir: Path
    output_dir: Path
    groups: tuple[tuple[str, tuple[str, ...]], ...]
    lexicon_path: Path | None = None
    aliases: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    geocodes: Mapping[str, Geocode] = field(default_factory=dict)
    per_iteration_count: int = 950
    iterations: int = 100
    seed: int = 0
    include_isolates: bool = True
    confidence: float = 0.95
    result_type: str = "mixed"
    edge_kinds: tuple[str, ...] = ("reply", "mention", "retweet", "quote")

    def spec_for(self, kind: str, subject: str) -> QuerySpec:
        key = subject.casefold()
        return QuerySpec.for_subject(
            kind,
            subject,
            aliases=self.aliases.get(key, ()),
            geocode=self.geocodes.get(key),
            result_type=self.result_type,
            per_iteration_count=self.per_iteration_count,
            iterations=self.iterations,
        )

    def subjects(self) -> Iterator[tuple[str, str]]:
        for kind, names in self.groups:
            for name in names:
                yield kind, name


def _split_csv(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


_BOOL_VALUES = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def parse_bool(value: str) -> bool:
    try:
        return _BOOL_VALUES[value.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {value!r}") from None


def load_config(path: str | Path) -> RunConfig:
    """Parse an INI run configuration.

    Sections: ``[run]`` for scalars, ``[groups]`` mapping query kind to a
    comma-separated subject list, optional ``[aliases]`` and ``[geocodes]``
    keyed by subject.
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

    if not parser.has_section("groups"):
        raise ConfigError(f"{path}: missing [groups] section")
    groups = []
    for kind in parser.options("groups"):
        if kind not in QUERY_KINDS:
            raise ConfigError(
                f"{path}: unknown group kind {kind!r}; expected one of {', '.join(QUERY_KINDS)}"
            )
        subjects = _split_csv(parser.get("groups", kind))
        if not subjects:
            raise ConfigError(f"{path}: group {kind!r} lists no subjects")
        seen = set()
        for name in subjects:
            slug = subject_slug(name)
            if slug in seen:
                raise ConfigError(f"{path}: group {kind!r} repeats subject {name!r}")
            seen.add(slug)
        groups.append((kind, subjects))
    if not groups:
        raise ConfigError(f"{path}: no groups configured")

    run = parser["run"] if parser.has_section("run") else {}

    def _get_int(key: str, default: int) -> int:
        raw = run.get(key)
        if raw is None:
            return default
        try:
            return int(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{path}: {key} must be an integer, got {raw!r}") from None

    def _get_float(key: str, default: float) -> float:
        raw = run.get(key)
        if raw is None:
            return default
        try:
            return float(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{path}: {key} must be a number, got {raw!r}") from None

    base = path.parent

    def _get_path(key: str, default: str | None) -> Path | None:
        raw = run.get(key, default)
        if raw is None:
            return None
        raw = str(raw).strip()
        if not raw:
            raise ConfigError(f"{path}: {key} must be a nonempty path")
        candidate = Path(raw)
        return candidate if candidate.is_absolute() else base / candidate

    fixtures_dir = _get_path("fixtures", "fixtures")
    output_dir = _get_path("output", "out")
    lexicon_path = _get_path("lexicon", None)

    per_iteration_count = _get_int("per_iteration_count", 950)
    iterations = _get_int("iterations", 100)
    seed = _get_int("seed", 0)
    confidence = _get_float("confidence", 0.95)
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"{path}: confidence must be strictly between 0 and 1")
    if per_iteration_count < 1 or iterations < 1:
        raise ConfigError(f"{path}: per_iteration_count and iterations must be positive")

    include_isolates = True
    if "include_isolates" in run:
        try:
            include_isolates = parse_bool(run["include_isolates"])
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from err

    result_type = str(run.get("result_type", "mixed")).strip().lower()
    if result_type not in RESULT_TYPES:
        raise ConfigError(f"{path}: unknown result_type {result_type!r}")

    edge_kinds: tuple[str, ...] = ("reply", "mention", "retweet", "quote")
    if "edge_kinds" in run:
        edge_kinds = _split_csv(run["edge_kinds"])
        unknown = [k for k in edge_kinds if k not in ("reply", "mention", "retweet", "quote")]
        if unknown or not edge_kinds:
            raise ConfigError(f"{path}: bad edge_kinds {run['edge_kinds']!r}")

    aliases: dict[str, tuple[str, ...]] = {}
    if parser.has_section("aliases"):
        for subject in parser.options("aliases"):
            terms = _split_csv(parser.get("aliases", subject))
            if not terms:
                raise ConfigError(f"{path}: aliases for {subject!r} are empty")
            aliases[subject.casefold()] = terms

    geocodes: dict[str, Geocode] = {}
    if parser.has_section("geocodes"):
        for subject in parser.options("geocodes"):
            parts = _split_csv(parser.get("geocodes", subject))
            if len(parts) != 3:
                raise ConfigError(
                    f"{path}: geocode for {subject!r} must be 'lat, lon, radius_km'"
                )
            try:
                geocodes[subject.casefold()] = Geocode(
                    float(parts[0]), float(parts[1]), float(parts[2])
                )
            except ValueError as err:
                raise ConfigError(f"{path}: geocode for {subject!r}: {err}") from err

    return RunConfig(
        fixtures_dir=fixtures_dir,
        output_dir=output_dir,
        groups=tuple((kind, tuple(names)) for kind, names in groups),
        lexicon_path=lexicon_path,
        aliases=aliases,
        geocodes=geocodes,
        per_iteration_count=per_iteration_count,
        iterations=iterations,
        seed=seed,
        include_isolates=include_isolates,
        confidence=confidence,
        result_type=result_type,
        edge_kinds=edge_kinds,
    )
