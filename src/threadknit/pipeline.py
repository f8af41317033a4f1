"""The fixture stages: analyze turns fixture trees into per-subject tables
and export renders each subject's final iteration as DOT, both through one
iteration reader and one process pool.  The table artifacts and the stages
that read them are ``tables``.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .components import ComponentSummary, SubjectSummary, component_counts, summarize_subject
from .config import EDGE_KINDS, RunConfig, edge_kind_set, subject_slug
from .errors import ConfigError, DataError, DegeneracyError, FixtureError, ThreadknitError
from .ingest import fixture_records, iteration_filename, iteration_index, subject_dir
from .records import write_atomic
from .sentiment import Lexicon, bundled_lexicon, load_lexicon, mean_score


def resolve_lexicon(config: RunConfig) -> Lexicon:
    """The lexicon the config names: its ``lexicon_path``, else the bundled one."""
    if config.lexicon_path is None:
        return bundled_lexicon()
    return load_lexicon(config.lexicon_path)


def iteration_files(config: RunConfig, kind: str, subject: str) -> list[tuple[int, Path]]:
    """A subject's ``iter_NNN`` files with their indices, in index order:
    one for each index of the plan, ``0 … config.iterations - 1``.

    Two files with one index (``iter_000`` and ``iter_0000``) are a
    DataError naming both; an index of ``config.iterations`` or more is a
    FixtureError; a missing index is a DataError naming the file it lacks.
    """
    directory = subject_dir(config.fixtures_dir, kind, subject)
    if not directory.is_dir():
        raise DataError(f"no fixtures for {kind}/{subject} under {config.fixtures_dir}")
    files = sorted(
        (index, path)
        for path in directory.iterdir()
        if (index := iteration_index(path.name)) is not None
    )
    if not files:
        raise DataError(f"subject {subject!r} ({kind}) has zero iterations")
    for (index, first), (next_index, second) in zip(files, files[1:]):
        if index == next_index:
            raise DataError(f"{first} and {second} are both iteration {index}; remove one")
    index, path = files[-1]
    if index >= config.iterations:
        raise FixtureError(f"{path}: iteration index {index} outside plan of {config.iterations}")
    # the indices are distinct and below the plan's count: all there, or one missing
    if len(files) < config.iterations:
        first = next((k for k, (index, _) in enumerate(files) if index != k), len(files))
        missing = directory / iteration_filename(first)
        raise DataError(f"{missing}: missing; the plan has {config.iterations} iterations")
    return files


class IterationRow(NamedTuple):
    """One iteration file as the stages read it."""

    texts: list[str]
    # node names; a node's number is its position here
    nodes: list[str]
    # (source, target, kind) by node number, in file order
    edges: list[tuple[int, int, str]]


def iteration_row(
    records: Iterable[Sequence], kinds: Iterable[str], include_isolates: bool
) -> IterationRow:
    """The texts and interaction graph of one iteration's records: tuples in
    Status field order, as fixture_records yields them.

    Each reference of a selected kind is one edge from the author to the
    referenced handle (a multigraph; self-loops kept), in the order reply,
    mentions, retweet, quote.  Referenced handles are always nodes, authors
    only with an edge or ``include_isolates``.  Handles become node numbers
    as they are met.
    """
    reply, mention, retweet, quote = map(edge_kind_set(kinds).__contains__, EDGE_KINDS)
    numbers: dict[str, int] = {}
    number = numbers.setdefault
    edges: list[tuple[int, int, str]] = []
    texts = []

    def link(source: str, target: str, kind: str) -> None:
        edges.append((number(source, len(numbers)), number(target, len(numbers)), kind))

    for _, text, author, _, reply_to, mentions, retweet_of, quote_of in records:
        texts.append(text)
        if reply and reply_to is not None:
            link(author, reply_to, "reply")
        if mention:
            for target in mentions:
                link(author, target, "mention")
        if retweet and retweet_of is not None:
            link(author, retweet_of, "retweet")
        if quote and quote_of is not None:
            link(author, quote_of, "quote")
        if include_isolates:
            number(author, len(numbers))
    return IterationRow(texts, list(numbers), edges)


def read_iteration(path: Path, config: RunConfig) -> IterationRow:
    """The iteration_row of one iteration file's records under the config,
    which analyze counts and scores and export renders, built as the records
    are read; more than ``config.per_iteration_count`` records is a
    FixtureError, raised once the whole file is checked."""
    row = iteration_row(fixture_records(path), config.edge_kinds, config.include_isolates)
    if len(row.texts) > config.per_iteration_count:
        count = f"{len(row.texts)} > {config.per_iteration_count}"
        raise FixtureError(f"{path}: batch exceeds per_iteration_count: {count}")
    return row


def analyze_subject(
    config: RunConfig, lexicon: Lexicon, kind: str, subject: str
) -> SubjectSummary:
    """Average one subject's per-iteration component counts and sentiment."""
    summaries, alphas = [], []
    for index, path in iteration_files(config, kind, subject):
        row = read_iteration(path, config)
        summaries.append(ComponentSummary(*component_counts(len(row.nodes), row.edges)))
        try:
            alphas.append(mean_score(row.texts, lexicon, subject, index))
        except DegeneracyError as err:
            raise DataError(f"{path}: {err}") from err
    return summarize_subject(subject, summaries, alphas)


def usable_cores() -> int | None:
    """Cores this process may run on, by its CPU affinity where known."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def worker_count(jobs: int, tasks: int, cpus: int | None) -> int:
    """Worker processes for ``jobs`` over ``tasks`` tasks on ``cpus`` cores
    (``usable_cores()``); 1 means in-process."""
    return min(jobs, tasks, cpus or 1)


# (call, shared) of a pool worker; set by _init_worker in workers only
_worker_state: tuple[Callable, tuple] | None = None


def _init_worker(call: Callable, shared: tuple) -> None:
    global _worker_state
    _worker_state = (call, shared)


def _run_task(task: tuple):
    call, shared = _worker_state
    return call(*shared, *task)


def run_in_workers(call: Callable, tasks: Sequence[tuple], jobs: int, *shared) -> list:
    """``call(*shared, *task)`` for each task, in task order, from up to ``jobs``
    worker processes (at most tasks or usable cores; one runs in-process).  The
    first error raised is the first in task order; a dead worker is a ThreadknitError."""
    if jobs < 1:
        raise ConfigError(f"jobs must be positive, got {jobs}")
    workers = worker_count(jobs, len(tasks), usable_cores())
    if workers <= 1:
        return [call(*shared, *task) for task in tasks]
    # imported here so that the other stages do not pay for it at start-up; every
    # start method (fork, forkserver, spawn) writes the same bytes, which the tests pin
    from concurrent.futures import process

    pool = process.ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(call, shared))
    try:
        return list(pool.map(_run_task, tasks))
    except process.BrokenProcessPool as err:
        raise ThreadknitError(f"a worker process died: {err}") from err
    finally:
        pool.shutdown(cancel_futures=True)


def analyze_groups(config: RunConfig, jobs: int = 1) -> list[tuple[str, list[SubjectSummary]]]:
    """Every configured group's subject table, as ``(kind, rows)`` pairs,
    scored with the configured lexicon (read once, shared by the workers).

    ``jobs`` > 1 analyzes subjects through run_in_workers; where workers are
    started by spawning, call this under ``if __name__ == "__main__":``.
    """
    lexicon = resolve_lexicon(config)
    rows = iter(run_in_workers(analyze_subject, list(config.subjects()), jobs, config, lexicon))
    return [(kind, [next(rows) for _ in subjects]) for kind, subjects in config.groups]


_BARE_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_id(name: str) -> str:
    if _BARE_ID_RE.fullmatch(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _DotIds(dict):
    """_dot_id memoised: ``ids[name]`` is ``name`` as a DOT id."""

    def __missing__(self, name: str) -> str:
        quoted = self[name] = _dot_id(name)
        return quoted


def export_dot(nodes: Iterable[str], edges: Iterable[Sequence[str]]) -> str:
    """Render a graph in DOT, canonically ordered.

    ``edges`` are (source, target, kind, ...) tuples; nothing past the
    kind is printed.  Nodes appear sorted, then edges sorted, so two graphs
    that are equal up to edge order render to identical bytes.
    """
    ids = _DotIds()
    lines = ["digraph {"]
    lines += [f"  {ids[node]};" for node in sorted(nodes)]
    lines += [
        f"  {ids[source]} -> {ids[target]} [label={ids[kind]}];"
        for source, target, kind, *_ in sorted(edges)
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


# one export worker per this many bytes of final-iteration files.  CLI export on 2
# vCPUs, 24 paper-shaped files cut to sizes, median wall time serial -> 2 workers in
# two passes of 10 and 15 runs: 80 KB 0.20 -> 0.24/0.26 s; 0.47 MB 0.22 -> 0.25/0.30;
# 0.93 MB 0.25 -> 0.25/0.34; 1.4 MB 0.31 -> 0.30/0.39; 1.9 MB 0.37/0.28 -> 0.34/0.35;
# 2.8 MB 0.35 -> 0.41; 4.4 MB 0.64/0.55 -> 0.45/0.43.  The crossing moved between 1
# and 4 MB with the shared host's load, so a second worker starts at 2 MB.
_EXPORT_BYTES_PER_WORKER = 1_000_000


def _export_subject(config: RunConfig, kind: str, subject: str) -> Path:
    row = read_iteration(iteration_files(config, kind, subject)[-1][1], config)
    names = row.nodes
    dot = export_dot(names, [(names[s], names[t], label) for s, t, label in row.edges])
    target = config.output_dir / "graphs" / kind / f"{subject_slug(subject)}.dot"
    return write_atomic(target, lambda handle: handle.write(dot))


def export_graphs(config: RunConfig) -> list[Path]:
    """Write the final-iteration graph of every subject as canonical DOT
    under ``graphs/`` in ``config.output_dir``, read through read_iteration
    as analyze reads it; no text is scored.  Subjects go through
    run_in_workers, as analyze's do, with one worker per ``_EXPORT_BYTES_PER_WORKER``
    bytes of the plan's final files (``iter_<iterations-1>``), so a small tree
    stays in-process; where workers are started by spawning, call this under
    ``if __name__ == "__main__":``."""
    tasks = list(config.subjects())
    final, size = iteration_filename(config.iterations - 1), 0
    for kind, subject in tasks:
        try:
            size += (subject_dir(config.fixtures_dir, kind, subject) / final).stat().st_size
        except OSError:  # counts 0; the task lists what the subject holds
            pass
    return run_in_workers(_export_subject, tasks, max(1, size // _EXPORT_BYTES_PER_WORKER), config)
