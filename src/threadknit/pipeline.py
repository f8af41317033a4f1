"""End-to-end orchestration: fixture trees in, comparison matrices out.

The stages compose: analyze turns fixtures into per-subject tables,
correlate turns tables into per-group correlation reports, compare turns
reports into the pairwise z/interval matrix, and render writes everything
as deterministic CSV and JSON.  This module alone knows the output layout:
each artifact's reader sits next to its writer.
"""

from __future__ import annotations

import os
import re
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .components import (
    ComponentSummary,
    SubjectSummary,
    beta_ratio,
    component_counts,
    summarize_subject,
)
from .errors import ConfigError, DataError, DegeneracyError, FixtureError, ThreadknitError
from .ingest import (
    QUERY_KINDS,
    RunConfig,
    edge_kind_set,
    iteration_filename,
    iteration_index,
    nonempty_path,
    read_fixture,
    references,
    subject_dir,
    subject_slug,
)
from .records import RecordSpec, read_records, write_atomic, write_csv, write_json
from .sentiment import Lexicon, bundled_lexicon, load_lexicon, mean_score, score_text
from .stats import (
    ComparisonReport,
    CorrelationReport,
    check_confidence,
    compare_correlations,
    correlation_report,
)


def resolve_lexicon(config: RunConfig) -> Lexicon:
    """The lexicon the config names: its ``lexicon_path``, else the bundled one."""
    if config.lexicon_path is None:
        return bundled_lexicon()
    return load_lexicon(config.lexicon_path)


def iteration_files(config: RunConfig, kind: str, subject: str) -> list[tuple[int, Path]]:
    """A subject's ``iter_NNN`` files with their indices, in index order.

    Two files with one index (``iter_000`` and ``iter_0000``) are a
    DataError naming both; an index of ``config.iterations`` or more is a
    FixtureError.
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
    Status field order, as read_fixture returns them.

    Each reference of a selected kind is one edge from the author to the
    referenced handle (a multigraph; self-loops kept).  Referenced handles
    are always nodes, authors only with an edge or ``include_isolates``.
    Handles become node numbers as they are met.
    """
    kindset = edge_kind_set(kinds)
    numbers: dict[str, int] = {}
    edges: list[tuple[int, int, str]] = []
    texts = []
    for _, text, author, _, reply_to, mentions, retweet_of, quote_of in records:
        texts.append(text)
        for kind, target in references(reply_to, mentions, retweet_of, quote_of):
            if kind in kindset:
                source = numbers.setdefault(author, len(numbers))
                edges.append((source, numbers.setdefault(target, len(numbers)), kind))
        if include_isolates:
            numbers.setdefault(author, len(numbers))
    return IterationRow(texts, list(numbers), edges)


def read_iteration(path: Path, config: RunConfig) -> IterationRow:
    """The iteration_row of one iteration file's records under the config,
    which analyze counts and scores and export renders; more than
    ``config.per_iteration_count`` records is a FixtureError."""
    records = read_fixture(path)
    if len(records) > config.per_iteration_count:
        count = f"{len(records)} > {config.per_iteration_count}"
        raise FixtureError(f"{path}: batch exceeds per_iteration_count: {count}")
    return iteration_row(records, config.edge_kinds, config.include_isolates)


def analyze_subject(
    config: RunConfig, lexicon: Lexicon, kind: str, subject: str
) -> SubjectSummary:
    """Average one subject's per-iteration component counts and sentiment."""
    summaries, alphas = [], []
    for index, path in iteration_files(config, kind, subject):
        row = read_iteration(path, config)
        summaries.append(ComponentSummary(*component_counts(len(row.nodes), row.edges)))
        try:
            alphas.append(
                mean_score([score_text(text, lexicon) for text in row.texts], subject, index)
            )
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
    # imported here so that the other stages do not pay for it at start-up;
    # default start method: fork on Linux up to Python 3.13, which re-imports nothing
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
    for kind, subjects in config.groups:
        if len(subjects) < 3:
            raise DegeneracyError(
                f"group {kind!r} has {len(subjects)} subject(s); "
                "correlation needs at least 3"
            )
    rows = iter(run_in_workers(analyze_subject, list(config.subjects()), jobs, config, lexicon))
    return [(kind, [next(rows) for _ in subjects]) for kind, subjects in config.groups]


def correlate_tables(
    tables: Sequence[tuple[str, Sequence[SubjectSummary]]]
) -> list[CorrelationReport]:
    """Correlate beta against alpha in each ``(kind, rows)`` subject table."""
    return [
        correlation_report(kind, [row.beta for row in rows], [row.alpha for row in rows])
        for kind, rows in tables
    ]


def bundled_tables() -> list[tuple[str, list[SubjectSummary]]]:
    """The reference subject tables shipped with the package."""
    base = resources.files("threadknit").joinpath("data/tables")
    tables = []
    for kind in QUERY_KINDS:
        resource = base.joinpath(f"{kind}.csv")
        with resources.as_file(resource) as path:
            tables.append((kind, read_records(SUBJECT_TABLE, path)))
    return tables


def canonical_pairs(count: int) -> list[tuple[int, int]]:
    """Pair ordering for comparison matrices: adjacent pairs first.

    Pairs are sorted by index gap, then by first index, e.g. for four
    groups: (0,1), (1,2), (2,3), (0,2), (1,3), (0,3).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [
        (first, first + gap)
        for gap in range(1, count)
        for first in range(count - gap)
    ]


def compare_groups(
    reports: Sequence[CorrelationReport],
    n_override: int | None = None,
    confidence: float = 0.95,
) -> list[ComparisonReport]:
    """All pairwise correlation comparisons, in canonical order.

    ``n_override`` substitutes a common sample size for every group, for
    exploring how the comparisons scale with n; by default each group's
    own subject count is used.
    """
    check_confidence(confidence)
    if len(reports) < 2:
        raise DegeneracyError("comparisons need at least two groups")
    if n_override is not None and n_override <= 3:
        raise DegeneracyError(f"n override must exceed 3, got {n_override}")
    out = []
    for i, j in canonical_pairs(len(reports)):
        a, b = reports[i], reports[j]
        out.append(
            compare_correlations(
                a.group,
                a.r,
                n_override if n_override is not None else a.n,
                b.group,
                b.r,
                n_override if n_override is not None else b.n,
                confidence=confidence,
            )
        )
    return out


def _check_subject_row(row: SubjectSummary) -> None:
    """Counts a graph can have, and their beta to 1e-9 relative (10 decimals)."""
    ComponentSummary(row.strong_count, row.weak_count)
    beta = beta_ratio(row.strong_count, row.weak_count)
    if abs(row.beta - beta) > 1e-9 * beta:
        raise ValueError(f"ratio_beta {row.beta!r} is not weak/strong = {beta!r}")


SUBJECT_TABLE = RecordSpec(
    "subject",
    SubjectSummary,
    (
        ("subject", "subject", str),
        ("strong_count", "strong_count", int),
        ("weak_count", "weak_count", int),
        ("ratio_beta", "beta", float),
        ("sentiment_alpha", "alpha", float),
    ),
    check=_check_subject_row,
)
# the scatter CSV is the subject table without its counts
SCATTER = RecordSpec(
    "scatter", SubjectSummary, tuple(c for c in SUBJECT_TABLE.columns if c[2] is not int)
)


def _check_correlation(report: CorrelationReport) -> None:
    """A report correlate can write: n of 3 or more, |r| below 1, p in [0, 1]."""
    if report.n < 3 or not abs(report.r) < 1 or not 0 <= report.p_value <= 1:
        raise ValueError(
            f"need n >= 3, |r| < 1 and 0 <= p_value <= 1, "
            f"got n = {report.n}, r = {report.r!r}, p_value = {report.p_value!r}"
        )


CORRELATIONS = RecordSpec(
    "correlation",
    CorrelationReport,
    (
        ("group", "group", str),
        ("n", "n", int),
        *((name, name, float) for name in ("r", "mean_x", "mean_y", "t_stat", "p_value")),
    ),
    check=_check_correlation,
)
COMPARISONS = RecordSpec(
    "comparison",
    ComparisonReport,
    (
        ("group_a", "group_a", str),
        ("group_b", "group_b", str),
        *((name, name, float) for name in ("z_score", "p_value", "zou_low", "zou_high")),
    ),
    json_only=(("confidence", "confidence", float),),
)


def _write_both(spec: RecordSpec, records: Sequence, stem: Path) -> list[Path]:
    return [
        write_csv(spec, records, stem.with_suffix(".csv")),
        write_json(spec, records, stem.with_suffix(".json")),
    ]


def render_tables(
    tables: Sequence[tuple[str, Sequence[SubjectSummary]]], out_dir: str | Path
) -> list[Path]:
    """Write each ``(kind, rows)`` subject table (CSV and JSON) and scatter CSV."""
    out_dir = nonempty_path(out_dir, "output directory")
    written = []
    for kind, rows in tables:
        written += _write_both(SUBJECT_TABLE, rows, out_dir / "tables" / kind)
        written.append(write_csv(SCATTER, rows, out_dir / "scatter" / f"{kind}.csv"))
    return written


def read_tables(config: RunConfig) -> list[tuple[str, list[SubjectSummary]]]:
    """Every configured group's subject table, as render_tables wrote it
    under ``config.output_dir``, in ``(kind, rows)`` pairs.

    A missing table, or one whose subjects are not the group's configured
    subjects in configuration order, is a DataError.
    """
    tables = []
    for kind, subjects in config.groups:
        path = config.output_dir / "tables" / f"{kind}.csv"
        if not path.is_file():
            raise DataError(f"missing subject table {path}; run analyze first")
        rows = read_records(SUBJECT_TABLE, path)
        found = tuple(row.subject for row in rows)
        if found != subjects:
            raise DataError(
                f"{path} holds subjects {', '.join(found)}, but [groups] lists "
                f"{kind} = {', '.join(subjects)}; run analyze first"
            )
        tables.append((kind, rows))
    return tables


def render_correlations(reports: Sequence[CorrelationReport], out_dir: str | Path) -> list[Path]:
    """Write ``correlations.csv`` and ``correlations.json``."""
    out_dir = nonempty_path(out_dir, "output directory")
    return _write_both(CORRELATIONS, reports, out_dir / "correlations")


def _listed(reports: Sequence[CorrelationReport]) -> str:
    return ", ".join(f"{rep.group} (n={rep.n}, r={rep.r:.6f})" for rep in reports)


def read_correlations(
    out_dir: str | Path, config: RunConfig | None = None
) -> list[CorrelationReport]:
    """The reports of ``correlations.csv`` under ``out_dir``.

    A missing file, a group that appears twice, or, given a config, reports
    other than correlate_tables(read_tables(config)) is a DataError.
    """
    path = nonempty_path(out_dir, "output directory") / "correlations.csv"
    if not path.is_file():
        raise DataError(f"missing {path}; run correlate first")
    reports = read_records(CORRELATIONS, path)
    groups = [report.group for report in reports]
    for group in groups:
        if groups.count(group) > 1:
            raise DataError(f"{path}: group {group!r} appears twice; run correlate first")
    if config is not None:
        current = correlate_tables(read_tables(config))
        if reports != current:
            raise DataError(
                f"{path} holds {_listed(reports)}, but the current subject tables give "
                f"{_listed(current)}; run correlate first"
            )
    return reports


def render_comparisons(comparisons: Sequence[ComparisonReport], out_dir: str | Path) -> list[Path]:
    """Write ``comparisons.csv`` and ``comparisons.json``."""
    out_dir = nonempty_path(out_dir, "output directory")
    return _write_both(COMPARISONS, comparisons, out_dir / "comparisons")


_BARE_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_id(name: str) -> str:
    if _BARE_ID_RE.fullmatch(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(nodes: Iterable[str], edges: Iterable[Sequence[str]]) -> str:
    """Render a graph in DOT, canonically ordered.

    ``edges`` are (source, target, kind, ...) tuples, such as a
    ConversationGraph's Edges; nothing past the kind is printed.  Nodes
    appear sorted, then edges sorted, so two graphs that are equal up to
    edge order render to identical bytes.
    """
    lines = ["digraph {"]
    lines += [f"  {_dot_id(node)};" for node in sorted(nodes)]
    lines += [
        f"  {_dot_id(source)} -> {_dot_id(target)} [label={_dot_id(kind)}];"
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
