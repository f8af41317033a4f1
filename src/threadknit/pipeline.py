"""End-to-end orchestration: fixture trees in, comparison matrices out.

The stages compose: analyze turns fixtures into per-subject tables,
correlate turns tables into per-group correlation reports, compare turns
reports into the pairwise z/interval matrix, and render writes everything
as deterministic CSV and JSON.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Sequence

from .components import (
    ComponentSummary,
    SubjectSummary,
    _component_counts,
    summarize_subject,
)
from .errors import ConfigError, DataError, DegeneracyError, ThreadknitError
from .graph import ConversationGraph, build_graph, edge_kind_set, export_dot
from .ingest import (
    QUERY_KINDS,
    QuerySpec,
    RunConfig,
    iteration_index,
    parse_fixture,
    read_fixture,
    references,
    subject_slug,
)
from .records import RecordSpec, read_records, write_atomic, write_csv, write_json
from .sentiment import Lexicon, bundled_lexicon, load_lexicon, mean_score, score_text
from .stats import (
    ComparisonReport,
    CorrelationReport,
    compare_correlations,
    correlation_report,
)


@dataclass(frozen=True)
class GroupResult:
    """One group's subject table plus its structure-sentiment correlation."""

    kind: str
    subjects: tuple[SubjectSummary, ...]
    correlation: CorrelationReport


def resolve_lexicon(config: RunConfig) -> Lexicon:
    if config.lexicon_path is None:
        return bundled_lexicon()
    return load_lexicon(config.lexicon_path)


def iteration_files(config: RunConfig, kind: str, subject: str) -> list[tuple[int, Path]]:
    """A subject's ``iter_NNN`` files with their indices, in index order."""
    subject_dir = Path(config.fixtures_dir) / kind / subject_slug(subject)
    if not subject_dir.is_dir():
        raise DataError(f"no fixtures for {kind}/{subject} under {config.fixtures_dir}")
    files = sorted(
        (index, path)
        for path in subject_dir.iterdir()
        if (index := iteration_index(path.name)) is not None
    )
    if not files:
        raise DataError(f"subject {subject!r} ({kind}) has zero iterations")
    return files


def iteration_digest(
    path: Path,
    spec: QuerySpec,
    index: int,
    kinds: Sequence[str],
    include_isolates: bool,
    lexicon: Lexicon,
) -> tuple[ComponentSummary, float]:
    """Component counts and alpha of one iteration file, in one pass.

    Equal to ``component_summary(build_graph(parse_fixture(...)))`` and
    ``batch_alpha`` of the same batch, with the same errors, but no Status,
    Edge or graph objects: handles become node numbers as they are met.
    """
    kindset = edge_kind_set(kinds)
    nodes: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    scores = []
    for _, text, author, _, reply_to, mentions, retweet_of, quote_of in read_fixture(
        path, spec, index
    ):
        scores.append(score_text(text, lexicon))
        for kind, target in references(reply_to, mentions, retweet_of, quote_of):
            if kind in kindset:
                edges.append(
                    (nodes.setdefault(author, len(nodes)), nodes.setdefault(target, len(nodes)))
                )
        if include_isolates:
            nodes.setdefault(author, len(nodes))
    summary = ComponentSummary(*_component_counts(len(nodes), edges))
    try:
        return summary, mean_score(scores, spec.subject, index)
    except DegeneracyError as err:
        raise DataError(f"{path}: {err}") from err


def analyze_subject(
    config: RunConfig, lexicon: Lexicon, kind: str, subject: str
) -> SubjectSummary:
    """Average one subject's per-iteration component counts and sentiment."""
    spec = config.spec_for(kind, subject)
    digests = [
        iteration_digest(
            path, spec, index, config.edge_kinds, config.include_isolates, lexicon
        )
        for index, path in iteration_files(config, kind, subject)
    ]
    return summarize_subject(
        subject, [summary for summary, _ in digests], [alpha for _, alpha in digests]
    )


def final_iteration_graph(
    config: RunConfig, kind: str, subject: str
) -> ConversationGraph:
    """Graph of the last available iteration (the one worth picturing)."""
    index, path = iteration_files(config, kind, subject)[-1]
    batch = parse_fixture(path, spec=config.spec_for(kind, subject), index=index)
    return build_graph(
        batch, kinds=config.edge_kinds, include_isolates=config.include_isolates
    )


def select_groups(
    groups: Sequence[tuple[str, Any]], only: Sequence[str] | None = None
) -> Sequence[tuple[str, Any]]:
    """The ``(kind, ...)`` pairs whose kind is in ``only``, in their given
    order; ``groups`` itself when ``only`` is empty."""
    if not only:
        return groups
    known = {kind for kind, _ in groups}
    unknown = [name for name in only if name not in known]
    if unknown:
        raise ConfigError(
            f"unknown group(s) {', '.join(sorted(unknown))}; known: "
            f"{', '.join(sorted(known))}"
        )
    wanted = set(only)
    return tuple((kind, value) for kind, value in groups if kind in wanted)


def worker_count(jobs: int, tasks: int, cpus: int | None) -> int:
    """Worker processes for ``jobs`` over ``tasks`` subjects on ``cpus``
    cores (``os.cpu_count()``, which may be None); 1 means in-process."""
    return min(jobs, tasks, cpus or 1)


# (config, lexicon) of a pool worker; set by _init_worker in workers only
_worker_state: tuple[RunConfig, Lexicon] | None = None


def _init_worker(config: RunConfig, lexicon: Lexicon) -> None:
    global _worker_state
    _worker_state = (config, lexicon)


def _analyze_task(task: tuple[str, str]) -> SubjectSummary:
    return analyze_subject(*_worker_state, *task)


def run_pipeline(
    config: RunConfig,
    lexicon: Lexicon | None = None,
    only_groups: Sequence[str] | None = None,
    jobs: int = 1,
) -> list[GroupResult]:
    """Analyze every configured subject and correlate within each group.

    ``jobs`` > 1 analyzes subjects in up to that many worker processes
    (never more than subjects or cores); results are collected in
    configuration order, so the output, and the first error raised, do not
    depend on scheduling.  On platforms that start workers by spawning,
    call this under ``if __name__ == "__main__":``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be positive, got {jobs}")
    lexicon = lexicon if lexicon is not None else resolve_lexicon(config)
    groups = select_groups(config.groups, only_groups)
    for kind, subjects in groups:
        if len(subjects) < 3:
            raise DegeneracyError(
                f"group {kind!r} has {len(subjects)} subject(s); "
                "correlation needs at least 3"
            )
    tasks = [(kind, subject) for kind, subjects in groups for subject in subjects]
    workers = worker_count(jobs, len(tasks), os.cpu_count())
    if workers <= 1:
        summaries = [analyze_subject(config, lexicon, *task) for task in tasks]
    else:
        # imported here so that the other stages do not pay for it at start-up;
        # default start method: fork on Linux up to Python 3.13, which re-imports nothing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(config, lexicon))
        try:
            summaries = list(pool.map(_analyze_task, tasks))
        except BrokenProcessPool as err:
            raise ThreadknitError(f"a worker process died: {err}") from err
        finally:
            pool.shutdown(cancel_futures=True)
    rows = iter(summaries)
    return correlate_tables([(kind, [next(rows) for _ in subjects]) for kind, subjects in groups])


def correlate_tables(
    tables: Sequence[tuple[str, Sequence[SubjectSummary]]]
) -> list[GroupResult]:
    """Correlate already-computed subject tables (beta against alpha)."""
    results = []
    for kind, rows in tables:
        rows = tuple(rows)
        report = correlation_report(
            kind, [row.beta for row in rows], [row.alpha for row in rows]
        )
        results.append(GroupResult(kind=kind, subjects=rows, correlation=report))
    return results


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
    # counts read back must be ones a graph can have
    check=lambda row: ComponentSummary(row.strong_count, row.weak_count),
)
# the scatter CSV is the subject table without its counts
SCATTER = RecordSpec(
    "scatter", SubjectSummary, tuple(c for c in SUBJECT_TABLE.columns if c[2] is not int)
)
CORRELATIONS = RecordSpec(
    "correlation",
    CorrelationReport,
    (
        ("group", "group", str),
        ("n", "n", int),
        *((name, name, float) for name in ("r", "mean_x", "mean_y", "t_stat", "p_value")),
    ),
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


def render_tables(results: Sequence[GroupResult], out_dir: str | Path) -> list[Path]:
    """Write each group's subject table (CSV and JSON) and scatter CSV."""
    out_dir = _checked_out_dir(out_dir)
    written = []
    for result in results:
        written += _write_both(SUBJECT_TABLE, result.subjects, out_dir / "tables" / result.kind)
        written.append(
            write_csv(SCATTER, result.subjects, out_dir / "scatter" / f"{result.kind}.csv")
        )
    return written


def render_correlations(reports: Sequence[CorrelationReport], out_dir: str | Path) -> list[Path]:
    """Write ``correlations.csv`` and ``correlations.json``."""
    return _write_both(CORRELATIONS, reports, _checked_out_dir(out_dir) / "correlations")


def render_comparisons(comparisons: Sequence[ComparisonReport], out_dir: str | Path) -> list[Path]:
    """Write ``comparisons.csv`` and ``comparisons.json``."""
    return _write_both(COMPARISONS, comparisons, _checked_out_dir(out_dir) / "comparisons")


def render_reports(
    results: Sequence[GroupResult],
    comparisons: Sequence[ComparisonReport] | None,
    out_dir: str | Path,
) -> list[Path]:
    """Write every report artifact for a finished run.

    Same inputs, same bytes: rows follow the given order, floats are
    rendered with repr, and all text is UTF-8 with newline line endings.
    """
    written = render_tables(results, out_dir)
    written += render_correlations([result.correlation for result in results], out_dir)
    if comparisons is not None:
        written += render_comparisons(comparisons, out_dir)
    return written


def export_graphs(
    config: RunConfig,
    only_groups: Sequence[str] | None = None,
    out_dir: str | Path | None = None,
) -> list[Path]:
    """Write the final-iteration graph of every subject as canonical DOT."""
    out_dir = _checked_out_dir(out_dir if out_dir is not None else config.output_dir)
    written = []
    for kind, subjects in select_groups(config.groups, only_groups):
        for subject in subjects:
            graph = final_iteration_graph(config, kind, subject)
            target = out_dir / "graphs" / kind / f"{subject_slug(subject)}.dot"
            written.append(write_atomic(target, lambda handle: handle.write(export_dot(graph))))
    return written


def _checked_out_dir(out_dir: str | Path) -> Path:
    text = str(out_dir).strip()
    if not text:
        raise ConfigError("output directory must be a nonempty path")
    return Path(out_dir)
