"""End-to-end orchestration: fixture trees in, comparison matrices out.

The stages compose: analyze turns fixtures into per-subject tables,
correlate turns tables into per-group correlation reports, compare turns
reports into the pairwise z/interval matrix, and render writes everything
as deterministic CSV and JSON.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .components import (
    ComponentSummary,
    SubjectSummary,
    _component_counts,
    read_subject_table_csv,
    summarize_subject,
    write_subject_table_csv,
    write_subject_table_json,
)
from .errors import ConfigError, DataError, DegeneracyError
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
    config: RunConfig, only: Sequence[str] | None = None
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    if not only:
        return config.groups
    known = {kind for kind, _ in config.groups}
    unknown = [name for name in only if name not in known]
    if unknown:
        raise ConfigError(
            f"unknown group(s) {', '.join(sorted(unknown))}; configured: "
            f"{', '.join(sorted(known))}"
        )
    wanted = set(only)
    return tuple((kind, names) for kind, names in config.groups if kind in wanted)


def run_pipeline(
    config: RunConfig,
    lexicon: Lexicon | None = None,
    only_groups: Sequence[str] | None = None,
    jobs: int = 1,
) -> list[GroupResult]:
    """Analyze every configured subject and correlate within each group.

    ``jobs`` > 1 analyzes subjects concurrently; results are keyed and
    reassembled in configuration order, so the output does not depend on
    scheduling.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be positive, got {jobs}")
    lexicon = lexicon if lexicon is not None else resolve_lexicon(config)
    groups = select_groups(config, only_groups)
    for kind, subjects in groups:
        if len(subjects) < 3:
            raise DegeneracyError(
                f"group {kind!r} has {len(subjects)} subject(s); "
                "correlation needs at least 3"
            )
    tasks = [(kind, subject) for kind, subjects in groups for subject in subjects]
    rows: dict[tuple[str, str], SubjectSummary] = {}
    if jobs == 1 or len(tasks) <= 1:
        for kind, subject in tasks:
            rows[(kind, subject)] = analyze_subject(config, lexicon, kind, subject)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {
                (kind, subject): pool.submit(
                    analyze_subject, config, lexicon, kind, subject
                )
                for kind, subject in tasks
            }
            for key, future in futures.items():
                rows[key] = future.result()
    results = []
    for kind, subjects in groups:
        table = tuple(rows[(kind, subject)] for subject in subjects)
        report = correlation_report(
            kind, [row.beta for row in table], [row.alpha for row in table]
        )
        results.append(GroupResult(kind=kind, subjects=table, correlation=report))
    return results


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
            tables.append((kind, read_subject_table_csv(path)))
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


CORRELATION_COLUMNS = ("group", "n", "r", "mean_x", "mean_y", "t_stat", "p_value")
COMPARISON_COLUMNS = ("group_a", "group_b", "z_score", "p_value", "zou_low", "zou_high")


def write_correlations_csv(reports: Sequence[CorrelationReport], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CORRELATION_COLUMNS)
        for rep in reports:
            writer.writerow(
                [
                    rep.group,
                    rep.n,
                    repr(rep.r),
                    repr(rep.mean_x),
                    repr(rep.mean_y),
                    repr(rep.t_stat),
                    repr(rep.p_value),
                ]
            )
    return path


def write_correlations_json(reports: Sequence[CorrelationReport], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [
        {
            "group": rep.group,
            "n": rep.n,
            "r": rep.r,
            "mean_x": rep.mean_x,
            "mean_y": rep.mean_y,
            "t_stat": rep.t_stat,
            "p_value": rep.p_value,
        }
        for rep in reports
    ]
    path.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def read_correlations_json(path: str | Path) -> list[CorrelationReport]:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read correlations {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise DataError(f"{path}: invalid JSON: {err.msg}") from err
    if not isinstance(payload, list):
        raise DataError(f"{path}: expected a list of correlation records")
    reports = []
    for record in payload:
        try:
            reports.append(
                CorrelationReport(
                    group=record["group"],
                    n=int(record["n"]),
                    r=float(record["r"]),
                    mean_x=float(record["mean_x"]),
                    mean_y=float(record["mean_y"]),
                    t_stat=float(record["t_stat"]),
                    p_value=float(record["p_value"]),
                )
            )
        except (KeyError, TypeError, ValueError) as err:
            raise DataError(f"{path}: bad correlation record {record!r}: {err}") from err
    return reports


def write_comparisons_csv(reports: Sequence[ComparisonReport], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COMPARISON_COLUMNS)
        for rep in reports:
            writer.writerow(
                [
                    rep.group_a,
                    rep.group_b,
                    repr(rep.z_score),
                    repr(rep.p_value),
                    repr(rep.zou_low),
                    repr(rep.zou_high),
                ]
            )
    return path


def write_comparisons_json(reports: Sequence[ComparisonReport], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [
        {
            "group_a": rep.group_a,
            "group_b": rep.group_b,
            "z_score": rep.z_score,
            "p_value": rep.p_value,
            "zou_low": rep.zou_low,
            "zou_high": rep.zou_high,
            "confidence": rep.confidence,
        }
        for rep in reports
    ]
    path.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def write_scatter_csv(result: GroupResult, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("subject", "ratio_beta", "sentiment_alpha"))
        for row in result.subjects:
            writer.writerow([row.subject, repr(row.beta), repr(row.alpha)])
    return path


def render_tables(results: Sequence[GroupResult], out_dir: str | Path) -> list[Path]:
    out_dir = _checked_out_dir(out_dir)
    written = []
    for result in results:
        written.append(
            write_subject_table_csv(result.subjects, out_dir / "tables" / f"{result.kind}.csv")
        )
        written.append(
            write_subject_table_json(result.subjects, out_dir / "tables" / f"{result.kind}.json")
        )
    return written


def render_reports(
    results: Sequence[GroupResult],
    comparisons: Sequence[ComparisonReport] | None,
    out_dir: str | Path,
) -> list[Path]:
    """Write every report artifact for a finished run.

    Same inputs, same bytes: rows follow the given order, floats are
    rendered with repr, and all text is UTF-8 with newline line endings.
    """
    out_dir = _checked_out_dir(out_dir)
    written = render_tables(results, out_dir)
    correlations = [result.correlation for result in results]
    written.append(write_correlations_csv(correlations, out_dir / "correlations.csv"))
    written.append(write_correlations_json(correlations, out_dir / "correlations.json"))
    for result in results:
        written.append(
            write_scatter_csv(result, out_dir / "scatter" / f"{result.kind}.csv")
        )
    if comparisons is not None:
        written.append(write_comparisons_csv(comparisons, out_dir / "comparisons.csv"))
        written.append(write_comparisons_json(comparisons, out_dir / "comparisons.json"))
    return written


def export_graphs(
    config: RunConfig,
    only_groups: Sequence[str] | None = None,
    out_dir: str | Path | None = None,
) -> list[Path]:
    """Write the final-iteration graph of every subject as canonical DOT."""
    out_dir = _checked_out_dir(out_dir if out_dir is not None else config.output_dir)
    written = []
    for kind, subjects in select_groups(config, only_groups):
        for subject in subjects:
            graph = final_iteration_graph(config, kind, subject)
            target = out_dir / "graphs" / kind / f"{subject_slug(subject)}.dot"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(export_dot(graph), encoding="utf-8")
            written.append(target)
    return written


def _checked_out_dir(out_dir: str | Path) -> Path:
    text = str(out_dir).strip()
    if not text:
        raise ConfigError("output directory must be a nonempty path")
    return Path(out_dir)
