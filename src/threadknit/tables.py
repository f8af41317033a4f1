"""The table stages and their artifacts: correlate turns subject tables
into per-group correlation reports, and compare turns reports into the
pairwise z/interval matrix.  This module alone knows the layout of the
tables, correlations and comparisons in ``out/``: each artifact's reader
sits next to its writer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .components import ComponentSummary, SubjectSummary, beta_ratio
from .config import QUERY_KINDS, RunConfig, nonempty_path
from .errors import DataError, DegeneracyError
from .records import RecordSpec, read_records, write_csv, write_json
from .stats import (
    ComparisonReport,
    CorrelationReport,
    check_confidence,
    compare_correlations,
    correlation_report,
)


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
    # only --bundled reads package data
    from importlib import resources

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
        n_a, n_b = (a.n, b.n) if n_override is None else (n_override, n_override)
        try:
            out.append(compare_correlations(a.group, a.r, n_a, b.group, b.r, n_b, confidence))
        except DegeneracyError as err:
            raise DegeneracyError(f"groups {a.group!r} and {b.group!r}: {err}") from err
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
