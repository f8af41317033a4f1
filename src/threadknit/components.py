"""Connected-component counting and per-subject aggregation.

The headline statistic is the ratio beta = (number of weakly connected
components) / (number of strongly connected components).  Beta is computed
from counts that were first averaged over iterations and rounded to whole
components; the division happens after rounding.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError, DegeneracyError
from .graph import ConversationGraph


def _strong_labels(successors: Sequence[Sequence[int]]) -> list[int]:
    """Strong component label of every node 0..n-1 (Tarjan, iterative).

    Roots are taken in node order and children in list order; labels
    number the components as they complete, which is reverse topological
    order of the condensation.
    """
    count = len(successors)
    index = [-1] * count
    lowlink = [0] * count
    label = [-1] * count
    stack: list[int] = []
    counter = labels = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if index[child] < 0:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    work.append((child, iter(successors[child])))
                    break
                # visited and not yet labelled means still on the stack
                if label[child] < 0 and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    while True:
                        top = stack.pop()
                        label[top] = labels
                        if top == node:
                            break
                    labels += 1
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
    return label


def _weak_labels(count: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Weak component label (a member node) of every node 0..n-1, by
    union-find with path halving; edge direction is ignored."""
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]
        return node

    for source, target in edges:
        parent[find(source)] = find(target)
    return [find(node) for node in range(count)]


def _component_counts(count: int, edges: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """(strong, weak) component counts of a graph on nodes 0..count-1."""
    successors: list[list[int]] = [[] for _ in range(count)]
    for source, target in edges:
        successors[source].append(target)
    strong = len(set(_strong_labels(successors)))
    weak = len(set(_weak_labels(count, edges)))
    return strong, weak


def _numbered(graph: ConversationGraph) -> tuple[list[str], list[tuple[int, int]]]:
    """Sorted nodes, and the edges as (source, target) positions in it."""
    order = sorted(graph.nodes)
    number = {node: position for position, node in enumerate(order)}
    return order, [(number[edge.source], number[edge.target]) for edge in graph.edges]


def strong_components(graph: ConversationGraph) -> list[frozenset[str]]:
    """Strongly connected components via Tarjan's algorithm (iterative).

    Every node belongs to exactly one component; a single node with no
    cycle through it forms its own component.  Components come out in
    reverse topological order of the condensation, deterministically for a
    given graph.
    """
    order, edges = _numbered(graph)
    successors: list[set[int]] = [set() for _ in order]
    for source, target in edges:
        successors[source].add(target)
    labels = _strong_labels([sorted(targets) for targets in successors])
    members: list[set[str]] = [set() for _ in range(max(labels, default=-1) + 1)]
    for node, label in zip(order, labels):
        members[label].add(node)
    return [frozenset(group) for group in members]


def weak_components(graph: ConversationGraph) -> list[frozenset[str]]:
    """Weakly connected components (edge direction ignored), via union-find.

    Returned in order of each component's smallest node.
    """
    order, edges = _numbered(graph)
    members: dict[int, set[str]] = {}
    for node, label in zip(order, _weak_labels(len(order), edges)):
        members.setdefault(label, set()).add(node)
    return [frozenset(group) for group in members.values()]


@dataclass(frozen=True)
class ComponentSummary:
    """Component counts for one iteration's graph."""

    strong_count: int
    weak_count: int

    def __post_init__(self) -> None:
        if self.weak_count < 0 or self.strong_count < self.weak_count:
            raise ValueError(
                f"impossible counts: strong={self.strong_count} weak={self.weak_count}"
            )
        if (self.strong_count == 0) != (self.weak_count == 0):
            raise ValueError("counts must be zero together (empty graph) or both positive")


def component_summary(graph: ConversationGraph) -> ComponentSummary:
    """Count both kinds of component for one graph."""
    order, edges = _numbered(graph)
    return ComponentSummary(*_component_counts(len(order), edges))


def round_half_away(value: float | Fraction | int) -> int:
    """Round to the nearest integer, halves away from zero.

    Exact: the tie rule is applied to the true rational value, not to a
    float approximation of it.
    """
    q = Fraction(value)
    if q < 0:
        return -round_half_away(-q)
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


def beta_ratio(strong_count: int, weak_count: int) -> float:
    """Beta is weak divided by strong: weak_count / strong_count.

    Note the orientation: the numerator is the *weak* count.  Undefined
    when there are no strong components.
    """
    if strong_count < 0 or weak_count < 0:
        raise ValueError("component counts must be nonnegative")
    if strong_count == 0:
        raise DegeneracyError("beta undefined: no strong components")
    return weak_count / strong_count


def average_count(counts: Sequence[int]) -> int:
    """Mean of per-iteration counts, rounded half away from zero, exactly."""
    if not counts:
        raise DegeneracyError("no iteration counts to average")
    return round_half_away(Fraction(sum(counts), len(counts)))


@dataclass(frozen=True)
class SubjectSummary:
    """One subject's averaged counts, beta ratio, and mean sentiment."""

    subject: str
    strong_count: int
    weak_count: int
    beta: float
    alpha: float


def summarize_subject(
    subject: str,
    summaries: Sequence[ComponentSummary],
    alphas: Sequence[float],
) -> SubjectSummary:
    """Aggregate per-iteration component counts and sentiment means.

    Counts are averaged and rounded to whole components before the beta
    division; the sentiment mean is aggregated unrounded.
    """
    if not summaries or not alphas:
        raise DegeneracyError(f"subject {subject!r}: nothing to summarize")
    if len(summaries) != len(alphas):
        raise ValueError(
            f"subject {subject!r}: {len(summaries)} component summaries "
            f"vs {len(alphas)} sentiment values"
        )
    strong = average_count([s.strong_count for s in summaries])
    weak = average_count([s.weak_count for s in summaries])
    return SubjectSummary(
        subject=subject,
        strong_count=strong,
        weak_count=weak,
        beta=beta_ratio(strong, weak),
        alpha=fsum(alphas) / len(alphas),
    )


TABLE_COLUMNS = ("subject", "strong_count", "weak_count", "ratio_beta", "sentiment_alpha")


def write_subject_table_csv(rows: Sequence[SubjectSummary], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for row in rows:
            writer.writerow(
                [row.subject, row.strong_count, row.weak_count, repr(row.beta), repr(row.alpha)]
            )
    return path


def write_subject_table_json(rows: Sequence[SubjectSummary], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [
        {
            "subject": row.subject,
            "strong_count": row.strong_count,
            "weak_count": row.weak_count,
            "ratio_beta": row.beta,
            "sentiment_alpha": row.alpha,
        }
        for row in rows
    ]
    path.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def read_subject_table_csv(path: str | Path) -> list[SubjectSummary]:
    """Read a subject table back; inverse of write_subject_table_csv."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or tuple(reader.fieldnames) != TABLE_COLUMNS:
                raise DataError(
                    f"{path}: expected columns {', '.join(TABLE_COLUMNS)}, "
                    f"got {reader.fieldnames}"
                )
            rows = []
            for lineno, record in enumerate(reader, start=2):
                try:
                    counts = ComponentSummary(
                        int(record["strong_count"]), int(record["weak_count"])
                    )
                    beta = float(record["ratio_beta"])
                    alpha = float(record["sentiment_alpha"])
                    if not (math.isfinite(beta) and math.isfinite(alpha)):
                        raise ValueError(f"non-finite beta {beta!r} or alpha {alpha!r}")
                    rows.append(
                        SubjectSummary(
                            subject=record["subject"],
                            strong_count=counts.strong_count,
                            weak_count=counts.weak_count,
                            beta=beta,
                            alpha=alpha,
                        )
                    )
                except (TypeError, ValueError) as err:
                    raise DataError(f"{path}:{lineno}: {err}") from err
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read table {path}: {err}") from err
    if not rows:
        raise DataError(f"{path}: table has no rows")
    return rows
