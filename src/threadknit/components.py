"""Connected-component counting and per-subject aggregation.

The headline statistic is the ratio beta = (number of weakly connected
components) / (number of strongly connected components).  Beta is computed
from counts that were first averaged over iterations and rounded to whole
components; the division happens after rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DegeneracyError

if TYPE_CHECKING:
    from fractions import Fraction

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


def _weak_labels(count: int, edges: Iterable[Sequence[int]]) -> list[int]:
    """Weak component label (a member node) of every node 0..n-1, by
    union-find with path halving; edge direction is ignored.  ``edges``
    are (source, target, ...) tuples."""
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]
        return node

    for edge in edges:
        parent[find(edge[0])] = find(edge[1])
    return [find(node) for node in range(count)]


def component_counts(count: int, edges: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(strong, weak) component counts of a graph on nodes 0..count-1 with
    (source, target, ...) ``edges``."""
    successors: list[list[int]] = [[] for _ in range(count)]
    for edge in edges:
        successors[edge[0]].append(edge[1])
    strong = len(set(_strong_labels(successors)))
    weak = len(set(_weak_labels(count, edges)))
    return strong, weak


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
    number = {node: position for position, node in enumerate(sorted(graph.nodes))}
    edges = [(number[edge.source], number[edge.target]) for edge in graph.edges]
    return ComponentSummary(*component_counts(len(number), edges))


def round_half_away(value: float | Fraction | int) -> int:
    """Round to the nearest integer, halves away from zero.

    Exact: the tie rule is applied to the true rational value, not to a
    float approximation of it.
    """
    # fractions loads decimal: only the stages that round a mean import it
    from fractions import Fraction

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
    """One subject's row from its iterations' component counts and alphas:
    the one statement of the row rule.

    Each count is the exact mean over iterations, rounded half away from
    zero, and beta divides the rounded counts; alpha is the mean of the
    iteration alphas, unrounded.  A subject whose mean weak count rounds
    to 0 has no beta: DegeneracyError.
    """
    if not summaries or not alphas:
        raise DegeneracyError(f"subject {subject!r}: nothing to summarize")
    if len(summaries) != len(alphas):
        raise ValueError(
            f"subject {subject!r}: {len(summaries)} component summaries "
            f"vs {len(alphas)} sentiment values"
        )
    from fractions import Fraction

    n = len(summaries)
    strong = round_half_away(Fraction(sum(s.strong_count for s in summaries), n))
    weak = round_half_away(Fraction(sum(s.weak_count for s in summaries), n))
    if weak == 0:
        raise DegeneracyError(
            f"subject {subject!r}: mean counts round to {strong} strong and 0 weak "
            "components; beta needs at least one of each"
        )
    return SubjectSummary(
        subject=subject,
        strong_count=strong,
        weak_count=weak,
        beta=beta_ratio(strong, weak),
        alpha=fsum(alphas) / n,
    )
