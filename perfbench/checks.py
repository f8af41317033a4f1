"""Checks of every stage's outputs against ground truth.

Each check returns a list of problems; an empty list means the output is
right.  Nothing here imports the program: statistics are recomputed from the
artifacts with independent formulas.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from math import fsum
from pathlib import Path
from statistics import NormalDist

TABLE_COLUMNS = ["subject", "strong_count", "weak_count", "ratio_beta", "sentiment_alpha"]
_STAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ExpectedRow:
    """One subject's expected table row.

    ``alpha_tolerance`` 0 demands the exact float; otherwise the stated
    tolerance of a steered target applies.
    """

    subject: str
    strong: int
    weak: int
    alpha: float
    alpha_tolerance: float = 0.0


@dataclass(frozen=True)
class ExpectedGraph:
    slug: str
    nodes: int
    edges: int


def _close(a: float, b: float, tolerance: float = _STAT_TOLERANCE) -> bool:
    return math.isfinite(a) and abs(a - b) <= tolerance * max(1.0, abs(b))


def read_table(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != TABLE_COLUMNS:
            raise ValueError(f"{path}: columns {reader.fieldnames}")
        return list(reader)


def check_tables(out_dir: Path, expected: dict[str, list[ExpectedRow]]) -> list[str]:
    """CSV and JSON subject tables against the planted rows, exactly."""
    problems = []
    for kind, rows in expected.items():
        csv_path = out_dir / "tables" / f"{kind}.csv"
        try:
            table = read_table(csv_path)
            mirror = json.loads((out_dir / "tables" / f"{kind}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            problems.append(f"{kind} table unreadable: {err}")
            continue
        if [r["subject"] for r in table] != [row.subject for row in rows]:
            problems.append(f"{kind}: subjects {[r['subject'] for r in table]}")
            continue
        for got, want, twin in zip(table, rows, mirror):
            strong, weak = int(got["strong_count"]), int(got["weak_count"])
            beta, alpha = float(got["ratio_beta"]), float(got["sentiment_alpha"])
            where = f"{kind}/{want.subject}"
            if (strong, weak) != (want.strong, want.weak):
                problems.append(f"{where}: counts {strong}/{weak}, planted {want.strong}/{want.weak}")
            if beta != weak / strong:
                problems.append(f"{where}: ratio_beta {beta!r} is not {weak}/{strong}")
            if want.alpha_tolerance == 0.0:
                if alpha != want.alpha:
                    problems.append(f"{where}: alpha {alpha!r}, exact {want.alpha!r}")
            elif not abs(alpha - want.alpha) <= want.alpha_tolerance:
                problems.append(f"{where}: alpha {alpha!r} outside {want.alpha}±{want.alpha_tolerance}")
            if twin != {
                "subject": got["subject"],
                "strong_count": strong,
                "weak_count": weak,
                "ratio_beta": beta,
                "sentiment_alpha": alpha,
            }:
                problems.append(f"{where}: JSON table row {twin} differs from CSV")
    return problems


def pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mean_x, mean_y = fsum(xs) / n, fsum(ys) / n
    sxy = fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sxx = fsum((x - mean_x) ** 2 for x in xs)
    syy = fsum((y - mean_y) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided Student t p-value from the closed-form series in
    cos(theta), theta = atan(|t| / sqrt(df))."""
    theta = math.atan(abs(t) / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    if df % 2 == 0:
        term, total = 1.0, 1.0
        for k in range(1, df // 2):
            term *= c2 * (2 * k - 1) / (2 * k)
            total += term
        return 1.0 - math.sin(theta) * total
    term, total = 1.0, 0.0
    if df > 1:
        total = 1.0
        for k in range(1, (df - 1) // 2):
            term *= c2 * (2 * k) / (2 * k + 1)
            total += term
        total *= math.sin(theta) * math.cos(theta)
    return 1.0 - 2.0 / math.pi * (theta + total)


def check_correlations(out_dir: Path, kinds: list[str]) -> list[str]:
    """correlations.json against Pearson r, t and p recomputed from the tables."""
    try:
        reports = json.loads((out_dir / "correlations.json").read_text(encoding="utf-8"))
        tables = {kind: read_table(out_dir / "tables" / f"{kind}.csv") for kind in kinds}
    except (OSError, ValueError) as err:
        return [f"correlations unreadable: {err}"]
    if [rep.get("group") for rep in reports] != kinds:
        return [f"correlation groups {[rep.get('group') for rep in reports]}, expected {kinds}"]
    problems = []
    for rep in reports:
        rows = tables[rep["group"]]
        xs = [float(row["ratio_beta"]) for row in rows]
        ys = [float(row["sentiment_alpha"]) for row in rows]
        n = len(xs)
        r = pearson(xs, ys)
        t = r * math.sqrt((n - 2) / (1 - r * r))
        want = {
            "n": n,
            "r": r,
            "mean_x": fsum(xs) / n,
            "mean_y": fsum(ys) / n,
            "t_stat": t,
            "p_value": t_two_sided_p(t, n - 2),
        }
        for key, value in want.items():
            if not _close(float(rep[key]), value):
                problems.append(f"{rep['group']}: {key} {rep[key]!r}, recomputed {value!r}")
    return problems


def check_comparisons(out_dir: Path, confidence: float = 0.95) -> list[str]:
    """Every pair once, finite values, z and Zou bounds recomputed."""
    try:
        reports = json.loads((out_dir / "correlations.json").read_text(encoding="utf-8"))
        pairs = json.loads((out_dir / "comparisons.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return [f"comparisons unreadable: {err}"]
    by_group = {rep["group"]: rep for rep in reports}
    expected = {(a, b) for i, a in enumerate(by_group) for b in list(by_group)[i + 1 :]}
    seen = {(pair.get("group_a"), pair.get("group_b")) for pair in pairs}
    if seen != expected or len(pairs) != len(expected):
        return [f"comparison pairs {sorted(seen)}, expected {sorted(expected)}"]
    problems = []
    q = NormalDist().inv_cdf(0.5 + confidence / 2)
    for pair in pairs:
        where = f"{pair['group_a']} vs {pair['group_b']}"
        values = [pair[key] for key in ("z_score", "p_value", "zou_low", "zou_high")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"{where}: non-finite values {values}")
            continue
        if not pair["zou_low"] <= pair["zou_high"]:
            problems.append(f"{where}: zou_low {pair['zou_low']} > zou_high {pair['zou_high']}")
        a, b = by_group[pair["group_a"]], by_group[pair["group_b"]]
        r1, n1, r2, n2 = a["r"], a["n"], b["r"], b["n"]
        z = (math.atanh(r1) - math.atanh(r2)) / math.sqrt(1 / (n1 - 3) + 1 / (n2 - 3))
        l1, u1 = (math.tanh(math.atanh(r1) + s * q / math.sqrt(n1 - 3)) for s in (-1, 1))
        l2, u2 = (math.tanh(math.atanh(r2) + s * q / math.sqrt(n2 - 3)) for s in (-1, 1))
        diff = r1 - r2
        want = {
            "z_score": z,
            "p_value": math.erfc(abs(z) / math.sqrt(2)),
            "zou_low": diff - math.hypot(r1 - l1, u2 - r2),
            "zou_high": diff + math.hypot(u1 - r1, r2 - l2),
        }
        for key, value in want.items():
            if not _close(pair[key], value):
                problems.append(f"{where}: {key} {pair[key]!r}, recomputed {value!r}")
    return problems


def check_graphs(out_dir: Path, expected: dict[str, list[ExpectedGraph]]) -> list[str]:
    """Final-iteration DOT files: one node line per node, one edge line per edge."""
    problems = []
    for kind, graphs in expected.items():
        for graph in graphs:
            path = out_dir / "graphs" / kind / f"{graph.slug}.dot"
            try:
                lines = path.read_text(encoding="utf-8").splitlines()
            except OSError as err:
                problems.append(f"missing graph: {err}")
                continue
            if not lines or lines[0] != "digraph {" or lines[-1] != "}":
                problems.append(f"{path.name}: not a DOT digraph")
                continue
            edges = sum(1 for line in lines[1:-1] if " -> " in line)
            nodes = len(lines) - 2 - edges
            if (nodes, edges) != (graph.nodes, graph.edges):
                problems.append(
                    f"{kind}/{graph.slug}.dot: {nodes} nodes, {edges} edges; "
                    f"planted {graph.nodes}, {graph.edges}"
                )
    return problems


def tree_digest(root: Path) -> tuple[int, str]:
    """File count and a digest of every path and byte under ``root``."""
    digest = hashlib.sha256()
    count = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
        count += 1
    return count, digest.hexdigest()
