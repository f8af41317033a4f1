"""Independent reference implementations, used only to check the library.

Each oracle takes a deliberately different route from the code under test:
the interaction graph is collected as sets of handles instead of numbering
handles as they are met, component counts come from a transitive-closure
matrix instead of Tarjan or union-find, text is cleaned character by
character instead of by one token regex, the synth valence pick scans every
valence instead of stopping early, synth's text draws go through
random.Random's own choice, randint and shuffle, fixture lines come from
json.dumps of a record dict instead of quoting each field, the Pearson
coefficient is accumulated in exact rational arithmetic, the t-distribution
tail is numerically integrated rather than evaluated through the incomplete
beta function, and the interval formulas are recomputed in mpmath at high
precision.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from math import fsum
from typing import Mapping, Sequence

import mpmath as mp

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_LOOSE_APOSTROPHE_RE = re.compile(r"(?<![0-9a-z])'|'(?![0-9a-z])")


def reference_clean_text(raw: str) -> str:
    """Status text cleaned one character at a time: URLs and @-mentions
    dropped, lowercased, every character that is neither alphanumeric nor
    an apostrophe made a space, then apostrophes without an ASCII letter
    or digit on both sides made spaces, whitespace collapsed."""
    text = _URL_RE.sub(" ", raw)
    text = _MENTION_RE.sub(" ", text)
    text = text.replace("’", "'").lower()
    chars = [ch if ch == "'" or ch.isalnum() else " " for ch in text]
    text = _LOOSE_APOSTROPHE_RE.sub(" ", "".join(chars))
    return " ".join(text.split())


def reference_score_text(raw: str, entries: Mapping[str, float]) -> float:
    cleaned = reference_clean_text(raw)
    if not cleaned:
        return 0.0
    return fsum(entries.get(token, 0.0) for token in cleaned.split(" "))


def reference_graph(
    records: Sequence[Sequence], kinds: Sequence[str], include_isolates: bool
) -> tuple[set[str], list[tuple[str, str, str]]]:
    """(nodes, (author, target, kind) edges in file order) of records in
    Status field order: one edge per reference of a selected kind, taken in
    the order reply, mentions, retweet, quote; referenced handles always
    nodes, authors only with an edge or ``include_isolates``."""
    nodes: set[str] = set()
    edges = []
    for _, _, author, _, reply_to, mentions, retweet_of, quote_of in records:
        targets = [("reply", reply_to), *(("mention", m) for m in mentions)]
        for kind, target in targets + [("retweet", retweet_of), ("quote", quote_of)]:
            if target is None or kind not in kinds:
                continue
            edges.append((author, target, kind))
            nodes.update((author, target))
        if include_isolates:
            nodes.add(author)
    return nodes, edges


def closure_relations(
    nodes: Sequence, pairs: Sequence[tuple]
) -> tuple[list, list[list[bool]], list[list[bool]]]:
    """(sorted nodes, same_strong, same_weak) via Floyd-Warshall reachability:
    ``same_strong[i][j]`` when nodes i and j reach each other, ``same_weak[i][j]``
    when they are joined with edge direction ignored."""
    order = sorted(set(nodes))
    ix = {node: i for i, node in enumerate(order)}
    n = len(order)
    reach = [[False] * n for _ in range(n)]
    both = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
        both[i][i] = True
    for src, dst in pairs:
        reach[ix[src]][ix[dst]] = True
        both[ix[src]][ix[dst]] = True
        both[ix[dst]][ix[src]] = True
    for mat in (reach, both):
        for k in range(n):
            row_k = mat[k]
            for i in range(n):
                if mat[i][k]:
                    row_i = mat[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
    same_strong = [[reach[i][j] and reach[j][i] for j in range(n)] for i in range(n)]
    return order, same_strong, both


def closure_component_counts(
    nodes: Sequence[str], pairs: Sequence[tuple[str, str]]
) -> tuple[int, int]:
    """(strong, weak) component counts from closure_relations."""
    order, same_strong, same_weak = closure_relations(nodes, pairs)
    counts = []
    for same in (same_strong, same_weak):
        seen: set[int] = set()
        count = 0
        for i in range(len(order)):
            if i in seen:
                continue
            count += 1
            seen.update(j for j in range(len(order)) if same[i][j])
        counts.append(count)
    return counts[0], counts[1]


def reference_fixture_line(fields: Sequence) -> str:
    """One fixture line for a status's fields (in Status field order): a
    record dict through json.dumps, each optional field left out when unset."""
    status_id, text, author, created_at, reply_to, mentions, retweet_of, quote_of = fields
    record = {"id": status_id, "text": text, "author": author}
    if created_at is not None:
        record["created_at"] = created_at.isoformat()
    if reply_to is not None:
        record["reply_to"] = reply_to
    if mentions:
        record["mentions"] = list(mentions)
    if retweet_of is not None:
        record["retweet_of"] = retweet_of
    if quote_of is not None:
        record["quote_of"] = quote_of
    return json.dumps(record, ensure_ascii=False) + "\n"


def reference_closest_valence(
    remaining: float, valences: Sequence[tuple[float, list[str]]]
) -> tuple[float, list[str]] | None:
    """The synth corpus steering's greedy pick, scanning every valence: the
    first (valence, tokens) to cut the gap to ``remaining`` by more than
    1e-15 below the best so far, starting from ``abs(remaining)``."""
    best = None
    best_gap = abs(remaining)
    for valence, tokens in valences:
        gap = abs(remaining - valence)
        if gap < best_gap - 1e-15:
            best = (valence, tokens)
            best_gap = gap
    return best


def reference_corpus_texts(steering, palette, rng) -> list[str]:
    """synth's texts for a steering plan, drawn through ``rng``'s own
    ``choice``, ``random``, ``randint`` and ``shuffle``: each plan's
    sentiment words, the canceling pair, 3-6 fillers, then the shuffle."""
    _, pairs, filler = palette
    texts = []
    for sources in steering:
        words = [rng.choice(tokens) for tokens in sources]
        if pairs and rng.random() < 0.35:
            positive, negative = rng.choice(pairs)
            words += [rng.choice(positive), rng.choice(negative)]
        words += [rng.choice(filler) for _ in range(rng.randint(3, 6))]
        rng.shuffle(words)
        texts.append(" ".join(words))
    return texts


def rational_pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson r with every sum carried as an exact Fraction.

    Only the final square root happens in floating point.
    """
    n = len(xs)
    fx = [Fraction(x) for x in xs]
    fy = [Fraction(y) for y in ys]
    mx = sum(fx) / n
    my = sum(fy) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    sxx = sum((a - mx) ** 2 for a in fx)
    syy = sum((b - my) ** 2 for b in fy)
    if sxx == 0 or syy == 0:
        raise ZeroDivisionError("zero variance")
    return float(sxy) / math.sqrt(float(sxx) * float(syy))


def _t_pdf(x: float, df: int) -> float:
    ln = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - ((df + 1) / 2.0) * math.log1p(x * x / df)
    )
    return math.exp(ln)


def _adaptive_simpson(f, a: float, b: float, eps: float, depth: int) -> float:
    c = (a + b) / 2.0
    fa, fb, fc = f(a), f(b), f(c)
    whole = (b - a) / 6.0 * (fa + 4.0 * fc + fb)

    def recurse(a, b, fa, fb, fc, whole, eps, depth):
        c = (a + b) / 2.0
        left_mid = (a + c) / 2.0
        right_mid = (c + b) / 2.0
        flm, frm = f(left_mid), f(right_mid)
        left = (c - a) / 6.0 * (fa + 4.0 * flm + fc)
        right = (b - c) / 6.0 * (fc + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) < 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, c, fa, fc, flm, left, eps / 2.0, depth - 1) + recurse(
            c, b, fc, fb, frm, right, eps / 2.0, depth - 1
        )

    return recurse(a, b, fa, fb, fc, whole, eps, depth)


def integrated_two_sided_p(t: float, df: int) -> float:
    """Two-sided t-test p-value by quadrature of the density."""
    if t == 0.0:
        return 1.0
    body = _adaptive_simpson(lambda x: _t_pdf(x, df), 0.0, abs(t), 1e-13, 40)
    return 1.0 - 2.0 * body


def mp_normal_cdf(z: float) -> float:
    return float(0.5 * mp.erfc(-z / mp.sqrt(2)))


def mp_zou_interval(
    r1: float, n1: int, r2: float, n2: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Interval for r1 - r2, recomputed from the formula at 50 digits."""
    with mp.workdps(50):
        q = mp.sqrt(2) * mp.erfinv(mp.mpf(confidence))
        z1, z2 = mp.atanh(r1), mp.atanh(r2)
        h1, h2 = q / mp.sqrt(n1 - 3), q / mp.sqrt(n2 - 3)
        l1, u1 = mp.tanh(z1 - h1), mp.tanh(z1 + h1)
        l2, u2 = mp.tanh(z2 - h2), mp.tanh(z2 + h2)
        diff = mp.mpf(r1) - mp.mpf(r2)
        low = diff - mp.sqrt((r1 - l1) ** 2 + (u2 - r2) ** 2)
        high = diff + mp.sqrt((u1 - r1) ** 2 + (r2 - l2) ** 2)
        return float(low), float(high)


def mp_z_test(r1: float, n1: int, r2: float, n2: int) -> tuple[float, float]:
    with mp.workdps(50):
        se = mp.sqrt(mp.mpf(1) / (n1 - 3) + mp.mpf(1) / (n2 - 3))
        z = (mp.atanh(r1) - mp.atanh(r2)) / se
        p = mp.erfc(abs(z) / mp.sqrt(2))
        return float(z), float(p)
