"""Correlation and correlation-comparison statistics.

Everything here is self-contained: the Student t CDF is evaluated through
the regularized incomplete beta function (continued fraction, modified
Lentz), and the normal CDF through ``math.erfc``.  No external stats
packages are involved, so results are reproducible bit-for-bit across
environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Sequence

from .errors import ConfigError, DegeneracyError

_SQRT2 = math.sqrt(2.0)
_CF_EPS = 3e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 500


def normal_cdf(z: float) -> float:
    """Standard normal CDF, Phi(z) = erfc(-z / sqrt(2)) / 2."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of ``normal_cdf`` for 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile defined on (0, 1), got {p!r}")
    # statistics, with the fractions and decimal it loads, only for compare
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def check_confidence(confidence: float) -> float:
    """``confidence`` when a two-sided interval can use it: above 0, and
    below 1 by enough that 0.5 + confidence / 2, the quantile's argument,
    stays below 1 in floating point.  Otherwise a ConfigError."""
    if not (confidence > 0.0 and 0.5 + confidence / 2.0 < 1.0):
        raise ConfigError(
            "confidence must be strictly between 0 and 1, with 0.5 + confidence / 2 "
            f"below 1 in floating point; got {confidence!r}"
        )
    return confidence


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even then the odd coefficient of step m; converged when the odd one's factor is 1
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta failed to converge (a={a}, b={b}, x={x})")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the branch where the continued fraction converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def t_sf(t: float, df: int) -> float:
    """Upper tail P(T > t) for Student's t with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if t == 0.0:
        return 0.5
    tail = 0.5 * reg_inc_beta(0.5 * df, 0.5, df / (df + t * t))
    return tail if t > 0 else 1.0 - tail


def t_cdf(t: float, df: int) -> float:
    """Student t CDF, via the regularized incomplete beta function."""
    return 1.0 - t_sf(t, df)


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Computed from compensated sums of centered products.  Requires at
    least two points and nonzero variance on both axes.  |r| may exceed 1
    only by floating rounding; it is clamped back within 1e-12 of 1 and
    anything worse is treated as a bug.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise DegeneracyError("correlation needs at least two points")
    mean_x = fsum(xs) / n
    mean_y = fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    sxx = fsum(d * d for d in dx)
    syy = fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegeneracyError("correlation undefined: zero variance")
    r = fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    if abs(r) > 1.0:
        if abs(r) - 1.0 > 1e-12:
            raise ArithmeticError(f"correlation left [-1, 1] by more than rounding: {r!r}")
        r = math.copysign(1.0, r)
    return r


def correlation_significance(r: float, n: int) -> tuple[float, float]:
    """t statistic and two-sided p-value for a sample correlation.

    t = r * sqrt((n - 2) / (1 - r^2)) on n - 2 degrees of freedom.
    Needs n >= 3 and |r| < 1.
    """
    if n < 3:
        raise DegeneracyError(f"significance needs n >= 3, got {n}")
    if abs(r) >= 1.0:
        raise DegeneracyError("significance undefined at |r| = 1")
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * t_sf(abs(t), n - 2)
    return t, min(p, 1.0)


def fisher_z(r: float) -> float:
    """Fisher's variance-stabilizing transform, z = atanh(r).  Needs |r| < 1."""
    if abs(r) >= 1.0:
        raise DegeneracyError(f"fisher transform undefined at r = {r!r}")
    return math.atanh(r)


def indep_groups_z_test(r1: float, n1: int, r2: float, n2: int) -> tuple[float, float]:
    """Compare two independent correlations on the Fisher z scale.

    z = (atanh(r1) - atanh(r2)) / sqrt(1/(n1-3) + 1/(n2-3)), with a
    two-sided normal p-value.  Antisymmetric in its arguments; needs both
    sample sizes above 3.
    """
    if n1 <= 3 or n2 <= 3:
        raise DegeneracyError(f"z test needs group sizes above 3, got {n1} and {n2}")
    se = math.sqrt(1.0 / (n1 - 3) + 1.0 / (n2 - 3))
    z = (fisher_z(r1) - fisher_z(r2)) / se
    p = 2.0 * normal_cdf(-abs(z))
    return z, p


def zou_interval(
    r1: float, n1: int, r2: float, n2: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Confidence interval for the difference r1 - r2 between two
    independent correlations.

    Each correlation gets its own Fisher-z interval, and the bounds are
    recombined around the point estimate:

        low  = (r1 - r2) - sqrt((r1 - l1)^2 + (u2 - r2)^2)
        high = (r1 - r2) + sqrt((u1 - r1)^2 + (r2 - l2)^2)

    The interval always contains r1 - r2 and shrinks as either sample
    grows.
    """
    check_confidence(confidence)
    if n1 <= 3 or n2 <= 3:
        raise DegeneracyError(f"interval needs group sizes above 3, got {n1} and {n2}")
    q = normal_quantile(0.5 + confidence / 2.0)
    l1, u1 = _single_fisher_interval(r1, n1, q)
    l2, u2 = _single_fisher_interval(r2, n2, q)
    diff = r1 - r2
    low = diff - math.sqrt((r1 - l1) ** 2 + (u2 - r2) ** 2)
    high = diff + math.sqrt((u1 - r1) ** 2 + (r2 - l2) ** 2)
    return low, high


def _single_fisher_interval(r: float, n: int, q: float) -> tuple[float, float]:
    z = fisher_z(r)
    half_width = q / math.sqrt(n - 3)
    return math.tanh(z - half_width), math.tanh(z + half_width)


def infer_group_n(z_observed: float, r1: float, r2: float) -> float:
    """Per-group sample size implied by an observed z score, assuming the
    two groups are the same size.

    Inverts the equal-size two-group z formula: with dz = atanh(r1) -
    atanh(r2) and z = dz / sqrt(2 / (n - 3)),

        n = 3 + 2 * (z_observed / dz)^2.

    Running the forward test with the inferred n (rounded) reproduces the
    observed z.  Undefined when the correlations are equal.
    """
    dz = fisher_z(r1) - fisher_z(r2)
    if dz == 0.0:
        raise DegeneracyError("cannot infer a sample size from equal correlations")
    if z_observed == 0.0:
        raise DegeneracyError("cannot infer a sample size from z = 0")
    return 3.0 + 2.0 * (z_observed / dz) ** 2


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation of sentiment against structure for one group."""

    group: str
    n: int
    r: float
    mean_x: float
    mean_y: float
    t_stat: float
    p_value: float


def correlation_report(
    group: str, xs: Sequence[float], ys: Sequence[float]
) -> CorrelationReport:
    """Correlate paired samples (x = beta, y = alpha) for one group."""
    try:
        r = pearson_r(xs, ys)
        t, p = correlation_significance(r, len(xs))
    except DegeneracyError as err:
        raise DegeneracyError(f"group {group!r}: {err}") from err
    return CorrelationReport(
        group=group,
        n=len(xs),
        r=r,
        mean_x=fsum(xs) / len(xs),
        mean_y=fsum(ys) / len(ys),
        t_stat=t,
        p_value=p,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Fisher z comparison of two groups' correlations, with a Zou interval."""

    group_a: str
    group_b: str
    z_score: float
    p_value: float
    zou_low: float
    zou_high: float
    confidence: float = 0.95


def compare_correlations(
    group_a: str,
    r1: float,
    n1: int,
    group_b: str,
    r2: float,
    n2: int,
    confidence: float = 0.95,
) -> ComparisonReport:
    z, p = indep_groups_z_test(r1, n1, r2, n2)
    low, high = zou_interval(r1, n1, r2, n2, confidence)
    return ComparisonReport(
        group_a=group_a,
        group_b=group_b,
        z_score=z,
        p_value=p,
        zou_low=low,
        zou_high=high,
        confidence=confidence,
    )
