"""Descriptive and inferential statistics: boxplot summaries, one-way
ANOVA, two-sample t-tests.

p-values come from the regularized incomplete beta function, evaluated
from first principles with the continued-fraction expansion (modified
Lentz iteration), so the package carries no statistics dependency.
Where every group is constant the statistic is undefined, whatever the
means: both tests raise instead of returning an infinite statistic. A
sum, mean or statistic past the float range raises DegenerateInput, so a
result always holds finite numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegenerateInput, DomainError, EmptyInput, ZeroVariance

_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 500

TTEST_VARIANTS = ("student", "welch")


@dataclass(frozen=True)
class BoxplotSummary:
    n: int
    mean: float
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


@dataclass(frozen=True)
class StatResult:
    """Outcome of one hypothesis test."""

    kind: str
    statistic: float
    df: tuple[float, ...]
    p: float
    n_per_group: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "test": self.kind,
            "statistic": self.statistic,
            "df": list(self.df),
            "p": self.p,
            "n_per_group": list(self.n_per_group),
        }


# --- special functions -------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
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
        # the even then the odd step of the fraction
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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
    return h


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b), accurate to better than 1e-10 absolute.

    Uses the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to keep the continued
    fraction in its fast-converging region.
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x={x} outside [0, 1]")
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"a={a}, b={b} must be positive")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def cdf_f(f: float, df1: float, df2: float) -> float:
    """CDF of the F distribution with (df1, df2) degrees of freedom."""
    if df1 <= 0 or df2 <= 0:
        raise DomainError("degrees of freedom must be positive")
    if f <= 0.0:
        return 0.0
    return regularized_incomplete_beta(
        df1 * f / (df1 * f + df2), df1 / 2.0, df2 / 2.0)


def _t_two_sided_p(t: float, df: float) -> float:
    return regularized_incomplete_beta(df / (df + t * t), df / 2.0, 0.5)


# --- descriptive -------------------------------------------------------------

def _quantile(sorted_values: Sequence[float], p: float) -> float:
    """Linear interpolation at rank p*(n-1) over sorted data."""
    n = len(sorted_values)
    h = p * (n - 1)
    lo = int(math.floor(h))
    if lo >= n - 1:
        return float(sorted_values[n - 1])
    frac = h - lo
    return float(sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo]))


def boxplot_summary(values: Sequence[float]) -> BoxplotSummary:
    """Five-number summary with Tukey fences at 1.5*IQR.

    Whiskers are clamped to the most extreme data points inside the
    fences; everything outside is listed as an outlier.
    """
    if len(values) == 0:
        raise EmptyInput("boxplot of an empty sample")
    data = sorted(float(v) for v in values)
    n = len(data)
    q1 = _quantile(data, 0.25)
    med = _quantile(data, 0.5)
    q3 = _quantile(data, 0.75)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = [v for v in data if lo_fence <= v <= hi_fence]
    outliers = tuple(v for v in data if v < lo_fence or v > hi_fence)
    return BoxplotSummary(
        n=n,
        mean=sum(data) / n,
        median=med,
        q1=q1,
        q3=q3,
        whisker_low=inside[0] if inside else q1,
        whisker_high=inside[-1] if inside else q3,
        outliers=outliers,
    )


# --- inferential -------------------------------------------------------------

def _finite(value: float, what: str) -> float:
    """``value``; DegenerateInput naming ``what`` when it is not finite."""
    if not math.isfinite(value):
        raise DegenerateInput(f"{what} overflows the float range")
    return value


def _finite_sum(terms: Iterable[float], what: str) -> float:
    """``sum(terms)``; DegenerateInput naming ``what`` when it overflows.

    Float ``**`` raises OverflowError where ``+`` and ``*`` give inf, so
    both ways of leaving the float range end here.
    """
    try:
        total = sum(terms)
    except OverflowError:
        total = math.inf
    return _finite(total, what)


def _mean(xs: Sequence[float]) -> float:
    return _finite_sum(xs, "mean") / len(xs)


def anova_oneway(groups: Sequence[Sequence[float]]) -> StatResult:
    """Between-groups one-way ANOVA: F = MSB/MSW, p = 1 - CDF_F(F).

    Zero within-group variance leaves F undefined and raises
    DegenerateInput, whether or not the group means differ.
    """
    if len(groups) < 2:
        raise DegenerateInput("ANOVA needs at least 2 groups")
    ns = [len(g) for g in groups]
    if any(n < 2 for n in ns):
        raise DegenerateInput("every ANOVA group needs at least 2 values")
    total_n = sum(ns)
    grand = _finite_sum((sum(g) for g in groups), "grand mean") / total_n
    means = [_mean(g) for g in groups]
    ssb = _finite_sum((n * (m - grand) ** 2 for n, m in zip(ns, means)),
                      "between-group sum of squares")
    ssw = _finite_sum((sum((x - m) ** 2 for x in g)
                       for g, m in zip(groups, means)),
                      "within-group sum of squares")
    df_b = len(groups) - 1
    df_w = total_n - len(groups)
    msb = ssb / df_b
    msw = ssw / df_w
    if msw == 0.0:
        raise DegenerateInput("all values identical: F undefined"
                              if msb == 0.0 else
                              "every group constant: F undefined")
    # a tiny positive msw can still send F past the float range
    f = _finite(msb / msw, "F statistic")
    p = 1.0 - cdf_f(f, df_b, df_w)
    return StatResult("anova", f, (float(df_b), float(df_w)), p, tuple(ns))


def ttest_two_sample(a: Sequence[float], b: Sequence[float],
                     variant: str = "student") -> StatResult:
    """Two-sided unpaired t-test.

    ``student`` pools the variances (df = n_a + n_b - 2); ``welch`` uses
    the Welch-Satterthwaite degrees of freedom. A zero standard error
    (both samples constant) leaves t undefined and raises ZeroVariance,
    whether or not the means differ.
    """
    if variant not in TTEST_VARIANTS:
        raise ValueError(f"unknown t-test variant {variant!r}")
    n_a, n_b = len(a), len(b)
    if n_a < 2 or n_b < 2:
        raise DegenerateInput("each sample needs at least 2 values")
    m_a, m_b = _mean(a), _mean(b)
    var_a = _finite_sum(((x - m_a) ** 2 for x in a), "sum of squares") / (n_a - 1)
    var_b = _finite_sum(((x - m_b) ** 2 for x in b), "sum of squares") / (n_b - 1)

    if variant == "student":
        df = float(n_a + n_b - 2)
        pooled = _finite_sum(((n_a - 1) * var_a, (n_b - 1) * var_b),
                             "pooled sum of squares") / df
        se = math.sqrt(pooled * (1.0 / n_a + 1.0 / n_b))
    else:
        sa, sb = var_a / n_a, var_b / n_b
        se = math.sqrt(sa + sb)
    if se == 0.0:
        raise ZeroVariance("both samples constant and equal: t undefined"
                           if m_a == m_b else
                           "both samples constant: t undefined")
    if variant == "welch":
        try:
            df = (sa + sb) ** 2 / (sa ** 2 / (n_a - 1) + sb ** 2 / (n_b - 1))
        except (OverflowError, ZeroDivisionError):
            raise DegenerateInput("Welch degrees of freedom leave the "
                                  "float range") from None
    t = _finite((m_a - m_b) / se, "t statistic")
    return StatResult(f"ttest-{variant}", t, (df,), _t_two_sided_p(t, df),
                      (n_a, n_b))
