"""Descriptive statistics and the unpaired two-sample t-test.

The test compares two topic score distributions and reports a two-sided
p-value. Two variants are supported:

- ``student_pooled`` or ``student`` (default): pooled variance, df = n_a + n_b - 2.
- ``welch``: separate variances with Welch-Satterthwaite degrees of freedom.

The p-value comes from the t cumulative distribution, evaluated through
the regularized incomplete beta function (continued-fraction expansion).
For df <= 4000 it is within 2e-12 absolute when |t| >= 0.1. Nearer 0, 1 - x
cancels for x = df/(df + t^2): at df = 4000 the error is about 1e-13/|t|, up to 4e-7. Two
constant samples (by their values: the rounded mean of three 0.1s is not
0.1) give a defined result instead of NaN: equal values yield t = 0, p = 1;
unequal values yield p = 0 with the ``degenerate`` flag set.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Collection, Sequence

from .errors import DataError, Record, UsageError

VARIANTS = {"student": "student_pooled", "student_pooled": "student_pooled", "welch": "welch"}

_CF_TINY = 1e-300
_CF_EPS = 1e-15
_CF_MAX_ITER = 500


class TTestResult(
    Record,
    namedtuple(
        "TTestResult",
        "t_statistic degrees_of_freedom p_value variant degenerate",
        defaults=(False,),
    ),
):
    __slots__ = ()


def mean(sample: Collection[float]) -> float:
    """Arithmetic mean via an exactly rounded sum (order-independent)."""
    if len(sample) < 1:
        raise DataError("mean needs at least one observation")
    return math.fsum(sample) / len(sample)


def variance(sample: Sequence[float]) -> float:
    """Unbiased sample variance (n - 1 denominator)."""
    if len(sample) < 2:
        raise DataError("variance needs at least two observations")
    center = mean(sample)
    return math.fsum((x - center) ** 2 for x in sample) / (len(sample) - 1)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function, evaluated with
    the modified Lentz method. Converges quickly for x < (a + 1)/(a + b + 2).
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for numerator in (even, odd):
            d = 1.0 + numerator * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + numerator / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function for a, b > 0 and
    x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise DataError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DataError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability 2 * (1 - CDF(|t|)) of Student's t with df > 0,
    computed directly on the beta scale to avoid cancellation."""
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def check_t_variant(name: str) -> str:
    """The t-test variant that ``name`` selects; a UsageError if it names none."""
    if name not in VARIANTS:
        raise UsageError(f"unknown t-test variant {name!r}; expected one of {sorted(VARIANTS)}")
    return VARIANTS[name]


def t_test_unpaired(
    a: Sequence[float], b: Sequence[float], variant: str = "student_pooled"
) -> TTestResult:
    """Two-sided unpaired t-test between two samples of size >= 2 each."""
    variant = check_t_variant(variant)
    n_a, n_b = len(a), len(b)
    if n_a < 2 or n_b < 2:
        raise DataError(f"both samples need >= 2 observations, got {n_a} and {n_b}")
    constant = min(a) == max(a) and min(b) == max(b)
    mean_a, mean_b = (a[0], b[0]) if constant else (mean(a), mean(b))
    var_a, var_b = (0.0, 0.0) if constant else (variance(a), variance(b))
    diff = mean_a - mean_b

    if var_a == 0.0 and var_b == 0.0:
        df = float(n_a + n_b - 2)
        if diff == 0.0:
            return TTestResult(0.0, df, 1.0, variant)
        return TTestResult(math.copysign(math.inf, diff), df, 0.0, variant, degenerate=True)

    if variant == "student_pooled":
        pooled = ((n_a - 1) * var_a + (n_b - 1) * var_b) / (n_a + n_b - 2)
        se = math.sqrt(pooled * (1.0 / n_a + 1.0 / n_b))
        df = float(n_a + n_b - 2)
    else:
        term_a, term_b = var_a / n_a, var_b / n_b
        se = math.sqrt(term_a + term_b)
        df = (term_a + term_b) ** 2 / (
            term_a**2 / (n_a - 1) + term_b**2 / (n_b - 1)
        )
    t = diff / se
    return TTestResult(t, df, two_sided_p(t, df), variant)
