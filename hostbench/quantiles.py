"""Harrell-Davis quantile estimator (pure Python).

The point-time percentiles are taken over one point per stratum of a
seeded draw, so a plain order statistic jumps with whichever point the
seed put at the percentile's rank.  The Harrell-Davis estimator weighs
every order statistic by a Beta((n+1)p, (n+1)(1-p)) distribution of
ranks, which keeps the estimate on the same quantile while spreading it
over the neighbouring ranks.
"""

from __future__ import annotations

import math
from typing import Iterable

_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            step = d * c
            h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values: Iterable[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(xs))
