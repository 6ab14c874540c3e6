"""Shared summary statistics for Monte Carlo results.

scipy serves only the Student-t quantile, through ``scipy.special.stdtrit``
(the function behind ``scipy.stats.t.ppf``, and bit-equal to it). It is
imported the first time an interval over two or more samples is computed, so
importing the package, and commands that compute no interval, load no scipy.
"""

from collections.abc import Iterator
from dataclasses import dataclass
import math

import numpy as np

__all__ = ["Summary", "t_interval"]


@dataclass(frozen=True)
class Summary:
    """Mean with a Student-t confidence interval."""

    mean: float
    stderr: float
    ci_low: float
    ci_high: float
    level: float
    n: int


def t_interval(samples, level: float = 0.975) -> Summary:
    """Student-t confidence interval at the given two-sided confidence level.

    ``samples`` is a one-dimensional sequence or array of floats, or an
    iterator of them, which is consumed once. A float64 array is not copied.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    if isinstance(samples, Iterator):
        samples = list(samples)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {x.shape}")
    if x.size < 1:
        raise ValueError("need at least one sample")
    mean = float(x.mean())
    if x.size == 1:
        return Summary(mean, math.inf, -math.inf, math.inf, level, 1)
    # Imported here: scipy.special takes longer to load than the rest of the package.
    from scipy.special import stdtrit

    se = float(x.std(ddof=1) / math.sqrt(x.size))
    half = float(stdtrit(x.size - 1, 0.5 + level / 2.0)) * se
    return Summary(mean, se, mean - half, mean + half, level, x.size)
