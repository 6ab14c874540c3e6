"""Shared summary statistics for Monte Carlo results.

scipy serves only the Student-t quantile, through ``scipy.special.stdtrit``
(the function behind ``scipy.stats.t.ppf``, and bit-equal to it). A
``Summary`` holds the mean, standard error, level and sample count, and
computes its interval the first time ``ci_low`` or ``ci_high`` is read; only
then is scipy imported. So importing the package, ``train``, ``baseline``,
``convergence`` and library ``evaluate`` calls load no scipy. The commands
that read a bound load it: ``eval``, and ``sweep``, ``virtual-compare`` and
``waterfall`` with two or more repetitions.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

__all__ = ["Summary", "t_interval"]


@dataclass(frozen=True)
class Summary:
    """Mean with a Student-t confidence interval at ``level``."""

    mean: float
    stderr: float
    level: float
    n: int

    @cached_property
    def half_width(self) -> float:
        """Half the interval's width: infinite for a single sample."""
        if self.n == 1:
            return math.inf
        # Imported here: scipy.special takes longer to load than the rest of the package.
        from scipy.special import stdtrit

        return float(stdtrit(self.n - 1, 0.5 + self.level / 2.0)) * self.stderr

    @property
    def ci_low(self) -> float:
        return self.mean - self.half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.half_width


def t_interval(samples, level: float = 0.975) -> Summary:
    """Student-t confidence interval at the given two-sided confidence level.

    ``samples`` is a one-dimensional sequence or array of floats, or an
    iterator of them, which is consumed once. A float64 array is not copied.
    The level and the samples are checked here, not when a bound is read.
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
        return Summary(mean, math.inf, level, 1)
    se = float(x.std(ddof=1) / math.sqrt(x.size))
    return Summary(mean, se, level, x.size)
