"""Small statistical helpers: binomial intervals and paired errors."""

import math

import numpy as np


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at 95%."""
    if n <= 0:
        return 0.0, 1.0
    z = 1.96
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def binomial_se(successes: int, n: int) -> float:
    if n <= 0:
        return 0.0
    p = successes / n
    return math.sqrt(p * (1.0 - p) / n)


def paired_se(differences) -> float:
    """Standard error of a mean of paired differences."""
    arr = np.asarray(differences, dtype=float)
    if arr.size < 2:
        return 0.0
    return float(arr.std(ddof=1) / math.sqrt(arr.size))
