"""Small statistical helpers: normal distribution functions and run summaries."""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def norm_pdf(z) -> np.ndarray:
    """Standard normal probability density function."""
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT2PI


def norm_cdf(z) -> np.ndarray:
    """Standard normal cumulative distribution function (via erf)."""
    z = np.asarray(z, dtype=float)
    try:
        from scipy.special import erf
        return 0.5 * (1.0 + erf(z / _SQRT2))
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return 0.5 * (1.0 + np.vectorize(math.erf)(z / _SQRT2))


def norm_logpdf(x, mean, var) -> np.ndarray:
    """Log density of ``N(mean, var)`` evaluated at ``x`` (elementwise)."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    var = np.maximum(np.asarray(var, dtype=float), 1e-12)
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def running_best(values, minimize: bool = False) -> np.ndarray:
    """Cumulative best-so-far curve of ``values``.

    This is the standard "performance versus simulation budget" curve used
    throughout the paper's figures.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.copy()
    return np.minimum.accumulate(values) if minimize else np.maximum.accumulate(values)


def summarize_runs(curves) -> dict[str, np.ndarray]:
    """Aggregate repeated-run curves into per-budget statistics.

    Each budget is summarised over its *finite* entries only.  A best-so-far
    curve sits at its problem's ``worst_objective`` (``+inf`` or ``-inf``)
    until the run finds a feasible design, so ``mean``/``std``/``median``/
    ``min``/``max`` describe the seeds that have one and ``count`` says how
    many those are.  At a budget where no run is finite, ``count`` is 0,
    ``std`` is 0 and the other statistics repeat the first run's infinite
    sentinel (``+inf`` if it is NaN), so the summary never holds NaN.

    Parameters
    ----------
    curves:
        A sequence of equal-length 1-D arrays, one per random seed.
    """
    arr = np.asarray([np.asarray(c, dtype=float) for c in curves])
    if arr.ndim != 2:
        raise ValueError("curves must be a sequence of equal-length 1-D arrays")
    finite = np.isfinite(arr)
    count = finite.sum(axis=0)
    n = np.maximum(count, 1)
    columns = np.arange(arr.shape[1])
    # Non-finite entries sort last, so each budget's finite values lead.
    ranked = np.sort(np.where(finite, arr, np.inf), axis=0)
    mean = np.where(finite, arr, 0.0).sum(axis=0) / n
    deviation = np.where(finite, arr - mean, 0.0)
    stats = {
        "mean": mean,
        "std": np.sqrt((deviation * deviation).sum(axis=0) / n),
        "median": (ranked[(n - 1) // 2, columns] + ranked[n // 2, columns]) / 2.0,
        "min": ranked[0],
        "max": ranked[n - 1, columns],
    }
    empty = count == 0
    sentinel = np.where(np.isnan(arr[0]), np.inf, arr[0])[empty]
    for key, stat in stats.items():
        stat[empty] = 0.0 if key == "std" else sentinel
    return {**stats, "count": count}
