"""First-stage strategies: plain random arrays and Moser-Tardos resampling.

Both are Las-Vegas procedures, made reproducible by numpy PCG64 streams
seeded from (seed, attempt) and by ``iter_uncovered``'s fixed item order.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds
from .coverage import iter_uncovered, uncovered_list
from .groups import GroupKind, orbit_table
from .model import CoverageReport, Parameters

#: Random first-stage attempts before ``RetriesExhausted``.
MAX_RETRIES = 20
#: Moser-Tardos resamples before ``IterationCapExceeded``.
ITERATION_CAP = 10**6


class RetriesExhausted(Exception):
    """The random first stage never met its uncovered-count target."""


class IterationCapExceeded(Exception):
    """A resampling loop exceeded its safety cap."""


def _rows(rng, n: int, width: int, v: int) -> np.ndarray:
    if n * width * 8 > np.iinfo(np.intp).max:  # numpy would raise ValueError
        raise MemoryError(f"{n} x {width} int64 symbols exceed numpy's index range")
    return rng.integers(0, v, size=(n, width), dtype=np.int64)


def rand_first_stage(p: Parameters, group: GroupKind, n: int, r: float,
                     seed: int = 0):
    """Draw uniform n x k arrays, attempt a from the stream (seed, a), until
    at most r orbits stay uncovered.  Returns (array, report, attempts)."""
    if n < 0 or r < 0:
        raise ValueError("n and r must be nonnegative")
    for attempt in range(MAX_RETRIES):
        array = _rows(np.random.default_rng([seed, attempt]), n, p.k, p.v)
        report = uncovered_list(array, p, group, cap=int(r))
        if not report.truncated:
            return array, report, attempt + 1
    raise RetriesExhausted(f"no array with <= {r} uncovered orbits in {MAX_RETRIES} tries")


def _resample(p: Parameters, group: GroupKind, n: int, m: int, seed: int):
    """Moser-Tardos: draw n rows, then resample the columns of the first
    uncovered orbit whose representative ranks below ``m`` until a pass finds
    none.  Returns (array, report of what that last pass left uncovered)."""
    rng = np.random.default_rng([seed, 0])
    array = _rows(rng, n, p.k, p.v)
    radix = orbit_table(p.t, p.v, group).radix
    for _ in range(ITERATION_CAP + 1):
        report = CoverageReport()
        for item in iter_uncovered(array, p, group):
            if np.dot(item.symbols, radix) < m:
                array[:, item.columns] = _rows(rng, n, p.t, p.v)
                break
            report.uncovered.append(item)
        else:
            return array, report
    raise IterationCapExceeded(f"more than {ITERATION_CAP} resamples")


def mt_construct(p: Parameters, group: GroupKind, seed: int = 0):
    """Resample ceil(``bounds.gss_bound``) rows until every full orbit is
    covered, so developing the array gives a covering array.  Returns
    (array, empty report); raises ValueError when k < 2t."""
    return _resample(p, group, math.ceil(bounds.gss_bound(p, group)), p.v**p.t, seed)


def mt_first_stage(p: Parameters, seed: int = 0):
    """Resample n rows until every column t-set covers the first m tuple
    ranks, (n, m) from ``bounds.lll_first_stage_n`` (ValueError when k < 2t).
    Returns (array, report of what the last pass left, all ranked >= m)."""
    n, m = bounds.lll_first_stage_n(p)
    return _resample(p, GroupKind.TRIVIAL, n, m, seed)
