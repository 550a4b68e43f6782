"""First-stage strategies: plain random arrays and Moser-Tardos resampling.

Every strategy is a Las-Vegas procedure made reproducible by deriving each
retry's RNG stream from (seed, attempt index) with numpy's PCG64 generator.
Interactions are always checked column-set-major in lexicographic order,
tuples by mixed-radix rank, so resampling revisits them in a fixed order.
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


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def rand_first_stage(p: Parameters, group: GroupKind, n: int, r: float,
                     seed: int = 0):
    """Draw uniform n x k arrays until at most r orbits stay uncovered.

    Returns (array, report, attempts).  The coverage scan aborts as soon as
    the target is exceeded, but that happens late: at r = 2 rho a rejected
    attempt still scans most of the column t-sets (94% on average at
    Frobenius (5,16,5)).
    """
    if n < 0 or r < 0:
        raise ValueError("n and r must be nonnegative")
    for attempt in range(MAX_RETRIES):
        array = _rng(seed, attempt).integers(0, p.v, size=(n, p.k), dtype=np.int64)
        report = uncovered_list(array, p, group, cap=int(r))
        if not report.truncated:
            return array, report, attempt + 1
    raise RetriesExhausted(f"no array with <= {r} uncovered orbits in {MAX_RETRIES} tries")


def _resample(p: Parameters, group: GroupKind, n: int, m: int, seed: int):
    """Moser-Tardos: draw n random rows, then resample the columns of the
    first uncovered orbit whose representative ranks below ``m``, until a
    whole pass finds none.  Returns (array, report of the orbits that last
    pass left uncovered)."""
    rng = _rng(seed, 0)
    array = rng.integers(0, p.v, size=(n, p.k), dtype=np.int64)
    radix = orbit_table(p.t, p.v, group).radix
    for _ in range(ITERATION_CAP + 1):
        report = CoverageReport()
        for item in iter_uncovered(array, p, group):
            if np.dot(item.symbols, radix) < m:
                array[:, item.columns] = rng.integers(0, p.v, size=(n, p.t), dtype=np.int64)
                break
            report.uncovered.append(item)
        else:
            return array, report
    raise IterationCapExceeded(f"more than {ITERATION_CAP} resamples")


def mt_construct(p: Parameters, group: GroupKind, seed: int = 0):
    """Resample the columns of the first uncovered orbit until none remains.

    Draws ceil(``bounds.gss_bound``) rows and returns (array, report).  The
    array covers every full orbit, so the report is empty and developing the
    array yields a covering array.  Raises ValueError when k < 2t.
    """
    return _resample(p, group, math.ceil(bounds.gss_bound(p, group)), p.v**p.t, seed)


def mt_first_stage(p: Parameters, seed: int = 0):
    """Resample until every column t-set covers the first m tuple ranks,
    with (n, m) the optimum of ``bounds.lll_first_stage_n``.

    Returns (array, report), the report listing what the last pass left
    uncovered (necessarily outside the first m ranks).  Like
    ``lll_first_stage_n``, it raises ValueError when k < 2t.
    """
    n, m = bounds.lll_first_stage_n(p)
    return _resample(p, GroupKind.TRIVIAL, n, m, seed)
