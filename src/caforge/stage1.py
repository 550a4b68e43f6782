"""First-stage strategies: plain random arrays and Moser-Tardos resampling.

Every strategy is a Las-Vegas procedure made reproducible by deriving each
retry's RNG stream from (seed, attempt index) with numpy's PCG64 generator.
Interactions are always checked column-set-major in lexicographic order,
tuples by mixed-radix rank, so resampling revisits them in a fixed order.
"""

from __future__ import annotations

import itertools

import numpy as np
from mpmath import mp

from . import bounds
from .coverage import _covered_mask, uncovered_list
from .groups import GroupKind, orbit_table
from .model import Parameters

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


def mt_row_count(p: Parameters, group: GroupKind) -> int:
    """Rows for the resampling construction, with the per-orbit miss base
    substituted for the chosen group."""
    if p.k < 2 * p.t:
        raise ValueError("Moser-Tardos construction requires k >= 2t")
    _, full, _ = group.shape(p.t, p.v)
    L = bounds._orbit_log_base(p, group)
    return int(mp.ceil((mp.log(bounds._dep_degree(p)) + mp.log(full) + 1) / L))


def _resample(p: Parameters, table, wanted, n: int, seed: int) -> np.ndarray:
    """Moser-Tardos: draw n random rows, then resample the columns of the
    first column t-set (in lexicographic order) that misses a ``wanted``
    orbit, until no column t-set does."""
    rng = _rng(seed, 0)
    array = rng.integers(0, p.v, size=(n, p.k), dtype=np.int64)
    colsets = [list(c) for c in itertools.combinations(range(p.k), p.t)]
    resamples = 0
    while True:
        for cols in colsets:
            if not _covered_mask(array, cols, table)[wanted].all():
                array[:, cols] = rng.integers(0, p.v, size=(n, p.t), dtype=np.int64)
                resamples += 1
                if resamples > ITERATION_CAP:
                    raise IterationCapExceeded(f"more than {ITERATION_CAP} resamples")
                break
        else:
            return array


def mt_construct(p: Parameters, group: GroupKind, seed: int = 0) -> np.ndarray:
    """Resample the columns of the first uncovered orbit until none remains.

    The returned array covers every full orbit; developing it over the group
    yields a covering array.
    """
    n = mt_row_count(p, group)
    table = orbit_table(p.t, p.v, group)
    wanted = np.ones(table.n_orbits, dtype=bool)
    return _resample(p, table, wanted, n, seed)


def mt_first_stage(p: Parameters, seed: int = 0):
    """Resample until every column t-set covers the first m tuple ranks,
    with (n, m) the optimum of ``bounds.lll_first_stage_n``.

    Returns (array, report) where the report lists the interactions still
    uncovered (all of them necessarily outside the first m ranks).  Like
    ``lll_first_stage_n``, it raises ValueError when k < 2t.
    """
    n, m = bounds.lll_first_stage_n(p)
    table = orbit_table(p.t, p.v, GroupKind.TRIVIAL)
    wanted = np.arange(table.n_orbits) < m
    array = _resample(p, table, wanted, n, seed)
    return array, uncovered_list(array, p, GroupKind.TRIVIAL)
