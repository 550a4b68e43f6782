"""First-stage strategies: plain random arrays and Moser-Tardos resampling.

Every strategy is a Las-Vegas procedure made reproducible by deriving each
retry's RNG stream from (seed, attempt index) with numpy's PCG64 generator.
Interactions are always checked column-set-major in lexicographic order,
tuples by mixed-radix rank, so resampling revisits them in a fixed order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from . import bounds
from .coverage import _covered_mask, uncovered_list
from .groups import GroupKind, orbit_table
from .model import Parameters, binomial


class RetriesExhausted(Exception):
    """The random first stage never met its uncovered-count target."""


class IterationCapExceeded(Exception):
    """A resampling loop exceeded its safety cap."""


@dataclass(frozen=True)
class Stage1Config:
    n: int
    r: float
    max_retries: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n < 0 or self.r < 0:
            raise ValueError("n and r must be nonnegative")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def rand_first_stage(p: Parameters, group: GroupKind, cfg: Stage1Config):
    """Draw uniform n x k arrays until at most r orbits stay uncovered.

    Returns (array, report, attempts).  The coverage scan aborts as soon as
    the target is exceeded, so rejected attempts stay cheap.
    """
    for attempt in range(cfg.max_retries):
        rng = _rng(cfg.seed, attempt)
        array = rng.integers(0, p.v, size=(cfg.n, p.k), dtype=np.int64)
        report = uncovered_list(array, p, group, cap=int(cfg.r))
        if not report.truncated:
            return array, report, attempt + 1
    raise RetriesExhausted(
        f"no array with <= {cfg.r} uncovered orbits in {cfg.max_retries} tries"
    )


def mt_row_count(p: Parameters, group: GroupKind) -> int:
    """Rows for the resampling construction, with the per-orbit miss base
    substituted for the chosen group."""
    if p.k < 2 * p.t:
        raise ValueError("Moser-Tardos construction requires k >= 2t")
    _, full, _ = group.shape(p.t, p.v)
    dep = binomial(p.k, p.t) - binomial(p.k - p.t, p.t)
    L = bounds._orbit_log_base(p, group)
    return int(mp.ceil((mp.log(dep) + mp.log(full) + 1) / L))


def _resample(p: Parameters, table, wanted, n: int, seed: int,
              iteration_cap: int) -> np.ndarray:
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
                if resamples > iteration_cap:
                    raise IterationCapExceeded(f"more than {iteration_cap} resamples")
                break
        else:
            return array


def mt_construct(p: Parameters, group: GroupKind, seed: int = 0,
                 iteration_cap: int = 10**6) -> np.ndarray:
    """Resample the columns of the first uncovered orbit until none remains.

    The returned array covers every full orbit; developing it over the group
    yields a covering array.
    """
    n = mt_row_count(p, group)
    table = orbit_table(p.t, p.v, group)
    wanted = np.ones(table.n_orbits, dtype=bool)
    return _resample(p, table, wanted, n, seed, iteration_cap)


@dataclass(frozen=True)
class TupleSubset:
    """A set of m symbol t-tuples, stored as mixed-radix ranks."""

    ranks: tuple

    def __post_init__(self):
        if len(self.ranks) != len(set(self.ranks)) or not self.ranks:
            raise ValueError("tuple ranks must be distinct and nonempty")

    @classmethod
    def first(cls, m: int, t: int, v: int) -> "TupleSubset":
        if not 1 <= m <= v**t:
            raise ValueError("m must lie in [1, v^t]")
        return cls(tuple(range(m)))


def mt_first_stage(p: Parameters, subset: TupleSubset, seed: int = 0,
                   n: int | None = None, iteration_cap: int = 10**6):
    """Resample until every column t-set covers all tuples of ``subset``.

    Returns (array, report) where the report lists the interactions still
    uncovered (all of them necessarily outside the subset).  Row count
    defaults to the optimum found by ``bounds.lll_first_stage_n``.
    """
    if p.k < 2 * p.t:
        raise ValueError("mt_first_stage requires k >= 2t")
    if n is None:
        n, _ = bounds.lll_first_stage_n(p)
    table = orbit_table(p.t, p.v, GroupKind.TRIVIAL)
    wanted = np.zeros(table.n_orbits, dtype=bool)
    wanted[list(subset.ranks)] = True
    array = _resample(p, table, wanted, n, seed, iteration_cap)
    return array, uncovered_list(array, p, GroupKind.TRIVIAL)
