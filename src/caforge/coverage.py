"""Memory-lean coverage checking: ``iter_uncovered`` is the package's one
loop over column t-sets.  It ranks them in lexicographic batches and yields
uncovered orbits by column-set rank, then orbit.  It holds a snapshot of the
array as int32 columns (int64 when v^t >= 2^31), plus three batch matrices
of at most ``BATCH_CELLS`` cells (one t-set's n cells when n is larger).
"""

from __future__ import annotations

import itertools

import numpy as np

from .groups import GroupKind, orbit_table
from .model import CoverageReport, Interaction, Parameters

#: A batch holds max(1, BATCH_CELLS // max(n, orbits + 1)) column t-sets.
BATCH_CELLS = 1 << 16


def _uncovered(columns, tsets, table, v, work):
    """(t-set index, orbit) pairs that no row hits, in row-major order.  The
    ``work`` matrices serve every batch, sparing an allocation and its page
    faults per batch.  Mode "wrap" lets ``take`` write to them unbuffered."""
    idx = np.array(tsets).T
    ranks, column, slots = (w[:len(tsets)] for w in work)
    columns.take(idx[0], axis=0, out=ranks, mode="wrap")
    for c in idx[1:]:
        ranks *= v
        ranks += columns.take(c, axis=0, out=column, mode="wrap")
    # Each t-set gets a row of slots; slot 0 takes the short orbits (-1).
    width = table.n_orbits + 1
    table.orbit_of.take(ranks, out=slots, mode="wrap")
    slots += np.arange(1, len(tsets) * width, width)[:, None]
    covered = np.zeros((len(tsets), width), dtype=bool)
    covered.ravel()[slots] = True
    return np.nonzero(~covered[:, 1:])


def iter_uncovered(array, p: Parameters, group: GroupKind = GroupKind.TRIVIAL):
    """Yield the uncovered orbits: interactions under the trivial group,
    else each orbit's canonical representative.  The first ``next()`` checks
    and copies ``array``; Moser-Tardos starts a new stream after changing it.
    Raises ValueError unless ``array`` is an integer n x k matrix with every
    symbol in [0, v)."""
    array = np.asarray(array)
    if array.ndim != 2 or array.shape[1] != p.k or array.dtype.kind not in "iu":
        raise ValueError(f"need an integer n x {p.k} array, got {array.dtype} {array.shape}")
    if array.size and (array.min() < 0 or array.max() >= p.v):
        raise ValueError(f"symbol out of range for v={p.v}")
    table = orbit_table(p.t, p.v, group)
    columns = np.array(array.T, dtype=np.int64 if p.v**p.t >= 2**31 else np.int32, order="C")
    tsets = itertools.combinations(range(p.k), p.t)
    per_batch = max(1, BATCH_CELLS // max(len(array), table.n_orbits + 1))
    work = [np.empty((per_batch, len(array)), d) for d in (columns.dtype,) * 2 + (np.intp,)]
    while batch := list(itertools.islice(tsets, per_batch)):
        for i, o in zip(*_uncovered(columns, batch, table, p.v, work)):
            yield Interaction(batch[i], table.rep_symbols(int(o)))


def uncovered_list(array, p: Parameters, group: GroupKind = GroupKind.TRIVIAL,
                   cap: int | None = None) -> CoverageReport:
    """List uncovered orbits, stopping early once more than ``cap`` are found."""
    stop = None if cap is None else cap + 1
    items = list(itertools.islice(iter_uncovered(array, p, group), stop))
    return CoverageReport(items, truncated=cap is not None and len(items) > cap)


def verify_covering_array(array, p: Parameters, group=GroupKind.TRIVIAL) -> bool:
    """True iff every full orbit under ``group`` is covered, that is, iff
    ``develop(array, group, p.v)`` covers every interaction."""
    return uncovered_list(array, p, group, cap=0).uncovered_count == 0
