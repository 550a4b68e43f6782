"""Memory-lean coverage checking.

One generator, ``iter_uncovered``, streams over column t-sets in
lexicographic order and keeps only a v^t-sized (or orbit-count-sized) mask
per t-set, never a global table over all C(k,t)*v^t interactions.  Every
scan reads it, Moser-Tardos resampling included.  Uncovered items come out
ordered by column-set rank, then tuple rank.
"""

from __future__ import annotations

import itertools

import numpy as np

from .groups import GroupKind, orbit_table
from .model import CoverageReport, Interaction, Parameters


def _covered_mask(array, cols, table):
    """Boolean mask over orbits: which orbits are covered on these columns."""
    ranks = array[:, cols] @ table.radix
    mask = np.zeros(table.n_orbits, dtype=bool)
    orbits = table.orbit_of[ranks]
    mask[orbits[orbits >= 0]] = True
    return mask


def iter_uncovered(array, p: Parameters, group: GroupKind = GroupKind.TRIVIAL):
    """Yield the uncovered orbits one at a time, reading ``array`` lazily.

    With the trivial group the items are plain interactions; otherwise each
    item carries the orbit's canonical representative symbols.  Raises
    ValueError when a symbol lies outside [0, v).
    """
    array = np.asarray(array)
    if array.size and (array.min() < 0 or array.max() >= p.v):
        raise ValueError(f"symbol out of range for v={p.v}")
    table = orbit_table(p.t, p.v, group)
    for cols in itertools.combinations(range(p.k), p.t):
        for o in np.flatnonzero(~_covered_mask(array, cols, table)):
            yield Interaction(cols, table.rep_symbols(int(o)))


def uncovered_list(array, p: Parameters, group: GroupKind = GroupKind.TRIVIAL,
                   cap: int | None = None) -> CoverageReport:
    """List uncovered orbits, stopping early once more than ``cap`` are found."""
    stop = None if cap is None else cap + 1
    items = list(itertools.islice(iter_uncovered(array, p, group), stop))
    return CoverageReport(items, truncated=cap is not None and len(items) > cap)


def verify_covering_array(array, p: Parameters) -> bool:
    """True iff every interaction (trivial group, no orbits) is covered."""
    return uncovered_list(array, p, cap=0).uncovered_count == 0
