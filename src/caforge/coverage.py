"""Memory-lean coverage checking.

All scans stream over column t-sets in lexicographic order and keep only a
v^t-sized (or orbit-count-sized) mask per t-set, never a global table over
all C(k,t)*v^t interactions.  Uncovered items come out ordered by column-set
rank, then tuple rank.
"""

from __future__ import annotations

import itertools

import numpy as np

from .groups import GroupKind, orbit_table
from .model import CoverageReport, Interaction, Parameters


def _covered_mask(array, cols, table):
    """Boolean mask over orbits: which orbits are covered on these columns."""
    ranks = np.asarray(array)[:, cols] @ table.radix
    mask = np.zeros(table.n_orbits, dtype=bool)
    orbits = table.orbit_of[ranks]
    mask[orbits[orbits >= 0]] = True
    return mask


def uncovered_list(array, p: Parameters, group: GroupKind = GroupKind.TRIVIAL,
                   cap: int | None = None) -> CoverageReport:
    """List uncovered orbits, stopping early once more than ``cap`` are found.

    With the trivial group the items are plain interactions; otherwise each
    item carries the orbit's canonical representative symbols.  Raises
    ValueError when a symbol lies outside [0, v).
    """
    array = np.asarray(array)
    if array.size and (array.min() < 0 or array.max() >= p.v):
        raise ValueError(f"symbol out of range for v={p.v}")
    table = orbit_table(p.t, p.v, group)
    report = CoverageReport()
    for cols in itertools.combinations(range(p.k), p.t):
        mask = _covered_mask(array, list(cols), table)
        for o in np.flatnonzero(~mask):
            report.uncovered.append(Interaction(cols, table.rep_symbols(int(o))))
            report.uncovered_count += 1
            if cap is not None and report.uncovered_count > cap:
                report.truncated = True
                return report
    return report


def verify_covering_array(array, p: Parameters) -> bool:
    """True iff every interaction (trivial group, no orbits) is covered."""
    return uncovered_list(array, p, cap=0).uncovered_count == 0
