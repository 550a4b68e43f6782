"""Shared domain vocabulary: parameters, interactions, arrays, coverage reports.

Symbols are 0-based everywhere.  A "partial" array is an ordinary integer
array in which flexible (not yet fixed) cells hold the sentinel ``FLEXIBLE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Cell value marking a not-yet-fixed entry of a partial array.
FLEXIBLE = -1


@dataclass(frozen=True)
class Parameters:
    """The triple (t, k, v): strength, factor count, level count."""

    t: int
    k: int
    v: int

    def __post_init__(self):
        if self.t < 2:
            raise ValueError("strength t must be at least 2")
        if self.k < self.t:
            raise ValueError("factor count k must be at least t")
        if self.v < 2:
            raise ValueError("level count v must be at least 2")


@dataclass(frozen=True)
class Interaction:
    """An assignment of symbols to t distinct columns.

    ``columns`` is strictly increasing; ``symbols[i]`` is the symbol
    required in ``columns[i]``.
    """

    columns: tuple
    symbols: tuple

    def __post_init__(self):
        if len(self.columns) != len(self.symbols):
            raise ValueError("columns and symbols must have equal length")
        if any(a >= b for a, b in zip(self.columns, self.columns[1:])):
            raise ValueError("columns must be strictly increasing")


class VerificationFailed(Exception):
    """A self-check failed (always a bug): a developed array misses an
    interaction, a color class fixes a column to two symbols, or a density
    row covers fewer items than its guarantee."""


@dataclass
class CoverageReport:
    """Uncovered interactions (or orbit representatives) found in an array.

    When ``truncated`` the enumeration stopped after exceeding a cap and
    ``uncovered_count`` undercounts the true total.
    """

    uncovered: list = field(default_factory=list)
    truncated: bool = False

    @property
    def uncovered_count(self) -> int:
        return len(self.uncovered)
