"""Second-stage strategies: cover a given list of uncovered items.

Items arrive as Interaction objects whose symbols are orbit-canonical under
the chosen group.  Under a nontrivial group a strategy may commit an item to
any member of its orbit; covering the committed representative covers the
orbit once the array is developed.  Outputs are fully fixed row blocks to be
appended after the first-stage array.

Every strategy works on partial rows (k cells, ``FLEXIBLE`` where nothing is
fixed) and asks one question of them, ``_agree``: two partial rows can share
a row exactly when they agree wherever both are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupKind, orbit_table
from .model import FLEXIBLE, Interaction, Parameters, VerificationFailed


def _agree(a, b) -> np.ndarray:
    """Whether partial rows agree in every cell both fix (last axis, broadcast)."""
    return ((a == b) | (a == FLEXIBLE) | (b == FLEXIBLE)).all(axis=-1)


def _item_rows(items, p: Parameters) -> np.ndarray:
    """The items as partial rows; ValueError for a column outside [0, k) or
    a symbol outside [0, v)."""
    cols = np.array([item.columns for item in items], dtype=np.int64).reshape(-1, p.t)
    syms = np.array([item.symbols for item in items], dtype=np.int64).reshape(-1, p.t)
    if ((cols < 0) | (cols >= p.k) | (syms < 0) | (syms >= p.v)).any():
        raise ValueError(f"item out of range for k={p.k}, v={p.v}")
    rows = np.full((len(items), p.k), FLEXIBLE, dtype=np.int64)
    np.put_along_axis(rows, cols, syms, axis=1)
    return rows


def _fill_flexible(rows: np.ndarray, v: int, rng: np.random.Generator) -> np.ndarray:
    flex = rows == FLEXIBLE
    rows[flex] = rng.integers(0, v, size=int(flex.sum()))
    return rows


def _orbit_members(item: Interaction, p: Parameters, group: GroupKind) -> np.ndarray:
    """The symbol tuples of the item's orbit, a (|G|, t) array in rank order;
    ValueError for a short-orbit (constant) item, which has no full orbit."""
    table = orbit_table(p.t, p.v, group)
    orbit = table.orbit_of[int(np.dot(item.symbols, table.radix))]
    if orbit < 0:
        raise ValueError(f"{item} lies in a short orbit")
    return table.tuples[table.members[orbit]]


def naive_cover(uncovered, p: Parameters, group: GroupKind,
                rng: np.random.Generator) -> np.ndarray:
    """One row per item: fix its t cells, fill the rest uniformly."""
    return _fill_flexible(_item_rows(uncovered, p), p.v, rng)


def greedy_cover(uncovered, p: Parameters, group: GroupKind,
                 rng: np.random.Generator) -> np.ndarray:
    """Online first-fit: place each item in the first row that can still
    cover it, committing an orbit representative at placement time."""
    items = _item_rows(uncovered, p)
    rows = np.full_like(items, FLEXIBLE)
    n = 0
    for item, item_row in zip(uncovered, items):
        cols = list(item.columns)
        members = _orbit_members(item, p, group)
        fits = _agree(rows[:n, None, cols], members)  # (row, member)
        placed = np.flatnonzero(fits.any(axis=1))
        if len(placed):
            rows[placed[0], cols] = members[fits[placed[0]].argmax()]
        else:
            rows[n] = item_row
            n += 1
    return _fill_flexible(rows[:n], p.v, rng)


@dataclass
class IncompatibilityGraph:
    """Committed items as (n, k) partial ``rows``, and the (n, n) symmetric
    bool ``adjacency`` of their conflicts: some column fixed to different
    symbols.  An independent set is coverable by one row."""

    rows: np.ndarray
    adjacency: np.ndarray

    @property
    def m_edges(self) -> int:
        return int(self.adjacency.sum()) // 2


def build_incompat_graph(uncovered, p: Parameters,
                         group: GroupKind) -> IncompatibilityGraph:
    """Commit each arriving item to the representative with fewest conflicts
    against the already-committed vertices, then record the conflict edges."""
    committed = _item_rows(uncovered, p)
    adjacency = np.zeros((len(committed), len(committed)), dtype=bool)
    for i, item in enumerate(uncovered):
        cols = list(item.columns)
        members = _orbit_members(item, p, group)
        clash = ~_agree(committed[:i, None, cols], members)  # (vertex, member)
        best = int(clash.sum(axis=0).argmin())
        committed[i, cols] = members[best]
        adjacency[i, :i] = clash[:, best]
    return IncompatibilityGraph(committed, adjacency | adjacency.T)


def smallest_last_order(g: IncompatibilityGraph):
    """Vertex order whose reverse repeatedly removed a minimum-degree vertex
    (ties to the lowest index).  Also returns the degeneracy."""
    n = len(g.adjacency)
    degree = g.adjacency.sum(axis=1)
    alive = np.ones(n, dtype=bool)
    order, degeneracy = [], 0
    for _ in range(n):
        # A removed vertex keeps losing degree, so mask it above any live one.
        u = int(np.where(alive, degree, n).argmin())
        degeneracy = max(degeneracy, int(degree[u]))
        alive[u] = False
        order.append(u)
        degree -= g.adjacency[u]
    return order[::-1], degeneracy


def color_cover(g: IncompatibilityGraph, p: Parameters, group: GroupKind,
                rng: np.random.Generator):
    """Greedy-color in smallest-last order and merge each color class into
    one row.  Returns (rows, colors_used, degeneracy)."""
    items = np.asarray(g.rows)
    if items.shape[1:] != (p.k,) or ((items < FLEXIBLE) | (items >= p.v)).any():
        raise ValueError(f"graph rows out of range for k={p.k}, v={p.v}")
    order, degeneracy = smallest_last_order(g)
    color = np.full(len(items), -1, dtype=np.int64)
    for u in order:  # the least color no neighbour holds
        taken = set(color[g.adjacency[u]].tolist())
        color[u] = min(set(range(len(taken) + 1)) - taken)
    n_colors = int(color.max(initial=-1)) + 1
    # A fixed symbol outranks FLEXIBLE, so the maximum merges a class; the
    # class fits one row exactly when every member agrees with the merge.
    rows = np.full((n_colors, p.k), FLEXIBLE, dtype=np.int64)
    np.maximum.at(rows, color, items)
    clash = ~_agree(items, rows[color])
    if clash.any():
        raise VerificationFailed(
            f"color class {color[clash.argmax()]} fixes a column to two symbols"
        )
    return _fill_flexible(rows, p.v, rng), n_colors, degeneracy


def density_cover(uncovered, p: Parameters, group: GroupKind) -> np.ndarray:
    """Conditional-expectation row building.

    Each row is grown by repeatedly fixing the (column, symbol) pair that
    maximizes the expected number of remaining items a uniformly random
    completion would cover; ties go to the lowest column, then symbol.  Every
    row is guaranteed to retire at least ceil(u / v^t) items.
    """
    items = _item_rows(uncovered, p)
    # weight[j] = v^-j, the chance that j unfixed cells all come out right.
    weight = np.array([p.v**-j for j in range(p.t + 1)])
    out = []
    while len(items):
        row = np.full(p.k, FLEXIBLE, dtype=np.int64)
        for _ in range(p.k):
            open_cols = np.flatnonzero(row == FLEXIBLE)
            cells = items[:, open_cols]
            unfixed = (cells != FLEXIBLE).sum(axis=1)
            live = _agree(items, row)[:, None]
            base = np.where(live & (cells == FLEXIBLE), weight[unfixed][:, None], 0.0)
            gain = np.where(live[..., None] & (cells[..., None] == np.arange(p.v)),
                            weight[unfixed - 1][:, None, None], 0.0)
            # Sums run in item order, as Python's sum adds; a pairwise
            # reduction rounds differently and can flip the 1e-12 tie rule.
            score = (np.cumsum(base, axis=0)[-1][:, None]
                     + np.cumsum(gain, axis=0)[-1]).ravel().tolist()
            best = 0
            for i, s in enumerate(score):
                if s > score[best] + 1e-12:
                    best = i
            row[open_cols[best // p.v]] = best % p.v
        covered = _agree(items, row)
        if covered.sum() < -(-len(items) // p.v**p.t):
            raise VerificationFailed(f"row covered {covered.sum()} of {len(items)} "
                                     "items, fewer than ceil(u / v^t)")
        items = items[~covered]
        out.append(row)
    return np.array(out, dtype=np.int64).reshape(-1, p.k)
