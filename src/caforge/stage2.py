"""Second-stage strategies: cover a given list of uncovered items.

Items arrive as Interaction objects whose symbols are orbit-canonical under
the chosen group.  Under a nontrivial group a strategy may commit an item to
any member of its orbit; covering the committed representative covers the
orbit once the array is developed.  Outputs are fully fixed row blocks to be
appended after the first-stage array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import GroupKind, orbit_table
from .model import FLEXIBLE, Interaction, Parameters


class InconsistentClass(Exception):
    """A color class could not be merged into one row (commitment bug)."""


class GuaranteeViolated(Exception):
    """A density row covered fewer items than the derandomization guarantees."""


def _fill_flexible(rows: np.ndarray, v: int, rng: np.random.Generator) -> np.ndarray:
    flex = rows == FLEXIBLE
    rows[flex] = rng.integers(0, v, size=int(flex.sum()))
    return rows


def _orbit_members(item: Interaction, p: Parameters, group: GroupKind):
    """All symbol tuples whose orbit is the item's, in tuple-rank order."""
    table = orbit_table(p.t, p.v, group)
    orbit = table.orbit_of[int(np.dot(item.symbols, table.radix))]
    return [table.unrank(int(r)) for r in table.members[orbit]]


def naive_cover(uncovered, p: Parameters, group: GroupKind,
                rng: np.random.Generator) -> np.ndarray:
    """One row per item: fix its t cells, fill the rest uniformly."""
    rows = np.full((len(uncovered), p.k), FLEXIBLE, dtype=np.int64)
    for i, item in enumerate(uncovered):
        rows[i, list(item.columns)] = item.symbols
    return _fill_flexible(rows, p.v, rng)


def _compatible(row, cols, syms) -> bool:
    cells = row[list(cols)]
    return bool(np.all((cells == FLEXIBLE) | (cells == np.asarray(syms))))


def greedy_cover(uncovered, p: Parameters, group: GroupKind,
                 rng: np.random.Generator) -> np.ndarray:
    """Online first-fit: place each item in the first row that can still
    cover it, committing an orbit representative at placement time."""
    rows: list = []
    for item in uncovered:
        members = _orbit_members(item, p, group)
        placed = False
        for row in rows:
            for syms in members:
                if _compatible(row, item.columns, syms):
                    row[list(item.columns)] = syms
                    placed = True
                    break
            if placed:
                break
        if not placed:
            row = np.full(p.k, FLEXIBLE, dtype=np.int64)
            row[list(item.columns)] = item.symbols
            rows.append(row)
    if not rows:
        return np.empty((0, p.k), dtype=np.int64)
    return _fill_flexible(np.stack(rows), p.v, rng)


@dataclass
class IncompatibilityGraph:
    """Committed uncovered items with symbol-conflict edges.

    Two vertices are adjacent when they share a column in which their
    committed symbols differ; an independent set is coverable by one row.
    """

    vertices: list = field(default_factory=list)
    adjacency: list = field(default_factory=list)
    m_edges: int = 0


def _conflicts(a: Interaction, cols, syms) -> bool:
    assignment = dict(zip(a.columns, a.symbols))
    for c, s in zip(cols, syms):
        if c in assignment and assignment[c] != s:
            return True
    return False


def build_incompat_graph(uncovered, p: Parameters,
                         group: GroupKind) -> IncompatibilityGraph:
    """Commit each arriving item to the representative with fewest conflicts
    against the already-committed vertices, then record the conflict edges."""
    g = IncompatibilityGraph()
    for item in uncovered:
        members = _orbit_members(item, p, group)
        best_syms, best_edges = None, None
        for syms in members:
            edges = [
                j for j, other in enumerate(g.vertices)
                if _conflicts(other, item.columns, syms)
            ]
            if best_edges is None or len(edges) < len(best_edges):
                best_syms, best_edges = syms, edges
        i = len(g.vertices)
        g.vertices.append(Interaction(item.columns, tuple(best_syms)))
        g.adjacency.append(sorted(best_edges))
        for j in best_edges:
            g.adjacency[j].append(i)
        g.m_edges += len(best_edges)
    return g


def smallest_last_order(g: IncompatibilityGraph):
    """Vertex order whose reverse repeatedly removed a minimum-degree vertex
    (ties to the lowest index).  Also returns the degeneracy."""
    n = len(g.vertices)
    degree = [len(a) for a in g.adjacency]
    removed = [False] * n
    order = []
    degeneracy = 0
    for _ in range(n):
        u = min((d, i) for i, d in enumerate(degree) if not removed[i])[1]
        degeneracy = max(degeneracy, degree[u])
        removed[u] = True
        order.append(u)
        for w in g.adjacency[u]:
            if not removed[w]:
                degree[w] -= 1
    order.reverse()
    return order, degeneracy


def color_cover(g: IncompatibilityGraph, p: Parameters, group: GroupKind,
                rng: np.random.Generator):
    """Greedy-color in smallest-last order and merge each color class into
    one row.  Returns (rows, colors_used, degeneracy)."""
    n = len(g.vertices)
    if n == 0:
        return np.empty((0, p.k), dtype=np.int64), 0, 0
    order, degeneracy = smallest_last_order(g)
    color = [-1] * n
    for u in order:
        taken = {color[w] for w in g.adjacency[u] if color[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[u] = c
    n_colors = max(color) + 1
    rows = np.full((n_colors, p.k), FLEXIBLE, dtype=np.int64)
    for u, c in enumerate(color):
        item = g.vertices[u]
        for col, sym in zip(item.columns, item.symbols):
            if rows[c, col] not in (FLEXIBLE, sym):
                raise InconsistentClass(
                    f"color class {c} fixes column {col} to two symbols"
                )
            rows[c, col] = sym
    return _fill_flexible(rows, p.v, rng), n_colors, degeneracy


def density_cover(uncovered, p: Parameters, group: GroupKind) -> np.ndarray:
    """Conditional-expectation row building.

    Each row is grown by repeatedly fixing the (column, symbol) pair that
    maximizes the expected number of remaining items a uniformly random
    completion would cover; ties go to the lowest column, then symbol.  Every
    row is guaranteed to retire at least ceil(u / v^t) items.
    """
    vt = p.v**p.t
    alive = [(item.columns, item.symbols) for item in uncovered]
    out = []
    while alive:
        u = len(alive)
        row = np.full(p.k, FLEXIBLE, dtype=np.int64)
        # Per-item state: columns still unfixed in the row, conflict flag.
        unfixed = [len(cols) for cols, _ in alive]
        dead = [False] * u
        for _ in range(p.k):
            open_cols = np.flatnonzero(row == FLEXIBLE)
            best = None
            for c in open_cols:
                base = sum(
                    p.v ** -unfixed[i]
                    for i, (cols, _) in enumerate(alive)
                    if not dead[i] and c not in cols
                )
                gain = [0.0] * p.v
                for i, (cols, syms) in enumerate(alive):
                    if dead[i] or c not in cols:
                        continue
                    gain[syms[cols.index(c)]] += p.v ** -(unfixed[i] - 1)
                for s in range(p.v):
                    score = base + gain[s]
                    if best is None or score > best[0] + 1e-12:
                        best = (score, int(c), s)
            _, c, s = best
            row[c] = s
            for i, (cols, syms) in enumerate(alive):
                if dead[i] or c not in cols:
                    continue
                if syms[cols.index(c)] == s:
                    unfixed[i] -= 1
                else:
                    dead[i] = True
        covered = [i for i in range(u) if not dead[i] and unfixed[i] == 0]
        if len(covered) < -(-u // vt):
            raise GuaranteeViolated(
                f"row covered {len(covered)} items, needed {-(-u // vt)} of {u}"
            )
        alive = [item for i, item in enumerate(alive) if i not in set(covered)]
        out.append(row)
    if not out:
        return np.empty((0, p.k), dtype=np.int64)
    return np.stack(out)
