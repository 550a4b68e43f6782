import itertools

import numpy as np
import pytest

from caforge import GroupKind, Interaction, Parameters
from caforge.groups import orbit_table


def brute_uncovered(array, p: Parameters):
    """Quadratic per-interaction scan; the independent coverage oracle."""
    array = np.asarray(array)
    missing = []
    for cols in itertools.combinations(range(p.k), p.t):
        for syms in itertools.product(range(p.v), repeat=p.t):
            hit = any(
                all(row[c] == s for c, s in zip(cols, syms)) for row in array
            )
            if not hit:
                missing.append(Interaction(cols, syms))
    return missing


def scan_oracle(array, p: Parameters, group=GroupKind.TRIVIAL):
    """The per-t-set coverage loop: one orbit mask per column t-set, yielded
    in column-set, then orbit order.  The batched kernel must match it item
    for item."""
    array = np.asarray(array)
    table = orbit_table(p.t, p.v, group)
    for cols in itertools.combinations(range(p.k), p.t):
        orbits = table.orbit_of[array[:, cols] @ table.radix]
        mask = np.zeros(table.n_orbits, dtype=bool)
        mask[orbits[orbits >= 0]] = True
        for o in np.flatnonzero(~mask):
            yield Interaction(cols, table.rep_symbols(int(o)))


def exact_chromatic_number(adjacency):
    """Smallest c admitting a proper coloring of the graph with this bool
    adjacency matrix, by exhaustive backtracking."""
    neighbours = [np.flatnonzero(row).tolist() for row in np.asarray(adjacency)]
    n = len(neighbours)
    if n == 0:
        return 0

    def colorable(c):
        color = [-1] * n

        def place(u):
            if u == n:
                return True
            for col in range(c):
                if all(color[w] != col for w in neighbours[u]):
                    color[u] = col
                    if place(u + 1):
                        return True
                    color[u] = -1
            return False

        return place(0)

    for c in range(1, n + 1):
        if colorable(c):
            return c
    return n


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
