import numpy as np
import pytest

from caforge import (
    FLEXIBLE,
    GroupKind,
    IncompatibilityGraph,
    Parameters,
    VerificationFailed,
    build_incompat_graph,
    color_cover,
    density_cover,
    develop,
    greedy_cover,
    naive_cover,
    uncovered_list,
    verify_covering_array,
)
from caforge.stage2 import smallest_last_order
from conftest import exact_chromatic_number


def leftovers(p, seed=0, n=3, group=GroupKind.TRIVIAL):
    rng = np.random.default_rng(seed)
    array = rng.integers(0, p.v, size=(n, p.k))
    return array, uncovered_list(array, p, group=group)


def assert_completes(array, rows, p, group):
    full = develop(np.vstack([array, rows]), group, p.v)
    assert verify_covering_array(full, p)


def graph_from_edges(n, edges, k=2):
    """A hand-built graph on n all-flexible rows with the given edges."""
    adjacency = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = True
    return IncompatibilityGraph(np.full((n, k), FLEXIBLE), adjacency)


def list_smallest_last_order(adjacency):
    """The adjacency-list smallest-last order and degeneracy: a minimum of
    (degree, index) over the live vertices, one removal at a time.  The
    reference for the matrix version."""
    n = len(adjacency)
    degree = [len(a) for a in adjacency]
    removed = [False] * n
    order = []
    degeneracy = 0
    for _ in range(n):
        u = min((d, i) for i, d in enumerate(degree) if not removed[i])[1]
        degeneracy = max(degeneracy, degree[u])
        removed[u] = True
        order.append(u)
        for w in adjacency[u]:
            if not removed[w]:
                degree[w] -= 1
    order.reverse()
    return order, degeneracy


class TestNaive:
    @pytest.mark.parametrize("group", list(GroupKind))
    def test_completes_coverage(self, rng, group):
        p = Parameters(2, 5, 3)
        array, report = leftovers(p, seed=5, group=group)
        rows = naive_cover(report.uncovered, p, group, rng)
        assert rows.shape == (report.uncovered_count, p.k)
        assert (rows != FLEXIBLE).all()
        assert_completes(array, rows, p, group)

    def test_empty_input(self, rng):
        rows = naive_cover([], Parameters(2, 4, 2), GroupKind.TRIVIAL, rng)
        assert rows.shape == (0, 4)


class TestGreedy:
    @pytest.mark.parametrize("group", list(GroupKind))
    def test_completes_coverage(self, rng, group):
        p = Parameters(2, 5, 3)
        array, report = leftovers(p, seed=5, group=group)
        rows = greedy_cover(report.uncovered, p, group, rng)
        assert rows.shape[0] <= report.uncovered_count
        assert (rows != FLEXIBLE).all()
        assert_completes(array, rows, p, group)

    def test_never_worse_than_naive(self, rng):
        for seed in range(5):
            p = Parameters(2, 6, 2)
            _, report = leftovers(p, seed=seed, n=2)
            g = greedy_cover(report.uncovered, p, GroupKind.TRIVIAL, rng)
            assert g.shape[0] <= report.uncovered_count

    def test_disjoint_items_share_one_row(self, rng):
        from caforge import Interaction
        p = Parameters(2, 6, 2)
        items = [Interaction((0, 1), (0, 1)), Interaction((2, 3), (1, 0)),
                 Interaction((4, 5), (1, 1))]
        rows = greedy_cover(items, p, GroupKind.TRIVIAL, rng)
        assert rows.shape[0] == 1

    def test_conflicting_items_split(self, rng):
        from caforge import Interaction
        p = Parameters(2, 4, 2)
        items = [Interaction((0, 1), (0, 0)), Interaction((0, 1), (1, 1))]
        rows = greedy_cover(items, p, GroupKind.TRIVIAL, rng)
        assert rows.shape[0] == 2


class TestIncompatGraph:
    def test_edges_are_real_conflicts(self):
        p = Parameters(2, 5, 3)
        _, report = leftovers(p, seed=1)
        g = build_incompat_graph(report.uncovered, p, GroupKind.TRIVIAL)
        n = report.uncovered_count
        assert g.rows.shape == (n, p.k) and g.adjacency.shape == (n, n)
        assert g.adjacency.dtype == bool
        assert g.adjacency.sum() == 2 * g.m_edges
        for item, row in zip(report.uncovered, g.rows):
            assert tuple(row[list(item.columns)]) == item.symbols
            assert (np.delete(row, item.columns) == FLEXIBLE).all()

    @pytest.mark.parametrize("group", list(GroupKind))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_edge_exactly_when_rows_conflict(self, group, seed):
        # An iff, so a missing edge fails as well as a spurious one.
        p = Parameters(3, 5, 3)
        _, report = leftovers(p, seed=seed, n=4, group=group)
        g = build_incompat_graph(report.uncovered, p, group)
        assert len(g.rows) > 1
        assert (g.adjacency == g.adjacency.T).all()
        assert not g.adjacency.diagonal().any()
        for i, a in enumerate(g.rows):
            for j, b in enumerate(g.rows):
                conflict = any(x != y for x, y in zip(a, b)
                               if x != FLEXIBLE and y != FLEXIBLE)
                assert g.adjacency[i, j] == conflict

    def test_group_commit_stays_in_orbit(self):
        from caforge.groups import orbit_table
        p = Parameters(2, 4, 3)
        table = orbit_table(2, 3, GroupKind.CYCLIC)
        _, report = leftovers(p, seed=2, n=2, group=GroupKind.CYCLIC)
        g = build_incompat_graph(report.uncovered, p, GroupKind.CYCLIC)
        for item, row in zip(report.uncovered, g.rows):
            orbit = table.orbit_of[int(np.dot(row[list(item.columns)], table.radix))]
            assert table.rep_symbols(int(orbit)) == item.symbols

    def test_commit_reduces_edges(self):
        # committing the min-conflict orbit member can only improve on the
        # canonical-representative graph, never add edges
        p = Parameters(2, 5, 3)
        _, report = leftovers(p, seed=3, n=2, group=GroupKind.CYCLIC)
        g_committed = build_incompat_graph(report.uncovered, p, GroupKind.CYCLIC)
        g_fixed = build_incompat_graph(report.uncovered, p, GroupKind.TRIVIAL)
        assert g_committed.m_edges <= g_fixed.m_edges


class TestSmallestLast:
    def test_path_degeneracy(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.m_edges == 3
        order, degeneracy = smallest_last_order(g)
        assert sorted(order) == [0, 1, 2, 3]
        assert degeneracy == 1

    def test_triangle(self):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert g.m_edges == 3
        _, degeneracy = smallest_last_order(g)
        assert degeneracy == 2

    def test_matches_list_oracle(self):
        # Dense graphs are where a removed vertex's degree can fall below a
        # live one's; the order must never pick a removed vertex again.
        rng = np.random.default_rng(2026)
        for _ in range(120):
            n = int(rng.integers(1, 61))
            density = rng.uniform(0.1, 0.9)
            upper = np.triu(rng.random((n, n)) < density, 1)
            adjacency = upper | upper.T
            g = IncompatibilityGraph(np.full((n, 2), FLEXIBLE), adjacency)
            lists = [np.flatnonzero(row).tolist() for row in adjacency]
            order, degeneracy = smallest_last_order(g)
            assert (list(order), degeneracy) == list_smallest_last_order(lists)


class TestColorCover:
    @pytest.mark.parametrize("group", list(GroupKind))
    def test_completes_coverage(self, rng, group):
        p = Parameters(2, 5, 3)
        array, report = leftovers(p, seed=5, group=group)
        g = build_incompat_graph(report.uncovered, p, group)
        rows, n_colors, degeneracy = color_cover(g, p, group, rng)
        assert rows.shape[0] == n_colors
        assert n_colors <= degeneracy + 1
        assert_completes(array, rows, p, group)

    def test_colors_bounded_by_exact_chromatic_plus_structure(self, rng):
        p = Parameters(2, 5, 2)
        _, report = leftovers(p, seed=7, n=5)
        g = build_incompat_graph(report.uncovered, p, GroupKind.TRIVIAL)
        assert len(g.rows) <= 12  # keeps the backtracking oracle fast
        rows, n_colors, _ = color_cover(g, p, GroupKind.TRIVIAL, rng)
        chi = exact_chromatic_number(g.adjacency)
        assert chi <= n_colors

    def test_proper_coloring(self, rng):
        # adjacent vertices never land in the same row
        p = Parameters(2, 6, 3)
        _, report = leftovers(p, seed=11, n=4)
        g = build_incompat_graph(report.uncovered, p, GroupKind.TRIVIAL)
        rows, _, _ = color_cover(g, p, GroupKind.TRIVIAL, rng)
        for committed in g.rows:
            cols = np.flatnonzero(committed != FLEXIBLE)
            hit = [
                r for r in range(rows.shape[0])
                if all(rows[r, c] == committed[c] for c in cols)
            ]
            assert hit

    def test_clash_without_edge_fails_self_check(self, rng):
        # two items fixing column 0 to different symbols, joined by no edge,
        # share a color class that no single row can hold
        rows = np.array([[0, 1, FLEXIBLE], [1, FLEXIBLE, 0]])
        g = IncompatibilityGraph(rows, np.zeros((2, 2), dtype=bool))
        with pytest.raises(VerificationFailed, match="color class 0"):
            color_cover(g, Parameters(2, 3, 2), GroupKind.TRIVIAL, rng)

    def test_empty_graph(self, rng):
        g = IncompatibilityGraph(np.empty((0, 4), dtype=np.int64),
                                 np.zeros((0, 0), dtype=bool))
        assert g.m_edges == 0
        rows, n_colors, degeneracy = color_cover(
            g, Parameters(2, 4, 2), GroupKind.TRIVIAL, rng
        )
        assert rows.shape == (0, 4)
        assert n_colors == 0 and degeneracy == 0


class TestDensityCover:
    @pytest.mark.parametrize("group", list(GroupKind))
    def test_completes_coverage(self, group):
        p = Parameters(2, 5, 3)
        array, report = leftovers(p, seed=5, group=group)
        rows = density_cover(report.uncovered, p, group)
        assert (rows != FLEXIBLE).all()
        assert_completes(array, rows, p, group)

    def test_row_guarantee_observed(self):
        # reconstruct the per-row retirement counts and check the ceiling
        # guarantee directly
        p = Parameters(2, 6, 2)
        _, report = leftovers(p, seed=9, n=2)
        items = [(i.columns, i.symbols) for i in report.uncovered]
        rows = density_cover(report.uncovered, p, GroupKind.TRIVIAL)
        vt = p.v**p.t
        alive = items
        for row in rows:
            u = len(alive)
            still = []
            retired = 0
            for cols, syms in alive:
                if all(row[c] == s for c, s in zip(cols, syms)):
                    retired += 1
                else:
                    still.append((cols, syms))
            assert retired >= -(-u // vt)
            alive = still
        assert not alive

    def test_deterministic(self):
        p = Parameters(2, 5, 3)
        _, report = leftovers(p, seed=5)
        r1 = density_cover(report.uncovered, p, GroupKind.TRIVIAL)
        r2 = density_cover(report.uncovered, p, GroupKind.TRIVIAL)
        assert np.array_equal(r1, r2)

    def test_at_most_discrete_bound_rows(self):
        # u items need at most ceil(log(u) / log(vt/(vt-1))) + 1 rows; check
        # the loose version that each row strictly shrinks the list
        p = Parameters(2, 6, 2)
        _, report = leftovers(p, seed=13, n=3)
        rows = density_cover(report.uncovered, p, GroupKind.TRIVIAL)
        assert rows.shape[0] <= report.uncovered_count

    def test_empty_input(self):
        rows = density_cover([], Parameters(2, 4, 2), GroupKind.TRIVIAL)
        assert rows.shape == (0, 4)


class TestInputChecks:
    """Every stage-2 entry rejects items it cannot cover as given."""

    @pytest.mark.parametrize("cover", ["greedy", "graph"])
    def test_short_orbit_item_rejected(self, rng, cover):
        # Under Frobenius the constant tuple (1, 1) lies in a short orbit; it
        # must not be committed to a member of another item's orbit.
        from caforge import Interaction
        p = Parameters(2, 3, 3)
        items = [Interaction((0, 1), (0, 1)), Interaction((0, 1), (1, 1))]
        with pytest.raises(ValueError, match="short orbit"):
            if cover == "greedy":
                greedy_cover(items, p, GroupKind.FROBENIUS, rng)
            else:
                build_incompat_graph(items, p, GroupKind.FROBENIUS)

    # A hand-built graph is given rows, not items, so for col each bad item
    # stands for a bad row: a cell below FLEXIBLE, a cell of v, or a row
    # k - 1 or k + 1 wide.
    BAD_GRAPH_ROWS = {
        ((2, 3), (-1, 0)): [[0, 1, FLEXIBLE, FLEXIBLE], [FLEXIBLE, FLEXIBLE, -2, 0]],
        ((2, 3), (3, 0)): [[0, 1, FLEXIBLE, FLEXIBLE], [FLEXIBLE, FLEXIBLE, 3, 0]],
        ((-1, 2), (0, 0)): [[0, 1, FLEXIBLE], [FLEXIBLE, 0, 0]],
        ((3, 4), (0, 0)): [[0, 1, FLEXIBLE, FLEXIBLE, FLEXIBLE],
                           [FLEXIBLE, FLEXIBLE, FLEXIBLE, 0, 0]],
    }

    @pytest.mark.parametrize("columns, symbols", [
        ((2, 3), (-1, 0)), ((2, 3), (3, 0)), ((-1, 2), (0, 0)), ((3, 4), (0, 0)),
    ], ids=["symbol-negative", "symbol-v", "column-negative", "column-k"])
    @pytest.mark.parametrize("cover", ["naive", "greedy", "graph", "col", "den"])
    def test_item_out_of_range(self, rng, cover, columns, symbols):
        from caforge import Interaction
        p, group = Parameters(2, 4, 3), GroupKind.TRIVIAL
        items = [Interaction((0, 1), (0, 1)), Interaction(columns, symbols)]
        with pytest.raises(ValueError, match="out of range"):
            if cover == "naive":
                naive_cover(items, p, group, rng)
            elif cover == "greedy":
                greedy_cover(items, p, group, rng)
            elif cover == "graph":
                build_incompat_graph(items, p, group)
            elif cover == "col":
                rows = np.array(self.BAD_GRAPH_ROWS[columns, symbols])
                color_cover(IncompatibilityGraph(rows, np.zeros((2, 2), dtype=bool)),
                            p, group, rng)
            else:
                density_cover(items, p, group)
