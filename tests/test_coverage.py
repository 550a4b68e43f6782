import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caforge import (
    GroupKind,
    Interaction,
    Parameters,
    RunSpec,
    coverage,
    develop,
    run,
    uncovered_list,
    verify_covering_array,
)
from caforge.coverage import BATCH_CELLS, iter_uncovered
from caforge.groups import orbit_table
from conftest import brute_uncovered, scan_oracle


def random_array(rng, n, k, v):
    return rng.integers(0, v, size=(n, k))


class TestUncoveredList:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.integers(2, 3),
                st.integers(0, 6),
                st.integers(0, 2**31 - 1),
            )
        )
    )
    def test_matches_brute_force(self, args):
        k, v, n, seed = args
        p = Parameters(2, k, v)
        rng = np.random.default_rng(seed)
        array = random_array(rng, n, k, v)
        report = uncovered_list(array, p)
        assert report.uncovered == brute_uncovered(array, p)
        assert report.uncovered_count == len(report.uncovered)
        assert not report.truncated

    def test_empty_array_reports_everything(self):
        p = Parameters(2, 4, 2)
        report = uncovered_list(np.zeros((0, 4), dtype=int), p)
        assert report.uncovered_count == math.comb(p.k, p.t) * p.v**p.t

    def test_lex_order(self, rng):
        p = Parameters(2, 5, 3)
        report = uncovered_list(random_array(rng, 2, 5, 3), p)
        keys = [(i.columns, i.symbols) for i in report.uncovered]
        assert keys == sorted(keys)

    def test_cap_truncates(self, rng):
        p = Parameters(2, 6, 3)
        report = uncovered_list(random_array(rng, 1, 6, 3), p, cap=5)
        assert report.truncated
        assert report.uncovered_count == 6
        assert len(report.uncovered) == 6

    def test_group_orbits_counted(self, rng):
        # a random array under the cyclic action: uncovered orbits must agree
        # with the brute count over the developed array's missing tuples
        p = Parameters(2, 4, 3)
        array = random_array(rng, 3, 4, 3)
        report = uncovered_list(array, p, group=GroupKind.CYCLIC)
        dev = develop(array, GroupKind.CYCLIC, 3)
        missing_dev = brute_uncovered(dev, p)
        # each uncovered orbit accounts for exactly v missing tuples
        assert len(missing_dev) == 3 * report.uncovered_count

    def test_frobenius_short_orbits_skipped(self):
        # constant tuples belong to short orbits and are never reported
        p = Parameters(2, 3, 3)
        report = uncovered_list(np.zeros((0, 3), dtype=int), p,
                                group=GroupKind.FROBENIUS)
        for item in report.uncovered:
            assert len(set(item.symbols)) > 1


@st.composite
def scan_cases(draw):
    """(p, group, array): t 2-5, k t-9, v 2-5 (all prime powers, so every
    group applies), n 0-12.  Symbols lie below a drawn bound, so that larger
    ones stay uncovered."""
    t = draw(st.integers(2, 5))
    p = Parameters(t, draw(st.integers(t, 9)), draw(st.integers(2, 5)))
    group = draw(st.sampled_from(list(GroupKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high, n = draw(st.integers(1, p.v)), draw(st.integers(0, 12))
    return p, group, rng.integers(0, high, size=(n, p.k))


@st.composite
def damaged_covering_cases(draw):
    """(p, group, array): the undeveloped rows of a greedy run (t 2-3, k t-7,
    v 2-4), kept whole, with one row dropped, or with one cell changed."""
    t = draw(st.integers(2, 3))
    p = Parameters(t, draw(st.integers(t, 7)), draw(st.integers(2, 4)))
    group = draw(st.sampled_from(list(GroupKind)))
    array, rep = run(RunSpec(p=p, stage2="greedy", group=group,
                             seed=draw(st.integers(0, 2**16))))
    array = array[: rep.n_stage1 + rep.rows_stage2]
    row = draw(st.integers(0, len(array) - 1))
    damage = draw(st.sampled_from(["none", "drop", "cell"]))
    if damage == "drop":
        array = np.delete(array, row, axis=0)
    elif damage == "cell":
        col = draw(st.integers(0, p.k - 1))
        array[row, col] = (array[row, col] + draw(st.integers(1, p.v - 1))) % p.v
    return p, group, array


class TestBatchedKernel:
    """The batched stream yields the per-t-set oracle's items in its order."""

    @settings(max_examples=80, deadline=None)
    @given(scan_cases(), st.sampled_from([1, 5, 64, 333, BATCH_CELLS]))
    def test_matches_oracle(self, case, cells):
        p, group, array = case
        with mock.patch.object(coverage, "BATCH_CELLS", cells):
            assert list(iter_uncovered(array, p, group)) == list(scan_oracle(array, p, group))

    @settings(max_examples=80, deadline=None)
    @given(scan_cases(), st.integers(0, 40))
    def test_cap_takes_the_oracle_prefix(self, case, cap):
        p, group, array = case
        expected = list(itertools.islice(scan_oracle(array, p, group), cap + 1))
        report = uncovered_list(array, p, group, cap=cap)
        assert report.uncovered == expected
        assert report.truncated == (len(expected) > cap)

    @pytest.mark.parametrize("group", list(GroupKind))
    @pytest.mark.parametrize("n, k", [
        (BATCH_CELLS // 5, 9),   # 5 t-sets a batch: the first ends inside prefix (0, 1)
        (BATCH_CELLS + 1, 6),    # one t-set a batch
    ], ids=["mid-prefix", "taller-than-a-batch"])
    def test_tall_arrays(self, group, n, k):
        p = Parameters(3, k, 3)
        array = np.random.default_rng(n).integers(0, 3, size=(n, k))
        array[:, 2] = array[:, 1]  # orbits of tuples that differ there stay uncovered
        expected = list(scan_oracle(array, p, group))
        assert expected
        assert list(iter_uncovered(array, p, group)) == expected

    def test_stream_reads_a_snapshot(self):
        p = Parameters(2, 3, 2)
        array = np.zeros((1, 3), dtype=int)
        stream = iter_uncovered(array, p)
        first = next(stream)
        array[:] = 1  # seen only by a new stream
        assert [first, *stream] == list(scan_oracle(np.zeros((1, 3), dtype=int), p))

    @pytest.mark.parametrize("k", [6, 16])
    def test_peak_memory_is_one_batch(self, k):
        """The traced peak is the int32 column copy plus one batch of at
        most 32 bytes a cell, whatever C(k, t) is."""
        n, p = 100_000, Parameters(3, k, 3)
        array = np.random.default_rng(k).integers(0, 3, size=(n, k))
        orbit_table(p.t, p.v, GroupKind.TRIVIAL)  # built once, outside the trace
        tracemalloc.start()
        try:
            report = uncovered_list(array, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.uncovered_count == 0
        assert peak <= 4 * n * k + 32 * max(n, BATCH_CELLS)


class TestVerify:
    def test_accepts_full_factorial(self):
        p = Parameters(2, 3, 2)
        array = np.array(list(itertools.product(range(2), repeat=3)))
        assert verify_covering_array(array, p)

    def test_rejects_near_miss(self):
        p = Parameters(2, 3, 2)
        array = np.array([[0, 0, 0], [1, 1, 1]])  # mixed pairs never occur
        assert not verify_covering_array(array, p)

    def test_rejects_empty(self):
        assert not verify_covering_array(np.zeros((0, 4), dtype=int), Parameters(2, 4, 2))

    @pytest.mark.parametrize("rows", [
        [[0, 0], [0, 1], [0, 2], [1, 1]],   # the 2 would otherwise rank as (1, 0)
        [[0, 0], [0, 1], [1, 0], [1, -1]],  # the -1 would otherwise wrap to 1
        [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0]],
    ], ids=["too-large-last", "negative", "too-large-first"])
    def test_rejects_symbol_out_of_range(self, rows):
        with pytest.raises(ValueError, match="out of range for v=2"):
            verify_covering_array(np.array(rows), Parameters(2, 2, 2))

    @pytest.mark.filterwarnings("ignore:target_uncovered")  # tiny shapes need no stage 1
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(scan_cases(), damaged_covering_cases()))
    def test_orbits_covered_iff_developed_covers(self, case):
        # the run verifies its undeveloped rows; develop() must carry the verdict
        p, group, array = case
        assert verify_covering_array(array, p, group) == \
            verify_covering_array(develop(array, group, p.v), p)

    @pytest.mark.parametrize("array, k", [
        (np.array(list(itertools.product(range(2), repeat=3))) + 0.5, 3),
        (np.array(list(itertools.product(range(2), repeat=4))), 3),
        (np.array([0, 1, 1]), 3),
    ], ids=["float", "too-wide", "one-dimensional"])
    def test_rejects_wrong_shape_or_type(self, array, k):
        with pytest.raises(ValueError, match=f"integer n x {k} array"):
            verify_covering_array(array, Parameters(2, k, 2))

    def test_agrees_with_uncovered_list(self, rng):
        for _ in range(20):
            p = Parameters(2, 4, 2)
            array = random_array(rng, int(rng.integers(1, 10)), 4, 2)
            assert verify_covering_array(array, p) == (
                uncovered_list(array, p).uncovered_count == 0
            )


class TestInteractionOrdering:
    def test_interaction_requires_increasing_columns(self):
        with pytest.raises(ValueError):
            Interaction((2, 1), (0, 0))
