import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caforge import (
    GroupKind,
    Interaction,
    Parameters,
    develop,
    uncovered_list,
    verify_covering_array,
)
from conftest import brute_uncovered


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
