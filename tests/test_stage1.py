import numpy as np
import pytest

from caforge import (
    GroupKind,
    Parameters,
    RetriesExhausted,
    develop,
    mt_construct,
    mt_first_stage,
    mt_row_count,
    rand_first_stage,
    uncovered_list,
    verify_covering_array,
)
from caforge.bounds import first_stage_n, lll_first_stage_n
from caforge.pipeline import group_rho


class TestRandFirstStage:
    def test_meets_target(self):
        p = Parameters(2, 6, 2)
        rho = group_rho(p, GroupKind.TRIVIAL)
        n = first_stage_n(p, GroupKind.TRIVIAL, rho)
        array, report, attempts = rand_first_stage(p, GroupKind.TRIVIAL, n, rho, seed=3)
        assert array.shape == (n, 6)
        assert report.uncovered_count <= rho
        assert attempts >= 1
        # report agrees with a fresh scan
        assert report.uncovered_count == uncovered_list(array, p).uncovered_count

    def test_reproducible(self):
        p = Parameters(2, 5, 2)
        a1, r1, _ = rand_first_stage(p, GroupKind.TRIVIAL, 10, 8.0, seed=42)
        a2, r2, _ = rand_first_stage(p, GroupKind.TRIVIAL, 10, 8.0, seed=42)
        assert np.array_equal(a1, a2)
        assert r1.uncovered == r2.uncovered

    def test_seed_changes_array(self):
        p = Parameters(2, 5, 2)
        a1, _, _ = rand_first_stage(p, GroupKind.TRIVIAL, 10, 8.0, seed=1)
        a2, _, _ = rand_first_stage(p, GroupKind.TRIVIAL, 10, 8.0, seed=2)
        assert not np.array_equal(a1, a2)

    def test_impossible_target_raises(self):
        p = Parameters(2, 6, 3)
        with pytest.raises(RetriesExhausted, match="in 20 tries"):
            rand_first_stage(p, GroupKind.TRIVIAL, 1, 0.0)

    def test_group_scan(self):
        p = Parameters(2, 5, 3)
        array, report, _ = rand_first_stage(p, GroupKind.CYCLIC, 8, 10.0, seed=0)
        assert report.uncovered_count == uncovered_list(
            array, p, group=GroupKind.CYCLIC
        ).uncovered_count

    def test_bad_config(self):
        p = Parameters(2, 5, 2)
        with pytest.raises(ValueError):
            rand_first_stage(p, GroupKind.TRIVIAL, -1, 1.0)
        with pytest.raises(ValueError):
            rand_first_stage(p, GroupKind.TRIVIAL, 10, -1.0)


class TestMtRowCount:
    def test_reference_frobenius(self):
        assert mt_row_count(Parameters(6, 56, 3), GroupKind.FROBENIUS) == 2713

    def test_group_order_shrinks_rows(self):
        p = Parameters(3, 10, 3)
        trivial = mt_row_count(p, GroupKind.TRIVIAL)
        cyclic = mt_row_count(p, GroupKind.CYCLIC)
        frob = mt_row_count(p, GroupKind.FROBENIUS)
        assert frob < cyclic < trivial

    def test_narrow_k_rejected(self):
        with pytest.raises(ValueError):
            mt_row_count(Parameters(3, 5, 2), GroupKind.TRIVIAL)


class TestMtConstruct:
    @pytest.mark.parametrize("group", list(GroupKind))
    def test_developed_array_covers(self, group):
        p = Parameters(2, 5, 3)
        array = mt_construct(p, group, seed=1)
        assert uncovered_list(array, p, group=group).uncovered_count == 0
        dev = develop(array, group, p.v)
        assert verify_covering_array(dev, p)

    def test_row_count_matches_formula(self):
        p = Parameters(2, 5, 2)
        array = mt_construct(p, GroupKind.TRIVIAL, seed=0)
        assert array.shape == (mt_row_count(p, GroupKind.TRIVIAL), 5)

    def test_reproducible(self):
        p = Parameters(2, 4, 2)
        a1 = mt_construct(p, GroupKind.CYCLIC, seed=9)
        a2 = mt_construct(p, GroupKind.CYCLIC, seed=9)
        assert np.array_equal(a1, a2)


class TestMtFirstStage:
    def test_subset_fully_covered(self):
        # every column pair covers the first m tuple ranks
        p = Parameters(2, 5, 2)
        _, m_opt = lll_first_stage_n(p)
        _, report = mt_first_stage(p, seed=4)
        radix = np.array([2, 1])
        assert report.uncovered_count > 0
        for item in report.uncovered:
            assert int(np.dot(item.symbols, radix)) >= m_opt

    def test_report_matches_scan(self):
        p = Parameters(2, 5, 2)
        array, report = mt_first_stage(p, seed=0)
        assert report.uncovered == uncovered_list(array, p).uncovered

    def test_full_subset_builds_covering_array(self):
        # at (2, 64, 2) the LLL optimum asks for all v^t = 4 tuples
        p = Parameters(2, 64, 2)
        assert lll_first_stage_n(p) == (26, 4)
        array, report = mt_first_stage(p, seed=2)
        assert report.uncovered_count == 0
        assert verify_covering_array(array, p)

    def test_narrow_k_rejected(self):
        with pytest.raises(ValueError, match="requires k >= 2t"):
            mt_first_stage(Parameters(3, 5, 2))

    def test_default_row_count_is_lll_optimum(self):
        p = Parameters(2, 5, 2)
        n_opt, _ = lll_first_stage_n(p)
        array, _ = mt_first_stage(p, seed=0)
        assert array.shape == (n_opt, 5)
