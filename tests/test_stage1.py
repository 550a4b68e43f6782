import hashlib
import json
import math

import numpy as np
import pytest

from caforge import (
    GroupKind,
    IterationCapExceeded,
    Parameters,
    RetriesExhausted,
    RunSpec,
    coverage,
    develop,
    mt_construct,
    mt_first_stage,
    rand_first_stage,
    run,
    stage1,
    uncovered_list,
    verify_covering_array,
)
from caforge.bounds import first_stage_n, group_rho, gss_bound, lll_first_stage_n
from caforge.groups import prime_power


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


def mt_rows(p, group):
    """The Moser-Tardos row count: the ceiling of the group's GSS bound."""
    return math.ceil(gss_bound(p, group))


# sha256 of the JSON list of row counts below, recorded from the formula's
# earlier standalone form in stage1.
MT_ROWS_DIGEST = "bbd429cf93ffef5017526183aed613c15edde5400015ce17112fbae117ebf22b"


class TestMtRowCount:
    def test_reference_frobenius(self):
        assert mt_rows(Parameters(6, 56, 3), GroupKind.FROBENIUS) == 2713

    def test_group_order_shrinks_rows(self):
        p = Parameters(3, 10, 3)
        trivial = mt_rows(p, GroupKind.TRIVIAL)
        cyclic = mt_rows(p, GroupKind.CYCLIC)
        frob = mt_rows(p, GroupKind.FROBENIUS)
        assert frob < cyclic < trivial

    def test_narrow_k_rejected(self):
        with pytest.raises(ValueError):
            mt_rows(Parameters(3, 5, 2), GroupKind.TRIVIAL)
        with pytest.raises(ValueError, match="requires k >= 2t"):
            mt_construct(Parameters(3, 5, 2), GroupKind.TRIVIAL)

    def test_pinned_counts(self):
        # 2,300 cases: t 2-6, v 2-9, every group v admits, k from 2t to 2t+19.
        rows = [mt_rows(Parameters(t, k, v), group)
                for t in range(2, 7) for v in range(2, 10) for group in GroupKind
                if group is not GroupKind.FROBENIUS or prime_power(v)
                for k in range(2 * t, 2 * t + 20)]
        assert len(rows) == 2300
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == MT_ROWS_DIGEST


class TestMtConstruct:
    @pytest.mark.parametrize("group", list(GroupKind))
    def test_developed_array_covers(self, group):
        p = Parameters(2, 5, 3)
        array, report = mt_construct(p, group, seed=1)
        assert report.uncovered == [] and not report.truncated
        assert uncovered_list(array, p, group=group).uncovered_count == 0
        dev = develop(array, group, p.v)
        assert verify_covering_array(dev, p)

    def test_row_count_matches_formula(self):
        p = Parameters(2, 5, 2)
        array, _ = mt_construct(p, GroupKind.TRIVIAL, seed=0)
        assert array.shape == (mt_rows(p, GroupKind.TRIVIAL), 5)

    def test_reproducible(self):
        p = Parameters(2, 4, 2)
        a1, _ = mt_construct(p, GroupKind.CYCLIC, seed=9)
        a2, _ = mt_construct(p, GroupKind.CYCLIC, seed=9)
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


class TestIterationCap:
    """The cap counts resamples: a cap of c allows c of them, and the
    (c+1)-th raises."""

    def test_cap_trips_at_the_same_resample(self, monkeypatch):
        p = Parameters(3, 8, 4)  # seed 1 resamples twice
        uncapped, _ = mt_construct(p, GroupKind.CYCLIC, seed=1)
        monkeypatch.setattr(stage1, "ITERATION_CAP", 1)
        with pytest.raises(IterationCapExceeded, match="more than 1 resamples"):
            mt_construct(p, GroupKind.CYCLIC, seed=1)
        monkeypatch.setattr(stage1, "ITERATION_CAP", 2)
        capped, _ = mt_construct(p, GroupKind.CYCLIC, seed=1)
        assert np.array_equal(capped, uncapped)

    def test_first_stage_cap_zero(self, monkeypatch):
        monkeypatch.setattr(stage1, "ITERATION_CAP", 0)
        with pytest.raises(IterationCapExceeded, match="more than 0 resamples"):
            mt_first_stage(Parameters(2, 6, 3), seed=1)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Column t-sets passed to the batched coverage kernel.  stage1 is
    patched too, so that a private binding of the kernel there counts."""
    calls, kernel = [], coverage._uncovered

    def counted(columns, tsets, *args):
        calls.extend(tsets)
        return kernel(columns, tsets, *args)

    for module in (coverage, stage1):
        monkeypatch.setattr(module, "_uncovered", counted, raising=False)
    return calls


class TestOneScanPerPass:
    """Moser-Tardos reports the leftovers of its own last pass, so no
    finished array is scanned a second time."""

    def test_first_stage(self, kernel_calls):
        p = Parameters(4, 22, 3)  # seed 1 resamples nothing
        mt_first_stage(p, seed=1)
        assert len(kernel_calls) == math.comb(22, 4)

    def test_pipeline_mt_construct(self, kernel_calls):
        spec = RunSpec(p=Parameters(3, 7, 3), stage1="mt", group=GroupKind.FROBENIUS,
                       seed=1)
        run(spec)
        assert len(kernel_calls) == math.comb(7, 3)
