import numpy as np
import pytest

import csv
import io
from dataclasses import fields

from caforge import (GroupKind, Parameters, RunReport, RunSpec, VerificationFailed,
                     benchmark, run, stage2, two_stage_bound)
from caforge.bounds import _orbit_log_base, group_rho
from caforge.cli import EXIT_VERIFY, _write_csv, main
from conftest import brute_uncovered


class TestRunSpec:
    def test_rejects_unknown_stages(self):
        p = Parameters(2, 5, 2)
        with pytest.raises(ValueError):
            RunSpec(p=p, stage1="bogus")
        with pytest.raises(ValueError):
            RunSpec(p=p, stage2="bogus")

    def test_rejects_mt_narrow_k(self):
        with pytest.raises(ValueError):
            RunSpec(p=Parameters(3, 5, 2), stage1="mt")

    def test_rejects_frobenius_composite_v(self):
        with pytest.raises(ValueError):
            RunSpec(p=Parameters(2, 5, 6), group=GroupKind.FROBENIUS)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            RunSpec(p=Parameters(2, 5, 2), r_multiplier=0.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            RunSpec(p=Parameters(2, 5, 2), seed=-1)


class TestGroupRho:
    def test_trivial_matches_vt_scale(self):
        p = Parameters(2, 5, 3)
        rho = group_rho(p, GroupKind.TRIVIAL)
        assert p.v**p.t - 1 < rho < p.v**p.t

    def test_groups_shrink_rho(self):
        p = Parameters(3, 8, 3)
        triv = group_rho(p, GroupKind.TRIVIAL)
        cyc = group_rho(p, GroupKind.CYCLIC)
        frob = group_rho(p, GroupKind.FROBENIUS)
        assert frob < cyc < triv


class TestPredictedBound:
    def test_dispatch(self):
        p = Parameters(2, 8, 3)
        for group in GroupKind:
            _, rep = run(RunSpec(p=p, group=group))
            assert rep.bound_predicted == two_stage_bound(p, group)


class TestRun:
    @pytest.mark.parametrize("stage2", ["naive", "greedy", "col", "den"])
    @pytest.mark.parametrize("group", list(GroupKind))
    def test_rand_pipeline_produces_covering_array(self, stage2, group):
        p = Parameters(2, 5, 3)
        spec = RunSpec(p=p, stage1="rand", stage2=stage2, group=group,
                       seed=7, verify=True)
        developed, rep = run(spec)
        assert rep.verified is True
        assert not brute_uncovered(developed, p)
        assert rep.N_final == developed.shape[0]

    @pytest.mark.parametrize("group", list(GroupKind))
    def test_mt_pipeline_produces_covering_array(self, group):
        p = Parameters(2, 5, 3)
        spec = RunSpec(p=p, stage1="mt", stage2="greedy", group=group,
                       seed=3, verify=True)
        developed, rep = run(spec)
        assert rep.verified is True
        assert not brute_uncovered(developed, p)

    @pytest.mark.parametrize("stage1,group", [
        ("rand", GroupKind.TRIVIAL), ("rand", GroupKind.CYCLIC),
        ("rand", GroupKind.FROBENIUS), ("mt", GroupKind.TRIVIAL),
        ("mt", GroupKind.FROBENIUS),
    ])
    def test_one_log_base_evaluation(self, stage1, group):
        # the spec check, r, the stage-1 size and the predicted bound share one L
        _orbit_log_base.cache_clear()
        run(RunSpec(p=Parameters(2, 5, 3), stage1=stage1, group=group, seed=3))
        assert _orbit_log_base.cache_info().misses == 1

    def test_mt_group_stage2_is_noop(self):
        p = Parameters(2, 5, 3)
        _, rep = run(RunSpec(p=p, stage1="mt", stage2="naive",
                             group=GroupKind.CYCLIC, seed=0))
        assert rep.uncovered_after_stage1 == 0
        assert rep.rows_stage2 == 0

    def test_reproducible(self):
        spec = RunSpec(p=Parameters(2, 6, 2), stage2="den", seed=11)
        a1, r1 = run(spec)
        a2, r2 = run(spec)
        assert np.array_equal(a1, a2)
        assert r1.N_final == r2.N_final

    def test_r_multiplier_tradeoff(self):
        # a larger r target shortens stage 1 and lengthens stage 2
        p = Parameters(2, 8, 2)
        _, low = run(RunSpec(p=p, r_multiplier=0.5, seed=1, stage2="greedy"))
        _, high = run(RunSpec(p=p, r_multiplier=2.0, seed=1, stage2="greedy"))
        assert high.n_stage1 <= low.n_stage1

    def test_final_size_near_bound(self):
        # sanity band: the realized size should not blow past twice the
        # predicted closed form on an easy instance
        p = Parameters(2, 10, 2)
        _, rep = run(RunSpec(p=p, stage2="den", seed=0, verify=True))
        assert rep.N_final <= 2 * rep.bound_predicted

    @pytest.mark.parametrize("group", list(GroupKind))
    def test_stage2_gap_fails_verification(self, monkeypatch, capsys, group):
        # stage 2 that adds no rows leaves stage 1's uncovered orbits open
        monkeypatch.setattr(stage2, "naive_cover",
                            lambda items, p, *_: np.empty((0, p.k), dtype=np.int64))
        spec = RunSpec(p=Parameters(3, 6, 3), group=group)
        assert run(spec)[1].uncovered_after_stage1 > 0
        with pytest.raises(VerificationFailed):
            run(RunSpec(p=spec.p, group=group, verify=True))
        argv = ["construct", "--t", "3", "--k", "6", "--v", "3", "--group", group.value,
                "--verify"]
        assert main(argv) == EXIT_VERIFY
        assert "verification failed" in capsys.readouterr().err

    def test_verify_skipped_by_default(self):
        _, rep = run(RunSpec(p=Parameters(2, 5, 2), seed=0))
        assert rep.verified == "skipped"

    def test_wall_time_recorded(self):
        _, rep = run(RunSpec(p=Parameters(2, 5, 2), seed=0))
        assert rep.wall_time > 0


class TestBenchmark:
    def test_rows_in_grid_order(self):
        grid = [
            RunSpec(p=Parameters(2, 5, 2), seed=s, stage2="greedy", verify=True)
            for s in range(3)
        ]
        rows = benchmark(grid)
        assert [r["seed"] for r in rows] == [0, 1, 2]
        for row in rows:
            assert row["verified"] is True
            assert row["N_final"] >= 1

    def test_error_recorded_not_raised(self):
        good = RunSpec(p=Parameters(2, 5, 2), seed=0)
        # sneak an invalid stage1/k combination past the constructor so the
        # failure happens inside run()
        bad = RunSpec(p=Parameters(3, 5, 2), seed=0)
        object.__setattr__(bad, "stage1", "mt")
        rows = benchmark([good, bad, good])
        assert rows[1]["verified"] == (
            "error:ValueError: lll_first_stage_n requires k >= 2t")
        assert rows[0]["N_final"] >= 1 and rows[2]["N_final"] >= 1

    def test_error_row_has_every_column(self):
        good = RunSpec(p=Parameters(2, 5, 2), seed=0)
        bad = RunSpec(p=Parameters(3, 5, 2), seed=0)
        object.__setattr__(bad, "stage1", "mt")
        fh = io.StringIO()
        _write_csv(fh, benchmark([bad, good]))
        lines = fh.getvalue().splitlines()
        assert len(lines) == 3 and lines.count(lines[0]) == 1
        error, ok = csv.DictReader(lines)
        report = [f.name for f in fields(RunReport)]
        assert list(error) == [
            "t", "k", "v", "group", "stage1", "stage2", "r_mult", "seed", "verify",
            *report]
        assert error["verified"].startswith("error:ValueError: ")
        assert all(error[name] == "" for name in report if name != "verified")
        assert all(ok[name] != "" for name in report)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            benchmark([])
