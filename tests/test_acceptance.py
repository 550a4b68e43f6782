"""Acceptance suite: one test (and one pass/fail line) per criterion.

Criteria 1 and 6 each carry one check in a test of its own, because each
rests on an analysis that the comments there record: the Frobenius v=5
table value is printed to tens, and the edge-count expectation is compared
with the exact mean, not with the paper's approximation that the coloring
estimates use.
"""

import json
import math
import time

import numpy as np
import pytest

from caforge import (
    GroupKind,
    Parameters,
    RunSpec,
    build_incompat_graph,
    chromatic_estimate,
    color_cover,
    density_cover,
    discrete_slj_bound,
    expected_incompat_edges,
    lll_first_stage_n,
    run,
    slj_bound,
    two_stage_bound,
    uncovered_list,
    verify_covering_array,
)
from caforge.bounds import group_rho
from caforge.cli import main
from caforge.stage2 import smallest_last_order
from conftest import brute_uncovered, exact_chromatic_number
from test_bounds import dslj_oracle


def _bounds_json(capsys, t, k, v, k_max=None):
    argv = ["bounds", "--t", str(t), "--k", str(k), "--v", str(v),
            "--format", "json"]
    if k_max is not None:
        argv += ["--k-max", str(k_max)]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_1_bound_regression(capsys):
    start = time.perf_counter()

    row54 = _bounds_json(capsys, 6, 54, 3)[0]
    assert abs(row54["slj"] - 17236) <= 1
    assert abs(row54["two_stage"] - 13162) <= 1

    row56 = _bounds_json(capsys, 6, 56, 3)[0]
    assert abs(row56["slj"] - 17403) <= 1
    assert row56["discrete_slj"] == 13021
    assert 13327 <= row56["two_stage"] <= 13330
    assert abs(row56["conservative_coloring"] - 12159) <= 1
    assert abs(row56["optimistic_coloring"] - 11919) <= 1

    rows = _bounds_json(capsys, 6, 53, 3, k_max=57)
    two_stage = [13076, 13162, 13246, 13329, 13410]
    cyclic = [13059, 13145, 13229, 13312, 13393]
    for row, ts, cy in zip(rows, two_stage, cyclic):
        assert abs(row["two_stage"] - ts) <= 1
        assert abs(row["cyclic_two_stage"] - cy) <= 1
    assert abs(rows[0]["frobenius_two_stage"] - 13034) <= 1

    n, m = lll_first_stage_n(Parameters(3, 350, 3))
    assert abs(n - 422) <= 1 and m == 16

    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"criterion 1 (bound regression, {elapsed:.1f}s): PASS")


def test_criterion_1_frobenius_v5_table_value():
    # The reference table prints 226570 at (t=6,k=31,v=5), where the closed
    # form evaluates to 226573.74; the same formula matches the v=3 entry
    # (13034 at (6,53,3)) to +-1, so this entry is printed to tens and is
    # compared at that precision.  The unrounded value is pinned by
    # test_bounds.py::TestGroupBounds::test_frobenius_v5_regression.
    # Counting all q = v^(t-1) tuples as orbits instead of (q-1)/(v-1) gives
    # 248225.7 and fails here; dropping the v constant rows (226568.7) is
    # caught by the v=3 entry in test_criterion_1_bound_regression.
    value = two_stage_bound(Parameters(6, 31, 5), GroupKind.FROBENIUS)
    assert round(value, -1) == 226570
    print("criterion 1 (frobenius v=5 table value): PASS")


def test_criterion_2_inconsistency_guard():
    # The prose around this worked example says t=5, but the numbers only
    # come out at t=6; the suite pins them at t=6.
    p = Parameters(6, 20, 3)
    assert abs(slj_bound(p) - 12499) <= 1
    assert discrete_slj_bound(p) == dslj_oracle(6, 20, 3) == 8117
    print("criterion 2 (inconsistency guard): PASS")


def test_criterion_3_construction_validity():
    start = time.perf_counter()
    n_runs = 0
    for t in (2, 3):
        for v in (2, 3):
            for k in range(t, 11):
                p = Parameters(t, k, v)
                for stage1 in ("rand", "mt"):
                    if stage1 == "mt" and k < 2 * t:
                        continue
                    for stage2 in ("naive", "greedy", "col", "den"):
                        for group in GroupKind:
                            for seed in range(25):
                                spec = RunSpec(
                                    p=p, stage1=stage1, stage2=stage2,
                                    group=group, seed=seed,
                                )
                                developed, rep = run(spec)
                                assert verify_covering_array(developed, p), spec
                                n_runs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"criterion 3 (construction validity, {n_runs} runs, "
          f"{elapsed:.0f}s): PASS")


def test_criterion_4_bound_adherence():
    # rand+naive at r = rho never exceeds the matching closed-form bound
    for t, k, v in [(2, 5, 2), (2, 8, 3), (3, 7, 2), (3, 8, 3), (2, 10, 2)]:
        for group in GroupKind:
            for seed in range(10):
                spec = RunSpec(p=Parameters(t, k, v), stage1="rand",
                               stage2="naive", group=group, seed=seed)
                _, rep = run(spec)
                assert rep.N_final <= math.ceil(rep.bound_predicted), spec

    # density rows always retire at least ceil(u / v^t) items
    for seed in range(10):
        p = Parameters(2, 6, 2)
        rng = np.random.default_rng(seed)
        array = rng.integers(0, 2, size=(3, 6))
        report = uncovered_list(array, p)
        rows = density_cover(report.uncovered, p, GroupKind.TRIVIAL)
        alive = [(i.columns, i.symbols) for i in report.uncovered]
        for row in rows:
            u = len(alive)
            alive, retired = [item for item in alive if not all(
                row[c] == s for c, s in zip(*item))], sum(
                1 for item in alive
                if all(row[c] == s for c, s in zip(*item)))
            assert retired >= -(-u // 4)
        assert not alive

    # coloring never uses more rows than 1/2 + sqrt(2m + 1/4)
    for seed in range(10):
        p = Parameters(2, 7, 3)
        rng = np.random.default_rng(seed)
        array = rng.integers(0, 3, size=(4, 7))
        g = build_incompat_graph(uncovered_list(array, p).uncovered, p,
                                 GroupKind.TRIVIAL)
        _, n_colors, _ = color_cover(g, p, GroupKind.TRIVIAL,
                                     np.random.default_rng(0))
        assert n_colors <= chromatic_estimate(g.m_edges)
    print("criterion 4 (bound adherence): PASS")


def test_criterion_5_oracle_equivalence():
    # streaming scan vs the quadratic per-interaction oracle
    rng = np.random.default_rng(2024)
    checked_graphs = 0
    for trial in range(200):
        k = int(rng.integers(2, 7))
        v = int(rng.integers(2, 4))
        n = int(rng.integers(0, 8))
        p = Parameters(2, k, v)
        array = rng.integers(0, v, size=(n, k))
        report = uncovered_list(array, p)
        assert report.uncovered == brute_uncovered(array, p)

        g = build_incompat_graph(report.uncovered, p, GroupKind.TRIVIAL)
        _, degeneracy = smallest_last_order(g)
        _, n_colors, _ = color_cover(g, p, GroupKind.TRIVIAL,
                                     np.random.default_rng(0))
        assert n_colors <= degeneracy + 1
        if 0 < len(g.rows) <= 10:
            chi = exact_chromatic_number(g.adjacency)
            assert chi <= n_colors <= degeneracy + 1
            checked_graphs += 1
    assert checked_graphs > 0
    print(f"criterion 5 (oracle equivalence, {checked_graphs} exact-chi "
          f"graphs): PASS")


def test_criterion_6_uncovered_concentration():
    p = Parameters(2, 8, 2)
    n = 10
    counts = []
    for seed in range(500):
        rng = np.random.default_rng(np.random.SeedSequence([99, seed]))
        array = rng.integers(0, 2, size=(n, 8))
        counts.append(uncovered_list(array, p).uncovered_count)
    counts = np.array(counts, dtype=float)
    expected = math.comb(8, 2) * 4 * (1 - 0.25) ** n
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - expected) <= 3 * se
    print("criterion 6 (uncovered concentration): PASS")


def test_criterion_6_gamma_edge_concentration():
    # expected_incompat_edges is exact: no row covers two conflicting
    # interactions, so a conflicting pair survives n rows with probability
    # (1 - 2/v^t)^n, 9.375 edges here.  The paper's gamma, which the coloring
    # estimates keep, multiplies the two per-vertex decays as if uncovering
    # were independent; the two agree only when the pair shares all t
    # columns, and at v^t = 4, n = 5 gamma gives ~3.7, dozens of standard
    # errors from the sampled mean.
    p = Parameters(2, 5, 2)
    n = 5
    edges = []
    for seed in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence([7, seed]))
        array = rng.integers(0, 2, size=(n, 5))
        g = build_incompat_graph(uncovered_list(array, p).uncovered, p,
                                 GroupKind.TRIVIAL)
        edges.append(g.m_edges)
    edges = np.array(edges, dtype=float)
    expected = expected_incompat_edges(p, n)
    se = edges.std(ddof=1) / math.sqrt(len(edges))
    assert abs(edges.mean() - expected) <= 3 * se
    print("criterion 6 (gamma edge concentration): PASS")


@pytest.mark.slow
def test_criterion_7_desk_scale_reproduction():
    # Desk-scale randomized run, built and orbit-verified in about 15 minutes
    # on 2 cores; compares against the reference 48325.
    spec = RunSpec(p=Parameters(5, 67, 5), stage1="rand", stage2="greedy",
                   r_multiplier=2.0, group=GroupKind.FROBENIUS, seed=0, verify=True)
    _, rep = run(spec)
    assert rep.verified is True
    assert abs(rep.N_final - 48325) / 48325 <= 0.05
    print(f"criterion 7 (desk-scale reproduction, N={rep.N_final}): PASS")
