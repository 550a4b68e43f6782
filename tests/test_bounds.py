import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import caforge
from caforge import (
    Parameters,
    build_incompat_graph,
    chromatic_estimate,
    coloring_two_stage_estimate,
    discrete_slj_bound,
    expected_incompat_edges,
    first_stage_n,
    gss_bound,
    lll_first_stage_n,
    lll_two_stage_bound,
    slj_bound,
    two_stage_bound,
    uncovered_list,
)
from caforge.bounds import bound_report, group_rho, _conflict_pairs
from caforge.groups import GroupKind


def dslj_oracle(t, k, v):
    # Independent re-derivation of the row recurrence with explicit ceiling.
    vt = v**t
    u = math.comb(k, t) * vt
    steps = 0
    while u:
        covered = (u + vt - 1) // vt
        u -= covered
        steps += 1
    return steps


def coloring_oracle(p, mode):
    # The full scan over every n in [1, ceil(slj)], as a reference for the
    # convex search; each point uses the same float expression.
    c = {"optimistic": 1, "conservative": 2}[mode]
    t, k, v = p.t, p.k, p.v
    vt = v**t
    n = np.arange(1, math.ceil(slj_bound(p)) + 1)
    gamma = np.zeros(len(n))
    for i in range(1, t + 1):
        pairs = _conflict_pairs(p, i)
        log_decay = math.log1p(-1 / vt) + math.log1p(-1 / (vt - v ** (t - i)))
        gamma += pairs * np.exp(n * log_decay)
    gamma *= 0.5 * math.comb(k, t) * vt
    return float(np.min(n + 0.5 + np.sqrt(2 * c * gamma + 0.25)))


def lll_oracle(p):
    # The exhaustive scan over every m in [1, v^t], as a reference for the
    # closed-form crossing; the first strict minimum wins.
    vt, eta = p.v**p.t, math.comb(p.k, p.t)
    dep = eta - math.comb(p.k - p.t, p.t)
    L = math.log(vt / (vt - 1))
    best = (math.inf, 0)
    for m in range(1, vt + 1):
        n1 = math.log(math.e * dep * m) / L
        n2 = math.log(eta * math.e * (1 - m / vt)) / L if m < vt else -math.inf
        n = max(n1, n2)
        if n < best[0]:
            best = (n, m)
    return math.ceil(best[0]), best[1]


@st.composite
def small_triples(draw):
    t = draw(st.integers(2, 4))
    v = draw(st.integers(2, 5))
    k = draw(st.integers(t, t + 14))
    return Parameters(t, k, v)


@st.composite
def lll_triples(draw):
    # v^t <= 7^6 = 117,649, so the oracle's scan stays short
    t = draw(st.integers(2, 6))
    return Parameters(t, draw(st.integers(2 * t, 2 * t + 80)), draw(st.integers(2, 7)))


@st.composite
def any_triples(draw):
    t = draw(st.integers(2, 64))
    return Parameters(t, draw(st.integers(t, 4 * t)), draw(st.integers(2, 1000)))


class TestAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(small_triples())
    def test_discrete_slj_equals_oracle(self, p):
        assert discrete_slj_bound(p) == dslj_oracle(p.t, p.k, p.v)

    @settings(max_examples=60, deadline=None)
    @given(small_triples(), st.sampled_from(["optimistic", "conservative"]))
    def test_coloring_equals_oracle(self, p, mode):
        assert coloring_two_stage_estimate(p, mode) == coloring_oracle(p, mode)

    @settings(max_examples=60, deadline=None)
    @given(lll_triples())
    def test_lll_first_stage_equals_oracle(self, p):
        assert lll_first_stage_n(p) == lll_oracle(p)

    def test_largest_grid_triple(self):
        p = Parameters(6, 29, 7)
        assert discrete_slj_bound(p) == dslj_oracle(6, 29, 7)
        for mode in ("optimistic", "conservative"):
            assert coloring_two_stage_estimate(p, mode) == coloring_oracle(p, mode)

    @pytest.mark.parametrize("t,k,v", [
        (8, 40, 10),   # too many steps
        (17, 27, 763),  # few enough steps, but each on 3-word integers
    ])
    def test_over_step_budget_is_none(self, t, k, v):
        start = time.perf_counter()
        p = Parameters(t, k, v)
        assert discrete_slj_bound(p) is None
        assert bound_report(p).discrete_slj is None
        assert time.perf_counter() - start < 1


class TestSlj:
    @pytest.mark.parametrize("t,k,v,expected", [
        (6, 54, 3, 17236),
        (6, 56, 3, 17403),
    ])
    def test_reference_values(self, t, k, v, expected):
        assert abs(slj_bound(Parameters(t, k, v)) - expected) <= 1

    def test_tiny_case(self):
        assert slj_bound(Parameters(2, 2, 2)) == pytest.approx(
            math.log(4) / math.log(4 / 3), rel=1e-12
        )


class TestDiscreteSlj:
    @pytest.mark.parametrize("t,k,v,expected", [
        (6, 56, 3, 13021),
        (2, 2, 2, 4),
        (6, 20, 3, 8117),
    ])
    def test_values(self, t, k, v, expected):
        assert discrete_slj_bound(Parameters(t, k, v)) == expected
        assert dslj_oracle(t, k, v) == expected

    def test_at_most_ceil_slj(self):
        for t in range(2, 7):
            for v in range(2, 7):
                for k in [t, t + 1, 2 * t, 13, 25, 47]:
                    if k < t:
                        continue
                    p = Parameters(t, k, v)
                    assert discrete_slj_bound(p) <= math.ceil(slj_bound(p))


class TestTwoStage:
    @pytest.mark.parametrize("t,k,v,expected", [
        (6, 54, 3, 13162),
        (6, 53, 3, 13076),
    ])
    def test_reference_values(self, t, k, v, expected):
        assert abs(two_stage_bound(Parameters(t, k, v)) - expected) <= 1

    def test_either_rounding_at_k56(self):
        val = two_stage_bound(Parameters(6, 56, 3))
        assert 13328 <= val <= 13329

    def test_below_slj(self):
        for t in range(2, 7):
            for v in range(2, 7):
                for k in [t + 1, 2 * t, 20, 60]:
                    p = Parameters(t, k, v)
                    assert two_stage_bound(p) < slj_bound(p)

    def test_gap_to_discrete_slj_band(self):
        for k in range(12, 101):
            p = Parameters(6, k, 3)
            gap = two_stage_bound(p) - discrete_slj_bound(p)
            assert 300 <= gap <= 320


class TestFirstStageN:
    def test_optimal_trivial(self):
        p = Parameters(6, 54, 3)
        n = first_stage_n(p, GroupKind.TRIVIAL, group_rho(p, GroupKind.TRIVIAL))
        assert n in (12433, 12434)

    def test_no_rows_needed(self):
        p = Parameters(2, 5, 2)
        with pytest.warns(UserWarning):
            assert first_stage_n(p, GroupKind.TRIVIAL, 40) == 0

    def test_decomposes_two_stage_bound(self):
        p = Parameters(6, 53, 3)
        rho = group_rho(p, GroupKind.TRIVIAL)
        n = first_stage_n(p, GroupKind.TRIVIAL, rho)
        assert abs(n + rho - two_stage_bound(p)) <= 1


class TestGss:
    def test_large_case(self):
        assert gss_bound(Parameters(6, 54, 3)) == pytest.approx(17494.19, abs=0.5)

    def test_small_case(self):
        # C(4,2) - C(2,2) = 5
        expected = (math.log(5) + 2 * math.log(2) + 1) / math.log(4 / 3)
        assert gss_bound(Parameters(2, 4, 2)) == pytest.approx(expected, rel=1e-12)

    def test_rejects_narrow_k(self):
        with pytest.raises(ValueError):
            gss_bound(Parameters(6, 11, 3))


class TestGroupBounds:
    @pytest.mark.parametrize("k,expected", [(53, 13059), (57, 13393)])
    def test_cyclic_reference(self, k, expected):
        value = two_stage_bound(Parameters(6, k, 3), GroupKind.CYCLIC)
        assert abs(value - expected) <= 1

    def test_cyclic_small(self):
        expected = 2 * (
            math.log(3) + math.log(2) + math.log(math.log(2)) + 1
        ) / math.log(2)
        value = two_stage_bound(Parameters(2, 3, 2), GroupKind.CYCLIC)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_frobenius_reference_v3(self):
        value = two_stage_bound(Parameters(6, 53, 3), GroupKind.FROBENIUS)
        assert abs(value - 13034) <= 1

    def test_frobenius_v5_regression(self):
        # Frozen value of the closed form; the reference table rounds to tens.
        value = two_stage_bound(Parameters(6, 31, 5), GroupKind.FROBENIUS)
        assert value == pytest.approx(226573.74, abs=0.05)

    def test_frobenius_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            two_stage_bound(Parameters(6, 53, 6), GroupKind.FROBENIUS)


class TestIncompatEdges:
    def test_zero_rows_small_case(self):
        assert expected_incompat_edges(Parameters(2, 3, 2), 0) == pytest.approx(42.0)

    def test_zero_rows_matches_pair_enumeration(self):
        import itertools
        for t, k, v in [(2, 3, 2), (2, 4, 3)]:
            pairs = 0
            items = [
                (cols, syms)
                for cols in itertools.combinations(range(k), t)
                for syms in itertools.product(range(v), repeat=t)
            ]
            for (c1, s1), (c2, s2) in itertools.combinations(items, 2):
                shared = set(c1) & set(c2)
                if any(s1[c1.index(c)] != s2[c2.index(c)] for c in shared):
                    pairs += 1
            assert expected_incompat_edges(Parameters(t, k, v), 0) == pytest.approx(
                pairs
            )

    def test_decays_to_zero(self):
        assert expected_incompat_edges(Parameters(2, 4, 2), 10_000) < 1e-9

    @pytest.mark.parametrize("t,k,v,n", [
        (2, 3, 2, 2), (2, 3, 2, 3), (2, 4, 2, 2), (2, 3, 3, 1), (3, 4, 2, 2),
    ])
    def test_matches_mean_over_all_arrays(self, t, k, v, n):
        # Every n x k array is equally likely under uniform random rows, so
        # the mean edge count over all of them is the expectation itself.
        p = Parameters(t, k, v)
        total = 0
        for cells in itertools.product(range(v), repeat=n * k):
            array = np.array(cells, dtype=int).reshape(n, k)
            g = build_incompat_graph(uncovered_list(array, p).uncovered, p,
                                     GroupKind.TRIVIAL)
            total += g.m_edges
        assert expected_incompat_edges(p, n) == pytest.approx(
            total / v ** (n * k), rel=1e-12)


class TestChromaticEstimate:
    @pytest.mark.parametrize("m,expected", [(0, 1), (1, 2), (3, 3)])
    def test_values(self, m, expected):
        assert chromatic_estimate(m) == pytest.approx(expected)

    def test_monotone(self):
        vals = [chromatic_estimate(m) for m in range(0, 200, 7)]
        assert vals == sorted(vals)


class TestColoringEstimates:
    def test_reference_values(self):
        p = Parameters(6, 56, 3)
        assert abs(coloring_two_stage_estimate(p, "optimistic") - 11919) <= 1
        assert abs(coloring_two_stage_estimate(p, "conservative") - 12159) <= 1

    def test_conservative_dominates(self):
        for t, k, v in [(2, 5, 2), (3, 8, 2), (2, 9, 3)]:
            p = Parameters(t, k, v)
            assert coloring_two_stage_estimate(p, "conservative") >= \
                coloring_two_stage_estimate(p, "optimistic")


class TestLllBounds:
    def test_first_stage_reference(self):
        n, m = lll_first_stage_n(Parameters(3, 350, 3))
        assert m == 16
        assert abs(n - 422) <= 1

    def test_first_stage_matches_exhaustive_scan(self):
        p = Parameters(2, 5, 2)
        assert lll_first_stage_n(p) == lll_oracle(p) == (11, 1)

    def test_two_stage_identity(self):
        # Differs from the plain two-stage bound by 1/L - eta/dep exactly.
        for t, k, v in [(3, 60, 3), (4, 40, 4), (5, 60, 4)]:
            p = Parameters(t, k, v)
            vt = v**t
            L = math.log(vt / (vt - 1))
            eta = math.comb(k, t)
            dep = eta - math.comb(k - t, t)
            expected = two_stage_bound(p) + 1 / L - eta / dep
            assert lll_two_stage_bound(p) == pytest.approx(expected, rel=1e-9)

    def test_side_condition_rejected(self):
        with pytest.raises(ValueError, match="side condition"):
            lll_two_stage_bound(Parameters(2, 30, 2))

    def test_below_gss_for_wide_small_strength(self):
        for k in range(100, 201, 20):
            p = Parameters(3, k, 3)
            assert lll_two_stage_bound(p) < gss_bound(p)

    def test_above_two_stage_moderate(self):
        for k in range(20, 61, 10):
            p = Parameters(4, k, 4)
            assert lll_two_stage_bound(p) > two_stage_bound(p)


class TestBoundReport:
    @settings(max_examples=25, deadline=None)
    @given(any_triples())
    def test_total(self, p):
        # Every triple gets a report, even where v^t or the values outgrow a
        # float: each entry is a finite number or None.
        rep = bound_report(p)
        assert all(x is None or math.isfinite(x) for x in astuple(rep))

    def test_gss_beyond_40_digits(self):
        # v^t = 10^180: ln(v^t / (v^t - 1)) must not round to 0
        value = gss_bound(Parameters(60, 120, 1000))
        assert 4.9e182 < value < 5.0e182


def test_mpmath_global_precision_untouched():
    # A fresh interpreter: importing caforge and evaluating every bound must
    # leave mpmath's process-wide precision at its default of 15 digits.
    code = ("import mpmath, caforge; "
            "caforge.bound_report(caforge.Parameters(3, 8, 3)); print(mpmath.mp.dps)")
    src = os.path.dirname(os.path.dirname(caforge.__file__))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["15"]
