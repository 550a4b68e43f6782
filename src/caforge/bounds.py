"""Closed-form and recurrence size bounds for covering arrays.

Every function is pure in (t, k, v) plus the group choice.  Closed forms are
evaluated with mpmath (40 significant digits) so that five-digit published
values round correctly; exhaustive integer scans use double precision, which
is ample for their minima.  All logarithms are natural.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .groups import GroupKind, prime_power
from .model import Parameters

mp.dps = 40


def _orbit_log_base(p: Parameters, group: GroupKind):
    """-ln(per-row miss probability of one full orbit) under the group: a
    random row hits a full orbit in |G| of the v^t tuples."""
    order, _, _ = group.shape(p.t, p.v)
    vt = p.v**p.t
    return mp.log(mpf(vt) / (vt - order))


def _dep_degree(p: Parameters) -> int:
    """Column t-sets sharing at least one column with a fixed t-set."""
    return math.comb(p.k, p.t) - math.comb(p.k - p.t, p.t)


def group_rho(p: Parameters, group: GroupKind) -> float:
    """Expected uncovered orbits at the optimal first-stage size."""
    return float(1 / _orbit_log_base(p, group))


def slj_bound(p: Parameters) -> float:
    """Single-stage randomized existence bound."""
    num = mp.log(math.comb(p.k, p.t)) + p.t * mp.log(p.v)
    return float(num / _orbit_log_base(p, GroupKind.TRIVIAL))


def discrete_slj_bound(p: Parameters) -> int:
    """Rows needed when each row covers exactly ceil(u / v^t) new interactions.

    Exact integer recurrence; u can exceed 10^10 so no floating arithmetic
    is involved.
    """
    vt = p.v**p.t
    u = math.comb(p.k, p.t) * vt
    n = 0
    while u > 0:
        u -= -(-u // vt)
        n += 1
    return n


def two_stage_bound(p: Parameters, group: GroupKind = GroupKind.TRIVIAL) -> float:
    """Optimal random-first-stage + one-row-per-leftover bound, for an array
    developed over ``group``: |G| (ln C(k,t) + ln F + ln L + 1) / L plus the
    constant rows, where F is the full orbits per column t-set and L the
    per-row miss base of one full orbit."""
    order, full, constant_rows = group.shape(p.t, p.v)
    L = _orbit_log_base(p, group)
    num = mp.log(math.comb(p.k, p.t)) + mp.log(full) + mp.log(L) + 1
    return float(order * num / L + constant_rows)


def first_stage_n(p: Parameters, group: GroupKind, target_uncovered: float) -> int:
    """Rows so that the expected number of uncovered full orbits is at most
    ``target_uncovered``."""
    if target_uncovered <= 0:
        raise ValueError("target_uncovered must be positive")
    full = math.comb(p.k, p.t) * group.shape(p.t, p.v)[1]
    if target_uncovered >= full:
        warnings.warn("target_uncovered >= total orbit count; no rows needed")
        return 0
    L = _orbit_log_base(p, group)
    return int(mp.ceil(mp.log(mpf(full) / mpf(target_uncovered)) / L))


def gss_bound(p: Parameters, group: GroupKind = GroupKind.TRIVIAL) -> float:
    """Local-lemma existence bound for an array developed over ``group``:
    (ln d + ln F + 1) / L, where d counts the column t-sets sharing a column
    with a fixed one and F, L are as in ``two_stage_bound``.  Its ceiling is
    the Moser-Tardos row count.  Requires k >= 2t."""
    if p.k < 2 * p.t:
        raise ValueError("gss_bound requires k >= 2t")
    _, full, _ = group.shape(p.t, p.v)
    num = mp.log(_dep_degree(p)) + mp.log(full) + 1
    return float(num / _orbit_log_base(p, group))


def _conflict_pairs(p: Parameters, i: int) -> int:
    """Interactions that conflict with one fixed interaction and share
    exactly i of its t columns."""
    return math.comb(p.t, i) * math.comb(p.k - p.t, p.t - i) * (
        p.v**p.t - p.v ** (p.t - i))


def expected_incompat_edges(p: Parameters, n: int) -> float:
    """Expected number of symbol-conflict edges among the interactions left
    uncovered by n uniformly random rows.

    Exact: no row covers two conflicting interactions, so a conflicting pair
    survives one row with probability 1 - 2/v^t, whatever columns it shares.
    The paper's approximation, used by ``coloring_two_stage_estimate``,
    multiplies the two single-interaction decays instead.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    vt = p.v**p.t
    pairs = sum(_conflict_pairs(p, i) for i in range(1, p.t + 1))
    return 0.5 * math.comb(p.k, p.t) * vt * pairs * (1 - 2 / vt) ** n


def chromatic_estimate(m_edges: float) -> float:
    """Worst-case colors needed for any graph with m edges."""
    if m_edges < 0:
        raise ValueError("edge count must be nonnegative")
    return 0.5 + math.sqrt(2 * m_edges + 0.25)


def coloring_two_stage_estimate(p: Parameters, mode: str = "conservative") -> float:
    """Minimum over n of n + chromatic_estimate(c * gamma(n)).

    gamma(n) is the paper's edge-count approximation: a pair sharing i
    columns decays as (1 - 1/v^t)^n (1 - 1/(v^t - v^(t-i)))^n, as if the two
    interactions were uncovered independently.  It never exceeds the exact
    mean of ``expected_incompat_edges`` (they agree only for i = t) and is
    kept because the published coloring values are computed with it.

    ``mode`` is "optimistic" (c=1, edges at gamma) or "conservative"
    (c=2, edges at most twice gamma).
    """
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


def lll_first_stage_n(p: Parameters):
    """(n, m) minimizing the rows needed so every column t-set covers some
    m-subset of tuples while the expected leftover stays below v^t.

    Exhaustive scan over m in [1, v^t]; n is the ceiling of the larger of
    the two per-m row requirements.
    """
    if p.k < 2 * p.t:
        raise ValueError("lll_first_stage_n requires k >= 2t")
    vt, eta, dep = p.v**p.t, math.comb(p.k, p.t), _dep_degree(p)
    L = math.log(vt / (vt - 1))
    best = (math.inf, 0)
    for m in range(1, vt + 1):
        n1 = math.log(math.e * dep * m) / L
        n2 = math.log(eta * math.e * (1 - m / vt)) / L if m < vt else -math.inf
        n = max(n1, n2)
        if n < best[0]:
            best = (n, m)
    return math.ceil(best[0]), best[1]


def lll_two_stage_bound(p: Parameters) -> float:
    """Local-lemma two-stage bound; only valid when the optimal tuple-subset
    size does not exceed v^t."""
    if p.k < 2 * p.t:
        raise ValueError("lll_two_stage_bound requires k >= 2t")
    vt, eta, dep = p.v**p.t, math.comb(p.k, p.t), _dep_degree(p)
    L = _orbit_log_base(p, GroupKind.TRIVIAL)
    m_opt = mpf(eta) * vt * L / dep
    if m_opt > vt:
        raise ValueError(
            f"side condition failed: optimal tuple-subset size {float(m_opt):.1f} "
            f"exceeds v^t = {vt}"
        )
    num = mp.log(eta) + p.t * mp.log(p.v) + mp.log(L) + 2
    return float(num / L - mpf(eta) / dep)


@dataclass
class BoundReport:
    """All bound values for one parameter triple.

    Entries are None when their precondition fails (k < 2t, v not a prime
    power, or the LLL side condition).
    """

    slj: float
    discrete_slj: int
    two_stage: float
    gss: float | None
    cyclic_two_stage: float
    frobenius_two_stage: float | None
    lll_two_stage: float | None
    optimistic_coloring: float
    conservative_coloring: float


def bound_report(p: Parameters) -> BoundReport:
    gss = gss_bound(p) if p.k >= 2 * p.t else None
    frob = two_stage_bound(p, GroupKind.FROBENIUS) if prime_power(p.v) else None
    try:
        lll = lll_two_stage_bound(p)
    except ValueError:
        lll = None
    return BoundReport(
        slj=slj_bound(p),
        discrete_slj=discrete_slj_bound(p),
        two_stage=two_stage_bound(p),
        gss=gss,
        cyclic_two_stage=two_stage_bound(p, GroupKind.CYCLIC),
        frobenius_two_stage=frob,
        lll_two_stage=lll,
        optimistic_coloring=coloring_two_stage_estimate(p, "optimistic"),
        conservative_coloring=coloring_two_stage_estimate(p, "conservative"),
    )
