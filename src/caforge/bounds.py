"""Closed-form and recurrence size bounds for covering arrays.

Every function is pure in (t, k, v) plus the group choice, and raises
``ValueError`` where its bound does not apply.  Closed forms are evaluated at
40 significant digits in a private mpmath context, so that five-digit
published values round correctly; integer minima use doubles.  Logs are natural.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from mpmath import MPContext

from .groups import GroupKind
from .model import Parameters

mp = MPContext()
mp.dps = 40


@functools.lru_cache
def _orbit_log_base(p: Parameters, group: GroupKind):
    """-ln(per-row miss probability of one full orbit) under the group: a
    random row hits a full orbit in |G| of the v^t tuples.  The quotient gets
    v^t's bits beyond the working precision, so it never rounds to 1.  Cached
    per (p, group): a run and a bound report reuse one immutable mpf."""
    order, vt = group.shape(p.t, p.v)[0], p.v**p.t
    return mp.log(mp.fdiv(vt, vt - order, prec=mp.prec + vt.bit_length()))


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


#: Most word-steps (300-500 ns each) ``discrete_slj_bound`` takes; past it, None.
DSLJ_STEP_BUDGET = 10**7


def discrete_slj_bound(p: Parameters) -> int | None:
    """Rows needed when each row covers exactly ceil(u / v^t) new interactions.

    Exact integer recurrence; u can exceed 10^10 so no floating arithmetic
    is involved.  Rows are single steps while u > (v^t)^2, about
    v^t ln(C(k,t) / v^t), then one step per run of equal decrement, at most
    min(C(k,t), v^t).  A step costs one unit per 64-bit word of
    u0 = C(k,t) v^t; None when steps times words exceed ``DSLJ_STEP_BUDGET``.
    """
    vt, eta = p.v**p.t, math.comb(p.k, p.t)
    words = -(-(eta * vt).bit_length() // 64)
    if words * min(eta, vt) > DSLJ_STEP_BUDGET or words * (
            vt * max(math.log(eta) - math.log(vt), 0) + min(eta, vt)) > DSLJ_STEP_BUDGET:
        return None
    u, n = eta * vt, 0
    while u > vt * vt:
        u, n = u - -(-u // vt), n + 1
    while u > 0:
        d = -(-u // vt)
        run = -(-(u - (d - 1) * vt) // d)  # rows until ceil(u / v^t) drops
        u, n = u - run * d, n + run
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
    return int(mp.ceil(mp.log(mp.mpf(full) / target_uncovered) / _orbit_log_base(p, group)))


def gss_bound(p: Parameters, group: GroupKind = GroupKind.TRIVIAL) -> float:
    """Local-lemma existence bound for an array developed over ``group``:
    (ln d + ln F + 1) / L, where d counts the column t-sets sharing a column
    with a fixed one and F, L are as in ``two_stage_bound``.  Its ceiling is
    the Moser-Tardos row count.  Requires k >= 2t."""
    if p.k < 2 * p.t:
        raise ValueError("gss_bound requires k >= 2t")
    num = mp.log(_dep_degree(p)) + mp.log(group.shape(p.t, p.v)[1]) + 1
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
    """Minimum over n in [1, ceil(slj)] of n + chromatic_estimate(c * gamma(n)).

    gamma(n) is the paper's edge-count approximation: a pair sharing i
    columns decays as (1 - 1/v^t)^n (1 - 1/(v^t - v^(t-i)))^n, as if the two
    interactions were uncovered independently.  It never exceeds the exact
    mean of ``expected_incompat_edges`` (they agree only for i = t) and is
    kept because the published coloring values are computed with it.

    ``mode`` is "optimistic" (c=1, edges at gamma) or "conservative"
    (c=2, edges at most twice gamma).

    f(n) = n + 1/2 + sqrt(2c gamma(n) + 1/4), gamma(n) = sum_i a_i e^(-b_i n)
    with a_i >= 0, is convex: the root is the Euclidean norm of 1/2 and the
    (sqrt(2c a_i) e^(-b_i n / 2))_i, each nonnegative and convex in n, and a
    norm is convex and nondecreasing in nonnegative components.  So bisect on
    the sign of f(n+1) - f(n), then take the float minimum within 64 points.
    """
    c = {"optimistic": 1, "conservative": 2}[mode]
    t, k, v, vt = p.t, p.k, p.v, p.v**p.t

    def f(n):  # one vector expression for every point keeps the floats identical
        gamma = np.zeros(len(n))
        for i in range(1, t + 1):
            pairs = _conflict_pairs(p, i)
            log_decay = math.log1p(-1 / vt) + math.log1p(-1 / (vt - v ** (t - i)))
            gamma += pairs * np.exp(n * log_decay)
        gamma *= 0.5 * math.comb(k, t) * vt
        return n + 0.5 + np.sqrt(2 * c * gamma + 0.25)

    top = math.ceil(min(slj_bound(p), 2**53))
    if top == 2**53:
        raise ValueError("coloring estimate needs ceil(slj) < 2^53, where n is exact")
    lo, hi = 1, top
    while hi - lo > 64:
        mid = (lo + hi) // 2
        f_mid, f_next = f(np.array([mid, mid + 1]))
        lo, hi = (lo, mid) if f_next >= f_mid else (mid + 1, hi)
    return float(np.min(f(np.arange(max(1, lo - 64), min(hi + 64, top) + 1))))


def lll_first_stage_n(p: Parameters):
    """(n, m) minimizing the rows needed so every column t-set covers some
    m-subset of tuples while the expected leftover stays below v^t.

    n is the ceiling of max(n1(m), n2(m)); n1 = ln(e d m) / L rises in m and
    n2 = ln(e C(k,t) (1 - m/v^t)) / L falls, so the least is at floor or ceil
    of their crossing m* = C(k,t) v^t / (d v^t + C(k,t)), the smaller m on a tie.
    """
    if p.k < 2 * p.t:
        raise ValueError("lll_first_stage_n requires k >= 2t")
    vt, eta, dep = p.v**p.t, math.comb(p.k, p.t), _dep_degree(p)
    L = float(_orbit_log_base(p, GroupKind.TRIVIAL))

    def rows(m):
        n1 = math.log(math.e * dep * m) / L
        n2 = math.log(eta * math.e * (1 - m / vt)) / L if m < vt else -math.inf
        return max(n1, n2), m

    m_floor = eta * vt // (dep * vt + eta)  # 0 <= m_floor < m* < v^t
    n, m = min(rows(max(m_floor, 1)), rows(m_floor + 1))
    return math.ceil(n), m


def lll_two_stage_bound(p: Parameters) -> float:
    """Local-lemma two-stage bound; only valid when the optimal tuple-subset
    size does not exceed v^t."""
    if p.k < 2 * p.t:
        raise ValueError("lll_two_stage_bound requires k >= 2t")
    vt, eta, dep = p.v**p.t, math.comb(p.k, p.t), _dep_degree(p)
    L = _orbit_log_base(p, GroupKind.TRIVIAL)
    m_opt = mp.mpf(eta) * vt * L / dep
    if m_opt > vt:
        raise ValueError(f"side condition failed: optimal tuple-subset size "
                         f"{float(m_opt):.1f} exceeds v^t = {vt}")
    num = mp.log(eta) + p.t * mp.log(p.v) + mp.log(L) + 2
    return float(num / L - mp.mpf(eta) / dep)


@dataclass
class BoundReport:
    """All bound values for one parameter triple; an entry is None where its
    bound does not apply (k < 2t, v not a prime power, the LLL side condition,
    the discrete SLJ step budget, ceil(slj) >= 2^53) or is not finite."""

    slj: float | None
    discrete_slj: int | None
    two_stage: float | None
    gss: float | None
    cyclic_two_stage: float | None
    frobenius_two_stage: float | None
    lll_two_stage: float | None
    optimistic_coloring: float | None
    conservative_coloring: float | None


def _applied(bound, *args):
    """``bound(*args)``, or None where it does not apply or is a non-finite float."""
    try:
        value = bound(*args)
    except ValueError:
        return None
    return None if isinstance(value, float) and not math.isfinite(value) else value


def bound_report(p: Parameters) -> BoundReport:
    return BoundReport(
        slj=_applied(slj_bound, p),
        discrete_slj=_applied(discrete_slj_bound, p),
        two_stage=_applied(two_stage_bound, p),
        gss=_applied(gss_bound, p),
        cyclic_two_stage=_applied(two_stage_bound, p, GroupKind.CYCLIC),
        frobenius_two_stage=_applied(two_stage_bound, p, GroupKind.FROBENIUS),
        lll_two_stage=_applied(lll_two_stage_bound, p),
        optimistic_coloring=_applied(coloring_two_stage_estimate, p, "optimistic"),
        conservative_coloring=_applied(coloring_two_stage_estimate, p, "conservative"),
    )
