"""What each benchmark workload runs.

A construct workload is a list of specs; one pass runs every spec once, each
with its own seed drawn from (workload seed, pass index).  The bounds
workload is a grid of (t, v) strata; one pass evaluates ``bound_report`` on
BOUNDS_K_PER_STRATUM values of k per stratum, with k offsets drawn from the
same seed stream.  Sizes are desk-scale shapes with k scaled down so that a
pass takes one to four seconds on a 2-core 2.1 GHz Xeon VM, which leaves room
for several passes per run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    t: int
    k: int
    v: int
    group: str
    stage1: str
    stage2: str
    r_mult: float
    verify: bool


def _cleanup(group: str, stage2: str) -> Spec:
    return Spec(3, 12, 4, group, "rand", stage2, 30.0, True)


CONSTRUCT = {
    # Stage 1 dominates: the desk-scale shape (t=5, v=5, Frobenius) at
    # reduced k through the random and the group MT first stage, plus the
    # trivial-group MT first stage; verify off.  A random first stage needs
    # a geometric number of attempts, so the pass runs four small random
    # specs rather than one large one, which keeps the pass-to-pass spread
    # low.  Their stage 2 is naive: on Frobenius items greedy costs ~0.6 s
    # per spec whatever k is, and would outweigh stage 1 at this k; greedy
    # on Frobenius is timed on verify.
    "scan": [
        *[Spec(5, 14, 5, "frobenius", "rand", "naive", 2.0, False)] * 4,
        Spec(5, 16, 5, "frobenius", "mt", "greedy", 1.0, False),
        Spec(4, 22, 3, "trivial", "mt", "greedy", 1.0, False),
    ],
    # verify_covering_array on the developed arrays dominates; stage 1 is
    # small.
    "verify": [
        Spec(5, 12, 5, "frobenius", "rand", "greedy", 2.0, True),
        Spec(4, 26, 3, "trivial", "rand", "greedy", 1.0, True),
        Spec(4, 16, 5, "cyclic", "rand", "greedy", 1.0, True),
    ],
    # r = 30 rho leaves ~1,900 items to stage 2, against <= 300 elsewhere,
    # so every stage-2 strategy carries the pass.
    "cleanup": [
        _cleanup(group, stage2)
        for group in ("trivial", "cyclic")
        for stage2 in ("naive", "greedy", "col", "den")
    ],
}

#: Strata of the bounds grid, as in a ``caforge bounds --k-max`` sweep.
BOUNDS_T = (3, 4, 5, 6)
BOUNDS_V = (2, 3, 4, 5, 7)
BOUNDS_K_PER_STRATUM = 3
BOUNDS_K_STEP = 6

WORKLOADS = (*CONSTRUCT, "bounds")


def bounds_k_values(t: int, offset: int) -> list:
    """The k values of one stratum: from 2t + offset in steps of 6."""
    return [2 * t + offset + BOUNDS_K_STEP * j for j in range(BOUNDS_K_PER_STRATUM)]


def bounds_k_range(t: int) -> range:
    """Every k the grid can draw for strength t (offsets 0..5)."""
    return range(2 * t, 2 * t + BOUNDS_K_STEP * BOUNDS_K_PER_STRATUM)
