"""Orchestration of the two-stage construction: pick n, run both stages,
develop over the group, verify, report."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import bounds, stage1, stage2
# perfbench traces pipeline.uncovered_list, so the name stays imported.
from .coverage import uncovered_list, verify_covering_array  # noqa: F401
from .groups import GroupKind, develop
from .model import Parameters, VerificationFailed

STAGE1_KINDS = ("rand", "mt")
STAGE2_KINDS = ("naive", "greedy", "col", "den")


@dataclass(frozen=True)
class RunSpec:
    p: Parameters
    stage1: str = "rand"
    stage2: str = "naive"
    r_multiplier: float = 1.0
    group: GroupKind = GroupKind.TRIVIAL
    seed: int = 0
    verify: bool = False

    def __post_init__(self):
        if self.stage1 not in STAGE1_KINDS:
            raise ValueError(f"unknown first stage {self.stage1!r}")
        if self.stage2 not in STAGE2_KINDS:
            raise ValueError(f"unknown second stage {self.stage2!r}")
        if self.stage1 == "mt" and self.p.k < 2 * self.p.t:
            raise ValueError("mt first stage requires k >= 2t")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # group_rho rejects Frobenius without a prime power
        if not 0 < self.r_multiplier * bounds.group_rho(self.p, self.group) < math.inf:
            raise ValueError("r_multiplier must be positive and give a finite r")


@dataclass
class RunReport:
    n_stage1: int
    uncovered_after_stage1: int
    rows_stage2: int
    N_final: int
    bound_predicted: float
    retries: int
    wall_time: float
    verified: object  # True or "skipped"; a failed check raises VerificationFailed


def run(spec: RunSpec):
    """Execute the two-stage pipeline; returns (developed array, report)."""
    p, group = spec.p, spec.group
    start = time.perf_counter()
    r = spec.r_multiplier * bounds.group_rho(p, group)
    retries = 0

    if spec.stage1 == "rand":
        n = bounds.first_stage_n(p, group, r)
        partial, report, retries = stage1.rand_first_stage(p, group, n, r, seed=spec.seed)
    elif group is GroupKind.TRIVIAL:
        partial, report = stage1.mt_first_stage(p, seed=spec.seed)
    else:
        # Under a group action the resampling construction covers every
        # orbit outright; the second stage has nothing left to do.
        partial, report = stage1.mt_construct(p, group, seed=spec.seed)

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1 << 32]))
    items = report.uncovered
    if spec.stage2 == "naive":
        extra = stage2.naive_cover(items, p, group, rng)
    elif spec.stage2 == "greedy":
        extra = stage2.greedy_cover(items, p, group, rng)
    elif spec.stage2 == "col":
        graph = stage2.build_incompat_graph(items, p, group)
        extra, _, _ = stage2.color_cover(graph, p, group, rng)
    else:
        extra = stage2.density_cover(items, p, group)

    full = np.concatenate([partial, extra], axis=0)
    developed = develop(full, group, p.v)

    if spec.verify and not verify_covering_array(full, p, group):
        raise VerificationFailed(f"developed array misses an interaction ({spec})")

    rep = RunReport(
        n_stage1=partial.shape[0],
        uncovered_after_stage1=report.uncovered_count,
        rows_stage2=extra.shape[0],
        N_final=developed.shape[0],
        bound_predicted=bounds.two_stage_bound(p, group),
        retries=retries,
        wall_time=time.perf_counter() - start,
        verified=True if spec.verify else "skipped",
    )
    return developed, rep


def benchmark(grid):
    """Run every spec in the grid; one row per spec, in grid order: the spec
    under its grid keys, then the ``RunReport`` fields.

    A run that raises leaves its report cells empty and records the error in
    ``verified``; it does not stop the sweep.
    """
    if not grid:
        raise ValueError("benchmark grid must be nonempty")
    rows = []
    for spec in grid:
        row = {**asdict(spec.p), "group": spec.group.value, "stage1": spec.stage1,
               "stage2": spec.stage2, "r_mult": spec.r_multiplier,
               "seed": spec.seed, "verify": spec.verify}
        try:
            row.update(asdict(run(spec)[1]))
        except Exception as exc:  # noqa: BLE001 - recorded per row
            row.update(dict.fromkeys((f.name for f in fields(RunReport)), ""),
                       verified=f"error:{type(exc).__name__}: {exc}")
        rows.append(row)
    return rows
