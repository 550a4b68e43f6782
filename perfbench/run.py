"""caforge benchmark: one workload, timed in-process, one JSON result line.

Run from the repository root; caforge is imported from ./src:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

--trace 0 times whole passes and prints the end-to-end metrics.  --trace 1
is the separate traced run: it wraps caforge's public callables, records
spans, writes them to .perfbench/ and prints the per-layer metrics.
--workload all runs every workload in turn, each in its own process.
The last line of standard output is always the JSON result.
"""

import os

# Single-threaded numerics; must be set before numpy is imported.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "bounds_digests.json"

MIN_PASSES = 3
WALL_GUARD_S = 120  # add no pass after this, whatever --seconds asks
SETUP_SAMPLES = 11  # fewest cold-start samples per run

# Desk-scale probe: the stage-1 row count of (t=5, k=67, v=5, Frobenius) at
# r = 2 rho, scanned at a small k and extrapolated to C(67, 5) t-sets.
DESK_T, DESK_V, DESK_ROWS, DESK_K, DESK_K_FULL = 5, 5, 2398, 10, 67

BOUND_FIELDS = (
    "slj", "discrete_slj", "two_stage", "gss", "cyclic_two_stage",
    "frobenius_two_stage", "lll_two_stage", "optimistic_coloring",
    "conservative_coloring",
)
LOC_MODULES = (
    "__init__", "bounds", "cli", "coverage", "groups", "model", "pipeline",
    "stage1", "stage2",
)


def load_caforge():
    pkg = SRC / "caforge"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: {pkg} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import caforge

    if Path(caforge.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: caforge came from {caforge.__file__}, not {pkg}")
    return caforge


def bound_digest(rep) -> str:
    values = [getattr(rep, f) for f in BOUND_FIELDS]
    text = repr([None if x is None else float(x) for x in values])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Construct:
    """Specs through ``pipeline.run``; outputs are (array, RunReport)."""

    def __init__(self, cf, name: str, seed: int):
        self.cf, self.specs, self.seed = cf, W.CONSTRUCT[name], seed

    def inputs(self, index: int) -> list:
        seeds = np.random.SeedSequence([self.seed, index]).generate_state(len(self.specs))
        cf = self.cf
        return [
            cf.RunSpec(p=cf.Parameters(s.t, s.k, s.v), stage1=s.stage1,
                       stage2=s.stage2, r_multiplier=s.r_mult,
                       group=cf.GroupKind(s.group), seed=int(seed),
                       verify=s.verify)
            for s, seed in zip(self.specs, seeds)
        ]

    def call(self, spec):
        return self.cf.pipeline.run(spec)

    def check(self, spec, out) -> bool:
        array, rep = out
        if array.shape[0] != rep.N_final:
            return False
        if spec.verify:
            return rep.verified is True
        # develop() emits the identity block first, so this slice is the
        # undeveloped array; covering all its full orbits is the condition
        # for the developed array to be a covering array.
        partial = array[: rep.n_stage1 + rep.rows_stage2]
        found = self.cf.coverage.uncovered_list(partial, spec.p, spec.group, cap=0)
        return found.uncovered_count == 0

    def ratio(self, spec, out) -> float:
        return out[1].N_final / out[1].bound_predicted

    def tables(self) -> list:
        return sorted({(s.t, s.v, s.group) for s in self.specs})


class Bounds:
    """``bound_report`` over a (t, k, v) grid; outputs are BoundReports."""

    def __init__(self, cf, seed: int):
        self.cf, self.seed = cf, seed
        self.recorded = json.loads(DIGESTS.read_text())

    def inputs(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index])
        return [
            self.cf.Parameters(t, k, v)
            for t in W.BOUNDS_T
            for v in W.BOUNDS_V
            for k in W.bounds_k_values(t, int(rng.integers(W.BOUNDS_K_STEP)))
        ]

    def call(self, p):
        return self.cf.bounds.bound_report(p)

    def check(self, p, rep) -> bool:
        return bound_digest(rep) == self.recorded.get(f"{p.t},{p.k},{p.v}")

    def ratio(self, p, rep) -> float:
        return rep.two_stage / rep.slj

    def tables(self) -> list:
        return []


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.ratios = []

    def settle(self, work, inputs, outs):
        """Check every output of a pass, outside the timed region."""
        for x, out in zip(inputs, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                why = f"{type(out).__name__}: {out}"
            elif not work.check(x, out):
                why = "output check failed"
            else:
                self.ratios.append(work.ratio(x, out))
                continue
            self.failed += 1
            print(f"perfbench: FAILED {x}: {why}", file=sys.stderr)


def timed_pass(work, inputs):
    outs = []
    start = time.perf_counter()
    for x in inputs:
        try:
            outs.append(work.call(x))
        except Exception as exc:  # noqa: BLE001 - counted as failed
            outs.append(exc)
    return time.perf_counter() - start, outs


def want_pass(done: int, measured: float, seconds: float, started: float) -> bool:
    if time.perf_counter() - started > WALL_GUARD_S:
        return False
    return done < MIN_PASSES or measured < seconds


SETUP_CODE = """\
import time
start = time.perf_counter()
import caforge
from caforge.groups import GroupKind, orbit_table
for t, v, group in {tables!r}:
    orbit_table(t, v, GroupKind(group))
print(time.perf_counter() - start)
"""


def setup_sample(tables) -> float:
    """One cold start in a fresh interpreter: import plus table builds."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE.format(tables=tables)],
                         cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def warm(cf, work):
    for t, v, group in work.tables():
        cf.groups.orbit_table(t, v, cf.GroupKind(group))


def end_to_end(cf, work, seconds: float, tally: Tally) -> dict:
    warm(cf, work)
    tables = work.tables()
    times, setup = [], []
    started = time.perf_counter()
    while want_pass(len(times), sum(times), seconds, started):
        inputs = work.inputs(len(times))
        elapsed, outs = timed_pass(work, inputs)
        times.append(elapsed)
        tally.settle(work, inputs, outs)
        # Cold starts are sampled between passes, so that they see the same
        # machine conditions as the passes do.
        setup.append(setup_sample(tables))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(tables))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "size_ratio": (statistics.fmean(tally.ratios) if tally.ratios else 0.0, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


# --- traced run -------------------------------------------------------------

def _rand_attempts(args, result, counts):
    counts["stage1.calls"] += 1
    counts["stage1.attempts"] += result[2]


def _mt_attempt(args, result, counts):
    counts["stage1.calls"] += 1
    counts["stage1.attempts"] += 1


def _run_report(args, result, counts):
    counts["stage1.rows"] += result[1].n_stage1
    counts["stage1.uncovered"] += result[1].uncovered_after_stage1


def _items_rows(args, result, counts):
    counts["stage2.items"] += len(args[0])
    counts["stage2.rows"] += result.shape[0]


def _graph(args, result, counts):
    counts["stage2.items"] += len(args[0])
    counts["stage2.graph_edges"] += result.m_edges


def _color_rows(args, result, counts):
    counts["stage2.rows"] += result[0].shape[0]


def _developed(args, result, counts):
    counts["groups.developed_rows"] += result.shape[0]


def _verified_tsets(args, result, counts):
    counts["coverage.verify_tsets"] += math.comb(args[1].k, args[1].t)


def trace_targets(cf):
    """(module, attribute, span name, counter) for every wrapped callable.

    Each callable is wrapped where its callers look it up: the pipeline
    imported the coverage and develop functions by name, so those are
    wrapped on the pipeline module.  The private per-t-set kernel
    coverage._covered_mask is left alone.
    """
    s1, s2, pl = cf.stage1, cf.stage2, cf.pipeline
    targets = [
        (pl, "run", "pipeline.run", _run_report),
        (s1, "rand_first_stage", "stage1.rand_first_stage", _rand_attempts),
        (s1, "mt_first_stage", "stage1.mt_first_stage", _mt_attempt),
        (s1, "mt_construct", "stage1.mt_construct", _mt_attempt),
        (s1, "uncovered_list", "stage1.uncovered_list", None),
        (s2, "naive_cover", "stage2.naive_cover", _items_rows),
        (s2, "greedy_cover", "stage2.greedy_cover", _items_rows),
        (s2, "density_cover", "stage2.density_cover", _items_rows),
        (s2, "build_incompat_graph", "stage2.build_incompat_graph", _graph),
        (s2, "color_cover", "stage2.color_cover", _color_rows),
        (pl, "uncovered_list", "pipeline.uncovered_list", None),
        (pl, "verify_covering_array", "pipeline.verify_covering_array", _verified_tsets),
        (pl, "develop", "pipeline.develop", _developed),
        (cf.groups, "orbit_table", "groups.orbit_table", None),
    ]
    for name, fn in vars(cf.bounds).items():
        if inspect.isfunction(fn) and fn.__module__ == cf.bounds.__name__ \
                and not name.startswith("_"):
            targets.append((cf.bounds, name, f"bounds.{name}", None))
    return targets


def scan_probe(cf, outputs) -> float:
    """Uncapped uncovered_list on each spec's stage-1 rows, µs per t-set."""
    seconds = tsets = 0
    for spec, out in outputs:
        if isinstance(out, Exception):
            continue
        array, rep = out
        rows = array[: rep.n_stage1]  # develop() keeps the identity block first
        start = time.perf_counter()
        cf.coverage.uncovered_list(rows, spec.p, spec.group)
        seconds += time.perf_counter() - start
        tsets += math.comb(spec.p.k, spec.p.t)
    return 1e6 * seconds / tsets if tsets else 0.0


def desk_probes(cf, seed: int, tally: Tally) -> dict:
    """Scan and verify cost per t-set at the desk-scale shape."""
    p = cf.Parameters(DESK_T, DESK_K, DESK_V)
    group = cf.GroupKind.FROBENIUS
    tsets = math.comb(DESK_K, DESK_T)
    rng = np.random.default_rng([seed, DESK_ROWS])
    # Redraw until every full orbit is covered (almost always the first
    # draw), so that verify below scans every t-set.
    while True:
        rows = rng.integers(0, DESK_V, size=(DESK_ROWS, DESK_K), dtype=np.int64)
        scan = []
        for _ in range(15):
            start = time.perf_counter()
            found = cf.coverage.uncovered_list(rows, p, group)
            scan.append(time.perf_counter() - start)
        if found.uncovered_count == 0:
            break
    developed = cf.groups.develop(rows, group, DESK_V)
    verify = []
    for _ in range(3):
        start = time.perf_counter()
        ok = cf.coverage.verify_covering_array(developed, p)
        verify.append(time.perf_counter() - start)
    tally.attempted += 1
    if not ok:
        tally.failed += 1
        print("perfbench: FAILED desk probe: developed array not verified", file=sys.stderr)
    scan_us = 1e6 * statistics.median(scan) / tsets
    verify_us = 1e6 * statistics.median(verify) / tsets
    full = math.comb(DESK_K_FULL, DESK_T)
    return {
        "coverage.desk_scan_us_per_tset": (scan_us, "us"),
        "coverage.desk_verify_us_per_tset": (verify_us, "us"),
        "coverage.desk_scan_k67_s": (scan_us * full / 1e6, "s"),
        "coverage.desk_verify_k67_s": (verify_us * full / 1e6, "s"),
    }


def line_counts() -> dict:
    pkg = SRC / "caforge"
    counts = {m: 0 for m in LOC_MODULES}
    for path in pkg.glob("*.py"):
        with open(path) as f:
            counts[path.stem] = sum(1 for _ in f)
    out = {f"loc.{m}": (counts[m], "lines") for m in LOC_MODULES}
    out["loc.total"] = (sum(counts.values()), "lines")
    return out


def per_layer(cf, work, name: str, seed: int, seconds: float, tally: Tally) -> dict:
    tracer = Tracer()
    targets = trace_targets(cf)
    # Cold table builds, timed through the wrapped groups.orbit_table.
    cf.groups.orbit_table.cache_clear()
    cf.groups.field_for.cache_clear()
    for module, attr, span, count in targets:
        tracer.wrap(module, attr, span, count)
    warm(cf, work)
    tracer.unwrap()

    # Each input set runs twice, untraced and traced, in alternating order,
    # so that the paired difference is the tracing overhead.
    plain, traced, first_traced = [], [], None
    started = time.perf_counter()
    while want_pass(len(traced), sum(plain) + sum(traced), seconds, started):
        index = len(traced)
        inputs = work.inputs(index)
        for wrapped in (index % 2 == 1, index % 2 == 0):
            if wrapped:
                for module, attr, span, count in targets:
                    tracer.wrap(module, attr, span, count)
            try:
                elapsed, outs = timed_pass(work, inputs)
            finally:
                tracer.unwrap()
            (traced if wrapped else plain).append(elapsed)
            tally.settle(work, inputs, outs)
            if wrapped and first_traced is None:
                first_traced = list(zip(inputs, outs))
    tracer.write(OUT / f"spans-{name}-seed{seed}.json")

    incl, own = tracer.totals()
    c = tracer.counts
    n = len(traced)

    def per_pass(total):
        return total / n

    def spans(table, *names):
        return per_pass(sum(table[s] for s in names))

    closed = ("slj_bound", "two_stage_bound", "gss_bound", "cyclic_two_stage_bound",
              "frobenius_two_stage_bound", "expected_incompat_edges",
              "chromatic_estimate")
    verify_s = incl["pipeline.verify_covering_array"]
    scan_probe_us = scan_probe(cf, first_traced) if isinstance(work, Construct) else 0.0
    metrics = {
        "pipeline.run_s": (spans(incl, "pipeline.run"), "s"),
        "pipeline.self_s": (spans(own, "pipeline.run"), "s"),
        "stage1.s": (spans(incl, "stage1.rand_first_stage", "stage1.mt_first_stage",
                           "stage1.mt_construct"), "s"),
        "stage1.attempts": (per_pass(c["stage1.attempts"]), "count"),
        "stage1.accept_ratio": (c["stage1.calls"] / c["stage1.attempts"]
                                if c["stage1.attempts"] else 0.0, "ratio"),
        "stage1.rows": (per_pass(c["stage1.rows"]), "count"),
        "stage1.uncovered": (per_pass(c["stage1.uncovered"]), "count"),
        "coverage.scan_s": (spans(incl, "stage1.uncovered_list",
                                  "pipeline.uncovered_list"), "s"),
        "coverage.scan_us_per_tset": (scan_probe_us, "us"),
        "coverage.verify_s": (per_pass(verify_s), "s"),
        "coverage.verify_us_per_tset": (1e6 * verify_s / c["coverage.verify_tsets"]
                                        if c["coverage.verify_tsets"] else 0.0, "us"),
        "groups.develop_s": (spans(incl, "pipeline.develop"), "s"),
        "groups.developed_rows": (per_pass(c["groups.developed_rows"]), "count"),
        "groups.orbit_table_s": (incl["groups.orbit_table"], "s"),
        "stage2.naive_s": (spans(incl, "stage2.naive_cover"), "s"),
        "stage2.greedy_s": (spans(incl, "stage2.greedy_cover"), "s"),
        "stage2.graph_s": (spans(incl, "stage2.build_incompat_graph"), "s"),
        "stage2.color_s": (spans(incl, "stage2.color_cover"), "s"),
        "stage2.density_s": (spans(incl, "stage2.density_cover"), "s"),
        "stage2.items": (per_pass(c["stage2.items"]), "count"),
        "stage2.rows": (per_pass(c["stage2.rows"]), "count"),
        "stage2.items_per_row": (c["stage2.items"] / c["stage2.rows"]
                                 if c["stage2.rows"] else 0.0, "ratio"),
        "stage2.graph_edges": (per_pass(c["stage2.graph_edges"]), "count"),
        "bounds.report_s": (spans(incl, "bounds.bound_report"), "s"),
        "bounds.discrete_slj_s": (spans(own, "bounds.discrete_slj_bound"), "s"),
        "bounds.coloring_s": (spans(own, "bounds.coloring_two_stage_estimate"), "s"),
        "bounds.lll_s": (spans(own, "bounds.lll_two_stage_bound",
                               "bounds.lll_first_stage_n"), "s"),
        "bounds.closed_form_s": (spans(own, *(f"bounds.{f}" for f in closed)), "s"),
        "bounds.first_stage_n_s": (spans(own, "bounds.first_stage_n"), "s"),
        "trace.passes": (n, "count"),
        "trace.overhead_s": (statistics.median(t - u for t, u in zip(traced, plain)), "s"),
    }
    metrics.update(desk_probes(cf, seed, tally))
    metrics.update(line_counts())
    return metrics


# --- entry point ------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in W.WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)

    cf = load_caforge()
    if args.workload == "bounds":
        work = Bounds(cf, args.seed)
    else:
        work = Construct(cf, args.workload, args.seed)
    tally = Tally()
    if args.trace:
        metrics = per_layer(cf, work, args.workload, args.seed, args.seconds, tally)
    else:
        metrics = end_to_end(cf, work, args.seconds, tally)

    alias = {"wall_s": "bounds_s" if args.workload == "bounds" else "construct_s"}
    for key, (value, unit) in metrics.items():
        label = f"{key} ({alias[key]})" if key in alias else key
        print(f"{args.workload:8} {label:36} {value:.6g} {unit}")
    print(f"{args.workload:8} {'failed_frac':36} {tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
