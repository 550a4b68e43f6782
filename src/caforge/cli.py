"""Command-line front end: construct, verify, bounds, benchmark.

Array file format: a header line ``CA N k t v`` (decimal, space-separated),
then N lines of k space-separated symbols in [0, v), then optionally comment
lines starting with '#'.  Symbols are always decimal integers.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import bounds
from .coverage import uncovered_list
from .groups import GroupKind
from .model import Parameters, VerificationFailed
from .pipeline import STAGE1_KINDS, STAGE2_KINDS, RunSpec, benchmark, run
from .stage1 import IterationCapExceeded, RetriesExhausted

REPORT_SCHEMA = "ca-forge/1"

EXIT_OK = 0
EXIT_NOT_COVERING = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_VERIFY = 4


class ArrayFileError(Exception):
    pass


def _decimal(token: str) -> int:
    """Read ASCII decimal digits only; ``int`` alone also takes '+1', '1_0'
    and other scripts' digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _real(token: str) -> float:
    """Read an ASCII number with no '_'; ``float`` alone reads '1_0' and '١'."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII number: {token!r}")
    return float(token)


def _usage_error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def serialize_array(array, p: Parameters) -> str:
    array = np.asarray(array)
    lines = [f"CA {array.shape[0]} {p.k} {p.t} {p.v}"]
    for row in array:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_array_file(text: str):
    """Returns (array, Parameters); raises ArrayFileError on malformed input."""
    lines = text.splitlines()
    if not lines:
        raise ArrayFileError("empty file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "CA":
        raise ArrayFileError(f"bad header: {lines[0]!r}")
    try:
        n, k, t, v = (_decimal(x) for x in head[1:])
        p = Parameters(t=t, k=k, v=v)
    except ValueError as exc:
        raise ArrayFileError(str(exc)) from exc
    body = []
    for line in lines[1:]:
        if line.startswith("#") or not line.strip():
            continue
        body.append(line.split())
    if len(body) != n:
        raise ArrayFileError(f"expected {n} data rows, found {len(body)}")
    try:
        array = np.array([[_decimal(x) for x in row] for row in body], dtype=np.int64)
        if n == 0:
            array = array.reshape(0, k)
    except (ValueError, OverflowError) as exc:  # OverflowError: beyond int64
        raise ArrayFileError(str(exc)) from exc
    if n and array.shape != (n, k):
        raise ArrayFileError("row length does not match header k")
    if n and array.max() >= v:
        raise ArrayFileError("symbol out of range")
    return array, p


def _bound_row(p: Parameters) -> dict:
    return {**asdict(p), **asdict(bounds.bound_report(p))}


def _write_csv(fh, rows) -> None:
    """One header, the first row's keys, then every row."""
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def cmd_construct(args) -> int:
    try:
        p = Parameters(t=args.t, k=args.k, v=args.v)
        spec = RunSpec(
            p=p, stage1=args.stage1, stage2=args.stage2,
            r_multiplier=args.r_mult, group=GroupKind(args.group),
            seed=args.seed, verify=args.verify,
        )
        for path in filter(None, (args.out, args.report)):
            open(path, "a").close()  # fails before the run; never truncates
        if args.out and args.report and os.path.samefile(args.out, args.report):
            raise ValueError("--out and --report name the same file")
    except (ValueError, OSError) as exc:
        return _usage_error(exc)
    try:
        array, rep = run(spec)
    except (RetriesExhausted, IterationCapExceeded, MemoryError) as exc:
        print(f"construction failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(serialize_array(array, p))
        if args.report:
            with open(args.report, "w") as fh:
                json.dump({"schema": REPORT_SCHEMA, **asdict(rep)}, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        return _usage_error(exc)
    print(f"N={rep.N_final} (stage1 {rep.n_stage1}, stage2 {rep.rows_stage2}, "
          f"bound {rep.bound_predicted:.1f})")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:  # a file the locale encoding cannot decode raises a ValueError
        with open(args.infile) as fh:
            array, p = parse_array_file(fh.read())
        p = Parameters(t=p.t if args.t is None else args.t, k=p.k,
                       v=p.v if args.v is None else args.v)
        found = uncovered_list(array, p, cap=0)
    except (OSError, ValueError, ArrayFileError) as exc:
        return _usage_error(exc)
    if not found.uncovered:
        print("covering array: OK")
        return EXIT_OK
    item = found.uncovered[0]
    print(f"not a covering array; first uncovered: "
          f"columns {item.columns} symbols {item.symbols}")
    return EXIT_NOT_COVERING


def cmd_bounds(args) -> int:
    try:
        k_max = args.k_max if args.k_max is not None else args.k
        if k_max < args.k:
            raise ValueError("k-max must be >= k")
        params = [Parameters(t=args.t, k=k, v=args.v) for k in range(args.k, k_max + 1)]
    except ValueError as exc:
        return _usage_error(exc)
    rows = [_bound_row(p) for p in params]
    if args.format == "json":
        json.dump(rows, sys.stdout, indent=2)
        print()
    else:
        _write_csv(sys.stdout, rows)
    return EXIT_OK


def _grid_spec(fields: dict) -> RunSpec:
    known = {"t", "k", "v", "stage1", "stage2", "group", "r_mult", "seed", "verify"}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown grid keys: {sorted(unknown)}")
    p = Parameters(t=_decimal(fields["t"]), k=_decimal(fields["k"]),
                   v=_decimal(fields["v"]))
    verify = fields.get("verify", "false").lower()
    if verify not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"verify takes 1/true/yes or 0/false/no, not {verify!r}")
    return RunSpec(
        p=p,
        stage1=fields.get("stage1", "rand"),
        stage2=fields.get("stage2", "naive"),
        r_multiplier=_real(fields.get("r_mult", "1")),
        group=GroupKind(fields.get("group", "trivial")),
        seed=_decimal(fields.get("seed", "0")),
        verify=verify in ("1", "true", "yes"),
    )


def parse_grid(text: str):
    """Grid files are stanzas of key=value lines, separated by blank or
    whitespace-only lines; a key may appear once per stanza.

    Keys: t, k, v (required); stage1, stage2, group, r_mult, seed, verify.
    """
    specs, fields = [], {}
    for line in [*text.splitlines(), ""]:
        line = line.strip()
        if not line:
            if fields:
                specs.append(_grid_spec(fields))
            fields = {}
        elif not line.startswith("#"):
            if "=" not in line:
                raise ValueError(f"bad grid line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in fields:
                raise ValueError(f"duplicate grid key {key!r} in one stanza")
            fields[key] = val
    return specs


def cmd_benchmark(args) -> int:
    try:
        with open(args.grid) as fh:
            grid = parse_grid(fh.read())
        if not grid:
            raise ValueError("grid file defines no runs")
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: malformed grid: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        open(args.out, "a").close()  # fails before the run; never truncates
        if os.path.samefile(args.grid, args.out):
            raise ValueError("--grid and --out name the same file")
    except (ValueError, OSError) as exc:
        return _usage_error(exc)
    rows = benchmark(grid)
    try:
        with open(args.out, "w", newline="") as fh:
            _write_csv(fh, rows)
    except OSError as exc:
        return _usage_error(exc)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caforge",
        description="Two-stage covering array construction and bound calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a covering array")
    c.add_argument("--t", type=_decimal, required=True)
    c.add_argument("--k", type=_decimal, required=True)
    c.add_argument("--v", type=_decimal, required=True)
    c.add_argument("--stage1", choices=STAGE1_KINDS, default="rand")
    c.add_argument("--stage2", choices=STAGE2_KINDS, default="naive")
    c.add_argument("--r-mult", type=_real, default=1.0)
    c.add_argument("--group", choices=[g.value for g in GroupKind],
                   default="trivial")
    c.add_argument("--seed", type=_decimal, default=0)
    c.add_argument("--out", default=None)
    c.add_argument("--report", default=None)
    c.add_argument("--verify", action="store_true")
    c.set_defaults(func=cmd_construct)

    ver = sub.add_parser("verify", help="check an array file for full coverage")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--t", type=_decimal, default=None)
    ver.add_argument("--v", type=_decimal, default=None)
    ver.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="print every size bound for (t, k, v)")
    b.add_argument("--t", type=_decimal, required=True)
    b.add_argument("--k", type=_decimal, required=True)
    b.add_argument("--v", type=_decimal, required=True)
    b.add_argument("--k-max", type=_decimal, default=None)
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.set_defaults(func=cmd_bounds)

    bench = sub.add_parser("benchmark", help="run a grid of constructions")
    bench.add_argument("--grid", required=True)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
