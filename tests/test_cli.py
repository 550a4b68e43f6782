import csv
import json
import time
from dataclasses import fields

import numpy as np
import pytest

from pathlib import Path

from caforge import (IncompatibilityGraph, Parameters, RunReport, bounds, cli, pipeline,
                     stage1, stage2, verify_covering_array)
from caforge.cli import (
    EXIT_CONSTRUCTION,
    EXIT_NOT_COVERING,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    ArrayFileError,
    main,
    parse_array_file,
    parse_grid,
    serialize_array,
)


class TestArrayFile:
    def test_roundtrip(self, rng):
        p = Parameters(2, 5, 3)
        array = rng.integers(0, 3, size=(7, 5))
        text = serialize_array(array, p)
        parsed, q = parse_array_file(text)
        assert np.array_equal(parsed, array)
        assert q == p

    def test_header_line(self, rng):
        p = Parameters(2, 4, 2)
        text = serialize_array(rng.integers(0, 2, size=(3, 4)), p)
        assert text.splitlines()[0] == "CA 3 4 2 2"

    def test_comments_and_blanks_skipped(self):
        text = "CA 1 3 2 2\n# comment\n\n0 1 0\n"
        array, p = parse_array_file(text)
        assert array.shape == (1, 3)

    @pytest.mark.parametrize("text", [
        "",
        "XX 1 3 2 2\n0 1 0\n",
        "CA 2 3 2 2\n0 1 0\n",          # row count mismatch
        "CA 1 3 2 2\n0 1\n",            # short row
        "CA 1 3 2 2\n0 1 5\n",          # symbol out of range
        "CA 1 3 2 2\n0 x 0\n",          # non-integer
        "CA 1 3 2 1\n0 0 0\n",          # invalid v
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ArrayFileError):
            parse_array_file(text)

    @pytest.mark.parametrize("text", [
        "CA 1 3 2 11\n1_0 ٣ +1\n",      # int() reads [[10, 3, 1]]
        "CA 1 3 2 2\n0 +1 0\n",
        "CA 1 3 2 2\n0 -0 0\n",
        "CA 1 3 2 2\n0 １ 0\n",          # fullwidth digit
        "CA ٢ 3 2 4\n0 0 0\n1 1 1\n",   # Arabic-Indic N
        "CA 1 3 2 1_0\n0 0 0\n",
        "CA +1 3 2 2\n0 0 0\n",
    ], ids=["issue-example", "plus-symbol", "minus-zero", "fullwidth", "arabic-n",
            "underscore-v", "plus-n"])
    def test_non_decimal_rejected(self, text):
        with pytest.raises(ArrayFileError):
            parse_array_file(text)


class TestConstructCommand:
    def test_writes_verified_array(self, tmp_path, capsys):
        out = tmp_path / "ca.txt"
        report = tmp_path / "rep.json"
        rc = main([
            "construct", "--t", "2", "--k", "5", "--v", "3",
            "--stage2", "greedy", "--seed", "7", "--verify",
            "--out", str(out), "--report", str(report),
        ])
        assert rc == EXIT_OK
        array, p = parse_array_file(out.read_text())
        assert verify_covering_array(array, p)
        doc = json.loads(report.read_text())
        assert doc["schema"] == "ca-forge/1"
        assert doc["verified"] is True
        assert doc["N_final"] == array.shape[0]
        assert list(doc) == ["schema", *(f.name for f in fields(RunReport))]
        assert "N=" in capsys.readouterr().out

    def test_bad_parameters_usage_error(self, capsys):
        assert main(["construct", "--t", "5", "--k", "3", "--v", "2"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_mt_narrow_k_usage_error(self, capsys):
        rc = main(["construct", "--t", "3", "--k", "5", "--v", "2",
                   "--stage1", "mt"])
        assert rc == EXIT_USAGE


class TestVerifyCommand:
    def test_ok(self, tmp_path, capsys):
        out = tmp_path / "ca.txt"
        main(["construct", "--t", "2", "--k", "4", "--v", "2",
              "--seed", "1", "--out", str(out)])
        assert main(["verify", "--in", str(out)]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_not_covering(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("CA 2 3 2 2\n0 0 0\n1 1 1\n")
        assert main(["verify", "--in", str(f)]) == EXIT_NOT_COVERING
        assert "uncovered" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["verify", "--in", "/nonexistent"]) == EXIT_USAGE

    def test_override_t(self, tmp_path):
        # full factorial on 3 binary columns covers t=2 and t=3
        f = tmp_path / "full.txt"
        rows = "\n".join(
            " ".join(str(b) for b in (i >> 2 & 1, i >> 1 & 1, i & 1))
            for i in range(8)
        )
        f.write_text(f"CA 8 3 2 2\n{rows}\n")
        assert main(["verify", "--in", str(f)]) == EXIT_OK
        assert main(["verify", "--in", str(f), "--t", "3"]) == EXIT_OK

    def test_override_v_below_symbols(self, tmp_path, capsys):
        # (1, 1) is missing on columns 0 and 1, and symbol 2 has no place
        # in a binary array
        f = tmp_path / "ternary.txt"
        f.write_text("CA 4 2 2 3\n0 0\n0 1\n1 0\n2 0\n")
        assert main(["verify", "--in", str(f), "--v", "2"]) == EXIT_USAGE
        assert "out of range" in capsys.readouterr().err

    def test_override_v_above_symbols(self, tmp_path, capsys):
        f = tmp_path / "binary.txt"
        f.write_text("CA 4 2 2 2\n0 0\n0 1\n1 0\n1 1\n")
        assert main(["verify", "--in", str(f), "--v", "3"]) == EXIT_NOT_COVERING
        assert "symbols (0, 2)" in capsys.readouterr().out


class TestBoundsCommand:
    def test_csv_range(self, capsys):
        rc = main(["bounds", "--t", "2", "--k", "4", "--v", "2",
                   "--k-max", "6"])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [int(r["k"]) for r in rows] == [4, 5, 6]
        assert float(rows[0]["slj"]) > 0

    def test_json(self, capsys):
        rc = main(["bounds", "--t", "2", "--k", "5", "--v", "3",
                   "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 1
        assert doc[0]["t"] == 2
        assert doc[0]["two_stage"] < doc[0]["slj"]

    def test_inapplicable_bounds_empty(self, capsys):
        # k < 2t: gss and the local-lemma bound do not apply
        main(["bounds", "--t", "3", "--k", "4", "--v", "2", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["gss"] is None

    def test_large_v_returns_quickly(self, capsys):
        start = time.perf_counter()
        assert main(["bounds", "--t", "4", "--k", "8", "--v", "100"]) == EXIT_OK
        assert time.perf_counter() - start < 1
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert int(row["discrete_slj"]) == 483283674

    @pytest.mark.parametrize("t,k,v,dslj_digits", [
        (60, 120, 1000, None),   # v^t = 10^180: no float quotient survives
        (200, 400, 100, None),   # 10^400: every closed form overflows a double
        (200, 201, 100, 401),    # C(k,t) = 201 rows of decrement: exact, beyond a double
    ])
    def test_huge_vt_strict_json(self, capsys, t, k, v, dslj_digits):
        def reject(name):
            raise ValueError(f"non-finite {name} in JSON")

        start = time.perf_counter()
        assert main(["bounds", "--t", str(t), "--k", str(k), "--v", str(v),
                     "--format", "json"]) == EXIT_OK
        assert time.perf_counter() - start < 1
        (row,) = json.loads(capsys.readouterr().out, parse_constant=reject)
        dslj = row["discrete_slj"]
        assert (dslj if dslj is None else len(str(dslj))) == dslj_digits

    @pytest.mark.parametrize("t,k,v", [(8, 40, 10), (17, 27, 763)])
    def test_over_step_budget_empty_cell(self, capsys, t, k, v):
        start = time.perf_counter()
        assert main(["bounds", "--t", str(t), "--k", str(k), "--v", str(v)]) == EXIT_OK
        assert time.perf_counter() - start < 1
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert row["discrete_slj"] == ""
        assert float(row["slj"]) > 0

    def test_bad_range(self, capsys):
        assert main(["bounds", "--t", "2", "--k", "6", "--v", "2",
                     "--k-max", "4"]) == EXIT_USAGE


class TestGridParsing:
    def test_stanzas(self):
        text = (
            "t=2\nk=5\nv=2\nstage2=greedy\nseed=3\n"
            "\n"
            "# comment\nt=2\nk=6\nv=3\ngroup=cyclic\nverify=true\n"
        )
        specs = parse_grid(text)
        assert len(specs) == 2
        assert specs[0].stage2 == "greedy" and specs[0].seed == 3
        assert specs[1].group.value == "cyclic" and specs[1].verify

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_grid("t=2\nk=5\nv=2\nbogus=1\n")

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_grid("t=2\nk=5\nv=2\nnot a kv line\n")

    @pytest.mark.parametrize("text", [
        "t=2\r\nk=5\r\nv=2\r\n\r\nt=2\r\nk=6\r\nv=3\r\n",   # CRLF
        "t=2\nk=5\nv=2\n \t \nt=2\nk=6\nv=3\n",             # whitespace-only
    ], ids=["crlf", "whitespace-separator"])
    def test_separators(self, text):
        specs = parse_grid(text)
        assert [(s.p.k, s.p.v) for s in specs] == [(5, 2), (6, 3)]

    @pytest.mark.parametrize("word, verify", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("false", False), ("NO", False),
    ])
    def test_verify_words(self, word, verify):
        assert parse_grid(f"t=2\nk=5\nv=2\nverify={word}\n")[0].verify is verify

    def test_tradeoff_grid(self):
        # The committed memory-quality sweep: (3,12,4) trivial rand, every
        # stage-2 kind x r in {1, 4, 16, 64} rho x seeds 1-2, verified.
        grid = Path(__file__).parent.parent / "grids" / "tradeoff.grid"
        specs = parse_grid(grid.read_text())
        assert len(specs) == 32
        assert {(s.p.t, s.p.k, s.p.v, s.stage1, s.group.value) for s in specs} == {
            (3, 12, 4, "rand", "trivial")}
        assert all(s.verify for s in specs)
        assert sorted((s.stage2, s.r_multiplier, s.seed) for s in specs) == sorted(
            (s2, r, seed) for s2 in pipeline.STAGE2_KINDS
            for r in (1.0, 4.0, 16.0, 64.0) for seed in (1, 2))

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate grid key 'k'"):
            parse_grid("t=2\nk=5\nv=2\nk=6\n")

    @pytest.mark.parametrize("text", [
        "t=2\nk=1_0\nv=2\n", "t=٢\nk=5\nv=2\n", "t=2\nk=5\nv=+2\n",
        "t=2\nk=5\nv=2\nseed=1_0\n", "t=2\nk=5\nv=2\nseed=+1\n",
    ], ids=["underscore-k", "arabic-t", "plus-v", "underscore-seed", "plus-seed"])
    def test_non_decimal_rejected(self, text):
        with pytest.raises(ValueError, match="not a decimal integer"):
            parse_grid(text)


GRID_KEYS = ["t", "k", "v", "group", "stage1", "stage2", "r_mult", "seed", "verify"]


class TestBenchmarkCommand:
    def test_writes_csv(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text(
            "t=2\nk=5\nv=2\nstage2=greedy\nverify=true\n\n"
            "t=2\nk=5\nv=2\nstage2=den\nseed=1\nverify=true\n"
        )
        out = tmp_path / "results.csv"
        assert main(["benchmark", "--grid", str(grid), "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == [
            "t", "k", "v", "group", "stage1", "stage2", "r_mult", "seed", "verify",
            "n_stage1", "uncovered_after_stage1", "rows_stage2", "N_final",
            "bound_predicted", "retries", "wall_time", "verified",
        ]
        assert header == [*GRID_KEYS, *(f.name for f in fields(RunReport))]
        assert len(rows) == 2
        assert all(row[header.index("verified")] == "True" for row in rows)

    def test_spec_columns_parse_back(self, tmp_path):
        text = ("t=2\nk=5\nv=3\ngroup=cyclic\nstage2=greedy\nr_mult=2.5\n"
                "seed=4\nverify=true\n\n"
                "t=3\nk=6\nv=2\nstage1=mt\nstage2=den\nr_mult=0.5\n")
        grid = tmp_path / "grid.txt"
        grid.write_text(text)
        out = tmp_path / "results.csv"
        assert main(["benchmark", "--grid", str(grid), "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        stanzas = ["".join(f"{key}={row[key]}\n" for key in GRID_KEYS) for row in rows]
        assert parse_grid("\n".join(stanzas)) == parse_grid(text)
        assert parse_grid(stanzas[0])[0].verify is True

    def test_malformed_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("k=5\nv=2\n")  # missing t
        out = tmp_path / "results.csv"
        assert main(["benchmark", "--grid", str(grid),
                     "--out", str(out)]) == EXIT_USAGE
        assert "malformed grid" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "t=2\nk=5\nv=2\nseed=-1\n",
        "t=2\nk=5\nv=2\n\nt=2\nk=6\nk=7\nv=2\n",
        "t=2\nk=5\nv=2\nr_mult=nan\n",
        "t=2\nk=1_0\nv=2\n",
        "t=2\nk=5\nv=2\nverify=ture\n",
        "t=2\nk=5\nv=2\nverify=on\n",
        "t=2\nk=5\nv=2\nr_mult=1_0\n",
        "t=2\nk=5\nv=2\nr_mult=١\n",
    ], ids=["negative-seed", "duplicate-key", "r-mult-nan", "underscore-k",
            "verify-ture", "verify-on", "underscore-r-mult", "arabic-r-mult"])
    def test_rejected_grid_usage_error(self, tmp_path, capsys, text):
        grid = tmp_path / "grid.txt"
        grid.write_text(text)
        out = tmp_path / "results.csv"
        assert main(["benchmark", "--grid", str(grid),
                     "--out", str(out)]) == EXIT_USAGE
        assert "malformed grid" in capsys.readouterr().err
        assert not out.exists()


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["construct", "--bogus"]) == EXIT_USAGE


def _raise_retries(*args, **kwargs):
    raise stage1.RetriesExhausted("injected")


def _must_not_run(*args, **kwargs):
    pytest.fail("ran before the output path was found unwritable")


def _raise_memory(*args, **kwargs):
    raise MemoryError


_build_incompat_graph = stage2.build_incompat_graph


def _graph_without_edges(*args):
    """The real committed rows with every conflict edge dropped, so that
    clashing items can land in one color class."""
    rows = _build_incompat_graph(*args).rows
    return IncompatibilityGraph(rows, np.zeros((len(rows), len(rows)), dtype=bool))


class TestExitCodes:
    """Every documented exit status is reachable from the command line."""

    @pytest.mark.parametrize("code, argv, patch, err", [
        (EXIT_OK, ["construct", "--t", "2", "--k", "4", "--v", "2", "--verify"],
         None, ""),
        (EXIT_NOT_COVERING, ["verify", "--in", "{bad}"], None, ""),
        (EXIT_USAGE, ["verify", "--in", "{huge}"], None, "too large"),
        (EXIT_USAGE, ["verify", "--in", "{wide}"], None, "dimension"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--seed", "-1"], None, "argument --seed"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--r-mult", "nan"], None, "finite r"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--r-mult", "inf"], None, "finite r"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--r-mult", "1e308"], None, "finite r"),
        (EXIT_CONSTRUCTION, ["construct", "--t", "2", "--k", "4", "--v", "2"],
         (stage1, "rand_first_stage", _raise_retries), "construction failed"),
        (EXIT_VERIFY, ["construct", "--t", "2", "--k", "4", "--v", "2", "--verify"],
         (pipeline, "verify_covering_array", lambda *args: False),
         "verification failed"),
        (EXIT_USAGE, ["verify", "--in", "{digits}"], None, "not a decimal integer"),
        (EXIT_USAGE, ["verify", "--in", "{utf16}"], None, "can't decode"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--out", "{missing}"], (cli, "run", _must_not_run),
         "No such file or directory"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--report", "{missing}"], (cli, "run", _must_not_run),
         "No such file or directory"),
        (EXIT_USAGE, ["benchmark", "--grid", "{grid}", "--out", "{missing}"],
         (cli, "benchmark", _must_not_run), "No such file or directory"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "1_0", "--v", "2"], None,
         "argument --k"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "٣"], None,
         "argument --v"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--seed", "١"], None, "argument --seed"),
        (EXIT_USAGE, ["bounds", "--t", "2", "--k", "٤", "--v", "2"], None,
         "argument --k"),
        (EXIT_USAGE, ["bounds", "--t", "2", "--k", "4", "--v", "2",
                      "--k-max", "+6"], None, "argument --k-max"),
        (EXIT_USAGE, ["verify", "--in", "{bad}", "--t", "٢"], None, "argument --t"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--r-mult", "١"], None, "argument --r-mult"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--r-mult", "1_0"], None, "argument --r-mult"),
        (EXIT_CONSTRUCTION, ["construct", "--t", "2", "--k", "6", "--v", "3",
                             "--stage1", "mt", "--seed", "1"],
         (stage1, "ITERATION_CAP", 0), "construction failed"),
        (EXIT_USAGE, ["construct", "--t", "2", "--k", "4", "--v", "2",
                      "--out", "{out}", "--report", "{out_alias}"],
         (cli, "run", _must_not_run), "same file"),
        (EXIT_USAGE, ["benchmark", "--grid", "{grid}", "--out", "{grid_alias}"],
         (cli, "benchmark", _must_not_run), "same file"),
        (EXIT_VERIFY, ["construct", "--t", "2", "--k", "4", "--v", "2",
                       "--stage2", "col", "--r-mult", "4"],
         (stage2, "build_incompat_graph", _graph_without_edges),
         "verification failed: color class"),
        (EXIT_CONSTRUCTION, ["construct", "--t", "2", "--k", "4", "--v", "2"],
         (cli, "run", _raise_memory), "construction failed: MemoryError"),
        (EXIT_CONSTRUCTION, ["bounds", "--t", "2", "--k", "4", "--v", "2"],
         (bounds, "bound_report", _raise_memory), "bounds failed: MemoryError"),
        (EXIT_CONSTRUCTION, ["construct", "--t", "60", "--k", "120", "--v", "1000"],
         None, "x 120 int64 symbols exceed numpy's index range"),
        (EXIT_CONSTRUCTION, ["construct", "--t", "60", "--k", "120", "--v", "1000",
                             "--stage1", "mt"],
         None, "x 120 int64 symbols exceed numpy's index range"),
    ], ids=["ok", "not-covering", "symbol-beyond-int64", "k-beyond-int64", "usage",
            "r-mult-nan", "r-mult-inf", "r-mult-1e308", "construction", "verify",
            "non-decimal-symbols", "not-utf8", "out-unwritable", "report-unwritable",
            "benchmark-out-unwritable", "underscore-k-flag", "arabic-v-flag",
            "arabic-seed-flag", "arabic-bounds-k-flag", "plus-k-max-flag",
            "arabic-verify-t-flag", "arabic-r-mult-flag", "underscore-r-mult-flag",
            "mt-iteration-cap", "out-is-report", "out-is-grid", "col-class-clash",
            "out-of-memory", "bounds-out-of-memory", "rand-rows-beyond-index-range",
            "mt-rows-beyond-index-range"])
    def test_reachable(self, tmp_path, monkeypatch, capsys, code, argv, patch, err):
        files = {"bad": "CA 2 3 2 2\n0 0 0\n1 1 1\n",
                 "huge": "CA 1 2 2 2\n0 99999999999999999999\n",
                 "wide": f"CA 0 {2**70} 2 2\n",
                 "digits": "CA 1 3 2 11\n1_0 ٣ +1\n",
                 "utf16": "CA 1 2 2 2\n0 0\n".encode("utf-16"),
                 "grid": "t=2\nk=4\nv=2\n"}
        for name, text in files.items():
            path = tmp_path / f"{name}.txt"
            path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
        if patch:
            monkeypatch.setattr(*patch)
        paths = {name: tmp_path / f"{name}.txt" for name in files}
        paths["missing"] = tmp_path / "nonexistent" / "a.txt"
        paths["out"] = tmp_path / "out.txt"
        paths["out_alias"] = f"{tmp_path}/./out.txt"
        paths["grid_alias"] = f"{tmp_path}/./grid.txt"
        assert main([a.format(**paths) for a in argv]) == code
        assert err in capsys.readouterr().err
        assert paths["grid"].read_text() == files["grid"]
