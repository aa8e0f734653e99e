import json
import math
import shutil

import numpy as np
import pytest

import varregion.extremal
from varregion import EvalPoint, JanowskiParams, Verdict, contains, singleton_value
from varregion.cli import (
    _f17,
    _json_text,
    _parser,
    _sweep_record,
    load_region_record,
    main,
    parse_complex,
    region_record,
)
from varregion.verify import run_suites

P05 = JanowskiParams(0.0, 0.5)


def run(args):
    return main(args)


def test_parse_complex():
    assert parse_complex("0.5") == 0.5 + 0j
    assert parse_complex("0.5,-0.25") == 0.5 - 0.25j
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("a,b")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("1,2,3")


def test_region_csv_contains_exact_theta_pi_row(tmp_path):
    out = tmp_path / "region.csv"
    code = run(["region", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--theta-samples", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,re,im"
    assert len(lines) == 5
    assert lines[-1] == "3.1415926535897931,0,0"


def test_region_json_roundtrip(tmp_path):
    out = tmp_path / "region.json"
    code = run(["region", "--A", "-0.5", "--B", "0.5", "--lambda", "0.3",
                "--z0", "0.3,0.4", "--theta-samples", "16", "--format", "json",
                "--out", str(out)])
    assert code == 0
    rec = load_region_record(out)
    assert rec["params"] == {"A": -0.5, "B": 0.5}
    assert rec["point"]["z0"] == [0.3, 0.4]
    assert len(rec["boundary"]) == 16
    # every boundary row is on the region boundary for the original point
    point = EvalPoint(0.3 + 0.4j, 0.3)
    params = JanowskiParams(-0.5, 0.5)
    for _, re, im in rec["boundary"]:
        assert contains(complex(re, im), point, params).status is Verdict.BOUNDARY


def test_region_singleton_z0_zero(tmp_path, capsys):
    out = tmp_path / "region.json"
    code = run(["region", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0,0", "--format", "json", "--out", str(out)])
    assert code == 0
    assert "singleton" in capsys.readouterr().err
    rec = json.loads(out.read_text())
    assert rec["center"] == [0.0, 0.0]
    assert rec["radius"] == 0.0
    assert rec["boundary"] == []


def test_region_singleton_unit_lambda(tmp_path, capsys):
    out = tmp_path / "region.json"
    code = run(["region", "--A", "0", "--B", "0.5", "--lambda", "1",
                "--z0", "0.5,0", "--format", "json", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["radius"] == 0.0
    assert rec["center"][0] == pytest.approx(-np.log(1.25), abs=1e-14)


def test_region_invalid_parameters(capsys):
    assert run(["region", "--A", "-0.5", "--B", "0", "--z0", "0.5,0"]) == 2
    assert "B != 0" in capsys.readouterr().err
    assert run(["region", "--A", "0.5", "--B", "0.3", "--z0", "0.5,0"]) == 2
    assert "-1 <= A < B <= 1" in capsys.readouterr().err
    assert run(["region", "--A", "0", "--B", "0.5", "--z0", "1.5,0"]) == 2
    assert "|z0| < 1" in capsys.readouterr().err


def test_run_flag_rejections(capsys):
    cases = [
        (["region", "--z0", "0,0", "--theta-samples", "2"], "require theta_samples >= 3"),
        (["region", "--z0", "0.5,0", "--tol", "0"], "require tol > 0"),
        (["region", "--z0", "0.5,0", "--tol", "nan"], "require tol > 0"),
        (["sample", "--z0", "0,0", "--tol", "0"], "require tol > 0"),
    ]
    for argv, message in cases:
        assert run(argv[:1] + ["--A", "0", "--B", "0.5"] + argv[1:]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, flag", [
    ("verify", "--format"), ("extremal", "--seed"), ("extremal", "--tol"), ("extremal", "--format"),
    ("region", "--seed"), ("sweep", "--seed"), ("sweep", "--tol"),
])
def test_flags_a_command_does_not_read_are_usage_errors(command, flag, tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("A=0\nB=0.5\nz0_re=0.5\n")
    point = ["--A", "0", "--B", "0.5"]
    argv = {
        "verify": ["--suite", "inclusion"],
        "extremal": point + ["--a", "0,0", "--z", "0.5,0"],
        "region": point + ["--z0", "0.5,0"],
        "sweep": ["--grid", str(grid), "--out", str(tmp_path / "o")],
    }[command]
    value = "csv" if flag == "--format" else "1"
    assert run([command, *argv, flag, value]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def _json_records():
    rows = [[0, float("nan"), -0.0, "Interior"], [1, float("inf"), float("-inf"), "Boundary"], [2, 0.5, 1e-300, "Outside"]]
    sample = region_record(P05, EvalPoint(0.5, 0.5), 8)
    sample["samples"] = rows
    records = [region_record(P05, EvalPoint(z0, lam), n)
               for n in (3, 256, 4096) for z0, lam in ((0.5, 0.5), (0.3 + 0.4j, -0.2 - 0.6j))]
    records += [
        region_record(P05, EvalPoint(0.0, 0.5), 256),  # singleton, z0 = 0
        region_record(P05, EvalPoint(0.5, 1.0), 256),  # singleton, |lambda| = 1
        _sweep_record({"A": 0.9, "B": 0.5, "z0_re": 0.5}, 256),
        sample,
        {"meta": {"samples": None}, "samples": rows, "z": [[1]]},  # nested key of the same name stays
        [r.to_dict() for r in run_suites(["inclusion"], seed=0, tol=1e-9)],
        [[1.5, -0.0], [2, 3]],
        {"records": [{"hash": "0123", "file": "region-0123.json", "status": "ok", "count": 2}]},
    ]
    return records


@pytest.mark.parametrize("obj", _json_records())
def test_json_text_matches_stdlib_indented_encoding(obj):
    # compared as lines: pytest's diff of two long strings takes minutes
    expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert _json_text(obj).splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_region_complex_lambda_reduction(tmp_path, capsys):
    out = tmp_path / "region.json"
    code = run(["region", "--A", "0", "--B", "0.5", "--lambda", "0.3,0.4",
                "--z0", "0.5,0", "--theta-samples", "32", "--format", "json",
                "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    rec = json.loads(out.read_text())
    assert "note" not in rec
    point = EvalPoint(0.5, 0.3 + 0.4j)
    for _, re, im in rec["boundary"]:
        assert contains(complex(re, im), point, P05).status is Verdict.BOUNDARY


SEAM_PARAMS = JanowskiParams(-0.5, 0.5)
SEAM_FORMATS = [(command, fmt) for command in ("region", "sample") for fmt in ("csv", "json", "svg")]
# |lambda| within 1e-12 of 1 is unimodular.  The double nearest 1 + 1e-12 lies
# 1.00009e-12 above 1, outside that band, so 1 + 0.9e-12 stands for the upper edge.
UNIMODULAR_LAMBDAS = ["1", "-1", "0,1", f"{math.cos(2.5)!r},{math.sin(2.5)!r}", repr(1 + 0.9e-12), repr(1 - 1e-12)]


def _seam_run(capsys, command, fmt, lam, z0):
    argv = [command, "--A=-0.5", "--B=0.5", f"--lambda={lam}", f"--z0={z0}", "--format", fmt,
            "--theta-samples", "8"] + (["--mc-samples", "5"] if command == "sample" else [])
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command,fmt", SEAM_FORMATS)
@pytest.mark.parametrize("lam,z0", [(lam, "0.3,0.4") for lam in UNIMODULAR_LAMBDAS] + [("0.5", "0")])
def test_singleton_output_in_every_format(capsys, command, fmt, lam, z0):
    code, out, err = _seam_run(capsys, command, fmt, lam, z0)
    assert code == 0
    value = singleton_value(EvalPoint(parse_complex(z0), parse_complex(lam)), SEAM_PARAMS)
    note = "z0 = 0: the region is the singleton {0}" if z0 == "0" else "|lambda| = 1: the region is a singleton"
    assert err == (f"note: {note}\n" if command == "region" else "")
    pair = f"{_f17(value.real)},{_f17(value.imag)}"
    if fmt == "csv":
        expected = [f"0,{pair}"] if command == "region" else [f"{i},{pair},Boundary" for i in range(5)]
        assert out.splitlines()[1:] == expected
    elif fmt == "json":
        rec = json.loads(out)
        assert (rec["center"], rec["radius"], rec["boundary"], rec["note"]) == (
            [value.real, value.imag], 0.0, [], note)
        if command == "sample":
            assert rec["samples"] == [[i, value.real, value.imag, "Boundary"] for i in range(5)]
    else:
        assert "<polygon" not in out
        assert out.count("<circle") == (1 if command == "region" else 5)


@pytest.mark.parametrize("command,fmt", SEAM_FORMATS)
def test_lambda_past_the_unimodular_band_gives_a_disk(capsys, command, fmt):
    code, out, err = _seam_run(capsys, command, fmt, repr(1 - 2e-12), "0.3,0.4")
    assert code == 0 and err == ""
    if fmt == "csv":
        rows = out.splitlines()[1:]
        assert len(rows) == (5 if command == "sample" else 8)
        assert len({tuple(row.split(",")[1:3]) for row in rows}) == len(rows)  # distinct values
    elif fmt == "json":
        rec = json.loads(out)
        assert rec["radius"] > 0.0 and len(rec["boundary"]) == 8 and "note" not in rec
    else:
        assert "<polygon" in out


def test_region_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    argv = ["region", "--A", "0", "--B", "0.5", "--lambda", "0.5",
            "--z0", "0.5,0", "--format", "svg"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert "<polygon" in text and 'fill="none"' in text
    assert "varregion" in text  # fixed generator banner


def test_extremal_prints_value_and_derivative(capsys):
    code = run(["extremal", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--a", "0,0", "--z", "0.5,0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0.471132142625534 0"
    assert lines[1] == "0.888888888888889 0"


def test_extremal_writes_out_file(tmp_path, capsys):
    out = tmp_path / "x.txt"
    code = run(["extremal", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--a", "0,0", "--z", "0.5,0", "--out", str(out)])
    assert code == 0
    assert out.read_text() == "0.471132142625534 0\n0.888888888888889 0\n"
    assert capsys.readouterr().out == ""


def test_extremal_at_origin(capsys):
    code = run(["extremal", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--a", "1,0", "--z", "0,0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0 0", "1 0"]


def test_extremal_domain_errors(capsys):
    assert run(["extremal", "--A", "0", "--B", "0.5", "--a", "2,0", "--z", "0.5,0"]) == 2
    assert "|a| <= 1" in capsys.readouterr().err
    assert run(["extremal", "--A", "0", "--B", "0.5", "--a", "1,0", "--z", "1,0"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["extremal", "--a=0.5", "--z=nan"], "require |z| < 1, got |z| = nan"),
    (["extremal", "--a=nan", "--z=0.5"], "require |a| <= 1, got |a| = nan"),
    (["extremal", "--a=0.5", "--lambda=nan", "--z=0.5"], "require |lambda| < 1, got |lambda| = nan"),
    (["region", "--z0=nan"], "require |z0| < 1, got |z0| = nan"),
    (["region", "--z0=0.5", "--lambda=0.5,nan"], "require |lambda| <= 1, got |lambda| = nan"),
    (["sample", "--z0=nan,0.5"], "require |z0| < 1, got |z0| = nan"),
], ids=["extremal-z", "extremal-a", "extremal-lambda", "region-z0", "region-lambda", "sample-z0"])
def test_nan_inputs_are_usage_errors(argv, message, capsys):
    assert run(argv[:1] + ["--A=0", "--B=1"] + argv[1:]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_extremal_nonconvergence_exit_code(capsys):
    code = run(["extremal", "--A", "-1", "--B", "1", "--lambda", "0.7",
                "--a", "0.9,0", "--z", "0.8,0", "--quad-tol", "1e-30",
                "--max-panels", "2"])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_extremal_tolerance_below_the_rounding_floor_exit_code(capsys):
    # F' = 1, so every estimate is exactly z: they agree, but not to 1e-30
    code = run(["extremal", "--A=0", "--B=1", "--a=0", "--lambda=0", "--z=0.5",
                "--quad-tol=1e-30"])
    assert code == 4
    assert "below the rounding floor" in capsys.readouterr().err


def test_extremal_max_panels_cap(monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return composite(*args)

    composite = varregion.extremal._composite_estimate
    monkeypatch.setattr(varregion.extremal, "_composite_estimate", counted)
    argv = ["extremal", "--A=0", "--B=0.5", "--lambda=0.5", "--a=0.3,0.4", "--z=0.5"]
    assert run(argv + ["--max-panels=16777216"]) == 2
    assert capsys.readouterr().err == "error: require 1 <= max_panels <= 65536, got 16777216\n"
    assert calls == []
    assert run(argv + ["--max-panels=65536"]) == 0
    assert calls


def test_sample_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5",
            "--z0", "0.5,0", "--mc-samples", "300", "--seed", "3"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "seed_index,re,im,verdict"
    assert len(lines) == 301
    verdicts = {line.split(",")[3] for line in lines[1:]}
    assert verdicts <= {"Interior", "Boundary"}


def test_sample_rows_are_prefixes_of_longer_runs(tmp_path):
    argv = ["sample", "--A", "-0.5", "--B", "0.5", "--lambda", "0.3,0.4",
            "--z0", "0.3,0.4", "--seed", "5"]
    texts = {}
    for n in (100, 1500, 3000):  # 1500 and 3000 cross block edges
        out = tmp_path / f"{n}.csv"
        assert run(argv + ["--mc-samples", str(n), "--out", str(out)]) == 0
        texts[n] = out.read_text().splitlines()
    assert len(texts[3000]) == 3001
    assert texts[100] == texts[3000][:101]
    assert texts[1500] == texts[3000][:1501]


def test_sample_negative_seed_is_a_usage_error(capsys):
    assert run(["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--seed=-1"]) == 2
    assert "require seed >= 0" in capsys.readouterr().err


def test_sample_singleton_z0_zero(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0,0", "--mc-samples", "4", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(r.endswith(",0,0,Boundary") for r in rows)


def test_sample_requires_positive_count(capsys):
    assert run(["sample", "--A", "0", "--B", "0.5", "--z0", "0.5,0",
                "--mc-samples", "0"]) == 2


def test_sample_containment_breach_exit_code(tmp_path, monkeypatch, capsys):
    # a correct kernel cannot produce Outside, so force it to exercise exit 5
    from varregion import cli as cli_mod
    from varregion.region import VERDICTS

    monkeypatch.setattr(
        cli_mod, "classify",
        lambda w, point, params, tol: (
            np.ones(w.shape), np.full(w.shape, VERDICTS.index(Verdict.OUTSIDE))),
    )
    out = tmp_path / "cloud.csv"
    code = run(["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--mc-samples", "3", "--out", str(out)])
    assert code == 5
    assert out.exists()  # artifact still written, witnesses listed on stderr
    assert "witness" in capsys.readouterr().err


def test_sample_svg(tmp_path):
    out = tmp_path / "cloud.svg"
    code = run(["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--mc-samples", "50", "--format", "svg",
                "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "<polygon" in text and "<circle" in text


def test_verify_single_suite(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "inclusion", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 1
    assert reports[0]["suite_name"] == "inclusion"
    assert reports[0]["passed"] is True
    assert reports[0]["max_violation"] <= reports[0]["tolerance"]


def test_verify_bad_suite_name():
    assert run(["verify", "--suite", "bogus"]) == 2


def test_sweep_dedup_and_rejection(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(
        "A=0\nB=0.5\nlambda_re=0.5\nz0_re=0.5\n"
        "\n"
        "A=0\nB=0.5\nlambda_re=0.5\nz0_re=0.5\n"
        "\n"
        "A=0.9\nB=0.5\nz0_re=0.5\n"
        "\n"
        "B=0.5\nz0_re=0.5\n"
    )
    out = tmp_path / "sweepout"
    assert run(["sweep", "--grid", str(grid), "--out", str(out),
                "--theta-samples", "8"]) == 0
    index = json.loads((out / "index.json").read_text())["records"]
    assert len(index) == 3  # duplicate collapsed
    assert index[0]["count"] == 2 and index[0]["status"] == "ok"
    rejected = [e for e in index if e["status"] == "rejected"]
    assert len(rejected) == 2
    for entry in index:
        rec = load_region_record(out / entry["file"])
        if entry["status"] == "rejected":
            assert rec["reason"]
        else:
            assert len(rec["boundary"]) == 8
    reasons = {json.loads((out / e["file"]).read_text())["reason"] for e in rejected}
    assert any("A < B" in r for r in reasons)
    assert any("missing key" in r for r in reasons)
    # every file is the stdlib's indented encoding of its own content
    for f in out.iterdir():
        text = f.read_text()
        expected = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_sweep_parse_error_reports_line(tmp_path, capsys):
    grid = tmp_path / "bad.txt"
    grid.write_text("A=0\nB=0.5\nwat\n")
    assert run(["sweep", "--grid", str(grid), "--out", str(tmp_path / "o")]) == 2
    assert "line 3" in capsys.readouterr().err
    grid.write_text("A=0\nB=abc\n")
    assert run(["sweep", "--grid", str(grid), "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err
    grid.write_text("A=0\nA=1\n")
    assert run(["sweep", "--grid", str(grid), "--out", str(tmp_path / "o")]) == 2
    assert "duplicate" in capsys.readouterr().err
    grid.write_text("C=0\n")
    assert run(["sweep", "--grid", str(grid), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_override_out_dir(tmp_path, monkeypatch):
    override = tmp_path / "redirected"
    monkeypatch.setenv("OVERRIDE_OUT_DIR", str(override))
    out = tmp_path / "elsewhere" / "region.csv"
    assert run(["region", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--theta-samples", "4", "--out", str(out)]) == 0
    assert not out.exists()
    assert (override / "region.csv").exists()


def test_override_out_dir_sweep(tmp_path, monkeypatch):
    override = tmp_path / "redirected"
    monkeypatch.setenv("OVERRIDE_OUT_DIR", str(override))
    grid = tmp_path / "grid.txt"
    grid.write_text("A=0\nB=0.5\nz0_re=0.5\n")
    assert run(["sweep", "--grid", str(grid), "--out", str(tmp_path / "normal"),
                "--theta-samples", "8"]) == 0
    assert not (tmp_path / "normal").exists()
    assert (override / "index.json").exists()


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub" / "region.csv"  # parent is a regular file
    assert run(["region", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--out", str(out)]) == 3
    assert "I/O error" in capsys.readouterr().err


def test_stdout_output(capsys):
    assert run(["region", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--theta-samples", "4"]) == 0
    outerr = capsys.readouterr()
    assert outerr.out.startswith("theta,re,im")


def test_main_is_reentrant(tmp_path, capsys):
    """main reuses one parser: calls in order and in reverse give what a fresh parser gives."""
    grid = tmp_path / "grid.txt"
    grid.write_text("A=0\nB=0.5\nz0_re=0.5\n\nA=0.9\nB=0.5\nz0_re=0.5\n")
    out = tmp_path / "sweep"
    point = ["--A", "0", "--B", "0.5"]
    argvs = [
        ["region", *point, "--z0", "0.5,0.1", "--theta-samples", "8", "--format", "json"],
        ["region", *point, "--z0", "0"],  # singleton: a note on stderr
        ["extremal", *point, "--lambda", "0.3", "--a", "0.6,0.2", "--z", "0.5,0"],
        ["sample", *point, "--lambda", "0.5", "--z0", "0.5,0", "--mc-samples", "20", "--seed", "3"],
        ["verify", "--suite", "inclusion"],
        ["sweep", "--grid", str(grid), "--out", str(out), "--theta-samples", "4"],
        ["--help"],
        ["extremal", "--help"],
        ["region", *point],  # missing --z0
        ["verify", "--suite", "inclusion", "--format", "csv"],  # a flag verify does not read
        ["verify", "--suite", "bogus"],
        ["region", "--A", "0.5", "--B", "0.3", "--z0", "0.5"],  # A >= B
        [],  # no command
    ]

    def call(argv, fresh_parser=False):
        if fresh_parser:
            _parser.cache_clear()
        code = main(argv)
        files = sorted((f.name, f.read_bytes()) for f in out.glob("*"))
        shutil.rmtree(out, ignore_errors=True)
        return code, *capsys.readouterr(), files

    fresh = [call(argv, fresh_parser=True) for argv in argvs]
    forward = [call(argv) for argv in argvs]
    backward = [call(argv) for argv in reversed(argvs)][::-1]
    assert _parser.cache_info().misses == 1  # both passes shared the last fresh parser
    assert [r[0] for r in fresh] == [0] * 8 + [2] * 5
    for argv, r, f, b in zip(argvs, fresh, forward, backward):
        assert (f, b) == (r, r), argv
