import json

import numpy as np
import pytest

from varregion import EvalPoint, JanowskiParams, Verdict, contains
from varregion.cli import load_region_record, main, parse_complex

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


def test_extremal_nonconvergence_exit_code(capsys):
    code = run(["extremal", "--A", "-1", "--B", "1", "--lambda", "0.7",
                "--a", "0.9,0", "--z", "0.8,0", "--quad-tol", "1e-30",
                "--max-panels", "2"])
    assert code == 4
    assert "error" in capsys.readouterr().err


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
