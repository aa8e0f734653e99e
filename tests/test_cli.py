import argparse
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import varregion._output
import varregion.cli
import varregion.extremal
import varregion.region
from varregion import EvalPoint, JanowskiParams, Verdict, boundary_curve, singleton_value, variability_disk
from varregion.sampler import BLOCK_ROWS
from varregion._output import (
    _BLOCK_CELLS,
    _JSON_BREAK,
    _JSON_END,
    _JSON_SEP,
    _boundary_rows,
    _fields,
    _index_fields,
    _json_text,
    _rows_text,
    _sample_blocks,
    _theta_fields,
)
from varregion.cli import _block_hash, _sweep_record, build_parser, main, parse_complex, region_record
from varregion.region import VERDICTS, classify
from varregion.verify import SUITE_NAMES, run_suite

P05 = JanowskiParams(0.0, 0.5)


def run(args):
    return main(args)


def _usage_error(command, message):
    """The stderr of argparse's usage error in command: its usage, then the message."""
    return build_parser().commands[command].format_usage() + f"varregion {command}: error: {message}\n"


def test_parse_complex():
    assert parse_complex("0.5") == 0.5 + 0j
    assert parse_complex("0.5,-0.25") == 0.5 - 0.25j
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


# doubles where %.17g is easy to get wrong: signed zero, non-finite values, the smallest
# subnormal and the fixed/exponent switch points
CSV_SPECIALS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 9.999999999999999e16, 1e17, 1e-5]


_NEWLINE = np.array([b"\n"], "S8")


def _csv_text(cells: np.ndarray, ends: np.ndarray) -> str:
    """CSV rows of doubles, formatted in their cells as ``sample`` and ``region`` write them, decoded."""
    return _rows_text([cells], ends).decode()


def _json_row_list(groups, ends=_JSON_END) -> list[bytes]:
    """The ``_json_text`` rows value of groups (doubles are formatted in their cells), as the CLI passes it."""
    return [_rows_text(groups, ends, _JSON_SEP)]


def _json_cells(values) -> list[str]:
    """The formatter's JSON text of each double of values: one row each, and ``json.dumps`` of each is expected."""
    values = np.asarray(values, dtype=np.float64)
    text = _json_text({}, cells=_json_row_list([values[:, None]])).decode()
    return text[len('{\n  "cells": [\n    [\n      '):-len("\n    ]\n  ]\n}\n")].split(_JSON_BREAK.decode())


def _ties() -> list[float]:
    """Doubles halfway between two 17-digit decimals: x = q / 2**(17 - e) for an odd q, per exponent e of 1e-6..1e16.

    Then ``x * 10**(16 - e) == q * 5**(16 - e) / 2``, an odd number of halves.
    """
    ties = []
    for e in range(-6, 16):
        q = int(1.5 * 10.0**e * 2 ** (17 - e)) | 1
        for x in (q / 2 ** (17 - e), (q + 2) / 2 ** (17 - e)):
            assert (Fraction(x) * Fraction(10) ** (16 - e)).denominator == 2, x
            ties += (x, -x)
    return ties


def _edges() -> list[float]:
    """The doubles where a 17-digit rounding or the fixed/exponent choice of %.17g can go wrong."""
    edges = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072009e-308, sys.float_info.max]
    for k in range(-6, 19):
        edges += (10.0**k, np.nextafter(10.0**k, 0.0), np.nextafter(10.0**k, math.inf))
    for switch in (1e-6, 1e-5, 1e-4, 1e16, 1e17):  # the last doubles below and the first above the notation switches
        below = above = switch
        for _ in range(8):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            edges += (below, above)
    return [float(x) for x in edges + _ties()]


def test_seed_index_field_is_percent_d():
    edges = [i for k in range(1, 16) for i in (10**k - 1, 10**k, 10**k + 1)]
    for index in (np.arange(20_000), np.array(edges), np.array([0])):
        expected = "".join("%d\n" % i for i in index.tolist())
        assert _rows_text([_index_fields(index)], _NEWLINE).decode() == expected
        # beside a value, as a sample row has it
        values = np.resize(CSV_SPECIALS + [0.5], (index.size, 1))
        row = "".join("%d,%.17g\n" % (i, x) for i, x in zip(index.tolist(), values[:, 0].tolist()))
        assert _rows_text([_index_fields(index), values], _NEWLINE).decode() == row


@given(st.integers(0, 2**64 - 1))
def test_csv_field_is_percent_17g_for_every_bit_pattern(bits):
    x = float(np.array(bits, np.uint64).view(np.float64))
    assert _csv_text(np.array([[x, -x]]), _NEWLINE) == "%.17g,%.17g\n" % (x, -x)


def test_csv_fields_are_percent_17g_at_the_edges_and_over_many_blocks():
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 2**64, 30_000, dtype=np.uint64, endpoint=False).view(np.float64)
    normals = rng.standard_normal(30_000) * 10.0 ** rng.integers(-6, 18, 30_000)
    for values in (_edges() + CSV_SPECIALS, bits, normals, np.arange(-3000.0, 3000.0)):
        values = np.asarray(values, dtype=np.float64)
        cells = np.resize(values, (-(-values.size // 3), 3))  # whole rows, the last one refilled from the start
        expected = "".join("%.17g,%.17g,%.17g\n" % tuple(row) for row in cells.tolist())
        # calls one row longer than the engine's block: each is a whole block, then a block of one row
        step = _BLOCK_CELLS // 3 + 1
        assert "".join(_csv_text(cells[i:i + step], _NEWLINE) for i in range(0, len(cells), step)) == expected


@given(st.integers(0, 2**64 - 1))
def test_json_field_is_json_dumps_for_every_bit_pattern(bits):
    x = float(np.array(bits, np.uint64).view(np.float64))
    assert _json_cells([x, -x]) == [json.dumps(x), json.dumps(-x)]


def _near_ties() -> list[float]:
    """Doubles next to the midpoint of two candidates of one length: two 17-digit neighbours, or two 16-digit ones.

    In units of the 17th digit, the midpoint is ``k + 0.5`` or ``10 k + 5``.
    """
    rng = np.random.default_rng(29)
    near = []
    for e in range(-6, 16):
        for k in rng.integers(10**15, 10**16, 4).tolist():
            for mid in (Fraction(2 * (10 * k + 3) + 1, 2), Fraction(10 * k + 5)):
                x = float(mid * Fraction(10) ** (e - 16))
                near += (x, np.nextafter(x, 0.0), np.nextafter(x, math.inf))
    return [float(x) for x in near]


def _by_length() -> list[float]:
    """Doubles whose shortest repr has each length from 1 to 17 digits, at exponents from -6 to 15."""
    rng = np.random.default_rng(17)
    values = []
    for length in range(1, 18):
        for e in range(-6, 16):
            digits = int(rng.integers(10 ** (length - 1), 10**length)) // 10 * 10 + int(rng.integers(1, 10))
            values.append(float(f"{str(digits)[:length]}e{e - length + 1}"))
    return values


def test_json_fields_are_json_dumps_at_the_edges_and_over_many_blocks():
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2**64, 30_000, dtype=np.uint64, endpoint=False).view(np.float64)
    normals = rng.standard_normal(30_000) * 10.0 ** rng.integers(-6, 18, 30_000)
    # a power of 2 has a gap below it half the one above; and its neighbours
    twos = [float(s * np.nextafter(2.0**k, t))
            for k in range(-20, 60) for t in (0.0, 2.0**k, math.inf) for s in (1, -1)]
    lengths = _by_length()
    digits = {len(repr(x).split("e")[0].replace(".", "").replace("-", "").strip("0")) for x in lengths}
    assert sorted(digits) == list(range(1, 18))
    for values in (_edges() + CSV_SPECIALS, twos, _near_ties(), lengths, bits, normals, np.arange(1.0, 30_001.0)):
        values = np.asarray(values, dtype=np.float64).tolist()
        cells = _json_cells(values)
        # the mismatches alone: pytest's diff of two long lists takes minutes
        assert len(cells) == len(values) and [(x, c) for x, c in zip(values, cells) if c != json.dumps(x)] == []


def test_a_block_column_with_no_value_in_range_formats_as_python_does():
    small = np.array([[7.0, 1e-5, -0.0], [8.0, 2e-300, math.nan], [9.0, -3e-7, math.inf]])
    for shortest, fmt in ((False, "%.17g".__mod__), (True, json.dumps)):
        expected = [",".join(map(fmt, row)) + "\n" for row in small.tolist()]
        assert _rows_text([_fields(small, shortest=shortest)], _NEWLINE).decode() == "".join(expected)
        tail = "".join(e.split(",", 1)[1] for e in expected)
        assert _rows_text([_fields(small[:, 1:], shortest=shortest)], _NEWLINE).decode() == tail


_PERCENT_SAMPLE_ARGVS = [
    *(["--A=-0.5", "--B=0.5", "--lambda=0.3,0.4", "--z0=0.3,0.4", f"--mc-samples={n}"]
      for n in (1, 1023, 1024, 1025, 2500, 4097)),
    *(["--A=-0.5", "--B=0.5", f"--lambda={lam}", f"--z0={z0}", f"--mc-samples={n}"]
      for lam, z0 in (("0.5", "0.5,0"), ("0.5", "0")) for n in (1, 1023, 1025, 2500)),
    ["--A=-0.5", "--B=0.5", "--lambda=1", "--z0=0.5", "--mc-samples=1500"],  # the two singleton kinds
    ["--A=-0.5", "--B=0.5", "--lambda=0.5", "--z0=0", "--mc-samples=1500"],
    ["--A=-0.5", "--B=1e-6", "--lambda=0.5", "--z0=0.5", "--mc-samples=2500"],  # B -> 0: a few |x| < 1e-4
    pytest.param(["--A=-0.5", "--B=5e-324", "--lambda=0.5", "--z0=0.5", "--mc-samples=1025"],  # B omega subnormal
                 id="B=5e-324"),
]


@pytest.mark.parametrize("argv", _PERCENT_SAMPLE_ARGVS, ids=" ".join)
def test_sample_csv_is_the_percent_rows_of_its_blocks(argv, capsys):
    code = run(["sample", *argv, "--seed=5"])
    args = build_parser().parse_args(["sample", *argv, "--seed=5"])
    params, point = JanowskiParams(args.A, args.B), EvalPoint(args.z0, args.lam)
    rows = [(i, w.real + 0.0, w.imag + 0.0, VERDICTS[s].value)
            for block in _sample_blocks(point, params, args.mc_samples, 5, args.tol)
            for i, w, s in zip(*(col.tolist() for col in block[:3]))]
    out = capsys.readouterr().out
    assert out == "seed_index,re,im,verdict\n" + "".join("%d,%.17g,%.17g,%s\n" % r for r in rows)
    assert len(out.splitlines()) == 1 + args.mc_samples
    values = np.array([r[1:3] for r in rows])
    assert code == 0 and np.isfinite(values).all()
    if args.B == 1e-6:
        assert ((values != 0) & (np.abs(values) < 1e-4)).any()


# a subnormal B: sample and region print finite rows (the zeta-plane maps never form (A - B)/B),
# while extremal's F' still takes (A - B)/B, which overflows: a domain error
_TINY_B = ["--A=-0.5", "--lambda=0.5", "--z0=0.5"]
_TINY_B_SINGLETON = ["--A=-0.5", "--B=-5e-324", "--lambda=1", "--z0=0.5"]
_SINGLETON_NOTE = "note: |lambda| = 1: the region is a singleton\n"


@pytest.mark.parametrize("argv,code,err", [
    pytest.param(argv, code, err, id=" ".join(argv)) for argv, code, err in (
        (["sample", *_TINY_B, "--B=5e-324", "--mc-samples=10"], 0, ""),
        (["sample", *_TINY_B, "--B=5e-324", "--mc-samples=10", "--format=json"], 0, ""),
        (["sample", *_TINY_B, "--B=1e-310", "--mc-samples=10"], 0, ""),
        (["region", *_TINY_B, "--B=1e-310"], 0, ""),
        (["region", *_TINY_B, "--B=1e-310", "--format=json"], 0, ""),
        (["sample", *_TINY_B_SINGLETON, "--mc-samples=10"], 0, ""),
        (["sample", *_TINY_B_SINGLETON, "--mc-samples=10", "--format=json"], 0, ""),
        (["sample", *_TINY_B_SINGLETON, "--mc-samples=10", "--format=svg"], 0, ""),
        (["region", *_TINY_B_SINGLETON, "--format=json"], 0, _SINGLETON_NOTE),
        (["extremal", "--A=-1", "--B=1e-310", "--a=0.6,0.2", "--z=0"], 2,
         "error: require a finite (A - B)/B, got B = 1e-310\n"),
        (["extremal", "--A=-0.5", "--B=5e-324", "--a=0.6,0.2", "--z=0.5,0.1"], 2,
         "error: require a finite (A - B)/B, got B = 5e-324\n"))])
def test_subnormal_b_prints_finite_rows_or_a_domain_error(argv, code, err, capsys):
    assert run(argv) == code
    out, got_err = capsys.readouterr()
    assert got_err == err
    if code:
        assert out == ""
    elif "--format=json" in argv:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"not strict JSON: {name}"))
    elif "--format=svg" in argv:
        assert "nan" not in out and "inf" not in out
    else:
        _, *rows = out.splitlines()
        assert rows and all(math.isfinite(float(c)) for row in rows for c in row.split(",")[:3])
        assert not any(row.endswith(",Outside") for row in rows)


@pytest.mark.parametrize("lam,z0,n", [
    *((lam, z0, n) for n in (3, 4, 256, 4096, 5000) for lam, z0 in (("0.5", "0.5"), ("0.3,0.4", "0.3,0.4"))),
    ("0.5", "0", 256), ("1", "0.5", 256),  # both singleton kinds
])
def test_region_csv_is_the_percent_rows_of_its_record(lam, z0, n, capsys):
    assert run(["region", "--A=-0.5", "--B=0.5", f"--lambda={lam}", f"--z0={z0}", f"--theta-samples={n}"]) == 0
    rec, curve = region_record(JanowskiParams(-0.5, 0.5), EvalPoint(parse_complex(z0), parse_complex(lam)), n)
    if curve is None:
        rows = [(0.0, *rec["center"])]
    else:
        thetas = curve.thetas.tolist()
        assert math.pi in thetas and (n % 2 or 0.0 in thetas)
        rows = [(t, w.real + 0.0, w.imag + 0.0) for t, w in zip(thetas, curve.values.tolist())]
    out = capsys.readouterr().out
    assert out == "theta,re,im\n" + "".join("%.17g,%.17g,%.17g\n" % r for r in rows)
    assert len(out.splitlines()) == 1 + (1 if curve is None else n)


def test_region_json_roundtrip(tmp_path):
    out = tmp_path / "region.json"
    code = run(["region", "--A", "-0.5", "--B", "0.5", "--lambda", "0.3",
                "--z0", "0.3,0.4", "--theta-samples", "16", "--format", "json",
                "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["params"] == {"A": -0.5, "B": 0.5}
    assert rec["point"]["z0"] == [0.3, 0.4]
    assert len(rec["boundary"]) == 16
    # every boundary row is on the region boundary for the original point
    point = EvalPoint(0.3 + 0.4j, 0.3)
    params = JanowskiParams(-0.5, 0.5)
    for _, re, im in rec["boundary"]:
        assert VERDICTS[int(classify(complex(re, im), point, params)[1])] is Verdict.BOUNDARY


def test_region_invalid_parameters(capsys):
    assert run(["region", "--A", "-0.5", "--B", "0", "--z0", "0.5,0"]) == 2
    assert "B != 0" in capsys.readouterr().err
    assert run(["region", "--A", "0.5", "--B", "0.3", "--z0", "0.5,0"]) == 2
    assert "-1 <= A < B <= 1" in capsys.readouterr().err
    assert run(["region", "--A", "0", "--B", "0.5", "--z0", "1.5,0"]) == 2
    assert "|z0| < 1" in capsys.readouterr().err


# sample's checks in the order it reports them, each a bad flag and its stderr: the flag
# rules as argparse meets them, in argv order, then the point's when the command runs
_SAMPLE_CHECKS = [
    ("--theta-samples=2", _usage_error("sample", "argument --theta-samples: require theta_samples >= 3")),
    ("--tol=0", _usage_error("sample", "argument --tol: require tol > 0")),
    ("--mc-samples=0", _usage_error("sample", "argument --mc-samples: require mc_samples >= 1")),
    ("--seed=-1", _usage_error("sample", "argument --seed: require seed >= 0, got -1")),
    ("--z0=2", "error: require |z0| < 1, got |z0| = 2.0\n"),
]


@pytest.mark.parametrize("first", range(len(_SAMPLE_CHECKS)))
def test_sample_reports_the_first_check_that_fails(first, capsys):
    # this check's flag and every later one's are bad, the point ahead of the flags in argv:
    # only this check's message is printed
    *flags, (z0, _) = _SAMPLE_CHECKS
    bad = [flag for flag, _ in flags[first:]]
    assert run(["sample", "--A=0", "--B=0.5", z0, *bad]) == 2
    assert capsys.readouterr() == ("", _SAMPLE_CHECKS[first][1])


# a valid argv of each command in the --flag=value form
_RULE_BASE = {
    "region": ["--A=0", "--B=0.5", "--z0=0.5", "--theta-samples=4"],
    "extremal": ["--A=0", "--B=0.5", "--lambda=0.5", "--a=0.3,0.4", "--z=0.5"],
    "sample": ["--A=0", "--B=0.5", "--z0=0.5", "--mc-samples=5", "--theta-samples=4"],
    "verify": ["--suite=inclusion"],
    "sweep": ["--grid=grid.txt", "--out=out", "--theta-samples=4"],
}
# (command, flag, value, message) of every rule that a flag's type carries
_FLAG_RULES = [
    *((command, "--theta-samples", "2", "require theta_samples >= 3") for command in ("region", "sample", "sweep")),
    *(("sweep", "--theta-samples", n, "require theta_samples >= 3") for n in ("0", "-5")),
    *((command, "--tol", tol, "require a finite tol" if tol == "inf" else "require tol > 0")
      for command in ("sample", "verify") for tol in ("0", "-1", "nan", "inf")),
    *((command, "--seed", "-1", "require seed >= 0, got -1") for command in ("sample", "verify")),
    ("sample", "--mc-samples", "0", "require mc_samples >= 1"),
    *((command, "--out", "", "require a non-empty --out path") for command in _RULE_BASE),
    ("extremal", "--z", "1.5", "require |z| < 1, got |z| = 1.5"),
    ("extremal", "--z", "nan", "require |z| < 1, got |z| = nan"),
    *(("extremal", "--quad-tol", tol, "require quad_tol > 0") for tol in ("0", "-1", "nan")),
]


def _rule_argv(command, flag, value, form):
    """command's valid argv with flag set to value, as ``--flag=value`` (the table path) or as ``--flag value``."""
    base = [command, *(t for t in _RULE_BASE[command] if t.partition("=")[0] != flag)]
    return [*base, f"{flag}={value}"] if form == "equals" else [*base, flag, value]


# each flag rule's test runs once per flag form, and expects the same message from both
_each_flag_form = pytest.mark.parametrize("form", ["equals", "space"])


@_each_flag_form
@pytest.mark.parametrize("command, flag, value, message", _FLAG_RULES,
                         ids=[f"{c} {f}={v}" for c, f, v, _ in _FLAG_RULES])
def test_each_flag_rule_is_the_same_usage_error_in_both_flag_forms(command, flag, value, message, form, tmp_path,
                                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(_rule_argv(command, flag, value, form)) == 2
    assert capsys.readouterr() == ("", _usage_error(command, f"argument {flag}: {message}"))
    # refused before any work: nothing is written, sweep makes no --out directory, and its
    # grid.txt, which does not exist, is never read (a read would be an I/O error, exit 3)
    assert list(tmp_path.iterdir()) == []


@_each_flag_form
@pytest.mark.parametrize("command, flag, convert", [
    ("sample", "--seed", "int"), ("verify", "--seed", "int"), ("sample", "--mc-samples", "int"),
    ("sweep", "--theta-samples", "int"), ("verify", "--tol", "float"), ("extremal", "--quad-tol", "float"),
])
def test_a_ruled_flag_that_is_no_number_names_its_converter(command, flag, convert, form, capsys):
    assert run(_rule_argv(command, flag, "abc", form)) == 2
    assert capsys.readouterr() == ("", _usage_error(command, f"argument {flag}: invalid {convert} value: 'abc'"))


def test_an_infinite_quad_tol_takes_the_two_panel_estimate(capsys):
    assert run(["extremal", "--A=-0.5", "--B=0.5", "--lambda=0.3,0.4", "--a=0.6,0.2", "--z=0.5,0.1",
                "--quad-tol=inf"]) == 0
    spec = varregion.extremal.ExtremalSpec(0.6 + 0.2j, 0.3 + 0.4j, JanowskiParams(-0.5, 0.5))
    two = varregion.extremal._composite_estimates(spec, 0j, 0.5 + 0.1j, (1, 2))[1]
    assert capsys.readouterr().out.splitlines()[0] == f"{varregion.cli._f15(two.real)} {varregion.cli._f15(two.imag)}"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: at a subnormal z0, omega = z0 zeta underflows and the complex division "
                          "by z0 overflows, so every member reads Outside with NaN slack (exit 5)")
def test_members_at_a_subnormal_z0_are_inside(capsys):
    assert run(["sample", "--A=-0.5", "--B=0.5", "--lambda=0.3,0.4", "--z0=5e-324", "--mc-samples=5"]) == 0
    _, *rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 5 and not any(row.endswith(",Outside") for row in rows)


@pytest.mark.parametrize("command, flag", [
    ("verify", "--format"), ("extremal", "--seed"), ("extremal", "--tol"), ("extremal", "--format"),
    ("region", "--seed"), ("region", "--tol"), ("sweep", "--seed"), ("sweep", "--tol"),
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


def _reference_region_record(params, point, n):
    """A region record with its boundary rows as lists of floats, built as a whole."""
    def pair(w):
        return [w.real + 0.0, w.imag + 0.0]

    rec = {"params": {"A": params.A, "B": params.B}, "point": {"z0": pair(point.z0), "lambda": pair(point.lam)}}
    single = singleton_value(point, params)
    if single is not None:
        note = "z0 = 0: the region is the singleton {0}" if point.z0 == 0 else "|lambda| = 1: the region is a singleton"
        rec.update(center=pair(single), radius=0.0, boundary=[], note=note)
        return rec
    disk, curve = variability_disk(point, params), boundary_curve(point, params, n)
    rec.update(center=pair(disk.center), radius=disk.radius + 0.0,
               boundary=(np.column_stack([curve.thetas, curve.values.real, curve.values.imag]) + 0.0).tolist())
    return rec


def _reference_sweep_record(block, n):
    for key in ("A", "B", "z0_re"):
        if key not in block:
            return {"rejected": True, "reason": f"missing key {key!r}", "block": block}
    z0 = complex(block["z0_re"], block.get("z0_im", 0.0))
    lam = complex(block.get("lambda_re", 0.0), block.get("lambda_im", 0.0))
    try:
        return _reference_region_record(JanowskiParams(block["A"], block["B"]), EvalPoint(z0, lam), n)
    except ValueError as exc:
        return {"rejected": True, "reason": str(exc), "block": block}


def _record_text(rec, curve, n, **rows):
    return _json_text(rec, **_boundary_rows([curve], _theta_fields(n))[0], **rows)


SAMPLE_COLUMNS = ([0, 1, 2, 3, 4], [math.nan, math.inf, 0.5, 1e-5, 5e-324], [-0.0, -math.inf, 1e-300, -5e-324, -1e-5],
                  ["Interior", "Boundary", "Outside", "Interior", "Boundary"])
SAMPLE_ROWS = [list(row) for row in zip(*SAMPLE_COLUMNS)]


def _sample_pieces() -> list[bytes]:
    """The ``_json_text`` rows value of the SAMPLE_COLUMNS rows as ``sample`` writes them.

    The seed index is written as %.17g writes it, and the verdict rides in the row end.
    """
    index, re, im, names = SAMPLE_COLUMNS
    ends = np.array([_JSON_SEP + f'"{name}"'.encode() + _JSON_BREAK for name in names], "S40")
    return _json_row_list([_fields(np.array(index, np.float64)[:, None]), np.column_stack([re, im])], ends)


def _json_records():
    """(object, text) pairs: a record or report and the text the CLI writes for it."""
    region_cases = [(P05, EvalPoint(z0, lam), n)
                    for n in (3, 4, 256, 4096) for z0, lam in ((0.5, 0.5), (0.3 + 0.4j, -0.2 - 0.6j))]
    region_cases += [
        (P05, EvalPoint(0.0, 0.5), 256),  # singleton, z0 = 0
        (P05, EvalPoint(0.5, 1.0), 256),  # singleton, |lambda| = 1
        (JanowskiParams(-1.0, 1.0), EvalPoint(0.3 + 0.4j, 1j), 8),  # singleton, lambda = i
        (P05, EvalPoint(0.3 + 0.4j, -0.2 - 0.6j), 5000),  # a last _fields block cut short
    ]
    cases = [(_reference_region_record(*case), _record_text(*region_record(*case), case[2])) for case in region_cases]
    for point in (EvalPoint(0.5, 0.5), EvalPoint(0.0, 0.5)):  # a disk and a singleton with samples
        cases.append(({**_reference_region_record(P05, point, 8), "samples": SAMPLE_ROWS},
                      _record_text(*region_record(P05, point, 8), 8, samples=_sample_pieces())))
    for block in ({"A": 0.9, "B": 0.5, "z0_re": 0.5}, {"A": -0.5, "B": 0.5, "lambda_im": 0.3, "z0_re": 0.3}):
        cases.append((_reference_sweep_record(block, 16), _record_text(*_sweep_record(block, 16), 16)))
    reports = [run_suite("inclusion", seed=0, tol=1e-9)]
    index = {"records": [{"hash": "0123", "file": "region-0123.json", "status": "ok", "count": 2}]}
    int_keys = {1: [[1.5]], 2: "x"}
    cases += [(obj, _json_text(obj)) for obj in (reports, index, int_keys)]  # no rows: the stdlib call
    # a nested key of the same name stays; the other values may hold the row separators
    other = {"meta": {"samples": None}, "a": "x, y", "b": [[{"k": 1}]], "c": [["], [", 1]]}
    cases.append(({**other, "samples": SAMPLE_ROWS}, _json_text(other, samples=_sample_pieces())))
    return cases


@pytest.mark.parametrize("obj", _json_records())
def test_json_text_matches_stdlib_indented_encoding(obj):
    obj, text = obj
    # compared as lines: pytest's diff of two long strings takes minutes
    expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert text.decode().splitlines(keepends=True) == expected.splitlines(keepends=True)


# the cells of a row column, and other scalars: strings that hold the row separators, any text
_ROW_CELLS = st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e-300, 1e16, 1e-4]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**200), 2**200), _ROW_CELLS,
    st.sampled_from(["x, y", "], [", 'a", "b', "Inside", ""] + [v.value for v in VERDICTS]), st.text(max_size=4))
_CELLS = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
# the columns of one row list: one to four, all of one length
_COLUMNS = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_ROW_CELLS, min_size=n, max_size=n), min_size=1, max_size=4))


@given(st.dictionaries(st.text(max_size=4), _CELLS, max_size=4),
       st.dictionaries(st.text(max_size=4), _COLUMNS, max_size=3))
def test_json_text_matches_stdlib_for_generated_dicts(obj, columns):
    rows = {key: _json_row_list([np.array(cols).T]) for key, cols in columns.items()}
    merged = {**obj, **{key: [list(row) for row in zip(*cols)] for key, cols in columns.items()}}
    assert _json_text(obj, **rows).decode() == json.dumps(merged, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("command", ["region", "sample"])
@pytest.mark.parametrize("z0, lam", [(0.3 + 0.4j, -0.2 - 0.6j), (0.5, 0.999), (0.0, 0.5), (0.5, 1j)],
                         ids=["disk", "disk-near-unit-lambda", "singleton-z0", "singleton-lambda"])
def test_region_and_sample_json_are_the_reference_record(capsys, command, z0, lam):
    n, members = 16, 30
    argv = [command, "--A=-0.5", "--B=0.5", f"--lambda={lam.real!r},{complex(lam).imag!r}",
            f"--z0={complex(z0).real!r},{complex(z0).imag!r}", "--format=json", f"--theta-samples={n}"]
    assert run(argv + ([f"--mc-samples={members}"] if command == "sample" else [])) == 0
    expected = _reference_region_record(JanowskiParams(-0.5, 0.5), EvalPoint(z0, lam), n)
    out = capsys.readouterr().out
    if command == "sample":
        csv_argv = [a for a in argv if a != "--format=json"] + [f"--mc-samples={members}"]
        assert run(csv_argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        expected["samples"] = [[int(i), float(re), float(im), verdict] for i, re, im, verdict in rows]
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


_JSON_SAMPLE_ARGVS = [
    *(["--A=-0.5", "--B=0.5", "--lambda=0.3,0.4", "--z0=0.3,0.4", f"--mc-samples={n}"]
      for n in (1, 1023, 1024, 1025, 2500, 4097)),
    ["--A=-0.5", "--B=0.5", "--lambda=1", "--z0=0.5", "--mc-samples=1025"],  # a singleton
    ["--A=-0.5", "--B=1e-3", "--lambda=0.5", "--z0=2e-4", "--mc-samples=1500"],  # every value below 1e-4
    ["--A=-1", "--B=1e-3", "--lambda=0.5", "--z0=2e-4", "--mc-samples=1025"],  # Re above 1e-4, Im below
    ["--A=-0.5", "--B=1e-16", "--lambda=0.5", "--z0=0.5", "--mc-samples=1025"],  # B -> 0
    ["--A=-1", "--B=1", "--lambda=0.9999999", "--z0=0.3,0.4", "--mc-samples=1025"],  # |lambda| -> 1
]


@pytest.mark.parametrize("argv", _JSON_SAMPLE_ARGVS, ids=" ".join)
def test_sample_json_is_the_stdlib_encoding_over_several_blocks(argv, capsys):
    n = 1025
    code = run(["sample", *argv, "--seed=5", "--format=json", f"--theta-samples={n}"])
    args = build_parser().parse_args(["sample", *argv])
    params, point = JanowskiParams(args.A, args.B), EvalPoint(args.z0, args.lam)
    expected = {**_reference_region_record(params, point, n), "samples": [
        [i, w.real + 0.0, w.imag + 0.0, VERDICTS[s].value]
        for block in _sample_blocks(point, params, args.mc_samples, 5, args.tol)
        for i, w, s in zip(*(col.tolist() for col in block[:3]))]}
    out = capsys.readouterr().out
    expected_text = json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert out.splitlines(keepends=True) == expected_text.splitlines(keepends=True)
    assert code == 0


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
        assert VERDICTS[int(classify(complex(re, im), point, P05)[1])] is Verdict.BOUNDARY


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
    pair = "%.17g,%.17g" % (value.real + 0.0, value.imag + 0.0)
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


@pytest.mark.parametrize("command", ["region", "sample"])
def test_svg_drawing_is_centred_in_the_margins(capsys, command):
    argv = [command, "--A=-1", "--B=1", "--z0=0.95", "--format=svg", "--theta-samples=64"]  # 1.3 times wider than tall
    assert run(argv + (["--mc-samples=200"] if command == "sample" else [])) == 0
    text = capsys.readouterr().out
    pts = [tuple(map(float, p.split(","))) for p in text.split('points="')[1].split('"')[0].split()]
    pts += [(float(x), float(y)) for x, y in re.findall(r'cx="([^"]+)" cy="([^"]+)"', text)]
    xs, ys = zip(*pts)
    for c in (xs, ys):  # each axis centred in the 800 px viewport
        assert (min(c) + max(c)) / 2 == pytest.approx(400, abs=1e-3)
    # the wider axis spans the viewport less its 40 px margins
    assert max(max(xs) - min(xs), max(ys) - min(ys)) == pytest.approx(720, abs=2e-3)


def test_extremal_prints_value_and_derivative(capsys):
    code = run(["extremal", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--a", "0,0", "--z", "0.5,0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0.471132142625534 0"
    assert lines[1] == "0.888888888888889 0"


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
    (["extremal", "--a=0.5", "--z=nan"], "argument --z: require |z| < 1, got |z| = nan"),
    (["extremal", "--a=nan", "--z=0.5"], "require |a| <= 1, got |a| = nan"),
    (["extremal", "--a=0.5", "--lambda=nan", "--z=0.5"], "require |lambda| < 1, got |lambda| = nan"),
    (["region", "--z0=nan"], "require |z0| < 1, got |z0| = nan"),
    (["region", "--z0=0.5", "--lambda=0.5,nan"], "require |lambda| <= 1, got |lambda| = nan"),
    (["sample", "--z0=nan,0.5"], "require |z0| < 1, got |z0| = nan"),
], ids=["extremal-z", "extremal-a", "extremal-lambda", "region-z0", "region-lambda", "sample-z0"])
def test_nan_inputs_are_usage_errors(argv, message, capsys):
    assert run(argv[:1] + ["--A=0", "--B=1"] + argv[1:]) == 2
    # a flag's own rule is argparse's usage error; the point's rules are the command's
    expected = _usage_error(argv[0], message) if message.startswith("argument ") else f"error: {message}\n"
    assert capsys.readouterr().err == expected


def test_lambda_just_past_the_unimodular_band_is_a_domain_error(capsys):
    # the double nearest 1 + 1e-12 lies 1.00009e-12 above 1: outside the band, so not admitted
    assert run(["region", "--A=0", "--B=0.5", "--lambda=1.000000000001", "--z0=0.5"]) == 2
    assert capsys.readouterr().err == "error: require |lambda| <= 1, got |lambda| = 1.000000000001\n"


# steep: 1 + B z delta(a z, lambda) comes within about 1 - |z|^2 = 2e-3 of zero, and F is about 250
_CAP_CORNER = ["extremal", "--A=-1", "--B=1", "--lambda=0", "--a=-0.16996714290024112,0.9854497299884603",
               "--z=0.764077345097204,0.6435734695504534"]
# F at _CAP_CORNER, from mpmath at 30 digits
_CAP_CORNER_F = 192.568170807624431107218529662 + 162.197932718295833357697133889j


def test_extremal_nonconvergence_exit_code(capsys):
    # 1e-12 sits within about 5x of the rounding floor 4 eps |F|: 1,024 panels do not confirm it
    assert run(_CAP_CORNER) == 4
    out, err = capsys.readouterr()
    assert out == "" and "within 1024 panels" in err


def test_extremal_at_the_cap_corner_converges_at_a_looser_quad_tol(capsys):
    assert run([*_CAP_CORNER, "--quad-tol=1e-11"]) == 0
    value = complex(*map(float, capsys.readouterr().out.splitlines()[0].split()))
    assert abs(value - _CAP_CORNER_F) <= 1e-11


def test_extremal_tolerance_below_the_rounding_floor_exit_code(capsys):
    # F' = 1, so every estimate is exactly z: they agree, but not to 1e-30
    code = run(["extremal", "--A=0", "--B=1", "--a=0", "--lambda=0", "--z=0.5",
                "--quad-tol=1e-30"])
    assert code == 4
    assert "below the rounding floor" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    *(["verify", f"--suite={suite}"] for suite in (*SUITE_NAMES, "all")),
    # singleton points, where no member is drawn
    ["sample", "--A", "0", "--B", "0.5", "--z0", "0"],
    ["sample", "--A", "0", "--B", "0.5", "--z0", "0.5", "--lambda", "1"],
], ids=" ".join)
def test_negative_seed_is_rejected_before_any_work(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([*argv, "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", _usage_error(argv[0], "argument --seed: require seed >= 0, got -1"))
    assert not out.exists()


def test_sample_at_small_z0_reports_no_breach(capsys):
    # 1 + B z0 omega rounds away the member's value here unless Log(1 + x) is taken from x
    for point in (["--A=-1", "--B=1", "--lambda=0", "--z0=1e-8"],
                  ["--A=0", "--B=0.5", "--lambda=-0.7", "--z0=1e-8"],
                  ["--A=0", "--B=0.5", "--lambda=0.5", "--z0=1e-10"],
                  ["--A=0", "--B=0.5", "--lambda=0.5", "--z0=1e-17"],
                  ["--A=-0.5", "--B=1e-16", "--lambda=0.5", "--z0=0.5"]):
        assert run(["sample", *point, "--mc-samples=2000", "--seed=2"]) == 0, point


def _force_outside(monkeypatch):
    # a correct kernel cannot produce Outside, so force it
    monkeypatch.setattr(
        varregion.region, "classify",
        lambda w, point, params, tol: (
            np.ones(w.shape), np.full(w.shape, VERDICTS.index(Verdict.OUTSIDE))),
    )


def test_sample_containment_breach_exit_code(tmp_path, monkeypatch, capsys):
    _force_outside(monkeypatch)
    out = tmp_path / "cloud.csv"
    code = run(["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--mc-samples", "3", "--out", str(out)])
    assert code == 5
    assert out.exists()  # artifact still written, witnesses listed on stderr
    assert "witness" in capsys.readouterr().err


def test_sample_breach_lists_the_first_20_witnesses(monkeypatch, capsys):
    _force_outside(monkeypatch)
    point, n = EvalPoint(0.5, 0.5), 3000
    assert run(["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5", "--z0", "0.5,0", "--mc-samples", str(n)]) == 5
    err = capsys.readouterr().err
    # every breach as a witness, then the first 20 listed
    breaches = [{"seed_index": int(rows[k]), "value": [float(w[k].real), float(w[k].imag)], "slack": float(slack[k])}
                for rows, w, _, slack in _sample_blocks(point, P05, n, 0, 1e-9) for k in range(rows.size)]
    assert len(breaches) == n
    assert err == (f"containment breach: {len(breaches)} sample(s) outside the region\n"
                   + "".join(f"  witness: {b}\n" for b in breaches[:20]))
    assert "3000 sample(s)" in err and err.count("  witness: ") == 20


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("lam", [0.5, 0.3 + 0.4j])
def test_a_short_block_evaluates_to_the_whole_block_rows(seed, lam):
    point, params = EvalPoint(0.3 + 0.2j, lam), JanowskiParams(-0.5, 0.5)
    (_, w_all, status_all, slack_all), = _sample_blocks(point, params, BLOCK_ROWS, seed, 1e-9)
    for k in range(1, BLOCK_ROWS + 1):
        (rows, w, status, slack), = _sample_blocks(point, params, k, seed, 1e-9)
        assert rows.tolist() == list(range(k))
        assert w.tobytes() == w_all[:k].tobytes()
        assert status.tobytes() == status_all[:k].tobytes()
        assert slack.tobytes() == slack_all[:k].tobytes()
    # a longer stream cut short, past one and two chunk edges
    whole = [np.concatenate(col) for col in zip(*_sample_blocks(point, params, 9000, seed, 1e-9))]
    for n in (4097, 8893):
        cut = [np.concatenate(col) for col in zip(*_sample_blocks(point, params, n, seed, 1e-9))]
        assert [c.tobytes() for c in cut] == [f[:n].tobytes() for f in whole]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_rows_do_not_depend_on_the_chunk_they_fall_in(fmt, capsys, monkeypatch):
    argv = ["sample", "--A=-0.5", "--B=0.5", "--lambda=0.3,0.4", "--z0=0.3,0.4", "--seed=11", f"--format={fmt}"]

    def rows(n):
        assert run(argv + [f"--mc-samples={n}"]) == 0
        out = capsys.readouterr().out
        return json.loads(out)["samples"] if fmt == "json" else out

    whole = rows(9000)  # three 4,096-row chunks, the last one cut; indices past four digits
    if fmt == "csv":
        assert [int(line.split(",", 1)[0]) for line in whole.splitlines()[1:]] == list(range(9000))
    else:
        assert [row[0] for row in whole] == list(range(9000))
    for n in (4095, 4096, 4097, 8193):
        part = rows(n)
        if fmt == "csv":  # the byte prefix
            assert part.count("\n") == 1 + n and whole.startswith(part)
        else:
            assert part == whole[:n]
    for chunk in (BLOCK_ROWS, 3 * BLOCK_ROWS):  # the same rows, evaluated in other chunks
        monkeypatch.setattr(varregion._output, "_CHUNK_ROWS", chunk)
        assert rows(9000) == whole


def test_sample_svg(tmp_path):
    out = tmp_path / "cloud.svg"
    code = run(["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--mc-samples", "50", "--format", "svg",
                "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "<polygon" in text and "<circle" in text


def test_verify_tol_reaches_every_suite(capsys):
    assert run(["verify", "--suite", "all", "--tol", "0.5"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [(r["suite_name"], r["tolerance"]) for r in reports] == [(name, 0.5) for name in SUITE_NAMES]
    # without --tol each suite keeps its own
    assert run(["verify", "--suite", "all"]) == 0
    own = {"coverage": 1e-8, "convexity": 1e-10}
    assert [r["tolerance"] for r in json.loads(capsys.readouterr().out)] == [own.get(n, 1e-9) for n in SUITE_NAMES]


def test_verify_failure_exits_1_and_names_the_failed_suites(capsys):
    # five suites miss a tolerance below their rounding error
    failed = ["prop1", "corollary0", "unit-lambda", "rotation", "coverage"]
    assert run(["verify", "--suite=all", "--tol=1e-17"]) == 1
    out, err = capsys.readouterr()
    assert err == f"verification failed: {', '.join(failed)}\n"
    assert [r["suite_name"] for r in json.loads(out) if not r["passed"]] == failed


@pytest.mark.parametrize("seed", range(10))
def test_verify_all_is_the_single_suite_reports(seed, capsys):
    # the single suites run in reverse order: no suite may lean on state another one left
    assert run(["verify", "--suite=all", f"--seed={seed}"]) == 0
    together = json.loads(capsys.readouterr().out)
    alone = []
    for name in reversed(SUITE_NAMES):
        assert run(["verify", f"--suite={name}", f"--seed={seed}"]) == 0
        alone[:0] = json.loads(capsys.readouterr().out)
    assert together == alone and [r["suite_name"] for r in together] == list(SUITE_NAMES)
    assert all(r["passed"] for r in together)


@pytest.mark.parametrize("seed,tol", [(0, None), (7, None), (9, None), (0, 1e-17), (7, 1e-17), (9, 1e-17)])
def test_verify_prints_the_stdlib_encoding_of_its_reports(seed, tol, capsys):
    reports = [run_suite(n, seed=seed, tol=tol) for n in SUITE_NAMES]
    flags = [] if tol is None else [f"--tol={tol!r}"]
    assert run(["verify", "--suite=all", f"--seed={seed}", *flags]) == (0 if tol is None else 1)
    assert capsys.readouterr().out == json.dumps(reports, sort_keys=True, indent=2) + "\n"


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
        rec = json.loads((out / entry["file"]).read_text())
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


SWEEP_BLOCKS = [
    {"A": 0.0, "B": 0.5, "lambda_re": 0.5, "z0_re": 0.5},
    {"A": -0.5, "B": 0.5, "lambda_re": -0.2, "lambda_im": -0.6, "z0_re": 0.3, "z0_im": 0.4},
    {"A": -1.0, "B": 1.0, "z0_re": -0.7},
    {"A": 0.0, "B": 0.5, "lambda_re": 0.5, "z0_re": 0.0},  # singleton, z0 = 0
    {"A": 0.0, "B": 0.5, "lambda_im": 1.0, "z0_re": 0.5},  # singleton, |lambda| = 1
    {"A": 0.9, "B": 0.5, "z0_re": 0.5},  # rejected: A >= B
    {"B": 0.5, "z0_re": 0.5},  # rejected: missing key
    {"A": 0.0, "B": 0.5, "z0_re": 1.5},  # rejected: |z0| >= 1
]


def _sweep_grid(tmp_path, blocks):
    grid = tmp_path / "grid.txt"
    grid.write_text("\n".join("".join(f"{k}={v!r}\n" for k, v in b.items()) for b in blocks))
    return grid


# a duplicate between two disks: the rows of the disk after it must not shift
_DUPLICATE_BETWEEN_DISKS = [SWEEP_BLOCKS[0], SWEEP_BLOCKS[5], SWEEP_BLOCKS[0], SWEEP_BLOCKS[3], SWEEP_BLOCKS[1]]


# the disks of SWEEP_BLOCKS stack their rows in passes of up to _PASS_ROWS, and _fields cuts a pass's Re and Im
# cells every _BLOCK_CELLS // 2 rows: at each n of _EDGE_SAMPLES such an edge falls inside a record, and at the
# last one inside the theta column too; at 16 samples and pass_rows 16 or 32, a pass holds one or two new blocks
_EDGE_SAMPLES = [_BLOCK_CELLS // 6 + 1, _BLOCK_CELLS // 4 + 1, _BLOCK_CELLS // 2 + 1, _BLOCK_CELLS + 1]


@pytest.mark.parametrize("blocks, n, pass_rows",
                         [pytest.param(SWEEP_BLOCKS, n, None, id=str(n)) for n in (3, 4, 4096, *_EDGE_SAMPLES)]
                         + [pytest.param(_DUPLICATE_BETWEEN_DISKS, n, None, id=f"duplicate-{n}")
                            for n in (4, _BLOCK_CELLS // 2 + 1)]
                         + [pytest.param(SWEEP_BLOCKS, 16, 32, id="passes-of-2"),
                            pytest.param(_DUPLICATE_BETWEEN_DISKS, 16, 16, id="duplicate-passes-of-1")])
def test_sweep_files_are_the_stdlib_encoding_of_their_records(tmp_path, monkeypatch, blocks, n, pass_rows):
    if pass_rows:
        monkeypatch.setattr(varregion.cli, "_PASS_ROWS", pass_rows)
    out = tmp_path / "out"
    assert run(["sweep", f"--grid={_sweep_grid(tmp_path, blocks)}", f"--out={out}",
                f"--theta-samples={n}"]) == 0
    index = json.loads((out / "index.json").read_text())["records"]
    unique = list({_block_hash(b): b for b in blocks}.values())  # first-seen order
    assert [e["file"] for e in index] == [f"region-{_block_hash(b)}.json" for b in unique]
    assert [e["count"] for e in index] == [blocks.count(b) for b in unique]
    for block, entry in zip(unique, index):
        ref = _reference_sweep_record(block, n)
        expected = json.dumps(ref, sort_keys=True, indent=2) + "\n"
        assert (out / entry["file"]).read_text().splitlines(keepends=True) == expected.splitlines(keepends=True)
        assert entry["status"] == ("rejected" if "rejected" in ref else "ok")
    # and nothing else: no temp file is left behind
    assert sorted(p.name for p in out.iterdir()) == sorted(["index.json", *(e["file"] for e in index)])


def test_sweep_encodes_the_theta_column_once_per_call(tmp_path, monkeypatch):
    n = 16
    thetas = boundary_curve(EvalPoint(0.5, 0.5), P05, n).thetas.tolist()
    formatted = []
    fields = varregion._output._fields
    monkeypatch.setattr(varregion._output, "_fields",
                        lambda x, *args, **kw: formatted.append(x.T.tolist()) or fields(x, *args, **kw))
    grid = _sweep_grid(tmp_path, SWEEP_BLOCKS + SWEEP_BLOCKS[:2])  # 3 disk blocks, 2 of them twice
    for call in range(2):  # a second call formats it again: nothing is cached across calls
        assert run(["sweep", f"--grid={grid}", f"--out={tmp_path / str(call)}", f"--theta-samples={n}"]) == 0
        assert sum(cols == [thetas] for cols in formatted) == 1
        # and the Re and Im columns of all the call's disk records, 3n rows, in one call
        assert [(len(cols), len(cols[0])) for cols in formatted] == [(1, n), (2, 3 * n)]
        formatted.clear()
    # a call with no disk record formats nothing: neither the theta column nor any Re and Im
    grid = _sweep_grid(tmp_path, SWEEP_BLOCKS[3:] + SWEEP_BLOCKS[3:4])  # singletons and rejected blocks
    assert run(["sweep", f"--grid={grid}", f"--out={tmp_path / 'none'}", f"--theta-samples={n}"]) == 0
    assert formatted == []
    assert len(list((tmp_path / "none").iterdir())) == 1 + 5


@pytest.mark.parametrize("pass_rows, passes", [(15, [1, 1, 1]), (32, [2, 1]), (47, [2, 1]), (48, [3])])
def test_sweep_formats_at_most_a_pass_of_rows_at_once(tmp_path, monkeypatch, pass_rows, passes):
    n = 16  # so max(1, pass_rows // n) new blocks a pass: the disks of SWEEP_BLOCKS are its first three
    monkeypatch.setattr(varregion.cli, "_PASS_ROWS", pass_rows)
    formatted = []
    fields = varregion._output._fields
    monkeypatch.setattr(varregion._output, "_fields",
                        lambda x, *args, **kw: formatted.append(x.shape) or fields(x, *args, **kw))
    grid = _sweep_grid(tmp_path, SWEEP_BLOCKS[:1] + SWEEP_BLOCKS)
    assert run(["sweep", f"--grid={grid}", f"--out={tmp_path / 'out'}", f"--theta-samples={n}"]) == 0
    # the theta column once, then the Re and Im of each pass's disks, at most max(pass_rows, n) rows
    assert formatted == [(n, 1)] + [(disks * n, 2) for disks in passes]


def test_sweep_files_are_strict_json_when_a_rejected_block_is_not_finite(tmp_path):
    blocks = [
        {"A": 0.0, "B": math.nan, "z0_re": 0.5},
        {"A": 0.0, "B": 0.5, "z0_re": math.inf},
        {"A": -math.inf, "B": 0.5, "lambda_im": -math.inf, "z0_re": 0.5},
        {"B": math.nan, "z0_re": 0.5},  # missing key
        *SWEEP_BLOCKS,
    ]
    out = tmp_path / "out"
    assert run(["sweep", f"--grid={_sweep_grid(tmp_path, blocks)}", f"--out={out}", "--theta-samples=8"]) == 0

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    records = {f.name: json.loads(f.read_text(), parse_constant=refuse) for f in out.iterdir()}
    index = records.pop("index.json")["records"]
    # the hash, the reason and the index are those of the block as read
    assert [e["file"] for e in index] == [f"region-{_block_hash(b)}.json" for b in blocks]
    for block, entry in zip(blocks[:4], index):
        rec = records[entry["file"]]
        assert entry["status"] == "rejected"
        assert rec["block"] == {k: v if math.isfinite(v) else repr(v) for k, v in block.items()}
        assert rec["reason"] == _reference_sweep_record(block, 8)["reason"]
    assert records[index[0]["file"]]["block"]["B"] == "nan"
    assert records[index[2]["file"]]["block"]["A"] == "-inf"


def test_sweep_writes_the_singleton_of_a_subnormal_b(tmp_path):
    block = {"A": -0.5, "B": -5e-324, "lambda_re": 1.0, "z0_re": 0.5}  # (A - B)/B would overflow
    out = tmp_path / "out"
    assert run(["sweep", f"--grid={_sweep_grid(tmp_path, [block])}", f"--out={out}", "--theta-samples=8"]) == 0
    text = (out / f"region-{_block_hash(block)}.json").read_text()
    # (A - B) lambda z0 L(B lambda z0), with L(x) = 1 for a subnormal x
    assert json.loads(text) == {"params": {"A": -0.5, "B": -5e-324}, "point": {"z0": [0.5, 0.0], "lambda": [1.0, 0.0]},
                                "center": [-0.25, 0.0], "radius": 0.0, "boundary": [],
                                "note": "|lambda| = 1: the region is a singleton"}
    assert json.loads((out / "index.json").read_text())["records"][0]["status"] == "ok"


def test_sweep_builds_the_unit_circle_grid_once_per_theta_count(tmp_path):
    grid = _sweep_grid(tmp_path, SWEEP_BLOCKS + SWEEP_BLOCKS[:2])  # 3 disk blocks, 2 of them twice
    varregion.region._unit_circle_grid.cache_clear()
    # the kept grid also serves a second call with the same count
    for call, (n, misses, hits) in enumerate([(16, 1, 2), (16, 1, 5), (24, 2, 7)]):
        assert run(["sweep", f"--grid={grid}", f"--out={tmp_path / str(call)}", f"--theta-samples={n}"]) == 0
        info = varregion.region._unit_circle_grid.cache_info()
        assert (info.misses, info.hits) == (misses, hits)  # a miss is a call of the uncached function


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


def test_empty_out_is_a_usage_error_under_override_out_dir(tmp_path, monkeypatch, capsys):
    # an empty path names neither stdout nor a file, also where --out is redirected: nothing is written anywhere
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OVERRIDE_OUT_DIR", str(tmp_path / "redirected"))
    assert run(["extremal", *_RULE_BASE["extremal"], "--out="]) == 2
    assert capsys.readouterr() == ("", _usage_error("extremal", "argument --out: require a non-empty --out path"))
    assert list(tmp_path.iterdir()) == []


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub" / "region.csv"  # parent is a regular file
    assert run(["region", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--out", str(out)]) == 3
    assert "I/O error" in capsys.readouterr().err


_WRITE_COMMANDS = {
    "region": ["region", "--A=0", "--B=0.5", "--lambda=0.5", "--z0=0.5", "--theta-samples=8", "--format=json"],
    "sample": ["sample", "--A=0", "--B=0.5", "--lambda=0.5", "--z0=0.5", "--mc-samples=40"],
    "verify": ["verify", "--suite=inclusion"],
    "sweep": ["sweep", "--grid=grid.txt", "--theta-samples=8"],
    "extremal": ["extremal", "--A=0", "--B=0.5", "--lambda=0.5", "--a=0,0", "--z=0.5,0"],
}


def _write_command(tmp_path, monkeypatch, command):
    """argv of a command writing to tmp_path/out, and the files it writes there."""
    monkeypatch.chdir(tmp_path)
    blocks = SWEEP_BLOCKS[:2] + SWEEP_BLOCKS[5:6]  # two disks and a rejected block
    _sweep_grid(tmp_path, blocks)
    if command == "sweep":
        return [*_WRITE_COMMANDS[command], "--out=out"], ["index.json", *(f"region-{_block_hash(b)}.json" for b in blocks)]
    return [*_WRITE_COMMANDS[command], "--out=out/result"], ["result"]


@pytest.mark.parametrize("command", _WRITE_COMMANDS)
def test_output_files_take_their_mode_from_the_umask(command, tmp_path, monkeypatch, capsys):
    argv, names = _write_command(tmp_path, monkeypatch, command)
    files = [tmp_path / "out" / name for name in names]
    old = os.umask(0o022)
    try:
        assert run(argv) == 0
        fresh = [f.read_bytes() for f in files]
        if command != "sweep":  # the --out file holds what the command prints without --out
            assert run(_WRITE_COMMANDS[command]) == 0
            assert [capsys.readouterr().out.encode()] == fresh
        assert [f.stat().st_mode & 0o777 for f in files] == [0o644] * len(files)
        # replacing a 0600 file gives a 0644 one too, with the same bytes
        for f in files:
            f.chmod(0o600)
        assert run(argv) == 0
        assert [f.stat().st_mode & 0o777 for f in files] == [0o644] * len(files)
        assert [f.read_bytes() for f in files] == fresh
    finally:
        os.umask(old)


def _fail(*args):
    # as open, a raw write and os.replace fail: naming the paths they were given, if any
    paths = [a for a in args if isinstance(a, (str, Path))]
    raise OSError(28, "No space left on device", *paths[:1], None, *paths[1:])


class _FailingWrites(io.FileIO):
    """A raw file whose every write fails, as on a full disk."""

    def write(self, data):
        _fail()


class _ShortWrites(io.FileIO):
    """A raw file that writes at most 777 bytes a call, as a raw write may."""

    def write(self, data):
        return super().write(bytes(data)[:777])


def _temp_files_through(monkeypatch, raw):
    """Have the CLI open each temp file (mode "xb") as a BufferedWriter over raw(name, mode); other opens stay."""

    def shim(file, mode="r", *args, **kwargs):
        return io.BufferedWriter(raw(file, mode)) if mode == "xb" else open(file, mode, *args, **kwargs)

    monkeypatch.setattr(varregion._output, "open", shim, raising=False)


@pytest.mark.parametrize("command", ["region", "sweep"])
@pytest.mark.parametrize("step", ["open", "write", "replace"])
def test_a_failed_write_leaves_no_trace(command, step, tmp_path, monkeypatch, capsys):
    argv, names = _write_command(tmp_path, monkeypatch, command)
    (tmp_path / "out").mkdir()
    for name in names:
        (tmp_path / "out" / name).write_text("old bytes\n")
    if step == "replace":
        monkeypatch.setattr(os, "replace", _fail)
    else:
        _temp_files_through(monkeypatch, {"open": lambda file, mode: _fail(file), "write": _FailingWrites}[step])
    assert run(argv) == 3
    # the message names the file being written, never its temp file
    first = names[0] if command == "region" else names[1]  # sweep writes its records before the index
    assert capsys.readouterr().err == f"I/O error: [Errno 28] No space left on device: 'out/{first}'\n"
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(names)
    assert all((tmp_path / "out" / name).read_text() == "old bytes\n" for name in names)


def test_a_directory_in_the_way_is_named_alike_on_every_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("taken").mkdir()
    errs = []
    for _ in range(2):
        assert run(["region", "--A=0", "--B=0.5", "--z0=0.5", "--out=taken"]) == 3
        errs.append(capsys.readouterr().err)
    assert errs == ["I/O error: [Errno 21] Is a directory: 'taken'\n"] * 2
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("command", _WRITE_COMMANDS)
def test_short_writes_still_write_every_byte(command, tmp_path, monkeypatch):
    argv, names = _write_command(tmp_path, monkeypatch, command)
    files = [tmp_path / "out" / name for name in names]
    assert run(argv) == 0
    whole = [f.read_bytes() for f in files]
    shutil.rmtree(tmp_path / "out")
    _temp_files_through(monkeypatch, _ShortWrites)
    assert run(argv) == 0
    assert [f.read_bytes() for f in files] == whole


@pytest.mark.parametrize("command", ["region", "sweep"])
def test_a_file_at_the_temp_name_is_left_alone(command, tmp_path, monkeypatch, capsys):
    argv, names = _write_command(tmp_path, monkeypatch, command)
    out = tmp_path / "out"
    out.mkdir()
    for name in names:
        (out / name).write_text("old bytes\n")
    first = names[0] if command == "region" else names[1]  # sweep writes its records before the index
    squatter = out / f"{first}.4242.000000000000.tmp"
    squatter.write_text("not ours\n")
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    assert run(argv) == 3
    assert capsys.readouterr().err == f"I/O error: [Errno 17] File exists: 'out/{first}'\n"
    monkeypatch.undo()
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, squatter.name])
    assert squatter.read_text() == "not ours\n"
    assert all((out / name).read_text() == "old bytes\n" for name in names)


def test_stdout_output(capsys):
    assert run(["region", "--A", "0", "--B", "0.5", "--lambda", "0.5",
                "--z0", "0.5,0", "--theta-samples", "4"]) == 0
    outerr = capsys.readouterr()
    assert outerr.out.startswith("theta,re,im")


def test_main_is_reentrant(tmp_path, capsys):
    """main keeps nothing between calls: calls in order and in reverse give the same results."""
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
        *([command, "--help"] for command in ("region", "extremal", "sample", "verify", "sweep")),
        ["region", *point],  # missing --z0
        ["verify", "--suite", "inclusion", "--format", "csv"],  # a flag verify does not read
        ["verify", "--suite", "bogus"],
        ["region", "--A", "0.5", "--B", "0.3", "--z0", "0.5"],  # A >= B
        [],  # no command
    ]

    def call(argv):
        code = main(argv)
        files = sorted((f.name, f.read_bytes()) for f in out.glob("*"))
        shutil.rmtree(out, ignore_errors=True)
        return code, *capsys.readouterr(), files

    first = [call(argv) for argv in argvs]
    forward = [call(argv) for argv in argvs]
    backward = [call(argv) for argv in reversed(argvs)][::-1]
    assert [r[0] for r in first] == [0] * 12 + [2] * 5
    for argv, r, f, b in zip(argvs, first, forward, backward):
        assert (f, b) == (r, r), argv


_EXTREMAL = ["extremal", "--A=0", "--B=0.5", "--lambda=0.5", "--a=0.3,0.4", "--z=0.5"]
_SAMPLE = ["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5", "--z0", "0.5", "--mc-samples", "5"]
_VALID = {
    "region": ["region", "--A", "0", "--B", "0.5", "--z0", "0.5", "--theta-samples", "4"],
    "extremal": _EXTREMAL,
    "sample": _SAMPLE,
    "verify": ["verify", "--suite", "inclusion"],
    "sweep": ["sweep", "--grid", "grid.txt", "--out", "out", "--theta-samples", "4"],
}


def _equals_form(argv):
    """``argv`` with every ``--flag value`` pair written as ``--flag=value``."""
    out, i = argv[:1], 1
    while i < len(argv):
        if "=" in argv[i]:
            out.append(argv[i])
            i += 1
        else:
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
    return out


# argv the table path takes whole, so that an edge case added to them reaches it
_REGION_EQ, _SAMPLE_EQ = _equals_form(_VALID["region"]), _equals_form(_SAMPLE)

_DISPATCH_ARGVS = [
    [], ["--help"], ["-h"], ["--he"], ["bogus"], ["bogus", "--help"], ["--", "extremal"],
    ["--A", "0", "extremal"], ["-h", "extremal"],
    *([command, "--help"] for command in _VALID),
    *([*argv, "--bogus"] for argv in _VALID.values()),
    *([*argv, "stray"] for argv in _VALID.values()),
    *_VALID.values(),
    ["region", "--A", "0", "--B", "0.5"],  # missing --z0
    ["verify"], ["sweep", "--grid", "grid.txt"], ["extremal", "--A=0"],
    [*_EXTREMAL, "--z=abc"], [*_VALID["region"], "--theta-samples", "x"], [*_SAMPLE, "--seed", "1.5"],
    ["verify", "--suite", "bogus"], [*_VALID["region"], "--format", "pdf"],
    ["verify", "--suite", "inclusion", "--format", "csv"],  # a flag verify does not read
    [*_EXTREMAL, "--"], [*_EXTREMAL, "--", "x"], ["extremal", "--", *_EXTREMAL[1:]],
    ["--", *_EXTREMAL], [*_SAMPLE[:-2], "--", "--mc-samples", "5"],
    [*_SAMPLE[:-2], "--mc", "7"], [*_EXTREMAL, "--quad", "1e-10"], [*_EXTREMAL, "--quad-t=1e-9"],
    [*_VALID["region"], "--t", "1e-9"],  # --theta-samples, the one flag of region that --t abbreviates
    ["verify", "--sui", "inclusion"], [*_VALID["sweep"][:-2], "--theta", "4"],
    [*_EXTREMAL, "--z=0.25"], [*_SAMPLE, "--mc-samples", "3", "--seed", "2", "--seed", "4"],
    [*_EXTREMAL[:3], "-h", *_EXTREMAL[3:]], ["sweep", "--grid=grid.txt", "--out=out", "extra", "-x"],
    ["extremal", "extremal", *_EXTREMAL[1:]], ["verify", "--suite=all", "--seed", "x"],
    ["sweep", "--grid=grid.txt", "--out="], [*_EXTREMAL, "--out=a=b"],
    [*_EXTREMAL, "--A", "-0.5"], [*_EXTREMAL, "--lambda", "-0.5,0.3"],
    [*_REGION_EQ, "--format=xml"], [*_REGION_EQ, "--format="],
    [*_SAMPLE_EQ, "--mc-samples=1e3"], [*_SAMPLE_EQ, "--seed=-1"], [*_EXTREMAL, "--A=nan"], [*_EXTREMAL, "--A="],
    [*_EXTREMAL, "--help=x"], [*_SAMPLE_EQ, "--seed=3", "--seed", "4"], [*_SAMPLE_EQ, "--seed=3", "--seed=4"],
    *map(_equals_form, _VALID.values()),
]


def _full_parse(argv):
    """What ``_parse_args`` stands for: a fresh full parser's ``parse_args`` on all of argv."""
    return varregion.cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=" ".join)
def test_dispatch_gives_what_the_full_parser_gives(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("grid.txt").write_text("A=0\nB=0.5\nz0_re=0.5\n\nA=0.9\nB=0.5\nz0_re=0.5\n")

    def call():
        code = main(list(argv))
        files = sorted((f.name, f.read_bytes()) for f in Path("out").glob("*"))
        shutil.rmtree("out", ignore_errors=True)
        return code, *capsys.readouterr(), files

    dispatched = call()
    with monkeypatch.context() as m:
        m.setattr(varregion.cli, "_parse_args", _full_parse)
        assert dispatched == call()
    try:
        reference = vars(_full_parse(argv))
    except SystemExit:
        capsys.readouterr()
    else:
        # repr compares a NaN value as NaN, and tells 0 from 0.0
        assert repr(sorted(vars(varregion.cli._parse_args(argv)).items())) == repr(sorted(reference.items()))


# one argv of each kind that only the full parser handles
_FALLBACKS = {
    "no command": [], "unknown command": ["bogus", *_EXTREMAL[1:]], "help": [*_EXTREMAL, "--help"],
    "abbreviation": [*_EXTREMAL, "--quad", "1e-10"], "separator": [*_EXTREMAL, "--", "--z=0.25"],
    "positional": [*_EXTREMAL, "stray"], "separate value": [*_EXTREMAL, "--A", "0.5"],
    "separate value starting with -": [*_EXTREMAL, "--A", "-0.5"],
    "failed conversion": [*_EXTREMAL, "--z=abc"], "failed choice": [*_REGION_EQ, "--format=xml"],
    "missing required flag": _EXTREMAL[:-1],
}


@pytest.fixture
def argparse_calls(monkeypatch):
    """The argv of every ``ArgumentParser.parse_known_args`` call, which ``parse_args`` makes too."""
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, args=None, namespace=None):
        calls.append(args)
        return parse_known_args(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return calls


@pytest.fixture
def parser_builds(monkeypatch):
    """One entry per ``build_parser`` call."""
    calls = []
    build = varregion.cli.build_parser

    def spy():
        calls.append(1)
        return build()

    monkeypatch.setattr(varregion.cli, "build_parser", spy)
    return calls


@pytest.mark.parametrize("command", _VALID)
def test_well_formed_long_flags_never_reach_argparse(command, argparse_calls, parser_builds):
    assert varregion.cli._parse_args(_equals_form(_VALID[command])).command == command
    assert (argparse_calls, parser_builds) == ([], [])


@pytest.mark.parametrize("kind", _FALLBACKS)
def test_every_other_argv_goes_to_the_full_parser(kind, argparse_calls, parser_builds, capsys):
    try:
        varregion.cli._parse_args(_FALLBACKS[kind])
    except SystemExit:
        pass
    capsys.readouterr()
    assert (argparse_calls[:1], parser_builds) == ([_FALLBACKS[kind]], [1])


def _lone_dash_argvs():
    """Per command and per long flag it reads: its valid argv with that flag's value a lone "--"."""
    for command, parser in build_parser().commands.items():
        for flag in (a.option_strings[0] for a in parser._actions if a.option_strings[0].startswith("--")):
            if flag != "--help":
                base = [t for t in _RULE_BASE[command] if t.partition("=")[0] != flag]
                yield [command, *base, f"{flag}=--"]


_LONE_DASH_ARGVS = list(_lone_dash_argvs())


def test_every_long_flag_has_a_lone_dash_argv():
    assert len(_LONE_DASH_ARGVS) == 31  # every flag of region 7, extremal 7, sample 10, verify 4 and sweep 3


# argparse's reading of a lone "--" value depends on the Python version; on 3.11 it is []
@pytest.mark.parametrize("argv", _LONE_DASH_ARGVS, ids=" ".join)
def test_a_lone_double_dash_value_ends_in_a_usage_error_not_a_traceback(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "grid.txt").write_text("A=0\nB=0.5\nz0_re=0.5\n")
    monkeypatch.chdir(tmp_path)  # a working directory of its own, to see what the call writes
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4, 5), (code, err)
    try:
        parsed = vars(_full_parse(argv))
    except SystemExit:
        return
    # the table path parses it as the full parser does
    assert vars(varregion.cli._parse_args(argv)) == parsed
    if [] in parsed.values():  # Python 3.11, for one: argparse leaves the flag []
        assert (code, out, err) == (2, "", f"error: no value for {argv[-1][:-3]}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["grid.txt"]


@pytest.mark.parametrize("argv", [_EXTREMAL, [*_EXTREMAL, "--seed", "1"], ["extremal", "--help"], []], ids=" ".join)
def test_main_without_argv_reads_sys_argv(argv, monkeypatch, capsys):
    expected = main(argv), *capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["varregion", *argv])
    assert (main(), *capsys.readouterr()) == expected


_STARTUP_CODE = """\
import sys
import numpy
before = set(sys.modules)
import varregion.cli
varregion.cli.build_parser()
point = ["--A=-0.5", "--B=0.5", "--lambda=0.3,0.4"]
assert varregion.cli.main(["extremal", *point, "--a=0.6,0.2", "--z=0.5,0.1"]) == 0
for fmt in ("csv", "svg"):
    assert varregion.cli.main(["region", *point, "--z0=0.5", f"--format={fmt}", "--out", sys.argv[2] + fmt]) == 0
print("added:", *sorted({"dataclasses", "hashlib", "json"} & (set(sys.modules) - before)))
import numpy.random
before = set(sys.modules)
assert varregion.cli.main(["sample", *point, "--z0=0.5", "--mc-samples=200", "--out", sys.argv[1]]) == 0
print("added:", *sorted({"dataclasses", "hashlib", "json"} & (set(sys.modules) - before)))
"""


def test_startup_and_csv_svg_extremal_output_load_no_dataclasses_hashlib_or_json(tmp_path):
    # compared against the modules loaded after numpy, so that a site hook or
    # a numpy that imports one of them itself does not fail this test; sample
    # draws from numpy.random, which loads hashlib (through secrets) itself
    src = str(Path(varregion.cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _STARTUP_CODE, str(tmp_path / "s.csv"), str(tmp_path / "region.")],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["added:", "added:"]
    assert (tmp_path / "s.csv").read_text().startswith("seed_index,re,im,verdict\n")
    assert (tmp_path / "region.svg").exists() and (tmp_path / "region.csv").exists()


_PARSE_ONLY_CODE = """\
import contextlib
import io
import sys
import varregion.cli
varregion.cli.build_parser()
point = ["--A=-0.5", "--B=0.5", "--lambda=0.3,0.4", "--z0=0.5"]
argvs = [["--help"], [], ["-h"], ["bogus", *point], ["region", "--help"], ["sample", *point, "--seed=-1"],
         ["verify", "--suite=nope"], ["region", *point, "--theta-samples=2"], ["extremal", *point, "--z=1.5"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    print("codes:", *[varregion.cli.main(argv) for argv in argvs], file=sys.__stdout__)
print("numpy:", "numpy" in sys.modules)
assert varregion.cli.main(["region", *point, "--out", sys.argv[1]]) == 0
print("numpy:", "numpy" in sys.modules)
"""


def test_parsing_alone_imports_no_numpy(tmp_path):
    # help, no command or an unknown one and argparse's usage errors end before a command runs
    src = str(Path(varregion.cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _PARSE_ONLY_CODE, str(tmp_path / "region.csv")],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["codes: 0 2 0 2 0 2 2 2 2", "numpy: False", "numpy: True"]
    assert (tmp_path / "region.csv").read_text().startswith("theta,re,im\n")


_CSV_STARTUP_CODE = """\
import sys
import numpy.random
import varregion.cli
varregion.cli.build_parser()
import varregion._output
print("tables:", varregion._output._text_tables.cache_info().currsize)
before = set(sys.modules)
point = ["--A=-0.5", "--B=0.5", "--lambda=0.3,0.4", "--z0=0.5"]
assert varregion.cli.main(["region", *point, "--out", sys.argv[1] + "region.csv"]) == 0
assert varregion.cli.main(["sample", *point, "--mc-samples=200", "--out", sys.argv[1] + "sample.csv"]) == 0
print("added:", *sorted({"hashlib", "json"} & (set(sys.modules) - before)))
print("tables:", varregion._output._text_tables.cache_info().currsize)
"""


def test_start_up_builds_no_csv_table_and_csv_output_loads_no_hashlib_or_json(tmp_path):
    # numpy.random, which sample draws from, loads hashlib itself: it is loaded first
    src = str(Path(varregion.cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _CSV_STARTUP_CODE, str(tmp_path / "out.")],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["tables: 0", "added:", "tables: 1"]
    assert (tmp_path / "out.sample.csv").read_text().startswith("seed_index,re,im,verdict\n")
    assert (tmp_path / "out.region.csv").read_text().startswith("theta,re,im\n")
