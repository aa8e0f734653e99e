"""Tests of the benchmark's own arithmetic, failure accounting and output checker.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from measure import SETUP_REFERENCE_S, measure_setup, tail  # noqa: E402
from workloads import Call  # noqa: E402


def _spans(rows):
    """rows: (name_id, parent, start, end) tuples."""
    a = np.array(rows, dtype=float)
    return {
        "name_id": a[:, 0].astype(np.int32), "parent": a[:, 1].astype(np.int32),
        "start": a[:, 2], "end": a[:, 3],
        "call": np.zeros(len(rows), dtype=np.int32), "points": np.zeros(len(rows), dtype=np.int64),
    }


def test_self_time_of_nested_spans():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8]
    s = _spans([(0, -1, 0, 10), (1, 0, 1, 4), (2, 0, 5, 9), (3, 2, 6, 8)])
    own = spans.self_times(s["parent"], s["start"], s["end"])
    assert own.tolist() == [3.0, 3.0, 2.0, 2.0]
    assert own.sum() == 10.0  # self times partition the root span


def test_layer_self_time_sums_over_functions_of_the_layer():
    names = ["cli.main", "region.contains", "region.mobius_delta", "sampler.sample_inner"]
    s = _spans([(0, -1, 0, 10), (1, 0, 1, 4), (2, 1, 2, 3), (3, 0, 5, 9)])
    m = spans.summarize(names, s)
    assert m["cli.self_s"] == 3.0
    assert m["region.self_s"] == 3.0  # contains 2 + mobius_delta 1
    assert m["region.contains.self_s"] == 2.0
    assert m["region.contains.calls"] == 1
    assert m["sampler.self_s"] == 4.0
    assert m["extremal.self_s"] == 0.0


def test_tail_is_highest_percentile_with_ten_calls_beyond():
    times = [float(t) for t in range(1, 101)]
    value, pct = tail(times)
    assert value == 90.0 and pct == 90.0
    assert sum(t > value for t in times) == 10
    value, pct = tail([5.0] * 3 + [1.0] * 8)  # 11 calls: the smallest has 10 beyond it
    assert value == 1.0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail([1.0] * 10)


@pytest.fixture(scope="module")
def mods():
    return run.load_varregion()


def test_setup_starts_are_scaled_by_the_reference_starts_around_them():
    setup = measure_setup(BENCH.parent, 2)
    raw, refs = setup["raw_s"], setup["reference_s"]
    assert len(raw) == 2 and len(refs) == 3
    for i, adjusted in enumerate(setup["adjusted_s"]):
        mean_ref = (refs[i] + refs[i + 1]) / 2
        assert adjusted == pytest.approx(raw[i] * SETUP_REFERENCE_S / mean_ref)


def test_nonzero_exit_counts_as_failed(mods, tmp_path):
    call = Call("members", ["sample", "--A=0", "--B=0", "--z0=0.5,0", "--mc-samples=3",
                            f"--out={tmp_path / 'x.csv'}"], 3, {}, tmp_path / "x.csv")
    res = run.run_call(mods["cli"], call, 0)
    assert not res.ok
    assert "exit 2" in res.problems[0]


def _members_call(tmp_path, A=0.0, B=0.5, lam=0.5 + 0.2j, z0=0.5 - 0.1j, mc=200):
    out = tmp_path / "m.csv"
    argv = ["sample", f"--A={A!r}", f"--B={B!r}", f"--lambda={lam.real!r},{lam.imag!r}",
            f"--z0={z0.real!r},{z0.imag!r}", f"--mc-samples={mc}", f"--out={out}"]
    return Call("members", argv, mc, {"A": A, "B": B, "lam": lam, "z0": z0, "mc": mc,
                                      "tol": 1e-9}, out)


def test_members_checker_accepts_the_program_and_flags_a_value_pushed_outside(mods, tmp_path):
    call = _members_call(tmp_path)
    assert run.run_call(mods["cli"], call, 0).ok
    text = call.out.read_text()
    assert check.check_members(call.expect, text) == []

    # push row 5 to 1e-6 outside the disk D(c, r) that log f'(z0) is the log-image of
    A, B, lam, z0 = 0.0, 0.5, 0.5 + 0.2j, 0.5 - 0.1j
    c, r = check.pre_log_disk(B, z0, lam)
    u = c + (r + 1e-6) * cmath.exp(0.7j)
    w = (A - B) / B * cmath.log(u)
    lines = text.splitlines()
    lines[6] = f"5,{w.real!r},{w.imag!r},Interior"
    problems = check.check_members(call.expect, "\n".join(lines) + "\n")
    assert any("outside the disk" in p for p in problems)


def test_members_checker_flags_rows_and_verdicts(mods, tmp_path):
    call = _members_call(tmp_path)
    run.run_call(mods["cli"], call, 0)
    lines = call.out.read_text().splitlines()
    assert check.check_members(call.expect, "\n".join(lines[:-1]) + "\n")  # a row missing
    swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
    assert check.check_members(call.expect, "\n".join(swapped) + "\n")  # seed indices out of order
    outside = lines[:1] + [lines[1].rsplit(",", 1)[0] + ",Outside"] + lines[2:]
    assert check.check_members(call.expect, "\n".join(outside) + "\n")


def test_verify_checker_flags_fewer_samples(mods, tmp_path):
    out = tmp_path / "v.json"
    call = Call("verify", ["verify", "--suite=unit-lambda", f"--out={out}"], 1,
                {"suite": "unit-lambda"}, out)
    res = run.run_call(mods["cli"], call, 0)
    assert res.ok and res.samples == check.VERIFY_COUNTS["unit-lambda"][0]
    reports = json.loads(out.read_text())
    reports[0]["samples"] -= 1
    assert any("samples" in p for p in check.check_verify(call.expect, json.dumps(reports)))
    reports[0]["samples"] += 1
    reports[0]["passed"] = False
    assert check.check_verify(call.expect, json.dumps(reports))


def test_sweep_checker_flags_corrupted_records(mods, tmp_path):
    valid = {"A": -0.5, "B": 0.5, "z0_re": 0.3, "z0_im": 0.4, "lambda_re": 0.2, "lambda_im": -0.3}
    invalid = {"A": 0.5, "B": 0.5, "z0_re": 0.3}
    blocks = [(valid, None), (invalid, "A>=B"), (valid, None)]
    grid = tmp_path / "grid.txt"
    grid.write_text(workloads.grid_text([b for b, _ in blocks]))
    out = tmp_path / "sweep"
    expect = {"blocks": blocks, "theta_samples": 64, "tol": 1e-9}
    assert mods["cli"].main(["sweep", f"--grid={grid}", f"--out={out}",
                             "--theta-samples=64"]) == 0
    assert check.check_sweep(expect, out) == []

    index = json.loads((out / "index.json").read_text())["records"]
    path = out / index[0]["file"]
    rec = json.loads(path.read_text())
    rec["radius"] += 1e-6
    rec["boundary"][3][1] += 1e-6
    path.write_text(json.dumps(rec))
    problems = check.check_sweep(expect, out)
    assert any("radius" in p for p in problems)
    assert any("off the circle" in p for p in problems)
    # the generator's invalid block must be the one rejected
    assert check.check_sweep(dict(expect, blocks=[(valid, None), (invalid, None)]), out)


def test_extremal_checker(mods):
    expect = {"A": -0.5, "B": 0.5, "lam": 0.3 + 0.2j, "a": 0.6 - 0.8j, "z": 0.7 + 0.2j,
              "quad_tol": 1e-12}
    argv = ["extremal", "--A=-0.5", "--B=0.5", "--lambda=0.3,0.2", "--a=0.6,-0.8", "--z=0.7,0.2"]
    call = Call("extremal", argv, 1, expect)
    assert run.run_call(mods["cli"], call, 0).ok  # n = 0 also runs the mpmath.quad check
    fp, value = check.extremal_reference(expect, quadrature=True)
    good = f"{value.real:.15g} {value.imag:.15g}\n{fp.real:.15g} {fp.imag:.15g}\n"
    assert check.check_extremal(expect, good, quadrature=True) == []
    bad_fp = f"{value.real:.15g} {value.imag:.15g}\n{fp.real * (1 + 1e-9):.15g} {fp.imag:.15g}\n"
    assert check.check_extremal(expect, bad_fp)
    bad_f = f"{value.real + 1e-10:.15g} {value.imag:.15g}\n{fp.real:.15g} {fp.imag:.15g}\n"
    assert check.check_extremal(expect, bad_f, quadrature=True)


def test_extremal_a0_closed_form_matches_quadrature():
    expect = {"A": 0.3, "B": 0.7, "lam": -0.4 + 0.5j, "a": 0j, "z": 0.2 - 0.6j, "quad_tol": 1e-12}
    _, closed = check.extremal_reference(expect, quadrature=False)
    _, quad = check.extremal_reference(dict(expect, a=1e-300 + 0j), quadrature=True)
    assert abs(closed - quad) < 1e-14


def test_generators_are_pure_functions_of_the_seed(tmp_path):
    for name, make_round in workloads.ROUNDS.items():
        def inputs(seed):
            calls = make_round(seed, 2, tmp_path)
            return [(c.argv, repr(c.expect)) for c in calls], sorted(c.items for c in calls)

        a, b, c = inputs(7), inputs(7), inputs(8)
        assert a == b, name
        assert a[0] != c[0], name
        assert a[1] == c[1], name  # the round's sizes do not depend on the seed


def test_tracer_nests_spans_and_restores_functions(mods, tmp_path):
    region = mods["region"]
    original = region.boundary_curve
    tracer = spans.Tracer(mods, [*mods.values(), sys.modules["varregion"]])
    with tracer:
        assert mods["cli"].boundary_curve is not original
        tracer.call_id = 0
        mods["cli"].main(["region", "--A=0", "--B=0.5", "--lambda=0.5", "--z0=0.5,0",
                          "--theta-samples=32", f"--out={tmp_path / 'r.csv'}"])
    assert region.boundary_curve is original and mods["cli"].boundary_curve is original
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "cli.main" and tracer.parent[0] == -1
    i = names.index("region.boundary_curve")
    assert names[tracer.parent[i]] == "cli.region_record"
    m = spans.summarize(tracer.names, tracer.arrays())
    assert m["region.boundary_points"] == 32
    assert math.isclose(sum(m[f"{layer}.self_s"] for layer in spans.LAYERS),
                        tracer.end[0] - tracer.start[0], rel_tol=1e-9)
