"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np

from varregion import (
    EvalPoint,
    ExtremalSpec,
    JanowskiParams,
    Verdict,
    boundary_point,
    check_convexity,
    check_coverage,
    check_halfplane_univalence,
    check_rotation,
    check_strict_inclusion,
    closed_form_a0,
    extremal_fprime,
    extremal_value,
    omega_eval,
    pullback_modulus,
    special_curvature,
    variability_disk,
)
from varregion.cli import main as cli_main
from varregion.region import VERDICTS, classify, log_fprime
from varregion.sampler import constant_inners, sample_members
from varregion.verify import DEFAULT_PARAM_SETS, DEFAULT_Z0S

P05 = JanowskiParams(0.0, 0.5)
PT = EvalPoint(0.5, 0.5)


def _criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{tag} criterion {num:2d}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc} {suffix}"


def test_criterion_01_center_radius_exactness():
    d = variability_disk(PT, P05)
    err = max(abs(d.center - 1.1), abs(d.radius - 0.1))
    ok = err < 1e-12
    for params in DEFAULT_PARAM_SETS:
        for z0 in DEFAULT_Z0S:
            d0 = variability_disk(EvalPoint(z0, 0.0), params)
            ok = ok and d0.center == 1.0 and d0.radius == abs(params.B) * abs(z0) ** 2
    _criterion(1, "variability disk (1.1, 0.1) within 1e-12; lambda=0 exact", ok,
               f"err={err:.2e}")


def test_criterion_02_boundary_extremal_agreement():
    worst = 0.0
    th = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    for params in DEFAULT_PARAM_SETS:
        for z0, lam in ((0.5, 0.5), (0.3 + 0.4j, 0.3)):
            point = EvalPoint(z0, lam)
            for t in th:
                spec = ExtremalSpec(np.exp(1j * t), lam, params)
                got = np.log(extremal_fprime(spec, z0))
                want = boundary_point(t, point, params)
                worst = max(worst, abs(got - want))
    _criterion(2, "boundary curve equals log F' of extremal family (256 theta, 5 sets)",
               worst < 1e-12, f"max|diff|={worst:.2e}")


def test_criterion_03_quadrature_vs_closed_form():
    worst = 0.0
    lams = (0.1, 0.3, 0.5, 0.8)
    Bs = (0.25, 0.5, 0.75, 1.0)
    zs = (0.5, -0.4, 0.3 + 0.4j, -0.2 - 0.5j)
    for A in (0.0, -0.5):
        for lam in lams:
            for B in Bs:
                params = JanowskiParams(A, B)
                spec = ExtremalSpec(0.0, lam, params)
                for z in zs:
                    diff = abs(extremal_value(spec, z, abs_tol=1e-13) - closed_form_a0(lam, params, z))
                    worst = max(worst, diff)
    _criterion(3, "quadrature matches a=0 closed form on 4x4x4 grid, A=0 and A!=0",
               worst < 1e-10, f"max|diff|={worst:.2e}")


def test_criterion_04_second_derivative_law():
    rng = np.random.default_rng(2024)
    h, worst = 1e-5, 0.0
    for _ in range(100):
        B = rng.choice([-0.6, -0.25, 0.4, 0.8, 1.0])
        A = rng.uniform(-1.0, B - 0.05)
        spec = ExtremalSpec(
            rng.uniform(0, 1) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
            rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
            JanowskiParams(A, B),
        )
        fd = (extremal_fprime(spec, h) - extremal_fprime(spec, -h)) / (2 * h)
        worst = max(worst, abs(fd - spec.lam * (A - B)))
    _criterion(4, "F''(0) = lambda (A - B) for 100 random specs", worst < 1e-5,
               f"max|diff|={worst:.2e}")


def test_criterion_05_containment_of_random_members():
    t0 = time.time()
    outside = 0
    point = EvalPoint(0.5, 0.5)
    omega = omega_eval(sample_members(0, 10_000), 0.5, 0.5)
    for params in DEFAULT_PARAM_SETS:
        _, status = classify(log_fprime(omega, params), point, params, 1e-9)
        outside += int(np.count_nonzero(status == VERDICTS.index(Verdict.OUTSIDE)))
    elapsed = time.time() - t0
    _criterion(5, "10^4 members x 5 sets never Outside at tol 1e-9 in < 60 s",
               outside == 0 and elapsed < 60.0,
               f"outside={outside}, {elapsed:.1f}s")


def test_criterion_06_sharpness_of_extremal_members():
    worst = 0.0
    theta = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    omega = omega_eval(constant_inners(np.exp(1j * theta)), 0.5, 0.5)
    for params in DEFAULT_PARAM_SETS:
        w = log_fprime(omega, params)
        worst = max(worst, float(np.max(np.abs(pullback_modulus(w, PT, params) - 0.5))))
    _criterion(6, "extremal members hit |pullback| = |z0| within 1e-10 (64 theta)",
               worst < 1e-10, f"max|diff|={worst:.2e}")


def test_criterion_07_coverage_hausdorff():
    r = check_coverage([(P05, PT)], grid_n=256, tol=1e-8)
    _criterion(7, "bidirectional Hausdorff of member vs region grids < 1e-8 at 256x256",
               r["passed"], f"h={r['max_violation']:.2e}")


def test_criterion_08_rotation_equivariance():
    r = check_rotation(n_rotations=16, n_samples=200, tol=1e-9, seed=0)
    _criterion(8, "zero verdict mismatches over 16 rotations x 200 points per set",
               r["passed"] and r["max_violation"] == 0.0,
               f"mismatch_violation={r['max_violation']}")


def test_criterion_09_convexity_and_jordan():
    r = check_convexity(tol=1e-10)
    _criterion(9, "all computed boundary curves convex and simple at tol 1e-10",
               r["passed"], f"max_violation={r['max_violation']:.2e}")


def test_criterion_10_strict_inclusion():
    r = check_strict_inclusion()
    found_all = r["passed"] and all(
        d["distance_outside"] > 0 for d in r["extra"]["witnesses_found"]
    )
    gap = 2.0 / 3.0 - float(np.real(special_curvature(P05, 0.99)))
    _criterion(10, "curvature witness outside Janowski disk for all B<1 pairs; "
               "(0,0.5) gap at z=0.99 is >= 0.3",
               found_all and gap >= 0.3, f"gap={gap:.4f}")


def test_criterion_11_halfplane_univalence():
    r = check_halfplane_univalence(Bs=(0.25, 0.5, 1.0), n_samples=80, tol=1e-9, seed=0)
    lo = min(r["extra"]["min_re_fprime"].values())
    _criterion(11, "A=0, B in {0.25,0.5,1}: min sampled Re f' > 1/2 - 1e-9",
               r["passed"] and lo > 0.5 - 1e-9, f"min Re f'={lo:.9f}")


def test_criterion_12_sample_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sample", "--A", "0", "--B", "0.5", "--lambda", "0.5",
            "--z0", "0.5,0", "--mc-samples", "1000", "--seed", "17"]
    code_a = cli_main(argv + ["--out", str(a)])
    code_b = cli_main(argv + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    _criterion(12, "cmd_sample with fixed seed is byte-identical across runs",
               code_a == 0 and code_b == 0 and identical)
