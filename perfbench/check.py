"""Independent checks of the CLI's outputs.

Nothing here imports ``varregion``: every expected value is recomputed from the
closed forms with mpmath (30 digits) or, for whole columns of output, with numpy
in a form that is well conditioned over the generated domain.  Each check
returns a list of problems; an empty list means the output is correct.

Tolerances come from what the program documents: ``--tol`` (membership slack,
default 1e-9), ``--quad-tol`` (quadrature), the 15 significant digits of the
``extremal`` output, and the counts each verification suite reported at the
commit that defined this benchmark.  None of them is fitted to the outputs.

Membership is checked in the variable zeta = omega(z0)/z0.  A value w of
log f'(z0) gives zeta = expm1(w/e)/(B z0) with e = (A - B)/B, and w is attainable
iff zeta lies in the disk delta({|p| <= |z0|}, lambda), where
delta(p, lambda) = (p + lambda)/(1 + conj(lambda) p).  By the rotation identity
delta(p, lambda) = u delta(p/u, |lambda|) with u = lambda/|lambda|, that disk
has center lambda (1 - rho^2)/(1 - |lambda|^2 rho^2) and radius
rho (1 - |lambda|^2)/(1 - |lambda|^2 rho^2), rho = |z0|.  The program's slack
is |delta^{-1}(zeta, lambda)| - rho; a slack of ``tol`` moves zeta by at most
tol (1 - |lambda|^2)/(1 - |lambda| rho)^2, which is the tolerance used here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np

# (samples, parameter_sets) of every verification suite, any seed.
VERIFY_COUNTS = {
    "prop1": (3200, 5),
    "corollary0": (960, 5),
    "unit-lambda": (160, 5),
    "rotation": (16000, 5),
    "coverage": (6, 6),
    "convexity": (80, 5),
    "inclusion": (4, 4),
    "halfplane": (3, 3),
}

EPS = 2.0**-52
# A component printed with 15 significant digits is within 0.5e-14 of itself,
# so a printed complex number is within 1e-14 of its modulus.
PRINT_REL = 1e-14
DPS = 30


def zeta_disk(z0: complex, lam: complex, tol: float) -> tuple[complex, float, float]:
    """(center, radius, tolerance) of the attainable zeta disk, in mpmath."""
    with mpmath.workdps(DPS):
        rho2 = mpmath.mpf(abs(z0)) ** 2
        s2 = mpmath.mpf(abs(lam)) ** 2
        den = 1 - s2 * rho2
        center = mpmath.mpc(lam) * (1 - rho2) / den
        radius = mpmath.sqrt(rho2) * (1 - s2) / den
        slack_scale = (1 - s2) / (1 - mpmath.sqrt(s2 * rho2)) ** 2
        return complex(center), float(radius), float(tol * slack_scale)


def pre_log_disk(B: float, z0: complex, lam: complex) -> tuple[complex, float]:
    """Center and radius of the disk 1 + B z0 zeta that the region is the log-image of."""
    center, radius, _ = zeta_disk(z0, lam, 0.0)
    return 1 + B * z0 * center, abs(B) * abs(z0) * radius


def zeta_of(w: np.ndarray, A: float, B: float, z0: complex) -> np.ndarray:
    """zeta = expm1(w/e)/(B z0) for an array of log f'(z0) values."""
    return np.expm1(w * (B / (A - B))) / (B * z0)


def _zeta_of_mp(w: complex, A: float, B: float, z0: complex):
    return mpmath.expm1(mpmath.mpc(w) * B / (mpmath.mpf(A) - B)) / (B * mpmath.mpc(z0))


def _spot_rows(n: int, k: int = 4) -> list[int]:
    return sorted({round(i * (n - 1) / max(k - 1, 1)) for i in range(k)}) if n else []


def check_members(expect: dict, csv_text: str) -> list[str]:
    """`sample` CSV: header, rows 0..mc-1 in order, no Outside, every value attainable."""
    problems: list[str] = []
    lines = csv_text.splitlines()
    if not lines or lines[0] != "seed_index,re,im,verdict":
        return ["members: missing or wrong CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expect["mc"]:
        problems.append(f"members: {len(rows)} rows, expected {expect['mc']}")
    try:
        index = [int(r[0]) for r in rows]
        w = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        verdicts = {r[3] for r in rows}
    except (IndexError, ValueError) as exc:
        return problems + [f"members: malformed row ({exc})"]
    if index != list(range(len(rows))):
        problems.append("members: seed indices are not 0..n-1 in order")
    if not verdicts <= {"Interior", "Boundary"}:
        problems.append(f"members: verdicts {sorted(verdicts)} include other than Interior/Boundary")
    A, B, z0, lam = expect["A"], expect["B"], expect["z0"], expect["lam"]
    center, radius, tol = zeta_disk(z0, lam, expect["tol"])
    excess = np.abs(zeta_of(w, A, B, z0) - center) - radius
    bad = np.flatnonzero(~(excess <= tol))
    if bad.size:
        i = int(bad[0])
        problems.append(f"members: {bad.size} value(s) outside the disk, first row {i} "
                        f"by {excess[i]:.3e} > {tol:.3e}")
    with mpmath.workdps(DPS):
        for i in _spot_rows(len(rows)):
            d = abs(_zeta_of_mp(w[i], A, B, z0) - mpmath.mpc(center)) - radius
            if d > tol:
                problems.append(f"members: row {i} outside the disk by {float(d):.3e} (mpmath)")
    return problems


def check_region_record(rec: dict, block: dict, theta_samples: int, tol: float) -> list[str]:
    """One `sweep` record against the closed-form disk and its boundary circle."""
    A, B = block["A"], block["B"]
    z0 = complex(block["z0_re"], block.get("z0_im", 0.0))
    lam = complex(block.get("lambda_re", 0.0), block.get("lambda_im", 0.0))
    problems = []
    if rec.get("params") != {"A": A, "B": B}:
        problems.append(f"params {rec.get('params')} != block")
    if rec["point"]["z0"] != [z0.real, z0.imag] or rec["point"]["lambda"] != [lam.real, lam.imag]:
        problems.append("point does not match the block")
    center, radius = pre_log_disk(B, z0, lam)
    if abs(complex(*rec["center"]) - center) > tol:
        problems.append(f"center {rec['center']} != closed form {center}")
    if abs(rec["radius"] - radius) > tol:
        problems.append(f"radius {rec['radius']} != closed form {radius}")
    boundary = np.asarray(rec["boundary"], dtype=float).reshape(-1, 3)
    if len(boundary) != theta_samples:
        return problems + [f"boundary has {len(boundary)} samples, expected {theta_samples}"]
    k = np.arange(1, theta_samples + 1)
    if np.max(np.abs(boundary[:, 0] - np.pi * (2.0 * k / theta_samples - 1.0))) > tol:
        problems.append("boundary thetas are not -pi + 2 pi k/n, k = 1..n")
    zc, zr, ztol = zeta_disk(z0, lam, tol)
    w = boundary[:, 1] + 1j * boundary[:, 2]
    off = np.abs(np.abs(zeta_of(w, A, B, z0) - zc) - zr)
    bad = np.flatnonzero(~(off <= ztol))
    if bad.size:
        problems.append(f"{bad.size} boundary point(s) off the circle, first {int(bad[0])} "
                        f"by {off[bad[0]]:.3e} > {ztol:.3e}")
    with mpmath.workdps(DPS):
        for i in _spot_rows(len(w)):
            d = abs(abs(_zeta_of_mp(w[i], A, B, z0) - mpmath.mpc(zc)) - zr)
            if d > ztol:
                problems.append(f"boundary point {i} off the circle by {float(d):.3e} (mpmath)")
    return problems


def check_sweep(expect: dict, out_dir: Path) -> list[str]:
    """`sweep` output: one record per unique block, exactly the invalid ones rejected."""
    expected: dict[tuple, list] = {}
    for block, invalid_kind in expect["blocks"]:
        key = tuple(sorted(block.items()))
        if key in expected:
            expected[key][2] += 1
        else:
            expected[key] = [block, invalid_kind, 1]
    try:
        index = json.loads((out_dir / "index.json").read_text())["records"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"sweep: unreadable index.json ({exc})"]
    if len(index) != len(expected):
        return [f"sweep: {len(index)} records, expected {len(expected)} unique blocks"]
    problems = []
    for n, (entry, (block, invalid_kind, count)) in enumerate(zip(index, expected.values())):
        where = f"sweep record {n}"
        if entry.get("count") != count:
            problems.append(f"{where}: count {entry.get('count')}, expected {count}")
        want = "rejected" if invalid_kind else "ok"
        if entry.get("status") != want:
            problems.append(f"{where}: status {entry.get('status')}, expected {want} ({invalid_kind})")
            continue
        try:
            rec = json.loads((out_dir / entry["file"]).read_text())
            if invalid_kind:
                if not rec.get("rejected") or rec.get("block") != block:
                    problems.append(f"{where}: rejected record does not carry the block")
            else:
                problems += [f"{where}: {p}" for p in
                             check_region_record(rec, block, expect["theta_samples"], expect["tol"])]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{where}: unreadable record ({exc!r})")
    return problems


def check_verify(expect: dict, json_text: str) -> list[str]:
    """One suite report: passed, within tolerance, and as many samples as this commit checks."""
    try:
        reports = json.loads(json_text)
        (rep,) = reports
        name = rep["suite_name"]
        counts = (rep["samples"], rep["parameter_sets"])
        ok = rep["passed"] is True and rep["max_violation"] <= rep["tolerance"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify: malformed report ({exc!r})"]
    problems = []
    if name != expect["suite"]:
        problems.append(f"verify: report for {name!r}, expected {expect['suite']!r}")
    if not ok:
        problems.append(f"verify {name}: did not pass")
    if counts != VERIFY_COUNTS.get(expect["suite"]):
        problems.append(f"verify {name}: (samples, parameter_sets) = {counts}, "
                        f"expected {VERIFY_COUNTS.get(expect['suite'])}")
    return problems


def _fprime_mp(A, B, lam, a, zeta):
    x = mpmath.mpc(a) * zeta
    lamm = mpmath.mpc(lam)
    d = (x + lamm) / (1 + mpmath.conj(lamm) * x)
    return mpmath.exp((mpmath.mpf(A) - B) / B * mpmath.log(1 + B * zeta * d))


def extremal_reference(expect: dict, quadrature: bool) -> tuple[complex, complex | None]:
    """(F'(z), F(z)) in mpmath; F from the a = 0 closed form, or mpmath.quad if asked."""
    A, B, lam, a, z = expect["A"], expect["B"], expect["lam"], expect["a"], expect["z"]
    with mpmath.workdps(DPS):
        zm = mpmath.mpc(z)
        fprime = complex(_fprime_mp(A, B, lam, a, zm))
        if a == 0 and lam == 0:
            return fprime, z
        if a == 0:
            blam = B * mpmath.mpc(lam)
            if A == 0.0:
                value = mpmath.log(1 + blam * zm) / blam
            else:
                value = (mpmath.exp(A / mpmath.mpf(B) * mpmath.log(1 + blam * zm)) - 1) / (
                    mpmath.mpc(lam) * A)
            return fprime, complex(value)
        if not quadrature:
            return fprime, None
        value = mpmath.quad(lambda t: _fprime_mp(A, B, lam, a, t * zm) * zm,
                            [0, 0.5, 0.75, 0.9, 0.97, 1])
        return fprime, complex(value)


def check_extremal(expect: dict, stdout: str, quadrature: bool = False) -> list[str]:
    """`extremal` stdout: F(z) then F'(z), each as "re im"."""
    try:
        (f_re, f_im), (d_re, d_im) = [map(float, line.split()) for line in stdout.splitlines()]
    except ValueError as exc:
        return [f"extremal: malformed output {stdout!r} ({exc})"]
    value, deriv = complex(f_re, f_im), complex(d_re, d_im)
    fprime, ref = extremal_reference(expect, quadrature)
    problems = []
    # float64 evaluation of exp(e log x), x = 1 + B z delta, loses about |e|/|x| ulps
    A, B, lam, a, z = expect["A"], expect["B"], expect["lam"], expect["a"], expect["z"]
    x = 1 + B * z * (a * z + lam) / (1 + lam.conjugate() * a * z)
    cond = 1.0 + abs((A - B) / B) / abs(x)
    tol_d = (PRINT_REL + 16 * EPS * cond) * abs(fprime)
    if not abs(deriv - fprime) <= tol_d:
        problems.append(f"extremal: F' = {deriv} != {fprime} (tol {tol_d:.3e})")
    if ref is not None:
        tol_f = expect["quad_tol"] + PRINT_REL * abs(ref)
        if not abs(value - ref) <= tol_f:
            problems.append(f"extremal: F = {value} != {ref} (tol {tol_f:.3e})")
    if not math.isfinite(abs(value)):
        problems.append("extremal: F is not finite")
    return problems
