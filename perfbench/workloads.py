"""Seeded input generators for the four benchmark workloads.

Every workload is a closed loop: one client calls ``varregion.cli.main`` in the
benchmark's own process and sends the next call only after the previous one has
returned.  Calls come in rounds.  A round is a stratified design over the input
properties the command's cost depends on, with sizes that do not depend on the
seed; the seed draws everything else.  Round ``k`` of a workload is a pure
function of ``(seed, k)``: the program sees only the generated argv and grid
files.

The settings below are recorded in ``README.md``, with the reason for each.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SUITES = ("prop1", "corollary0", "unit-lambda", "rotation", "coverage", "convexity",
          "inclusion", "halfplane")

# members: one round is 8 `sample` calls, 2 of them (25%) in an ill-conditioned corner.
MEMBERS_PER_ROUND = 8
MEMBERS_CORNERS_PER_ROUND = 2
MC_SAMPLES_RANGE = (100, 20_000)  # log-uniform, stratified over the round
CORNERS = ("lambda_to_1", "B_to_0", "small_z0", "z0_to_0.95_at_B_1")

# sweep: one round is 5 `sweep` calls over fresh grid files.
SWEEP_PER_ROUND = 5
THETA_SAMPLES_RANGE = (256, 4096)  # log-uniform, stratified
BLOCKS_RANGE = (5, 25)  # uniform, stratified
DUPLICATE_SHARE_RANGE = (0.0, 0.5)
REJECT_SHARE_RANGE = (0.0, 0.3)
INVALID_KINDS = ("A>=B", "B=0", "|z0|>=1", "|lambda|>1", "missing A")

# extremal: one round is 32 `extremal` calls; 1 in 8 has a = 0, 1 in 8 is steep,
# 1 in 4 has |a| = 1; 1 in 4, each kind once, asks for the tighter --quad-tol.
EXTREMAL_PER_ROUND = 32
TIGHT_QUAD_TOL = 1e-13

MAX_LAMBDA = 0.99
GOLDEN = (5**0.5 - 1) / 2
Z0_RANGE = (0.05, 0.95)


@dataclass
class Call:
    """One CLI call: its argv, its work units and what the checker needs to know."""

    kind: str
    argv: list[str]
    items: int
    expect: dict = field(default_factory=dict)
    out: Path | None = None
    passes: int = 1  # executions in a timed run; see run.timed_run
    verdict: tuple[bytes, list[str]] | None = None  # (output digest, checker problems)


def _f(x: float) -> str:
    return repr(float(x))


def _c(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def _design(n: int, round_index: int, stride: int = 1) -> list[float]:
    """n points in [0, 1), one per stratum [k/n, (k+1)/n), the same for every seed.

    Point j sits in stratum (stride j + round_index) mod n, at an offset that
    moves between rounds along the golden-ratio sequence.  Different strides
    pair the strata of different properties in different ways, and a fixed
    pairing keeps the cost of a round the same whatever the seed.
    """
    u = (0.5 + round_index * GOLDEN) % 1.0
    return [((stride * j + round_index) % n + u) / n for j in range(n)]


def _log_scale(x: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** x


def _draw_AB(rng: random.Random) -> tuple[float, float]:
    """A < B across [-1, 1]: B = 1 one time in eight, B < 0 about half the rest."""
    if rng.random() < 0.125:
        B = 1.0
    else:
        B = 0.0
        while abs(B) < 0.01:
            B = rng.uniform(-1.0, 1.0)
    return rng.uniform(-1.0, B), B


def _draw_lambda(rng: random.Random, lo: float = 0.0, hi: float = MAX_LAMBDA) -> complex:
    """Real (either sign) or complex lambda with lo <= |lambda| <= hi."""
    m = rng.uniform(lo, hi)
    if rng.random() < 0.5:
        return complex(m if rng.random() < 0.5 else -m, 0.0)
    return cmath.rect(m, rng.uniform(-math.pi, math.pi))


def member_point(rng: random.Random, corner: str | None) -> dict:
    """Parameters (A, B, lambda, z0) over the admissible domain, or in one corner."""
    A, B = _draw_AB(rng)
    lam = _draw_lambda(rng)
    z0 = _polar(rng, *Z0_RANGE)
    if corner == "lambda_to_1":
        lam = _draw_lambda(rng, 0.98, MAX_LAMBDA)
    elif corner == "B_to_0":
        B = math.copysign(_log_scale(rng.random(), 1e-4, 1e-2), rng.uniform(-1.0, 1.0))
        A = rng.uniform(-1.0, B)
    elif corner == "small_z0":
        z0 = _polar(rng, Z0_RANGE[0], 0.06)
    elif corner == "z0_to_0.95_at_B_1":
        B = 1.0
        A = rng.uniform(-1.0, B)
        z0 = _polar(rng, 0.94, Z0_RANGE[1])
    elif corner is not None:
        raise ValueError(f"unknown corner {corner!r}")
    return {"A": A, "B": B, "lam": lam, "z0": z0}


def _round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def members_round(seed: int, round_index: int, work: Path) -> list[Call]:
    rng = _round_rng("members", seed, round_index)
    out = work / "members.csv"
    calls = []
    for j, x in enumerate(_design(MEMBERS_PER_ROUND, round_index)):
        corner = None
        if j < MEMBERS_CORNERS_PER_ROUND:
            corner = CORNERS[(MEMBERS_CORNERS_PER_ROUND * round_index + j) % len(CORNERS)]
        p = member_point(rng, corner)
        mc = round(_log_scale(x, *MC_SAMPLES_RANGE))
        sample_seed = rng.randrange(1_000_000)
        argv = ["sample", f"--A={_f(p['A'])}", f"--B={_f(p['B'])}", f"--lambda={_c(p['lam'])}",
                f"--z0={_c(p['z0'])}", f"--mc-samples={mc}", f"--seed={sample_seed}",
                f"--out={out}"]
        calls.append(Call("members", argv, mc, dict(p, mc=mc, tol=1e-9, corner=corner), out))
    rng.shuffle(calls)
    return calls


def _valid_block(rng: random.Random) -> dict[str, float]:
    p = member_point(rng, None)
    block = {"A": p["A"], "B": p["B"], "z0_re": p["z0"].real}
    if rng.random() < 0.75:
        block["z0_im"] = p["z0"].imag
    if rng.random() < 0.9:
        block["lambda_re"] = p["lam"].real
        if p["lam"].imag != 0.0:
            block["lambda_im"] = p["lam"].imag
    return block


def _invalid_block(rng: random.Random, kind: str) -> dict[str, float]:
    block = _valid_block(rng)
    if kind == "A>=B":
        block["A"] = rng.uniform(block["B"], 1.0)
    elif kind == "B=0":
        block["A"], block["B"] = rng.uniform(-1.0, -0.01), 0.0
    elif kind == "|z0|>=1":
        z0 = _polar(rng, 1.0, 1.5)
        block["z0_re"], block["z0_im"] = z0.real, z0.imag
    elif kind == "|lambda|>1":
        lam = _polar(rng, 1.01, 1.5)
        block["lambda_re"], block["lambda_im"] = lam.real, lam.imag
    elif kind == "missing A":
        del block["A"]
    else:
        raise ValueError(f"unknown invalid kind {kind!r}")
    return block


def grid_text(blocks: list[dict[str, float]]) -> str:
    return "\n".join("\n".join(f"{k}={v!r}" for k, v in b.items()) + "\n" for b in blocks)


def sweep_round(seed: int, round_index: int, work: Path) -> list[Call]:
    rng = _round_rng("sweep", seed, round_index)
    n = SWEEP_PER_ROUND
    designs = zip(_design(n, round_index, 1), _design(n, round_index, 2),
                  _design(n, round_index, 3), _design(n, round_index, 4))
    calls = []
    for j, (x_theta, x_blocks, x_dup, x_rej) in enumerate(designs):
        theta = round(_log_scale(x_theta, *THETA_SAMPLES_RANGE))
        n_blocks = round(BLOCKS_RANGE[0] + x_blocks * (BLOCKS_RANGE[1] - BLOCKS_RANGE[0]))
        n_dup = round(n_blocks * (DUPLICATE_SHARE_RANGE[0]
                                  + x_dup * (DUPLICATE_SHARE_RANGE[1] - DUPLICATE_SHARE_RANGE[0])))
        n_unique = n_blocks - n_dup
        n_rej = round(n_unique * (REJECT_SHARE_RANGE[0]
                                  + x_rej * (REJECT_SHARE_RANGE[1] - REJECT_SHARE_RANGE[0])))
        unique = [(_valid_block(rng), None) for _ in range(n_unique - n_rej)]
        unique += [(_invalid_block(rng, INVALID_KINDS[i % len(INVALID_KINDS)]),
                    INVALID_KINDS[i % len(INVALID_KINDS)]) for i in range(n_rej)]
        blocks = unique + [rng.choice(unique) for _ in range(n_dup)]
        rng.shuffle(blocks)
        grid = work / f"grid-{round_index}-{j}.txt"
        grid.write_text(grid_text([b for b, _ in blocks]))
        out = work / "sweep-out"
        argv = ["sweep", f"--grid={grid}", f"--out={out}", f"--theta-samples={theta}"]
        calls.append(Call("sweep", argv, n_blocks,
                          {"blocks": blocks, "theta_samples": theta, "tol": 1e-9}, out,
                          passes=2))
    return calls


def verify_round(seed: int, round_index: int, work: Path) -> list[Call]:
    out = work / "verify.json"
    suite_seed = seed * 1000 + round_index
    return [Call("verify", ["verify", f"--suite={name}", f"--seed={suite_seed}", f"--out={out}"],
                 1, {"suite": name, "seed": suite_seed}, out,
                 passes=1 if name in VERIFY_LONG_SUITES else 3)
            for name in SUITES]


def extremal_round(seed: int, round_index: int, work: Path) -> list[Call]:
    rng = _round_rng("extremal", seed, round_index)
    calls = []
    for j in range(EXTREMAL_PER_ROUND):
        A, B = _draw_AB(rng)
        lam = _draw_lambda(rng)
        z = _polar(rng, 0.0, 0.99)
        kind = ("a0", "steep", "unit_a", "unit_a", "inner_a", "inner_a", "inner_a", "inner_a")[j % 8]
        if kind == "a0":
            a = 0j
        elif kind == "unit_a":
            a = _polar(rng, 1.0, 1.0)
        elif kind == "inner_a":
            a = _polar(rng, 0.0, 1.0)
        else:
            # 1 + B z delta(a z, lambda) comes within about 1 - |z|^2 of zero, so
            # F' is large near z and the quadrature needs many panels.
            A, B = -1.0, rng.uniform(0.8, 1.0)
            lam = _draw_lambda(rng, 0.0, 0.1)
            z = _polar(rng, 0.95, 0.99)
            a = -(z.conjugate() / abs(z)) ** 2
        quad_tol = TIGHT_QUAD_TOL if (j + j // 8) % 4 == 0 else 1e-12  # each kind once per round
        argv = ["extremal", f"--A={_f(A)}", f"--B={_f(B)}", f"--lambda={_c(lam)}",
                f"--a={_c(a)}", f"--z={_c(z)}", f"--quad-tol={_f(quad_tol)}"]
        calls.append(Call("extremal", argv, 1,
                          {"A": A, "B": B, "lam": lam, "a": a, "z": z, "quad_tol": quad_tol,
                           "kind": kind}, passes=2))
    rng.shuffle(calls)
    return calls


ROUNDS = {
    "members": members_round,
    "sweep": sweep_round,
    "verify": verify_round,
    "extremal": extremal_round,
}

# A timed run executes round(seconds / ROUND_SECONDS) rounds, and at least
# MIN_ROUNDS, which give more than 10 calls so that call_tail_ms exists.
# ROUND_SECONDS is what one round took when the benchmark was defined (2-vCPU
# Xeon, quiet host), so a run lasts about --seconds there, and the same
# --seconds gives the same calls on every commit and every host.  A fixed call
# count keeps call_tail_ms at one percentile: with the 400x spread of call
# costs inside a round, a run that made more calls would read a higher one.
ROUND_SECONDS = {"members": 2.0, "sweep": 1.5, "verify": 2.5, "extremal": 0.18}
MIN_ROUNDS = {"members": 2, "sweep": 3, "verify": 2, "extremal": 1}

# Executions of a call in a timed run (Call.passes); its time is the lower
# median of its executions.  sweep and extremal calls run twice, so their time
# is the faster one.  members calls run once: most of their time is in calls of
# 0.1-0.5 s, and a second pass would halve the calls a run can make.  verify
# runs its three long suites (0.3-1 s each, 90% of a round) once and the five
# short ones three times.  Four suites are shorter than prop1 and three longer,
# so call_p50_ms is the fastest prop1 call of the run.  With one execution per
# call, that minimum picked up any prop1 call that the host-speed adjustment
# had made too fast; the median of three executions drops such a one.
VERIFY_LONG_SUITES = ("rotation", "coverage", "convexity")

# Rounds executed by a traced run.  Fixed, so that every count it reports is an
# exact function of the seed.
TRACE_ROUNDS = {"members": 3, "sweep": 3, "verify": 2, "extremal": 32}
