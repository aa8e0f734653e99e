"""Benchmark of the varregion command line, run in-process.

From the repository root:

    python3 perfbench/run.py --workload members --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` times the rounds of ``varregion.cli.main(argv)`` calls that
``--seconds`` stands for (about that many seconds on the host where the
benchmark was defined) and prints the end-to-end metrics.  ``--trace 1``
runs a fixed number of rounds twice, untraced and then with spans around every
public function of the five layers, and prints the per-layer metrics.  Every
call's output is checked outside the timed region; the last line of stdout is
one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from measure import (REFERENCE_S, TAIL_BEYOND, THREAD_ENV, HostClock, host_facts,
                     measure_setup, tail)

os.environ.update(THREAD_ENV)  # before numpy is first imported
os.environ.pop("OVERRIDE_OUT_DIR", None)  # the CLI would redirect every --out there

import check  # noqa: E402
import spans  # noqa: E402
from workloads import (MIN_ROUNDS, ROUND_SECONDS, ROUNDS, SUITES, TRACE_ROUNDS,  # noqa: E402
                       Call)

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
# One extremal call in this many also has F checked against mpmath.quad.
QUAD_CHECK_EVERY = 128

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
ITEM = {"members": "members classified", "sweep": "grid blocks", "verify": "suite reports",
        "extremal": "(F, F') evaluations"}


def load_varregion() -> dict[str, object]:
    """Import the five layers from the checkout's src/, or stop with a non-zero exit."""
    src = ROOT / "src"
    if not (src / "varregion" / "cli.py").is_file():
        sys.exit(f"perfbench: no varregion sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    from varregion import cli, extremal, region, sampler, verify

    return {"cli": cli, "region": region, "sampler": sampler, "extremal": extremal,
            "verify": verify}


@dataclass
class Outcome:
    seconds: float
    ok: bool
    problems: list[str]
    bytes_out: int
    samples: int = 0  # verify: the report's sample count


def run_call(cli, call: Call, n: int) -> Outcome:
    """Time one ``cli.main(argv)`` call, then check its output untimed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = perf_counter()
        try:
            rc = cli.main(call.argv)
        except Exception as exc:  # a crash is one failed call, not the end of the run
            rc = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    out = stdout.getvalue()
    if rc != 0:
        return Outcome(seconds, False, [f"{call.kind}: exit {rc}: {stderr.getvalue()[-300:]}"],
                       len(out))
    try:
        files = ([] if call.out is None else sorted(call.out.iterdir()) if call.out.is_dir()
                 else [call.out])
        output = out.encode() + b"".join(f.read_bytes() for f in files)
        digest = hashlib.sha256(output).digest()
        if call.verdict is not None and call.verdict[0] == digest:
            problems = call.verdict[1]  # a repeat execution wrote the same bytes
        elif call.kind == "members":
            problems = check.check_members(call.expect, call.out.read_text())
        elif call.kind == "sweep":
            problems = check.check_sweep(call.expect, call.out)
        elif call.kind == "verify":
            problems = check.check_verify(call.expect, call.out.read_text())
        else:
            problems = check.check_extremal(call.expect, out, n % QUAD_CHECK_EVERY == 0)
        call.verdict = (digest, problems)
        samples = (sum(r.get("samples", 0) for r in json.loads(call.out.read_text()))
                   if call.kind == "verify" else 0)
    except (OSError, ValueError) as exc:
        problems, output, samples = [f"{call.kind}: output unreadable ({exc!r})"], b"", 0
    finally:
        if call.kind == "sweep":
            shutil.rmtree(call.out, ignore_errors=True)
    return Outcome(seconds, not problems, problems, len(output), samples)


def timed_run(cli, workload: str, seed: int, seconds: float, work: Path) -> dict:
    """The rounds that ``seconds`` stands for (see workloads.ROUND_SECONDS), timed.

    Call times are adjusted to the reference host (measure.HostClock).  Each
    round runs in passes, forward then backward in turn, so that the
    executions of one call lie a pass apart; pass p runs the calls with
    ``passes > p``.  A call's time is the lower median of its executions: the
    faster of two, the middle of three.
    """
    make_round = ROUNDS[workload]
    n_rounds = max(MIN_ROUNDS[workload], round(seconds / ROUND_SECONDS[workload]))
    run_call(cli, make_round(seed, -1, work)[0], 1)  # warm-up: lazy imports, first allocations
    clock = HostClock()
    best, raw_best, executions, items, problems = [], [], [], 0, []
    failed = 0
    for r in range(n_rounds):
        calls = make_round(seed, r, work)
        times = [[] for _ in calls]
        ok = [True] * len(calls)
        for p in range(max(c.passes for c in calls)):
            order = range(len(calls)) if p % 2 == 0 else reversed(range(len(calls)))
            for i in (i for i in order if calls[i].passes > p):
                res = run_call(cli, calls[i], len(best) + i)
                times[i].append((clock.adjust(res.seconds), res.seconds))
                executions.append(res.seconds)
                if not res.ok:
                    ok[i] = False
                    failed += 1
                    problems += res.problems
        chosen = [statistics.median_low(t) for t in times]
        best += [t[0] for t in chosen]
        raw_best += [t[1] for t in chosen]
        items += sum(c.items for c, good in zip(calls, ok) if good)
    tail_s, tail_pct = tail(best)
    return {
        "rounds": n_rounds, "calls": len(best), "attempted": len(executions), "failed": failed,
        "problems": problems[:20], "timed_s": sum(executions), "items": items,
        "best_s": best, "raw_best_s": raw_best, "executions_s": executions,
        "reference_s": clock.samples,
        "items_per_s": items / sum(best), "call_p50_ms": 1e3 * statistics.median_high(best),
        "call_tail_ms": 1e3 * tail_s, "tail_percentile": tail_pct,
        "raw_items_per_s": items / sum(raw_best), "raw_call_p50_ms": 1e3 * statistics.median_high(raw_best),
        "raw_call_tail_ms": 1e3 * tail(raw_best)[0],
    }


def traced_run(mods: dict, workload: str, seed: int, work: Path) -> dict:
    """A fixed list of calls, untraced and then traced; per-layer metrics from the spans."""
    cli = mods["cli"]
    calls = [c for r in range(TRACE_ROUNDS[workload]) for c in ROUNDS[workload](seed, r, work)]
    run_call(cli, ROUNDS[workload](seed, -1, work)[0], 1)  # warm-up
    clock = HostClock()
    untraced = [run_call(cli, call, i) for i, call in enumerate(calls)]
    untraced_s = [clock.adjust(o.seconds) for o in untraced]
    for call in calls:
        call.verdict = None  # check both passes in full, so both leave the caches alike
    tracer = spans.Tracer(mods, [*mods.values(), sys.modules["varregion"]])
    outcomes, traced_s = [], []
    with tracer:
        for i, call in enumerate(calls):
            tracer.call_id = i
            outcomes.append(run_call(cli, call, i))
            traced_s.append(clock.adjust(outcomes[-1].seconds))

    def rate(results, seconds):
        return sum(c.items for c, o in zip(calls, results) if o.ok) / sum(seconds)

    suite_of_call = {i: c.expect["suite"] for i, c in enumerate(calls) if c.kind == "verify"}
    arrays = tracer.arrays()
    metrics = spans.summarize(tracer.names, arrays, SUITES, suite_of_call)
    metrics["cli.bytes_out"] = sum(o.bytes_out for o in outcomes)
    metrics["verify.samples"] = sum(o.samples for o in outcomes)
    metrics["trace.items_per_s_untraced"] = rate(untraced, untraced_s)
    metrics["trace.items_per_s_traced"] = rate(outcomes, traced_s)
    metrics["trace.overhead_frac"] = 1.0 - (metrics["trace.items_per_s_traced"]
                                            / metrics["trace.items_per_s_untraced"])
    all_outcomes = untraced + outcomes
    RUNS.mkdir(exist_ok=True)
    tracer.save(RUNS / f"{workload}.spans.npz")
    return {
        "calls": len(calls), "attempted": len(all_outcomes),
        "failed": sum(not o.ok for o in all_outcomes),
        "problems": [p for o in all_outcomes for p in o.problems][:20], "spans": len(tracer.start),
        "metrics": metrics,
    }


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name == "cli.bytes_out":
        return "bytes"
    if name.endswith("estimates_per_value"):
        return "estimates/value"
    if name.endswith("_frac"):
        return "fraction"
    if name.startswith("trace.items_per_s"):
        return "items/s"
    return "count"


def run_one(args) -> int:
    mods = load_varregion()
    facts = host_facts()
    work = RUNS / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            res = traced_run(mods, args.workload, args.seed, work)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["metrics"].items()}
            print(f"workload={args.workload} seed={args.seed} traced calls={res['calls']} "
                  f"spans={res['spans']}")
        else:
            setup = measure_setup(ROOT, SETUP_REPEATS)
            res = timed_run(mods["cli"], args.workload, args.seed, args.seconds, work)
            res["setup_s"] = statistics.median(setup["adjusted_s"])
            res["raw_setup_s"] = statistics.median(setup["raw_s"])
            res["setup_runs"] = setup
            res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
            print(f"workload={args.workload} seed={args.seed} rounds={res['rounds']} "
                  f"calls={res['calls']} timed_s={res['timed_s']:.3f} item={ITEM[args.workload]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  call_tail_ms is p{res['tail_percentile']:.2f} of {res['calls']} calls "
              f"({TAIL_BEYOND} beyond it)")
        print(f"  setup_s is the median of {SETUP_REPEATS} fresh interpreters, each adjusted "
              f"by the reference starts around it (unadjusted median "
              f"{res['raw_setup_s']:.6g} s)")
        speed = statistics.median(res["reference_s"]) / REFERENCE_S
        print(f"  unadjusted (host ran at 1/{speed:.3f} of reference speed): "
              f"items_per_s = {res['raw_items_per_s']:.6g} items/s, "
              f"call_p50_ms = {res['raw_call_p50_ms']:.6g} ms, "
              f"call_tail_ms = {res['raw_call_tail_ms']:.6g} ms")
    print(f"  failed_frac = {res['failed'] / res['attempted']:.6g} fraction "
          f"({res['failed']} of {res['attempted']} executed calls)")
    for p in res["problems"]:
        print(f"  FAILED: {p}")
    print(f"host: {json.dumps(facts, sort_keys=True)}")
    RUNS.mkdir(exist_ok=True)
    record = dict(res, workload=args.workload, seed=args.seed, trace=args.trace, host=facts)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak_rss_mb is the workload's own."""
    results = {}
    for workload in ROUNDS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*ROUNDS, "all"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
