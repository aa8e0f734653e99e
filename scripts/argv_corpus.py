#!/usr/bin/env python3
"""A fixed argv corpus for checking that the CLI's bytes do not change.

The corpus (``argv_corpus.json`` next to this script) holds the four benchmark
workloads' argvs at fixed seeds, drawn through ``perfbench/workloads.py``'s
round functions together with their sweep grids; the contract argvs, which
reach each exit code, output format, ``--out`` file and flag form of the five
commands; and the singleton (``|lambda| = 1``, ``z0 = 0``) and small- and
subnormal-``B`` corners.  Paths in it are relative to the directory an argv
runs in.

``run`` executes each argv as ``python -X dev -m varregion.cli ...`` in a fresh
temporary directory holding the input files it names, under a fixed
``PYTHONHASHSEED`` and umask 022, and writes one line per argv: the exit code,
the sha256 of stdout and of stderr, and the mode and sha256 of every file left.
Argvs run in parallel, one per CPU.  After writing the lines, ``run`` exits 1
and names each argv that crashed or warned: a traceback or a
``<Name>Warning: `` line in its stderr, or an exit code outside the CLI's 0-5.
``diff`` compares two such runs argv by argv, so an argv added to the corpus
shows as one added line, and exits 1 when a line differs or an argv is in one
run only.  ``build`` writes the corpus again; the workloads' grids and argvs
are then those of the current ``perfbench/workloads.py``.

Usage:
    python scripts/argv_corpus.py run [--src DIR] [--hash-seed 0] [--out head.txt]
    python scripts/argv_corpus.py diff base.txt head.txt
    python scripts/argv_corpus.py build
"""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "argv_corpus.json"

# (workload, seeds, rounds): 32 sample, 20 sweep, 32 verify and 96 extremal argvs
WORKLOAD_ROUNDS = [
    ("members", (1,), range(4)),
    ("sweep", (1,), range(4)),
    ("verify", (1,), range(4)),
    ("extremal", (1, 2, 3), range(1)),
]

# each command's exit codes, output formats, --out files, flag forms and usage errors, then a lone
# "--" as the value of each long flag of each command (argparse reads "--name=--" differently from
# one Python version to the next) and the subnormal-B calls; "grid.txt" is CONTRACT_GRID and
# "taken" a directory
CONTRACT_GRID = ("A=0\nB=0.5\nlambda_re=0.5\nz0_re=0.5\n\nA=-0.5\nB=0.5\nlambda_im=0.3\nz0_re=0.3\nz0_im=0.4\n\n"
           "A=0\nB=0.5\nz0_re=0\n\nA=0.9\nB=0.5\nz0_re=0.5\n\nA=0\nB=nan\nz0_re=-inf\n")
CONTRACT_ARGVS = """
verify --suite all --seed 0
verify --suite all --seed 7
verify --suite all --seed 9
verify --suite=all --seed=0 --tol=1e-17
verify --suite=all --seed=7 --tol=1e-17
verify --suite=all --seed=9 --tol=1e-17
region --A=-0.5 --B 0.5 --lambda 0.3,0.4 --z0 0.5 --format json
region --A=-0.5 --B 0.5 --lambda 0.3,0.4 --z0 0.5 --format svg
region --A=-0.5 --B=0.5 --lambda=0.3,0.4 --z0=0.5 --theta-samples=2500 --format=json
region --A=-0.5 --B=0.5 --lambda=0.3,0.4 --z0=0.5 --theta-samples=2500 --format=csv
region --A=-0.5 --B 0.5 --lambda 0.3,0.4 --z0 0.5 --format csv
region --A=-0.5 --B=0.5 --lambda=0.3,0.4 --z0=0.5 --format=json --out=region_out.json
region --A=0 --B=0.5 --z0=0.5 --tol=1e-9
region --A=0 --B=0.5 --z0=0.5 --out=taken
sample --A=-0.5 --B 0.5 --lambda 0.3,0.4 --z0 0.5 --format json --mc-samples 2000
sample --A=-0.5 --B 0.5 --lambda 0.3,0.4 --z0 0.5 --format csv --mc-samples 2500
sample --A=-0.5 --B=0.5 --lambda=0.3,0.4 --z0=0.5 --mc-samples=9000 --seed=4
sample --A=-0.5 --B=0.5 --lambda=0.3,0.4 --z0=0.5 --mc-samples=9000 --seed=4 --format=json
sample --A=0 --B=0.5 --lambda=0.5 --z0=1e-10 --mc-samples=2000 --seed=2
sample --A=-0.5 --B=1e-16 --lambda=0.5 --z0=0.5 --mc-samples=2000 --seed=2
sample --A=-0.5 --B=1e-310 --lambda=0.5 --z0=0.5 --mc-samples=2000 --seed=2
region --A=-0.5 --B=1e-310 --lambda=0.5 --z0=0.5 --format=json
sample --A=0 --B=0.5 --lambda=0.5 --z0=1e-10 --mc-samples=2000 --seed=2 --format=json
sample --A=-1 --B=1e-3 --lambda=0.5 --z0=2e-4 --mc-samples=2000 --seed=2 --format=json
sweep --grid grid.txt --out sweep --theta-samples 64
extremal --A=-0.5 --B 0.5 --lambda 0.3,0.4 --a 0.6,0.2 --z 0.5,0.1
extremal --A=-1 --B=0.9 --lambda=0.05 --a=-1 --z=0.97
extremal --A=-1 --B=0.9 --lambda=0.05 --a=-1 --z=0.97 --max-panels 1
sweep --grid grid.txt --out thin --theta-samples=2
extremal --A=0 --B=0.5 --lambda=0.3,0.4 --a=0.6,0.2 --z=0.5,0.1 --quad-tol=1e-13
extremal --A 0 --B 0.5 --lambda 0.3,0.4 --a 0.6,0.2 --z 0.5,0.1 --quad-tol 1e-13
extremal --A 0 --B 0.5 --lambda 0.3,0.4 --a 0.6,0.2 --z 0.5,0.1 --quad 1e-13
region --A=0 --B=0.5 --lambda=0.3,0.4 --z0=0.5 --theta-samples=64 --format=json
region --A 0 --B 0.5 --lambda 0.3,0.4 --z0 0.5 --theta-samples 64 --format json
region --A 0 --B 0.5 --lambda 0.3,0.4 --z0 0.5 --theta 64 --format json
sample --A=0 --B=0.5 --lambda=0.3,0.4 --z0=0.5 --mc-samples=500 --seed=3 --format=csv
sample --A 0 --B 0.5 --lambda 0.3,0.4 --z0 0.5 --mc-samples 500 --seed 3 --format csv
sample --A 0 --B 0.5 --lambda 0.3,0.4 --z0 0.5 --mc 500 --seed 3 --format csv
verify --suite=inclusion --seed=3
verify --suite inclusion --seed 3
verify --sui inclusion --seed 3
sweep --grid=grid.txt --out=sweep_equals --theta-samples=16
sweep --grid grid.txt --out sweep_space --theta-samples 16
sweep --grid grid.txt --out sweep_abbrev --theta 16
sample --A=0 --B=0.5 --z0=0.5 --tol=0
sample --A=0 --B=0.5 --z0=0.5 --tol 0
verify --suite=inclusion --seed=-1
verify --suite=inclusion --seed -1
extremal --A=0 --B=0.5 --a=0.5 --z=1.5
extremal --A=0 --B=0.5 --a=0.5 --z 1.5
region --A=0 --B=0.5 --z0=0.5 --out=
region --A=0 --B=0.5 --z0=0.5 --out ''
extremal --A=-0.5 --B 0.5 --lambda 0.3,0.4 --a 0.6,0.2 --z 0.5,0.1 --seed 1
--help
region --help
extremal --help
sample --help
verify --help
sweep --help
region --B=0.5 --z0=0.5 --theta-samples=4 --A=--
region --A=0 --z0=0.5 --theta-samples=4 --B=--
region --A=0 --B=0.5 --z0=0.5 --theta-samples=4 --lambda=--
region --A=0 --B=0.5 --theta-samples=4 --z0=--
region --A=0 --B=0.5 --z0=0.5 --theta-samples=--
region --A=0 --B=0.5 --z0=0.5 --theta-samples=4 --out=--
region --A=0 --B=0.5 --z0=0.5 --theta-samples=4 --format=--
extremal --B=0.5 --lambda=0.5 --a=0.3,0.4 --z=0.5 --A=--
extremal --A=0 --lambda=0.5 --a=0.3,0.4 --z=0.5 --B=--
extremal --A=0 --B=0.5 --a=0.3,0.4 --z=0.5 --lambda=--
extremal --A=0 --B=0.5 --lambda=0.5 --z=0.5 --a=--
extremal --A=0 --B=0.5 --lambda=0.5 --a=0.3,0.4 --z=--
extremal --A=0 --B=0.5 --lambda=0.5 --a=0.3,0.4 --z=0.5 --quad-tol=--
extremal --A=0 --B=0.5 --lambda=0.5 --a=0.3,0.4 --z=0.5 --max-panels=--
extremal --A=0 --B=0.5 --lambda=0.5 --a=0.3,0.4 --z=0.5 --out=--
sample --B=0.5 --z0=0.5 --mc-samples=5 --theta-samples=4 --A=--
sample --A=0 --z0=0.5 --mc-samples=5 --theta-samples=4 --B=--
sample --A=0 --B=0.5 --z0=0.5 --mc-samples=5 --theta-samples=4 --lambda=--
sample --A=0 --B=0.5 --mc-samples=5 --theta-samples=4 --z0=--
sample --A=0 --B=0.5 --z0=0.5 --theta-samples=4 --mc-samples=--
sample --A=0 --B=0.5 --z0=0.5 --mc-samples=5 --theta-samples=--
sample --A=0 --B=0.5 --z0=0.5 --mc-samples=5 --theta-samples=4 --seed=--
sample --A=0 --B=0.5 --z0=0.5 --mc-samples=5 --theta-samples=4 --tol=--
sample --A=0 --B=0.5 --z0=0.5 --mc-samples=5 --theta-samples=4 --out=--
sample --A=0 --B=0.5 --z0=0.5 --mc-samples=5 --theta-samples=4 --format=--
verify --suite=--
verify --suite=inclusion --tol=--
verify --suite=inclusion --seed=--
verify --suite=inclusion --out=--
sweep --out=out --theta-samples=4 --grid=--
sweep --grid=grid.txt --theta-samples=4 --out=--
sweep --grid=grid.txt --out=out --theta-samples=--
sample --A=-0.5 --lambda=0.5 --z0=0.5 --B=5e-324 --mc-samples=10
sample --A=-0.5 --lambda=0.5 --z0=0.5 --B=5e-324 --mc-samples=10 --format=json
sample --A=-0.5 --lambda=0.5 --z0=0.5 --B=1e-310 --mc-samples=10
region --A=-0.5 --lambda=0.5 --z0=0.5 --B=1e-310
sample --A=-0.5 --B=-5e-324 --lambda=1 --z0=0.5 --mc-samples=10
sample --A=-0.5 --B=-5e-324 --lambda=1 --z0=0.5 --mc-samples=10 --format=json
sample --A=-0.5 --B=-5e-324 --lambda=1 --z0=0.5 --mc-samples=10 --format=svg
region --A=-0.5 --B=-5e-324 --lambda=1 --z0=0.5 --format=json
extremal --A=-1 --B=1e-310 --a=0.6,0.2 --z=0
extremal --A=-0.5 --B=5e-324 --a=0.6,0.2 --z=0.5,0.1
"""

# the corners: (A, B) from B = 1/2 down to subnormal B of either sign, at singleton points
# (|lambda| = 1, z0 = 0, and |lambda| one UNIT_TOL below 1) and at two disk points
CORNER_AB = [("-0.5", "0.5"), ("0", "0.5"), ("-1", "-0.5"), ("-0.5", "1e-8"), ("-0.5", "1e-20"),
             ("-1", "1e-300"), ("-0.5", "1e-310"), ("-0.5", "5e-324"), ("-1", "-5e-324"),
             ("0", "5e-324"), ("-1", "-1e-310")]
CORNER_POINTS = [("1", "0.5"), ("0,1", "0.3,0.4"), ("-1", "0.95"), ("0.6,0.8", "0.5,0.1"),
                 ("0.999999999999", "0.5"), ("0.3,0.4", "0"), ("0.5", "0.5"), ("0.3,0.4", "0.5,0.1")]
CORNER_EXTREMAL = [("0.3,0.4", "0.6,0.2", "0.5,0.1"), ("0.3,0.4", "0", "0.5,0.1"), ("-0.9", "1", "0.9")]


def _workload_argvs(files: dict) -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    argvs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, seeds, rounds in WORKLOAD_ROUNDS:
            for seed in seeds:
                for k in rounds:
                    work = Path(tmp) / f"{name}-{seed}"
                    work.mkdir(exist_ok=True)
                    for call in workloads.ROUNDS[name](seed, k, work):
                        # the work directory's paths, relative; sweep grid names carry the seed
                        argvs.append([a.replace(f"{work}/grid-", f"grid-{seed}-").replace(f"{work}/", "")
                                      for a in call.argv])
                    for grid in sorted(work.glob("grid-*.txt")):
                        files[grid.name.replace("grid-", f"grid-{seed}-", 1)] = grid.read_text()
    return argvs


def _corner_argvs() -> list:
    argvs = []
    for A, B in CORNER_AB:
        ab = [f"--A={A}", f"--B={B}"]
        for lam, z0 in CORNER_POINTS:
            point = ab + [f"--lambda={lam}", f"--z0={z0}"]
            argvs += [["region", *point, "--theta-samples=16"],
                      ["region", *point, "--theta-samples=16", "--format=json"],
                      ["sample", *point, "--mc-samples=64", "--seed=1"]]
        argvs.append(["region", *ab, "--lambda=0.3,0.4", "--z0=0.5", "--theta-samples=16", "--format=svg"])
        argvs += [["extremal", *ab, f"--lambda={lam}", f"--a={a}", f"--z={z}"] for lam, a, z in CORNER_EXTREMAL]
    return argvs


def _build(_args) -> None:
    files = {"grid.txt": CONTRACT_GRID, "taken": None}
    argvs = _workload_argvs(files)
    argvs += [["verify", "--suite=all", f"--seed={s}"] for s in range(10)]
    argvs += [shlex.split(line) for line in CONTRACT_ARGVS.strip().splitlines()]
    argvs += _corner_argvs()
    argvs = [list(a) for a in dict.fromkeys(map(tuple, argvs))]  # the first of each repeated argv
    lines = ",\n".join("  " + json.dumps(a) for a in argvs)
    CORPUS.write_text(f'{{"files": {json.dumps(files, indent=1, sort_keys=True)},\n"argvs": [\n{lines}\n]}}\n')
    print(f"wrote {len(argvs)} argvs and {len(files)} inputs to {CORPUS}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _left(top: Path) -> str:
    """mode and sha256 of every file and directory under top, in path order."""
    entries = []
    for path in sorted(top.rglob("*")):
        mode = f"{path.stat().st_mode & 0o777:o}"
        rel = path.relative_to(top).as_posix()
        entries.append(f"{rel}/:{mode}" if path.is_dir() else f"{rel}:{mode}:{_sha(path.read_bytes())}")
    return ";".join(entries)


# "-X dev" prints every warning as "<file>:<line>: <Name>Warning: <message>"
_WARNING = re.compile(rb"\w+Warning: ")


def _fault(proc: subprocess.CompletedProcess) -> str:
    """How an argv's run crashed or warned, or "" for a clean run."""
    if b"Traceback (most recent call last)" in proc.stderr:
        return "a traceback in stderr"
    if _WARNING.search(proc.stderr):
        return "a warning in stderr"
    if not 0 <= proc.returncode <= 5:
        return f"exit code {proc.returncode}, outside 0-5"
    return ""


def _run_one(index: int, argv: list, files: dict, env: dict) -> tuple:
    """The digest line of one argv's run, and "<index> <argv>: <fault>" if it has a _fault, else ""."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            if any(a == name or a.endswith("=" + name) for a in argv):
                if text is None:
                    (Path(tmp) / name).mkdir()
                else:
                    (Path(tmp) / name).write_text(text)
        proc = subprocess.run([sys.executable, "-X", "dev", "-m", "varregion.cli", *argv],
                              cwd=tmp, env=env, capture_output=True, timeout=600)
        fault = _fault(proc)
        return (f"{index:04d} exit={proc.returncode} stdout={_sha(proc.stdout)} stderr={_sha(proc.stderr)} "
                f"files={_left(Path(tmp))} argv={shlex.join(argv)}",
                fault and f"{index:04d} {shlex.join(argv)}: {fault}")


def _digests(argvs: list, files: dict, src: str, hash_seed: int) -> tuple:
    """The _run_one lines, one per argv in argv order, and the faults among them."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(Path(src).resolve()))
    umask = os.umask(0o022)  # every --out file gets mode 0666 less the umask
    try:
        with ThreadPoolExecutor(os.cpu_count()) as pool:
            runs = list(pool.map(lambda ia: _run_one(*ia, files, env), enumerate(argvs)))
    finally:
        os.umask(umask)
    return "".join(line + "\n" for line, _ in runs), [fault for _, fault in runs if fault]


def _run(args) -> None:
    corpus = json.loads(CORPUS.read_text())
    text, faults = _digests(corpus["argvs"], corpus["files"], args.src, args.hash_seed)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if faults:
        print(*faults, f"{len(faults)} of {len(corpus['argvs'])} argvs crashed or warned", sep="\n", file=sys.stderr)
        sys.exit(1)


def _by_argv(path: str) -> dict:
    """A run's lines keyed by argv: each line, and its digests without the index."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        digests = line.split(" ", 1)[1]
        runs[digests.partition(" argv=")[2]] = line, digests
    return runs


def _diff(args) -> None:
    base, head = _by_argv(args.base), _by_argv(args.head)
    changed = [a for a in base if a in head and base[a][1] != head[a][1]]
    removed, added = [a for a in base if a not in head], [a for a in head if a not in base]
    lines = [f"- {base[a][0]}\n+ {head[a][0]}" for a in changed]
    lines += [f"- {base[a][0]}" for a in removed] + [f"+ {head[a][0]}" for a in added]
    summary = f"{len(changed)} of {len(base) - len(removed)} argvs differ"
    if removed or added:
        summary += f"; {len(removed)} removed and {len(added)} added"
    print(*lines, summary, sep="\n")
    if changed or removed or added:
        sys.exit(1)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every argv and write one digest line per argv; exit 1 if one crashed or warned")
    p.add_argument("--src", default=str(ROOT / "src"), help="the source tree to run (default: this checkout's)")
    p.add_argument("--hash-seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the lines here instead of stdout")
    p.set_defaults(func=_run)
    p = sub.add_parser("diff", help="compare two runs; exit 1 if an argv's line differs or is in one run only")
    p.add_argument("base")
    p.add_argument("head")
    p.set_defaults(func=_diff)
    sub.add_parser("build", help="write the corpus file again").set_defaults(func=_build)
    args = ap.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    run()
