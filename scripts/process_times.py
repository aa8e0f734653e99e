#!/usr/bin/env python3
"""Whole-process wall times of CLI argvs, beside the interpreter's own floors.

Each source tree (a directory holding the ``varregion`` package, ``src/`` by
default) is copied to a temporary directory and compiled there with
``compileall``, so that every process reads bytecode whatever the tree's own
``__pycache__`` holds; ``PYTHONDONTWRITEBYTECODE`` is removed from the
children's environment.  Every round then runs one process of each argv on
each tree, as ``python -m varregion.cli ARGV``, and of the floors
``python -c pass`` and ``python -c "import numpy"``, all from this
interpreter, with stdout and stderr to /dev/null, in a scratch working
directory (so that ``--out`` files land there).  The order rotates by one
process each round, so every process takes every place in the order equally
often.  Prints the medians and quartiles in ms as JSON, with the exit codes
each process gave.

Usage:
    python scripts/process_times.py --runs 21 --tree parent=../parent/src --tree change=src \\
        --argv="extremal --A=-0.5 --B=0.5 --lambda=0.3,0.4 --a=0.6,0.2 --z=0.5,0.1"
"""

import argparse
import compileall
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FLOORS = {"python -c pass": ["-c", "pass"], "python -c 'import numpy'": ["-c", "import numpy"]}


def _tree(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not (sep and label and (Path(path) / "varregion").is_dir()):
        raise argparse.ArgumentTypeError(f"want LABEL=DIR, with DIR holding the varregion package: {text!r}")
    return label, Path(path)


def _quartiles(ms: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2)}


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=21, help="rounds, at least 2")
    ap.add_argument("--tree", type=_tree, action="append", help="LABEL=DIR (repeatable; default src=src/)")
    ap.add_argument("--argv", action="append", required=True,
                    help="one CLI argv as a shell string; write --argv=--help for an argv that starts with -")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    trees = args.tree or [("src", SRC)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        procs = {name: (cmd, env) for name, cmd in FLOORS.items()}
        for label, src in trees:
            copy = Path(tmp) / "trees" / label
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            if not compileall.compile_dir(copy, quiet=1):
                sys.exit(f"compileall failed on {src}")
            tree_env = dict(env, PYTHONPATH=str(copy))
            for line in args.argv:
                procs[f"{label} {line}"] = (["-m", "varregion.cli", *shlex.split(line)], tree_env)
        names = list(procs)
        ms = {name: [] for name in names}
        exits = {name: set() for name in names}
        for r in range(args.runs):
            for name in names[r % len(names):] + names[:r % len(names)]:
                cmd, child_env = procs[name]
                start = time.perf_counter()
                code = subprocess.run([sys.executable, *cmd], env=child_env, cwd=work, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
                ms[name].append(1e3 * (time.perf_counter() - start))
                exits[name].add(code)
    print(json.dumps({
        "python": sys.version.split()[0],
        "bytecode": ("each tree copied and compiled with compileall before the runs; "
                     "PYTHONDONTWRITEBYTECODE removed from the children's environment"),
        "runs": args.runs,
        "processes": {name: {**_quartiles(ms[name]), "exits": sorted(exits[name])} for name in names},
    }, indent=2))


if __name__ == "__main__":
    run()
