"""Timing statistics, host speed, set-up time and host facts.

Timing uses time.perf_counter only.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

TAIL_BEYOND = 10

# reference() on the host where the benchmark was defined (2-vCPU Xeon) while
# no other tenant slowed it.  Only the ratio to it matters; it never changes.
REFERENCE_S = 1.2e-3
# A new reference sample is taken once this much call time has passed.
REFERENCE_EVERY_S = 0.025

_SETUP_CODE = """\
import time
t0 = time.perf_counter()
import varregion.cli
varregion.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""

# A fresh interpreter importing numpy and a fixed set of standard-library
# modules: start-up work of the same kind as _SETUP_CODE with none of the
# program's code in it.  It took SETUP_REFERENCE_S on the host where the
# benchmark was defined while no other tenant slowed it; only the ratio to it
# matters, and it never changes.
_SETUP_REFERENCE_CODE = """\
import time
t0 = time.perf_counter()
import numpy, asyncio, email.parser, http.client, xml.etree.ElementTree, unittest, logging
import decimal, argparse, json
print(repr(time.perf_counter() - t0))
"""
SETUP_REFERENCE_S = 0.115


def tail(times: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ``beyond`` calls above it.

    With n sorted times, the call at index n - beyond - 1 has exactly ``beyond``
    calls after it; it sits at percentile 100 (n - beyond)/n.
    """
    n = len(times)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} calls for the tail, got {n}")
    return sorted(times)[n - beyond - 1], 100.0 * (n - beyond) / n


def _reference_once() -> float:
    t0 = perf_counter()
    d = {}
    s = 0.0
    for i in range(2000):
        s += i * 0.5
        d[i & 63] = f"{s:.6g}"
    a = np.arange(256.0)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    json.dumps(d)
    return perf_counter() - t0


def reference() -> float:
    """Seconds for a fixed mix of interpreter, numpy and json work; best of two.

    It stands for the speed of the host at this moment.  The program's code is
    not in it, so no change to the program moves it.
    """
    return min(_reference_once(), _reference_once())


class HostClock:
    """Converts measured seconds to seconds on the reference host.

    Other tenants of a shared host slow everything in this process by up to
    1.7x, for half a second to minutes at a time.  A call's time is scaled by
    REFERENCE_S / r, where r is the median of the last three reference()
    samples, counting the one taken right after the call when it is due.  The
    median keeps one sample that a burst hit alone from skewing a call.  Runs
    made while the host was slow then compare with runs made while it was
    quiet.
    """

    def __init__(self) -> None:
        self.samples = [reference()]
        self._since = 0.0

    def adjust(self, seconds: float) -> float:
        self._since += seconds
        if self._since >= REFERENCE_EVERY_S:
            self.samples.append(reference())
            self._since = 0.0
        return seconds * REFERENCE_S / statistics.median(self.samples[-3:])


def measure_setup(root: Path, repeats: int) -> dict[str, list[float]]:
    """Seconds a fresh interpreter takes to import varregion.cli and build the parser.

    Other tenants of a shared host slow interpreter start-up by up to 1.8x for
    tens of seconds at a time, and the two reference() samples around a
    0.4-second start do not follow it: they flip between two speeds within
    milliseconds.  So each start is timed between two fresh interpreters that
    run _SETUP_REFERENCE_CODE, and scaled by SETUP_REFERENCE_S over the mean of
    the two.  Start-up and reference slow together: on the defining host raw
    starts spread over 0.34-0.63 s while their ratio to the reference stayed
    within 2.8-3.4, but for the two starts on either side of one sudden change
    of speed.  One untimed start of each first compiles the bytecode and
    warms the file cache, since an installed package has both.

    Returns the adjusted and raw start times and the reference times, which
    interleave with the starts (one more reference than starts).
    """
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def start(code: str) -> float:
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        return float(out.stdout)

    start(_SETUP_CODE)
    start(_SETUP_REFERENCE_CODE)
    refs = [start(_SETUP_REFERENCE_CODE)]
    raw = []
    for _ in range(repeats):
        raw.append(start(_SETUP_CODE))
        refs.append(start(_SETUP_REFERENCE_CODE))
    adjusted = [s * SETUP_REFERENCE_S / (0.5 * (before + after))
                for s, before, after in zip(raw, refs, refs[1:])]
    return {"adjusted_s": adjusted, "raw_s": raw, "reference_s": refs}


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def host_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{_read(index / 'level')}-{_read(index / 'type')}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
