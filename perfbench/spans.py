"""In-memory spans around the public functions of the five varregion layers.

A :class:`Tracer` wraps every public function of ``cli``, ``region``,
``sampler``, ``extremal`` and ``verify`` and installs the wrapper wherever a
caller looks the function up: the defining module's namespace and every other
varregion namespace that imported it.  Nothing in ``src/`` changes.  Each span
records its name, start, end, parent span and the id of the CLI call it belongs
to; spans stay in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "region", "sampler", "extremal", "verify")

# Functions whose spans also record how many points they evaluated.
POINTS = {
    "sampler.member_log_fprime": np.size,
    "extremal.extremal_fprime": np.size,
    "region.boundary_curve": len,
}


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with an underscore."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Span recorder; use as a context manager around the traced calls."""

    def __init__(self, modules: dict[str, object], namespaces: list[object]):
        self.modules = modules  # layer name -> module
        self.namespaces = namespaces  # every module a caller may look a function up in
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.call_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        name_id, parent, call = self.name_id, self.parent, self.call
        start, end, points, stack = self.start, self.end, self.points, self._stack
        count = POINTS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            call.append(self.call_id)
            points.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count is not None:
                points[i] = count(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrapped = {}
        for layer, module in self.modules.items():
            for name, fn in public_functions(module).items():
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for ns in self.namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapped[id(value)][1])
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "call": np.frombuffer(self.call, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span once, at the end of the run."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time covered by its direct children.

    Spans come from one thread, so children nest inside their parent and do not
    overlap each other.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def summarize(names: list[str], spans: dict[str, np.ndarray],
              suites: tuple[str, ...] = (), suite_of_call: dict[int, str] | None = None,
              ) -> dict[str, float]:
    """Per-layer metrics from the spans; see README.md for their definitions.

    ``verify.suite.<name>.self_s`` adds up the verify layer's self time over the
    CLI calls that ``suite_of_call`` labels with that suite.
    """
    suite_of_call = suite_of_call or {}
    name_id, parent = spans["name_id"], spans["parent"]
    own = self_times(parent, spans["start"], spans["end"])
    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])
    ids = {n: i for i, n in enumerate(names)}

    def of(name: str) -> np.ndarray:
        return name_id == ids.get(name, -1)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(own[layer_of[name_id] == layer].sum())
    for fn in ("cli.build_parser", "cli.region_record", "sampler.sample_inner",
               "sampler.member_log_fprime", "region.contains", "region.boundary_curve",
               "region.variability_disk", "extremal.extremal_value",
               "verify.check_convexity_and_jordan", "verify.check_coverage"):
        m[f"{fn}.self_s"] = float(own[of(fn)].sum())
        m[f"{fn}.calls"] = int(of(fn).sum())
    m["sampler.member_points"] = int(spans["points"][of("sampler.member_log_fprime")].sum())
    m["region.boundary_points"] = int(spans["points"][of("region.boundary_curve")].sum())

    # Quadrature: integrand evaluations made under fprime_segment_integral; the
    # last one under each integral is the estimate it accepted.
    integrals = np.flatnonzero(of("extremal.fprime_segment_integral"))
    inside = of("extremal.extremal_fprime") & np.isin(parent, integrals)
    evaluated = int(spans["points"][inside].sum())
    last = {}
    for i in np.flatnonzero(inside):
        last[int(parent[i])] = i
    accepted = int(sum(spans["points"][i] for i in last.values()))
    m["extremal.integrand_points"] = evaluated
    m["extremal.estimates_per_value"] = (int(inside.sum()) / len(last)) if last else 0.0
    m["extremal.useful_point_frac"] = accepted / evaluated if evaluated else 0.0

    verify_own = np.where(layer_of[name_id] == "verify", own, 0.0)
    calls = spans["call"]
    per_call = np.bincount(calls[calls >= 0], weights=verify_own[calls >= 0])
    for suite in suites:
        m[f"verify.suite.{suite}.self_s"] = float(sum(
            per_call[c] for c, s in suite_of_call.items() if s == suite and c < per_call.size))
    return m
