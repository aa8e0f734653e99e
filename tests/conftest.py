import importlib
import pkgutil

import hypothesis
import numpy as np
import pytest

import varregion

np.seterr(all="warn", under="ignore")

# hypothesis mixes the literal constants of every loaded local module into its draws, so a
# derandomized property draws the same cells whatever test files run only if the whole
# package is loaded before the first test
for _module in pkgutil.iter_modules(varregion.__path__):
    importlib.import_module(f"varregion.{_module.name}")

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("ci")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Drop the falsifying examples of an expected failure, so hypothesis saves no patch file for them.

    Hypothesis stores them on the item as it raises, and its pytest plugin
    writes ``.hypothesis/patches/`` from them after the run; an xfail's
    failure is expected, and it still fails.
    """
    yield
    if item.get_closest_marker("xfail") is not None:
        item.__dict__.pop("_hypothesis_failing_examples", None)
