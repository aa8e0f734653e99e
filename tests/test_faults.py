"""Every suite can fail: one real mathematical fault at a time, and the suites that catch it.

Each row replaces one kernel, in every varregion module that holds it, by a
wrong version and runs each suite at seed 0 on its default grid.  The set of
suites that fail (a ValueError counts as a failure) must be exactly the set
the row names.
"""

import numpy as np
import pytest

import varregion
import varregion.cli
import varregion.extremal
import varregion.region
import varregion.sampler
import varregion.verify
from varregion.verify import SUITE_NAMES, run_suite

MODULES = (varregion, varregion.cli, varregion.extremal, varregion.region, varregion.sampler,
           varregion.verify)
REAL = {name: getattr(varregion.region, name, None) or getattr(varregion.sampler, name)
        for name in ("_disk", "mobius_delta", "inner_eval", "omega_eval", "log_fprime", "_log1p")}


def radius_too_large(z0, lam):
    center, radius = REAL["_disk"](z0, lam)
    return center, radius * (1.0 + 1e-7)


def blaschke_without_conj(b, z):
    out = b.lead + 0.0 * z
    for alpha, active in zip(b.zeros, b.mask):
        out = np.where(active, out * (z - alpha) / (1.0 - alpha * z), out)
    return out


def mobius_delta_without_conj(z, lam):
    return (z + lam) / (1.0 + lam * z)


def inner_scaled(b, z):
    return 1.001 * REAL["inner_eval"](b, z)


def omega_scaled(inner, lam, z):
    return 1.001 * REAL["omega_eval"](inner, lam, z)


def log_fprime_of_conj(omega, params):
    return REAL["log_fprime"](np.conjugate(omega), params)


def log1p_conj(x):
    return np.conjugate(REAL["_log1p"](x))


FAULTS = [
    ("_disk", radius_too_large, {"prop1", "coverage"}),
    ("inner_eval", blaschke_without_conj, {"halfplane"}),
    ("mobius_delta", mobius_delta_without_conj, {"coverage", "halfplane"}),
    ("inner_eval", inner_scaled, {"prop1", "corollary0", "coverage", "halfplane"}),
    ("log_fprime", log_fprime_of_conj, {"prop1", "coverage", "unit-lambda"}),
    ("_log1p", log1p_conj, {"prop1", "unit-lambda"}),
    ("omega_eval", omega_scaled, {"prop1", "corollary0", "coverage", "halfplane"}),
]


def _fails(name: str) -> bool:
    try:
        return not run_suite(name, seed=0)["passed"]
    except ValueError:
        return True


@pytest.mark.parametrize("kernel, fault, caught_by", FAULTS, ids=[f.__name__ for _, f, _ in FAULTS])
def test_fault_fails_exactly_the_suites_that_can_see_it(monkeypatch, kernel, fault, caught_by):
    patched = [m for m in MODULES if getattr(m, kernel, None) is REAL[kernel]]
    assert patched
    for module in patched:
        monkeypatch.setattr(module, kernel, fault)
    assert {name for name in SUITE_NAMES if _fails(name)} == caught_by
