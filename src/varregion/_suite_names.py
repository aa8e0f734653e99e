"""The names of the verification suites, in the order ``verify --suite all`` runs them.

A module of its own, free of numpy, so that the CLI's ``--suite`` choices and
``verify``'s registry come from this one tuple and parsing imports no numpy.
"""

SUITE_NAMES: tuple[str, ...] = (
    "prop1", "corollary0", "unit-lambda", "rotation", "coverage", "convexity", "inclusion", "halfplane",
)
