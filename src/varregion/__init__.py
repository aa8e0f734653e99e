"""Variability regions of log f' for disk-subordination function classes."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the verification suites, in the order ``verify --suite all`` runs them; here, free
# of numpy, so that the CLI's ``--suite`` choices come from the registry's own tuple
SUITE_NAMES: tuple[str, ...] = (
    "prop1", "corollary0", "unit-lambda", "rotation", "coverage", "convexity", "inclusion", "halfplane",
)

# every public name is listed once, in its layer's __all__; the layers, which
# need numpy, load on first use, so that importing varregion.cli does not
_LAYERS = ("extremal", "region", "sampler", "verify")


def __getattr__(name: str):
    """A submodule, or a layer's public name as the layer binds it at the time of the lookup."""
    if name in (*_LAYERS, "cli"):  # a submodule loads alone
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":  # what a star import binds: every layer's public names
        return [public for layer in map(__getattr__, _LAYERS) for public in layer.__all__]
    if not name.startswith("_"):
        for layer in map(__getattr__, _LAYERS):
            if name in layer.__all__:
                return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
