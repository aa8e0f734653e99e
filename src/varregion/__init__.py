"""Variability regions of log f' for disk-subordination function classes."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every public name is listed once, in its layer's __all__; the layers, which
# need numpy, load on first use, so that importing varregion.cli does not
_LAYERS = ("extremal", "region", "sampler", "verify")


def _publish() -> None:
    """Import the layers and bind here each name of their ``__all__``."""
    for layer in _LAYERS:
        module = _import_module(f"{__name__}.{layer}")
        globals().update((name, getattr(module, name)) for name in module.__all__)


def __getattr__(name: str):
    if name in (*_LAYERS, "cli"):  # a submodule loads alone
        return _import_module(f"{__name__}.{name}")
    if not name.startswith("_"):
        _publish()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _publish()
    return sorted(globals())
