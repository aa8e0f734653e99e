"""Variability regions of log f' for disk-subordination function classes."""

# every public name is listed once, in its module's __all__
from .extremal import *
from .region import *
from .sampler import *
from .verify import *

__version__ = "0.1.0"
