"""Effective spectra and grand-canonical statistics of open oscillator systems.

Every name in a submodule's ``__all__`` is importable from the package, and
the package ``__all__`` is the sorted union of those lists, so each public
name is declared once, in the module that defines it.
"""

from . import chain, errors, gas, open_system, oracle, series, spectra, stats, summation
from .chain import *  # noqa: F403
from .errors import *  # noqa: F403
from .gas import *  # noqa: F403
from .open_system import *  # noqa: F403
from .oracle import *  # noqa: F403
from .series import *  # noqa: F403
from .spectra import *  # noqa: F403
from .stats import *  # noqa: F403
from .summation import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (chain, errors, gas, open_system, oracle, series, spectra, stats, summation)
__all__ = sorted({name for module in _MODULES for name in module.__all__})
