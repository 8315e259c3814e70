"""Large-deviation toolkit for the squared radial Ornstein-Uhlenbeck process.

Exact simulation, drift estimators, closed-form rate functions, the limiting
cumulant generating function, and numerical Legendre / inf-sup cross-checks.

The public API is each module's ``__all__``; the package re-exports them all.
"""

from __future__ import annotations

__version__ = "0.10.0"

from . import cgf, cir_model, errors, functionals, harness, rates
from .errors import *
from .cir_model import *
from .functionals import *
from .cgf import *
from .rates import *
from .harness import *

__all__ = [
    "__version__",
    *errors.__all__,
    *cir_model.__all__,
    *functionals.__all__,
    *cgf.__all__,
    *rates.__all__,
    *harness.__all__,
]
