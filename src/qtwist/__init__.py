"""qtwist: exact symbolic verification of multi-parameter twisted quantum
algebra identities over Laurent/rational coefficient rings."""

__version__ = "0.1.0"

from .coeffring import (
    Context,
    LaurentPoly,
    NotDivisible,
    RatExpr,
    RingError,
    gauss_vanish,
    qbinom,
    qint,
)
from .params import ParameterSet
from .rootdata import CartanDatum, DatumError, RootDatum, builtin

__all__ = [
    "Context",
    "LaurentPoly",
    "RatExpr",
    "RingError",
    "NotDivisible",
    "qint",
    "qbinom",
    "gauss_vanish",
    "ParameterSet",
    "CartanDatum",
    "RootDatum",
    "DatumError",
    "builtin",
    "__version__",
]
