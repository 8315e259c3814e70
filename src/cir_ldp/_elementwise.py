"""Private: the typed arithmetic that lets one formula serve floats and arrays.

Each helper sends a Python float to math or to a conditional expression and
anything else to numpy.  On floats it returns numpy's bits, inf and NaN
included (a NaN's sign aside), without a warning.

The package's one rule for reading an argument as a real number lives here
too, below every module that checks one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def _where(cond, x, y):
    # np.where, but a numpy scalar mask gives a numpy scalar, not a 0-d array.
    if type(cond) is bool:
        return x if cond else y
    return np.where(cond, x, y)[()]


def _any(mask) -> bool:
    return mask if type(mask) is bool else mask.any()


def _maximum(x, y):
    # np.maximum propagates NaN and returns y on a tie (so -0.0 vs 0.0 is y).
    if type(x) is float and type(y) is float:
        return x if x > y or x != x else y
    return np.maximum(x, y)


def _minimum(x, y):
    if type(x) is float and type(y) is float:
        return x if x < y or x != x else y
    return np.minimum(x, y)


def _sqrt(x):
    if type(x) is float:
        return math.nan if x < 0.0 else math.sqrt(x)
    return np.sqrt(x)


def _pow(x, p: float):
    # libm pow, as Python's float ** p is; numpy's x ** 2 is x * x, which
    # differs from it by an ulp on some inputs.  p is even, so where
    # math.pow overflows the power is +inf.
    if type(x) is not float:
        return np.float_power(x, p)
    try:
        return math.pow(x, p)
    except OverflowError:
        return math.inf


def _sq(x):
    return _pow(x, 2.0)


def _libm(fn, x):
    # fn, a math function such as math.log or math.exp, elementwise: an array
    # runs it value by value, because numpy's SIMD log and exp differ from
    # libm's by an ulp on some inputs.
    if isinstance(x, np.ndarray):
        return np.array(list(map(fn, x.ravel().tolist())), dtype=float).reshape(x.shape)
    return fn(x)


def _is_real(value) -> bool:
    # An int or a float, Python's or numpy's, is a real number; a bool is not.
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _real(value) -> float:
    # float(value), where an int past float range reads as +-inf, as the
    # literal 1e400 does.
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_real(what: str, value) -> float:
    # value as a float, once it is known to be a real number.
    if type(value) is float:  # the common case, checked first: it is hot
        return value
    if not _is_real(value):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    return _real(value)


def _check_positive(what: str, value) -> None:
    # A time or a state is a real number, positive and finite; nan is neither.
    if not 0.0 < _check_real(what, value) < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value}")
