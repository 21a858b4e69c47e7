"""Exception classes, one per exit code, and the checks of caller input.

Public entry points check their arguments through ``require_int``,
``require_real``, ``require_array``, ``require_sequence`` and
``require_instance``; no other module converts or checks caller input
itself. So bad input raises ``InvalidInput``, never a bare
``ValueError``, ``TypeError`` or ``AttributeError``.

Exit codes, for the CLI of ROADMAP direction 2: 2 for ``InvalidInput``, 3
for ``BudgetInfeasible``, 4 for ``ConvergenceError``. Any other exception,
``TaqError`` itself included, is a bug and exits 1. The message, not the
class, tells one refused input from another.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np


class TaqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(TaqError):
    """An argument, config, plan or data set violates an operation's precondition."""


class ConvergenceError(TaqError):
    """A training loss or gradient is not finite, or the spectral entropy's SVD did not converge."""


class BudgetInfeasible(TaqError):
    """Assigned plan exceeds the bit budget."""

    def __init__(self, message: str, achieved_cost: int, budget: float):
        super().__init__(message)
        self.achieved_cost = achieved_cost
        self.budget = budget


def require_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a Python int, at least ``minimum`` when one is given.
    Raises InvalidInput unless it is an int or a numpy integer; a bool is
    refused too, as a flag and not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidInput(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def require_real(name: str, value) -> float:
    """``value`` as a finite Python float. Raises InvalidInput for a bool, a
    non-number, NaN, an infinity or an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max:
        raise InvalidInput(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def require_array(name: str, value, ndim: int | None = None, integer: bool = False,
                  finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array of finite values (a bool mask reads as
    0/1), or with ``integer`` as an array of its own integer dtype (ids,
    codes, counts; bools refused, also one nested among ints in lists or
    tuples). A caller that checks finiteness in a pass of its own gives
    ``finite=False``. An empty array passes with any dtype, for the caller's
    shape check. Ragged nesting, non-numeric entries and a wrong ``ndim``
    (when given) raise InvalidInput."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as err:  # numpy's refusal of ragged nesting
        raise InvalidInput(f"{name} must be a rectangular array of numbers: {err}") from None
    if arr.size and arr.dtype.kind not in ("iu" if integer else "biuf"):
        raise InvalidInput(f"{name} must hold {'integers' if integer else 'real numbers'}, "
                           f"got dtype {arr.dtype}")
    # numpy reads a bool among ints as 0/1; an ndarray's dtype already told
    if integer and arr.size and not isinstance(value, np.ndarray) \
            and {bool, np.bool_} & set(map(type, np.asarray(value, dtype=object).flat)):
        raise InvalidInput(f"{name} must hold integers, not bools")
    if ndim is not None and arr.ndim != ndim:
        raise InvalidInput(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if integer:
        return arr
    arr = arr.astype(np.float64, copy=False)
    if finite and not np.isfinite(arr).all():
        raise InvalidInput(f"{name} must be finite")
    return arr


def require_sequence(name: str, value, length: int | None = None):
    """``value`` itself if it is a list, a tuple or an array of at least one
    dimension, with ``length`` elements when one is given; InvalidInput
    otherwise (a number, a string, None, a dict)."""
    if not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim):
        raise InvalidInput(f"{name} must be a list, tuple or array, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise InvalidInput(f"{name} must have {length} elements, got {len(value)}")
    return value


def require_instance(name: str, value, cls: type):
    """``value`` itself if it is a ``cls``; InvalidInput otherwise."""
    if not isinstance(value, cls):
        raise InvalidInput(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value
