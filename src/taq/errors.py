"""Exception hierarchy, and the checks of caller input.

Public entry points check their arguments through ``require_int``,
``require_real``, ``require_array``, ``require_sequence`` and
``require_instance``; no other module converts or checks caller input
itself. So bad input raises a ``TaqError`` subclass, never a bare
``ValueError``, ``TypeError`` or ``AttributeError``.

Exit codes, for the CLI of ROADMAP direction 2: 2 for ``InvalidInput`` and
its subclass ``InvalidShape``, ``InvalidConfig``, ``InvalidPlan``,
``InsufficientData``, ``CorruptCodes``, ``ModelTooSmall`` and ``IoError``;
3 for ``BudgetInfeasible``; 4 for ``ConvergenceError`` and
``TrainingDiverged``. Any other exception is a bug and exits 1.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np


class TaqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(TaqError):
    """Argument values violate an operation precondition."""


class InvalidShape(InvalidInput):
    """Tensor or vector dimensions do not match the operation's contract."""


class InvalidConfig(TaqError):
    """Configuration values violate an invariant (weights, grids, dims)."""


class InvalidPlan(TaqError):
    """Bit plan does not match the model it is applied to."""


class InsufficientData(TaqError):
    """An accumulator or file holds no data where at least one item is required."""


class CorruptCodes(TaqError):
    """Quantized integer codes fall outside the representable range."""


class ModelTooSmall(TaqError):
    """Layer count too small for edge pinning plus at least one mid layer."""


class TrainingDiverged(TaqError):
    """Training loss became non-finite."""


class IoError(TaqError):
    """A referenced file is missing, unreadable, or malformed."""


class ConvergenceError(TaqError):
    """A LAPACK routine (the SVD behind the spectral entropy) did not converge."""


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


def require_real(name: str, value, error: type[TaqError] = InvalidInput) -> float:
    """``value`` as a finite Python float. Raises ``error`` for a bool, a
    non-number, NaN, an infinity or an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max:
        raise error(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def require_array(name: str, value, ndim: int | None = None, integer: bool = False,
                  finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array of finite values (a bool mask reads as
    0/1), or with ``integer`` as an array of its own integer dtype (ids,
    codes, counts; bools refused, also one nested among ints in lists or
    tuples). A caller that checks finiteness in a pass of its own gives
    ``finite=False``. An empty array passes with any dtype, for the caller's
    shape check. Ragged nesting and non-numeric entries raise InvalidInput,
    a wrong ``ndim`` (when given) InvalidShape."""
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
        raise InvalidShape(f"{name} must be {ndim}-D, got shape {arr.shape}")
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
