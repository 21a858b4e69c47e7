"""Exception hierarchy and the integer check shared by every module.

The CLI planned in ROADMAP direction 2 is to map them to exit codes:
config/data problems exit 2, budget infeasibility exits 3, numeric
convergence failures exit 4.
"""

from __future__ import annotations

import numpy as np


class TaqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidShape(TaqError):
    """Tensor or vector dimensions do not match the operation's contract."""


class InvalidInput(TaqError):
    """Argument values violate an operation precondition."""


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


def require_int(name: str, value) -> int:
    """``value`` as a Python int. Raises InvalidInput unless it is an int or a
    numpy integer; a bool is refused too, as a flag and not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    return int(value)
