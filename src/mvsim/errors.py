"""Exception types shared across the toolkit.

Plain ``ValueError`` is used for bad arguments (shape mismatches, out-of-range
parameters); the classes here mark failures of the computation itself.
"""

from __future__ import annotations


class MvsimError(Exception):
    """Base class for toolkit failures."""


class NumericError(MvsimError):
    """A coefficient or statistic evaluated to a non-finite value."""


class SimulationError(MvsimError):
    """A particle system blew up mid-run."""

    def __init__(self, message: str, step: int | None = None,
                 particle: int | None = None):
        super().__init__(message)
        self.step = step
        self.particle = particle


class StabilityError(MvsimError):
    """A fixed time step violates the explicit-scheme stability limit."""


class ConservationError(MvsimError):
    """Grid mass drifted beyond tolerance net of tracked boundary flux."""


class PositivityError(MvsimError):
    """A grid density undershot below the allowed negative excursion."""


class ConditioningError(MvsimError):
    """A linear solve hit a matrix that is singular to working tolerance."""

    def __init__(self, message: str, cond_estimate: float | None = None):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class ConfigError(MvsimError):
    """An experiment config failed validation.

    ``field_path`` points at the offending entry, e.g. ``"fp.nodes.1"``.
    """

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(message)
        self.field_path = field_path
