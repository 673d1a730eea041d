"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FramePartitionError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(FramePartitionError, ValueError):
    """Invalid argument value: a bad kind, shape, matrix, block or file (exit 2 in the CLI)."""


class NormViolation(FramePartitionError):
    """A vector that must be unit norm is not, beyond tolerance.

    Carries the first offending index and its norm; ``indices`` lists every
    offender for reporting.
    """

    def __init__(self, index: int, norm: float, indices: tuple[int, ...] | None = None):
        self.index = int(index)
        self.norm = float(norm)
        self.indices = tuple(indices) if indices is not None else (int(index),)
        super().__init__(
            f"vector {self.index} has norm {self.norm!r}, expected 1 "
            f"(offending indices: {list(self.indices)})"
        )
