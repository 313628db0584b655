"""The errors mmproto raises, each with the exit code `mmproto` returns
for it: 1 for a malformed file, 2 for a bad flag, config value or input,
3 for non-finite numbers. The CLI prints `<label>: <message>`.
"""
from __future__ import annotations


class Error(Exception):
    """Base of every mmproto error."""

    exit_code = 1
    label = "error"


class UsageError(Error):
    """A flag, config value, shape or argument is outside what the call
    accepts."""

    exit_code = 2
    label = "usage error"


class FormatError(Error):
    """A corpus or checkpoint file is malformed; the message names the byte
    offset or the tensor."""


class NumericalError(Error):
    """Non-finite numbers reached a solver or the loss."""

    exit_code = 3
    label = "numerical error"


class NumericalAbort(NumericalError):
    """Training met non-finite numbers; carries the iteration and batch."""

    def __init__(self, iteration: int, batch_indices, reason: str):
        self.iteration = iteration
        self.batch_indices = [int(i) for i in batch_indices]
        super().__init__(f"{reason} at iteration {iteration}, "
                         f"batch indices {self.batch_indices}")
