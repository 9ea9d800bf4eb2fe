"""Exception types shared across the toolkit."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for data and processing errors raised by this package."""


class DataFormatError(ToolkitError):
    """Malformed input; carries the offending path and line number when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)


class DegenerateCohortError(ToolkitError):
    """Cohort statistics are unusable (for example zero score spread)."""


class FeatureMismatchError(ToolkitError):
    """Feature names or counts at apply time disagree with the fitted model."""

