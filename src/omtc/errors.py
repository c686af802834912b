"""Error types shared across the package.

The CLI maps ConfigurationError, and an OSError from a file it reads or
writes, to exit code 2 and NumericalError to exit code 3; everything else
is a bug.
"""


class ConfigurationError(ValueError):
    """Invalid parameters, cutoffs, or config-file content."""


class NumericalError(RuntimeError):
    """Runtime failure of the numerics (instability, budget overrun)."""
