"""Exception hierarchy shared across the package, and the field checks.

Every error raised by dkm code derives from DkmError so the CLI can map
failures to a single machine-parseable class name and exit code.
"""

import numbers


class DkmError(Exception):
    """Base class for all dkm errors."""


class ShapeError(DkmError):
    """Operand dimensions are incompatible."""


class ParameterError(DkmError):
    """A configuration value or argument is out of its legal range.

    ``fields`` maps each bad field of a settings dataclass to why it is bad.
    """

    def __init__(self, message: str, fields: dict[str, str] | None = None):
        super().__init__(message)
        self.fields = fields or {}


class DataError(DkmError):
    """Input data is empty or too small for the requested operation."""


class NumericError(DkmError):
    """A non-finite value appeared where finite values are required."""


class ResourceError(DkmError):
    """The requested work needs more memory than this machine has."""


class ConfigError(DkmError):
    """A config file failed validation; message lists every problem found."""


class FormatError(DkmError):
    """Base class for compressed-layer container errors."""


class BadMagicError(FormatError):
    """Stream does not start with the container magic."""


class VersionMismatchError(FormatError):
    """Container version is not supported by this reader."""


class TruncatedStreamError(FormatError):
    """Stream ended before the size implied by its header."""


class IndexRangeError(FormatError):
    """A codebook index is outside [0, 2^bits)."""


# Each settings dataclass checks its own fields with these: each says why a
# value is bad, or returns None. A bool is neither an integer nor a number.


def integer(value, low: int, high: int | None = None) -> str | None:
    """An integer in [low, high], or >= low when high is None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return f"must be an integer, got {value!r}"
    if value < low or (high is not None and value > high):
        return f"must be >= {low}, got {value}" if high is None else f"must be in [{low}, {high}], got {value}"
    return None


def real(value, low: float, *, above: bool = False, below: float | None = None) -> str | None:
    """A real number >= low (> low with ``above``), and < ``below`` if given; NaN fails."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"must be a number, got {value!r}"
    if (value > low if above else value >= low) and (below is None or value < below):
        return None
    span = f"in [{low}, {below})" if below is not None else f"> {low}" if above else f">= {low}"
    return f"must be {span}, got {value}"


def choice(value, options: tuple) -> str | None:
    return None if value in options else f"must be one of {options}, got {value!r}"


def flag(value) -> str | None:
    return None if isinstance(value, bool) else f"must be a bool, got {value!r}"


def check_fields(**reasons: str | None) -> None:
    """Raise one ParameterError naming every field whose reason is not None."""
    bad = {name: why for name, why in reasons.items() if why is not None}
    if bad:
        raise ParameterError("; ".join(f"{name} {why}" for name, why in bad.items()), bad)
