"""Exception hierarchy shared across the package.

Every error raised by dkm code derives from DkmError so the CLI can map
failures to a single machine-parseable class name and exit code.
"""


class DkmError(Exception):
    """Base class for all dkm errors."""


class ShapeError(DkmError):
    """Operand dimensions are incompatible."""


class ParameterError(DkmError):
    """A configuration value or argument is out of its legal range."""


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
