"""Exception taxonomy shared across the package.

CLI exit-code mapping: ConfigError -> 1, DataError -> 2, ProtocolError -> 3.
ShapeError / ContractError indicate programming errors and are allowed to
propagate as tracebacks, as is NonFiniteLossError (a diverged run).
"""


class TriclError(Exception):
    pass


class ShapeError(TriclError):
    """Operand shapes incompatible with the requested operation."""


class ContractError(TriclError):
    """An API precondition was violated by the caller."""


class ConfigError(TriclError):
    """Invalid configuration or usage."""


class KernelSupportError(ConfigError):
    """Wavelet parameters whose kernels are too wide to build in bounded memory."""


class DataError(TriclError):
    """Malformed or unreadable input data."""


class EmptyInputError(DataError):
    """Input too short to process (e.g. segment shorter than one frame)."""


class UnsupportedRateError(DataError):
    """Sample rate outside the supported (downsample-only) range."""


class ProtocolError(TriclError):
    """Evaluation-protocol violation, e.g. train/test fold leakage."""


class DegenerateBatchError(TriclError):
    """Fewer than two samples survived anomaly filtering."""


class NonFiniteLossError(TriclError):
    """A training batch produced a NaN or infinite loss."""
