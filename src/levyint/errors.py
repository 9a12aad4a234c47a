"""Exception types shared across the package, and the config number check."""


class LevyintError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(LevyintError):
    """Array shapes disagree with the declared dimensions."""


class NonPositiveEigenvalue(LevyintError):
    """Covariance eigenvalues must be strictly positive."""


class NonOrthogonalBasis(LevyintError):
    """Basis columns fail the orthonormality tolerance."""


class BlockShapeMismatch(LevyintError):
    """A block rotation does not match its eigenvalue block."""


class NonOrthogonalRotation(LevyintError):
    """A block rotation fails the orthogonality tolerance."""


class NonNormalizable(LevyintError):
    """No intensity rescaling can bring the driver variance rate to one."""


class ZeroJumpSize(LevyintError):
    """Jump sizes must be nonzero."""


class IndexOutOfRange(LevyintError):
    """A component index lies outside the available range."""


class SpecMismatch(LevyintError):
    """Two objects were built against incompatible spectral data."""


class GridMismatch(LevyintError):
    """Integrand breakpoints are not nodes of the path grid."""


class ConfigNotFound(LevyintError):
    """The configuration file does not exist."""


class ConfigInvalid(LevyintError):
    """The configuration is malformed; the message names the offending key."""


def expect_number(value, where: str) -> float:
    """A config value as a float, or a ConfigInvalid naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{where} must be a number, got {value!r}")
    return float(value)


class UnknownCheck(LevyintError):
    """An unknown check name; the message lists the valid names."""
