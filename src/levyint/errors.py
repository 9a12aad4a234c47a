"""The package's two exception types, and the config number check.

Every error this package raises is a :class:`LevyintError`, and the
command line exits 2 on any of them.  :class:`ConfigInvalid` is raised
where the value can come from a config file or the command line:
eigenvalues, the basis, driver entries and jumps, replay data,
breakpoints, a missing file or an unknown check; its message names the
key.  A plain :class:`LevyintError` is a broken contract between layers:
a shape, a spec or a component index.
"""


class LevyintError(Exception):
    """Base class for every error raised by this package."""


class ConfigInvalid(LevyintError):
    """The configuration is malformed; the message names the offending key."""


def expect_number(value, where: str) -> float:
    """A config value as a float, or a ConfigInvalid naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{where} must be a number, got {value!r}")
    return float(value)
