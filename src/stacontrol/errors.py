"""Exception types shared across the package."""


class StaControlError(Exception):
    """Base class for all stacontrol errors."""


class InvalidParameterError(StaControlError, ValueError):
    """A physical or numerical parameter is outside its admissible range."""


class DegenerateSystemError(StaControlError, ValueError):
    """Both couplings vanish; the closed-form eigenmodes are undefined."""


class InvalidBasisError(StaControlError, ValueError):
    """A supplied eigenmode basis is not orthonormal to the required tolerance."""


class SolverError(StaControlError, RuntimeError):
    """The ODE integrator failed to complete a propagation."""


class ConfigError(StaControlError, ValueError):
    """A configuration file failed to parse or validate."""
