"""Exception types shared across the package."""


class RingcatError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RingcatError):
    """Invalid CLI flag or configuration-file entry."""


class InvalidOccupationError(RingcatError, ValueError):
    """Occupation numbers are negative or do not sum to the particle number."""


class InvalidModeError(RingcatError, ValueError):
    """Mode index outside {0, 1, 2}."""


class UnsupportedConfigurationError(RingcatError, ValueError):
    """Parameters outside the domain of an analytic construction."""


class NumericalContractError(RingcatError, RuntimeError):
    """A numerical guarantee (hermiticity, residual, conditioning) was violated."""


class NearResonantIntermediateError(NumericalContractError):
    """An eliminated state sits too close to the working energy for a stable resolvent."""

    def __init__(self, message: str, occupation: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.occupation = occupation
