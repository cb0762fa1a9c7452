"""Exception types shared across the package."""


class CadenError(Exception):
    """Base class for all package-specific errors."""


class GraphSamplingError(CadenError):
    """Raised when random graph sampling exhausts its retry budget."""


class DisconnectedGraphError(CadenError):
    """Raised when a graph that must be connected is not."""


class LipschitzEstimateError(CadenError):
    """Raised when the smoothness probe cannot produce a single valid quotient."""


class ParameterSelectionError(CadenError):
    """Raised when theory-mode parameter selection is infeasible."""


class ConfigError(CadenError):
    """Raised on malformed or contradictory experiment configuration, and by
    ``config.check_value`` for a value of the wrong kind or out of range."""


class CheckpointError(CadenError):
    """Raised when a checkpoint file has a foreign magic number or format
    version, or is shorter or longer than its header declares."""


class DivergenceError(CadenError):
    """Raised when a run's state or logged metrics stop being finite."""
