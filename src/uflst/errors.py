"""Exception and warning types shared across the package."""


class UflstError(Exception):
    """Base class for all package-specific errors."""


class InvalidArchitectureError(UflstError):
    """Network layer dimensions are unusable (e.g. a zero-width layer)."""


class InputError(UflstError):
    """An input array violates a precondition (non-finite values, bad shape)."""


class ContractViolationError(UflstError):
    """A caller broke an internal contract (mismatched cache, bad split sizes)."""


class InfeasibleCheckError(UflstError):
    """The requested gradient check cannot be formed on the given batch."""


class EpisodeInfeasibleError(UflstError):
    """Not enough eligible pseudo-classes to sample the requested episode."""


class EmptyClusteringError(UflstError):
    """DBSCAN marked every point as noise; no pseudo-labels exist."""


class RoundFailedError(UflstError):
    """The clustering fallback ladder was exhausted for a training round."""


class ProtocolInfeasibleError(UflstError):
    """The evaluation dataset cannot support the requested N-way protocol."""


class DatasetParseError(UflstError):
    """A dataset file failed to parse; message names the offending location."""


class CheckpointFormatError(UflstError):
    """A checkpoint file has bad magic, version, or is truncated."""


class ConfigError(UflstError, ValueError):
    """A config file or override is malformed, names an unknown key, or
    holds a value of the wrong type or out of range."""


class DegenerateGeometryWarning(UserWarning):
    """All pairwise distances are zero (or similarly degenerate geometry)."""
