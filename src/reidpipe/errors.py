"""Exception hierarchy shared by all reidpipe modules."""


class ReidError(Exception):
    """Base class for all reidpipe errors."""


class DataError(ReidError):
    """Input data is unusable: malformed, non-finite or inconsistent."""


class FormatError(DataError):
    """A file does not conform to its declared on-disk format."""


class ConfigError(ReidError):
    """Invalid configuration value or missing configuration."""


class DimError(ReidError):
    """Dimension mismatch between arrays that must agree."""


class NumericError(ReidError):
    """A numeric computation produced non-finite values."""


class ContractError(ReidError):
    """A caller violated a documented call contract."""
