"""Exception types shared across the package, and the integer check that
input validation raises them on."""


def is_int(value) -> bool:
    """An int that is not a bool: bool is an int subclass, so a JSON true
    would otherwise pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


class DoflabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DoflabError, ValueError):
    """A matrix or subspace has an incompatible or invalid shape."""


class InputError(DoflabError, ValueError):
    """An argument is outside its documented domain."""


class ConfigurationError(DoflabError, ValueError):
    """A network configuration does not match the requested construction."""


class RankError(DoflabError, ValueError):
    """A matrix violates a full-rank precondition."""


class DegeneracyError(DoflabError, RuntimeError):
    """A construction step lost rank; with continuous channels this is a
    probability-zero event and usually indicates a tolerance misconfiguration."""


class ContractError(DoflabError, RuntimeError):
    """An operation was called on inputs that fail its stated contract."""
