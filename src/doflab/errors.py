"""Exception types shared across the package, and the integer checks that
input validation raises them on."""


def is_int(value) -> bool:
    """An int that is not a bool: bool is an int subclass, so a JSON true
    would otherwise pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_positive(**values):
    """Refuse, naming it, the first value that is not a positive int
    (is_int): a float, a bool or a count below 1."""
    for name, value in values.items():
        if not is_int(value) or value < 1:
            raise InputError(f"{name} must be a positive integer, got {value!r}")


def require_seed(seed):
    """Refuse a seed that is not a non-negative int (is_int): no generator
    stream is keyed by a negative seed, a float or a bool."""
    if not is_int(seed) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")


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
