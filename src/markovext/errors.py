"""Exception hierarchy shared by all modules, and the integer and real argument checks."""
import numbers
import operator


class MarkovExtError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(MarkovExtError, ValueError):
    """Malformed or inconsistent arguments (length/dimension mismatches, unsupported sizes)."""


class DomainError(MarkovExtError, ValueError):
    """A parameter lies outside the mathematical domain of a formula."""


class ConstructionError(MarkovExtError):
    """A combinatorial object (e.g. a weak design) cannot be built for the requested parameters."""


class CompositionError(MarkovExtError):
    """Extractor composition preconditions (strongness, dimensions) are violated."""


class ResourceBudgetError(MarkovExtError):
    """An exact enumeration would exceed the configured budget; oracles never fall back to sampling."""


class CertificationError(MarkovExtError):
    """A min-entropy claim cannot be certified for the given state."""


def checked_index(value, what: str) -> int:
    """`value` as an int through `operator.index`; a bool, float or string raises
    InvalidArgumentError instead of being truncated or escaping as TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")


def is_real(value) -> bool:
    """A real number (numpy's included) that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
